//! The disk backend's engine-level contracts:
//!
//! 1. **Byte-identity**: a disk-backed database (multi-segment tables, tiny
//!    segments to force many of them) returns *debug-format identical*
//!    results to the in-memory backend for random tables, predicates, and
//!    aggregations, at 1 and 4 worker threads — and zone-map-pruned scans
//!    are exactly equivalent to full scans.
//! 2. **Pruning works and is observable**: a Q6-shaped selective range scan
//!    over a clustered column skips segments (`segments_pruned > 0`) and
//!    reads fewer real bytes than the unpruned full scan.
//! 3. **Crash safety**: a load killed before its catalog commit is invisible
//!    after reopen; a flipped byte in a committed segment file surfaces as a
//!    query error, not wrong data.
//! 4. **Persistence**: `Database::open` on an existing directory serves the
//!    committed rows; `persist()` makes tail rows durable.

use monomi_engine::{ColumnDef, ColumnType, Database, ExecOptions, TableSchema, Value};
use monomi_sql::parse_query;
use monomi_store::{Store, StoreOptions};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A unique store directory per call (tests and proptest cases run
/// concurrently in one process).
fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "monomi-disk-test-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_small_store(dir: &PathBuf, segment_rows: usize) -> Arc<Store> {
    Store::open_with(
        dir,
        StoreOptions {
            segment_rows,
            cache_bytes: 4 << 20,
            ..StoreOptions::default()
        },
    )
    .expect("store opens")
}

fn lineitem_like_schema() -> TableSchema {
    TableSchema::new(
        "t",
        vec![
            ColumnDef::new("a", ColumnType::Int),
            ColumnDef::new("b", ColumnType::Int),
            ColumnDef::new("s", ColumnType::Str),
            ColumnDef::new("d", ColumnType::Date),
        ],
    )
}

fn rows_from(spec: &[(i64, i64, u8, i16)]) -> Vec<Vec<Value>> {
    let cats = ["AIR", "RAIL", "TRUCK", "SHIP"];
    spec.iter()
        .map(|&(a, b, c, d)| {
            vec![
                if a % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(a)
                },
                Value::Int(b),
                Value::Str(cats[(c % 4) as usize].into()),
                Value::Date(d as i32),
            ]
        })
        .collect()
}

fn predicate_sql(kind: u8, c1: i64, c2: i64) -> String {
    let (lo, hi) = (c1.min(c2), c1.max(c2));
    match kind % 10 {
        0 => format!("a = {c1}"),
        1 => format!("a < {c1}"),
        2 => format!("b >= {c1}"),
        3 => format!("b BETWEEN {lo} AND {hi}"),
        4 => format!("a NOT BETWEEN {lo} AND {hi}"),
        5 => "s IN ('AIR', 'TRUCK')".to_string(),
        6 => "s LIKE 'R%'".to_string(),
        7 => "a IS NULL".to_string(),
        8 => format!("a <> {c1}"),
        _ => format!("d < DATE '{}'", monomi_engine::date::format_date(c1 as i32)),
    }
}

/// Loads `rows` into table `t` by a scripted mix of calls: each `(kind, n)`
/// step consumes the next `n` rows through single-row `insert`s (kind 0) or
/// one `bulk_load` (kind 1), or takes none and calls `persist` (kind 2). What
/// the script leaves over is bulk-loaded — committing everything so far —
/// except the last `tail_rows` rows, which are inserted one by one and so end
/// up in the table's in-memory tail.
fn scripted_load(db: &mut Database, rows: &[Vec<Value>], script: &[(u8, usize)], tail_rows: usize) {
    let (mut body, tail) = rows.split_at(rows.len() - tail_rows);
    for &(kind, n) in script {
        let (chunk, rest) = body.split_at(n.min(body.len()));
        match kind % 3 {
            0 => {
                for row in chunk {
                    db.insert("t", row.clone()).expect("insert");
                }
            }
            1 => db.bulk_load("t", chunk.to_vec()).expect("bulk load"),
            _ => {
                db.persist().expect("persist");
                continue; // consumed nothing
            }
        }
        body = rest;
    }
    db.bulk_load("t", body.to_vec()).expect("bulk load");
    for row in tail {
        db.insert("t", row.clone()).expect("tail insert");
    }
}

proptest! {
    // Each case does real file I/O; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Disk results ≡ memory results, byte for byte (debug format pins float
    /// bit patterns and variant), for filters and aggregations at 1 and 4
    /// threads — with the disk table split over many tiny segments so
    /// zone-map pruning actually fires. Also: pruning never changes counts —
    /// rows_materialized matches the memory scan exactly.
    ///
    /// Both tables are filled by the same scripted sequence of `insert` /
    /// `bulk_load` / `persist` calls, which leaves the store-backed one with
    /// committed segments *and* a non-empty in-memory tail (whenever the
    /// segment size allows one) while the store-less one is all tail: every
    /// accessor must agree across that boundary.
    #[test]
    fn disk_execution_is_byte_identical_to_memory(
        spec in proptest::collection::vec(
            (-40i64..40, -40i64..40, any::<u8>(), -200i16..200), 0..70),
        script in proptest::collection::vec((any::<u8>(), 0usize..12), 0..6),
        segment_rows in 1usize..9,
        t1 in any::<u8>(), t2 in any::<u8>(),
        c1 in -50i64..50, c2 in -50i64..50,
    ) {
        let rows = rows_from(&spec);
        // Fewer inserts than a segment holds never trigger the auto-flush.
        let tail_rows = rows.len().min(segment_rows - 1);

        let mut mem = Database::in_memory();
        mem.create_table(lineitem_like_schema());
        scripted_load(&mut mem, &rows, &script, tail_rows);

        let dir = fresh_dir("ident");
        let store = open_small_store(&dir, segment_rows);
        let mut disk = Database::with_store(Arc::clone(&store));
        disk.create_table(lineitem_like_schema());
        scripted_load(&mut disk, &rows, &script, tail_rows);

        let (m, d) = (mem.table("t").unwrap(), disk.table("t").unwrap());
        // The committed/tail split is where the script put it...
        prop_assert_eq!(store.table_rows("t") as usize, rows.len() - tail_rows);
        prop_assert_eq!(d.stored_bytes() > 0, rows.len() > tail_rows);
        prop_assert_eq!(m.stored_bytes(), 0);
        // ...and invisible through every accessor.
        prop_assert_eq!(m.row_count(), rows.len());
        prop_assert_eq!(d.row_count(), rows.len());
        prop_assert_eq!(format!("{:?}", m.rows()), format!("{:?}", &rows));
        prop_assert_eq!(format!("{:?}", d.rows()), format!("{:?}", &rows));
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(format!("{:?}", m.row(i)), format!("{:?}", row));
            prop_assert_eq!(format!("{:?}", d.row(i)), format!("{:?}", row));
            for (c, v) in row.iter().enumerate() {
                prop_assert_eq!(format!("{:?}", m.value(i, c)), format!("{:?}", v));
                prop_assert_eq!(format!("{:?}", d.value(i, c)), format!("{:?}", v));
            }
        }
        prop_assert_eq!(m.size_bytes(), d.size_bytes());
        for c in 0..m.schema().columns.len() {
            prop_assert_eq!(m.column_size_bytes(c), d.column_size_bytes(c));
            prop_assert_eq!(m.distinct_count(c), d.distinct_count(c));
            prop_assert_eq!(format!("{:?}", m.min_max(c)), format!("{:?}", d.min_max(c)));
        }

        let pred = format!("({}) AND ({})", predicate_sql(t1, c1, c2), predicate_sql(t2, c2, c1));
        let queries = [
            format!("SELECT a, b, s, d FROM t WHERE {pred}"),
            format!("SELECT s, COUNT(*), SUM(b), MIN(a), MAX(d) FROM t WHERE {pred} \
                     GROUP BY s ORDER BY s"),
            "SELECT COUNT(*) FROM t".to_string(),
        ];
        for sql in &queries {
            for threads in [1usize, 4] {
                let opts = ExecOptions::with_threads(threads);
                let query = parse_query(sql).expect("parses");
                let (expected, mem_stats, _) =
                    mem.execute(&query, &[], &opts, false).expect("memory run");
                let (got, disk_stats, _) =
                    disk.execute(&query, &[], &opts, false).expect("disk run");
                prop_assert_eq!(
                    format!("{:?}", &expected),
                    format!("{:?}", &got),
                    "results diverged for {} at {} threads", sql, threads
                );
                // Pruning is result-invisible: the disk scan materializes
                // exactly what the memory scan does, and never scans more
                // rows than exist.
                prop_assert_eq!(mem_stats.rows_materialized, disk_stats.rows_materialized);
                prop_assert!(disk_stats.rows_scanned <= mem_stats.rows_scanned);
                prop_assert_eq!(mem_stats.segments_read, 0);
                // The counters that do not describe segment layout (rows and
                // bytes materialized, result rows and bytes) are identical.
                prop_assert_eq!(
                    &mem_stats.work_counters()[2..6],
                    &disk_stats.work_counters()[2..6]
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Index-probed execution ≡ full-scan execution, byte for byte, over a
    /// table whose segments are *mixed*: the first half committed by a store
    /// with indexes off (no `.idx` files), the second half after a reopen
    /// with indexes on. Both legs must also match the memory backend, probes
    /// never scan more rows than the full scan, and the work counters are
    /// invariant under the thread count.
    #[test]
    fn index_probes_match_full_scan_byte_for_byte(
        spec in proptest::collection::vec(
            (-40i64..40, -40i64..40, any::<u8>(), -200i16..200), 1..60),
        segment_rows in 2usize..9,
        t1 in any::<u8>(),
        c1 in -50i64..50, c2 in -50i64..50,
    ) {
        let rows = rows_from(&spec);
        let split = rows.len() / 2;

        let mut mem = Database::in_memory();
        mem.create_table(lineitem_like_schema());
        mem.bulk_load("t", rows.clone()).expect("memory load");

        let dir = fresh_dir("probe");
        {
            let store = Store::open_with(&dir, StoreOptions {
                segment_rows,
                cache_bytes: 4 << 20,
                index_mode: monomi_store::IndexMode::Off,
            }).expect("store opens");
            let mut disk = Database::with_store(store);
            disk.create_table(lineitem_like_schema());
            disk.bulk_load("t", rows[..split].to_vec()).expect("unindexed half");
        }
        let store = open_small_store(&dir, segment_rows);
        let mut disk = Database::with_store(store);
        disk.bulk_load("t", rows[split..].to_vec()).expect("indexed half");

        let queries = [
            format!("SELECT a, b, s, d FROM t WHERE {}", predicate_sql(t1, c1, c2)),
            format!("SELECT b, s FROM t WHERE a = {c1}"),
            format!("SELECT a FROM t WHERE b BETWEEN {} AND {}", c1.min(c2), c1.max(c2)),
        ];
        for sql in &queries {
            let (baseline, _) = mem.execute_sql(sql, &[]).expect("memory baseline");
            let expected = format!("{:?}", baseline.rows);
            let mut counters = Vec::new();
            for threads in [1usize, 4] {
                let probed_opts = ExecOptions::with_threads(threads)
                    .with_index_mode(monomi_store::IndexMode::All);
                let scan_opts = ExecOptions::with_threads(threads)
                    .with_index_mode(monomi_store::IndexMode::Off);
                let query = parse_query(sql).expect("parses");
                let (probed, probed_stats, _) =
                    disk.execute(&query, &[], &probed_opts, false).expect("probed run");
                let (scanned, scanned_stats, _) =
                    disk.execute(&query, &[], &scan_opts, false).expect("scanned run");
                prop_assert_eq!(&format!("{:?}", probed.rows), &expected,
                    "probed diverged for {} at {} threads", sql, threads);
                prop_assert_eq!(&format!("{:?}", scanned.rows), &expected,
                    "full scan diverged for {} at {} threads", sql, threads);
                // Probing narrows work, never the result.
                prop_assert!(probed_stats.rows_scanned <= scanned_stats.rows_scanned);
                prop_assert_eq!(probed_stats.rows_materialized, scanned_stats.rows_materialized);
                prop_assert_eq!(probed_stats.result_rows, scanned_stats.result_rows);
                prop_assert_eq!(probed_stats.result_bytes, scanned_stats.result_bytes);
                prop_assert_eq!(scanned_stats.index_probes, 0);
                counters.push((probed_stats.work_counters(), scanned_stats.work_counters()));
            }
            // The thread count changes parallelism, not work: every counter
            // except the trailing morsels/threads_used pair is identical.
            let (p1, s1) = &counters[0];
            let (p4, s4) = &counters[1];
            prop_assert_eq!(&p1[..11], &p4[..11], "probed counters drifted for {}", sql);
            prop_assert_eq!(&s1[..11], &s4[..11], "scan counters drifted for {}", sql);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Builds a disk table whose `a` column is clustered (sorted), so segment
/// zone maps carry disjoint ranges — the shape a selective Q6-like range
/// predicate can prune.
fn clustered_disk_db(dir: &PathBuf, n: i64, segment_rows: usize) -> Database {
    let store = open_small_store(dir, segment_rows);
    let mut db = Database::with_store(store);
    db.create_table(lineitem_like_schema());
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 13),
                Value::Str(["AIR", "RAIL"][(i % 2) as usize].into()),
                Value::Date((i / 4) as i32),
            ]
        })
        .collect();
    db.bulk_load("t", rows).expect("clustered load");
    db
}

#[test]
fn q6_shaped_selective_scan_prunes_segments_and_reads_fewer_bytes() {
    let dir = fresh_dir("prune");
    let db = clustered_disk_db(&dir, 1000, 100); // 10 segments of 100 rows
    let selective = "SELECT a, b FROM t WHERE a BETWEEN 940 AND 960";
    let (rs, stats) = db.execute_sql(selective, &[]).expect("selective scan");
    assert_eq!(rs.rows.len(), 21);
    // 9 of the 10 segments lie wholly outside [940, 960].
    assert_eq!(
        stats.segments_pruned, 9,
        "zone maps must skip 9/10 segments"
    );
    assert_eq!(stats.segments_read, 1);
    // The ordered index narrows the surviving segment to the 21 matching
    // rows before any column data is decoded.
    assert_eq!(stats.rows_scanned, 21);
    assert!(stats.index_probes >= 1, "range probe must run");
    assert_eq!(stats.index_rows_fetched, 21);
    assert!(stats.postings_bytes_read > 0);

    // With index probing disabled, zone maps still prune — and the one
    // surviving segment is scanned in full, byte-identically.
    let off = ExecOptions::serial().with_index_mode(monomi_store::IndexMode::Off);
    let (rs_off, off_stats, _) = db
        .execute(&parse_query(selective).expect("parses"), &[], &off, false)
        .expect("selective scan, indexes off");
    assert_eq!(format!("{:?}", rs.rows), format!("{:?}", rs_off.rows));
    assert_eq!(off_stats.segments_pruned, 9);
    assert_eq!(off_stats.rows_scanned, 100);
    assert_eq!(off_stats.index_probes, 0);

    let (_, full) = db
        .execute_sql("SELECT a, b FROM t", &[])
        .expect("full scan");
    assert_eq!(full.segments_pruned, 0);
    assert_eq!(full.segments_read, 10);
    assert!(
        stats.bytes_scanned < full.bytes_scanned / 5,
        "pruned scan read {} bytes, full scan {}",
        stats.bytes_scanned,
        full.bytes_scanned
    );

    // An equality probe on the clustered key touches exactly one segment.
    let (rs_eq, eq_stats) = db
        .execute_sql("SELECT b FROM t WHERE a = 555", &[])
        .expect("point query");
    assert_eq!(rs_eq.rows, vec![vec![Value::Int(555 % 13)]]);
    assert_eq!(eq_stats.segments_read, 1);
    assert_eq!(eq_stats.segments_pruned, 9);

    // A predicate no row satisfies prunes everything — zero bytes read.
    let (rs_none, none_stats) = db
        .execute_sql("SELECT a FROM t WHERE a > 5000", &[])
        .expect("empty scan");
    assert!(rs_none.is_empty());
    assert_eq!(none_stats.segments_pruned, 10);
    assert_eq!(none_stats.bytes_scanned, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_serves_repeat_scans_without_rereading() {
    let dir = fresh_dir("cache");
    let db = clustered_disk_db(&dir, 400, 50);
    let store = Arc::clone(db.store().expect("disk backed"));
    let (cold, _) = db.execute_sql("SELECT a FROM t", &[]).expect("cold scan");
    let (_, misses_cold) = store.cache().stats();
    assert_eq!(misses_cold, 8, "cold scan decodes every segment once");
    let (warm, _) = db.execute_sql("SELECT a FROM t", &[]).expect("warm scan");
    let (hits, misses_warm) = store.cache().stats();
    assert_eq!(misses_warm, misses_cold, "warm scan must not re-decode");
    assert!(hits >= 8);
    assert_eq!(
        format!("{cold:?}"),
        format!("{warm:?}"),
        "cache changed results"
    );
    store.cache().clear();
    let (cold_again, _) = db.execute_sql("SELECT a FROM t", &[]).expect("cold scan");
    assert_eq!(
        format!("{cold:?}"),
        format!("{cold_again:?}"),
        "cold scans disagree"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reopen_serves_persisted_rows_and_insert_tail_needs_persist() {
    let dir = fresh_dir("reopen");
    {
        let mut db = Database::open(&dir).expect("fresh open");
        db.create_table(lineitem_like_schema());
        db.bulk_load("t", rows_from(&[(1, 10, 0, 5), (2, 20, 1, 6)]))
            .expect("bulk load");
        // Single-row inserts sit in the in-memory tail until persisted.
        db.insert("t", rows_from(&[(3, 30, 2, 7)]).remove(0))
            .expect("insert");
        db.persist().expect("flush tail");
    }
    let db = Database::open(&dir).expect("reopen");
    let (rs, _) = db
        .execute_sql("SELECT b FROM t ORDER BY b", &[])
        .expect("query after reopen");
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::Int(10)],
            vec![Value::Int(20)],
            vec![Value::Int(30)]
        ]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_bulk_load_is_invisible_after_reopen() {
    let dir = fresh_dir("crash");
    let store = open_small_store(&dir, 4);
    {
        let mut db = Database::with_store(Arc::clone(&store));
        db.create_table(lineitem_like_schema());
        db.bulk_load("t", rows_from(&[(1, 1, 0, 1), (2, 2, 1, 2)]))
            .expect("pre-crash load");
    }
    // Simulated kill mid-load: segments hit the disk, the commit never runs.
    {
        let mut load = store.begin_load("t");
        let rows = rows_from(&[(8, 8, 0, 8), (9, 9, 1, 9)]);
        let columns: Vec<Vec<Value>> = (0..4)
            .map(|c| rows.iter().map(|r| r[c].clone()).collect())
            .collect();
        load.add_segment(&columns).expect("segment written");
        std::mem::forget(load); // a kill runs no destructors
    }
    drop(store);

    let db = Database::open(&dir).expect("reopen after crash");
    let (rs, stats) = db
        .execute_sql("SELECT b FROM t ORDER BY b", &[])
        .expect("query");
    // Exactly the pre-load state: the torn load contributed nothing.
    assert_eq!(rs.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    assert_eq!(stats.rows_scanned, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_segment_fails_the_query_not_the_results() {
    let dir = fresh_dir("corrupt");
    let db = clustered_disk_db(&dir, 120, 40);
    // Flip one byte in one committed segment file.
    let seg_file = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .expect("a segment file exists");
    let mut bytes = std::fs::read(&seg_file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&seg_file, bytes).unwrap();

    let err = db
        .execute_sql("SELECT a FROM t", &[])
        .expect_err("corruption must fail the scan");
    assert!(
        err.message.contains("checksum"),
        "error should name the checksum: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_index_file_falls_back_to_full_scan() {
    let dir = fresh_dir("idxcorrupt");
    let sql = "SELECT b FROM t WHERE a BETWEEN 5 AND 8";
    let (expected, idx_path) = {
        let db = clustered_disk_db(&dir, 30, 30); // one segment, one .idx
        let (rs, stats) = db.execute_sql(sql, &[]).expect("indexed query");
        assert!(stats.index_probes >= 1, "the pristine index must be probed");
        let idx = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "idx"))
            .expect("an index file exists");
        (format!("{:?}", rs.rows), idx)
    };
    let pristine = std::fs::read(&idx_path).unwrap();
    // Every possible single-byte corruption: the store reports a typed error,
    // and the engine silently degrades to the full scan — same rows, no
    // panic, no probe against poisoned postings.
    for i in 0..pristine.len() {
        let mut corrupted = pristine.clone();
        corrupted[i] ^= 0xFF;
        std::fs::write(&idx_path, &corrupted).unwrap();
        // Fresh open per flip so no decoded index lingers in a cache.
        let db = Database::open(&dir).expect("reopen");
        let store = Arc::clone(db.store().expect("disk backed"));
        let meta = store.with_table_meta("t", |m| {
            m.expect("table exists").segments[0]
                .index
                .clone()
                .expect("segment is indexed")
        });
        let err = store
            .read_indexes(&meta)
            .expect_err("corruption must surface as a typed error");
        assert!(!err.message.is_empty(), "byte {i}");
        let (rs, stats) = db.execute_sql(sql, &[]).expect("query survives corruption");
        assert_eq!(format!("{:?}", rs.rows), expected, "byte {i}");
        assert_eq!(
            stats.index_probes, 0,
            "byte {i}: corrupt index must not seed"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn env_selected_disk_databases_clean_up_their_temp_dir() {
    // `Database::new()` honors MONOMI_STORAGE, which this test cannot mutate
    // safely; exercise the same path through the explicit constructors.
    let dir = fresh_dir("tmpclean");
    {
        let store = open_small_store(&dir, 8);
        let mut db = Database::with_store(store);
        db.create_table(lineitem_like_schema());
        assert!(db.is_disk_backed());
        assert_eq!(db.table("t").unwrap().backing_name(), "disk");
    }
    // `with_store` does not own the directory — it must still exist...
    assert!(dir.exists());
    std::fs::remove_dir_all(&dir).ok();
    // ...while `Database::new()` under the default env stays in memory.
    let db = Database::new();
    assert!(!db.is_disk_backed() || std::env::var("MONOMI_STORAGE").is_ok());
}

/// Persisted artifacts are deterministic: two databases built by the same
/// sequence of operations — tables created in non-alphabetical order so a
/// hash-ordered table map would flush them in random order — produce
/// byte-identical MANIFESTs (which embed every segment file name, checksum,
/// and zone map). Regression test for `Database::tables` being an ordered
/// map; see `Database::persist`.
#[test]
fn persist_produces_byte_identical_manifests() {
    fn build(dir: &PathBuf) -> Vec<u8> {
        let store = open_small_store(dir, 4);
        let mut db = Database::with_store(store);
        for name in ["zulu", "mike", "alpha", "quebec", "victor", "echo"] {
            db.create_table(TableSchema::new(
                name,
                vec![
                    ColumnDef::new("k", ColumnType::Int),
                    ColumnDef::new("v", ColumnType::Str),
                ],
            ));
            let rows: Vec<Vec<Value>> = (0..10)
                .map(|i| vec![Value::Int(i), Value::Str(format!("{name}-{i}"))])
                .collect();
            db.bulk_load(name, rows).unwrap();
        }
        db.persist().unwrap();
        std::fs::read(dir.join("MANIFEST")).expect("manifest exists after persist")
    }

    let (d1, d2) = (fresh_dir("det1"), fresh_dir("det2"));
    let (m1, m2) = (build(&d1), build(&d2));
    assert_eq!(
        m1, m2,
        "identical build sequences must persist byte-identical manifests"
    );
    std::fs::remove_dir_all(&d1).ok();
    std::fs::remove_dir_all(&d2).ok();
}
