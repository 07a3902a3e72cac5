//! Secondary-index microbenchmark: DET point lookups and OPE range probes
//! against the same scans without indexes — the access-path change this
//! repo's encrypted indexes buy (O(result) row touches instead of O(table)).
//!
//! A synthetic encrypted-schema table (`k_det` equality keys, `v_ope`
//! ordered values, a payload column) is loaded in the regime where zone
//! maps fail and only a real index helps: values are mostly ordered but
//! every segment carries one far-flung outlier, so each segment's
//! `[min, max]` spans nearly the whole domain (zone maps prune nothing)
//! while a narrow range's rows still live in one or two segments (posting
//! intersections prune the rest unread). DET keys are striped so every
//! key's rows sit in one segment but no segment's key range is prunable.
//! Three copies run the same queries:
//!
//! * **indexed disk** — per-segment `.idx` files built at load time;
//! * **unindexed disk** — the same store with `IndexMode::Off` at load;
//! * **memory** — the in-memory backend, the byte-identity reference.
//!
//! Measurements (per query: a DET point lookup and a 1% OPE range), taken
//! with a cold segment cache each iteration — the disk-resident regime of
//! §8, with index blocks resident in their own byte-budgeted cache:
//! * wall-clock, indexed vs unindexed (median of `MONOMI_BENCH_ITERS`);
//! * `rows_scanned` / `index_rows_fetched` / `postings_bytes_read`;
//! * byte-identity of all three copies at 1 and 4 threads (asserted).
//!
//! The bench *fails* unless the indexed runs scan ≥10× fewer rows and are
//! ≥5× faster than the unindexed scans — the regression guard for the
//! index subsystem.
//!
//! The table has 40000 rows.

use monomi_bench::{bench_iters, print_header};
use monomi_engine::{
    ColumnDef, ColumnType, Database, ExecOptions, ExecStats, ResultSet, TableSchema, Value,
};
use monomi_store::{IndexMode, Store, StoreOptions};
use std::time::Instant;

fn median_seconds(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn schema() -> TableSchema {
    TableSchema::new(
        "t",
        vec![
            ColumnDef::new("k_det", ColumnType::Str),
            ColumnDef::new("v_ope", ColumnType::Int),
            ColumnDef::new("p", ColumnType::Int),
        ],
    )
}

/// Rows per segment; pinned (not the store default) because the data layout
/// below is built against this block size.
const SEGMENT_ROWS: usize = 4096;

/// Mostly-ordered values with one far-flung outlier per segment-sized block:
/// block `b`'s first value is swapped with its mirror near the end of the
/// table, so every block's `[min, max]` spans nearly the whole domain and
/// zone maps keep every segment for any mid-domain range — while the rows of
/// a narrow range still physically sit in one or two blocks. DET keys are
/// striped across blocks (block `b` holds keys `b, b + nblocks, ...`, ten
/// consecutive rows each): every key's rows sit in exactly one block, but
/// every block's key `[min, max]` spans nearly the whole key domain, so zone
/// maps cannot prune a point lookup either.
fn make_rows(n: usize) -> Vec<Vec<Value>> {
    let nblocks = n.div_ceil(SEGMENT_ROWS);
    let mut vs: Vec<usize> = (0..n).collect();
    let mut o = 0;
    while o < n / 2 {
        vs.swap(o, n - 1 - o);
        o += SEGMENT_ROWS;
    }
    vs.into_iter()
        .enumerate()
        .map(|(i, v)| {
            let key = (i / SEGMENT_ROWS) + nblocks * ((i % SEGMENT_ROWS) / 10);
            vec![
                Value::Str(format!("key_{key:06}")),
                Value::Int(v as i64),
                Value::Int((v % 97) as i64),
            ]
        })
        .collect()
}

fn disk_db(tag: &str, index_mode: IndexMode, rows: Vec<Vec<Value>>) -> Database {
    let dir = std::env::temp_dir().join(format!("monomi-index-micro-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open_with(
        &dir,
        StoreOptions {
            index_mode,
            segment_rows: SEGMENT_ROWS,
            ..StoreOptions::default()
        },
    )
    .expect("store opens");
    let mut db = Database::with_store(store);
    db.create_table(schema());
    db.bulk_load("t", rows).expect("bulk load");
    db
}

fn cleanup(tag: &str) {
    let dir = std::env::temp_dir().join(format!("monomi-index-micro-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
}

fn run(db: &Database, sql: &str, opts: &ExecOptions) -> (ResultSet, ExecStats) {
    let query = monomi_sql::parse_query(sql).expect("query parses");
    let (rs, stats, _) = db.execute(&query, &[], opts, false).expect("query runs");
    (rs, stats)
}

fn bench_query(
    label: &str,
    sql: &str,
    mem: &Database,
    indexed: &Database,
    unindexed: &Database,
    iters: usize,
) {
    // Byte-identity across all three copies at 1 and 4 threads, with the
    // index modes forced explicitly so the ambient MONOMI_INDEXES setting
    // cannot quietly turn this into an index-vs-index comparison.
    let (reference, _) = run(mem, sql, &ExecOptions::serial());
    let expected = format!("{:?}", reference.rows);
    for threads in [1usize, 4] {
        let on = ExecOptions::with_threads(threads).with_index_mode(IndexMode::All);
        let off = ExecOptions::with_threads(threads).with_index_mode(IndexMode::Off);
        for (db, opts, leg) in [
            (indexed, &on, "indexed"),
            (indexed, &off, "indexed-db/probes-off"),
            (unindexed, &on, "unindexed"),
        ] {
            let (rs, _) = run(db, sql, opts);
            assert_eq!(
                expected,
                format!("{:?}", rs.rows),
                "{label}: {leg} diverged at {threads} threads"
            );
        }
    }

    let on = ExecOptions::serial().with_index_mode(IndexMode::All);
    let (_, indexed_stats) = run(indexed, sql, &on);
    let (_, unindexed_stats) = run(unindexed, sql, &on);
    assert!(
        indexed_stats.index_probes > 0,
        "{label}: the indexed copy must probe"
    );
    assert_eq!(
        unindexed_stats.index_probes, 0,
        "{label}: the unindexed copy must not probe"
    );

    // Timed legs run against a cold segment cache — the disk-resident
    // regime of §8, where the unindexed scan must decode every segment and
    // probes let the indexed copy decode only the segments holding the
    // result. Index blocks stay resident (they are a few percent of the
    // data and live in their own byte-budgeted cache), matching the
    // indexes-hot/data-cold assumption the cost model prices.
    let drop_segments = |db: &Database| {
        if let Some(store) = db.store() {
            store.cache().clear();
        }
    };
    let mut indexed_samples = Vec::with_capacity(iters);
    let mut unindexed_samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        drop_segments(indexed);
        let start = Instant::now();
        std::hint::black_box(run(indexed, sql, &on));
        indexed_samples.push(start.elapsed().as_secs_f64());
        drop_segments(unindexed);
        let start = Instant::now();
        std::hint::black_box(run(unindexed, sql, &on));
        unindexed_samples.push(start.elapsed().as_secs_f64());
    }
    let indexed_s = median_seconds(indexed_samples);
    let unindexed_s = median_seconds(unindexed_samples);
    let speedup = unindexed_s / indexed_s.max(1e-12);
    let scan_reduction =
        unindexed_stats.rows_scanned as f64 / (indexed_stats.rows_scanned as f64).max(1.0);

    println!("{label}:");
    println!(
        "  unindexed: {:>10.3}ms  {:>8} rows scanned",
        unindexed_s * 1e3,
        unindexed_stats.rows_scanned,
    );
    println!(
        "  indexed:   {:>10.3}ms  {:>8} rows scanned, {} probes, {} rows fetched, {} posting bytes",
        indexed_s * 1e3,
        indexed_stats.rows_scanned,
        indexed_stats.index_probes,
        indexed_stats.index_rows_fetched,
        indexed_stats.postings_bytes_read,
    );
    println!("  speedup: {speedup:>6.2}x wall-clock, {scan_reduction:>8.1}x fewer rows scanned");

    assert!(
        scan_reduction >= 10.0,
        "{label}: index must cut rows scanned >=10x (got {scan_reduction:.1}x)"
    );
    assert!(
        speedup >= 5.0,
        "{label}: index must be >=5x faster (got {speedup:.2}x)"
    );
}

fn main() {
    print_header(
        "Index microbenchmark: DET point lookups and OPE range probes",
        "encrypted access paths — postings seed the scan, O(result) not O(table)",
    );
    let n = 40_000;
    let iters = bench_iters(9);

    let rows = make_rows(n);
    let mut mem = Database::in_memory();
    mem.create_table(schema());
    mem.bulk_load("t", rows.clone()).expect("memory load");
    let indexed = disk_db("indexed", IndexMode::All, rows.clone());
    let unindexed = disk_db("unindexed", IndexMode::Off, rows);

    let store = indexed.store().expect("disk backed");
    println!(
        "t: {} rows, {} segments, {:.1} MB stored, indexes: {}\n",
        n,
        store.table_meta("t").map(|m| m.segments.len()).unwrap_or(0),
        indexed.total_stored_bytes() as f64 / 1e6,
        store
            .table_meta("t")
            .map(|m| m.segments.iter().filter(|s| s.index.is_some()).count())
            .unwrap_or(0),
    );

    // DET point lookup: one of n/10 equality classes, 10 rows.
    let point_sql = "SELECT v_ope, p FROM t WHERE k_det = 'key_000042'";
    // Q6-shaped OPE range aggregate covering 1% of the value domain — two
    // one-sided conjuncts the probe planner merges into a single range.
    let (lo, hi) = (n / 2, n / 2 + n / 100);
    let range_sql = format!("SELECT SUM(p), COUNT(*) FROM t WHERE v_ope >= {lo} AND v_ope < {hi}");

    bench_query(
        "DET point lookup",
        point_sql,
        &mem,
        &indexed,
        &unindexed,
        iters,
    );
    println!();
    bench_query(
        "OPE 1% range",
        &range_sql,
        &mem,
        &indexed,
        &unindexed,
        iters,
    );

    cleanup("indexed");
    cleanup("unindexed");
}
