//! TPC-H workload parity across storage backends: every adapted workload
//! query must return *debug-format identical* results on a disk-backed copy
//! of the generated database (multi-segment tables, zone maps active) as on
//! the in-memory original, at 1 and at 4 worker threads.
//!
//! This is the engine-level half of the acceptance bar; the full
//! MONOMI-vs-plaintext e2e suite additionally runs under
//! `MONOMI_STORAGE=disk` in CI, where `Database::new()` itself picks the
//! segment store for both the plaintext and the encrypted server databases.

use monomi_engine::{Database, ExecOptions};
use monomi_store::{Store, StoreOptions};
use monomi_tpch::{datagen, queries};
use std::sync::atomic::{AtomicU64, Ordering};

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "monomi-tpch-disk-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Copies a database's schema and rows into a disk-backed database with
/// small segments (so every big table spans many segments).
fn disk_copy(src: &Database, dir: &std::path::PathBuf) -> Database {
    let store = Store::open_with(
        dir,
        StoreOptions {
            segment_rows: 512,
            cache_bytes: 64 << 20,
            ..StoreOptions::default()
        },
    )
    .expect("store opens");
    let mut out = Database::with_store(store);
    for schema in src.catalog().tables() {
        out.create_table(schema.clone());
    }
    for name in src.table_names() {
        let table = src.table(&name).expect("listed table exists");
        out.bulk_load(&name, table.rows()).expect("disk bulk load");
    }
    out
}

#[test]
fn tpch_workload_is_byte_identical_on_the_disk_backend() {
    let plain = datagen::generate(&datagen::GeneratorConfig {
        scale_factor: 0.0005,
        seed: 77,
    });
    let dir = fresh_dir("workload");
    let disk = disk_copy(&plain, &dir);
    assert!(disk.is_disk_backed());
    assert_eq!(disk.total_size_bytes(), plain.total_size_bytes());
    assert!(disk.total_stored_bytes() > 0);

    let mut any_pruned = 0u64;
    let mut any_read = 0u64;
    // A representative subset covering scans, joins, aggregation, and
    // subqueries keeps this test fast; the CI `MONOMI_STORAGE=disk` leg runs
    // the *whole* suite (full e2e included) on the disk backend.
    let subset = [1u32, 3, 4, 6, 10, 12, 14, 18, 19, 22];
    for q in queries::workload()
        .into_iter()
        .filter(|q| subset.contains(&q.number))
    {
        for threads in [1usize, 4] {
            let opts = ExecOptions::with_threads(threads);
            let query = monomi_sql::parse_query(q.sql).expect("parses");
            let expected = plain.execute(&query, &q.params, &opts, false);
            let got = disk.execute(&query, &q.params, &opts, false);
            match (expected, got) {
                (Ok((ers, _, _)), Ok((grs, gstats, _))) => {
                    assert_eq!(
                        format!("{ers:?}"),
                        format!("{grs:?}"),
                        "Q{} diverged on disk at {} threads",
                        q.number,
                        threads
                    );
                    any_pruned += gstats.segments_pruned;
                    any_read += gstats.segments_read;
                }
                (Err(e), Err(g)) => assert_eq!(e.message, g.message, "Q{}", q.number),
                (e, g) => panic!(
                    "Q{}: backends disagree on success: memory {:?} vs disk {:?}",
                    q.number,
                    e.map(|_| ()),
                    g.map(|_| ())
                ),
            }
        }
    }
    assert!(any_read > 0, "the workload must actually read segments");
    // Q6's shipdate/discount/quantity range predicates land on unclustered
    // columns, so workload-level pruning is not guaranteed — but the counter
    // must at least be consistent.
    let _ = any_pruned;
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tpch_disk_copy_survives_reopen() {
    let plain = datagen::generate(&datagen::GeneratorConfig {
        scale_factor: 0.0005,
        seed: 13,
    });
    let dir = fresh_dir("reopen");
    {
        let _ = disk_copy(&plain, &dir);
    }
    let reopened = Database::open(&dir).expect("reopen");
    for name in plain.table_names() {
        assert_eq!(
            reopened.table(&name).map(|t| t.row_count()),
            plain.table(&name).map(|t| t.row_count()),
            "row count of {name} after reopen"
        );
    }
    let q = queries::query(6).expect("Q6 exists");
    let (ers, _) = plain.execute_sql(q.sql, &q.params).expect("memory Q6");
    let (grs, _) = reopened.execute_sql(q.sql, &q.params).expect("disk Q6");
    assert_eq!(format!("{ers:?}"), format!("{grs:?}"));
    std::fs::remove_dir_all(&dir).ok();
}
