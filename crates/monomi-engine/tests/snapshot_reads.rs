//! Snapshot reads: a bulk load into a store-backed table runs through a
//! shared reference (`Database::stage_load`) beside running statements, and
//! every statement pins one catalog version when it starts. A statement that
//! reads the table several times — a scalar subquery, a self-join, an IN
//! subquery — therefore sees the same rows each time, and a load is visible
//! whole or not at all.

use monomi_engine::{ColumnDef, ColumnType, Database, ExecOptions, TableSchema, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

const BATCH_ROWS: i64 = 100;
const BATCHES: i64 = 10;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("monomi-snapshot-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `sql` and returns its single row as integers.
fn int_row(db: &Database, sql: &str, opts: &ExecOptions) -> Vec<i64> {
    let (rs, _) = db
        .execute_sql_with(sql, &[], opts)
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
    assert_eq!(rs.rows.len(), 1, "{sql}");
    rs.rows[0]
        .iter()
        .map(|v| v.as_int().expect("a count"))
        .collect()
}

/// Checks one round of statements against one another; returns the count.
fn check_consistent(db: &Database, opts: &ExecOptions) -> i64 {
    let counts = int_row(db, "SELECT COUNT(*), (SELECT COUNT(*) FROM t) FROM t", opts);
    assert_eq!(
        counts[0], counts[1],
        "outer scan and subquery saw different rows"
    );
    assert_eq!(counts[0] % BATCH_ROWS, 0, "a torn load: {} rows", counts[0]);

    let joined = int_row(
        db,
        "SELECT COUNT(*), (SELECT COUNT(*) FROM t) FROM t x, t y",
        opts,
    );
    assert_eq!(
        joined[0],
        joined[1] * joined[1],
        "self-join sides saw different rows"
    );
    assert_eq!(joined[1] % BATCH_ROWS, 0, "a torn load: {} rows", joined[1]);

    let semi = int_row(
        db,
        "SELECT COUNT(*), (SELECT COUNT(*) FROM t) FROM t WHERE a IN (SELECT a FROM t)",
        opts,
    );
    assert_eq!(semi[0], semi[1], "IN subquery saw different rows");
    counts[0]
}

/// Sets the flag when dropped, so a panicking loader still stops the readers.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn statements_see_one_catalog_version_while_loads_commit_beside_them() {
    for threads in [1usize, 4] {
        let dir = fresh_dir(&format!("threads{threads}"));
        let mut db = Database::open(&dir).expect("store opens");
        db.create_table(TableSchema::new(
            "t",
            vec![ColumnDef::new("a", ColumnType::Int)],
        ));
        let db = db;
        let opts = ExecOptions::with_threads(threads);
        let done = AtomicBool::new(false);
        let mut rounds = 0usize;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _done = SetOnDrop(&done);
                for batch in 0..BATCHES {
                    let rows = (0..BATCH_ROWS)
                        .map(|i| vec![Value::Int(batch * BATCH_ROWS + i)])
                        .collect();
                    let staged = db.stage_load("t", rows).expect("load commits");
                    assert!(
                        staged.is_none(),
                        "a store-backed table with no tail loads under a shared reference"
                    );
                }
            });
            while !done.load(Ordering::SeqCst) {
                check_consistent(&db, &opts);
                rounds += 1;
            }
        });
        assert!(rounds > 0, "no statement ran beside the loads");
        assert_eq!(check_consistent(&db, &opts), BATCH_ROWS * BATCHES);
        drop(db);
        let reopened = Database::open(&dir).expect("reopen");
        assert_eq!(
            check_consistent(&reopened, &opts),
            BATCH_ROWS * BATCHES,
            "committed loads survive a reopen"
        );
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Without a store, or behind an unflushed `insert` tail, the rows must go
/// through the tail: the stage hands them back for `apply_load`, and the
/// order of rows is the order of calls either way.
#[test]
fn loads_that_follow_a_tail_are_staged_for_the_exclusive_apply() {
    let schema = || TableSchema::new("t", vec![ColumnDef::new("a", ColumnType::Int)]);
    let ints = |range: std::ops::Range<i64>| -> Vec<Vec<Value>> {
        range.map(|i| vec![Value::Int(i)]).collect()
    };
    let dir = fresh_dir("tail");
    let mut disk = Database::open(&dir).expect("store opens");
    let mut memory = Database::in_memory();
    for db in [&mut disk, &mut memory] {
        db.create_table(schema());
    }

    // No store: always staged.
    let staged = memory.stage_load("t", ints(0..3)).expect("validates");
    memory
        .apply_load(staged.expect("rows wait for the tail"))
        .expect("applies");
    // Store, empty tail: committed by the stage.
    assert!(disk.stage_load("t", ints(0..3)).expect("commits").is_none());
    // Store behind an insert tail: staged, and the apply flushes both.
    for db in [&mut disk, &mut memory] {
        db.insert("t", vec![Value::Int(3)]).expect("insert");
        let staged = db.stage_load("t", ints(4..6)).expect("validates");
        db.apply_load(staged.expect("rows follow the tail"))
            .expect("applies");
    }
    assert_eq!(disk.store().expect("disk").table_rows("t"), 6);

    // An invalid row ends the load after its valid prefix, on both paths.
    let bad = vec![
        vec![Value::Int(6)],
        vec![Value::Str("x".into())],
        vec![Value::Int(7)],
    ];
    for db in [&mut disk, &mut memory] {
        assert!(db.bulk_load("t", bad.clone()).is_err());
        let (rs, _) = db.execute_sql("SELECT a FROM t", &[]).expect("scan");
        assert_eq!(rs.rows, ints(0..7));
    }
    drop(disk);
    std::fs::remove_dir_all(&dir).ok();
}
