//! The subquery memo's contract: an uncorrelated subquery runs at most once
//! per statement and every outer row shares its result, a correlated one
//! still runs once per outer row, and the answers are exactly those of
//! per-row execution — NULLs in the subquery's first column included — on
//! both storage backends at one and at four worker threads.
//!
//! Executions are counted with `monomi_engine::subquery_runs`, a per-thread
//! counter: subqueries run on the statement's own thread (the paths that
//! evaluate them are serial), so the count is exact however many workers the
//! scans use.

use monomi_engine::{
    subquery_runs, ColumnDef, ColumnType, Database, ExecOptions, TableSchema, Value,
};
use std::path::PathBuf;

const N: Value = Value::Null;

fn int(v: i64) -> Value {
    Value::Int(v)
}

/// A table's name, column names and rows.
type TableData = (&'static str, &'static [&'static str], Vec<Vec<Value>>);

/// `t1(a, b)` is the outer table; `t2(x, b, z)` shares the column name `b`
/// with it and has a NULL in its first column; `t3(y, w)`.
fn load(db: &mut Database) {
    let tables: [TableData; 3] = [
        (
            "t1",
            &["a", "b"],
            vec![
                vec![int(1), int(10)],
                vec![int(2), int(20)],
                vec![int(3), int(30)],
                vec![N, int(40)],
                vec![int(5), int(50)],
                vec![int(2), int(60)],
            ],
        ),
        (
            "t2",
            &["x", "b", "z"],
            vec![
                vec![int(1), int(100), int(7)],
                vec![int(2), int(200), int(8)],
                vec![N, int(300), int(9)],
                vec![int(4), int(400), int(7)],
                vec![int(2), int(500), int(8)],
            ],
        ),
        (
            "t3",
            &["y", "w"],
            vec![
                vec![int(100), int(1)],
                vec![int(500), int(2)],
                vec![int(999), int(3)],
            ],
        ),
    ];
    for (name, columns, rows) in tables {
        db.create_table(TableSchema::new(
            name,
            columns
                .iter()
                .map(|c| ColumnDef::new(*c, ColumnType::Int))
                .collect(),
        ));
        db.bulk_load(name, rows).expect("rows load");
    }
}

/// One statement, its answer, and how many subquery executions it takes.
struct Case {
    what: &'static str,
    sql: &'static str,
    rows: Vec<Vec<Value>>,
    runs: u64,
}

fn cases() -> Vec<Case> {
    let col = |vs: &[i64]| vs.iter().map(|&v| vec![int(v)]).collect::<Vec<_>>();
    let pairs = |vs: &[(i64, i64)]| {
        vs.iter()
            .map(|&(a, b)| vec![int(a), int(b)])
            .collect::<Vec<_>>()
    };
    vec![
        Case {
            what: "uncorrelated IN: a NULL probe finds the NULL row, as the linear scan did",
            sql: "SELECT a, b FROM t1 WHERE a IN (SELECT x FROM t2) ORDER BY b",
            rows: vec![
                vec![int(1), int(10)],
                vec![int(2), int(20)],
                vec![N, int(40)],
                vec![int(2), int(60)],
            ],
            runs: 1,
        },
        Case {
            what: "uncorrelated NOT IN",
            sql: "SELECT b FROM t1 WHERE a NOT IN (SELECT x FROM t2) ORDER BY b",
            rows: col(&[30, 50]),
            runs: 1,
        },
        Case {
            what: "uncorrelated EXISTS",
            sql: "SELECT b FROM t1 WHERE EXISTS (SELECT x FROM t2 WHERE x > 3) ORDER BY b",
            rows: col(&[10, 20, 30, 40, 50, 60]),
            runs: 1,
        },
        Case {
            what: "uncorrelated NOT EXISTS over an empty result",
            sql: "SELECT b FROM t1 WHERE NOT EXISTS (SELECT x FROM t2 WHERE x > 100) \
                  ORDER BY b DESC LIMIT 2",
            rows: col(&[60, 50]),
            runs: 1,
        },
        Case {
            what: "uncorrelated scalar subquery in WHERE",
            sql: "SELECT b FROM t1 WHERE b > (SELECT MAX(x) FROM t2) * 10 ORDER BY b",
            rows: col(&[50, 60]),
            runs: 1,
        },
        Case {
            what: "uncorrelated scalar subquery in a projection",
            sql: "SELECT b, (SELECT COUNT(*) FROM t3) FROM t1 WHERE b < 30 ORDER BY b",
            rows: vec![vec![int(10), int(3)], vec![int(20), int(3)]],
            runs: 1,
        },
        Case {
            what: "uncorrelated scalar subquery in HAVING (the Q11 shape)",
            sql: "SELECT a, COUNT(*) FROM t1 GROUP BY a \
                  HAVING COUNT(*) > (SELECT MIN(w) FROM t3) ORDER BY a",
            rows: vec![vec![int(2), int(2)]],
            runs: 1,
        },
        Case {
            what: "an uncorrelated subquery no row reaches never runs",
            sql: "SELECT b FROM t1 WHERE b > 1000 AND a IN (SELECT x FROM t2)",
            rows: Vec::new(),
            runs: 0,
        },
        Case {
            what: "inner column shadowing an outer one: `b` is t2.b, so uncorrelated",
            sql: "SELECT a, b FROM t1 WHERE a IN (SELECT x FROM t2 WHERE b >= 300) ORDER BY b",
            rows: vec![
                vec![int(2), int(20)],
                vec![N, int(40)],
                vec![int(2), int(60)],
            ],
            runs: 1,
        },
        Case {
            what: "correlated, qualified: once per outer row",
            sql: "SELECT b FROM t1 WHERE EXISTS (SELECT x FROM t2 WHERE t2.x = t1.a) ORDER BY b",
            rows: col(&[10, 20, 60]),
            runs: 6,
        },
        Case {
            what: "correlated, unqualified: `a` is not in t3, so it is t1.a",
            sql: "SELECT b FROM t1 WHERE EXISTS (SELECT y FROM t3 WHERE w = a) ORDER BY b",
            rows: col(&[10, 20, 30, 60]),
            runs: 6,
        },
        Case {
            what: "correlated IN, reaching the NULL in the first column for b = 40",
            sql: "SELECT b FROM t1 WHERE a IN (SELECT x FROM t2 WHERE z <= t1.b / 4) ORDER BY b",
            rows: col(&[40, 60]),
            runs: 6,
        },
        Case {
            what: "depth 2, uncorrelated outside: the inner subquery reads only t2, \
                   so the outer one runs once and the inner once per t2 row",
            sql: "SELECT b FROM t1 WHERE a IN (SELECT x FROM t2 WHERE \
                  EXISTS (SELECT w FROM t3 WHERE t3.y = t2.b)) ORDER BY b",
            rows: col(&[10, 20, 60]),
            runs: 1 + 5,
        },
        Case {
            what: "depth 2, correlated at both levels: the outer subquery runs per t1 row, \
                   the inner per t2 row that passes `t2.x = t1.a`",
            sql: "SELECT b FROM t1 WHERE EXISTS (SELECT x FROM t2 WHERE t2.x = t1.a AND \
                  EXISTS (SELECT w FROM t3 WHERE t3.y = t2.b)) ORDER BY b",
            rows: col(&[10, 20, 60]),
            runs: 6 + (1 + 2 + 2),
        },
        Case {
            what: "a derived table in the subquery's FROM keeps per-row execution",
            sql: "SELECT b FROM t1 WHERE a IN \
                  (SELECT x FROM (SELECT x FROM t2 WHERE z = 7) AS d) ORDER BY b",
            rows: col(&[10]),
            runs: 6,
        },
        Case {
            what: "structurally equal uncorrelated subqueries share one execution",
            sql: "SELECT b FROM t1 WHERE a IN (SELECT x FROM t2) \
                  AND b > (SELECT MIN(w) FROM t3) AND a IN (SELECT x FROM t2) ORDER BY b",
            rows: col(&[10, 20, 40, 60]),
            runs: 2,
        },
        Case {
            what: "an uncorrelated subquery in an aggregate argument",
            sql: "SELECT SUM(CASE WHEN a IN (SELECT x FROM t2) THEN b ELSE 0 END) FROM t1",
            rows: col(&[130]),
            runs: 1,
        },
        Case {
            what: "an uncorrelated subquery inside a derived table",
            sql: "SELECT COUNT(*) FROM (SELECT a FROM t1 WHERE a NOT IN (SELECT x FROM t2)) AS d",
            rows: col(&[2]),
            runs: 1,
        },
        Case {
            what: "correlated scalar subquery in the SELECT list: once per outer row",
            sql: "SELECT b, (SELECT COUNT(*) FROM t2 WHERE t2.x = t1.a) FROM t1 ORDER BY b",
            rows: pairs(&[(10, 1), (20, 2), (30, 0), (40, 0), (50, 0), (60, 2)]),
            runs: 6,
        },
        Case {
            what: "correlated scalar subquery in HAVING: once per group, whose row is \
                   the outer row",
            sql: "SELECT a, COUNT(*) FROM t1 GROUP BY a \
                  HAVING COUNT(*) >= (SELECT COUNT(*) FROM t2 WHERE t2.x = t1.a) ORDER BY a",
            rows: vec![
                vec![N, int(1)],
                vec![int(1), int(1)],
                vec![int(2), int(2)],
                vec![int(3), int(1)],
                vec![int(5), int(1)],
            ],
            runs: 5,
        },
        Case {
            what: "correlated HAVING subquery whose unqualified `b` is t2.b: inner wins",
            sql: "SELECT a, SUM(b) FROM t1 GROUP BY a \
                  HAVING SUM(b) > (SELECT SUM(b) FROM t2 WHERE t2.x = t1.a) / 10 ORDER BY a",
            rows: pairs(&[(2, 80)]),
            runs: 5,
        },
        Case {
            what: "correlated scalar subquery as an ORDER BY key",
            sql: "SELECT b FROM t1 ORDER BY (SELECT MAX(z) FROM t2 WHERE t2.x = t1.a), b",
            rows: col(&[30, 40, 50, 10, 20, 60]),
            runs: 6,
        },
        Case {
            what: "correlated scalar subquery in an aggregate argument",
            sql: "SELECT SUM((SELECT COUNT(*) FROM t2 WHERE t2.x = t1.a)) FROM t1",
            rows: col(&[5]),
            runs: 6,
        },
        Case {
            what: "correlated scalar subquery as a GROUP BY key: once per row for the key, \
                   then once per group for the projection repeating it",
            sql: "SELECT (SELECT COUNT(*) FROM t2 WHERE t2.x = t1.a) AS n, COUNT(*) FROM t1 \
                  GROUP BY (SELECT COUNT(*) FROM t2 WHERE t2.x = t1.a) ORDER BY n",
            rows: pairs(&[(0, 3), (1, 1), (2, 2)]),
            runs: 6 + 3,
        },
        Case {
            what: "an outer reference inside a computed conjunct of the subquery's only table",
            sql: "SELECT b FROM t1 WHERE EXISTS (SELECT y FROM t3 WHERE y + w > t1.b * 10) \
                  ORDER BY b",
            rows: col(&[10, 20, 30, 40, 50, 60]),
            runs: 6,
        },
        Case {
            what: "a correlated subquery whose own scan conjunct `z + x > 9` runs the \
                   vectorized scan's General path",
            sql: "SELECT b FROM t1 WHERE EXISTS (SELECT x FROM t2 WHERE t2.x = t1.a \
                  AND z + x > 9 AND b > 50) ORDER BY b",
            rows: col(&[20, 60]),
            runs: 6,
        },
        Case {
            what: "an outer reference inside a derived table of a correlated subquery",
            sql: "SELECT b FROM t1 WHERE a IN \
                  (SELECT x FROM (SELECT x FROM t2 WHERE z + x > t1.a + 6) AS d) ORDER BY b",
            rows: col(&[10, 20, 60]),
            runs: 6,
        },
        Case {
            what: "two-level correlation in the SELECT list: the outer subquery per t1 row, \
                   the inner one per t2 row that passes `t2.x = t1.a`",
            sql: "SELECT b, (SELECT MAX(z) FROM t2 WHERE t2.x = t1.a AND \
                  EXISTS (SELECT w FROM t3 WHERE t3.y = t2.b)) FROM t1 ORDER BY b",
            rows: vec![
                vec![int(10), int(7)],
                vec![int(20), int(8)],
                vec![int(30), N],
                vec![int(40), N],
                vec![int(50), N],
                vec![int(60), int(8)],
            ],
            runs: 6 + 5,
        },
    ]
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("monomi-subquery-memo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn uncorrelated_subqueries_run_once_and_answers_match_per_row_execution() {
    let dir = temp_dir();
    let mut mem = Database::in_memory();
    let mut disk = Database::open(&dir).expect("disk store opens");
    load(&mut mem);
    load(&mut disk);
    for (backend, db) in [("memory", &mem), ("disk", &disk)] {
        for threads in [1usize, 4] {
            let opts = ExecOptions::with_threads(threads);
            for case in cases() {
                let at = format!("{} ({backend}, {threads} threads)", case.what);
                // Twice: the memo lives for one statement, not across them.
                for _ in 0..2 {
                    let before = subquery_runs();
                    let query = monomi_sql::parse_query(case.sql).expect(&at);
                    let (rs, _, _) = db.execute(&query, &[], &opts, false).expect(&at);
                    assert_eq!(subquery_runs() - before, case.runs, "{at}: executions");
                    assert_eq!(
                        format!("{:?}", rs.rows),
                        format!("{:?}", case.rows),
                        "{at}: answer"
                    );
                }
            }
        }
    }
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A correlated subquery sees one outer row, its immediate parent's: a
/// reference two levels out fails once a row reaches it, after the runs
/// that reach it.
#[test]
fn a_reference_two_levels_out_does_not_resolve() {
    let mut db = Database::in_memory();
    load(&mut db);
    let before = subquery_runs();
    let err = db
        .execute_sql(
            "SELECT b FROM t1 WHERE EXISTS (SELECT x FROM t2 WHERE t2.x = t1.a AND \
             EXISTS (SELECT w FROM t3 WHERE t3.y = t2.b AND t3.w < t1.b)) ORDER BY b",
            &[],
        )
        .unwrap_err();
    assert_eq!(err.message, "unknown column t1.b");
    assert_eq!(subquery_runs() - before, 2);
}
