//! Property-based tests for the engine's load-bearing contracts:
//!
//! 1. `Value`'s `Hash`/`Eq` contract (`a == b ⇒ hash(a) == hash(b)`, plus
//!    antisymmetry of the total order) — everything the executor's hash
//!    joins, GROUP BY, and DISTINCT silently rely on;
//! 2. the morsel-parallel executor is deterministic: at any worker thread
//!    count (1, 2, 4, 8) a query returns byte-identical results — float
//!    sums, group order, and encrypted `paillier_sum` ciphertexts included —
//!    because partials merge in partition order at fixed morsel boundaries.

use monomi_engine::{ColumnDef, ColumnType, Database, ExecOptions, TableSchema, Value};
use monomi_sql::parse_query;
use proptest::prelude::*;

/// Builds a value from generator primitives; `kind` collides deliberately
/// (several kinds reuse `base`) so equal pairs are common.
fn make_value(kind: u8, base: i64, bits: u64) -> Value {
    match kind % 9 {
        0 => Value::Null,
        1 => Value::Int(base),
        2 => Value::Float(base as f64),
        3 => Value::Float(base as f64 + 0.5),
        4 => Value::Date(base as i32),
        5 => Value::Str(format!("s{base}")),
        6 => Value::Bytes(base.to_be_bytes().to_vec()),
        7 => Value::Float(f64::from_bits(bits)), // arbitrary: NaN, ±inf, -0.0…
        _ => Value::List(vec![Value::Int(base), Value::Float(base as f64)]),
    }
}

fn hash_of(v: &Value) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn eq_implies_equal_hashes(
        ka in 0u8..9, kb in 0u8..9,
        base_a in -64i64..64, base_b in -64i64..64,
        bits in any::<u64>(),
    ) {
        let a = make_value(ka, base_a, bits);
        let b = make_value(kb, base_b, bits);
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b), "{:?} == {:?} but hashes differ", a, b);
        }
        // Eq must agree with the comparator in both directions.
        prop_assert_eq!(a == b, a.compare(&b) == std::cmp::Ordering::Equal);
        prop_assert_eq!(a.compare(&b), b.compare(&a).reverse());
        // Reflexivity (NaN payloads included: total_cmp makes this hold).
        prop_assert_eq!(a.compare(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn extreme_numerics_keep_the_contract(a in any::<i64>(), bits in any::<u64>()) {
        let i = Value::Int(a);
        let f = Value::Float(f64::from_bits(bits));
        let d = Value::Date(a as i32);
        for (x, y) in [(&i, &f), (&i, &d), (&d, &f)] {
            if x == y {
                prop_assert_eq!(hash_of(x), hash_of(y), "{:?} == {:?} but hashes differ", x, y);
            }
            prop_assert_eq!(x.compare(y), y.compare(x).reverse());
        }
    }
}

/// A random table of four columns (nullable int, int, categorical string,
/// date) loaded into a storeless [`Database`] (the disk backend's
/// equivalence is covered by `disk_backend.rs`). The vectorized scan's own
/// check against the row-at-a-time oracle is a unit test of `expr.rs`.
fn build_table(rows: &[(i64, i64, u8, i16)]) -> Database {
    let mut db = Database::in_memory();
    db.create_table(TableSchema::new(
        "t",
        vec![
            ColumnDef::new("a", ColumnType::Int),
            ColumnDef::new("b", ColumnType::Int),
            ColumnDef::new("s", ColumnType::Str),
            ColumnDef::new("d", ColumnType::Date),
        ],
    ));
    let cats = ["AIR", "RAIL", "TRUCK", "SHIP"];
    for &(a, b, c, d) in rows {
        db.insert(
            "t",
            vec![
                // a % 7 == 0 injects NULLs so predicates see them.
                if a % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(a)
                },
                Value::Int(b),
                Value::Str(cats[(c % 4) as usize].into()),
                Value::Date(d as i32),
            ],
        )
        .expect("insert");
    }
    db
}

/// Predicate templates stitched together by the generator.
fn predicate_sql(template: u8, c1: i64, c2: i64) -> String {
    let (lo, hi) = (c1.min(c2), c1.max(c2));
    match template % 12 {
        0 => format!("a < {c1}"),
        1 => format!("a = {c1}"),
        2 => format!("{c1} >= b"),
        3 => format!("b BETWEEN {lo} AND {hi}"),
        4 => format!("b NOT BETWEEN {lo} AND {hi}"),
        5 => "s IN ('AIR', 'TRUCK')".to_string(),
        6 => "s LIKE 'R%'".to_string(),
        7 => "a IS NULL".to_string(),
        8 => "a IS NOT NULL".to_string(),
        9 => format!("a + b < {c1}"),
        10 => format!("NOT (a < {c1})"),
        _ => format!("d < DATE '{}'", monomi_engine::date::format_date(c1 as i32)),
    }
}

/// Query shapes stressing every morsel-parallelized stage: scan+filter,
/// residual filters, hash joins, partial aggregation (float sums, DISTINCT
/// counts, MIN/MAX, AVG), and plain projection with ORDER BY.
fn query_sql(shape: u8, pred: &str) -> String {
    match shape % 6 {
        0 => format!(
            "SELECT s, COUNT(*), SUM(b), SUM(b * 0.1), AVG(b), MIN(a), MAX(d) \
             FROM t WHERE {pred} GROUP BY s ORDER BY s"
        ),
        1 => format!("SELECT a, b, s, d FROM t WHERE {pred} ORDER BY b, a, s, d"),
        2 => {
            format!("SELECT COUNT(DISTINCT s), SUM(a + b), MIN(s), SUM(b / 3) FROM t WHERE {pred}")
        }
        3 => format!(
            "SELECT s, d, COUNT(*) FROM t WHERE {pred} GROUP BY s, d \
             HAVING COUNT(*) >= 2 ORDER BY s, d"
        ),
        4 => format!("SELECT DISTINCT s, a FROM t WHERE {pred} ORDER BY s, a LIMIT 20"),
        _ => format!(
            "SELECT t.s, COUNT(*), SUM(u.b) FROM t, t AS u \
             WHERE t.a = u.a AND {pred} GROUP BY t.s ORDER BY t.s"
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The determinism contract: with fixed morsel boundaries, execution at
    /// threads ∈ {2, 4, 8} is byte-identical to serial execution — results
    /// (including float sums and group order) and scan counters alike.
    #[test]
    fn parallel_execution_is_byte_identical_to_serial(
        rows in proptest::collection::vec(
            (-40i64..40, -40i64..40, any::<u8>(), -200i16..200), 0..200),
        template in any::<u8>(), shape in any::<u8>(),
        c1 in -50i64..50, c2 in -50i64..50,
    ) {
        let db = build_table(&rows);
        let sql = query_sql(shape, &predicate_sql(template, c1, c2));
        let query = parse_query(&sql).unwrap();
        // Small morsels so even tiny generated tables span several partitions.
        let serial_opts = ExecOptions { threads: 1, morsel_rows: 16, ..ExecOptions::serial() };
        let (serial, serial_stats, _) = db
            .execute(&query, &[], &serial_opts, false)
            .expect("serial execution");
        for threads in [2usize, 4, 8] {
            let opts = ExecOptions { threads, morsel_rows: 16, ..ExecOptions::serial() };
            let (parallel, stats, _) = db
                .execute(&query, &[], &opts, false)
                .expect("parallel execution");
            prop_assert_eq!(&serial, &parallel, "threads={} sql={}", threads, sql);
            // Byte-identical, not merely equal-by-comparator: the debug
            // rendering distinguishes -0.0 from 0.0 and Int from Float.
            prop_assert_eq!(
                format!("{:?}", serial.rows), format!("{:?}", parallel.rows),
                "debug mismatch at threads={} sql={}", threads, sql
            );
            prop_assert_eq!(serial_stats.rows_scanned, stats.rows_scanned);
            prop_assert_eq!(serial_stats.bytes_scanned, stats.bytes_scanned);
            prop_assert_eq!(serial_stats.rows_materialized, stats.rows_materialized);
            prop_assert_eq!(serial_stats.bytes_materialized, stats.bytes_materialized);
            prop_assert_eq!(serial_stats.result_rows, stats.result_rows);
            prop_assert_eq!(serial_stats.result_bytes, stats.result_bytes);
        }
    }

    /// Encrypted aggregation determinism: `paillier_sum` over a registered
    /// modulus yields byte-identical ciphertexts at every thread count (the
    /// Montgomery drift merge is exact modular arithmetic).
    #[test]
    fn parallel_paillier_sum_is_byte_identical_to_serial(
        cts in proptest::collection::vec((0u8..5, any::<u64>()), 0..150),
    ) {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "e",
            vec![
                ColumnDef::new("g", ColumnType::Int),
                ColumnDef::new("c", ColumnType::Bytes),
            ],
        ));
        // A fixed odd modulus stands in for n² — the server never needs the
        // key, only the public modulus to multiply ciphertexts.
        let n = monomi_math::BigUint::from_u64(u64::MAX - 58);
        db.register_paillier_modulus(n.mul(&n));
        for &(g, c) in &cts {
            db.insert(
                "e",
                vec![
                    Value::Int(g as i64),
                    Value::Bytes(monomi_math::BigUint::from_u64(c).to_bytes_be()),
                ],
            )
            .expect("insert ciphertext row");
        }
        let query = parse_query(
            "SELECT g, paillier_sum(c), COUNT(*) FROM e GROUP BY g ORDER BY g",
        )
        .unwrap();
        let serial_opts = ExecOptions { threads: 1, morsel_rows: 8, ..ExecOptions::serial() };
        let (serial, _, _) = db
            .execute(&query, &[], &serial_opts, false)
            .expect("serial paillier_sum");
        for threads in [2usize, 4, 8] {
            let opts = ExecOptions { threads, morsel_rows: 8, ..ExecOptions::serial() };
            let (parallel, _, _) = db
                .execute(&query, &[], &opts, false)
                .expect("parallel paillier_sum");
            prop_assert_eq!(&serial, &parallel, "threads={}", threads);
        }
    }
}
