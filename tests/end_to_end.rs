//! Cross-crate integration tests: MONOMI must return the same answers as the
//! plaintext engine for the TPC-H workload, while never storing plaintext on
//! the untrusted server.

use monomi_core::{ClientConfig, DesignStrategy, MonomiClient};
use monomi_engine::{ColumnDef, ColumnType, Database, TableSchema, Value};
use monomi_sql::parse_query;
use monomi_tpch::{baselines, datagen, fast_config, queries};
use proptest::prelude::*;

fn small_plain() -> monomi_engine::Database {
    datagen::generate(&datagen::GeneratorConfig {
        scale_factor: 0.001,
        seed: 99,
    })
}

fn values_close(a: &Value, b: &Value) -> bool {
    match (a.as_float(), b.as_float()) {
        (Some(x), Some(y)) => {
            let denom = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() / denom < 1e-6
        }
        _ => a == b,
    }
}

fn rows_match(plain: &[Vec<Value>], monomi: &[Vec<Value>]) -> bool {
    if plain.len() != monomi.len() {
        return false;
    }
    plain
        .iter()
        .zip(monomi.iter())
        .all(|(p, m)| p.len() == m.len() && p.iter().zip(m.iter()).all(|(a, b)| values_close(a, b)))
}

#[test]
fn monomi_matches_plaintext_on_tpch_workload() {
    let plain = small_plain();
    let workload = queries::workload();
    let parsed: Vec<_> = workload
        .iter()
        .map(|q| parse_query(q.sql).expect("workload query parses"))
        .collect();
    let (client, outcome) =
        MonomiClient::setup(&plain, &parsed, DesignStrategy::Designer, &fast_config())
            .expect("setup succeeds");
    assert!(outcome.setup_seconds >= 0.0);

    // Check a representative subset covering each optimization class; the
    // benchmark harnesses exercise the full workload.
    for number in [1u32, 3, 4, 5, 6, 10, 12, 14, 18, 19, 22] {
        let q = queries::query(number).expect("query exists");
        let (expected, _) = plain
            .execute_sql(q.sql, &q.params)
            .unwrap_or_else(|e| panic!("plaintext Q{number} failed: {e}"));
        let (got, timings) = client
            .execute(q.sql, &q.params)
            .unwrap_or_else(|e| panic!("MONOMI Q{number} failed: {e}"));
        assert!(
            rows_match(&expected.rows, &got.rows),
            "Q{number}: plaintext {} rows vs MONOMI {} rows\nplaintext: {:?}\nmonomi: {:?}",
            expected.rows.len(),
            got.rows.len(),
            expected.rows.iter().take(3).collect::<Vec<_>>(),
            got.rows.iter().take(3).collect::<Vec<_>>(),
        );
        assert!(timings.total_seconds() >= 0.0);
    }
}

/// The whole split-execution path with four morsel workers (the CI-pinned
/// `MONOMI_THREADS=4` configuration, set here explicitly via
/// `ClientConfig::exec_options` so no process-global env is mutated): the
/// encrypted server runs its queries on four workers and must return exactly
/// what the plaintext baseline returns — the determinism contract guarantees
/// the thread count is unobservable in results. Also pins the wall-vs-CPU
/// accounting: aggregate server CPU can never be negative, and results match
/// an explicitly serial engine run bit for bit.
#[test]
fn monomi_matches_plaintext_with_four_worker_threads() {
    let four_threads = monomi_engine::ExecOptions::with_threads(4);
    let plain = small_plain();
    let workload = queries::workload();
    let parsed: Vec<_> = workload
        .iter()
        .map(|q| parse_query(q.sql).expect("workload query parses"))
        .collect();
    let config = ClientConfig {
        exec_options: Some(four_threads),
        ..fast_config()
    };
    let (client, _) = MonomiClient::setup(&plain, &parsed, DesignStrategy::Designer, &config)
        .expect("setup succeeds");

    for number in [1u32, 3, 6, 10, 18] {
        let q = queries::query(number).expect("query exists");
        let query = parse_query(q.sql).expect("parses");
        let (expected, _) = plain
            .execute_with(&query, &q.params, &four_threads)
            .unwrap_or_else(|e| panic!("plaintext Q{number} failed: {e}"));
        // The plaintext reference must itself be thread-count-invariant.
        let (serial, _) = plain
            .execute_with(&query, &q.params, &monomi_engine::ExecOptions::serial())
            .expect("serial plaintext run");
        assert_eq!(
            expected, serial,
            "Q{number}: 4-thread and serial plaintext runs differ"
        );

        let (got, timings) = client
            .execute(q.sql, &q.params)
            .unwrap_or_else(|e| panic!("MONOMI Q{number} failed: {e}"));
        assert!(
            rows_match(&expected.rows, &got.rows),
            "Q{number} with 4 morsel workers: plaintext {} rows vs MONOMI {} rows",
            expected.rows.len(),
            got.rows.len(),
        );
        // Falsifiable accounting check: the query scanned real rows, so the
        // wall-minus-parallel-wall-plus-worker-CPU derivation must come out
        // strictly positive (a double-counted parallel region would clamp the
        // raw value to zero and fail here).
        assert!(
            timings.server_cpu_seconds > 0.0,
            "Q{number}: aggregate server CPU accounting collapsed to zero"
        );
        assert!(timings.total_seconds() >= 0.0);
    }
}

#[test]
fn encrypted_server_never_sees_plaintext_strings() {
    let plain = small_plain();
    let workload = queries::workload();
    let parsed: Vec<_> = workload
        .iter()
        .map(|q| parse_query(q.sql).expect("workload query parses"))
        .collect();
    let (client, _) =
        MonomiClient::setup(&plain, &parsed, DesignStrategy::Designer, &fast_config())
            .expect("setup succeeds");
    let enc = client
        .encrypted_database()
        .expect("in-process server holds its database locally");
    // No encrypted table may contain any of the well-known TPC-H categorical
    // strings in the clear.
    let sensitive = ["AIR", "BUILDING", "GERMANY", "PROMO", "1-URGENT"];
    for table in enc.table_names() {
        let t = enc.table(&table).unwrap();
        for col in 0..t.schema().columns.len() {
            for row in 0..t.row_count().min(50) {
                if let Value::Str(s) = t.value(row, col) {
                    for needle in sensitive {
                        assert!(
                            !s.contains(needle),
                            "plaintext '{needle}' leaked in {table} column {col}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn space_budget_is_respected_and_orderings_hold() {
    let plain = small_plain();
    let workload = queries::workload();
    let config = fast_config();
    let monomi = baselines::build_system(baselines::SystemKind::Monomi, &plain, &workload, &config)
        .expect("monomi setup");
    let cryptdb = baselines::build_system(
        baselines::SystemKind::CryptDbClient,
        &plain,
        &workload,
        &config,
    )
    .expect("cryptdb setup");
    let plain_bytes = plain.total_size_bytes();
    let monomi_bytes = monomi.server_bytes(&plain);
    let cryptdb_bytes = cryptdb.server_bytes(&plain);
    // Table 2 ordering: plaintext < MONOMI < CryptDB+Client.
    assert!(monomi_bytes > plain_bytes);
    assert!(cryptdb_bytes > monomi_bytes);
}

#[test]
fn unconstrained_setup_with_a_small_key_is_an_error() {
    // The unconstrained design packs more HOM slots into a row than a
    // 256-bit Paillier plaintext holds: setup must say so, not panic.
    let plain = small_plain();
    let parsed: Vec<_> = queries::workload()
        .iter()
        .map(|q| parse_query(q.sql).expect("workload query parses"))
        .collect();
    let config = ClientConfig {
        space_budget: None,
        ..fast_config()
    };
    let err = MonomiClient::setup(&plain, &parsed, DesignStrategy::Designer, &config)
        .err()
        .expect("a HOM group wider than the key is rejected");
    assert!(err.message.contains("plaintext bits"), "{}", err.message);
}

/// Builds a two-table plaintext database whose join columns contain NULLs at
/// generator-chosen positions.
fn join_db_with_nulls(left: &[(i64, i64)], right: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "lt",
        vec![
            ColumnDef::new("lk", ColumnType::Int),
            ColumnDef::new("lv", ColumnType::Int),
        ],
    ));
    db.create_table(TableSchema::new(
        "rt",
        vec![
            ColumnDef::new("rk", ColumnType::Int),
            ColumnDef::new("rv", ColumnType::Int),
        ],
    ));
    let key = |k: i64| {
        if k % 5 == 0 {
            Value::Null
        } else {
            Value::Int(k)
        }
    };
    for &(k, v) in left {
        db.insert("lt", vec![key(k), Value::Int(v)]).unwrap();
    }
    for &(k, v) in right {
        db.insert("rt", vec![key(k), Value::Int(v)]).unwrap();
    }
    db
}

/// A client-side step — here, the derived table `d` the client materializes
/// — types each column of its in-memory tables from the rows it holds. A
/// CASE whose branches are Int and Float, and a column no row fills, answer
/// what plaintext answers.
#[test]
fn client_step_tables_take_their_column_types_from_their_rows() {
    let mut plain = Database::new();
    plain.create_table(TableSchema::new(
        "t",
        vec![
            ColumnDef::new("a", ColumnType::Int),
            ColumnDef::new("b", ColumnType::Int),
        ],
    ));
    for (a, b) in [(1, 3), (4, 7), (6, 2), (9, 5), (8, 4)] {
        plain
            .insert("t", vec![Value::Int(a), Value::Int(b)])
            .unwrap();
    }
    let sqls = [
        "SELECT SUM(v) FROM (SELECT CASE WHEN a > 5 THEN a ELSE b / 2 END AS v FROM t) AS d",
        "SELECT MAX(v) FROM (SELECT CASE WHEN a > 5 THEN 1 ELSE 2.5 END AS v FROM t) AS d",
        "SELECT COUNT(*), MAX(n) FROM (SELECT a, CASE WHEN a > 100 THEN a END AS n FROM t) AS d",
    ];
    let parsed: Vec<_> = sqls.iter().map(|s| parse_query(s).unwrap()).collect();
    let (client, _) =
        MonomiClient::setup(&plain, &parsed, DesignStrategy::Designer, &fast_config())
            .expect("setup succeeds");
    for sql in sqls {
        assert!(
            matches!(
                client.plan(sql, &[]).unwrap(),
                monomi_core::SplitPlan::Client { .. }
            ),
            "{sql}: not a client-side step"
        );
        let (expected, _) = plain.execute_sql(sql, &[]).unwrap();
        let (got, _) = client
            .execute(sql, &[])
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(got.rows, expected.rows, "{sql}");
    }
}

/// `SUM(DISTINCT ..)` and `AVG(DISTINCT ..)`, global and grouped, give the
/// plaintext engine's answers through MONOMI, under the space budget S = 2
/// and unconstrained: t(g, a) with a = 1, 1, 2 in group 1 and 5, 5, 7 in
/// group 2.
#[test]
fn distinct_sums_and_averages_match_plaintext() {
    let mut plain = Database::new();
    plain.create_table(TableSchema::new(
        "t",
        vec![
            ColumnDef::new("g", ColumnType::Int),
            ColumnDef::new("a", ColumnType::Int),
        ],
    ));
    for (g, a) in [(1, 1), (1, 1), (1, 2), (2, 5), (2, 5), (2, 7)] {
        plain
            .insert("t", vec![Value::Int(g), Value::Int(a)])
            .unwrap();
    }
    let sqls = [
        "SELECT SUM(DISTINCT a) FROM t",
        "SELECT AVG(DISTINCT a) FROM t",
        "SELECT g, SUM(DISTINCT a) FROM t GROUP BY g ORDER BY g",
    ];
    let expected = [
        vec![vec![Value::Int(15)]],
        vec![vec![Value::Float(3.75)]],
        vec![
            vec![Value::Int(1), Value::Int(3)],
            vec![Value::Int(2), Value::Int(12)],
        ],
    ];
    let parsed: Vec<_> = sqls.iter().map(|s| parse_query(s).unwrap()).collect();
    for space_budget in [Some(2.0), None] {
        let config = ClientConfig {
            space_budget,
            ..fast_config()
        };
        let (client, _) = MonomiClient::setup(&plain, &parsed, DesignStrategy::Designer, &config)
            .expect("setup succeeds");
        for (sql, want) in sqls.iter().zip(&expected) {
            let (rs, _) = plain.execute_sql(sql, &[]).unwrap();
            assert_eq!(&rs.rows, want, "plaintext {sql}");
            let (got, _) = client
                .execute(sql, &[])
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            assert_eq!(&got.rows, want, "MONOMI {sql} under {space_budget:?}");
        }
    }
}

proptest! {
    // Each case runs a full MONOMI setup (key generation + design +
    // encryption), so keep the case count small; the row generators still
    // cover empty sides, all-NULL keys, and duplicate keys.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// NULL join-key semantics must match plaintext SQL end to end: the
    /// encrypted split execution drops NULL-keyed rows exactly where the
    /// plaintext engine does, instead of matching NULL with NULL.
    #[test]
    fn monomi_matches_plaintext_on_null_join_keys(
        left in proptest::collection::vec((0i64..12, 0i64..100), 0..14),
        right in proptest::collection::vec((0i64..12, 0i64..100), 0..14),
    ) {
        let plain = join_db_with_nulls(&left, &right);
        let sql = "SELECT lv, rv FROM lt, rt WHERE lk = rk ORDER BY lv, rv";
        let parsed = vec![parse_query(sql).expect("join query parses")];
        let (client, _) =
            MonomiClient::setup(&plain, &parsed, DesignStrategy::Designer, &fast_config())
                .expect("setup succeeds");
        let (expected, _) = plain.execute_sql(sql, &[]).expect("plaintext join");
        // Plaintext sanity: no NULL key ever matched.
        for row in &expected.rows {
            prop_assert!(row.iter().all(|v| !v.is_null()));
        }
        let (got, _) = client.execute(sql, &[]).expect("MONOMI join");
        prop_assert!(
            rows_match(&expected.rows, &got.rows),
            "plaintext {:?} vs MONOMI {:?}", expected.rows, got.rows
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The `Value` `Hash`/`Eq` contract the executor's hash operators rely
    /// on: equality implies equal hashes, across the Int/Float/Date family.
    #[test]
    fn value_hash_eq_contract(kind_a in 0u8..5, kind_b in 0u8..5, base in -1000i64..1000) {
        use std::hash::{Hash, Hasher};
        let make = |kind: u8| match kind {
            0 => Value::Null,
            1 => Value::Int(base),
            2 => Value::Float(base as f64),
            3 => Value::Date(base as i32),
            _ => Value::Float(base as f64 + 0.25),
        };
        let hash = |v: &Value| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        let (a, b) = (make(kind_a), make(kind_b));
        if a == b {
            prop_assert_eq!(hash(&a), hash(&b), "{:?} == {:?} but hashes differ", a, b);
        }
        prop_assert_eq!(a.compare(&b), b.compare(&a).reverse());
    }
}

#[test]
fn baseline_systems_return_correct_answers_too() {
    let plain = small_plain();
    let workload = queries::workload();
    let config = fast_config();
    let greedy = baselines::build_system(
        baselines::SystemKind::ExecutionGreedy,
        &plain,
        &workload,
        &config,
    )
    .expect("greedy setup");
    for number in [1u32, 6, 12] {
        let q = queries::query(number).unwrap();
        let (expected, _) = plain.execute_sql(q.sql, &q.params).unwrap();
        let run = greedy.run(&plain, &q).unwrap();
        assert!(
            rows_match(&expected.rows, &run.result.rows),
            "Execution-Greedy Q{number} diverged"
        );
    }
}

/// SHA-256 over every row of every table of the client's (in-process)
/// encrypted database, tables in name order.
fn encrypted_database_digest(client: &MonomiClient) -> String {
    let db = client
        .encrypted_database()
        .expect("in-process server database");
    let mut names = db.table_names();
    names.sort();
    let mut bytes = Vec::new();
    for name in names {
        bytes.extend_from_slice(name.as_bytes());
        for row in db.table(&name).expect("listed table exists").rows() {
            bytes.extend_from_slice(format!("{row:?}\n").as_bytes());
        }
    }
    monomi_crypto::sha256::sha256(&bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// The encrypted database is a function of the seed alone: the same keys,
/// the same design and the same draws from the encryption RNG in the same
/// order, however `encrypt_database` organises its work. The digests were
/// taken at the commit before the per-column cipher cache and the per-table
/// compilation of `encrypt_database`; every ciphertext of every row of the
/// sf-0.001 database, under the S = 2 and the unconstrained design, must
/// still be what that commit wrote.
#[test]
fn encrypted_database_is_byte_identical_per_seed() {
    let plain = small_plain();
    let parsed: Vec<_> = queries::workload()
        .iter()
        .map(|q| parse_query(q.sql).expect("workload query parses"))
        .collect();
    for (space_budget, paillier_bits, golden) in [
        (
            Some(2.0),
            256,
            "1800e7630c056d578f9222b8a07c5be070c666041674a59fea223d0849d4d73a",
        ),
        (
            None,
            1024,
            "f2ef4ba96cfed1897e9856500644d7f450df6c608ddbd3ed13d8c73be07b90cb",
        ),
    ] {
        let config = ClientConfig {
            space_budget,
            paillier_bits,
            ..fast_config()
        };
        let (client, _) = MonomiClient::setup(&plain, &parsed, DesignStrategy::Designer, &config)
            .expect("setup succeeds");
        assert_eq!(
            encrypted_database_digest(&client),
            golden,
            "encrypted database changed for space budget {space_budget:?}"
        );
    }
}
