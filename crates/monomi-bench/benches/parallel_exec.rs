//! Morsel-driven parallel execution benchmark: 1 vs N worker threads on the
//! two server-side workloads the paper's cost breakdown is dominated by.
//!
//! * **Q1-shaped HOM aggregation**: `paillier_sum` + `COUNT(*)` over a
//!   ciphertext column with a categorical GROUP BY — one CIOS multiply per
//!   row (§5.3), the heaviest per-row server cost MONOMI has. Partial
//!   accumulators merge with one CIOS each
//!   ([`monomi_crypto::PaillierSum::merge`]), so the parallel result is
//!   byte-identical to the serial fold (asserted below).
//! * **Q6-shaped selective scan**: the vectorized filter + late
//!   materialization + SUM over TPC-H `lineitem`, morsel-parallel end to end.
//!
//! The acceptance bar is ≥3x rows/s at 4 threads on the Q1-shaped HOM
//! workload. Knobs: `MONOMI_BENCH_THREADS` (default 4),
//! `MONOMI_PAILLIER_BITS` (default 512), `MONOMI_SCALE` (sizes both
//! workloads).

use monomi_bench::print_header;
use monomi_crypto::PaillierKey;
use monomi_engine::{ColumnDef, ColumnType, Database, ExecOptions, ResultSet, TableSchema, Value};
use monomi_math::BigUint;
use monomi_sql::parse_query;
use monomi_store::env_knob;
use monomi_tpch::datagen;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Best-of-N wall-clock measurement of `f`, returning (seconds, last result).
fn best_of<F: FnMut() -> ResultSet>(n: usize, mut f: F) -> (f64, ResultSet) {
    let mut best = f64::INFINITY;
    let mut last = f();
    for _ in 0..n {
        let start = Instant::now();
        last = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, last)
}

fn main() {
    print_header(
        "Morsel-driven parallel execution: 1 vs N worker threads",
        "Q1-shaped HOM aggregation and Q6-shaped selective scan",
    );
    let threads = env_knob("MONOMI_BENCH_THREADS", 4, |&n| n >= 1);
    let iters = env_knob("MONOMI_BENCH_ITERS", 3, |&n| n >= 1);
    let bits = env_knob("MONOMI_PAILLIER_BITS", 512, |&n| n >= 128);
    let scale = env_knob("MONOMI_SCALE", 0.002, |s: &f64| s.is_finite() && *s > 0.0);
    let serial = ExecOptions::with_threads(1);
    let parallel = ExecOptions::with_threads(threads);

    // --- Q1-shaped HOM aggregation over an encrypted table. ---
    // At least five morsels of work, or the thread pool has nothing to share.
    let hom_rows = env_knob(
        "MONOMI_HOM_ROWS",
        ((scale * 2_000_000.0) as usize).clamp(5 * monomi_engine::DEFAULT_MORSEL_ROWS, 60_000),
        |_| true,
    );
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let key = PaillierKey::generate(&mut rng, bits);
    let plains: Vec<BigUint> = (0..hom_rows as u64)
        .map(|i| BigUint::from_u64(i % 997))
        .collect();
    let cts = key.batch_encrypt(&mut rng, &plains);

    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "lineitem_enc",
        vec![
            ColumnDef::new("l_returnflag", ColumnType::Str),
            ColumnDef::new("l_hom", ColumnType::Bytes),
        ],
    ));
    let flags = ["A", "N", "R"];
    let width = key.ciphertext_bytes();
    db.bulk_load(
        "lineitem_enc",
        cts.iter()
            .enumerate()
            .map(|(i, c)| {
                vec![
                    Value::Str(flags[i % flags.len()].into()),
                    Value::Bytes(c.to_bytes_be_padded(width)),
                ]
            })
            .collect(),
    )
    .expect("load encrypted rows");
    db.register_paillier_modulus(key.n_squared().clone());

    let q1 = parse_query(
        "SELECT l_returnflag, paillier_sum(l_hom), COUNT(*) FROM lineitem_enc \
         GROUP BY l_returnflag ORDER BY l_returnflag",
    )
    .unwrap();
    let (q1_serial_secs, q1_serial_rs) = best_of(iters, || {
        db.execute_with(&q1, &[], &serial).expect("Q1 serial").0
    });
    let (q1_par_secs, q1_par_rs) = best_of(iters, || {
        db.execute_with(&q1, &[], &parallel).expect("Q1 parallel").0
    });
    // Debug formatting distinguishes Int from Float and -0.0 from 0.0, so
    // this really is byte identity, not Value's cross-type equality.
    assert_eq!(
        format!("{:?}", q1_serial_rs),
        format!("{:?}", q1_par_rs),
        "parallel Q1-shaped results must be byte-identical to serial"
    );
    // Spot-check the homomorphism end to end: decrypt one group's sum.
    let group_a_sum: u64 = (0..hom_rows as u64)
        .filter(|i| (*i as usize).is_multiple_of(flags.len()))
        .map(|i| i % 997)
        .sum();
    if let Value::Bytes(ct) = &q1_serial_rs.rows[0][1] {
        assert_eq!(key.decrypt_u64(&BigUint::from_bytes_be(ct)), group_a_sum);
    } else {
        panic!("paillier_sum did not return bytes");
    }

    let q1_serial_rate = hom_rows as f64 / q1_serial_secs;
    let q1_par_rate = hom_rows as f64 / q1_par_secs;
    let q1_speedup = q1_par_rate / q1_serial_rate;
    println!("Q1-shaped paillier_sum ({hom_rows} rows, {bits}-bit n, 3 groups):");
    println!("  1 thread:                 {q1_serial_rate:>12.0} rows/s  ({q1_serial_secs:.4}s)");
    println!("  {threads} threads:                {q1_par_rate:>12.0} rows/s  ({q1_par_secs:.4}s)");
    println!("  speedup:                  {q1_speedup:>11.2}x\n");

    // --- Q6-shaped selective scan over plaintext TPC-H lineitem. ---
    // The scan is memory-bound, so give it enough rows that morsel dispatch
    // overhead is amortized (~30 morsels at the default morsel size).
    let plain = datagen::generate(&datagen::GeneratorConfig {
        scale_factor: scale.max(0.02),
        seed: 42,
    });
    let scan_rows = plain.table("lineitem").expect("lineitem").row_count();
    let q6 = parse_query(
        "SELECT SUM(l_extendedprice * l_discount) FROM lineitem \
         WHERE l_shipdate >= DATE '1994-01-01' \
         AND l_shipdate < DATE '1994-01-01' + INTERVAL '1' YEAR \
         AND l_discount BETWEEN 5 AND 7 AND l_quantity < 24",
    )
    .unwrap();
    let (q6_serial_secs, q6_serial_rs) = best_of(iters, || {
        plain.execute_with(&q6, &[], &serial).expect("Q6 serial").0
    });
    let (q6_par_secs, q6_par_rs) = best_of(iters, || {
        plain
            .execute_with(&q6, &[], &parallel)
            .expect("Q6 parallel")
            .0
    });
    assert_eq!(
        format!("{:?}", q6_serial_rs),
        format!("{:?}", q6_par_rs),
        "parallel Q6-shaped results must be byte-identical to serial"
    );

    let q6_serial_rate = scan_rows as f64 / q6_serial_secs;
    let q6_par_rate = scan_rows as f64 / q6_par_secs;
    let q6_speedup = q6_par_rate / q6_serial_rate;
    println!("Q6-shaped selective scan ({scan_rows} lineitem rows):");
    println!("  1 thread:                 {q6_serial_rate:>12.0} rows/s  ({q6_serial_secs:.4}s)");
    println!("  {threads} threads:                {q6_par_rate:>12.0} rows/s  ({q6_par_secs:.4}s)");
    println!("  speedup:                  {q6_speedup:>11.2}x");
}
