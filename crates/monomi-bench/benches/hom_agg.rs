//! Homomorphic-aggregation hot-path benchmark: the Montgomery-resident
//! Paillier pipeline, checked against the in-tree reference paths at the same
//! key size.
//!
//! Server side (the paper's §5.3 per-row cost): `paillier_sum` keeps the
//! accumulator in Montgomery form and pays one in-place CIOS multiply per row
//! plus a single `R^k` fixup per group; the reference fold is a plain
//! multiply followed by a Knuth-D remainder per row, and both must produce
//! the same ciphertext.
//!
//! Client side (the paper's Fig 7 bottleneck): the CRT split (two half-width
//! windowed exponentiations mod p² / q²) against the non-CRT
//! `decrypt_classic` oracle (one full-width `c^λ mod n²`), which must decrypt
//! to the same plaintext.
//!
//! With `MONOMI_BENCH_JSON=<path>` the measured numbers are also written as a
//! JSON snapshot (see `scripts/bench_snapshot.sh`), seeding the perf
//! trajectory across PRs. Knobs: `MONOMI_PAILLIER_BITS` (default 512, the
//! paper uses 1,024-bit n at 2,048-bit ciphertexts), `MONOMI_HOM_ROWS`
//! (default scales with `MONOMI_SCALE`).

use monomi_bench::{env_usize, print_header};
use monomi_crypto::PaillierKey;
use monomi_math::BigUint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Best-of-N wall-clock measurement of `f`, returning seconds.
fn best_of<F: FnMut()>(n: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    print_header(
        "Homomorphic aggregation hot path: Montgomery-resident fold, CRT decrypt",
        "§5.3 server cost and Fig 7 client decrypt cost",
    );
    let bits = env_usize("MONOMI_PAILLIER_BITS", 512);
    let scale = std::env::var("MONOMI_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.002);
    let rows = env_usize(
        "MONOMI_HOM_ROWS",
        ((scale * 1_000_000.0) as usize).clamp(256, 20_000),
    );
    let decrypt_ops = env_usize("MONOMI_HOM_DECRYPTS", 16);
    println!("key: {bits}-bit n, rows per group: {rows}, decrypt ops: {decrypt_ops}\n");

    let mut rng = StdRng::seed_from_u64(0x5eed);
    let key = PaillierKey::generate(&mut rng, bits);
    let n_squared = key.n_squared().clone();

    // Bulk-encrypt the group's rows (also exercises batch_encrypt).
    let plains: Vec<BigUint> = (0..rows as u64)
        .map(|i| BigUint::from_u64(i % 997))
        .collect();
    let start = Instant::now();
    let cts = key.batch_encrypt(&mut rng, &plains);
    let encrypt_secs = start.elapsed().as_secs_f64();
    let expected_sum: u64 = (0..rows as u64).map(|i| i % 997).sum();

    // --- Server side: fold one group of `rows` ciphertexts. ---
    // Reference: a plain multiply + Knuth-D `rem` per row (shows what
    // Montgomery residency saves over reducing after every multiply).
    let mut mid_result = BigUint::one();
    let mid_secs = best_of(3, || {
        let mut acc = BigUint::one();
        for c in &cts {
            acc = acc.mul(c).rem(&n_squared);
        }
        mid_result = acc;
    });

    // Montgomery-resident accumulator, one in-place CIOS multiply per row,
    // single R^k fixup (what AggState::PaillierSum does).
    let mut new_result = BigUint::one();
    let new_secs = best_of(3, || {
        new_result = key.sum_ciphertexts(&cts);
    });

    assert_eq!(mid_result, new_result, "both folds must agree");
    assert_eq!(key.decrypt_u64(&new_result), expected_sum);

    let mid_rows_sec = rows as f64 / mid_secs;
    let new_rows_sec = rows as f64 / new_secs;
    println!("server paillier_sum ({rows} rows/group):");
    println!("  mul + Knuth-D rem:            {mid_rows_sec:>12.0} rows/s  ({mid_secs:.4}s)");
    println!("  Montgomery-resident CIOS:     {new_rows_sec:>12.0} rows/s  ({new_secs:.4}s)\n");

    // --- Client side: decrypt the aggregate. ---
    // Non-CRT oracle (windowed CIOS, one full-width exponentiation).
    let classic_secs = best_of(3, || {
        for _ in 0..decrypt_ops {
            std::hint::black_box(key.decrypt_classic(&new_result));
        }
    }) / decrypt_ops as f64;

    // CRT path.
    let crt_secs = best_of(3, || {
        for _ in 0..decrypt_ops {
            std::hint::black_box(key.decrypt(&new_result));
        }
    }) / decrypt_ops as f64;
    assert_eq!(key.decrypt(&new_result), key.decrypt_classic(&new_result));

    let classic_ops = 1.0 / classic_secs;
    let crt_ops = 1.0 / crt_secs;
    println!("client Paillier decrypt:");
    println!("  classic, windowed CIOS:       {classic_ops:>12.0} ops/s");
    println!("  CRT (mod p², q²):             {crt_ops:>12.0} ops/s");
    println!(
        "  CRT vs classic:               {:>11.2}x\n",
        crt_ops / classic_ops
    );
    println!(
        "bulk encrypt: {:.0} ops/s ({} values in {:.3}s)",
        rows as f64 / encrypt_secs,
        rows,
        encrypt_secs
    );

    if let Ok(path) = std::env::var("MONOMI_BENCH_JSON") {
        let json = format!(
            "{{\n  \"bench\": \"hom_agg\",\n  \"paillier_bits\": {bits},\n  \"rows\": {rows},\n  \
             \"server_rows_per_sec_knuth_rem\": {mid_rows_sec:.1},\n  \
             \"server_rows_per_sec_mont\": {new_rows_sec:.1},\n  \
             \"decrypt_ops_per_sec_classic\": {classic_ops:.1},\n  \
             \"decrypt_ops_per_sec_crt\": {crt_ops:.1},\n  \
             \"encrypt_ops_per_sec\": {:.1}\n}}\n",
            rows as f64 / encrypt_secs,
        );
        std::fs::write(&path, json).expect("write bench snapshot JSON");
        println!("wrote snapshot to {path}");
    }
}
