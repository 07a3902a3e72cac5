//! Outside-timed calls into the two bottom layers, on the workload's own
//! keys and data: per-operation crypto costs and segment-store throughput.

use crate::stats::median;
use monomi_core::Encryptor;
use monomi_crypto::i64_to_ordered_u64;
use monomi_engine::{Database, Value};
use monomi_math::BigUint;
use monomi_obs::Stopwatch;
use monomi_store::{Store, StoreOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;

/// Values per timed batch, by how long one operation takes.
const CHEAP_BATCH: usize = 10_000;
const OPE_BATCH: usize = 2_000;
const PAILLIER_BATCH: usize = 200;
/// Each batch is timed this often; the median is reported.
const REPEATS: usize = 3;

/// Per-operation crypto costs.
pub struct CryptoCosts {
    pub det_dec_ns: f64,
    pub rnd_dec_ns: f64,
    pub ope_enc_us: f64,
    pub paillier_dec_us: f64,
    pub paillier_add_ns: f64,
}

/// Median seconds per item of `REPEATS` runs of `batch` over `items` items.
fn per_item(items: usize, mut batch: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let watch = Stopwatch::start();
            batch();
            watch.seconds() / items as f64
        })
        .collect();
    median(&runs)
}

/// A column of `lineitem`, cycled to `count` values.
fn column(plain: &Database, name: &str, count: usize) -> Vec<Value> {
    let table = plain.table("lineitem").expect("lineitem exists");
    let index = table.schema().column_index(name).expect("lineitem column");
    (0..count)
        .map(|i| table.value(i % table.row_count(), index))
        .collect()
}

/// Times the schemes the client's decrypt and the server's aggregation use,
/// with the deployment's keys on `lineitem` values.
pub fn crypto_costs(plain: &Database, encryptor: &Encryptor) -> CryptoCosts {
    let master = encryptor.master_key();
    let paillier = encryptor.paillier();
    let mut rng = StdRng::seed_from_u64(0x6d_6963_726f); // "micro"
    let as_int = |v: &Value| match v {
        Value::Int(i) => *i,
        Value::Date(d) => i64::from(*d),
        other => panic!("expected an integer or date, got {other:?}"),
    };

    let det = master.det_int("lineitem", "l_orderkey", 64);
    let det_cts: Vec<u64> = column(plain, "l_orderkey", CHEAP_BATCH)
        .iter()
        .map(|v| det.encrypt(as_int(v) as u64))
        .collect();
    let det_s = per_item(CHEAP_BATCH, || {
        for &c in &det_cts {
            black_box(det.decrypt(black_box(c)));
        }
    });

    let rnd = master.rnd("lineitem", "l_comment");
    let rnd_cts: Vec<Vec<u8>> = column(plain, "l_comment", CHEAP_BATCH)
        .iter()
        .map(|v| match v {
            Value::Str(s) => rnd.encrypt(&mut rng, s.as_bytes()),
            other => panic!("l_comment is a string, got {other:?}"),
        })
        .collect();
    let rnd_s = per_item(CHEAP_BATCH, || {
        for c in &rnd_cts {
            black_box(rnd.decrypt(black_box(c)));
        }
    });

    let ope = master.ope("lineitem", "l_shipdate");
    let dates: Vec<u64> = column(plain, "l_shipdate", OPE_BATCH)
        .iter()
        .map(|v| i64_to_ordered_u64(as_int(v)))
        .collect();
    let ope_s = per_item(OPE_BATCH, || {
        for &d in &dates {
            black_box(ope.encrypt(black_box(d)));
        }
    });

    let quantities: Vec<BigUint> = column(plain, "l_quantity", PAILLIER_BATCH)
        .iter()
        .map(|v| BigUint::from_u64(as_int(v) as u64))
        .collect();
    let hom_cts = paillier.batch_encrypt(&mut rng, &quantities);
    let dec_s = per_item(PAILLIER_BATCH, || {
        for c in &hom_cts {
            black_box(paillier.decrypt(black_box(c)));
        }
    });
    let add_s = per_item(CHEAP_BATCH, || {
        let mut acc = paillier.one_ciphertext();
        for i in 0..CHEAP_BATCH {
            acc = paillier.add_ciphertexts(&acc, &hom_cts[i % hom_cts.len()]);
        }
        black_box(acc);
    });

    CryptoCosts {
        det_dec_ns: det_s * 1e9,
        rnd_dec_ns: rnd_s * 1e9,
        ope_enc_us: ope_s * 1e6,
        paillier_dec_us: dec_s * 1e6,
        paillier_add_ns: add_s * 1e9,
    }
}

/// Segment-store throughput in MB (10^6 stored bytes) per second.
pub struct StoreThroughput {
    pub write_mb_s: f64,
    pub cold_scan_mb_s: f64,
    pub warm_scan_mb_s: f64,
}

/// Writes the encrypted `lineitem` into a local segment store under `dir`
/// (removed afterwards), then decodes every segment with the segment cache
/// cleared (cold: file read, checksum, decode) and again from the cache
/// (warm). The files were just written, so a cold read comes from the
/// operating system's page cache, not from a device.
pub fn store_throughput(encrypted: &Database, dir: &Path) -> StoreThroughput {
    let table = encrypted
        .table("lineitem")
        .expect("encrypted lineitem exists");
    let rows = table.rows();
    let _ = std::fs::remove_dir_all(dir);
    let store = Store::open_with(dir, StoreOptions::default()).expect("local store opens");
    let mut db = Database::with_store(store.clone());
    let watch = Stopwatch::start();
    db.create_table(table.schema().clone());
    db.bulk_load("lineitem", rows)
        .expect("bulk load into local store");
    db.persist().expect("flush local store");
    let write_s = watch.seconds();

    let segments = store
        .table_meta("lineitem")
        .expect("table is in the manifest")
        .segments;
    let stored_mb = segments.iter().map(|s| s.stored_bytes).sum::<u64>() as f64 / 1e6;
    let scan = || {
        let watch = Stopwatch::start();
        for segment in &segments {
            black_box(store.read_segment(segment).expect("segment decodes"));
        }
        watch.seconds()
    };
    let cold: Vec<f64> = (0..REPEATS)
        .map(|_| {
            store.cache().clear();
            scan()
        })
        .collect();
    let warm: Vec<f64> = (0..REPEATS).map(|_| scan()).collect();
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
    StoreThroughput {
        write_mb_s: stored_mb / write_s,
        cold_scan_mb_s: stored_mb / median(&cold),
        warm_scan_mb_s: stored_mb / median(&warm),
    }
}
