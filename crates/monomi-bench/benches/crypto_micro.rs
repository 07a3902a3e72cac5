//! Criterion microbenchmarks for the cryptographic substrates: the per-value
//! costs that drive MONOMI's cost model (§6.4).

use criterion::{criterion_group, criterion_main, Criterion};
use monomi_crypto::{
    FormatPreservingCipher, MasterKey, OpeCipher, PackedEncryptor, PackingLayout, PaillierKey,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_crypto(c: &mut Criterion) {
    let mk = MasterKey::from_bytes([7u8; 32]);
    let fpe = FormatPreservingCipher::new(b"0123456789abcdef", 64);
    let ope = OpeCipher::from_master(b"bench-master", "col");
    let mut rng = StdRng::seed_from_u64(1);
    let paillier = PaillierKey::generate(&mut rng, 512);

    c.bench_function("det_fpe_encrypt_u64", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            std::hint::black_box(fpe.encrypt(x))
        })
    });
    c.bench_function("det_fpe_decrypt_u64", |b| {
        let ct = fpe.encrypt(123456789);
        b.iter(|| std::hint::black_box(fpe.decrypt(ct)))
    });
    c.bench_function("ope_encrypt_u64", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(997);
            std::hint::black_box(ope.encrypt(x))
        })
    });
    c.bench_function("rnd_aes_cbc_encrypt_64B", |b| {
        let rnd = mk.rnd("t", "c");
        let data = [0x5au8; 64];
        b.iter(|| std::hint::black_box(rnd.encrypt(&mut rng, &data)))
    });
    c.bench_function("paillier_encrypt_u64_512bit", |b| {
        b.iter(|| std::hint::black_box(paillier.encrypt_u64(&mut rng, 424242)))
    });
    c.bench_function("paillier_decrypt_crt_512bit", |b| {
        let ct = paillier.encrypt_u64(&mut rng, 424242);
        b.iter(|| std::hint::black_box(paillier.decrypt_u64(&ct)))
    });
    c.bench_function("paillier_homomorphic_add", |b| {
        let c1 = paillier.encrypt_u64(&mut rng, 1);
        let c2 = paillier.encrypt_u64(&mut rng, 2);
        b.iter(|| std::hint::black_box(paillier.add_ciphertexts(&c1, &c2)))
    });
    c.bench_function("hom_add_mont_resident_per_row", |b| {
        // The engine's per-row aggregation cost: one in-place CIOS multiply
        // through a shared scratch (drift fixup amortized to zero here).
        let ctx = paillier.ctx_n_squared();
        let c1 = paillier.encrypt_u64(&mut rng, 1);
        let mut acc = ctx.one_mont();
        let mut scratch = ctx.scratch();
        b.iter(|| {
            ctx.mont_mul_assign(&mut acc, &c1, &mut scratch);
            std::hint::black_box(&acc);
        })
    });
    c.bench_function("hom_add_naive_mul_rem", |b| {
        // The pre-PR per-row cost: schoolbook product + long-division rem.
        let c1 = paillier.encrypt_u64(&mut rng, 1);
        let c2 = paillier.encrypt_u64(&mut rng, 2);
        let n2 = paillier.n_squared();
        b.iter(|| std::hint::black_box(c1.mul(&c2).rem(n2)))
    });
    c.bench_function("paillier_batch_encrypt_64_values", |b| {
        let ms: Vec<_> = (0..64u64).map(monomi_math::BigUint::from_u64).collect();
        b.iter(|| std::hint::black_box(paillier.batch_encrypt(&mut rng, &ms)))
    });
    c.bench_function("grouped_packing_encrypt_row_of_4", |b| {
        let layout = PackingLayout::plan(&paillier, 4, 36, 28);
        let enc = PackedEncryptor::new(&paillier, layout);
        let rows = vec![vec![10u64, 20, 30, 40]];
        b.iter(|| std::hint::black_box(enc.encrypt_rows(&mut rng, &rows)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_crypto
}
criterion_main!(benches);
