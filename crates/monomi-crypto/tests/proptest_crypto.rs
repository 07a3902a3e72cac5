//! Property-based tests for the encryption schemes: roundtrips, determinism,
//! order preservation, and homomorphic correctness.

use monomi_crypto::{
    i64_to_ordered_u64, DetBytes, FormatPreservingCipher, MasterKey, OpeCipher, PackedEncryptor,
    PackingLayout, PaillierKey, PaillierSum, RndCipher,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fpe_roundtrip(v in any::<u64>(), key in any::<[u8; 16]>()) {
        let fpe = FormatPreservingCipher::new(&key, 64);
        prop_assert_eq!(fpe.decrypt(fpe.encrypt(v)), v);
    }

    #[test]
    fn fpe_32bit_stays_in_domain(v in 0u64..(1 << 32), key in any::<[u8; 16]>()) {
        let fpe = FormatPreservingCipher::new(&key, 32);
        let c = fpe.encrypt(v);
        prop_assert!(c < (1 << 32));
        prop_assert_eq!(fpe.decrypt(c), v);
    }

    #[test]
    fn det_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let det = DetBytes::from_master(b"proptest-master", "t.c");
        prop_assert_eq!(det.decrypt(&det.encrypt(&data)), Ok(data));
    }

    #[test]
    fn rnd_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..200), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rnd = RndCipher::from_master(b"proptest-master", "t.c");
        prop_assert_eq!(rnd.decrypt(&rnd.encrypt(&mut rng, &data)), Ok(data));
    }

    #[test]
    fn ope_preserves_order(a in any::<u64>(), b in any::<u64>()) {
        let ope = OpeCipher::from_master(b"proptest-master", "t.c");
        let (ca, cb) = (ope.encrypt(a), ope.encrypt(b));
        prop_assert_eq!(a.cmp(&b), ca.cmp(&cb));
    }

    #[test]
    fn ope_signed_bias_preserves_order(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(
            a.cmp(&b),
            i64_to_ordered_u64(a).cmp(&i64_to_ordered_u64(b))
        );
    }

    #[test]
    fn master_key_det_is_deterministic(v in 0u64..(1 << 40)) {
        let mk = MasterKey::from_bytes([3u8; 32]);
        let c1 = mk.det_int("t", "c", 40).encrypt(v);
        let c2 = mk.det_int("t", "c", 40).encrypt(v);
        prop_assert_eq!(c1, c2);
    }
}

// Paillier proptests use a single shared key because key generation is the
// expensive part; correctness of the homomorphism is what we are testing.
fn shared_key() -> &'static PaillierKey {
    use std::sync::OnceLock;
    static KEY: OnceLock<PaillierKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(2024);
        PaillierKey::generate(&mut rng, 256)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn paillier_roundtrip(m in any::<u64>(), seed in any::<u64>()) {
        let key = shared_key();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = key.encrypt_u64(&mut rng, m);
        prop_assert_eq!(key.decrypt_u64(&c), m);
    }

    #[test]
    fn paillier_homomorphic_sum(values in proptest::collection::vec(0u64..1_000_000, 1..20), seed in any::<u64>()) {
        let key = shared_key();
        let mut rng = StdRng::seed_from_u64(seed);
        let cts: Vec<_> = values.iter().map(|&v| key.encrypt_u64(&mut rng, v)).collect();
        let sum = key.sum_ciphertexts(&cts);
        prop_assert_eq!(key.decrypt_u64(&sum), values.iter().sum::<u64>());
    }

    #[test]
    fn mont_resident_sum_matches_fold_of_adds(values in proptest::collection::vec(0u64..1_000_000, 0..16), seed in any::<u64>()) {
        let key = shared_key();
        let mut rng = StdRng::seed_from_u64(seed);
        let cts: Vec<_> = values.iter().map(|&v| key.encrypt_u64(&mut rng, v)).collect();
        let summed = key.sum_ciphertexts(&cts);
        let folded = cts
            .iter()
            .fold(key.one_ciphertext(), |acc, c| key.add_ciphertexts(&acc, c));
        // Ciphertexts are equal as group elements (identical products mod n²),
        // not just equal after decryption.
        prop_assert_eq!(summed, folded);
    }

    /// The morsel-parallel aggregation contract: splitting a row range into
    /// arbitrary chunks, folding each into its own drifting accumulator, and
    /// merging the partials in order yields the byte-identical group element
    /// (and plaintext sum) of the single-threaded fold.
    #[test]
    fn paillier_sum_merge_of_split_ranges_matches_serial_fold(
        values in proptest::collection::vec(0u64..1_000_000, 0..48),
        chunk in 1usize..9,
        seed in any::<u64>())
    {
        let key = shared_key();
        let ctx = key.ctx_n_squared();
        let mut rng = StdRng::seed_from_u64(seed);
        let cts: Vec<_> = values.iter().map(|&v| key.encrypt_u64(&mut rng, v)).collect();

        let mut serial = PaillierSum::new(ctx);
        for c in &cts {
            serial.add(ctx, c);
        }

        let mut merged = PaillierSum::new(ctx);
        for range in cts.chunks(chunk) {
            let mut partial = PaillierSum::new(ctx);
            for c in range {
                partial.add(ctx, c);
            }
            merged.merge(ctx, &partial);
        }

        prop_assert_eq!(serial.count(), merged.count());
        // Byte-identical ciphertexts, not just decrypt-equal.
        prop_assert_eq!(serial.finish(ctx), merged.finish(ctx));
        prop_assert_eq!(merged.finish(ctx), key.sum_ciphertexts(&cts));
        prop_assert_eq!(
            key.decrypt_u64(&merged.finish(ctx)),
            values.iter().sum::<u64>()
        );
    }

    #[test]
    fn packed_column_sums_match(
        rows in proptest::collection::vec(
            proptest::collection::vec(0u64..0xffff, 3..=3), 1..40),
        seed in any::<u64>())
    {
        let key = shared_key();
        let layout = PackingLayout::plan(key, 3, 16, 16);
        let enc = PackedEncryptor::new(key, layout);
        let mut rng = StdRng::seed_from_u64(seed);
        let cts = enc.encrypt_rows(&mut rng, &rows);
        let sums = enc.decrypt_column_sums(&enc.aggregate(&cts));
        for col in 0..3 {
            let expected: u128 = rows.iter().map(|r| r[col] as u128).sum();
            prop_assert_eq!(sums[col], expected);
        }
    }
}
