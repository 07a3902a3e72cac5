//! The Paillier additively homomorphic cryptosystem.
//!
//! MONOMI uses Paillier (HOM) to let the untrusted server compute SUM() and
//! AVG() aggregates over encrypted values: the product of two ciphertexts
//! decrypts to the sum of their plaintexts. Key generation draws two primes
//! from [`monomi_math::prime`], and all modular arithmetic uses the Montgomery
//! contexts from `monomi-math`.
//!
//! The hot paths are Montgomery-resident end to end:
//!
//! * **Decryption** uses the classic CRT split: exponentiate modulo p² and q²
//!   (half-width moduli, per-prime exponents p−1 and q−1) and recombine, which
//!   replaces one full-width n² exponentiation with two at a quarter of the
//!   per-multiplication cost each.
//! * **Encryption** keeps the obfuscator pool in Montgomery form, so each
//!   encryption is two CIOS multiplications (pool-pair product, then blinding
//!   of the `g^m` shortcut) with no conversions.
//! * **Homomorphic summation** chains in-place CIOS multiplications over an
//!   accumulator and cancels the accumulated `R^{-k}` drift with a single
//!   `R^k` fixup at the end — one modular multiplication per row, as §5.3 of
//!   the paper promises.
//!
//! The paper uses 1,024-bit plaintexts (2,048-bit ciphertexts). Key size is
//! configurable here so unit tests and laptop-scale benchmarks stay fast; the
//! packing layer ([`crate::packing`]) adapts to whatever plaintext width the
//! key provides.

use monomi_math::modular::{lcm, mod_inverse};
use monomi_math::{prime, random, BigUint, MontScratch, MontgomeryCtx};
use rand::Rng;

/// A Paillier key pair (the private portion is only ever held by the trusted
/// client).
#[derive(Clone)]
pub struct PaillierKey {
    /// Public modulus n = p·q.
    n: BigUint,
    /// n².
    n_squared: BigUint,
    /// Montgomery context modulo n².
    ctx_n2: MontgomeryCtx,
    /// CRT decryption state (the private factorization of n).
    crt: CrtState,
    /// Pool of precomputed obfuscators rⁿ mod n² *in Montgomery form*,
    /// refreshed by multiplying two random pool entries per encryption. This
    /// trades a small amount of randomness quality for a large speedup during
    /// bulk loading; the paper's prototype similarly amortizes encryption cost
    /// during setup.
    obfuscator_pool: Vec<BigUint>,
}

/// Precomputed CRT material: decryption exponentiates modulo p² and q²
/// (half the width of n², so ~4x cheaper per exponentiation) with the
/// per-prime exponents p−1 / q−1, then recombines via Garner's formula.
#[derive(Clone)]
struct CrtState {
    p: BigUint,
    q: BigUint,
    /// p − 1 and q − 1, the per-prime decryption exponents.
    p1: BigUint,
    q1: BigUint,
    /// Montgomery contexts modulo p² and q².
    ctx_p2: MontgomeryCtx,
    ctx_q2: MontgomeryCtx,
    /// hp = L_p(g^(p-1) mod p²)⁻¹ mod p, hq analogously.
    hp: BigUint,
    hq: BigUint,
    /// q⁻¹ mod p, for the CRT recombination.
    q_inv_p: BigUint,
}

impl CrtState {
    /// `L_p(x) = (x - 1) / p`, the Paillier L function over a prime-square
    /// residue.
    fn l_function(x: &BigUint, prime: &BigUint) -> BigUint {
        x.sub(&BigUint::one()).div_rem(prime).0
    }

    /// Decrypts `c` via the CRT split. `c` must be < n².
    fn decrypt(&self, c: &BigUint) -> BigUint {
        let cp = c.rem(self.ctx_p2.modulus());
        let cq = c.rem(self.ctx_q2.modulus());
        let mp = Self::l_function(&self.ctx_p2.mod_pow(&cp, &self.p1), &self.p)
            .mul(&self.hp)
            .rem(&self.p);
        let mq = Self::l_function(&self.ctx_q2.mod_pow(&cq, &self.q1), &self.q)
            .mul(&self.hq)
            .rem(&self.q);
        // Garner: m = mq + q · ((mp − mq) · q⁻¹ mod p).
        let diff = mp.sub_mod(&mq.rem(&self.p), &self.p);
        let u = diff.mul(&self.q_inv_p).rem(&self.p);
        mq.add(&self.q.mul(&u))
    }
}

/// Size of the precomputed obfuscator pool.
const OBFUSCATOR_POOL_SIZE: usize = 16;

impl PaillierKey {
    /// Generates a key pair with an n of approximately `modulus_bits` bits.
    ///
    /// `modulus_bits` must be at least 64. The paper uses 1,024-bit moduli;
    /// tests use smaller keys for speed.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, modulus_bits: usize) -> Self {
        assert!(modulus_bits >= 64, "modulus must be at least 64 bits");
        let half = modulus_bits / 2;
        loop {
            let p = prime::generate_prime(rng, half);
            let q = prime::generate_prime(rng, modulus_bits - half);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let p1 = p.sub(&BigUint::one());
            let q1 = q.sub(&BigUint::one());
            // Paillier with g = n + 1 needs gcd(λ, n) = 1 for λ = lcm(p-1,
            // q-1), which holds except with negligible probability; retry
            // otherwise.
            if mod_inverse(&lcm(&p1, &q1), &n).is_none() {
                continue;
            }
            let q_inv_p = match mod_inverse(&q, &p) {
                Some(v) => v,
                None => continue, // p == q excluded above, but stay defensive
            };
            let n_squared = n.mul(&n);
            let ctx_n2 = MontgomeryCtx::new(n_squared.clone());
            let ctx_p2 = MontgomeryCtx::new(p.mul(&p));
            let ctx_q2 = MontgomeryCtx::new(q.mul(&q));
            // hp = L_p(g^(p-1) mod p²)⁻¹ mod p with g = n + 1; since
            // g^(p-1) ≡ 1 + (p-1)·n (mod p²), L_p of it is (p-1)·q mod p.
            let g = n.add(&BigUint::one());
            let hp_base =
                CrtState::l_function(&ctx_p2.mod_pow(&g.rem(ctx_p2.modulus()), &p1), &p).rem(&p);
            let hq_base =
                CrtState::l_function(&ctx_q2.mod_pow(&g.rem(ctx_q2.modulus()), &q1), &q).rem(&q);
            let (hp, hq) = match (mod_inverse(&hp_base, &p), mod_inverse(&hq_base, &q)) {
                (Some(hp), Some(hq)) => (hp, hq),
                _ => continue,
            };
            let crt = CrtState {
                p,
                q,
                p1,
                q1,
                ctx_p2,
                ctx_q2,
                hp,
                hq,
                q_inv_p,
            };
            let mut key = PaillierKey {
                n,
                n_squared,
                ctx_n2,
                crt,
                obfuscator_pool: Vec::new(),
            };
            key.refill_obfuscator_pool(rng);
            return key;
        }
    }

    fn refill_obfuscator_pool<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.obfuscator_pool = (0..OBFUSCATOR_POOL_SIZE)
            .map(|_| {
                let r = loop {
                    let candidate = random::random_below(rng, &self.n);
                    if !candidate.is_zero() && candidate.gcd(&self.n).is_one() {
                        break candidate;
                    }
                };
                // Stored in Montgomery form so each encryption is pure CIOS.
                self.ctx_n2.to_mont(&self.ctx_n2.mod_pow(&r, &self.n))
            })
            .collect();
    }

    /// The public modulus n.
    pub fn n(&self) -> &BigUint {
        &self.n
    }

    /// n², the ciphertext modulus.
    pub fn n_squared(&self) -> &BigUint {
        &self.n_squared
    }

    /// The Montgomery context for the ciphertext modulus n², shared with
    /// callers that run their own ciphertext-multiplication loops.
    pub fn ctx_n_squared(&self) -> &MontgomeryCtx {
        &self.ctx_n2
    }

    /// Number of plaintext bits that can safely be packed into one ciphertext.
    /// We leave 8 bits of headroom below the modulus size.
    pub fn plaintext_bits(&self) -> usize {
        self.n.bits().saturating_sub(8)
    }

    /// Ciphertext size in bytes (fixed-width encoding).
    pub fn ciphertext_bytes(&self) -> usize {
        self.n_squared.bits().div_ceil(8)
    }

    /// Encrypts a plaintext (must be `< n`).
    ///
    /// Uses the `g = n + 1` shortcut: `g^m = 1 + m·n (mod n²)`, so the only
    /// expensive operations are two Montgomery multiplications: one combining
    /// two random pool entries into a fresh obfuscator (still in Montgomery
    /// form), and one blinding `g^m` with it (a Montgomery-by-plain multiply,
    /// which lands back in ordinary form).
    pub fn encrypt<R: Rng + ?Sized>(&self, rng: &mut R, m: &BigUint) -> BigUint {
        self.encryptor().encrypt(rng, m)
    }

    /// Creates an encryption session that carries the Montgomery scratch and
    /// obfuscator buffer across calls, so bulk loaders can encrypt streams of
    /// values (chunk by chunk, without materializing them all) while paying
    /// for the buffers once.
    pub fn encryptor(&self) -> PaillierEncryptSession<'_> {
        PaillierEncryptSession {
            key: self,
            obf: BigUint::zero(),
            scratch: self.ctx_n2.scratch(),
        }
    }

    /// Encrypts a batch of plaintexts, sharing one scratch buffer across the
    /// whole run. Used by bulk loading, where millions of values are
    /// encrypted back to back; for streaming loads that should not hold all
    /// plaintexts at once, use [`encryptor`](Self::encryptor) directly.
    pub fn batch_encrypt<R: Rng + ?Sized>(&self, rng: &mut R, ms: &[BigUint]) -> Vec<BigUint> {
        let mut session = self.encryptor();
        ms.iter().map(|m| session.encrypt(rng, m)).collect()
    }

    /// Encrypts a `u64` plaintext.
    pub fn encrypt_u64<R: Rng + ?Sized>(&self, rng: &mut R, m: u64) -> BigUint {
        self.encrypt(rng, &BigUint::from_u64(m))
    }

    /// Decrypts a ciphertext via the CRT split (two half-width
    /// exponentiations instead of one full-width one, ~4x faster).
    pub fn decrypt(&self, c: &BigUint) -> BigUint {
        assert!(c < &self.n_squared, "ciphertext must be smaller than n²");
        self.crt.decrypt(c)
    }

    /// Decrypts a ciphertext with the classic single-exponentiation formula
    /// `L(c^λ mod n²) · µ mod n`, with λ = lcm(p-1, q-1) and µ = λ⁻¹ mod n.
    /// The test oracle for the CRT path of [`decrypt`](Self::decrypt).
    #[cfg(test)]
    fn decrypt_classic(&self, c: &BigUint) -> BigUint {
        assert!(c < &self.n_squared, "ciphertext must be smaller than n²");
        let lambda = lcm(&self.crt.p1, &self.crt.q1);
        let mu = mod_inverse(&lambda, &self.n).expect("generate checked gcd(λ, n) = 1");
        let u = self.ctx_n2.mod_pow(c, &lambda);
        // L(u) = (u - 1) / n
        let l = u.sub(&BigUint::one()).div_rem(&self.n).0;
        l.mul(&mu).rem(&self.n)
    }

    /// Decrypts a ciphertext to `u64`, panicking if the plaintext does not fit.
    pub fn decrypt_u64(&self, c: &BigUint) -> u64 {
        self.decrypt(c)
            .to_u64()
            .expect("decrypted plaintext does not fit in u64")
    }

    /// Homomorphic addition: returns a ciphertext of `m1 + m2 (mod n)` given
    /// ciphertexts of `m1` and `m2`. This is the single modular multiplication
    /// per row that the paper's grouped homomorphic addition (§5.3) relies on;
    /// for long chains use [`sum_ciphertexts`](Self::sum_ciphertexts), which
    /// amortizes the Montgomery conversions across the whole sum.
    pub fn add_ciphertexts(&self, c1: &BigUint, c2: &BigUint) -> BigUint {
        self.ctx_n2.mul_mod(c1, c2)
    }

    /// Homomorphic addition of a plaintext constant.
    pub fn add_plaintext(&self, c: &BigUint, k: &BigUint) -> BigUint {
        let g_k = BigUint::one().add(&k.rem(&self.n).mul(&self.n));
        self.ctx_n2.mul_mod(c, &g_k)
    }

    /// Homomorphic multiplication by a plaintext constant: ciphertext of `k·m`.
    pub fn mul_plaintext(&self, c: &BigUint, k: &BigUint) -> BigUint {
        self.ctx_n2.mod_pow(c, k)
    }

    /// The ciphertext of zero with no obfuscation, useful as the identity for
    /// homomorphic summation.
    pub fn one_ciphertext(&self) -> BigUint {
        BigUint::one()
    }

    /// Homomorphically sums an iterator of ciphertexts.
    ///
    /// Montgomery-resident: the accumulator starts at `R` (the Montgomery form
    /// of 1) and each ciphertext costs exactly one in-place CIOS multiply; the
    /// accumulated `R^{-k}` drift is cancelled by a single `R^k` multiplication
    /// at the end (one conversion in, one out). Implemented on [`PaillierSum`],
    /// the streaming accumulator parallel aggregation splits across workers.
    pub fn sum_ciphertexts<'a, I: IntoIterator<Item = &'a BigUint>>(&self, iter: I) -> BigUint {
        let mut sum = PaillierSum::new(&self.ctx_n2);
        for c in iter {
            sum.add(&self.ctx_n2, c);
        }
        sum.finish(&self.ctx_n2)
    }
}

/// A streaming homomorphic sum: a Montgomery-resident "drifting" accumulator.
///
/// The accumulator starts at `R` (the Montgomery form of 1); every
/// [`add`](Self::add) is one in-place CIOS multiply by an ordinary-form
/// ciphertext, so after `k` additions it holds `R · (∏ cᵢ) · R^{-k}` — the
/// true product times an `R^{-k}` drift that [`finish`](Self::finish) cancels
/// with a single `R^k` multiplication.
///
/// Two accumulators over disjoint row ranges can be combined with
/// [`merge`](Self::merge) at the cost of **one** CIOS multiply: multiplying
/// the two drifting values yields `R · (∏ all cᵢ) · R^{-(k₁+k₂)}`, the exact
/// state a single accumulator would hold after folding both ranges. Because
/// multiplication modulo n² is exact and commutative, a merge tree over any
/// partitioning finishes to the byte-identical ciphertext of the serial fold —
/// the property morsel-parallel `paillier_sum` relies on.
///
/// The type is independent of the private key: it needs only the public
/// Montgomery context for n², so the untrusted server can run it.
#[derive(Clone, Debug)]
pub struct PaillierSum {
    /// Montgomery-domain product carrying an `R^{-count}` drift.
    acc: BigUint,
    count: u64,
    /// Reusable CIOS scratch (allocated once per accumulator).
    scratch: MontScratch,
}

impl PaillierSum {
    /// An empty sum (the multiplicative identity, `R`) for the given n²
    /// context.
    pub fn new(ctx: &MontgomeryCtx) -> Self {
        PaillierSum {
            acc: ctx.one_mont(),
            count: 0,
            scratch: ctx.scratch(),
        }
    }

    /// Number of ciphertexts folded in so far (merges included).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds one ciphertext into the sum: a single allocation-free CIOS
    /// multiply. Well-formed ciphertexts are already < n²; oversized operands
    /// are reduced first so malformed input cannot break the CIOS
    /// precondition (matching [`PaillierKey::add_ciphertexts`] semantics).
    pub fn add(&mut self, ctx: &MontgomeryCtx, c: &BigUint) {
        if c < ctx.modulus() {
            ctx.mont_mul_assign(&mut self.acc, c, &mut self.scratch);
        } else {
            ctx.mont_mul_assign(&mut self.acc, &c.rem(ctx.modulus()), &mut self.scratch);
        }
        self.count += 1;
    }

    /// Combines another accumulator (over a disjoint row range) into this one
    /// with one CIOS multiply; the drifts compose additively, so no fixup is
    /// needed until [`finish`](Self::finish).
    pub fn merge(&mut self, ctx: &MontgomeryCtx, other: &PaillierSum) {
        if other.count == 0 {
            // A fresh accumulator is the Montgomery identity; skip the CIOS.
            return;
        }
        ctx.mont_mul_assign(&mut self.acc, &other.acc, &mut self.scratch);
        self.count += other.count;
    }

    /// Cancels the accumulated `R^{-count}` drift and returns the ordinary
    /// form product — the ciphertext of the sum. An empty accumulator yields
    /// 1, the unobfuscated ciphertext of zero.
    pub fn finish(&self, ctx: &MontgomeryCtx) -> BigUint {
        ctx.mont_mul(&self.acc, &ctx.r_to_the(self.count))
    }
}

/// A scratch-carrying Paillier encryption session (see
/// [`PaillierKey::encryptor`]): each `encrypt` call costs two CIOS
/// multiplications with no per-call buffer allocation.
pub struct PaillierEncryptSession<'k> {
    key: &'k PaillierKey,
    obf: BigUint,
    scratch: MontScratch,
}

impl PaillierEncryptSession<'_> {
    /// Encrypts a plaintext (must be `< n`).
    ///
    /// Uses the `g = n + 1` shortcut: `g^m = 1 + m·n (mod n²)`, so the only
    /// expensive operations are two Montgomery multiplications: one combining
    /// two random pool entries into a fresh obfuscator (still in Montgomery
    /// form), and one blinding `g^m` with it (a Montgomery-by-plain multiply,
    /// which lands back in ordinary form).
    pub fn encrypt<R: Rng + ?Sized>(&mut self, rng: &mut R, m: &BigUint) -> BigUint {
        let key = self.key;
        assert!(m < &key.n, "plaintext must be smaller than n");
        // g^m mod n² = 1 + m*n (strictly less than n² since m < n).
        let g_m = BigUint::one().add(&m.mul(&key.n));
        let i = rng.gen_range(0..key.obfuscator_pool.len());
        let j = rng.gen_range(0..key.obfuscator_pool.len());
        // mont(r1ⁿ) · mont(r2ⁿ) → mont(r1ⁿ·r2ⁿ); multiplying the plain g^m by
        // a Montgomery-form value cancels the R factor, yielding the ordinary
        // form ciphertext g^m · rⁿ mod n².
        key.ctx_n2.mont_mul_into(
            &key.obfuscator_pool[i],
            &key.obfuscator_pool[j],
            &mut self.obf,
            &mut self.scratch,
        );
        let mut ct = BigUint::zero();
        key.ctx_n2
            .mont_mul_into(&g_m, &self.obf, &mut ct, &mut self.scratch);
        ct
    }
}

impl std::fmt::Debug for PaillierKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PaillierKey")
            .field("modulus_bits", &self.n.bits())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_key() -> PaillierKey {
        let mut rng = StdRng::seed_from_u64(1234);
        PaillierKey::generate(&mut rng, 256)
    }

    // Keys at several modulus sizes (and thus CRT limb geometries) for the
    // CRT-vs-classic decryption equivalence tests.
    fn sized_keys() -> &'static [PaillierKey] {
        use std::sync::OnceLock;
        static KEYS: OnceLock<Vec<PaillierKey>> = OnceLock::new();
        KEYS.get_or_init(|| {
            [128usize, 192, 320]
                .iter()
                .enumerate()
                .map(|(i, &bits)| {
                    let mut rng = StdRng::seed_from_u64(7000 + i as u64);
                    PaillierKey::generate(&mut rng, bits)
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn crt_decrypt_matches_classic_across_key_sizes(m_bits in 0usize..110, lo in any::<u64>(), seed in any::<u64>()) {
            // A random plaintext of up to m_bits bits (capped below every
            // key's capacity), decrypted by both the CRT and the classic path.
            let mut rng = StdRng::seed_from_u64(seed);
            for key in sized_keys() {
                let bits = m_bits.min(key.plaintext_bits() - 1);
                let m = BigUint::from_u64(lo).rem(&BigUint::one().shl(bits.max(1)));
                let c = key.encrypt(&mut rng, &m);
                prop_assert_eq!(key.decrypt(&c), key.decrypt_classic(&c));
                prop_assert_eq!(key.decrypt(&c), m);
            }
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = test_key();
        let mut rng = StdRng::seed_from_u64(1);
        for m in [0u64, 1, 42, 1_000_000, u64::MAX / 3] {
            let c = key.encrypt_u64(&mut rng, m);
            assert_eq!(key.decrypt_u64(&c), m);
        }
    }

    #[test]
    fn crt_decrypt_matches_classic() {
        let key = test_key();
        let mut rng = StdRng::seed_from_u64(11);
        for m in [0u64, 1, 2, 999_999_937, u64::MAX] {
            let c = key.encrypt_u64(&mut rng, m);
            assert_eq!(key.decrypt(&c), key.decrypt_classic(&c), "m={m}");
        }
        // Also on a large multi-limb plaintext near capacity.
        let big = BigUint::one().shl(key.plaintext_bits() - 1).add_u64(77);
        let c = key.encrypt(&mut rng, &big);
        assert_eq!(key.decrypt(&c), key.decrypt_classic(&c));
        assert_eq!(key.decrypt(&c), big);
    }

    #[test]
    fn batch_encrypt_matches_single() {
        let key = test_key();
        let mut rng = StdRng::seed_from_u64(12);
        let ms: Vec<BigUint> = (0..20u64).map(|i| BigUint::from_u64(i * 31 + 7)).collect();
        let cts = key.batch_encrypt(&mut rng, &ms);
        assert_eq!(cts.len(), ms.len());
        for (m, c) in ms.iter().zip(&cts) {
            assert_eq!(&key.decrypt(c), m);
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let key = test_key();
        let mut rng = StdRng::seed_from_u64(2);
        let a = key.encrypt_u64(&mut rng, 77);
        let b = key.encrypt_u64(&mut rng, 77);
        assert_ne!(a, b);
        assert_eq!(key.decrypt_u64(&a), key.decrypt_u64(&b));
    }

    #[test]
    fn homomorphic_addition() {
        let key = test_key();
        let mut rng = StdRng::seed_from_u64(3);
        let c1 = key.encrypt_u64(&mut rng, 1000);
        let c2 = key.encrypt_u64(&mut rng, 234);
        let sum = key.add_ciphertexts(&c1, &c2);
        assert_eq!(key.decrypt_u64(&sum), 1234);
    }

    #[test]
    fn homomorphic_sum_of_many() {
        let key = test_key();
        let mut rng = StdRng::seed_from_u64(4);
        let values: Vec<u64> = (1..=50).collect();
        let cts: Vec<BigUint> = values
            .iter()
            .map(|&v| key.encrypt_u64(&mut rng, v))
            .collect();
        let sum_ct = key.sum_ciphertexts(&cts);
        assert_eq!(key.decrypt_u64(&sum_ct), values.iter().sum::<u64>());
    }

    #[test]
    fn sum_of_empty_and_single() {
        let key = test_key();
        let mut rng = StdRng::seed_from_u64(13);
        assert_eq!(key.decrypt_u64(&key.sum_ciphertexts([])), 0);
        let c = key.encrypt_u64(&mut rng, 4242);
        assert_eq!(key.decrypt_u64(&key.sum_ciphertexts([&c])), 4242);
    }

    #[test]
    fn plaintext_operations() {
        let key = test_key();
        let mut rng = StdRng::seed_from_u64(5);
        let c = key.encrypt_u64(&mut rng, 10);
        let plus = key.add_plaintext(&c, &BigUint::from_u64(5));
        assert_eq!(key.decrypt_u64(&plus), 15);
        let times = key.mul_plaintext(&c, &BigUint::from_u64(7));
        assert_eq!(key.decrypt_u64(&times), 70);
    }

    #[test]
    fn large_plaintexts_near_capacity() {
        let key = test_key();
        let mut rng = StdRng::seed_from_u64(6);
        let bits = key.plaintext_bits();
        let m = BigUint::one().shl(bits - 1).add_u64(12345);
        let c = key.encrypt(&mut rng, &m);
        assert_eq!(key.decrypt(&c), m);
    }

    #[test]
    fn ciphertext_size_reported() {
        let key = test_key();
        // 256-bit n => 512-bit n² => 64-byte ciphertexts.
        assert_eq!(key.ciphertext_bytes(), 64);
        assert!(key.plaintext_bits() >= 240);
    }
}
