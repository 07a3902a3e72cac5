//! Order-preserving encryption (OPE).
//!
//! MONOMI uses OPE for server-side range predicates, MAX/MIN, and ORDER BY
//! (Table 1). The paper uses the Boldyreva et al. construction; this crate
//! substitutes a keyed recursive range-splitting construction with the same
//! interface and the same leakage class (order, plus partial plaintext
//! information): the 64-bit plaintext domain is mapped into a 127-bit
//! ciphertext range by descending a binary tree whose split points are chosen
//! by a PRF, so the mapping is deterministic, strictly monotone, and keyed.
//!
//! Signed values are supported through an order-preserving bias
//! ([`i64_to_ordered_u64`]) so that negative numbers sort before positive ones.

use crate::aes::{Aes128, BlockFn, BlockJob};
use crate::sha256::derive_key;

/// Width of the ciphertext range in bits. Chosen so ciphertexts fit in `u128`
/// with headroom for the expansion the recursive splitting needs.
const RANGE_BITS: u32 = 100;
/// Width of the plaintext domain in bits.
const DOMAIN_BITS: u32 = 64;

/// Keyed order-preserving encryption over `u64` plaintexts.
pub struct OpeCipher {
    aes: Aes128,
}

impl OpeCipher {
    /// Creates the cipher from 16 bytes of key material.
    pub fn new(key: &[u8; 16]) -> Self {
        OpeCipher {
            aes: Aes128::new(key),
        }
    }

    /// The cipher over a given expansion of its key.
    #[cfg(test)]
    fn with_aes(aes: Aes128) -> Self {
        OpeCipher { aes }
    }

    /// Creates the cipher keyed by `master` and `label`.
    pub fn from_master(master: &[u8], label: &str) -> Self {
        let material = derive_key(master, label);
        let mut key = [0u8; 16];
        key.copy_from_slice(&material[..16]);
        Self::new(&key)
    }

    /// Encrypts a plaintext, producing a ciphertext whose numeric order equals
    /// the plaintext order.
    pub fn encrypt(&self, value: u64) -> u128 {
        self.aes.run(Descent { value })
    }

    /// Encrypts a signed value order-preservingly.
    pub fn encrypt_i64(&self, value: i64) -> u128 {
        self.encrypt(i64_to_ordered_u64(value))
    }
}

/// The descent of one plaintext down the split tree: 64 dependent PRF
/// blocks, written once against the block function so that [`Aes128::run`]
/// can run them with the AES rounds inlined.
struct Descent {
    value: u64,
}

impl BlockJob for Descent {
    type Output = u128;

    #[inline(always)]
    fn run<B: BlockFn>(self, aes: &B) -> u128 {
        // Domain [d_lo, d_hi), range [r_lo, r_hi); both half-open.
        let mut d_lo: u128 = 0;
        let mut d_hi: u128 = 1u128 << DOMAIN_BITS;
        let mut r_lo: u128 = 0;
        let mut r_hi: u128 = 1u128 << RANGE_BITS;
        let v = self.value as u128;
        let mut depth: u32 = 0;
        while d_hi - d_lo > 1 {
            let d_mid = d_lo + (d_hi - d_lo) / 2;
            // The range split must leave at least as much room on each side as
            // the corresponding domain half needs.
            let left_need = d_mid - d_lo;
            let right_need = d_hi - d_mid;
            let r_mid_min = r_lo + left_need;
            let r_mid_max = r_hi - right_need;
            debug_assert!(r_mid_min <= r_mid_max);
            let window = r_mid_max - r_mid_min + 1;
            // PRF on the current domain interval (which identifies the tree
            // node independent of the plaintext path taken).
            let prf_in = ((depth as u128) << 96) ^ (d_lo << 32) ^ d_hi;
            let r = aes.prf_u128(prf_in);
            let r_mid = r_mid_min + (r % window);
            if v < d_mid {
                d_hi = d_mid;
                r_hi = r_mid;
            } else {
                d_lo = d_mid;
                r_lo = r_mid;
            }
            depth += 1;
        }
        // Single-value domain interval: its range interval start is the
        // deterministic ciphertext.
        r_lo
    }
}

/// Maps `i64` to `u64` such that the unsigned order of outputs equals the
/// signed order of inputs.
pub fn i64_to_ordered_u64(v: i64) -> u64 {
    (v as u64) ^ (1u64 << 63)
}

/// Inverse of [`i64_to_ordered_u64`].
pub fn ordered_u64_to_i64(v: u64) -> i64 {
    (v ^ (1u64 << 63)) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_preserved_on_sorted_samples() {
        let ope = OpeCipher::from_master(b"master", "lineitem.l_shipdate.OPE");
        let values: Vec<u64> = vec![
            0,
            1,
            2,
            10,
            100,
            1000,
            12345,
            1 << 20,
            1 << 32,
            (1 << 40) + 7,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        let cts: Vec<u128> = values.iter().map(|&v| ope.encrypt(v)).collect();
        for i in 1..cts.len() {
            assert!(cts[i - 1] < cts[i], "order violated at index {i}");
        }
    }

    /// Ciphertexts recorded with the table rounds: every AES path must give
    /// them bit for bit, or stored OPE columns stop comparing.
    #[test]
    fn known_answers_on_every_aes_path() {
        let known: [(u64, u128); 4] = [
            (0, 0),
            (1, 0x2fbe),
            (19_980_802, 0x2fbe_8243_4225),
            (u64::MAX, 0xf_ffff_ffff_ffff_ffff_ffff_ffce),
        ];
        let key = derive_key(b"master", "lineitem.l_shipdate.OPE");
        for aes in Aes128::every_path(key[..16].try_into().unwrap()) {
            let ope = OpeCipher::with_aes(aes);
            for (plain, cipher) in known {
                assert_eq!(ope.encrypt(plain), cipher, "v={plain:#x}");
            }
        }
    }

    #[test]
    fn deterministic_and_keyed() {
        let a = OpeCipher::from_master(b"master", "col.OPE");
        let b = OpeCipher::from_master(b"other-master", "col.OPE");
        assert_eq!(a.encrypt(777), a.encrypt(777));
        assert_ne!(a.encrypt(777), b.encrypt(777));
    }

    #[test]
    fn dense_range_strictly_increasing() {
        let ope = OpeCipher::from_master(b"master", "col.OPE");
        let mut prev = None;
        for v in 1_000_000u64..1_000_300 {
            let c = ope.encrypt(v);
            if let Some(p) = prev {
                assert!(c > p, "v={v}");
            }
            prev = Some(c);
        }
    }

    #[test]
    fn signed_bias_preserves_order() {
        let vals = [i64::MIN, -1_000_000, -1, 0, 1, 42, i64::MAX];
        for w in vals.windows(2) {
            assert!(i64_to_ordered_u64(w[0]) < i64_to_ordered_u64(w[1]));
        }
        for &v in &vals {
            assert_eq!(ordered_u64_to_i64(i64_to_ordered_u64(v)), v);
        }
    }

    #[test]
    fn signed_encryption_order() {
        let ope = OpeCipher::from_master(b"master", "col.OPE");
        let vals = [-5000i64, -1, 0, 3, 10_000];
        let cts: Vec<u128> = vals.iter().map(|&v| ope.encrypt_i64(v)).collect();
        for i in 1..cts.len() {
            assert!(cts[i - 1] < cts[i]);
        }
    }
}
