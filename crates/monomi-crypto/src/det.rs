//! Deterministic encryption.
//!
//! MONOMI uses deterministic encryption (DET) for equality predicates, GROUP BY
//! keys, and equi-joins: equal plaintexts map to equal ciphertexts, revealing
//! duplicates but nothing else (Table 1 of the paper).
//!
//! Two constructions are provided, mirroring the paper's space-efficient
//! encryption (§5.2):
//!
//! * [`FormatPreservingCipher`] — an FFX-style balanced Feistel network over an
//!   `n`-bit integer domain, producing `n`-bit ciphertexts for `n ≤ 64`. This is
//!   what keeps small integer columns (dates, flags, extracted years) from
//!   blowing up to a full AES block.
//! * [`DetBytes`] — a CMC-style two-pass deterministic wide-block mode for byte
//!   strings (used for VARCHAR columns), padded to the AES block size.

use crate::aes::{Aes128, BlockFn, BlockJob};
use crate::error::CipherError;
use crate::padding::{pkcs7_pad, pkcs7_unpad};
use crate::sha256::derive_key;

/// Number of Feistel rounds for the format-preserving cipher. NIST recommends
/// at least 8 for FFX-like constructions; we use 10.
const FEISTEL_ROUNDS: usize = 10;

/// FFX-style format-preserving deterministic cipher over `[0, 2^bits)`.
pub struct FormatPreservingCipher {
    aes: Aes128,
    bits: u32,
    left_bits: u32,
    right_bits: u32,
}

impl FormatPreservingCipher {
    /// Creates a cipher over a `bits`-wide binary domain (2 ≤ bits ≤ 64).
    pub fn new(key: &[u8; 16], bits: u32) -> Self {
        Self::with_aes(Aes128::new(key), bits)
    }

    fn with_aes(aes: Aes128, bits: u32) -> Self {
        assert!((2..=64).contains(&bits), "domain width must be in [2, 64]");
        let left_bits = bits / 2;
        let right_bits = bits - left_bits;
        FormatPreservingCipher {
            aes,
            bits,
            left_bits,
            right_bits,
        }
    }

    /// Creates a cipher keyed by a label derived from 32-byte key material.
    pub fn from_key_material(material: &[u8; 32], bits: u32) -> Self {
        let mut key = [0u8; 16];
        key.copy_from_slice(&material[..16]);
        Self::new(&key, bits)
    }

    /// The domain width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Deterministically encrypts `value`, which must be `< 2^bits`.
    pub fn encrypt(&self, value: u64) -> u64 {
        self.check_domain(value);
        self.aes.run(Feistel {
            cipher: self,
            value,
            decrypt: false,
        })
    }

    /// Inverts [`encrypt`](Self::encrypt).
    pub fn decrypt(&self, value: u64) -> u64 {
        self.check_domain(value);
        self.aes.run(Feistel {
            cipher: self,
            value,
            decrypt: true,
        })
    }

    fn check_domain(&self, value: u64) {
        if self.bits < 64 {
            assert!(
                value < (1u64 << self.bits),
                "value {value} out of domain for {}-bit FPE",
                self.bits
            );
        }
    }
}

/// The Feistel network, one direction of it over one value. It is written
/// once against the block function, so that [`Aes128::run`] can run all ten
/// rounds with the AES rounds inlined.
struct Feistel<'a> {
    cipher: &'a FormatPreservingCipher,
    value: u64,
    decrypt: bool,
}

impl BlockJob for Feistel<'_> {
    type Output = u64;

    #[inline(always)]
    fn run<B: BlockFn>(self, aes: &B) -> u64 {
        let FormatPreservingCipher {
            left_bits,
            right_bits,
            ..
        } = *self.cipher;
        let right_mask = mask(right_bits);
        let left_mask = mask(left_bits);
        // Round function: the PRF of (round, half), cut to the other half's
        // width.
        let round_fn = |round: u32, half: u64, out_mask: u64| {
            (aes.prf_u128((u128::from(round) << 64) | u128::from(half)) as u64) & out_mask
        };
        let mut left = self.value >> right_bits;
        let mut right = self.value & right_mask;
        for step in 0..FEISTEL_ROUNDS as u32 {
            let round = if self.decrypt {
                FEISTEL_ROUNDS as u32 - 1 - step
            } else {
                step
            };
            if round % 2 == 0 {
                // Modify left using right.
                left ^= round_fn(round, right, left_mask);
            } else {
                right ^= round_fn(round, left, right_mask);
            }
        }
        (left << right_bits) | right
    }
}

fn mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// CMC-style deterministic encryption of byte strings.
///
/// Two CBC passes (forward with a zero IV, then backward) make every output
/// byte depend on every input byte, so the construction behaves like a wide
/// tweakable block cipher: deterministic, equal inputs give equal outputs, and
/// no per-row IV is stored. Inputs are padded (PKCS#7) to the 16-byte block
/// size, so a ciphertext is `ceil((len+1)/16) * 16` bytes.
pub struct DetBytes {
    aes1: Aes128,
    aes2: Aes128,
}

impl DetBytes {
    /// Creates the cipher from 32 bytes of key material (two AES keys).
    pub fn new(material: &[u8; 32]) -> Self {
        let mut k1 = [0u8; 16];
        let mut k2 = [0u8; 16];
        k1.copy_from_slice(&material[..16]);
        k2.copy_from_slice(&material[16..]);
        DetBytes {
            aes1: Aes128::new(&k1),
            aes2: Aes128::new(&k2),
        }
    }

    /// The cipher over the given expansions of its two keys.
    #[cfg(test)]
    fn with_aes(aes1: Aes128, aes2: Aes128) -> Self {
        DetBytes { aes1, aes2 }
    }

    /// Creates the cipher keyed by `master` and `label`.
    pub fn from_master(master: &[u8], label: &str) -> Self {
        Self::new(&derive_key(master, label))
    }

    /// Deterministically encrypts `plaintext`.
    pub fn encrypt(&self, plaintext: &[u8]) -> Vec<u8> {
        let mut data = pkcs7_pad(plaintext);
        let nblocks = data.len() / 16;
        // Pass 1: CBC forward with zero IV under key 1.
        for b in 0..nblocks {
            let (block, prev) = block_and_previous(&mut data, b);
            if let Some(prev) = prev {
                xor_into(block, prev);
            }
            self.aes1.encrypt_block(block);
        }
        // Pass 2: CBC backward under key 2.
        for b in (0..nblocks).rev() {
            let (block, next) = block_and_next(&mut data, b);
            if let Some(next) = next {
                xor_into(block, next);
            }
            self.aes2.encrypt_block(block);
        }
        data
    }

    /// Decrypts a ciphertext produced by [`encrypt`](Self::encrypt). Any
    /// other bytes — a length that is not a positive multiple of the block
    /// size, or blocks that do not decrypt to padded data — are an error.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CipherError> {
        if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(16) {
            return Err(CipherError::Length {
                scheme: "DET",
                len: ciphertext.len(),
            });
        }
        let mut data = ciphertext.to_vec();
        let nblocks = data.len() / 16;
        // Undo pass 2 front to back: the next block is still ciphertext.
        for b in 0..nblocks {
            let (block, next) = block_and_next(&mut data, b);
            self.aes2.decrypt_block(block);
            if let Some(next) = next {
                xor_into(block, next);
            }
        }
        // Undo pass 1 back to front: the previous block is still pass-1
        // ciphertext.
        for b in (0..nblocks).rev() {
            let (block, prev) = block_and_previous(&mut data, b);
            self.aes1.decrypt_block(block);
            if let Some(prev) = prev {
                xor_into(block, prev);
            }
        }
        pkcs7_unpad(data)
    }
}

/// Block `b` of `data`, mutable, with the block after it (none for the last).
fn block_and_next(data: &mut [u8], b: usize) -> (&mut [u8; 16], Option<&[u8; 16]>) {
    let (block, rest) = data[b * 16..]
        .split_first_chunk_mut()
        .expect("data is whole blocks");
    (block, rest.first_chunk())
}

/// Block `b` of `data`, mutable, with the block before it (none for the first).
fn block_and_previous(data: &mut [u8], b: usize) -> (&mut [u8; 16], Option<&[u8; 16]>) {
    let (before, rest) = data.split_at_mut(b * 16);
    let block = rest.first_chunk_mut().expect("data is whole blocks");
    (block, before.last_chunk())
}

fn xor_into(block: &mut [u8; 16], other: &[u8; 16]) {
    for (b, o) in block.iter_mut().zip(other) {
        *b ^= o;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fpe_roundtrip_various_widths() {
        for bits in [2u32, 8, 13, 16, 31, 32, 33, 48, 63, 64] {
            let fpe = FormatPreservingCipher::new(b"fpe-test-key-016", bits);
            let max = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            for v in [0u64, 1, 2, max / 3, max / 2, max] {
                let c = fpe.encrypt(v);
                if bits < 64 {
                    assert!(c < (1u64 << bits), "ciphertext escapes domain");
                }
                assert_eq!(fpe.decrypt(c), v, "bits={bits} v={v}");
            }
        }
    }

    /// Ciphertexts recorded with the table rounds: every AES path must give
    /// them bit for bit, or stored DET columns stop decrypting.
    #[test]
    fn fpe_known_answers_on_every_aes_path() {
        let known: [(u32, u64, u64); 8] = [
            (64, 0, 0xa133_4bc9_4866_ecd9),
            (64, 1, 0x9f28_58e5_7e7e_17ba),
            (64, 0x0123_4567_89ab_cdef, 0x70e5_1e3f_3050_1d64),
            (64, u64::MAX, 0x095a_a408_fff5_598e),
            (32, 0, 0xe2f0_9fd8),
            (32, 1, 0xed87_24e3),
            (32, 19_980_802, 0x4414_540d),
            (32, u64::from(u32::MAX), 0xc213_4c6b),
        ];
        for aes in Aes128::every_path(b"fpe-test-key-016") {
            for (bits, plain, cipher) in known {
                let fpe = FormatPreservingCipher::with_aes(aes.clone(), bits);
                assert_eq!(fpe.encrypt(plain), cipher, "bits={bits} v={plain:#x}");
                assert_eq!(fpe.decrypt(cipher), plain, "bits={bits} v={plain:#x}");
            }
        }
    }

    #[test]
    fn det_bytes_known_answers_on_every_aes_path() {
        let known: [(&[u8], &str); 2] = [
            (b"AIR", "f757021792c6fb0b37d7798e64e13a6f"),
            (
                b"this is a longer string spanning multiple aes blocks for cmc mode",
                "de63dc35e5bd23acc96c110525b94aaef053c2fe6b63e01711c2845efa2e087c\
                 8049dca7a87b17480fdf3d7b1ef40562890e7a0e07b704eacdbadb4a6a8e4202\
                 4c5a4ad3f70a7eaf165dc2e50a3b3128",
            ),
        ];
        let material = derive_key(b"master", "t.c.DET");
        let (k1, k2) = material.split_at(16);
        let paths1 = Aes128::every_path(k1.try_into().unwrap());
        let paths2 = Aes128::every_path(k2.try_into().unwrap());
        for (aes1, aes2) in paths1.into_iter().zip(paths2) {
            let det = DetBytes::with_aes(aes1, aes2);
            for (plain, cipher) in known {
                let ct = det.encrypt(plain);
                let hex: String = ct.iter().map(|b| format!("{b:02x}")).collect();
                assert_eq!(hex, cipher);
                assert_eq!(det.decrypt(&ct).unwrap(), plain);
            }
        }
    }

    #[test]
    fn fpe_is_deterministic_and_keyed() {
        let a = FormatPreservingCipher::new(b"fpe-test-key-01A", 32);
        let b = FormatPreservingCipher::new(b"fpe-test-key-01B", 32);
        assert_eq!(a.encrypt(12345), a.encrypt(12345));
        assert_ne!(a.encrypt(12345), b.encrypt(12345));
    }

    #[test]
    fn fpe_no_trivial_collisions() {
        let fpe = FormatPreservingCipher::new(b"fpe-test-key-016", 24);
        let mut seen = std::collections::HashSet::new();
        for v in 0u64..2000 {
            assert!(seen.insert(fpe.encrypt(v)), "collision at {v}");
        }
    }

    #[test]
    #[should_panic]
    fn fpe_rejects_out_of_domain() {
        let fpe = FormatPreservingCipher::new(b"fpe-test-key-016", 8);
        fpe.encrypt(256);
    }

    #[test]
    fn det_bytes_roundtrip() {
        let det = DetBytes::from_master(b"master", "t.c.DET");
        for msg in [
            b"".as_slice(),
            b"a",
            b"hello world",
            b"exactly sixteen!",
            b"this is a longer string spanning multiple aes blocks for cmc mode",
        ] {
            let ct = det.encrypt(msg);
            assert_eq!(ct.len() % 16, 0);
            assert_eq!(det.decrypt(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn det_bytes_deterministic_and_all_blocks_depend_on_input() {
        let det = DetBytes::from_master(b"master", "t.c.DET");
        let a = det.encrypt(b"shipping mode AIR and some filler text..........");
        let b = det.encrypt(b"shipping mode AIR and some filler text..........");
        assert_eq!(a, b);
        // Flipping the last byte must change the first ciphertext block
        // (wide-block property), unlike plain CBC.
        let c = det.encrypt(b"shipping mode AIR and some filler text.........!");
        assert_ne!(a[..16], c[..16]);
    }

    #[test]
    fn det_bytes_equal_inputs_only() {
        let det = DetBytes::from_master(b"master", "t.c.DET");
        assert_ne!(det.encrypt(b"AIR"), det.encrypt(b"RAIL"));
    }

    #[test]
    fn malformed_ciphertexts_are_errors_not_panics() {
        let det = DetBytes::from_master(b"master", "t.c.DET");
        let ct = det.encrypt(b"a value spanning more than one aes block");
        for len in [0, 1, 15, 17, ct.len() - 1] {
            assert_eq!(
                det.decrypt(&ct[..len]),
                Err(CipherError::Length { scheme: "DET", len })
            );
        }
        // Whole blocks that are not a ciphertext of this key: the backward
        // pass chains from the last block, so cutting it off garbles the rest.
        assert_eq!(det.decrypt(&ct[..ct.len() - 16]), Err(CipherError::Padding));
        let other = DetBytes::from_master(b"master", "t.other.DET");
        assert_eq!(other.decrypt(&ct), Err(CipherError::Padding));
    }
}
