//! The AES-NI rounds of [`super::Aes128`]: the workspace's only `unsafe`.
//!
//! Rust has no safe way to enter a `#[target_feature(enable = "aes")]`
//! function from code compiled without the feature, so each entry below is
//! an `unsafe` call. The obligation is the same at every one: the CPU must
//! have AES-NI. [`NiKeys`] discharges it once, for all of them: it can only
//! be built by [`NiKeys::new`], after `is_x86_feature_detected!("aes")`
//! returned true, and every entry is a method of it.
//!
//! No raw pointers: blocks go in with `_mm_set_epi64x` and come out with
//! `_mm_cvtsi128_si64`, both plain SSE2 value moves.

use super::{BlockFn, BlockJob};
use std::arch::x86_64::{
    __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_aesimc_si128, _mm_cvtsi128_si64, _mm_set_epi64x, _mm_unpackhi_epi64, _mm_xor_si128,
};

/// Round keys in AES-NI registers. Holding one proves the CPU has AES-NI.
#[derive(Clone)]
pub(super) struct NiKeys {
    /// Round keys in encryption order.
    enc: [__m128i; 11],
    /// Round keys of the equivalent inverse cipher, in decryption order.
    dec: [__m128i; 11],
}

impl NiKeys {
    /// Takes the encryption schedule (column words, as the table path
    /// expands it) into registers, or `None` when the CPU lacks AES-NI.
    pub(super) fn new(enc_words: &[[u32; 4]; 11]) -> Option<Self> {
        if !std::is_x86_feature_detected!("aes") {
            return None;
        }
        let enc = enc_words.map(|words| {
            let mut bytes = [0u8; 16];
            super::store(&mut bytes, words);
            u128::from_le_bytes(bytes)
        });
        // SAFETY: AES-NI was detected just above.
        Some(unsafe { expand(&enc) })
    }

    pub(super) fn encrypt_block(&self, block: &mut [u8; 16]) {
        // SAFETY: a `NiKeys` exists only where AES-NI was detected.
        *block = unsafe { encrypt(&self.enc, u128::from_le_bytes(*block)) }.to_le_bytes();
    }

    pub(super) fn decrypt_block(&self, block: &mut [u8; 16]) {
        // SAFETY: a `NiKeys` exists only where AES-NI was detected.
        *block = unsafe { decrypt(&self.dec, u128::from_le_bytes(*block)) }.to_le_bytes();
    }

    /// Runs `job` inside one AES-NI frame, where its blocks inline.
    #[inline]
    pub(super) fn run<J: BlockJob>(&self, job: J) -> J::Output {
        // SAFETY: a `NiKeys` exists only where AES-NI was detected.
        unsafe { run_in_frame(self, job) }
    }
}

impl BlockFn for NiKeys {
    #[inline(always)]
    fn prf_u128(&self, input: u128) -> u128 {
        // The block's bytes are `input` big-endian; a register holds them
        // little-endian.
        // SAFETY: a `NiKeys` exists only where AES-NI was detected.
        unsafe { encrypt(&self.enc, input.swap_bytes()) }.swap_bytes()
    }
}

/// The register whose sixteen bytes are `v`'s, least significant first.
#[target_feature(enable = "aes")]
#[inline]
fn from_le(v: u128) -> __m128i {
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}

/// Inverse of [`from_le`].
#[target_feature(enable = "aes")]
#[inline]
fn to_le(r: __m128i) -> u128 {
    let lo = _mm_cvtsi128_si64(r) as u64;
    let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(r, r)) as u64;
    (u128::from(hi) << 64) | u128::from(lo)
}

/// Both schedules in registers. The decryption one is the equivalent
/// inverse cipher (FIPS-197 §5.3.5): the encryption keys in reverse order,
/// the nine middle ones through InvMixColumns (`aesimc`).
#[target_feature(enable = "aes")]
fn expand(enc: &[u128; 11]) -> NiKeys {
    let mut keys = NiKeys {
        enc: [_mm_set_epi64x(0, 0); 11],
        dec: [_mm_set_epi64x(0, 0); 11],
    };
    for (round, &key) in enc.iter().enumerate() {
        keys.enc[round] = from_le(key);
    }
    keys.dec[0] = keys.enc[10];
    for round in 1..10 {
        keys.dec[round] = _mm_aesimc_si128(keys.enc[10 - round]);
    }
    keys.dec[10] = keys.enc[0];
    keys
}

/// One block, as the little-endian number of its bytes.
#[target_feature(enable = "aes")]
#[inline]
fn encrypt(keys: &[__m128i; 11], block: u128) -> u128 {
    let [first, middle @ .., last] = keys;
    let mut s = _mm_xor_si128(from_le(block), *first);
    for k in middle {
        s = _mm_aesenc_si128(s, *k);
    }
    to_le(_mm_aesenclast_si128(s, *last))
}

#[target_feature(enable = "aes")]
#[inline]
fn decrypt(keys: &[__m128i; 11], block: u128) -> u128 {
    let [first, middle @ .., last] = keys;
    let mut s = _mm_xor_si128(from_le(block), *first);
    for k in middle {
        s = _mm_aesdec_si128(s, *k);
    }
    to_le(_mm_aesdeclast_si128(s, *last))
}

/// The frame [`NiKeys::run`] enters: `job` inlines here, and so do the
/// `encrypt` calls of its blocks, which a caller without the feature could
/// only reach through a call each.
#[target_feature(enable = "aes")]
fn run_in_frame<J: BlockJob>(keys: &NiKeys, job: J) -> J::Output {
    job.run(keys)
}
