//! Randomized (semantically secure) encryption: AES in CBC mode with a random
//! IV. This is MONOMI's strongest scheme — ciphertexts reveal nothing but their
//! length — and is used for columns that never need server-side computation.

use crate::aes::Aes128;
use crate::error::CipherError;
use crate::padding::{pkcs7_pad, pkcs7_unpad};
use crate::sha256::derive_key;
use rand::Rng;

/// AES-128-CBC with a random IV prepended to the ciphertext.
pub struct RndCipher {
    aes: Aes128,
}

impl RndCipher {
    /// Creates the cipher from 16 bytes of key material.
    pub fn new(key: &[u8; 16]) -> Self {
        RndCipher {
            aes: Aes128::new(key),
        }
    }

    /// The cipher over a given expansion of its key.
    #[cfg(test)]
    fn with_aes(aes: Aes128) -> Self {
        RndCipher { aes }
    }

    /// Creates the cipher keyed by `master` and `label`.
    pub fn from_master(master: &[u8], label: &str) -> Self {
        let material = derive_key(master, label);
        let mut key = [0u8; 16];
        key.copy_from_slice(&material[..16]);
        Self::new(&key)
    }

    /// Encrypts `plaintext` with a fresh random IV. Output layout is
    /// `IV (16 bytes) || CBC ciphertext`.
    pub fn encrypt<R: Rng + ?Sized>(&self, rng: &mut R, plaintext: &[u8]) -> Vec<u8> {
        let mut iv = [0u8; 16];
        rng.fill(&mut iv);
        self.encrypt_with_iv(&iv, plaintext)
    }

    /// Encrypts with a caller-supplied IV. Exposed for deterministic tests.
    pub fn encrypt_with_iv(&self, iv: &[u8; 16], plaintext: &[u8]) -> Vec<u8> {
        let mut data = pkcs7_pad(plaintext);
        let mut prev = *iv;
        for chunk in data.chunks_exact_mut(16) {
            for i in 0..16 {
                chunk[i] ^= prev[i];
            }
            let mut block = [0u8; 16];
            block.copy_from_slice(chunk);
            self.aes.encrypt_block(&mut block);
            chunk.copy_from_slice(&block);
            prev = block;
        }
        let mut out = iv.to_vec();
        out.extend_from_slice(&data);
        out
    }

    /// Decrypts a ciphertext produced by [`encrypt`](Self::encrypt). Any
    /// other bytes — shorter than IV plus one block, not whole blocks, or not
    /// decrypting to padded data — are an error.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CipherError> {
        let Some((iv, body)) = ciphertext
            .split_first_chunk::<16>()
            .filter(|(_, body)| !body.is_empty() && body.len().is_multiple_of(16))
        else {
            return Err(CipherError::Length {
                scheme: "RND",
                len: ciphertext.len(),
            });
        };
        let mut out = body.to_vec();
        let mut prev = iv;
        for (block, cblock) in out.chunks_exact_mut(16).zip(body.chunks_exact(16)) {
            let block: &mut [u8; 16] = block.try_into().expect("chunks are 16 bytes");
            self.aes.decrypt_block(block);
            for (b, p) in block.iter_mut().zip(prev) {
                *b ^= p;
            }
            prev = cblock.try_into().expect("chunks are 16 bytes");
        }
        pkcs7_unpad(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip() {
        let mut rng = StdRng::seed_from_u64(42);
        let rnd = RndCipher::from_master(b"master", "orders.o_comment.RND");
        for msg in [
            b"".as_slice(),
            b"x",
            b"sensitive comment about a customer order",
        ] {
            let ct = rnd.encrypt(&mut rng, msg);
            assert_eq!(rnd.decrypt(&ct).unwrap(), msg);
        }
    }

    /// A ciphertext recorded with the table rounds: every AES path must give
    /// it bit for bit.
    #[test]
    fn known_answer_on_every_aes_path() {
        let iv: [u8; 16] = std::array::from_fn(|i| i as u8 * 17);
        let plain = b"sensitive comment about a customer order";
        let known = "00112233445566778899aabbccddeefff277cc1b796a70f725bdbb3f7a74237e\
                     e0f54c2063a4291ac2dd97ccc7ec35c8c9c45465b0c16cc9a27f5742a9704b4a";
        let key = derive_key(b"master", "orders.o_comment.RND");
        for aes in Aes128::every_path(key[..16].try_into().unwrap()) {
            let rnd = RndCipher::with_aes(aes);
            let ct = rnd.encrypt_with_iv(&iv, plain);
            let hex: String = ct.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, known);
            assert_eq!(rnd.decrypt(&ct).unwrap(), plain);
        }
    }

    #[test]
    fn randomized_ciphertexts_differ() {
        let mut rng = StdRng::seed_from_u64(43);
        let rnd = RndCipher::from_master(b"master", "c");
        let a = rnd.encrypt(&mut rng, b"same plaintext");
        let b = rnd.encrypt(&mut rng, b"same plaintext");
        assert_ne!(a, b);
        assert_eq!(rnd.decrypt(&a).unwrap(), rnd.decrypt(&b).unwrap());
    }

    #[test]
    fn ciphertext_length_is_iv_plus_padded_blocks() {
        let mut rng = StdRng::seed_from_u64(44);
        let rnd = RndCipher::from_master(b"master", "c");
        assert_eq!(rnd.encrypt(&mut rng, b"").len(), 32);
        assert_eq!(rnd.encrypt(&mut rng, &[0u8; 15]).len(), 32);
        assert_eq!(rnd.encrypt(&mut rng, &[0u8; 16]).len(), 48);
    }

    #[test]
    fn malformed_ciphertexts_are_errors_not_panics() {
        let mut rng = StdRng::seed_from_u64(45);
        let rnd = RndCipher::from_master(b"master", "c");
        let ct = rnd.encrypt(&mut rng, b"a payload longer than one block....");
        // Empty, IV only, a cut inside a block, one byte short.
        for len in [0, 15, 16, 31, 33, ct.len() - 1] {
            assert_eq!(
                rnd.decrypt(&ct[..len]),
                Err(CipherError::Length { scheme: "RND", len })
            );
        }
        // Whole blocks, wrong key: the last block is not padding.
        let other = RndCipher::from_master(b"master", "d");
        assert_eq!(other.decrypt(&ct), Err(CipherError::Padding));
        // Dropping the last block cuts the padding off.
        assert_eq!(rnd.decrypt(&ct[..ct.len() - 16]), Err(CipherError::Padding));
    }
}
