//! The error a cipher returns for bytes it could not have produced.
//!
//! Ciphertexts reach the trusted client from the untrusted server, so a
//! malformed one is an input error to report, never a reason to panic.

/// Why a ciphertext was rejected before or after decryption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CipherError {
    /// The ciphertext's length is one the scheme never produces.
    Length {
        /// Scheme that rejected it.
        scheme: &'static str,
        /// Length in bytes of what arrived.
        len: usize,
    },
    /// The decrypted blocks do not end in valid PKCS#7 padding: the
    /// ciphertext was corrupted or encrypted under another key.
    Padding,
}

impl std::fmt::Display for CipherError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CipherError::Length { scheme, len } => {
                write!(f, "{len} bytes is not a valid {scheme} ciphertext length")
            }
            CipherError::Padding => write!(f, "invalid padding after decryption"),
        }
    }
}

impl std::error::Error for CipherError {}
