//! PKCS#7 padding for the AES-block-based ciphers (DET bytes and RND),
//! shared so the pad/unpad pair cannot diverge between schemes.

use crate::error::CipherError;

/// Pads `data` to a multiple of 16 bytes; always adds at least one byte.
pub(crate) fn pkcs7_pad(data: &[u8]) -> Vec<u8> {
    let pad_len = 16 - (data.len() % 16);
    let mut out = Vec::with_capacity(data.len() + pad_len);
    out.extend_from_slice(data);
    out.extend(std::iter::repeat_n(pad_len as u8, pad_len));
    out
}

/// Strips PKCS#7 padding in place. What is unpadded was decrypted from bytes
/// the untrusted server sent, so padding that `pkcs7_pad` cannot have written
/// is an error to return.
pub(crate) fn pkcs7_unpad(mut data: Vec<u8>) -> Result<Vec<u8>, CipherError> {
    let pad_len = usize::from(*data.last().ok_or(CipherError::Padding)?);
    if !(1..=16).contains(&pad_len) || pad_len > data.len() {
        return Err(CipherError::Padding);
    }
    let body = data.len() - pad_len;
    if data[body..].iter().any(|&b| usize::from(b) != pad_len) {
        return Err(CipherError::Padding);
    }
    data.truncate(body);
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_all_lengths() {
        for len in 0..=48 {
            let data: Vec<u8> = (0..len as u8).collect();
            let padded = pkcs7_pad(&data);
            assert_eq!(padded.len() % 16, 0);
            assert!(padded.len() > data.len(), "padding must always add bytes");
            assert_eq!(pkcs7_unpad(padded), Ok(data));
        }
    }

    #[test]
    fn rejects_invalid_padding() {
        for bad in [
            vec![],
            vec![0u8; 16],
            vec![17u8; 16],
            // Says 3, but only the last byte is a 3.
            [vec![7u8; 15], vec![3u8]].concat(),
            // Says 5, from a 4-byte buffer.
            vec![5u8; 4],
        ] {
            assert_eq!(pkcs7_unpad(bad), Err(CipherError::Padding));
        }
    }
}
