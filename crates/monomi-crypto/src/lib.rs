//! # monomi-crypto
//!
//! The encryption schemes used by MONOMI (Tu et al., VLDB 2013) to execute
//! analytical SQL over encrypted data on an untrusted server, implemented from
//! scratch on top of [`monomi_math`].
//!
//! The schemes mirror Table 1 of the paper:
//!
//! | Scheme | Module | Server-side operations enabled | Leakage |
//! |--------|--------|-------------------------------|---------|
//! | Randomized (RND) | [`rnd`] | none | none |
//! | Deterministic (DET) | [`det`] | equality, `IN`, `GROUP BY`, equi-join | duplicates |
//! | Order-preserving (OPE) | [`ope`] | comparisons, `MAX`/`MIN`, `ORDER BY` | order (+ partial plaintext) |
//! | Paillier (HOM) | [`paillier`], [`packing`] | `SUM`, `AVG` | none |
//! | SEARCH | [`search`] | `LIKE '%kw%'` | which rows match a searched keyword |
//!
//! Key management (one derived key per table/column/scheme) lives in [`keys`].

pub mod aes;
pub mod det;
pub mod error;
pub mod keys;
pub mod ope;
pub mod packing;
pub(crate) mod padding;
pub mod paillier;
pub mod rnd;
pub mod search;
pub mod sha256;

pub use aes::Aes128;
pub use det::{DetBytes, FormatPreservingCipher};
pub use error::CipherError;
pub use keys::MasterKey;
pub use ope::{i64_to_ordered_u64, ordered_u64_to_i64, OpeCipher};
pub use packing::{PackedEncryptor, PackingLayout};
pub use paillier::{PaillierEncryptSession, PaillierKey, PaillierSum};
pub use rnd::RndCipher;
pub use search::{SearchCiphertext, SearchScheme, SearchToken};
