#![forbid(unsafe_code)]
//! # monomi-store
//!
//! The persistent storage layer under `monomi-engine`: write-once on-disk
//! columnar segments with per-segment zone maps, a crash-safe catalog
//! (manifest), and a byte-budgeted segment cache.
//!
//! The paper's server is disk-resident Postgres (the evaluation flushes
//! caches so queries hit disk); this crate gives the reproduction's engine a
//! real on-disk backend instead of modelling disk time from in-memory byte
//! counts. Design, in one paragraph:
//!
//! * **Segments** ([`segment`]) are write-once files holding a fixed run of
//!   rows, column-major. Each column is stored under the cheapest encoding
//!   its values admit ([`encoding`]): fixed-width for ints/dates/floats,
//!   dictionary for strings and DET ciphertexts (which repeat), raw
//!   length-prefixed bytes for Paillier/RND ciphertexts (which do not), and a
//!   tagged generic fallback for anything mixed. NULLs live in a per-column
//!   bitmap. A CRC-64 trailer detects corruption at read time.
//! * **Zone maps** ([`segment::ZoneMap`]) are computed while a segment is
//!   written: row count plus per-column null count, min, and max (under
//!   [`Value::compare`]'s total order, the same order predicates evaluate
//!   with — which is what makes pruning sound). They are stored in the
//!   manifest so pruning never opens a segment file.
//! * The **manifest** ([`manifest`]) is the catalog: table schemas and their
//!   segment lists. Every mutation rewrites it via write-temp + fsync +
//!   rename, so a killed bulk load leaves either the old or the new table
//!   visible — never a torn one. Orphaned segment files from aborted loads
//!   are swept on open. In memory the catalog is an immutable snapshot that
//!   each commit replaces by swap once it is durable, so a reader never
//!   waits on a writer's I/O ([`Store::snapshot`]).
//! * **Indexes** ([`index`]) are per-segment DET-equality dictionaries and
//!   OPE-ordered postings built while a segment is written and published
//!   through the same manifest commit, giving point and range predicates a
//!   sub-scan access path (`MONOMI_INDEXES` gates which kinds exist).
//! * The **cache** ([`cache`]) holds decoded segments under a byte budget
//!   (`MONOMI_CACHE_BYTES`), evicting least-recently-used; decoded index
//!   files get their own budgeted slot (`MONOMI_INDEX_CACHE_BYTES`).
//!
//! [`store::Store`] ties the pieces together; `monomi-engine`'s tables
//! commit their rows to one when their `Database` has it (`Database::open`,
//! or `MONOMI_STORAGE=disk` for `Database::new`).
//!
//! This crate also homes the engine's runtime [`Value`] model (and
//! [`ColumnType`]): the store must encode values exactly — variant and bit
//! pattern included, so committed rows read back byte-identical to rows
//! still in a table's in-memory tail — which puts the value model at the
//! bottom of the crate DAG. `monomi-engine` re-exports both, so callers are unaffected.

pub mod cache;
pub mod encoding;
pub mod env;
pub mod index;
pub mod manifest;
pub mod segment;
pub mod store;
pub mod value;

pub use cache::{ByteLru, CacheWeight, SegmentCache};
pub use encoding::{put_blob, read_value, write_value, Reader};
pub use env::env_knob;
pub use index::{
    decode_segment_indexes, encode_segment_indexes, planned_index_kind, IndexBlock, IndexKind,
    IndexMode, SegmentIndexes, INDEX_MODE_ENV, INDEX_SELECTIVITY_CROSSOVER,
};
pub use manifest::{IndexMeta, Manifest, SegmentMeta, TableMeta};
pub use segment::{ColumnZone, ZoneMap};
pub use store::{BulkLoad, SegmentData, Store, StoreOptions};
pub use value::{date, Value};

use serde::{Deserialize, Serialize};

/// Logical column types (moved here from `monomi-engine` so the manifest can
/// persist table schemas; the engine re-exports this type unchanged).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnType {
    Int,
    Float,
    Str,
    Date,
    Bytes,
}

impl ColumnType {
    /// Approximate fixed width for the cost model, in bytes (strings and byte
    /// columns use per-value sizes from the data instead).
    pub fn nominal_width(&self) -> usize {
        match self {
            ColumnType::Int => 8,
            ColumnType::Float => 8,
            ColumnType::Date => 4,
            ColumnType::Str => 16,
            ColumnType::Bytes => 16,
        }
    }

    /// Stable one-byte tag used by the on-disk manifest and the wire
    /// protocol.
    pub fn tag(self) -> u8 {
        match self {
            ColumnType::Int => 0,
            ColumnType::Float => 1,
            ColumnType::Str => 2,
            ColumnType::Date => 3,
            ColumnType::Bytes => 4,
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(tag: u8) -> Option<ColumnType> {
        Some(match tag {
            0 => ColumnType::Int,
            1 => ColumnType::Float,
            2 => ColumnType::Str,
            3 => ColumnType::Date,
            4 => ColumnType::Bytes,
            _ => return None,
        })
    }
}

/// Error type for all store operations.
#[derive(Debug)]
pub struct StoreError {
    /// Human-readable description.
    pub message: String,
}

impl StoreError {
    /// Creates an error from anything stringifiable.
    pub fn new(message: impl Into<String>) -> Self {
        StoreError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "store error: {}", self.message)
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::new(format!("io: {e}"))
    }
}

/// CRC-64 (ECMA-182 polynomial, bit-reflected — the `crc64xz` variant) over a
/// byte slice. Used as the corruption check for segment files and the
/// manifest: any single flipped byte is guaranteed to change the checksum.
pub fn crc64(bytes: &[u8]) -> u64 {
    const POLY: u64 = 0xC96C_5795_D787_0F42; // reflected ECMA-182
    static TABLE: std::sync::OnceLock<[u64; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u64; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u64;
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    });
    let mut crc = !0u64;
    for &b in bytes {
        // monomi-lint: allow(panic-freedom): the index is masked with 0xFF, always in range for the 256-entry table
        crc = table[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_detects_any_single_byte_flip() {
        let data = b"monomi segment payload with some length".to_vec();
        let base = crc64(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(base, crc64(&corrupted), "flip at byte {i} bit {bit}");
            }
        }
        // Known-answer check for the crc64xz variant.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn column_type_tags_roundtrip() {
        for ty in [
            ColumnType::Int,
            ColumnType::Float,
            ColumnType::Str,
            ColumnType::Date,
            ColumnType::Bytes,
        ] {
            assert_eq!(ColumnType::from_tag(ty.tag()), Some(ty));
        }
        assert_eq!(ColumnType::from_tag(9), None);
    }
}
