//! Per-segment encrypted secondary indexes.
//!
//! MONOMI stores DET and OPE columns precisely so the untrusted server can
//! evaluate equality and range predicates over ciphertexts; this module gives
//! those predicates a sub-scan access path. At segment-encode time the store
//! builds, per eligible column, a sorted postings index:
//!
//! * **DET-equality dictionary** — sorted distinct DET ciphertexts, each with
//!   the ascending row ids where it occurs. Serves `=` / `IN` probes by
//!   binary search, exactly the lookup the paper's design allows a keyless
//!   server to run (ciphertext equality is all it needs).
//! * **OPE-ordered index** — the same layout over an order-preserving
//!   column: because OPE ciphertexts sort like their plaintexts, a range
//!   probe is two binary searches plus a postings union.
//!
//! Both kinds share one physical format; [`IndexKind`] records which probes
//! a block may serve. All blocks of one segment live in a single `.idx` file:
//!
//! ```text
//! [magic "MIDX" | version u32 | block_count u32]
//! per block:
//!   [column name blob | kind u8 | rows u32 | key_count u32]
//!   [key_count values, sorted ascending under Value::compare, no NULLs]
//!   [key_count postings lists: count u32, then `count` ascending row-id u32s]
//! [crc64 of everything above, u64 LE]
//! ```
//!
//! NULL rows are never indexed: SQL comparison predicates are never true of
//! NULL, so their absence cannot drop a matching row. The engine seeds a
//! segment's selection vector from probe results and still evaluates every
//! compiled predicate over the survivors, which makes the index an
//! *accelerator, not an oracle*: a missing or corrupted index (typed error,
//! never a panic) simply falls back to the full zone-mapped scan with
//! byte-identical results.
//!
//! Leakage note: a persisted index materializes the equality histogram (DET)
//! or total order (OPE) of a column at finer grain than the ciphertexts
//! alone reveal at rest. Columns can opt out at `CREATE TABLE` time (the
//! manifest's `unindexed` list) and whole kinds via `MONOMI_INDEXES`.

use crate::encoding::{put_blob, read_value, write_value, Reader};
use crate::value::Value;
use crate::{crc64, ColumnType, StoreError};

const MAGIC: &[u8; 4] = b"MIDX";
const VERSION: u32 = 1;

/// What a persisted index block can serve.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Equality dictionary over a DET ciphertext column: `=` / `IN`.
    Det,
    /// Ordered index over an OPE (or plaintext) column: `=` / `IN` / ranges.
    Ope,
}

impl IndexKind {
    /// Stable one-byte tag used by the on-disk manifest and index files.
    pub fn tag(self) -> u8 {
        match self {
            IndexKind::Det => 0,
            IndexKind::Ope => 1,
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(tag: u8) -> Option<IndexKind> {
        Some(match tag {
            0 => IndexKind::Det,
            1 => IndexKind::Ope,
            _ => return None,
        })
    }
}

/// Which index kinds are enabled (`MONOMI_INDEXES=off|det|ope|all`).
///
/// Gates both *building* (store-side, at segment encode) and *probing*
/// (engine-side, at plan time), so `off` also measures the pure scan path
/// over data that happens to carry indexes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IndexMode {
    /// Build and probe nothing.
    Off,
    /// DET equality dictionaries only.
    Det,
    /// OPE ordered indexes only.
    Ope,
    /// Both kinds (the default).
    #[default]
    All,
}

impl IndexMode {
    /// Reads `MONOMI_INDEXES`, defaulting to [`IndexMode::All`].
    pub fn from_env() -> IndexMode {
        crate::env_knob("MONOMI_INDEXES", IndexMode::All, |_| true)
    }

    /// Whether this mode enables indexes of `kind`.
    pub fn allows(self, kind: IndexKind) -> bool {
        match self {
            IndexMode::Off => false,
            IndexMode::Det => kind == IndexKind::Det,
            IndexMode::Ope => kind == IndexKind::Ope,
            IndexMode::All => true,
        }
    }
}

impl std::str::FromStr for IndexMode {
    type Err = String;

    fn from_str(s: &str) -> Result<IndexMode, String> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "off" => IndexMode::Off,
            "det" => IndexMode::Det,
            "ope" => IndexMode::Ope,
            "all" => IndexMode::All,
            other => return Err(format!("unknown index mode {other:?}")),
        })
    }
}

impl std::fmt::Display for IndexMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IndexMode::Off => "off",
            IndexMode::Det => "det",
            IndexMode::Ope => "ope",
            IndexMode::All => "all",
        })
    }
}

/// Fraction of a table a probed conjunct may be estimated to select before a
/// full vectorized scan is considered cheaper than gathering and intersecting
/// postings. Probing is only a win when the seed it produces is small: every
/// compiled predicate still runs over the seeded rows, so a low-selectivity
/// probe pays the posting fetch *and* nearly the whole column pass. The
/// engine's scan planner applies it; `monomi-core`'s cost model prices access
/// paths against the same value, so estimates and execution pick the same
/// path.
pub const INDEX_SELECTIVITY_CROSSOVER: f64 = 0.25;

/// The index kind a column would get by naming convention, before the
/// per-table opt-out list and [`IndexMode`] gating are applied.
///
/// The encrypted-schema convention names columns `<base>_<scheme>`:
/// `_det` columns admit equality dictionaries, `_ope` columns admit ordered
/// indexes, while `_hom` / `_rnd` / `_search` ciphertexts reveal nothing a
/// keyless server could probe. Unsuffixed (plaintext) columns get an ordered
/// index — except `Bytes` columns, which are ciphertext blobs in practice.
pub fn planned_index_kind(column: &str, ty: ColumnType) -> Option<IndexKind> {
    let lower = column.to_ascii_lowercase();
    if lower.ends_with("_hom") || lower.ends_with("_rnd") || lower.ends_with("_search") {
        return None;
    }
    if lower.ends_with("_det") {
        return Some(IndexKind::Det);
    }
    if lower.ends_with("_ope") {
        return Some(IndexKind::Ope);
    }
    match ty {
        ColumnType::Bytes => None,
        _ => Some(IndexKind::Ope),
    }
}

/// One column's index within a segment: sorted distinct keys with ascending
/// row-id postings in CSR layout.
#[derive(Debug)]
pub struct IndexBlock {
    /// Schema column name this block indexes.
    pub column: String,
    /// Which probes this block may serve.
    pub kind: IndexKind,
    /// Rows in the indexed segment (NULL rows are absent from postings).
    pub rows: u32,
    /// Distinct non-null keys, strictly ascending under `Value::compare`.
    keys: Vec<Value>,
    /// CSR offsets into `row_ids`, length `keys.len() + 1`.
    starts: Vec<u32>,
    /// Concatenated postings; ascending within each key's run.
    row_ids: Vec<u32>,
}

impl IndexBlock {
    /// Distinct keys in this block.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Indexed (non-null) rows in this block.
    pub fn posting_count(&self) -> usize {
        self.row_ids.len()
    }

    fn postings_at(&self, key_idx: usize) -> &[u32] {
        let (Some(&start), Some(&end)) = (self.starts.get(key_idx), self.starts.get(key_idx + 1))
        else {
            return &[];
        };
        self.row_ids
            .get(start as usize..end as usize)
            .unwrap_or(&[])
    }

    /// Ascending row ids whose value equals `v` under `Value::compare`
    /// (empty for NULL: equality is never true of NULL).
    pub fn postings_eq(&self, v: &Value) -> &[u32] {
        if v.is_null() {
            return &[];
        }
        match self.keys.binary_search_by(|k| k.compare(v)) {
            Ok(i) => self.postings_at(i),
            Err(_) => &[],
        }
    }

    /// Ascending row ids whose value equals any member of `values` (NULL
    /// members are ignored, matching SQL `IN` semantics).
    pub fn postings_in(&self, values: &[Value]) -> Vec<u32> {
        let mut out = Vec::new();
        for v in values {
            out.extend_from_slice(self.postings_eq(v));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Ascending row ids whose value lies in the given range; each bound is
    /// `(value, inclusive)`, `None` meaning unbounded on that side.
    pub fn postings_range(
        &self,
        low: Option<(&Value, bool)>,
        high: Option<(&Value, bool)>,
    ) -> Vec<u32> {
        let lo = match low {
            None => 0,
            Some((v, inclusive)) => self.keys.partition_point(|k| match k.compare(v) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => !inclusive,
                std::cmp::Ordering::Greater => false,
            }),
        };
        let hi = match high {
            None => self.keys.len(),
            Some((v, inclusive)) => self.keys.partition_point(|k| match k.compare(v) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => inclusive,
                std::cmp::Ordering::Greater => false,
            }),
        };
        let mut out = Vec::new();
        for i in lo..hi {
            out.extend_from_slice(self.postings_at(i));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn heap_bytes(&self) -> usize {
        self.column.len()
            + self.keys.iter().map(|v| v.size_bytes()).sum::<usize>()
            + self.starts.len() * 4
            + self.row_ids.len() * 4
            + std::mem::size_of::<IndexBlock>()
    }
}

/// All index blocks of one segment, decoded; blocks are sorted by column
/// name so lookup is a binary search (and iteration order is deterministic).
#[derive(Debug)]
pub struct SegmentIndexes {
    blocks: Vec<IndexBlock>,
    /// Approximate decoded size, for the cache budget.
    pub heap_bytes: usize,
}

impl SegmentIndexes {
    /// The block indexing `column`, if one was built.
    pub fn block(&self, column: &str) -> Option<&IndexBlock> {
        self.blocks
            .binary_search_by(|b| b.column.as_str().cmp(column))
            .ok()
            .and_then(|i| self.blocks.get(i))
    }

    /// All blocks, sorted by column name.
    pub fn blocks(&self) -> &[IndexBlock] {
        &self.blocks
    }
}

/// An encoded per-segment index file, ready to write.
pub struct EncodedIndexes {
    /// The full file image, CRC-64 trailer included.
    pub bytes: Vec<u8>,
    /// The trailer checksum, recorded in the manifest.
    pub checksum: u64,
    /// `(column, kind)` of every block, in file order (sorted by column).
    pub columns: Vec<(String, IndexKind)>,
}

/// Builds the index file image for one segment, or `None` when no column is
/// eligible (empty segment, every column opted out, or `mode` is `off`).
///
/// `schema` and `columns` are parallel; `unindexed` is the table's opt-out
/// list of column names.
pub fn encode_segment_indexes(
    schema: &[(String, ColumnType)],
    unindexed: &[String],
    mode: IndexMode,
    columns: &[Vec<Value>],
) -> Option<EncodedIndexes> {
    let rows = columns.first().map(|c| c.len()).unwrap_or(0);
    if rows == 0 || rows > u32::MAX as usize {
        return None;
    }
    let mut eligible: Vec<(usize, &str, IndexKind)> = Vec::new();
    for (i, (name, ty)) in schema.iter().enumerate() {
        if unindexed.iter().any(|u| u == name) {
            continue;
        }
        let Some(kind) = planned_index_kind(name, *ty) else {
            continue;
        };
        if !mode.allows(kind) {
            continue;
        }
        if columns.get(i).is_some() {
            eligible.push((i, name.as_str(), kind));
        }
    }
    if eligible.is_empty() {
        return None;
    }
    // File order == lookup order: sorted by column name.
    eligible.sort_by(|a, b| a.1.cmp(b.1));

    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(eligible.len() as u32).to_le_bytes());
    let mut built = Vec::with_capacity(eligible.len());
    for &(col_idx, name, kind) in &eligible {
        let values = columns.get(col_idx)?;
        put_blob(&mut out, name.as_bytes());
        out.push(kind.tag());
        out.extend_from_slice(&(rows as u32).to_le_bytes());
        // Sort non-null row ids by (value, row id); equal-by-compare values
        // (e.g. Int 5 and Float 5.0) share one key group, matching the
        // equality the scan predicates evaluate with.
        let mut order: Vec<u32> = (0..rows as u32)
            .filter(|&i| values.get(i as usize).is_some_and(|v| !v.is_null()))
            .collect();
        order.sort_by(|&a, &b| {
            let va = values.get(a as usize).unwrap_or(&Value::Null);
            let vb = values.get(b as usize).unwrap_or(&Value::Null);
            va.compare(vb).then(a.cmp(&b))
        });
        let mut keys: Vec<&Value> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        for &id in &order {
            let v = values.get(id as usize).unwrap_or(&Value::Null);
            match keys.last() {
                Some(last) if last.compare(v).is_eq() => {
                    if let Some(c) = counts.last_mut() {
                        *c += 1;
                    }
                }
                _ => {
                    keys.push(v);
                    counts.push(1);
                }
            }
        }
        out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
        for k in &keys {
            write_value(&mut out, k);
        }
        let mut cursor = 0usize;
        for &count in &counts {
            out.extend_from_slice(&count.to_le_bytes());
            for &id in order.get(cursor..cursor + count as usize).unwrap_or(&[]) {
                out.extend_from_slice(&id.to_le_bytes());
            }
            cursor += count as usize;
        }
        built.push((name.to_string(), kind));
    }
    let checksum = crc64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    Some(EncodedIndexes {
        bytes: out,
        checksum,
        columns: built,
    })
}

/// Decodes a segment index file, verifying the CRC-64 trailer (and, when
/// given, the checksum the manifest recorded at publish time). Every failure
/// is a typed [`StoreError`]; callers fall back to the scan path.
pub fn decode_segment_indexes(
    bytes: &[u8],
    expected_checksum: Option<u64>,
) -> Result<SegmentIndexes, StoreError> {
    if bytes.len() < 8 {
        return Err(StoreError::new("index file too short"));
    }
    let split = bytes.len() - 8;
    let body = bytes.get(..split).unwrap_or(&[]);
    let trailer = bytes
        .get(split..)
        .and_then(|t| <[u8; 8]>::try_from(t).ok())
        .map(u64::from_le_bytes)
        .ok_or_else(|| StoreError::new("index file too short"))?;
    let actual = crc64(body);
    if actual != trailer {
        return Err(StoreError::new(format!(
            "index checksum mismatch: stored {trailer:#x}, computed {actual:#x}"
        )));
    }
    if let Some(expected) = expected_checksum {
        if actual != expected {
            return Err(StoreError::new(format!(
                "index checksum {actual:#x} does not match catalog {expected:#x}"
            )));
        }
    }
    let mut r = Reader::new(body);
    if r.take(4)? != MAGIC {
        return Err(StoreError::new("bad index magic"));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(StoreError::new(format!("unknown index version {version}")));
    }
    let block_count = r.u32()? as usize;
    let mut blocks = Vec::new();
    for _ in 0..block_count {
        let column = r.string()?;
        let kind = IndexKind::from_tag(r.u8()?)
            .ok_or_else(|| StoreError::new("unknown index kind tag"))?;
        let rows = r.u32()?;
        let key_count = r.u32()? as usize;
        if key_count > rows as usize {
            return Err(StoreError::new("index key count exceeds row count"));
        }
        let mut keys = Vec::with_capacity(key_count);
        for _ in 0..key_count {
            let v = read_value(&mut r)?;
            if v.is_null() {
                return Err(StoreError::new("NULL key in index block"));
            }
            if let Some(prev) = keys.last() {
                let prev: &Value = prev;
                if !prev.compare(&v).is_lt() {
                    return Err(StoreError::new("index keys out of order"));
                }
            }
            keys.push(v);
        }
        let mut starts = Vec::with_capacity(key_count + 1);
        starts.push(0u32);
        let mut row_ids: Vec<u32> = Vec::new();
        for _ in 0..key_count {
            let count = r.u32()? as usize;
            if count == 0 {
                return Err(StoreError::new("empty postings list in index block"));
            }
            let mut prev: Option<u32> = None;
            for _ in 0..count {
                let id = r.u32()?;
                if id >= rows || prev.is_some_and(|p| p >= id) {
                    return Err(StoreError::new("index postings out of order"));
                }
                prev = Some(id);
                row_ids.push(id);
            }
            if row_ids.len() > rows as usize {
                return Err(StoreError::new("index postings exceed row count"));
            }
            starts.push(row_ids.len() as u32);
        }
        blocks.push(IndexBlock {
            column,
            kind,
            rows,
            keys,
            starts,
            row_ids,
        });
    }
    if !r.is_empty() {
        return Err(StoreError::new("trailing bytes in index file"));
    }
    if !blocks.windows(2).all(|w| match (w.first(), w.last()) {
        (Some(a), Some(b)) => a.column < b.column,
        _ => true,
    }) {
        return Err(StoreError::new("index blocks out of order"));
    }
    let heap_bytes = blocks.iter().map(|b| b.heap_bytes()).sum::<usize>()
        + std::mem::size_of::<SegmentIndexes>();
    Ok(SegmentIndexes { blocks, heap_bytes })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Vec<(String, ColumnType)> {
        vec![
            ("k_det".to_string(), ColumnType::Str),
            ("v_ope".to_string(), ColumnType::Int),
            ("pay_rnd".to_string(), ColumnType::Bytes),
        ]
    }

    fn columns() -> Vec<Vec<Value>> {
        vec![
            vec![
                Value::Str("b".into()),
                Value::Str("a".into()),
                Value::Null,
                Value::Str("b".into()),
                Value::Str("c".into()),
            ],
            vec![
                Value::Int(20),
                Value::Int(5),
                Value::Int(10),
                Value::Null,
                Value::Int(10),
            ],
            vec![Value::Bytes(vec![1]); 5],
        ]
    }

    fn build() -> SegmentIndexes {
        let enc =
            encode_segment_indexes(&schema(), &[], IndexMode::All, &columns()).expect("eligible");
        decode_segment_indexes(&enc.bytes, Some(enc.checksum)).expect("roundtrip")
    }

    #[test]
    fn roundtrip_builds_sorted_blocks_for_eligible_columns_only() {
        let ix = build();
        let names: Vec<&str> = ix.blocks().iter().map(|b| b.column.as_str()).collect();
        assert_eq!(names, vec!["k_det", "v_ope"]); // pay_rnd is ineligible
        let det = ix.block("k_det").expect("det block");
        assert_eq!(det.kind, IndexKind::Det);
        assert_eq!(det.key_count(), 3); // a b c
        assert_eq!(det.posting_count(), 4); // one NULL row skipped
        let ope = ix.block("v_ope").expect("ope block");
        assert_eq!(ope.kind, IndexKind::Ope);
        assert!(ix.block("pay_rnd").is_none());
        assert!(ix.block("missing").is_none());
    }

    #[test]
    fn eq_and_in_probes_return_ascending_postings() {
        let ix = build();
        let det = ix.block("k_det").expect("det block");
        assert_eq!(det.postings_eq(&Value::Str("b".into())), &[0, 3]);
        assert_eq!(det.postings_eq(&Value::Str("z".into())), &[] as &[u32]);
        assert_eq!(det.postings_eq(&Value::Null), &[] as &[u32]);
        assert_eq!(
            det.postings_in(&[
                Value::Str("c".into()),
                Value::Null,
                Value::Str("a".into()),
                Value::Str("a".into()),
            ]),
            vec![1, 4]
        );
    }

    #[test]
    fn range_probes_respect_bound_inclusivity() {
        let ix = build();
        let ope = ix.block("v_ope").expect("ope block");
        let ten = Value::Int(10);
        let twenty = Value::Int(20);
        assert_eq!(ope.postings_range(None, None), vec![0, 1, 2, 4]);
        assert_eq!(ope.postings_range(Some((&ten, true)), None), vec![0, 2, 4]);
        assert_eq!(ope.postings_range(Some((&ten, false)), None), vec![0]);
        assert_eq!(
            ope.postings_range(None, Some((&twenty, false))),
            vec![1, 2, 4]
        );
        assert_eq!(
            ope.postings_range(Some((&ten, true)), Some((&twenty, true))),
            vec![0, 2, 4]
        );
        // Cross-type equality: Float(10.0) hits the Int(10) key group.
        assert_eq!(ope.postings_eq(&Value::Float(10.0)), &[2, 4]);
    }

    #[test]
    fn mode_and_opt_out_gate_block_construction() {
        let none = encode_segment_indexes(&schema(), &[], IndexMode::Off, &columns());
        assert!(none.is_none());
        let det_only = encode_segment_indexes(&schema(), &[], IndexMode::Det, &columns())
            .expect("det eligible");
        assert_eq!(
            det_only.columns,
            vec![("k_det".to_string(), IndexKind::Det)]
        );
        let opted = encode_segment_indexes(
            &schema(),
            &["k_det".to_string()],
            IndexMode::All,
            &columns(),
        )
        .expect("v_ope still eligible");
        assert_eq!(opted.columns, vec![("v_ope".to_string(), IndexKind::Ope)]);
        let all_out = encode_segment_indexes(
            &schema(),
            &["k_det".to_string(), "v_ope".to_string()],
            IndexMode::All,
            &columns(),
        );
        assert!(all_out.is_none());
    }

    #[test]
    fn planned_kind_follows_suffix_convention() {
        assert_eq!(
            planned_index_kind("l_orderkey_det", ColumnType::Str),
            Some(IndexKind::Det)
        );
        assert_eq!(
            planned_index_kind("l_shipdate_ope", ColumnType::Int),
            Some(IndexKind::Ope)
        );
        assert_eq!(planned_index_kind("l_comment_rnd", ColumnType::Bytes), None);
        assert_eq!(planned_index_kind("l_price_hom", ColumnType::Bytes), None);
        assert_eq!(
            planned_index_kind("l_comment_search", ColumnType::Bytes),
            None
        );
        assert_eq!(
            planned_index_kind("l_quantity", ColumnType::Int),
            Some(IndexKind::Ope)
        );
        assert_eq!(planned_index_kind("blob_col", ColumnType::Bytes), None);
    }

    #[test]
    fn index_mode_parses_and_gates() {
        assert_eq!("off".parse::<IndexMode>(), Ok(IndexMode::Off));
        assert_eq!("DET".parse::<IndexMode>(), Ok(IndexMode::Det));
        assert_eq!("ope".parse::<IndexMode>(), Ok(IndexMode::Ope));
        assert_eq!("all".parse::<IndexMode>(), Ok(IndexMode::All));
        assert!("banana".parse::<IndexMode>().is_err());
        assert!(IndexMode::All.allows(IndexKind::Det));
        assert!(IndexMode::All.allows(IndexKind::Ope));
        assert!(IndexMode::Det.allows(IndexKind::Det));
        assert!(!IndexMode::Det.allows(IndexKind::Ope));
        assert!(!IndexMode::Off.allows(IndexKind::Det));
        assert!(!IndexMode::Off.allows(IndexKind::Ope));
    }

    #[test]
    fn every_byte_flip_is_a_typed_error_never_a_panic() {
        let enc =
            encode_segment_indexes(&schema(), &[], IndexMode::All, &columns()).expect("eligible");
        for i in 0..enc.bytes.len() {
            let mut corrupted = enc.bytes.clone();
            corrupted[i] ^= 0xFF;
            let err = decode_segment_indexes(&corrupted, Some(enc.checksum))
                .expect_err("corruption must be detected");
            assert!(err.message.contains("checksum") || !err.message.is_empty());
        }
        // Truncation too.
        for len in 0..enc.bytes.len() {
            assert!(decode_segment_indexes(&enc.bytes[..len], None).is_err());
        }
        // A stale catalog checksum is rejected even when the file is intact.
        assert!(decode_segment_indexes(&enc.bytes, Some(enc.checksum ^ 1)).is_err());
    }
}
