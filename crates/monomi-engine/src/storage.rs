//! Columnar table storage with byte-size accounting.
//!
//! A [`Table`] is *zero or more committed segments followed by an in-memory
//! tail*. Committed rows live in write-once columnar segments managed by a
//! [`monomi_store::Store`] (encodings, zone maps, crash-safe catalog,
//! byte-budgeted cache); the tail holds, column-major, the rows not yet
//! flushed to a segment. A table without a store — what `Database::in_memory`
//! creates, and the trusted client's residual tables always are — has no
//! committed part and a tail that never flushes: every accessor reads
//! "committed part (empty without a store), then tail", so there is one
//! table type and one code path. Which tables get a store is decided by
//! `Database` (`Database::{in_memory, open, with_store}`); results are
//! byte-identical either way because segment encodings round-trip values
//! exactly.
//!
//! Scans are vectorized: a [`ColumnBatch`] exposes columns as borrowed
//! slices, predicates narrow a [`SelectionVector`] of surviving row indices,
//! and only the survivors' referenced columns are materialized ("late
//! materialization"). The scan plan ([`Table::scan_plan`]) has one partition
//! per committed segment — each worker decodes (or cache-hits) whole
//! segments, and the executor consults the segment's zone map to skip it
//! before any predicate runs — followed by morsel-sized row ranges over the
//! tail.
//!
//! Byte accounting is two-level: [`Table::size_bytes`] stays *logical*
//! (`Value::size_bytes`, the same number wherever the rows live — the space
//! experiments depend on it), while the scan's `bytes_scanned` reports
//! *stored* bytes for segments actually read — the honest disk I/O.
//!
//! Concurrency: the tail changes only through `&mut Table`, while committed
//! segments can also grow under `&Table` — a bulk load into a store-backed
//! table with an empty tail ([`Table::stage_load`]) writes and commits its
//! segments without exclusive access. A scan therefore takes its segment list
//! from the catalog version its statement pinned, never from "the latest".

use crate::schema::TableSchema;
use crate::value::Value;
use monomi_store::{Manifest, SegmentData, SegmentMeta, Store};
use parking_lot::RwLock;
use std::sync::Arc;

/// Indices of the rows surviving a scan's predicates, in ascending order.
///
/// A selection vector is the unit of work the vectorized scan pipeline passes
/// between predicate applications: each conjunct narrows the previous
/// selection instead of copying rows. Indices are `u32` — tables are capped at
/// `u32::MAX` rows, far beyond anything a single segment or table holds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SelectionVector {
    indices: Vec<u32>,
}

impl SelectionVector {
    /// A selection covering every row of an `n`-row relation.
    pub fn all(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "table exceeds u32::MAX rows");
        SelectionVector {
            indices: (0..n as u32).collect(),
        }
    }

    /// An empty selection.
    pub fn empty() -> Self {
        SelectionVector::default()
    }

    /// A selection covering the half-open row range `start..end` — the seed
    /// selection a morsel-granular scan starts from.
    pub fn range(start: usize, end: usize) -> Self {
        assert!(end <= u32::MAX as usize, "table exceeds u32::MAX rows");
        SelectionVector {
            indices: (start as u32..end as u32).collect(),
        }
    }

    /// Builds a selection from raw indices (must be ascending).
    pub fn from_indices(indices: Vec<u32>) -> Self {
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
        SelectionVector { indices }
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True if no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Appends a row index (callers must keep indices ascending).
    pub fn push(&mut self, idx: usize) {
        assert!(idx <= u32::MAX as usize, "row index exceeds u32::MAX");
        debug_assert!(self.indices.last().is_none_or(|&l| (l as usize) < idx));
        self.indices.push(idx as u32);
    }

    /// The selected row indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Iterates the selected row indices as `usize`.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.indices.iter().map(|&i| i as usize)
    }

    /// Fraction of `total` rows selected (1.0 for an empty relation).
    pub fn selectivity(&self, total: usize) -> f64 {
        if total == 0 {
            1.0
        } else {
            self.len() as f64 / total as f64
        }
    }
}

/// A borrowed, column-major view of a row run: the unit vectorized predicate
/// evaluation operates on. Columns are slices into the table's storage (or a
/// decoded segment), so building a batch never copies data.
#[derive(Clone, Copy, Debug)]
pub struct ColumnBatch<'a> {
    columns: &'a [Vec<Value>],
    row_count: usize,
}

impl<'a> ColumnBatch<'a> {
    /// A batch over column-major storage (all columns of equal length
    /// `row_count`). Used by the scan for both in-memory columns and decoded
    /// disk segments.
    pub fn new(columns: &'a [Vec<Value>], row_count: usize) -> Self {
        debug_assert!(columns.iter().all(|c| c.len() == row_count));
        ColumnBatch { columns, row_count }
    }

    /// Number of rows in the batch.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Number of columns in the batch.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// One column as a slice.
    pub fn column(&self, idx: usize) -> &'a [Value] {
        &self.columns[idx]
    }

    /// Late materialization: clones the selected rows, keeping only the
    /// columns in `projection` (in the given order). Only survivors of the
    /// scan's predicates are ever cloned.
    pub fn gather(&self, selection: &SelectionVector, projection: &[usize]) -> Vec<Vec<Value>> {
        let mut rows = Vec::with_capacity(selection.len());
        for ridx in selection.iter() {
            rows.push(
                projection
                    .iter()
                    .map(|&c| self.columns[c][ridx].clone())
                    .collect(),
            );
        }
        rows
    }
}

/// Memoized per-column statistics (the collector used to rebuild a `HashSet`
/// / rescan the column on every call). Tail mutations clear it; a commit of
/// new segments makes it stale by changing the segment count it records.
#[derive(Clone, Debug)]
struct ColumnMemo {
    /// Committed segments the statistics were computed over.
    segments: usize,
    distinct: usize,
    min_max: Option<(Value, Value)>,
}

/// A bulk load that [`Table::stage_load`] could not finish under a shared
/// reference: validated rows that must join the tail, and the error of the
/// first invalid row, if there was one. [`Table::apply_load`] finishes it.
#[must_use = "the staged rows are lost unless the load is applied"]
#[derive(Debug)]
pub struct StagedLoad {
    /// Lower-cased name of the table the rows were validated against.
    table: String,
    rows: Vec<Vec<Value>>,
    rejected: Option<String>,
}

impl StagedLoad {
    /// Lower-cased name of the table the load goes to.
    pub(crate) fn table(&self) -> &str {
        &self.table
    }
}

/// One unit of scan work.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ScanPartition {
    /// A row range of the in-memory tail.
    Range { start: usize, end: usize },
    /// One committed segment (index into [`ScanPlan::segments`]).
    Segment(usize),
}

/// The partitioning of one table scan: segment-aligned partitions plus the
/// segment catalog entries (zone maps included) of the pinned catalog.
pub(crate) struct ScanPlan<'c> {
    pub partitions: Vec<ScanPartition>,
    pub segments: &'c [SegmentMeta],
}

impl ScanPlan<'_> {
    /// Total rows covered by the plan (diagnostics and tests).
    #[cfg(test)]
    pub fn total_rows(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| match p {
                ScanPartition::Range { start, end } => end - start,
                ScanPartition::Segment(i) => self.segments[*i].rows as usize,
            })
            .sum()
    }
}

/// A columnar table: committed segments in a [`Store`], then an in-memory
/// tail.
pub struct Table {
    schema: TableSchema,
    /// Where committed segments live, with this table's lower-cased manifest
    /// key. `None`: the table has no committed part and its tail never
    /// flushes.
    store: Option<(Arc<Store>, String)>,
    /// Column-major rows not (yet) flushed to a segment.
    tail: Vec<Vec<Value>>,
    tail_rows: usize,
    /// Lazily computed per-column statistics; `None` = not yet computed.
    stats_memo: RwLock<Vec<Option<ColumnMemo>>>,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        Table {
            schema: self.schema.clone(),
            store: self.store.clone(),
            tail: self.tail.clone(),
            tail_rows: self.tail_rows,
            stats_memo: RwLock::new(self.stats_memo.read().clone()),
        }
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.schema.name)
            .field("rows", &self.row_count())
            .field("backing", &self.backing_name())
            .finish()
    }
}

fn logical_bytes(column: &[Value]) -> usize {
    column.iter().map(Value::size_bytes).sum()
}

/// Writes column-major `columns` as segments of at most the store's segment
/// size and publishes them with one catalog commit: the one segment-writing
/// loop, shared by tail flushes and staged bulk loads.
fn commit_segments(store: &Arc<Store>, key: &str, columns: &[Vec<Value>]) -> Result<(), String> {
    let rows = columns.first().map_or(0, Vec::len);
    let segment_rows = store.segment_rows();
    let mut load = store.begin_load(key);
    for start in (0..rows).step_by(segment_rows) {
        let end = (start + segment_rows).min(rows);
        let written = if end - start == rows {
            load.add_segment(columns)
        } else {
            let chunk: Vec<Vec<Value>> = columns.iter().map(|c| c[start..end].to_vec()).collect();
            load.add_segment(&chunk)
        };
        written.map_err(|e| e.to_string())?;
    }
    load.commit().map_err(|e| e.to_string())
}

impl Table {
    /// Creates an empty table with no store: all rows stay in memory.
    pub fn new(schema: TableSchema) -> Self {
        Self::with_store(schema, None)
    }

    /// Creates an empty table whose tail flushes into `store`, if there is
    /// one (the caller — `Database` — has already committed the schema to
    /// the store's catalog).
    pub(crate) fn with_store(schema: TableSchema, store: Option<Arc<Store>>) -> Self {
        Table {
            store: store.map(|store| (store, schema.name.to_lowercase())),
            tail: vec![Vec::new(); schema.columns.len()],
            tail_rows: 0,
            stats_memo: RwLock::new(vec![None; schema.columns.len()]),
            schema,
        }
    }

    /// `"disk"` when flushed rows are committed to a segment store,
    /// `"memory"` when the table has none.
    pub fn backing_name(&self) -> &'static str {
        if self.store.is_some() {
            "disk"
        } else {
            "memory"
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Runs `f` over the committed segments' catalog entries in the store's
    /// latest snapshot — empty for a table without a store. For what does
    /// not have to agree with a statement's other reads: statistics, sizes,
    /// point reads.
    fn with_segments<R>(&self, f: impl FnOnce(&[SegmentMeta]) -> R) -> R {
        let latest = self.pin();
        f(self.segments_in(latest.as_deref()))
    }

    /// The store's latest catalog snapshot, if the table has a store.
    fn pin(&self) -> Option<Arc<Manifest>> {
        self.store.as_ref().map(|(store, _)| store.snapshot())
    }

    /// This table's committed segments in `catalog`, a snapshot of the
    /// table's store — empty for a table without a store.
    ///
    /// # Panics
    ///
    /// Panics if the table has a store and `catalog` is `None`: the caller
    /// lost its pin, and answering "no segments" would drop rows silently.
    fn segments_in<'c>(&self, catalog: Option<&'c Manifest>) -> &'c [SegmentMeta] {
        let Some((_, key)) = &self.store else {
            return &[];
        };
        catalog
            .expect("a store-backed table is read under a pinned catalog")
            .tables
            .get(key)
            .map_or(&[], |meta| meta.segments.as_slice())
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.with_segments(|segs| segs.iter().map(|s| s.rows as usize).sum::<usize>())
            + self.tail_rows
    }

    /// Appends a row after validating it against the schema. The row joins
    /// the tail, which is flushed into a committed segment once it reaches
    /// the store's segment size.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<(), String> {
        self.schema.check_row(&row)?;
        self.invalidate_stats();
        self.push_row(row);
        if self
            .store
            .as_ref()
            .is_some_and(|(store, _)| self.tail_rows >= store.segment_rows())
        {
            self.flush()?;
        }
        Ok(())
    }

    /// Bulk-loads rows; stops at the first invalid row (the valid prefix is
    /// kept, matching single-row `insert` semantics). The whole load — any
    /// earlier tail included — is flushed into segments and published with
    /// one atomic catalog commit, so zone maps exist as soon as the load
    /// returns. [`stage_load`](Self::stage_load), then
    /// [`apply_load`](Self::apply_load) when the stage left rows over.
    pub fn bulk_load(&mut self, rows: Vec<Vec<Value>>) -> Result<(), String> {
        match self.stage_load(rows)? {
            Some(staged) => self.apply_load(staged),
            None => Ok(()),
        }
    }

    /// The part of a bulk load that needs only a shared reference. Validates
    /// `rows` up to the first invalid one; then, when the table has a store
    /// and an empty tail, writes the valid rows as segments and commits them
    /// — statements that pin the catalog afterwards see them, statements
    /// already running do not — and returns `Ok(None)`, or the invalid row's
    /// error. A failed commit leaves the table as it was. Otherwise the rows
    /// must follow the tail (or have no store to go to), and come back
    /// staged for [`apply_load`](Self::apply_load).
    pub fn stage_load(&self, rows: Vec<Vec<Value>>) -> Result<Option<StagedLoad>, String> {
        let mut valid = Vec::with_capacity(rows.len());
        let mut rejected = None;
        for row in rows {
            if let Err(e) = self.schema.check_row(&row) {
                rejected = Some(e);
                break;
            }
            valid.push(row);
        }
        // Rows for the tail, or a store-backed tail the load flushes.
        let needs_tail = match &self.store {
            Some(_) => self.tail_rows > 0,
            None => !valid.is_empty(),
        };
        if needs_tail {
            return Ok(Some(StagedLoad {
                table: self.schema.name.to_lowercase(),
                rows: valid,
                rejected,
            }));
        }
        if let (Some((store, key)), false) = (&self.store, valid.is_empty()) {
            let mut columns: Vec<Vec<Value>> = self
                .tail
                .iter()
                .map(|_| Vec::with_capacity(valid.len()))
                .collect();
            for row in valid {
                for (col, v) in columns.iter_mut().zip(row) {
                    col.push(v);
                }
            }
            commit_segments(store, key, &columns)?;
        }
        rejected.map_or(Ok(None), Err)
    }

    /// Finishes a staged load: appends its rows to the tail, flushes the
    /// tail into segments when the table has a store, and reports the first
    /// invalid row's error, if the stage found one.
    pub fn apply_load(&mut self, staged: StagedLoad) -> Result<(), String> {
        self.invalidate_stats();
        for col in &mut self.tail {
            col.reserve(staged.rows.len());
        }
        for row in staged.rows {
            self.push_row(row);
        }
        self.flush()?;
        staged.rejected.map_or(Ok(()), Err)
    }

    /// Appends an already validated row to the tail.
    fn push_row(&mut self, row: Vec<Value>) {
        for (col, v) in self.tail.iter_mut().zip(row) {
            col.push(v);
        }
        self.tail_rows += 1;
    }

    /// Flushes the tail into committed segments (one atomic catalog commit).
    /// A no-op for an empty tail, and for a table without a store — its rows
    /// have nowhere to go and stay in the tail.
    pub fn flush(&mut self) -> Result<(), String> {
        let Some((store, key)) = &self.store else {
            return Ok(());
        };
        if self.tail_rows == 0 {
            return Ok(());
        }
        commit_segments(store, key, &self.tail)?;
        for col in &mut self.tail {
            col.clear();
        }
        self.tail_rows = 0;
        // Publication moved rows from the tail into segments: the logical
        // values are unchanged, but the memoized stats must not outlive the
        // state they were computed from — index-vs-scan costing reads them,
        // and a conservative invalidation is cheap next to a segment write.
        self.invalidate_stats();
        Ok(())
    }

    /// Resolves a row index to the committed segment holding it and the
    /// row's offset there — or `None` and its offset in the tail. Clones one
    /// `SegmentMeta`, not the whole catalog entry: this runs per row in
    /// `clone_database`-style table copies.
    fn locate(&self, row: usize) -> (Option<SegmentMeta>, usize) {
        let mut offset = row;
        let seg = self.with_segments(|segs| {
            for seg in segs {
                let rows = seg.rows as usize;
                if offset < rows {
                    return Some(seg.clone());
                }
                offset -= rows;
            }
            None
        });
        (seg, offset)
    }

    /// Decodes one committed segment for a point or whole-table read.
    fn decode(&self, seg: &SegmentMeta) -> Arc<SegmentData> {
        self.read_segment(seg)
            .unwrap_or_else(|e| panic!("segment read failed: {e}"))
    }

    /// The value at `(row, column)`. Committed rows are read through the
    /// segment cache (use scans, not point reads, for anything hot).
    pub fn value(&self, row: usize, column: usize) -> Value {
        match self.locate(row) {
            (Some(seg), offset) => self.decode(&seg).columns[column][offset].clone(),
            (None, offset) => self.tail[column][offset].clone(),
        }
    }

    /// Materializes one row.
    pub fn row(&self, row: usize) -> Vec<Value> {
        let pick = |columns: &[Vec<Value>], offset: usize| {
            columns.iter().map(|c| c[offset].clone()).collect()
        };
        match self.locate(row) {
            (Some(seg), offset) => pick(&self.decode(&seg).columns, offset),
            (None, offset) => pick(&self.tail, offset),
        }
    }

    /// Materializes every row of the table in **one pass** over the
    /// committed segments (each decoded once, through the cache) and then
    /// the tail — prefer this over per-index [`row`](Self::row) for
    /// whole-table extraction, which would re-walk the segment catalog on
    /// every call (O(rows × segments)).
    pub fn rows(&self) -> Vec<Vec<Value>> {
        let mut out = Vec::with_capacity(self.row_count());
        let mut extend = |columns: &[Vec<Value>], rows: usize| {
            out.extend((0..rows).map(|r| columns.iter().map(|c| c[r].clone()).collect()));
        };
        let latest = self.pin();
        for seg in self.segments_in(latest.as_deref()) {
            let data = self.decode(seg);
            extend(&data.columns, data.rows);
        }
        extend(&self.tail, self.tail_rows);
        out
    }

    /// A borrowed columnar view of the in-memory tail — the columns a
    /// [`ScanPartition::Range`] indexes into, and the whole table when it has
    /// no store.
    pub fn tail_batch(&self) -> ColumnBatch<'_> {
        ColumnBatch::new(&self.tail, self.tail_rows)
    }

    /// Partitions a scan of this table: one partition per committed segment
    /// of `catalog` (the statement's pin, see
    /// [`segments_in`](Self::segments_in)) — aligned to segment boundaries so
    /// zone maps can skip whole partitions — followed by `morsel_rows` ranges
    /// over the tail.
    pub(crate) fn scan_plan<'c>(
        &self,
        morsel_rows: usize,
        catalog: Option<&'c Manifest>,
    ) -> ScanPlan<'c> {
        let morsel_rows = morsel_rows.max(1);
        let segments = self.segments_in(catalog);
        let mut partitions: Vec<ScanPartition> =
            (0..segments.len()).map(ScanPartition::Segment).collect();
        partitions.extend((0..self.tail_rows.div_ceil(morsel_rows)).map(|i| {
            ScanPartition::Range {
                start: i * morsel_rows,
                end: ((i + 1) * morsel_rows).min(self.tail_rows),
            }
        }));
        ScanPlan {
            partitions,
            segments,
        }
    }

    /// Reads one committed segment through the store's cache.
    pub(crate) fn read_segment(&self, meta: &SegmentMeta) -> Result<Arc<SegmentData>, String> {
        let (store, _) = self
            .store
            .as_ref()
            .expect("segment catalog entries only come from a table's store");
        store.read_segment(meta).map_err(|e| e.to_string())
    }

    /// Decoded secondary indexes of one committed segment, or `None` when the
    /// segment has none — or its index file fails to read or verify. The
    /// store surfaces that failure as a typed error; here it degrades to "no
    /// index", so a corrupted index can only cost speed, never correctness.
    pub(crate) fn segment_indexes(
        &self,
        meta: &SegmentMeta,
    ) -> Option<Arc<monomi_store::SegmentIndexes>> {
        let (store, _) = self.store.as_ref()?;
        store.read_indexes(meta.index.as_ref()?).ok()
    }

    /// Whether any committed segment of this table carries an index file.
    /// Gates probe planning: when nothing is indexed (no committed segments,
    /// indexes disabled at load time, or the whole table opted out) the
    /// planner skips the per-column statistics lookups entirely.
    pub(crate) fn has_segment_indexes(&self) -> bool {
        self.with_segments(|segs| segs.iter().any(|s| s.index.is_some()))
    }

    /// Total logical bytes across all columns (`Value::size_bytes`) — the
    /// same number wherever the rows live; the space-overhead experiments
    /// (Table 2) depend on that. The physical footprint of the committed
    /// segments is [`stored_bytes`](Self::stored_bytes).
    pub fn size_bytes(&self) -> usize {
        let committed: u64 =
            self.with_segments(|segs| segs.iter().map(SegmentMeta::logical_bytes).sum());
        committed as usize + self.tail.iter().map(|c| logical_bytes(c)).sum::<usize>()
    }

    /// Stored (encoded) bytes of the committed segments — the physical
    /// footprint a scan actually reads. Tail rows are not counted.
    pub fn stored_bytes(&self) -> usize {
        self.with_segments(|segs| segs.iter().map(|s| s.stored_bytes).sum::<u64>()) as usize
    }

    /// Logical bytes of a single column.
    pub fn column_size_bytes(&self, column: usize) -> usize {
        let committed: u64 =
            self.with_segments(|segs| segs.iter().map(|s| s.zones[column].logical_bytes).sum());
        committed as usize + logical_bytes(&self.tail[column])
    }

    /// Average row width in bytes (0 for an empty table).
    pub fn avg_row_bytes(&self) -> usize {
        self.size_bytes().checked_div(self.row_count()).unwrap_or(0)
    }

    /// Number of distinct values in a column (exact; used by the statistics
    /// collector on the sample the designer is given). Memoized — the
    /// collector calls this for every column, and rebuilding the `HashSet`
    /// each time was pure waste; loads and inserts invalidate the memo.
    pub fn distinct_count(&self, column: usize) -> usize {
        self.column_memo(column).distinct
    }

    /// Minimum and maximum of a column, ignoring NULLs. Memoized alongside
    /// [`distinct_count`](Self::distinct_count); the bounds of committed
    /// rows fold the segments' zone maps instead of rescanning values.
    pub fn min_max(&self, column: usize) -> Option<(Value, Value)> {
        self.column_memo(column).min_max
    }

    /// The memoized statistics of one column, computing them on first use
    /// and again once a commit has added segments. A memo computed from an
    /// older catalog and stored after a newer one was published records the
    /// older segment count, so it is recomputed rather than trusted.
    fn column_memo(&self, column: usize) -> ColumnMemo {
        let latest = self.pin();
        let segments = self.segments_in(latest.as_deref());
        if let Some(memo) = &self.stats_memo.read()[column] {
            if memo.segments == segments.len() {
                return memo.clone();
            }
        }
        let memo = self.compute_column_memo(column, segments);
        self.stats_memo.write()[column] = Some(memo.clone());
        memo
    }

    fn compute_column_memo(&self, column: usize, segments: &[SegmentMeta]) -> ColumnMemo {
        let mut set: std::collections::HashSet<Value> = std::collections::HashSet::new();
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        let fold_bound = |v: &Value, min: &mut Option<Value>, max: &mut Option<Value>| {
            if v.is_null() {
                return;
            }
            if min.as_ref().is_none_or(|m| v < m) {
                *min = Some(v.clone());
            }
            if max.as_ref().is_none_or(|m| v > m) {
                *max = Some(v.clone());
            }
        };
        for seg in segments {
            // Bounds come straight from the zone map (computed under the
            // same total order at load time)...
            let zone = &seg.zones[column];
            if let Some(v) = &zone.min {
                fold_bound(v, &mut min, &mut max);
            }
            if let Some(v) = &zone.max {
                fold_bound(v, &mut min, &mut max);
            }
            // ...while the exact distinct count needs the values.
            for v in &self.decode(seg).columns[column] {
                set.insert(v.clone());
            }
        }
        for v in &self.tail[column] {
            set.insert(v.clone());
            fold_bound(v, &mut min, &mut max);
        }
        ColumnMemo {
            segments: segments.len(),
            distinct: set.len(),
            min_max: min.zip(max),
        }
    }

    fn invalidate_stats(&mut self) {
        for slot in self.stats_memo.get_mut().iter_mut() {
            *slot = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};

    fn small_table() -> Table {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Str),
            ],
        );
        let mut t = Table::new(schema);
        t.bulk_load(vec![
            vec![Value::Int(1), Value::Str("alpha".into())],
            vec![Value::Int(2), Value::Str("beta".into())],
            vec![Value::Int(3), Value::Str("alpha".into())],
        ])
        .unwrap();
        t
    }

    #[test]
    fn insert_and_read_back() {
        let t = small_table();
        assert_eq!(t.row_count(), 3);
        assert_eq!(t.value(1, 1), Value::Str("beta".into()));
        assert_eq!(t.row(2), vec![Value::Int(3), Value::Str("alpha".into())]);
    }

    #[test]
    fn rejects_bad_rows() {
        let mut t = small_table();
        assert!(t.insert(vec![Value::Int(4)]).is_err());
        assert!(t
            .insert(vec![Value::Str("oops".into()), Value::Str("x".into())])
            .is_err());
        assert_eq!(t.row_count(), 3);
    }

    #[test]
    fn selection_vectors_narrow_and_report_selectivity() {
        let sel = SelectionVector::all(4);
        assert_eq!(sel.len(), 4);
        assert_eq!(sel.indices(), &[0, 1, 2, 3]);
        let mut narrowed = SelectionVector::empty();
        narrowed.push(1);
        narrowed.push(3);
        assert_eq!(narrowed.iter().collect::<Vec<_>>(), vec![1, 3]);
        assert!((narrowed.selectivity(4) - 0.5).abs() < f64::EPSILON);
        assert!((SelectionVector::empty().selectivity(0) - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn batch_gather_late_materializes_projected_columns() {
        let t = small_table();
        let batch = t.tail_batch();
        assert_eq!(batch.row_count(), 3);
        assert_eq!(batch.column_count(), 2);
        assert_eq!(batch.column(0)[2], Value::Int(3));
        // Select rows 0 and 2, keep only the name column (index 1).
        let sel = SelectionVector::from_indices(vec![0, 2]);
        let rows = batch.gather(&sel, &[1]);
        assert_eq!(
            rows,
            vec![
                vec![Value::Str("alpha".into())],
                vec![Value::Str("alpha".into())]
            ]
        );
        // Empty projection still yields the right number of (zero-width) rows.
        assert_eq!(batch.gather(&sel, &[]), vec![Vec::new(), Vec::new()]);
    }

    #[test]
    fn size_accounting_and_stats() {
        let t = small_table();
        // 3 ints (8 bytes each) + "alpha","beta","alpha" (+1 each).
        assert_eq!(t.size_bytes(), 24 + 6 + 5 + 6);
        assert_eq!(t.column_size_bytes(0), 24);
        assert_eq!(t.distinct_count(1), 2);
        let (min, max) = t.min_max(0).unwrap();
        assert_eq!(min, Value::Int(1));
        assert_eq!(max, Value::Int(3));
        assert!(t.avg_row_bytes() > 0);
        assert_eq!(t.backing_name(), "memory");
        assert_eq!(t.stored_bytes(), 0);
    }

    #[test]
    fn stats_memo_invalidates_on_mutation() {
        let mut t = small_table();
        assert_eq!(t.distinct_count(0), 3);
        assert_eq!(t.min_max(0).unwrap().1, Value::Int(3));
        // A mutation must drop the memo: the new row shows up in both stats.
        t.insert(vec![Value::Int(9), Value::Str("alpha".into())])
            .unwrap();
        assert_eq!(t.distinct_count(0), 4);
        assert_eq!(t.min_max(0).unwrap().1, Value::Int(9));
        // Repeated reads hit the memo (same values back).
        assert_eq!(t.distinct_count(0), 4);
        assert_eq!(t.distinct_count(1), 2);
    }

    #[test]
    fn stats_memo_invalidates_on_tail_flush() {
        let dir =
            std::env::temp_dir().join(format!("monomi-storage-flush-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = monomi_store::Store::open_with(
            &dir,
            monomi_store::StoreOptions {
                segment_rows: 8,
                ..monomi_store::StoreOptions::default()
            },
        )
        .unwrap();
        store
            .create_table(
                "t",
                vec![
                    ("id".into(), ColumnType::Int),
                    ("name".into(), ColumnType::Str),
                ],
            )
            .unwrap();
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Str),
            ],
        );
        let mut t = Table::with_store(schema, Some(store));
        for i in 0..5 {
            t.insert(vec![Value::Int(i), Value::Str("x".into())])
                .unwrap();
        }
        // Populate the memo from the tail-resident rows.
        assert_eq!(t.distinct_count(0), 5);
        assert!(t.stats_memo.read()[0].is_some());
        // Publishing the tail as a committed segment must drop the memo: the
        // logical values survive unchanged, but the memo was computed from a
        // state (tail layout) that no longer exists, and index-vs-scan
        // costing reads it.
        t.flush().unwrap();
        assert!(t.stats_memo.read()[0].is_none());
        // Recomputation over the published segment agrees with the old answer.
        assert_eq!(t.distinct_count(0), 5);
        assert_eq!(t.min_max(0).unwrap(), (Value::Int(0), Value::Int(4)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_scan_plan_partitions_by_morsel_size() {
        let t = small_table();
        let plan = t.scan_plan(2, None);
        assert_eq!(plan.total_rows(), 3);
        assert_eq!(plan.partitions.len(), 2);
        assert!(plan.segments.is_empty());
        match plan.partitions[1] {
            ScanPartition::Range { start, end } => {
                assert_eq!((start, end), (2, 3));
            }
            _ => panic!("a table without a store has only tail ranges"),
        }
    }
}
