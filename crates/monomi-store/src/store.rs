//! The store facade: a directory of write-once segments plus the crash-safe
//! manifest and the shared segment cache.
//!
//! One [`Store`] owns one directory. Tables are created by registering their
//! schema in the manifest; rows arrive through [`BulkLoad`] transactions that
//! write fsynced segment files first and publish them with a single manifest
//! commit — dropping the loader before [`BulkLoad::commit`] (a simulated
//! kill) leaves the catalog exactly as it was, and the orphaned files are
//! swept the next time the directory is opened.
//!
//! The in-memory catalog is published by swap: it is an immutable
//! `Arc<Manifest>` that readers take with [`Store::snapshot`] (a pointer copy
//! under a lock held for nanoseconds). A writer builds the next catalog from
//! the current one, runs the durable commit with no reader-visible lock held,
//! and only then swaps the `Arc` in. Writers are serialized by a commit
//! mutex no reader takes, so no update is lost; a reader never waits on a
//! writer's I/O, and a snapshot never changes under its holder.

use crate::cache::{ByteLru, SegmentCache, DEFAULT_CACHE_BYTES, INDEX_CACHE_BYTES};
use crate::index::{encode_segment_indexes, IndexMode, SegmentIndexes};
use crate::manifest::{IndexMeta, Manifest, SegmentMeta, TableMeta, MANIFEST_FILE};
use crate::segment::{encode_segment, read_segment_file, write_segment_file};
use crate::value::Value;
use crate::{ColumnType, StoreError};
use parking_lot::{Mutex, RwLock};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default rows per segment — matches the executor's default morsel size, so
/// one segment is one scan partition.
pub const DEFAULT_SEGMENT_ROWS: usize = 4096;

/// Tuning knobs of one store instance.
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// Rows per newly written segment.
    pub segment_rows: usize,
    /// Byte budget of the decoded-segment cache.
    pub cache_bytes: usize,
    /// Which secondary-index kinds newly written segments get.
    pub index_mode: IndexMode,
}

impl Default for StoreOptions {
    /// [`DEFAULT_SEGMENT_ROWS`], [`DEFAULT_CACHE_BYTES`], and the index mode
    /// `MONOMI_INDEXES` selects ([`IndexMode::from_env`]).
    fn default() -> Self {
        StoreOptions {
            segment_rows: DEFAULT_SEGMENT_ROWS,
            cache_bytes: DEFAULT_CACHE_BYTES,
            index_mode: IndexMode::from_env(),
        }
    }
}

/// A decoded segment resident in memory: column-major values plus the
/// footprint the cache charges for it.
#[derive(Debug)]
pub struct SegmentData {
    /// One `Vec<Value>` per column, all of equal length.
    pub columns: Vec<Vec<Value>>,
    /// Rows in the segment.
    pub rows: usize,
    /// Approximate heap footprint, charged against the cache budget.
    pub heap_bytes: usize,
}

impl SegmentData {
    /// Wraps decoded columns, computing the cache-accounting footprint.
    pub fn new(columns: Vec<Vec<Value>>) -> SegmentData {
        let rows = columns.first().map(Vec::len).unwrap_or(0);
        let heap_bytes = columns
            .iter()
            .map(|c| {
                c.len() * std::mem::size_of::<Value>()
                    + c.iter().map(Value::size_bytes).sum::<usize>()
            })
            .sum();
        SegmentData {
            rows,
            heap_bytes,
            columns,
        }
    }
}

/// A directory-backed segment store.
pub struct Store {
    dir: PathBuf,
    /// The published catalog. Held only to clone or replace the `Arc`.
    catalog: RwLock<Arc<Manifest>>,
    /// Serializes catalog writers across their read-modify-commit-publish.
    commit_lock: Mutex<()>,
    cache: SegmentCache,
    index_cache: ByteLru<SegmentIndexes>,
    segment_rows: usize,
    index_mode: IndexMode,
    /// Per-process uniquifier folded into segment file names.
    seq: AtomicU64,
}

impl Store {
    /// Opens (creating if necessary) a store directory with the default
    /// [`StoreOptions`].
    pub fn open(dir: impl Into<PathBuf>) -> Result<Arc<Store>, StoreError> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Opens (creating if necessary) a store directory: loads and verifies
    /// the manifest, then sweeps segment files no committed catalog entry
    /// references — the leftovers of loads that were killed before commit.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        options: StoreOptions,
    ) -> Result<Arc<Store>, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let manifest = Manifest::load(&dir)?;
        let store = Store {
            cache: SegmentCache::with_budget(options.cache_bytes),
            index_cache: ByteLru::with_budget(INDEX_CACHE_BYTES),
            segment_rows: options.segment_rows.max(1),
            index_mode: options.index_mode,
            catalog: RwLock::new(Arc::new(manifest)),
            commit_lock: Mutex::new(()),
            seq: AtomicU64::new(0),
            dir,
        };
        store.sweep_orphans()?;
        Ok(Arc::new(store))
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Rows per segment for newly written segments.
    pub fn segment_rows(&self) -> usize {
        self.segment_rows
    }

    /// The shared decoded-segment cache.
    pub fn cache(&self) -> &SegmentCache {
        &self.cache
    }

    /// The shared decoded-index cache.
    pub fn index_cache(&self) -> &ByteLru<SegmentIndexes> {
        &self.index_cache
    }

    /// Which secondary-index kinds newly written segments get.
    pub fn index_mode(&self) -> IndexMode {
        self.index_mode
    }

    /// The committed catalog as of now: an immutable version that later
    /// commits never change. Costs one `Arc` clone.
    pub fn snapshot(&self) -> Arc<Manifest> {
        Arc::clone(&self.catalog.read())
    }

    /// Owned copy of one table's catalog entry. Deep-clones the segment list
    /// (zone maps included) — use [`with_table_meta`](Self::with_table_meta)
    /// for point lookups and aggregations that only need a borrow.
    pub fn table_meta(&self, table: &str) -> Option<TableMeta> {
        self.snapshot().tables.get(table).cloned()
    }

    /// Runs `f` over a borrowed view of one table's catalog entry in the
    /// current [`snapshot`](Self::snapshot), without cloning anything. No
    /// lock is held while `f` runs, so a concurrent commit neither waits for
    /// it nor changes what it sees.
    pub fn with_table_meta<R>(&self, table: &str, f: impl FnOnce(Option<&TableMeta>) -> R) -> R {
        f(self.snapshot().tables.get(table))
    }

    /// Committed rows of a table (0 if unknown).
    pub fn table_rows(&self, table: &str) -> u64 {
        self.with_table_meta(table, |meta| meta.map_or(0, TableMeta::rows))
    }

    /// Every table in the catalog, with its schema.
    pub fn catalog(&self) -> Vec<(String, Vec<(String, ColumnType)>)> {
        self.snapshot()
            .tables
            .iter()
            .map(|(name, t)| (name.clone(), t.columns.clone()))
            .collect()
    }

    /// One catalog transaction: `edit` turns a copy of the current catalog
    /// into the next version, which is committed durably and then published.
    /// The commit mutex keeps writers from losing each other's updates; no
    /// reader-visible lock is held during the durable commit. If it fails,
    /// the published catalog still matches the on-disk `MANIFEST` — never a
    /// half-applied mutation.
    fn commit_catalog<R>(
        &self,
        edit: impl FnOnce(&mut Manifest) -> Result<R, StoreError>,
    ) -> Result<R, StoreError> {
        let _writer = self.commit_lock.lock();
        let mut next = Manifest::clone(&self.snapshot());
        let out = edit(&mut next)?;
        next.version += 1;
        next.commit(&self.dir)?;
        *self.catalog.write() = Arc::new(next);
        Ok(out)
    }

    /// Registers (or replaces) a table schema. Replacement drops the previous
    /// segment list; the files are deleted after the commit succeeds, so a
    /// caller that replaces a table must know no reader still holds a
    /// snapshot listing them.
    pub fn create_table(
        &self,
        table: &str,
        columns: Vec<(String, ColumnType)>,
    ) -> Result<(), StoreError> {
        self.create_table_with(table, columns, Vec::new())
    }

    /// [`create_table`](Self::create_table) with an explicit list of columns
    /// opted out of secondary indexes (the designer's leakage tradeoff). The
    /// list is sorted and deduplicated so the persisted manifest bytes do not
    /// depend on caller iteration order.
    pub fn create_table_with(
        &self,
        table: &str,
        columns: Vec<(String, ColumnType)>,
        mut unindexed: Vec<String>,
    ) -> Result<(), StoreError> {
        unindexed.sort();
        unindexed.dedup();
        let old = self.commit_catalog(|next| {
            Ok(next.tables.insert(
                table.to_string(),
                TableMeta {
                    columns,
                    segments: Vec::new(),
                    unindexed,
                },
            ))
        })?;
        if let Some(old) = old {
            for seg in old.segments {
                if let Some(index) = &seg.index {
                    let _ = std::fs::remove_file(self.dir.join(&index.file));
                }
                let _ = std::fs::remove_file(self.dir.join(seg.file));
            }
        }
        Ok(())
    }

    /// Starts a bulk load into `table`. Segments written through the returned
    /// handle become visible only at [`BulkLoad::commit`].
    pub fn begin_load(self: &Arc<Self>, table: &str) -> BulkLoad {
        // Snapshot the schema and opt-out list now: index eligibility must
        // not shift mid-load if the table is concurrently replaced (the
        // commit would fail against a replaced table anyway).
        let (schema, unindexed) = self.with_table_meta(table, |meta| match meta {
            Some(t) => (t.columns.clone(), t.unindexed.clone()),
            None => (Vec::new(), Vec::new()),
        });
        BulkLoad {
            store: Arc::clone(self),
            table: table.to_string(),
            schema,
            unindexed,
            pending: Vec::new(),
            committed: false,
        }
    }

    /// Reads one committed segment through the cache, verifying its checksum
    /// on the (cold) decode path.
    pub fn read_segment(&self, seg: &SegmentMeta) -> Result<Arc<SegmentData>, StoreError> {
        let path = self.dir.join(&seg.file);
        self.cache.get_or_load(&seg.file, || {
            read_segment_file(&path, Some(seg.checksum)).map(SegmentData::new)
        })
    }

    /// Reads one segment's index file through the index cache, verifying its
    /// checksum on the (cold) decode path. Any failure is a typed error the
    /// caller answers with a plain scan — never wrong rows.
    pub fn read_indexes(&self, index: &IndexMeta) -> Result<Arc<SegmentIndexes>, StoreError> {
        let path = self.dir.join(&index.file);
        self.index_cache.get_or_load(&index.file, || {
            let bytes = std::fs::read(&path)
                .map_err(|e| StoreError::new(format!("{}: {e}", path.display())))?;
            crate::index::decode_segment_indexes(&bytes, Some(index.checksum))
                .map_err(|e| StoreError::new(format!("{}: {}", path.display(), e.message)))
        })
    }

    /// A fresh file name no previous or concurrent segment uses.
    fn fresh_segment_name(&self, table: &str) -> String {
        let version = self.snapshot().version;
        loop {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            let name = format!("{table}-{version}-{}-{seq}.seg", std::process::id());
            if !self.dir.join(&name).exists() {
                return name;
            }
        }
    }

    /// Removes `*.seg` and `*.idx` files the manifest does not reference.
    fn sweep_orphans(&self) -> Result<(), StoreError> {
        let referenced: std::collections::HashSet<String> = self
            .snapshot()
            .tables
            .values()
            .flat_map(|t| {
                t.segments.iter().flat_map(|s| {
                    std::iter::once(s.file.clone()).chain(s.index.as_ref().map(|i| i.file.clone()))
                })
            })
            .collect();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if (name.ends_with(".seg") || name.ends_with(".idx")) && !referenced.contains(&name) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(())
    }

    /// Total stored (encoded) bytes across every committed segment.
    pub fn stored_bytes(&self) -> u64 {
        self.snapshot()
            .tables
            .values()
            .flat_map(|t| t.segments.iter())
            .map(|s| s.stored_bytes)
            .sum()
    }

    /// Path of the manifest file (exposed for crash-safety tests).
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_FILE)
    }
}

/// An uncommitted bulk load: segment files are written (and fsynced)
/// immediately, but the catalog only learns about them at [`commit`]
/// (`BulkLoad::commit`). Dropping the handle without committing abandons the
/// files — exactly what a mid-load kill leaves behind — and the catalog stays
/// at the pre-load state.
pub struct BulkLoad {
    store: Arc<Store>,
    table: String,
    /// Schema snapshot taken at `begin_load`, driving index eligibility.
    schema: Vec<(String, ColumnType)>,
    /// Index opt-out list snapshot taken at `begin_load`.
    unindexed: Vec<String>,
    pending: Vec<SegmentMeta>,
    committed: bool,
}

impl BulkLoad {
    /// Encodes and writes one segment (column-major rows), fsyncing the file.
    /// Eligible columns get index blocks, written to a sibling `.idx` file
    /// in the same staged transaction. The segment stays invisible until
    /// [`commit`](Self::commit).
    pub fn add_segment(&mut self, columns: &[Vec<Value>]) -> Result<(), StoreError> {
        let rows = columns.first().map(Vec::len).unwrap_or(0);
        if rows == 0 {
            return Ok(());
        }
        let encoded = encode_segment(columns);
        let file = self.store.fresh_segment_name(&self.table);
        write_segment_file(&self.store.dir.join(&file), &encoded)?;
        let index = match encode_segment_indexes(
            &self.schema,
            &self.unindexed,
            self.store.index_mode,
            columns,
        ) {
            Some(enc) => {
                let ifile = format!("{}.idx", file.strip_suffix(".seg").unwrap_or(&file));
                let path = self.store.dir.join(&ifile);
                {
                    let mut f = std::fs::File::create(&path)?;
                    f.write_all(&enc.bytes)?;
                    f.sync_all()?;
                }
                Some(IndexMeta {
                    file: ifile,
                    stored_bytes: enc.bytes.len() as u64,
                    checksum: enc.checksum,
                    columns: enc.columns,
                })
            }
            None => None,
        };
        self.pending.push(SegmentMeta {
            file,
            rows: rows as u64,
            stored_bytes: encoded.bytes.len() as u64,
            checksum: encoded.checksum,
            zones: encoded.zones.columns,
            index,
        });
        Ok(())
    }

    /// Rows staged so far.
    pub fn staged_rows(&self) -> u64 {
        self.pending.iter().map(|s| s.rows).sum()
    }

    /// Publishes every staged segment with one atomic manifest commit.
    pub fn commit(mut self) -> Result<(), StoreError> {
        // Persist the segment files' *directory entries* before the manifest
        // rename: the files' contents are already fsynced, but without this
        // a power loss could journal the renamed MANIFEST while the new
        // files' dirents are lost — a catalog referencing missing segments,
        // which is neither the old nor the new state. (Directory fsync is
        // not supported everywhere; a failure degrades durability, not
        // atomicity, so it is tolerated — same policy as Manifest::commit.)
        if !self.pending.is_empty() {
            if let Ok(d) = std::fs::File::open(&self.store.dir) {
                let _ = d.sync_all();
            }
        }
        // The published catalog is only replaced after the on-disk commit
        // succeeds. On failure it therefore still matches MANIFEST, `pending`
        // is untouched, and Drop removes the staged files — a retried flush
        // cannot double-publish rows.
        let (table, pending) = (&self.table, &self.pending);
        self.store.commit_catalog(|next| {
            next.tables
                .get_mut(table)
                .ok_or_else(|| StoreError::new(format!("unknown table {table}")))?
                .segments
                .extend(pending.iter().cloned());
            Ok(())
        })?;
        self.pending.clear();
        self.committed = true;
        Ok(())
    }
}

impl Drop for BulkLoad {
    fn drop(&mut self) {
        // An explicit abort cleans up eagerly; a real kill cannot run this,
        // which is what the open-time orphan sweep is for.
        if !self.committed {
            for seg in &self.pending {
                if let Some(index) = &seg.index {
                    let _ = std::fs::remove_file(self.store.dir.join(&index.file));
                }
                let _ = std::fs::remove_file(self.store.dir.join(&seg.file));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> (PathBuf, Arc<Store>) {
        let dir = std::env::temp_dir().join(format!("monomi-store-{}-{}", std::process::id(), tag));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    fn int_column(range: std::ops::Range<i64>) -> Vec<Vec<Value>> {
        vec![range.map(Value::Int).collect()]
    }

    #[test]
    fn load_commit_read_roundtrip() {
        let (dir, store) = temp_store("roundtrip");
        store
            .create_table("t", vec![("x".into(), ColumnType::Int)])
            .unwrap();
        let mut load = store.begin_load("t");
        load.add_segment(&int_column(0..10)).unwrap();
        load.add_segment(&int_column(10..25)).unwrap();
        assert_eq!(load.staged_rows(), 25);
        load.commit().unwrap();

        assert_eq!(store.table_rows("t"), 25);
        let meta = store.table_meta("t").unwrap();
        assert_eq!(meta.segments.len(), 2);
        assert_eq!(meta.segments[1].zones[0].min, Some(Value::Int(10)));
        assert_eq!(meta.segments[1].zones[0].max, Some(Value::Int(24)));
        let data = store.read_segment(&meta.segments[0]).unwrap();
        assert_eq!(data.columns, int_column(0..10));

        // Reopen: everything survives.
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.table_rows("t"), 25);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropped_load_leaves_catalog_untouched_and_orphans_are_swept() {
        let (dir, store) = temp_store("crash");
        store
            .create_table("t", vec![("x".into(), ColumnType::Int)])
            .unwrap();
        let mut pre = store.begin_load("t");
        pre.add_segment(&int_column(0..5)).unwrap();
        pre.commit().unwrap();

        // Simulated kill mid-load: segment files exist, commit never runs.
        // `forget` skips the Drop cleanup, exactly like a killed process.
        let mut load = store.begin_load("t");
        load.add_segment(&int_column(100..200)).unwrap();
        let orphan = store.dir.join(&load.pending[0].file);
        assert!(orphan.exists());
        std::mem::forget(load);

        drop(store);
        let store = Store::open(&dir).unwrap();
        // Catalog shows exactly the pre-load state; the orphan is gone.
        assert_eq!(store.table_rows("t"), 5);
        assert!(!orphan.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_table_replacement_drops_old_segments() {
        let (dir, store) = temp_store("replace");
        store
            .create_table("t", vec![("x".into(), ColumnType::Int)])
            .unwrap();
        let mut load = store.begin_load("t");
        load.add_segment(&int_column(0..8)).unwrap();
        load.commit().unwrap();
        let old_file = store
            .dir
            .join(&store.table_meta("t").unwrap().segments[0].file);
        assert!(old_file.exists());
        store
            .create_table("t", vec![("y".into(), ColumnType::Str)])
            .unwrap();
        assert_eq!(store.table_rows("t"), 0);
        assert!(!old_file.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bulk_load_publishes_index_files_with_the_segment() {
        let (dir, store) = temp_store("indexed");
        store
            .create_table(
                "t",
                vec![
                    ("k_det".into(), ColumnType::Int),
                    ("v_rnd".into(), ColumnType::Bytes),
                ],
            )
            .unwrap();
        let mut load = store.begin_load("t");
        load.add_segment(&[
            (0..16).map(|i| Value::Int(i % 4)).collect(),
            vec![Value::Bytes(vec![9]); 16],
        ])
        .unwrap();
        load.commit().unwrap();
        let meta = store.table_meta("t").unwrap();
        let index = meta.segments[0].index.as_ref().expect("index built");
        assert_eq!(index.columns, vec![("k_det".into(), crate::IndexKind::Det)]);
        assert!(store.dir.join(&index.file).exists());
        let ix = store.read_indexes(index).unwrap();
        assert_eq!(
            ix.block("k_det").unwrap().postings_eq(&Value::Int(1)),
            &[1, 5, 9, 13]
        );
        assert!(ix.block("v_rnd").is_none());
        // Cached on the second read.
        let again = store.read_indexes(index).unwrap();
        assert!(Arc::ptr_eq(&ix, &again));
        assert_eq!(store.index_cache().stats().0, 1);

        // Reopen: the index survives; corruption then yields a typed error.
        drop(store);
        let store = Store::open(&dir).unwrap();
        let meta = store.table_meta("t").unwrap();
        let index = meta.segments[0].index.clone().unwrap();
        store.read_indexes(&index).unwrap();
        let path = store.dir.join(&index.file);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        store.index_cache().clear();
        let err = store.read_indexes(&index).unwrap_err();
        assert!(err.message.contains("checksum"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_mode_off_and_opt_outs_suppress_index_build() {
        let dir = std::env::temp_dir().join(format!("monomi-store-{}-noindex", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open_with(
            &dir,
            StoreOptions {
                index_mode: IndexMode::Off,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        store
            .create_table("t", vec![("x".into(), ColumnType::Int)])
            .unwrap();
        let mut load = store.begin_load("t");
        load.add_segment(&int_column(0..8)).unwrap();
        load.commit().unwrap();
        assert_eq!(store.table_meta("t").unwrap().segments[0].index, None);
        drop(store);

        // Same directory, indexes back on, but the column is opted out.
        let store = Store::open(&dir).unwrap();
        store
            .create_table_with("t2", vec![("x".into(), ColumnType::Int)], vec!["x".into()])
            .unwrap();
        let mut load = store.begin_load("t2");
        load.add_segment(&int_column(0..8)).unwrap();
        load.commit().unwrap();
        assert_eq!(store.table_meta("t2").unwrap().segments[0].index, None);
        // While "t" reloaded with default options does build one.
        let mut load = store.begin_load("t");
        load.add_segment(&int_column(8..16)).unwrap();
        load.commit().unwrap();
        let meta = store.table_meta("t").unwrap();
        assert_eq!(meta.segments[0].index, None); // historical segment
        assert!(meta.segments[1].index.is_some()); // new segment
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphaned_and_replaced_index_files_are_removed() {
        let (dir, store) = temp_store("idx-sweep");
        store
            .create_table("t", vec![("x".into(), ColumnType::Int)])
            .unwrap();
        // Simulated kill mid-load: both files stay behind, sweep removes both.
        let mut load = store.begin_load("t");
        load.add_segment(&int_column(0..8)).unwrap();
        let seg_file = store.dir.join(&load.pending[0].file);
        let idx_file = store
            .dir
            .join(&load.pending[0].index.as_ref().unwrap().file);
        assert!(seg_file.exists() && idx_file.exists());
        std::mem::forget(load);
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert!(!seg_file.exists() && !idx_file.exists());

        // Table replacement deletes committed index files.
        let mut load = store.begin_load("t");
        load.add_segment(&int_column(0..8)).unwrap();
        load.commit().unwrap();
        let meta = store.table_meta("t").unwrap();
        let idx_file = store
            .dir
            .join(&meta.segments[0].index.as_ref().unwrap().file);
        assert!(idx_file.exists());
        store
            .create_table("t", vec![("y".into(), ColumnType::Int)])
            .unwrap();
        assert!(!idx_file.exists());

        // An explicit abort (Drop) also removes staged index files.
        let mut load = store.begin_load("t");
        load.add_segment(&int_column(0..8)).unwrap();
        let idx_file = store
            .dir
            .join(&load.pending[0].index.as_ref().unwrap().file);
        assert!(idx_file.exists());
        drop(load);
        assert!(!idx_file.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_snapshot_taken_before_a_commit_is_unchanged_after_it() {
        let (dir, store) = temp_store("snapshot");
        store
            .create_table("t", vec![("x".into(), ColumnType::Int)])
            .unwrap();
        let mut load = store.begin_load("t");
        load.add_segment(&int_column(0..4)).unwrap();
        load.commit().unwrap();

        let before = store.snapshot();
        let frozen = (*before).clone();
        let mut load = store.begin_load("t");
        load.add_segment(&int_column(4..10)).unwrap();
        load.commit().unwrap();
        store
            .create_table("u", vec![("y".into(), ColumnType::Str)])
            .unwrap();

        assert_eq!(*before, frozen, "a held snapshot changed under its holder");
        assert_eq!(before.tables["t"].rows(), 4);
        assert!(!before.tables.contains_key("u"));
        let after = store.snapshot();
        assert_eq!(after.tables["t"].rows(), 10);
        assert_eq!(after.version, before.version + 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_commits_into_two_tables_lose_nothing() {
        const LOADS: i64 = 20;
        let (dir, store) = temp_store("two-writers");
        for table in ["a", "b"] {
            store
                .create_table(table, vec![("x".into(), ColumnType::Int)])
                .unwrap();
        }
        std::thread::scope(|scope| {
            for table in ["a", "b"] {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..LOADS {
                        let mut load = store.begin_load(table);
                        load.add_segment(&int_column(i * 3..i * 3 + 3)).unwrap();
                        load.commit().unwrap();
                    }
                });
            }
        });
        let check = |store: &Store| {
            for table in ["a", "b"] {
                let meta = store.table_meta(table).unwrap();
                assert_eq!(meta.segments.len(), LOADS as usize, "{table}");
                // Each writer's own commits keep their order.
                let firsts: Vec<Option<Value>> = meta
                    .segments
                    .iter()
                    .map(|s| s.zones[0].min.clone())
                    .collect();
                let expected: Vec<Option<Value>> =
                    (0..LOADS).map(|i| Some(Value::Int(i * 3))).collect();
                assert_eq!(firsts, expected, "{table}");
            }
        };
        check(&store);
        drop(store);
        check(&Store::open(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_durable_commit_leaves_the_published_snapshot_unchanged() {
        let (dir, store) = temp_store("failed-commit");
        store
            .create_table("t", vec![("x".into(), ColumnType::Int)])
            .unwrap();
        let published = store.snapshot();
        let on_disk = std::fs::read(store.manifest_path()).unwrap();
        // A directory where the commit's temp file goes makes its create fail.
        let blocker = dir.join("MANIFEST.tmp");
        std::fs::create_dir(&blocker).unwrap();

        let mut load = store.begin_load("t");
        load.add_segment(&int_column(0..8)).unwrap();
        assert!(load.commit().is_err());
        assert!(store
            .create_table("u", vec![("y".into(), ColumnType::Int)])
            .is_err());
        assert!(Arc::ptr_eq(&published, &store.snapshot()));
        assert_eq!(store.table_rows("t"), 0);
        assert_eq!(std::fs::read(store.manifest_path()).unwrap(), on_disk);

        // Once the obstacle is gone the same work commits.
        std::fs::remove_dir(&blocker).unwrap();
        let mut load = store.begin_load("t");
        load.add_segment(&int_column(0..8)).unwrap();
        load.commit().unwrap();
        assert_eq!(store.table_rows("t"), 8);
        assert_eq!(store.snapshot().version, published.version + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_segment_file_is_reported() {
        let (dir, store) = temp_store("corrupt");
        store
            .create_table("t", vec![("x".into(), ColumnType::Int)])
            .unwrap();
        let mut load = store.begin_load("t");
        load.add_segment(&int_column(0..64)).unwrap();
        load.commit().unwrap();
        let meta = store.table_meta("t").unwrap();
        let path = store.dir.join(&meta.segments[0].file);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
        let err = store.read_segment(&meta.segments[0]).unwrap_err();
        assert!(err.message.contains("checksum"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
