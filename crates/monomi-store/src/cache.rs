//! Byte-budgeted LRU caches for decoded store artifacts.
//!
//! Decoding a segment (checksum + per-column decode) is the expensive part of
//! a disk scan, so the store keeps decoded segments in memory under a byte
//! budget ([`DEFAULT_CACHE_BYTES`] unless the store's options say otherwise)
//! with least-recently-used eviction. Decoded per-segment index files get the
//! same treatment under their own budget ([`INDEX_CACHE_BYTES`]) so a burst
//! of index probes cannot evict the segments a concurrent scan needs.
//!
//! Both are the one generic [`ByteLru`]: entries are `Arc`-shared, so
//! eviction drops the cache's reference while in-flight readers holding the
//! `Arc` keep their data alive — nothing is ever invalidated under a reader.

use crate::index::SegmentIndexes;
use crate::store::SegmentData;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default segment-cache budget: 256 MiB.
pub const DEFAULT_CACHE_BYTES: usize = 256 << 20;
/// Index-cache budget: 64 MiB.
pub const INDEX_CACHE_BYTES: usize = 64 << 20;

/// How many bytes an entry occupies against a [`ByteLru`] budget.
pub trait CacheWeight {
    /// Approximate resident heap size of this entry.
    fn weight(&self) -> usize;
}

impl CacheWeight for SegmentData {
    fn weight(&self) -> usize {
        self.heap_bytes
    }
}

impl CacheWeight for SegmentIndexes {
    fn weight(&self) -> usize {
        self.heap_bytes
    }
}

struct Entry<T> {
    data: Arc<T>,
    /// Monotonic tick of the last access (higher = more recent).
    last_used: u64,
}

struct Inner<T> {
    entries: HashMap<String, Entry<T>>,
    resident_bytes: usize,
    tick: u64,
}

/// A byte-budgeted LRU cache mapping file names to decoded artifacts.
pub struct ByteLru<T> {
    budget_bytes: usize,
    inner: Mutex<Inner<T>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The decoded-segment cache.
pub type SegmentCache = ByteLru<SegmentData>;

impl<T: CacheWeight> ByteLru<T> {
    /// A cache with an explicit byte budget.
    pub fn with_budget(budget_bytes: usize) -> ByteLru<T> {
        ByteLru {
            budget_bytes,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                resident_bytes: 0,
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The configured budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().resident_bytes
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Drops every cached entry (used by benchmarks to measure cold scans).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.resident_bytes = 0;
    }

    /// Returns the cached entry for `file`, or decodes it with `load` and
    /// caches the result. Concurrent misses on the same file may both run
    /// `load`; last insert wins — acceptable duplicated work, never wrong
    /// data (segment and index files are write-once).
    pub fn get_or_load<E>(
        &self,
        file: &str,
        load: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.entries.get_mut(file) {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&entry.data));
            }
        }
        // Decode outside the lock: a big entry must not stall cache hits.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let data = Arc::new(load()?);
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let bytes = data.weight();
        if inner
            .entries
            .insert(
                file.to_string(),
                Entry {
                    data: Arc::clone(&data),
                    last_used: tick,
                },
            )
            .is_none()
        {
            inner.resident_bytes += bytes;
        }
        // Evict least-recently-used entries until within budget (the newest
        // entry may itself be evicted if it alone exceeds the budget — the
        // caller still holds its Arc, so oversized loads degrade to
        // cache-bypass instead of pinning the budget).
        while inner.resident_bytes > self.budget_bytes {
            let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(entry) = inner.entries.remove(&victim) {
                inner.resident_bytes -= entry.data.weight();
            }
        }
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{decode_segment_indexes, encode_segment_indexes, IndexMode};
    use crate::{ColumnType, Value};

    fn segment(rows: usize) -> SegmentData {
        SegmentData::new(vec![vec![Value::Int(7); rows]])
    }

    #[test]
    fn hits_return_the_cached_arc_and_count() {
        let cache = SegmentCache::with_budget(1 << 20);
        let a = cache.get_or_load::<()>("s1", || Ok(segment(10))).unwrap();
        let b = cache
            .get_or_load::<()>("s1", || panic!("must not reload"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let one = segment(100).heap_bytes;
        let cache = SegmentCache::with_budget(one * 2);
        cache.get_or_load::<()>("a", || Ok(segment(100))).unwrap();
        cache.get_or_load::<()>("b", || Ok(segment(100))).unwrap();
        // Touch "a" so "b" is the LRU victim when "c" arrives.
        cache.get_or_load::<()>("a", || panic!("cached")).unwrap();
        cache.get_or_load::<()>("c", || Ok(segment(100))).unwrap();
        assert!(cache.resident_bytes() <= one * 2);
        // "a" survived (it was touched after "b" went in)...
        cache.get_or_load::<()>("a", || panic!("cached")).unwrap();
        // ...while "b" was evicted: loading it again is a miss.
        let misses_before = cache.stats().1;
        cache.get_or_load::<()>("b", || Ok(segment(100))).unwrap();
        assert_eq!(cache.stats().1, misses_before + 1);
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = SegmentCache::with_budget(1 << 20);
        cache.get_or_load::<()>("a", || Ok(segment(4))).unwrap();
        assert!(cache.resident_bytes() > 0);
        cache.clear();
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn index_cache_shares_the_lru_machinery() {
        let schema = vec![("k".to_string(), ColumnType::Int)];
        let make = || {
            let enc = encode_segment_indexes(
                &schema,
                &[],
                IndexMode::All,
                &[vec![Value::Int(1), Value::Int(2)]],
            )
            .unwrap();
            decode_segment_indexes(&enc.bytes, None).unwrap()
        };
        let cache: ByteLru<SegmentIndexes> = ByteLru::with_budget(1 << 20);
        let a = cache.get_or_load::<()>("s1.idx", || Ok(make())).unwrap();
        let b = cache
            .get_or_load::<()>("s1.idx", || panic!("must not reload"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(cache.resident_bytes() > 0);
        assert_eq!(cache.stats(), (1, 1));
    }
}
