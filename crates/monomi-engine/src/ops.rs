//! The physical operator pipeline and its morsel-driven parallel driver.
//!
//! The executor composes the operators defined here — [`ScanFilter`],
//! [`RowFilter`], [`HashJoin`], [`CrossJoin`], [`MorselAggregate`] (partial
//! aggregation + merge), [`Sort`] — instead of a chain of free functions.
//! Operators consume columnar morsels: fixed-size row ranges ([`Morsel`]) of a
//! [`ColumnBatch`](crate::storage::ColumnBatch) or of a materialized relation.
//!
//! # Morsel-driven parallelism
//!
//! [`run_morsels`] drives an operator over all morsels of its input with a
//! pool of `std::thread::scope` workers that claim morsels from a shared
//! atomic counter (the HyPer/DuckDB execution model). Workers keep their
//! results tagged with the morsel index; the driver reassembles them **in
//! partition order**, which is what makes parallel execution deterministic:
//!
//! * filtered/materialized rows are concatenated in morsel order — identical
//!   to the serial scan;
//! * aggregation partials are merged in morsel order, so float sums reassociate
//!   the same way at every thread count (partition boundaries depend only on
//!   [`ExecOptions::morsel_rows`], never on the thread count) and group output
//!   order is the first-encounter order over the concatenated partitions —
//!   exactly the serial order;
//! * encrypted `paillier_sum` partials combine through
//!   [`monomi_crypto::PaillierSum::merge`] (one CIOS multiply), which is exact
//!   modular arithmetic and therefore byte-identical under any partitioning.
//!
//! The same morsel partitioning runs at `threads = 1` (just without spawning),
//! so results are bit-identical at *any* thread count, not merely "close".

use crate::database::{Database, PaillierServerCtx};
use crate::expr::{apply_predicate, eval, ColumnarPredicate, EvalContext, RowSchema, SubqueryFn};
use crate::storage::{ColumnBatch, SelectionVector};
use crate::value::Value;
use crate::EngineError;
use monomi_crypto::PaillierSum;
use monomi_math::BigUint;
use monomi_sql::ast::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default number of rows per morsel. Small enough that a handful of morsels
/// exist even at test scales, large enough that per-morsel overhead (hash map
/// setup, selection vector) is amortized.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

/// Execution options for one query: worker thread count and morsel
/// granularity.
///
/// Results are bit-identical for every `threads` value; `morsel_rows` controls
/// the (deterministic) partition boundaries partial aggregates reassociate at,
/// so changing it may flip the last ulp of float sums.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecOptions {
    /// Number of worker threads parallel operators may engage (≥ 1; 1 means
    /// fully serial execution).
    pub threads: usize,
    /// Rows per morsel (≥ 1).
    pub morsel_rows: usize,
    /// Which secondary-index kinds the planner may probe. Purely an access
    /// path choice: results are byte-identical in every mode.
    pub index_mode: monomi_store::IndexMode,
}

impl ExecOptions {
    /// Reads options from the environment: `MONOMI_THREADS` (default: all
    /// available cores), `MONOMI_MORSEL_ROWS` (default
    /// [`DEFAULT_MORSEL_ROWS`]), and `MONOMI_INDEXES` (default `all`).
    pub fn from_env() -> Self {
        // Env parsing goes through the shared `env_knob` helper (reject with a
        // logged warning on malformed values, never a silent fallback). The
        // knobs are resolved once at setup, before execution; they size the
        // thread pool, the partitioning, and the access-path choice — never
        // the result bytes.
        // monomi-lint: allow(determinism-clock-env): parallelism probe only picks a thread count; results are byte-identical at every thread count
        let default_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ExecOptions {
            threads: monomi_store::env_knob("MONOMI_THREADS", default_threads, |&n| n >= 1),
            morsel_rows: monomi_store::env_knob("MONOMI_MORSEL_ROWS", DEFAULT_MORSEL_ROWS, |&n| {
                n >= 1
            }),
            index_mode: monomi_store::IndexMode::from_env(),
        }
    }

    /// The environment-derived options, sampled once per process and cached —
    /// the default for [`Database::execute`](crate::Database::execute), which
    /// would otherwise re-read two env vars and `available_parallelism` on
    /// every query. Use [`from_env`](Self::from_env) to re-sample.
    pub fn env_cached() -> Self {
        static CACHED: std::sync::OnceLock<ExecOptions> = std::sync::OnceLock::new();
        *CACHED.get_or_init(Self::from_env)
    }

    /// Options with an explicit thread count, the default morsel size, and
    /// the environment-selected index mode.
    pub fn with_threads(threads: usize) -> Self {
        ExecOptions {
            threads: threads.max(1),
            morsel_rows: DEFAULT_MORSEL_ROWS,
            index_mode: monomi_store::IndexMode::from_env(),
        }
    }

    /// These options with an explicit index mode (benchmarks compare access
    /// paths in one process this way, without racing on the environment).
    pub fn with_index_mode(self, index_mode: monomi_store::IndexMode) -> Self {
        ExecOptions { index_mode, ..self }
    }

    /// Fully serial execution (one thread).
    pub fn serial() -> Self {
        Self::with_threads(1)
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self::from_env()
    }
}

/// A fixed row range of an operator's input: the unit of work a worker claims.
#[derive(Clone, Copy, Debug)]
pub struct Morsel {
    /// Position of this morsel in the partition order.
    pub index: usize,
    /// First row (inclusive).
    pub start: usize,
    /// One past the last row.
    pub end: usize,
}

impl Morsel {
    /// Number of rows in the morsel.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the morsel covers no rows.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Work accounting for one parallel (or serial morsel-loop) region.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ParallelMetrics {
    /// Morsels processed.
    pub morsels: u64,
    /// Workers engaged (1 for a serial region).
    pub threads_used: u32,
    /// Wall-clock residency summed across all workers, scheduled or not.
    /// std has no portable thread-CPU clock, so on oversubscribed hosts
    /// (threads > cores) this is an upper bound on the CPU actually burned.
    pub worker_busy_nanos: u64,
    /// Wall-clock time of the region.
    pub wall_nanos: u64,
}

fn morsels_of(total_rows: usize, morsel_rows: usize) -> Vec<Morsel> {
    let morsel_rows = morsel_rows.max(1);
    (0..total_rows.div_ceil(morsel_rows))
        .map(|index| Morsel {
            index,
            start: index * morsel_rows,
            end: ((index + 1) * morsel_rows).min(total_rows),
        })
        .collect()
}

/// Runs `f` over every morsel sequentially, in partition order. Used directly
/// when the per-morsel work needs context a worker thread cannot share (e.g.
/// a subquery callback), and by [`run_morsels`] for the single-thread case —
/// both paths see the *same* partition boundaries, which is what keeps results
/// identical at every thread count.
pub(crate) fn run_morsels_serial<T>(
    total_rows: usize,
    morsel_rows: usize,
    mut f: impl FnMut(Morsel) -> Result<T, EngineError>,
) -> Result<(Vec<T>, ParallelMetrics), EngineError> {
    let morsels = morsels_of(total_rows, morsel_rows);
    // monomi-lint: allow(determinism-clock-env): wall-clock feeds ParallelMetrics only, never operator output
    let start = Instant::now();
    let mut out = Vec::with_capacity(morsels.len());
    for m in &morsels {
        out.push(f(*m)?);
    }
    let nanos = start.elapsed().as_nanos() as u64;
    Ok((
        out,
        ParallelMetrics {
            morsels: morsels.len() as u64,
            threads_used: 1,
            worker_busy_nanos: nanos,
            wall_nanos: nanos,
        },
    ))
}

/// Runs `f` over every morsel with up to `opts.threads` scoped worker threads
/// claiming morsels from a shared counter. Results come back in partition
/// order regardless of which worker produced them; on failure the error of the
/// lowest-indexed failing morsel is returned (matching what the serial loop
/// would have hit first).
pub(crate) fn run_morsels<T: Send>(
    total_rows: usize,
    opts: &ExecOptions,
    f: impl Fn(Morsel) -> Result<T, EngineError> + Sync,
) -> Result<(Vec<T>, ParallelMetrics), EngineError> {
    let morsels = morsels_of(total_rows, opts.morsel_rows);
    let threads = opts.threads.min(morsels.len());
    if threads <= 1 {
        return run_morsels_serial(total_rows, opts.morsel_rows, f);
    }

    // monomi-lint: allow(determinism-clock-env): wall-clock feeds ParallelMetrics only, never operator output
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    // Lowest morsel index known to have failed; claims beyond it are wasted
    // work (its error decides the outcome), so workers stop at the frontier.
    let error_floor = AtomicUsize::new(usize::MAX);
    let morsels = &morsels;
    let f = &f;
    let (mut tagged, worker_busy_nanos) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let error_floor = &error_floor;
                scope.spawn(move || {
                    // monomi-lint: allow(determinism-clock-env): per-worker busy time feeds ParallelMetrics only, never operator output
                    let busy = Instant::now();
                    let mut local: Vec<(usize, Result<T, EngineError>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        // Claims are issued in ascending order, so every index
                        // below a claimed one has been claimed and will run to
                        // completion: the lowest-indexed erroring morsel — the
                        // one the serial loop would hit first — is always
                        // processed and reported, even though claiming stops
                        // past the current error floor.
                        if i >= morsels.len() || i > error_floor.load(Ordering::Relaxed) {
                            break;
                        }
                        let result = f(morsels[i]);
                        let failed = result.is_err();
                        if failed {
                            error_floor.fetch_min(i, Ordering::Relaxed);
                        }
                        local.push((i, result));
                        if failed {
                            break;
                        }
                    }
                    (local, busy.elapsed().as_nanos() as u64)
                })
            })
            .collect();
        let mut tagged: Vec<(usize, Result<T, EngineError>)> = Vec::with_capacity(morsels.len());
        let mut cpu = 0u64;
        for handle in handles {
            match handle.join() {
                Ok((local, nanos)) => {
                    tagged.extend(local);
                    cpu += nanos;
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        (tagged, cpu)
    });

    tagged.sort_by_key(|(i, _)| *i);
    // After a failure, later morsels may be missing (failed workers stop
    // claiming); the lowest-indexed error decides the outcome either way.
    let mut out = Vec::with_capacity(tagged.len());
    for (_, result) in tagged {
        out.push(result?);
    }
    Ok((
        out,
        ParallelMetrics {
            morsels: morsels.len() as u64,
            threads_used: threads as u32,
            worker_busy_nanos,
            wall_nanos: start.elapsed().as_nanos() as u64,
        },
    ))
}

/// An intermediate relation flowing between operators: a row schema plus
/// materialized rows.
#[derive(Clone, Debug)]
pub(crate) struct Relation {
    pub schema: RowSchema,
    pub rows: Vec<Vec<Value>>,
}

/// Per-partition output of a [`ScanFilter`].
pub(crate) struct ScanMorselOut {
    pub rows: Vec<Vec<Value>>,
    pub rows_scanned: u64,
    pub bytes_scanned: u64,
    pub bytes_materialized: u64,
    /// 1 when this partition was a segment the scan decoded.
    pub segments_read: u64,
    /// 1 when this partition was a segment the zone map (or an index probe
    /// returning zero postings) skipped.
    pub segments_pruned: u64,
    /// Index postings lookups executed for this partition.
    pub index_probes: u64,
    /// Row ids the executed probes returned (before intersection).
    pub index_rows_fetched: u64,
    /// Bytes of postings the executed probes touched.
    pub postings_bytes_read: u64,
}

/// One index-eligible probe a predicate conjunct compiled to. Every probe is
/// a *superset contract*: the postings it returns must contain every row the
/// conjunct accepts (NULL rows excepted — comparison predicates are never
/// true of NULL), because the scan seeds its selection from them. The full
/// predicate list still runs over the seed, so a probe can only narrow work,
/// never change results.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum ProbeOp {
    /// `col = const` — served by DET and OPE blocks.
    Eq(Value),
    /// `col IN (consts)` — served by DET and OPE blocks.
    InList(Vec<Value>),
    /// `col </<=/>/>= const`, `BETWEEN` — OPE blocks only (needs order);
    /// each bound is `(value, inclusive)`, `None` = unbounded.
    Range {
        low: Option<(Value, bool)>,
        high: Option<(Value, bool)>,
    },
}

/// An index probe planned for one scan: which column to look up and how.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct IndexProbe {
    /// Schema column name, as recorded in the store catalog's index metadata.
    pub column: String,
    pub op: ProbeOp,
}

/// Intersection of two ascending row-id lists (conjuncts AND together).
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(x);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Scan + Filter: evaluates compiled single-table predicates over the column
/// slices of one base-table partition and late-materializes the survivors'
/// referenced columns. The only operator that reads base-table storage.
///
/// Partitioning comes from [`Table::scan_plan`]: one *segment-aligned*
/// partition per committed segment, then fixed morsel-row ranges over the
/// in-memory tail. Before a segment partition is decoded, its zone map is
/// consulted ([`zone_may_match`](crate::expr::zone_may_match)) — a segment no
/// row of which can satisfy the conjuncts is skipped entirely, contributing
/// neither rows nor bytes to the scan counters (it was never read). Pruning
/// is result-invisible: skipping is exactly equivalent to evaluating the
/// predicates and finding zero survivors, so results do not depend on which
/// rows are committed and which are in the tail.
pub(crate) struct ScanFilter<'a> {
    pub table: &'a crate::storage::Table,
    /// The catalog version the statement pinned: the segments scanned.
    pub catalog: Option<&'a monomi_store::Manifest>,
    pub schema: &'a RowSchema,
    /// Compiled scan-level conjuncts, applied as successive narrowing passes.
    pub predicates: &'a [ColumnarPredicate],
    /// Index probes the planner extracted from the conjuncts (empty = plain
    /// scan). Probed segments seed their selection from the intersected
    /// postings instead of all rows; every predicate still runs over the
    /// seed, so results are byte-identical to the scan path.
    pub probes: &'a [IndexProbe],
    /// Which index kinds may be probed (`MONOMI_INDEXES` via [`ExecOptions`]).
    pub index_mode: monomi_store::IndexMode,
    /// Column indices to materialize for surviving rows.
    pub keep: &'a [usize],
    pub params: &'a [Value],
    pub outer: Option<(&'a RowSchema, &'a [Value])>,
}

impl ScanFilter<'_> {
    /// Filters one batch (a morsel range or a whole decoded segment) and
    /// late-materializes the survivors.
    fn filter_batch(
        &self,
        batch: &ColumnBatch<'_>,
        mut selection: SelectionVector,
    ) -> Result<(Vec<Vec<Value>>, u64), EngineError> {
        // Scan predicates never contain subqueries (the executor checks before
        // compiling), so no subquery callback is needed — which is what makes
        // this closure shareable across worker threads.
        let ctx = EvalContext {
            params: self.params,
            aggregates: None,
            subquery: None,
            outer: self.outer,
        };
        for pred in self.predicates {
            if selection.is_empty() {
                break;
            }
            selection = apply_predicate(pred, batch, &selection, self.schema, &ctx)?;
        }
        let rows = batch.gather(&selection, self.keep);
        let bytes_materialized: usize = rows
            .iter()
            .map(|r| r.iter().map(Value::size_bytes).sum::<usize>())
            .sum();
        Ok((rows, bytes_materialized as u64))
    }

    fn run_partition(
        &self,
        plan: &crate::storage::ScanPlan<'_>,
        partition: crate::storage::ScanPartition,
    ) -> Result<ScanMorselOut, EngineError> {
        use crate::storage::ScanPartition;
        match partition {
            ScanPartition::Range { start, end } => {
                // Tail rows are in memory: logical bytes.
                let batch = self.table.tail_batch();
                let bytes_scanned: usize = (0..batch.column_count())
                    .map(|c| {
                        batch.column(c)[start..end]
                            .iter()
                            .map(Value::size_bytes)
                            .sum::<usize>()
                    })
                    .sum();
                let (rows, bytes_materialized) =
                    self.filter_batch(&batch, SelectionVector::range(start, end))?;
                Ok(ScanMorselOut {
                    rows,
                    rows_scanned: (end - start) as u64,
                    bytes_scanned: bytes_scanned as u64,
                    bytes_materialized,
                    segments_read: 0,
                    segments_pruned: 0,
                    index_probes: 0,
                    index_rows_fetched: 0,
                    postings_bytes_read: 0,
                })
            }
            ScanPartition::Segment(idx) => {
                let meta = &plan.segments[idx];
                // Zone-map check before touching the file: if no row of the
                // segment can satisfy the conjuncts, skip it unread.
                if !self
                    .predicates
                    .iter()
                    .all(|p| crate::expr::zone_may_match(p, &meta.zones, meta.rows))
                {
                    return Ok(ScanMorselOut {
                        rows: Vec::new(),
                        rows_scanned: 0,
                        bytes_scanned: 0,
                        bytes_materialized: 0,
                        segments_read: 0,
                        segments_pruned: 1,
                        index_probes: 0,
                        index_rows_fetched: 0,
                        postings_bytes_read: 0,
                    });
                }
                // Index probes: intersect postings across probeable conjuncts
                // into a seed selection. A missing, ineligible, or unreadable
                // index leaves `seed` at None — the plain full-segment scan.
                let (mut index_probes, mut index_rows_fetched, mut postings_bytes_read) =
                    (0u64, 0u64, 0u64);
                let mut seed: Option<Vec<u32>> = None;
                if !self.probes.is_empty() {
                    if let Some(indexes) = self.table.segment_indexes(meta) {
                        for probe in self.probes {
                            let Some(block) = indexes.block(&probe.column) else {
                                continue;
                            };
                            if !self.index_mode.allows(block.kind) || block.rows != meta.rows as u32
                            {
                                continue;
                            }
                            let ids: Vec<u32> = match &probe.op {
                                ProbeOp::Eq(v) => block.postings_eq(v).to_vec(),
                                ProbeOp::InList(vs) => block.postings_in(vs),
                                ProbeOp::Range { low, high } => {
                                    if block.kind != monomi_store::IndexKind::Ope {
                                        continue;
                                    }
                                    block.postings_range(
                                        low.as_ref().map(|(v, incl)| (v, *incl)),
                                        high.as_ref().map(|(v, incl)| (v, *incl)),
                                    )
                                }
                            };
                            index_probes += 1;
                            index_rows_fetched += ids.len() as u64;
                            postings_bytes_read += 4 * ids.len() as u64;
                            seed = Some(match seed.take() {
                                None => ids,
                                Some(prev) => intersect_sorted(&prev, &ids),
                            });
                            if seed.as_ref().is_some_and(Vec::is_empty) {
                                break;
                            }
                        }
                    }
                }
                if seed.as_ref().is_some_and(Vec::is_empty) {
                    // The intersection is empty: no row can survive, so the
                    // segment is never decoded — index-pruned, like a zone
                    // miss (equally result-invisible).
                    return Ok(ScanMorselOut {
                        rows: Vec::new(),
                        rows_scanned: 0,
                        bytes_scanned: 0,
                        bytes_materialized: 0,
                        segments_read: 0,
                        segments_pruned: 1,
                        index_probes,
                        index_rows_fetched,
                        postings_bytes_read,
                    });
                }
                let data = self.table.read_segment(meta).map_err(EngineError::new)?;
                let batch = ColumnBatch::new(&data.columns, data.rows);
                let (selection, rows_scanned) = match seed {
                    Some(ids) => {
                        let seeded = ids.len() as u64;
                        (SelectionVector::from_indices(ids), seeded)
                    }
                    None => (SelectionVector::all(data.rows), meta.rows),
                };
                let (rows, bytes_materialized) = self.filter_batch(&batch, selection)?;
                Ok(ScanMorselOut {
                    rows,
                    rows_scanned,
                    // Stored (encoded) bytes: the real disk read this segment
                    // costs, cached or not.
                    bytes_scanned: meta.stored_bytes,
                    bytes_materialized,
                    segments_read: 1,
                    segments_pruned: 0,
                    index_probes,
                    index_rows_fetched,
                    postings_bytes_read,
                })
            }
        }
    }

    /// Runs the scan over all partitions (parallel when `opts.threads > 1`),
    /// concatenating survivors in partition order.
    pub fn execute(
        &self,
        opts: &ExecOptions,
    ) -> Result<(Vec<Vec<Value>>, crate::exec::ExecStats), EngineError> {
        let plan = self.table.scan_plan(opts.morsel_rows, self.catalog);
        // One claim per partition: partitions already embody the segment
        // alignment or the morsel granularity (tail ranges).
        let claim_opts = ExecOptions {
            morsel_rows: 1,
            ..*opts
        };
        let (parts, metrics) = run_morsels(plan.partitions.len(), &claim_opts, |m| {
            self.run_partition(&plan, plan.partitions[m.index])
        })?;
        let mut stats = crate::exec::ExecStats::default();
        stats.note_parallel(&metrics);
        let total: usize = parts.iter().map(|p| p.rows.len()).sum();
        let mut rows = Vec::with_capacity(total);
        for part in parts {
            stats.rows_scanned += part.rows_scanned;
            stats.bytes_scanned += part.bytes_scanned;
            stats.rows_materialized += part.rows.len() as u64;
            stats.bytes_materialized += part.bytes_materialized;
            stats.segments_read += part.segments_read;
            stats.segments_pruned += part.segments_pruned;
            stats.index_probes += part.index_probes;
            stats.index_rows_fetched += part.index_rows_fetched;
            stats.postings_bytes_read += part.postings_bytes_read;
            rows.extend(part.rows);
        }
        Ok((rows, stats))
    }
}

/// Filter: row-at-a-time predicate evaluation over a materialized relation
/// (residual conjuncts joins could not consume, subquery-bearing predicates).
/// Subquery-free predicates run morsel-parallel; predicates with subqueries
/// fall back to the serial morsel loop with the recursive callback.
pub(crate) struct RowFilter<'a> {
    pub schema: &'a RowSchema,
    pub predicate: &'a Expr,
    pub params: &'a [Value],
    pub outer: Option<(&'a RowSchema, &'a [Value])>,
}

impl RowFilter<'_> {
    pub fn execute(
        &self,
        rows: Vec<Vec<Value>>,
        opts: &ExecOptions,
        subquery: Option<SubqueryFn<'_>>,
    ) -> Result<(Vec<Vec<Value>>, ParallelMetrics), EngineError> {
        let keep_of =
            |m: Morsel, subquery: Option<SubqueryFn<'_>>| -> Result<Vec<bool>, EngineError> {
                let ctx = EvalContext {
                    params: self.params,
                    aggregates: None,
                    subquery,
                    outer: self.outer,
                };
                rows[m.start..m.end]
                    .iter()
                    .map(|row| {
                        eval(self.predicate, self.schema, row, &ctx)
                            .map(|v| v.as_bool().unwrap_or(false))
                    })
                    .collect()
            };
        let (parts, metrics) = if self.predicate.contains_subquery() {
            run_morsels_serial(rows.len(), opts.morsel_rows, |m| keep_of(m, subquery))?
        } else {
            run_morsels(rows.len(), opts, |m| keep_of(m, None))?
        };
        let keep: Vec<bool> = parts.into_iter().flatten().collect();
        let filtered: Vec<Vec<Value>> = rows
            .into_iter()
            .zip(keep)
            .filter_map(|(row, k)| k.then_some(row))
            .collect();
        Ok((filtered, metrics))
    }
}

/// Cross join (no equi-join keys found): the L×R concatenation, streamed with
/// an exact reservation.
pub(crate) struct CrossJoin;

impl CrossJoin {
    pub fn execute(left: &Relation, right: &Relation) -> Relation {
        let schema = left.schema.concat(&right.schema);
        let mut rows = Vec::with_capacity(left.rows.len().saturating_mul(right.rows.len()));
        for l in &left.rows {
            for r in &right.rows {
                let mut row = Vec::with_capacity(l.len() + r.len());
                row.extend(l.iter().cloned());
                row.extend(r.iter().cloned());
                rows.push(row);
            }
        }
        Relation { schema, rows }
    }
}

/// Hash join on equality keys: serial build over the right side, morsel-
/// parallel probe over the left. Rows with a NULL join key are dropped on both
/// sides: SQL equi-join predicates are never *true* for NULL keys
/// (`NULL = NULL` is NULL), so keeping them would invent matches through
/// `Value`'s reflexive `Eq`.
pub(crate) struct HashJoin<'a> {
    /// `(left_key_expr, right_key_expr)` pairs, oriented accumulator-first.
    pub keys: &'a [(Expr, Expr)],
    pub params: &'a [Value],
    pub outer: Option<(&'a RowSchema, &'a [Value])>,
}

impl HashJoin<'_> {
    pub fn execute(
        &self,
        left: &Relation,
        right: &Relation,
        opts: &ExecOptions,
    ) -> Result<(Relation, ParallelMetrics), EngineError> {
        let ctx = EvalContext {
            params: self.params,
            aggregates: None,
            subquery: None,
            outer: self.outer,
        };
        // Build phase.
        let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (idx, row) in right.rows.iter().enumerate() {
            let key: Vec<Value> = self
                .keys
                .iter()
                .map(|(_, r)| eval(r, &right.schema, row, &ctx))
                .collect::<Result<_, _>>()?;
            if key.iter().any(Value::is_null) {
                continue;
            }
            table.entry(key).or_default().push(idx);
        }
        // Probe phase: morsels over the left rows, output concatenated in
        // partition order (which preserves the serial left-then-right-index
        // emission order).
        let table = &table;
        let (parts, metrics) = run_morsels(left.rows.len(), opts, |m| {
            let ctx = EvalContext {
                params: self.params,
                aggregates: None,
                subquery: None,
                outer: self.outer,
            };
            let mut out: Vec<Vec<Value>> = Vec::new();
            for lrow in &left.rows[m.start..m.end] {
                let key: Vec<Value> = self
                    .keys
                    .iter()
                    .map(|(l, _)| eval(l, &left.schema, lrow, &ctx))
                    .collect::<Result<_, _>>()?;
                if key.iter().any(Value::is_null) {
                    continue;
                }
                if let Some(matches) = table.get(&key) {
                    for &ridx in matches {
                        let rrow = &right.rows[ridx];
                        let mut row = Vec::with_capacity(lrow.len() + rrow.len());
                        row.extend(lrow.iter().cloned());
                        row.extend(rrow.iter().cloned());
                        out.push(row);
                    }
                }
            }
            Ok(out)
        })?;
        let schema = left.schema.concat(&right.schema);
        let rows: Vec<Vec<Value>> = parts.into_iter().flatten().collect();
        Ok((Relation { schema, rows }, metrics))
    }
}

/// Sort: orders rows by their precomputed ORDER BY keys (stable, so ties keep
/// their input order).
pub(crate) struct Sort<'a> {
    pub order_by: &'a [OrderByItem],
}

impl Sort<'_> {
    pub fn execute(&self, rows: Vec<Vec<Value>>, sort_keys: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        let mut indexed: Vec<(Vec<Value>, Vec<Value>)> = sort_keys.into_iter().zip(rows).collect();
        indexed.sort_by(|(ka, _), (kb, _)| {
            for (i, ob) in self.order_by.iter().enumerate() {
                let ord = ka[i].compare(&kb[i]);
                let ord = if ob.desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        indexed.into_iter().map(|(_, r)| r).collect()
    }
}

/// One aggregate expression, pre-analyzed for the per-row update loop.
pub(crate) struct AggSpec {
    /// The aggregate expression node (the key HAVING/projections resolve).
    pub expr: Expr,
    /// Its argument expression, if any.
    pub arg: Option<Expr>,
    /// `COUNT(*)`: update with no argument value.
    pub count_star: bool,
}

impl AggSpec {
    pub fn of(expr: &Expr) -> AggSpec {
        let arg = match expr {
            Expr::Aggregate { arg, .. } => arg.as_deref().cloned(),
            Expr::Function { args, .. } => args.first().cloned(),
            _ => None,
        };
        let count_star = matches!(
            expr,
            Expr::Aggregate {
                func: AggFunc::Count,
                arg: None,
                ..
            }
        );
        AggSpec {
            expr: expr.clone(),
            arg,
            count_star,
        }
    }

    /// True when the per-row update needs a subquery callback (which forces
    /// the serial morsel loop).
    pub fn needs_subquery(&self) -> bool {
        self.arg.as_ref().is_some_and(Expr::contains_subquery)
    }
}

/// State for one aggregate over one group. Partial states over disjoint row
/// ranges combine with [`merge`](Self::merge); merging in partition order
/// reproduces the serial accumulation exactly (see the module docs).
pub(crate) enum AggState {
    Sum {
        total_i: i64,
        total_f: f64,
        any_float: bool,
        count: u64,
    },
    Avg {
        total: f64,
        count: u64,
    },
    Count {
        count: u64,
        distinct: Option<std::collections::HashSet<Value>>,
    },
    MinMax {
        best: Option<Value>,
        is_min: bool,
    },
    PaillierSum {
        /// Montgomery-resident drifting accumulator (see
        /// [`monomi_crypto::PaillierSum`]); each row is one in-place CIOS
        /// multiply, each partial-merge is one more.
        sum: PaillierSum,
        /// Shared modulus + Montgomery context, built once at
        /// `register_paillier_modulus` time.
        paillier: Arc<PaillierServerCtx>,
        /// Reusable parse buffer for the incoming ciphertext bytes.
        operand: BigUint,
    },
    GroupConcat {
        values: Vec<Value>,
    },
}

impl AggState {
    pub fn new(expr: &Expr, db: &Database) -> Result<Self, EngineError> {
        match expr {
            Expr::Aggregate { func, distinct, .. } => Ok(match func {
                AggFunc::Sum => AggState::Sum {
                    total_i: 0,
                    total_f: 0.0,
                    any_float: false,
                    count: 0,
                },
                AggFunc::Avg => AggState::Avg {
                    total: 0.0,
                    count: 0,
                },
                AggFunc::Count => AggState::Count {
                    count: 0,
                    distinct: if *distinct {
                        Some(Default::default())
                    } else {
                        None
                    },
                },
                AggFunc::Min => AggState::MinMax {
                    best: None,
                    is_min: true,
                },
                AggFunc::Max => AggState::MinMax {
                    best: None,
                    is_min: false,
                },
            }),
            Expr::Function { name, .. } if name == "paillier_sum" => {
                let paillier = db.paillier_ctx().cloned().ok_or_else(|| {
                    EngineError::new("paillier_sum requires a registered public modulus")
                })?;
                Ok(AggState::PaillierSum {
                    sum: PaillierSum::new(paillier.ctx()),
                    operand: BigUint::zero(),
                    paillier,
                })
            }
            Expr::Function { name, .. } if name == "group_concat" => {
                Ok(AggState::GroupConcat { values: Vec::new() })
            }
            other => Err(EngineError::new(format!("not an aggregate: {other}"))),
        }
    }

    pub fn update(&mut self, value: Option<Value>) {
        match self {
            AggState::Sum {
                total_i,
                total_f,
                any_float,
                count,
            } => {
                if let Some(v) = value {
                    if v.is_null() {
                        return;
                    }
                    match v {
                        Value::Float(f) => {
                            *any_float = true;
                            *total_f += f;
                        }
                        other => {
                            if let Some(i) = other.as_int() {
                                *total_i += i;
                                *total_f += i as f64;
                            }
                        }
                    }
                    *count += 1;
                }
            }
            AggState::Avg { total, count } => {
                if let Some(v) = value {
                    if let Some(f) = v.as_float() {
                        *total += f;
                        *count += 1;
                    }
                }
            }
            AggState::Count { count, distinct } => match value {
                None => *count += 1, // COUNT(*)
                Some(v) => {
                    if v.is_null() {
                        return;
                    }
                    match distinct {
                        Some(set) => {
                            if set.insert(v) {
                                *count += 1;
                            }
                        }
                        None => *count += 1,
                    }
                }
            },
            AggState::MinMax { best, is_min } => {
                if let Some(v) = value {
                    if v.is_null() {
                        return;
                    }
                    let better = match best {
                        None => true,
                        Some(b) => {
                            if *is_min {
                                v < *b
                            } else {
                                v > *b
                            }
                        }
                    };
                    if better {
                        *best = Some(v);
                    }
                }
            }
            AggState::PaillierSum {
                sum,
                paillier,
                operand,
            } => {
                if let Some(Value::Bytes(ct)) = value {
                    operand.assign_from_bytes_be(&ct);
                    // The paper's §5.3 cost: one modular multiplication per
                    // row, here a single allocation-free CIOS pass (oversized
                    // operands are reduced defensively inside `add`).
                    sum.add(paillier.ctx(), operand);
                }
            }
            AggState::GroupConcat { values } => {
                if let Some(v) = value {
                    values.push(v);
                }
            }
        }
    }

    /// Folds another partial state (covering a *later* row range) into this
    /// one. Merging in partition order reproduces the serial result exactly:
    /// integer and modular arithmetic are order-insensitive, float partials
    /// reassociate at fixed morsel boundaries, and first-encounter data
    /// (MIN/MAX ties, group_concat order) keeps the earlier partition's view.
    pub fn merge(&mut self, other: AggState) {
        match (self, other) {
            (
                AggState::Sum {
                    total_i,
                    total_f,
                    any_float,
                    count,
                },
                AggState::Sum {
                    total_i: oi,
                    total_f: of,
                    any_float: oaf,
                    count: oc,
                },
            ) => {
                *total_i += oi;
                *total_f += of;
                *any_float |= oaf;
                *count += oc;
            }
            (
                AggState::Avg { total, count },
                AggState::Avg {
                    total: ot,
                    count: oc,
                },
            ) => {
                *total += ot;
                *count += oc;
            }
            (
                AggState::Count { count, distinct },
                AggState::Count {
                    count: oc,
                    distinct: od,
                },
            ) => match (distinct, od) {
                (Some(set), Some(oset)) => {
                    set.extend(oset);
                    *count = set.len() as u64;
                }
                _ => *count += oc,
            },
            (AggState::MinMax { best, is_min }, AggState::MinMax { best: ob, .. }) => {
                if let Some(v) = ob {
                    let better = match best {
                        None => true,
                        Some(b) => {
                            if *is_min {
                                v < *b
                            } else {
                                v > *b
                            }
                        }
                    };
                    if better {
                        *best = Some(v);
                    }
                }
            }
            (
                AggState::PaillierSum { sum, paillier, .. },
                AggState::PaillierSum { sum: osum, .. },
            ) => {
                // One CIOS multiply combines the two drifting accumulators.
                sum.merge(paillier.ctx(), &osum);
            }
            (AggState::GroupConcat { values }, AggState::GroupConcat { values: ov }) => {
                values.extend(ov);
            }
            _ => unreachable!("mismatched aggregate partials"),
        }
    }

    pub fn finish(self) -> Value {
        match self {
            AggState::Sum {
                total_i,
                total_f,
                any_float,
                count,
            } => {
                if count == 0 {
                    Value::Null
                } else if any_float {
                    Value::Float(total_f)
                } else {
                    Value::Int(total_i)
                }
            }
            AggState::Avg { total, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(total / count as f64)
                }
            }
            AggState::Count { count, .. } => Value::Int(count as i64),
            AggState::MinMax { best, .. } => best.unwrap_or(Value::Null),
            AggState::PaillierSum { sum, paillier, .. } => {
                if sum.count() == 0 {
                    Value::Null
                } else {
                    // Cancel the R^{-count} drift accumulated by the per-row
                    // CIOS multiplies: one R^count fixup for the whole group.
                    let product = sum.finish(paillier.ctx());
                    Value::Bytes(product.to_bytes_be_padded(paillier.ciphertext_bytes()))
                }
            }
            AggState::GroupConcat { values } => Value::List(values),
        }
    }
}

/// One group discovered during partial aggregation.
pub(crate) struct GroupEntry {
    pub key: Vec<Value>,
    /// Global index of the group's first member row (the representative for
    /// group-key expressions in projections / HAVING / ORDER BY); `None` for
    /// the synthetic all-NULL group of a global aggregate over empty input.
    pub rep_row: Option<usize>,
    pub states: Vec<AggState>,
}

/// The partial aggregation result of one morsel: groups in first-encounter
/// order plus a lookup index.
pub(crate) struct GroupPartial {
    pub groups: Vec<GroupEntry>,
    index: HashMap<Vec<Value>, usize>,
}

impl GroupPartial {
    fn empty() -> Self {
        GroupPartial {
            groups: Vec::new(),
            index: HashMap::new(),
        }
    }
}

/// PartialAggregate → Merge: morsel-granular hash aggregation. Each morsel
/// builds thread-local [`AggState`]s per group; partials merge in partition
/// order, reproducing the serial group order and accumulation exactly.
pub(crate) struct MorselAggregate<'a> {
    pub relation: &'a Relation,
    pub group_by: &'a [Expr],
    pub specs: &'a [AggSpec],
    pub db: &'a Database,
    pub params: &'a [Value],
    pub outer: Option<(&'a RowSchema, &'a [Value])>,
}

impl MorselAggregate<'_> {
    /// True when every per-row expression (group keys and aggregate
    /// arguments) is subquery-free, so morsels can run on worker threads.
    pub fn parallelizable(&self) -> bool {
        !self.group_by.iter().any(Expr::contains_subquery)
            && !self.specs.iter().any(AggSpec::needs_subquery)
    }

    fn partial(
        &self,
        m: Morsel,
        subquery: Option<SubqueryFn<'_>>,
    ) -> Result<GroupPartial, EngineError> {
        let ctx = EvalContext {
            params: self.params,
            aggregates: None,
            subquery,
            outer: self.outer,
        };
        let mut partial = GroupPartial::empty();
        for ridx in m.start..m.end {
            let row = &self.relation.rows[ridx];
            let key: Vec<Value> = self
                .group_by
                .iter()
                .map(|g| eval(g, &self.relation.schema, row, &ctx))
                .collect::<Result<_, _>>()?;
            let gidx = match partial.index.get(&key) {
                Some(&i) => i,
                None => {
                    let states = self
                        .specs
                        .iter()
                        .map(|s| AggState::new(&s.expr, self.db))
                        .collect::<Result<Vec<_>, _>>()?;
                    partial.groups.push(GroupEntry {
                        key: key.clone(),
                        rep_row: Some(ridx),
                        states,
                    });
                    partial.index.insert(key, partial.groups.len() - 1);
                    partial.groups.len() - 1
                }
            };
            let entry = &mut partial.groups[gidx];
            for (spec, state) in self.specs.iter().zip(entry.states.iter_mut()) {
                if spec.count_star {
                    state.update(None);
                } else if let Some(arg) = &spec.arg {
                    let v = eval(arg, &self.relation.schema, row, &ctx)?;
                    state.update(Some(v));
                } else {
                    state.update(None);
                }
            }
        }
        Ok(partial)
    }

    /// Runs partial aggregation over all morsels and merges the partials in
    /// partition order, returning groups in the serial first-encounter order.
    pub fn execute(
        &self,
        opts: &ExecOptions,
        subquery: Option<SubqueryFn<'_>>,
    ) -> Result<(Vec<GroupEntry>, ParallelMetrics), EngineError> {
        let rows = self.relation.rows.len();
        let (partials, metrics) = if self.parallelizable() {
            run_morsels(rows, opts, |m| self.partial(m, None))?
        } else {
            run_morsels_serial(rows, opts.morsel_rows, |m| self.partial(m, subquery))?
        };
        let mut merged = GroupPartial::empty();
        for partial in partials {
            for entry in partial.groups {
                match merged.index.get(&entry.key) {
                    Some(&i) => {
                        let acc = &mut merged.groups[i];
                        for (state, other) in acc.states.iter_mut().zip(entry.states) {
                            state.merge(other);
                        }
                    }
                    None => {
                        merged.index.insert(entry.key.clone(), merged.groups.len());
                        merged.groups.push(entry);
                    }
                }
            }
        }
        Ok((merged.groups, metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsel_partitioning_covers_input_exactly() {
        assert!(morsels_of(0, 4096).is_empty());
        let ms = morsels_of(10_001, 4096);
        assert_eq!(ms.len(), 3);
        assert_eq!((ms[0].start, ms[0].end), (0, 4096));
        assert_eq!((ms[2].start, ms[2].end), (8192, 10_001));
        assert_eq!(ms.iter().map(Morsel::len).sum::<usize>(), 10_001);
        assert!(!ms[0].is_empty());
    }

    #[test]
    fn run_morsels_preserves_partition_order_at_any_thread_count() {
        for threads in [1usize, 2, 4, 8] {
            let opts = ExecOptions {
                threads,
                morsel_rows: 7,
                ..ExecOptions::serial()
            };
            let (parts, metrics) =
                run_morsels(100, &opts, |m| Ok((m.index, m.start, m.end))).unwrap();
            assert_eq!(parts.len(), 15);
            for (i, (idx, start, end)) in parts.iter().enumerate() {
                assert_eq!(*idx, i);
                assert_eq!(*start, i * 7);
                assert_eq!(*end, ((i + 1) * 7).min(100));
            }
            assert_eq!(metrics.morsels, 15);
            assert!(metrics.threads_used as usize <= threads.max(1));
        }
    }

    #[test]
    fn run_morsels_reports_lowest_indexed_error() {
        let opts = ExecOptions {
            threads: 4,
            morsel_rows: 1,
            ..ExecOptions::serial()
        };
        let err = run_morsels(64, &opts, |m| {
            if m.index >= 10 {
                Err(EngineError::new(format!("boom at {}", m.index)))
            } else {
                Ok(m.index)
            }
        })
        .unwrap_err();
        assert_eq!(err.message, "boom at 10");
    }

    #[test]
    fn exec_options_env_parsing_defaults() {
        let opts = ExecOptions::with_threads(0);
        assert_eq!(opts.threads, 1);
        assert_eq!(ExecOptions::serial().threads, 1);
        assert_eq!(ExecOptions::serial().morsel_rows, DEFAULT_MORSEL_ROWS);
    }
}
