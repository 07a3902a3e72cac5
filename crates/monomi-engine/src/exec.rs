//! The query executor: a pipeline of physical operators (see [`crate::ops`])
//! over columnar morsels, driven by morsel-granular worker threads.
//!
//! One query flows Scan → Filter → \[HashJoin\] → PartialAggregate → Merge →
//! Sort/Project. Base-table scans are *vectorized*: single-table WHERE
//! conjuncts are compiled ([`crate::expr::compile_predicate`]) and evaluated
//! directly over the stored column slices, narrowing a
//! [`SelectionVector`](crate::storage::SelectionVector) per morsel. Only after
//! every scan-level predicate has run are the survivors materialized — and
//! only the columns the query actually references (late materialization).
//! Aggregation is morsel-partitioned: workers build thread-local
//! [`AggState`](crate::ops::AggState)s and the partials merge in partition
//! order, so results are bit-identical at any thread count
//! ([`ExecOptions::threads`]). Subqueries are evaluated through a recursive
//! callback on the serial paths: a correlated one runs once per outer row,
//! an uncorrelated one at most once per statement ([`SubqueryMemo`]), and
//! `IN` probes its result by hash.
//!
//! Encrypted execution uses exactly the same code path — the rewritten queries
//! produced by `monomi-core` reference encrypted columns and the engine's
//! encrypted aggregation UDFs (`paillier_sum`, `group_concat`), which are
//! handled in the aggregation phase; `paillier_sum` partials combine with one
//! CIOS multiply ([`monomi_crypto::PaillierSum::merge`]).

use crate::database::Database;
use crate::expr::{
    compile_predicate, eval, ColumnarPredicate, EvalContext, RowSchema, SubqueryFn, SubqueryResult,
};
use crate::ops::{
    AggSpec, AggState, CrossJoin, ExecOptions, GroupEntry, HashJoin, IndexProbe, MorselAggregate,
    ParallelMetrics, ProbeOp, Relation, RowFilter, ScanFilter, Sort,
};
use crate::schema::TableSchema;
use crate::storage::Table;
use crate::value::Value;
use crate::EngineError;
use monomi_obs::Span;
use monomi_sql::ast::*;
use monomi_store::INDEX_SELECTIVITY_CROSSOVER;
use std::cell::{Cell, OnceCell};
use std::collections::HashMap;
use std::sync::Arc;

/// A query result: named columns and materialized rows.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Total serialized size of the result in bytes (drives the network
    /// transfer model of the split-execution cost estimator).
    pub fn size_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.iter().map(Value::size_bytes).sum::<usize>())
            .sum()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Counters describing the work the "server" did for one query.
///
/// Parallel operators accumulate their counters per worker thread and the
/// per-thread/per-morsel partials are combined with [`ExecStats::merge`], so
/// the totals are identical at every thread count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows read from base tables.
    pub rows_scanned: u64,
    /// Bytes read from base tables.
    pub bytes_scanned: u64,
    /// Rows surviving the scan-level predicates and materialized into row
    /// form (the input to joins/aggregation). With no scan predicates this
    /// equals `rows_scanned`.
    pub rows_materialized: u64,
    /// Bytes of the values actually materialized after filtering and column
    /// pruning — the post-filter scan output the split-execution cost model
    /// uses for selectivity-aware scan costs (vs. `bytes_scanned`, which
    /// counts everything the scan read).
    pub bytes_materialized: u64,
    /// Rows produced.
    pub result_rows: u64,
    /// Bytes produced.
    pub result_bytes: u64,
    /// Committed segments decoded (or served from the segment cache) by
    /// scans. Always 0 for tables without a store.
    pub segments_read: u64,
    /// Committed segments skipped before any predicate ran — by zone-map pruning
    /// or by an index-probe intersection coming back empty. Pruned segments
    /// contribute nothing to `rows_scanned`/`bytes_scanned` — they were
    /// never read.
    pub segments_pruned: u64,
    /// Index postings lookups (one per probeable conjunct per indexed
    /// segment). Always 0 for tables without a store and with `MONOMI_INDEXES=off`.
    pub index_probes: u64,
    /// Row ids returned by index probes, before conjunct intersection. A
    /// probed segment's `rows_scanned` is its *seeded* row count, so the
    /// rows-scanned reduction of the index path shows up directly.
    pub index_rows_fetched: u64,
    /// Bytes of postings the probes touched (4 bytes per fetched row id).
    pub postings_bytes_read: u64,
    /// Morsels processed by morsel-driven operators (scan, filter, join
    /// probe, partial aggregation).
    pub morsels: u64,
    /// Largest worker pool any single operator of this query engaged (1 for
    /// fully serial execution).
    pub threads_used: u32,
    /// Wall-clock residency summed across all workers of all morsel-driven
    /// regions. With a dedicated core per worker this is the aggregate CPU
    /// the query burned (vs. the wall-clock it took); on oversubscribed
    /// hosts (threads > cores) descheduled time is included, making it an
    /// upper bound on true CPU — std has no portable thread-CPU clock.
    pub worker_busy_nanos: u64,
    /// Wall-clock time spent inside morsel-driven regions. The query's
    /// aggregate busy time is
    /// `total_wall - parallel_wall_nanos + worker_busy_nanos`.
    pub parallel_wall_nanos: u64,
}

impl ExecStats {
    /// Observed fraction of scanned base-table rows that survived the
    /// scan-level predicates (1.0 when nothing was scanned).
    pub fn scan_selectivity(&self) -> f64 {
        if self.rows_scanned == 0 {
            1.0
        } else {
            self.rows_materialized as f64 / self.rows_scanned as f64
        }
    }

    /// Folds another stats snapshot (a per-thread or per-operator partial)
    /// into this one: counters add, `threads_used` takes the maximum.
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.bytes_scanned += other.bytes_scanned;
        self.rows_materialized += other.rows_materialized;
        self.bytes_materialized += other.bytes_materialized;
        self.result_rows += other.result_rows;
        self.result_bytes += other.result_bytes;
        self.segments_read += other.segments_read;
        self.segments_pruned += other.segments_pruned;
        self.index_probes += other.index_probes;
        self.index_rows_fetched += other.index_rows_fetched;
        self.postings_bytes_read += other.postings_bytes_read;
        self.morsels += other.morsels;
        self.threads_used = self.threads_used.max(other.threads_used);
        self.worker_busy_nanos += other.worker_busy_nanos;
        self.parallel_wall_nanos += other.parallel_wall_nanos;
    }

    /// Aggregate busy seconds for a query whose total execution wall-clock
    /// was `exec_wall_seconds`: wall-clock outside the morsel-parallel
    /// regions plus the summed worker residency inside them, clamped at
    /// zero. Equals aggregate CPU when every worker has a core to itself
    /// (see [`worker_busy_nanos`](Self::worker_busy_nanos)); the single
    /// definition of the wall-vs-CPU accounting every consumer
    /// (`QueryTimings`, baselines) shares.
    pub fn cpu_seconds(&self, exec_wall_seconds: f64) -> f64 {
        (exec_wall_seconds - self.parallel_wall_nanos as f64 * 1e-9
            + self.worker_busy_nanos as f64 * 1e-9)
            .max(0.0)
    }

    /// The deterministic work counters, excluding the two wall-clock fields
    /// (`worker_busy_nanos`, `parallel_wall_nanos`) that legitimately differ
    /// between otherwise identical runs. Two executions of the same query
    /// over the same data must agree on this array regardless of transport,
    /// thread count, or host load — the transport-parity tests compare it.
    /// Order: rows/bytes scanned, rows/bytes materialized, result rows/bytes,
    /// segments read/pruned, index probes / rows fetched / postings bytes,
    /// morsels, threads used.
    pub fn work_counters(&self) -> [u64; 13] {
        [
            self.rows_scanned,
            self.bytes_scanned,
            self.rows_materialized,
            self.bytes_materialized,
            self.result_rows,
            self.result_bytes,
            self.segments_read,
            self.segments_pruned,
            self.index_probes,
            self.index_rows_fetched,
            self.postings_bytes_read,
            self.morsels,
            u64::from(self.threads_used),
        ]
    }

    /// Records the work accounting of one morsel-driven region.
    pub(crate) fn note_parallel(&mut self, m: &ParallelMetrics) {
        self.morsels += m.morsels;
        self.threads_used = self.threads_used.max(m.threads_used);
        self.worker_busy_nanos += m.worker_busy_nanos;
        self.parallel_wall_nanos += m.wall_nanos;
    }
}

/// Executes a query against a database with the given execution options.
pub(crate) fn execute_query(
    db: &Database,
    query: &Query,
    params: &[Value],
    opts: &ExecOptions,
) -> Result<(ResultSet, ExecStats), EngineError> {
    let (result, stats, _) = execute_query_spanned(db, query, params, opts, false)?;
    Ok((result, stats))
}

/// Executes a query and additionally returns one [`Span`] per named operator
/// (`ScanFilter`, `HashJoin`, `MorselAggregate`, `Sort`) in execution order.
///
/// The spans carry wall-clock times, so they vary run to run — but the
/// *result* and [`ExecStats`] work counters are byte-identical to the
/// untraced [`execute_query`] path: tracing only ever wraps an operator call
/// in a stopwatch, it never reorders or alters work. When tracing is off the
/// executor makes zero clock calls (the `timed` helper short-circuits), so
/// the untraced hot path pays nothing.
pub(crate) fn execute_query_traced(
    db: &Database,
    query: &Query,
    params: &[Value],
    opts: &ExecOptions,
) -> Result<(ResultSet, ExecStats, Vec<Span>), EngineError> {
    execute_query_spanned(db, query, params, opts, true)
}

fn execute_query_spanned(
    db: &Database,
    query: &Query,
    params: &[Value],
    opts: &ExecOptions,
    traced: bool,
) -> Result<(ResultSet, ExecStats, Vec<Span>), EngineError> {
    let mut stats = ExecStats {
        threads_used: 1,
        ..Default::default()
    };
    let mut spans = if traced { Some(Vec::new()) } else { None };
    let statement = Statement {
        db,
        catalog: db.store().map(|store| store.snapshot()),
        params,
        memo: SubqueryMemo::for_statement(db, query),
    };
    let result = execute_inner(&statement, query, None, &mut stats, opts, &mut spans)?;
    stats.result_rows = result.rows.len() as u64;
    stats.result_bytes = result.size_bytes() as u64;
    Ok((result, stats, spans.unwrap_or_default()))
}

/// Runs `f`, timing it into a new leaf span when tracing is on. With `spans`
/// `None` this is a plain call — no clock is consulted, keeping the untraced
/// executor free of timing overhead and of nondeterministic syscalls.
fn timed<T>(
    spans: &mut Option<Vec<Span>>,
    label: impl FnOnce() -> String,
    rows_of: impl FnOnce(&T) -> u64,
    f: impl FnOnce() -> Result<T, EngineError>,
) -> Result<T, EngineError> {
    if spans.is_none() {
        return f();
    }
    // monomi-lint: allow(determinism-clock-env): span timing runs only when tracing was requested and feeds observability output, never operator results
    let start = std::time::Instant::now();
    let value = f()?;
    let seconds = start.elapsed().as_secs_f64();
    if let Some(out) = spans.as_mut() {
        out.push(Span::leaf(label(), seconds, rows_of(&value)));
    }
    Ok(value)
}

/// What every query of one statement — the statement itself, its derived
/// tables and its subqueries — executes against.
struct Statement<'q> {
    db: &'q Database,
    /// The committed catalog pinned when the statement started. Every scan
    /// takes its segments from it, so a statement that reads a table twice
    /// (a self-join, an IN or correlated subquery) sees one version of it
    /// however many loads commit meanwhile. Statistics and index-probe
    /// planning read the latest catalog: they steer plans, never results.
    catalog: Option<Arc<monomi_store::Manifest>>,
    params: &'q [Value],
    memo: SubqueryMemo<'q>,
}

fn execute_inner(
    stmt: &Statement<'_>,
    query: &Query,
    outer: Option<(&RowSchema, &[Value])>,
    stats: &mut ExecStats,
    opts: &ExecOptions,
    spans: &mut Option<Vec<Span>>,
) -> Result<ResultSet, EngineError> {
    // 1. Build the FROM relation (scans, derived tables, joins, filters).
    let where_conjuncts: Vec<&Expr> = query
        .where_clause
        .as_ref()
        .map(|w| w.split_conjuncts())
        .unwrap_or_default();
    let relation = build_from_relation(stmt, query, &where_conjuncts, outer, stats, opts, spans)?;

    // 2. Aggregate or plain projection. UDF aggregates (paillier_sum,
    // group_concat) make a query an aggregation even though the parser does
    // not know they aggregate.
    let is_aggregate = query.is_aggregate_query() || !collect_aggregates(query).is_empty();
    let mut output = if is_aggregate {
        aggregate_and_project(stmt, query, &relation, outer, stats, opts, spans)?
    } else {
        let subquery_fn = make_subquery_fn(stmt, *opts);
        project_rows(query, &relation, stmt.params, outer, &subquery_fn)?
    };

    // 3. DISTINCT.
    if query.distinct {
        let mut seen = std::collections::HashSet::new();
        let mut kept_rows = Vec::new();
        let mut kept_keys = Vec::new();
        for (row, key) in output.rows.into_iter().zip(output.sort_keys) {
            if seen.insert(row.clone()) {
                kept_rows.push(row);
                kept_keys.push(key);
            }
        }
        output.rows = kept_rows;
        output.sort_keys = kept_keys;
    }

    // 4. ORDER BY.
    if !query.order_by.is_empty() {
        let sort = Sort {
            order_by: &query.order_by,
        };
        let rows = std::mem::take(&mut output.rows);
        let keys = std::mem::take(&mut output.sort_keys);
        output.rows = timed(
            spans,
            || "Sort".to_string(),
            |r: &Vec<Vec<Value>>| r.len() as u64,
            || Ok(sort.execute(rows, keys)),
        )?;
    }

    // 5. LIMIT.
    if let Some(limit) = query.limit {
        output.rows.truncate(limit as usize);
    }

    Ok(ResultSet {
        columns: output.columns,
        rows: output.rows,
    })
}

/// Rows plus the pre-computed ORDER BY keys for each row.
struct ProjectedRows {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
    sort_keys: Vec<Vec<Value>>,
}

/// An outer row visible to a correlated subquery: its schema and values.
type OuterRow<'s, 'v> = Option<(&'s RowSchema, &'v [Value])>;

fn make_subquery_fn<'a>(
    stmt: &'a Statement<'a>,
    opts: ExecOptions,
) -> impl Fn(&Query, OuterRow<'_, '_>) -> Result<Arc<SubqueryResult>, EngineError> + 'a {
    // Subqueries track their scan work in a local counter; the parent query's
    // own scans dominate the statistics we report. They run serially: a
    // correlated subquery is re-evaluated once per outer row, and spawning a
    // worker pool for each evaluation would cost far more than it saves.
    // The morsel size is kept, so results stay partition-identical; only the
    // parent's own regions (and derived tables in FROM) parallelize.
    let opts = ExecOptions { threads: 1, ..opts };
    // Subqueries are never traced: a correlated one re-runs per outer row,
    // and a span per evaluation would swamp the trace with thousands of
    // entries while timing regions the parent's spans already cover.
    move |q: &Query, outer: OuterRow<'_, '_>| {
        let run = |outer: OuterRow<'_, '_>| {
            SUBQUERY_RUNS.with(|runs| runs.set(runs.get() + 1));
            let mut local_stats = ExecStats::default();
            let rs = execute_inner(stmt, q, outer, &mut local_stats, &opts, &mut None)?;
            Ok(Arc::new(SubqueryResult::new(rs.rows)))
        };
        let Some(cell) = stmt.memo.cell(q) else {
            return run(outer);
        };
        if let Some(result) = cell.get() {
            return Ok(result.clone());
        }
        // Uncorrelated: nothing in it reads the outer row, so it runs without
        // one and every outer row shares the result.
        let result = run(None)?;
        Ok(cell.get_or_init(|| result).clone())
    }
}

thread_local! {
    /// Subquery executions on this thread, for [`subquery_runs`].
    static SUBQUERY_RUNS: Cell<u64> = const { Cell::new(0) };
}

/// How many subquery executions this thread has run: an uncorrelated
/// subquery counts once per statement, a correlated one once per outer row.
/// Tests observe the memo through this; it is not an [`ExecStats`] field
/// because `ExecStats` crosses the wire.
#[doc(hidden)]
pub fn subquery_runs() -> u64 {
    SUBQUERY_RUNS.with(Cell::get)
}

/// One scope of a subquery's scope chain: the FROM bindings and their
/// tables' schemas.
type Scope<'a> = Vec<(&'a str, &'a TableSchema)>;

/// The uncorrelated subqueries of one statement, each run at most once.
///
/// When the statement starts, every subquery in it — at any depth, inside
/// derived tables too — is classified statically. It is *uncorrelated* when
/// every column reference inside it, at any depth, resolves within its own
/// scope chain: its FROM tables, or those of an enclosing subquery that is
/// itself inside it. Its result then depends on the database and the
/// parameters only, so the first evaluation that needs it runs it and every
/// later one shares the result. Anything in doubt — a derived table in the
/// subquery's FROM (it would see the outer row), a table the catalog lacks —
/// counts as correlated and keeps running once per outer row.
struct SubqueryMemo<'q> {
    /// Each uncorrelated subquery node of the statement and the index of
    /// its result; structurally equal nodes share one.
    nodes: Vec<(&'q Query, usize)>,
    results: Vec<OnceCell<Arc<SubqueryResult>>>,
}

impl<'q> SubqueryMemo<'q> {
    fn for_statement(db: &Database, query: &'q Query) -> Self {
        let mut subqueries = Vec::new();
        collect_subqueries(query, &mut subqueries);
        let mut memo = SubqueryMemo {
            nodes: Vec::new(),
            results: Vec::new(),
        };
        for sub in subqueries {
            if !resolves_within(db, sub, &[]) {
                continue;
            }
            let slot = match memo.nodes.iter().find(|(n, _)| *n == sub) {
                Some(&(_, slot)) => slot,
                None => {
                    memo.results.push(OnceCell::new());
                    memo.results.len() - 1
                }
            };
            memo.nodes.push((sub, slot));
        }
        memo
    }

    /// The result cell of `q` when it is uncorrelated. A node of the
    /// statement is found by address; a copy the executor made of one (an
    /// aggregate's argument) by structure.
    fn cell(&self, q: &Query) -> Option<&OnceCell<Arc<SubqueryResult>>> {
        let (_, slot) = self
            .nodes
            .iter()
            .find(|(n, _)| std::ptr::eq(*n, q))
            .or_else(|| self.nodes.iter().find(|(n, _)| *n == q))?;
        Some(&self.results[*slot])
    }
}

/// The expressions a query evaluates: projections, WHERE, GROUP BY, HAVING
/// and ORDER BY.
fn query_exprs(query: &Query) -> impl Iterator<Item = &Expr> {
    query
        .projections
        .iter()
        .map(|p| &p.expr)
        .chain(&query.where_clause)
        .chain(&query.group_by)
        .chain(&query.having)
        .chain(query.order_by.iter().map(|o| &o.expr))
}

/// The subquery an `IN`, `EXISTS` or scalar-subquery node runs.
fn subquery_of(node: &Expr) -> Option<&Query> {
    match node {
        Expr::InSubquery { subquery, .. }
        | Expr::Exists { subquery, .. }
        | Expr::ScalarSubquery(subquery) => Some(subquery),
        _ => None,
    }
}

/// Every subquery node of `query`, in its expressions and its derived tables,
/// and recursively inside those.
fn collect_subqueries<'q>(query: &'q Query, out: &mut Vec<&'q Query>) {
    for table in &query.from {
        if let TableRef::Subquery { query: derived, .. } = table {
            collect_subqueries(derived, out);
        }
    }
    for expr in query_exprs(query) {
        expr.walk(&mut |node| {
            if let Some(sub) = subquery_of(node) {
                out.push(sub);
                collect_subqueries(sub, out);
            }
        });
    }
}

/// True when every column reference of `query`, at any depth, resolves in
/// its own FROM tables or in `enclosing` (the scopes of the subqueries it is
/// nested in, within the one being classified). False on a derived table or
/// an unknown table in any FROM on the way.
fn resolves_within<'a>(db: &'a Database, query: &'a Query, enclosing: &[Scope<'a>]) -> bool {
    let mut scope: Scope<'a> = Vec::with_capacity(query.from.len());
    for table_ref in &query.from {
        let TableRef::Table { name, alias } = table_ref else {
            return false;
        };
        let Some(table) = db.table(name) else {
            return false;
        };
        scope.push((alias.as_deref().unwrap_or(name), table.schema()));
    }
    let mut chain = enclosing.to_vec();
    chain.push(scope);
    let resolves = |c: &ColumnRef| {
        c.column == "*"
            || chain.iter().flatten().any(|(binding, schema)| {
                c.table
                    .as_deref()
                    .is_none_or(|t| t.eq_ignore_ascii_case(binding))
                    && schema
                        .columns
                        .iter()
                        .any(|col| col.name.eq_ignore_ascii_case(&c.column))
            })
    };
    let mut uncorrelated = true;
    for expr in query_exprs(query) {
        expr.walk(&mut |node| match node {
            Expr::Column(c) => uncorrelated &= resolves(c),
            _ => {
                if let Some(sub) = subquery_of(node) {
                    uncorrelated &= resolves_within(db, sub, &chain);
                }
            }
        });
    }
    uncorrelated
}

/// Assumed selectivity for a range whose bounds don't interpolate numerically
/// (strings, bytes): above the crossover, so such ranges scan by default.
const DEFAULT_RANGE_SELECTIVITY: f64 = 0.3;

/// Numeric interpolation point of a value, for range-width estimation.
fn value_as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        Value::Date(d) => Some(f64::from(*d)),
        _ => None,
    }
}

/// Estimated fraction of rows a probe selects, from the table's memoized
/// column statistics (`distinct_count` for equality, zone-fold `min_max` for
/// ranges). Estimates assume uniformity — good enough to pick an access path,
/// and a wrong pick only costs speed, never correctness.
fn probe_selectivity(table: &Table, col: usize, op: &ProbeOp) -> f64 {
    match op {
        ProbeOp::Eq(_) => 1.0 / table.distinct_count(col).max(1) as f64,
        ProbeOp::InList(values) => values.len() as f64 / table.distinct_count(col).max(1) as f64,
        ProbeOp::Range { low, high } => {
            let Some((min, max)) = table.min_max(col) else {
                return 0.0; // empty or all-NULL column: nothing to fetch
            };
            let (Some(lo_col), Some(hi_col)) = (value_as_f64(&min), value_as_f64(&max)) else {
                return DEFAULT_RANGE_SELECTIVITY;
            };
            let width = hi_col - lo_col;
            if width <= 0.0 {
                return 1.0; // single-valued column: a range can't narrow it
            }
            let interp = |bound: &Option<(Value, bool)>, unbounded: f64| match bound {
                None => Some(unbounded),
                Some((v, _)) => value_as_f64(v),
            };
            match (interp(low, lo_col), interp(high, hi_col)) {
                (Some(lo), Some(hi)) => ((hi.min(hi_col) - lo.max(lo_col)) / width).clamp(0.0, 1.0),
                _ => DEFAULT_RANGE_SELECTIVITY,
            }
        }
    }
}

/// Derives index probes from one scan's compiled conjuncts.
///
/// Each probe's postings are a *superset* of the rows its conjunct accepts
/// (minus NULLs — a comparison predicate is never true of NULL), so seeding
/// the scan's selection vector with their intersection and still running every
/// compiled predicate over the seed leaves results byte-identical to the full
/// scan. The probe only narrows work; it never decides membership.
///
/// A probe is planned only when its estimated selectivity clears
/// [`INDEX_SELECTIVITY_CROSSOVER`] — the index is an access path the
/// statistics must justify, not a default.
fn plan_index_probes(
    table: &Table,
    schema: &RowSchema,
    predicates: &[ColumnarPredicate],
    opts: &ExecOptions,
) -> Vec<IndexProbe> {
    if opts.index_mode == monomi_store::IndexMode::Off || !table.has_segment_indexes() {
        return Vec::new();
    }
    let mut candidates = Vec::new();
    for pred in predicates {
        collect_probe_candidates(pred, &mut candidates);
    }
    // Range conjuncts on the same column merge into one two-sided probe
    // before the selectivity gate: in the classic Q6 shape
    // `d >= lo AND d < hi` each half keeps ~half the table and fails the
    // crossover alone, while together they select a narrow window. Each
    // conjunct's range is a superset of the rows it accepts, so their
    // intersection stays a superset of the rows satisfying all of them.
    let mut probes = Vec::new();
    let mut ranges: Vec<(usize, ProbeOp)> = Vec::new();
    for (col, op) in candidates {
        match op {
            ProbeOp::Range { low, high } => match ranges.iter_mut().find(|(c, _)| *c == col) {
                Some((
                    _,
                    ProbeOp::Range {
                        low: merged_low,
                        high: merged_high,
                    },
                )) => {
                    *merged_low = tighter_bound(merged_low.take(), low, true);
                    *merged_high = tighter_bound(merged_high.take(), high, false);
                }
                _ => ranges.push((col, ProbeOp::Range { low, high })),
            },
            other => {
                if probe_selectivity(table, col, &other) <= INDEX_SELECTIVITY_CROSSOVER {
                    probes.push(IndexProbe {
                        column: schema.columns[col].1.clone(),
                        op: other,
                    });
                }
            }
        }
    }
    for (col, op) in ranges {
        if probe_selectivity(table, col, &op) <= INDEX_SELECTIVITY_CROSSOVER {
            probes.push(IndexProbe {
                column: schema.columns[col].1.clone(),
                op,
            });
        }
    }
    probes
}

/// The tighter of two optional range bounds: the larger lower bound when
/// `lower` (else the smaller upper bound), `None` meaning unbounded. On equal
/// values the exclusive flag wins — a row must satisfy *both* conjuncts.
fn tighter_bound(
    a: Option<(Value, bool)>,
    b: Option<(Value, bool)>,
    lower: bool,
) -> Option<(Value, bool)> {
    match (a, b) {
        (None, b) => b,
        (a, None) => a,
        (Some((va, ia)), Some((vb, ib))) => Some(match va.compare(&vb) {
            std::cmp::Ordering::Equal => (va, ia && ib),
            std::cmp::Ordering::Less => {
                if lower {
                    (vb, ib)
                } else {
                    (va, ia)
                }
            }
            std::cmp::Ordering::Greater => {
                if lower {
                    (va, ia)
                } else {
                    (vb, ib)
                }
            }
        }),
    }
}

/// Collects the probe candidate (if any) of one compiled predicate,
/// recursing into ANDs (every branch must hold, so each branch's probe
/// stands on its own). ORs, negations, LIKE, and NULL tests never probe:
/// their row sets aren't a single sorted-key lookup, and the fallback scan
/// answers them exactly. Candidates are ungated — the caller merges
/// same-column ranges and applies the selectivity crossover.
fn collect_probe_candidates(pred: &ColumnarPredicate, out: &mut Vec<(usize, ProbeOp)>) {
    let planned: Option<(usize, ProbeOp)> = match pred {
        ColumnarPredicate::And(children) => {
            for child in children {
                collect_probe_candidates(child, out);
            }
            None
        }
        ColumnarPredicate::CmpConst { col, op, value } if !value.is_null() => {
            let bound = |inclusive: bool| Some((value.clone(), inclusive));
            match op {
                BinaryOp::Eq => Some((*col, ProbeOp::Eq(value.clone()))),
                BinaryOp::Lt => Some((
                    *col,
                    ProbeOp::Range {
                        low: None,
                        high: bound(false),
                    },
                )),
                BinaryOp::LtEq => Some((
                    *col,
                    ProbeOp::Range {
                        low: None,
                        high: bound(true),
                    },
                )),
                BinaryOp::Gt => Some((
                    *col,
                    ProbeOp::Range {
                        low: bound(false),
                        high: None,
                    },
                )),
                BinaryOp::GtEq => Some((
                    *col,
                    ProbeOp::Range {
                        low: bound(true),
                        high: None,
                    },
                )),
                _ => None,
            }
        }
        ColumnarPredicate::BetweenConst {
            col,
            low,
            high,
            negated: false,
        } if !low.is_null() && !high.is_null() => Some((
            *col,
            ProbeOp::Range {
                low: Some((low.clone(), true)),
                high: Some((high.clone(), true)),
            },
        )),
        ColumnarPredicate::InListConst {
            col,
            values,
            negated: false,
        } => {
            // NULL list entries never match a row; dropping them keeps the
            // probe a superset (an all-NULL list legitimately selects
            // nothing, and the empty posting intersection prunes the
            // segment outright).
            let nonnull: Vec<Value> = values.iter().filter(|v| !v.is_null()).cloned().collect();
            Some((*col, ProbeOp::InList(nonnull)))
        }
        _ => None,
    };
    if let Some(candidate) = planned {
        out.push(candidate);
    }
}

fn build_from_relation(
    stmt: &Statement<'_>,
    query: &Query,
    where_conjuncts: &[&Expr],
    outer: Option<(&RowSchema, &[Value])>,
    stats: &mut ExecStats,
    opts: &ExecOptions,
    spans: &mut Option<Vec<Span>>,
) -> Result<Relation, EngineError> {
    if query.from.is_empty() {
        // SELECT without FROM: a single empty row.
        return Ok(Relation {
            schema: RowSchema::default(),
            rows: vec![vec![]],
        });
    }

    let (db, params) = (stmt.db, stmt.params);
    let subquery_fn = make_subquery_fn(stmt, *opts);

    // Load each FROM entry. Derived tables execute eagerly (their schema is
    // only known from their result); base tables are *not* materialized yet —
    // the morsel-parallel scan below filters them in columnar form first.
    enum Loaded<'t> {
        Scan { table: &'t Table, binding: String },
        Rows(Relation),
    }
    let mut loaded: Vec<Loaded> = Vec::with_capacity(query.from.len());
    let mut full_schemas: Vec<RowSchema> = Vec::with_capacity(query.from.len());
    for table_ref in &query.from {
        match table_ref {
            TableRef::Table { name, alias } => {
                let table = db
                    .table(name)
                    .ok_or_else(|| EngineError::new(format!("unknown table {name}")))?;
                let binding = alias.clone().unwrap_or_else(|| name.clone());
                full_schemas.push(RowSchema::new(
                    table
                        .schema()
                        .columns
                        .iter()
                        .map(|c| (Some(binding.clone()), c.name.clone()))
                        .collect(),
                ));
                loaded.push(Loaded::Scan { table, binding });
            }
            TableRef::Subquery { query: sub, alias } => {
                // Derived tables share the parent's span sink: their operator
                // spans precede the outer scans' in the flat list, matching
                // execution order.
                let rs = execute_inner(stmt, sub, outer, stats, opts, spans)?;
                let schema = RowSchema::new(
                    rs.columns
                        .iter()
                        .map(|c| (Some(alias.clone()), c.clone()))
                        .collect(),
                );
                full_schemas.push(schema.clone());
                loaded.push(Loaded::Rows(Relation {
                    schema,
                    rows: rs.rows,
                }));
            }
        }
    }

    // Scan → Filter: evaluate each scan's single-table conjuncts over column
    // slices (selection vectors per morsel, no row materialization), then
    // late-materialize only the surviving rows' referenced columns.
    let referenced = collect_referenced_columns(query);
    let mut used = vec![false; where_conjuncts.len()];
    let mut relations: Vec<Relation> = Vec::with_capacity(loaded.len());
    for (ri, entry) in loaded.into_iter().enumerate() {
        match entry {
            Loaded::Rows(rel) => relations.push(rel),
            Loaded::Scan { table, binding } => {
                let schema = &full_schemas[ri];
                let other_schemas: Vec<&RowSchema> = full_schemas
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != ri)
                    .map(|(_, s)| s)
                    .collect();
                let ctx = EvalContext {
                    params,
                    aggregates: None,
                    subquery: None,
                    outer,
                };
                let mut predicates: Vec<ColumnarPredicate> = Vec::new();
                for (ci, conj) in where_conjuncts.iter().enumerate() {
                    if used[ci] || conj.contains_subquery() || conj.contains_aggregate() {
                        continue;
                    }
                    if refs_resolvable(conj, schema)
                        && !refs_resolvable_elsewhere(conj, &other_schemas)
                    {
                        // Conjunct references only this scan: compile it for
                        // direct evaluation over the column slices.
                        predicates.push(compile_predicate(conj, schema, &ctx));
                        used[ci] = true;
                    }
                }

                // Late materialization: survivors only, referenced columns
                // only. Conjuncts this (or an earlier) scan consumed never run
                // again, so only the still-pending ones pin extra columns
                // (join keys, subquery-bearing predicates, cross-relation
                // residuals).
                let mut scan_refs = referenced.clone();
                for (ci, conj) in where_conjuncts.iter().enumerate() {
                    if !used[ci] {
                        collect_expr_refs(conj, &mut scan_refs);
                    }
                }
                let keep = scan_refs.pruned_indices(&binding, schema);
                let pruned_schema = RowSchema::new(
                    keep.iter()
                        .map(|&c| schema.columns[c].clone())
                        .collect::<Vec<_>>(),
                );
                let probes = plan_index_probes(table, schema, &predicates, opts);
                let scan = ScanFilter {
                    table,
                    catalog: stmt.catalog.as_deref(),
                    schema,
                    predicates: &predicates,
                    keep: &keep,
                    params,
                    outer,
                    probes: &probes,
                    index_mode: opts.index_mode,
                };
                let (rows, scan_stats) = timed(
                    spans,
                    || format!("ScanFilter({binding})"),
                    |(rows, _): &(Vec<Vec<Value>>, ExecStats)| rows.len() as u64,
                    || scan.execute(opts),
                )?;
                stats.merge(&scan_stats);
                relations.push(Relation {
                    schema: pruned_schema,
                    rows,
                });
            }
        }
    }

    // Pre-filter derived-table relations with the conjuncts they alone can
    // answer (base-table conjuncts were consumed by the vectorized scans).
    let all_schemas: Vec<RowSchema> = relations.iter().map(|r| r.schema.clone()).collect();
    for (ri, rel) in relations.iter_mut().enumerate() {
        let other_schemas: Vec<&RowSchema> = all_schemas
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != ri)
            .map(|(_, s)| s)
            .collect();
        for (ci, conj) in where_conjuncts.iter().enumerate() {
            if used[ci] || conj.contains_subquery() || conj.contains_aggregate() {
                continue;
            }
            if refs_resolvable(conj, &rel.schema)
                && !refs_resolvable_elsewhere(conj, &other_schemas)
            {
                // Conjunct references only this relation: apply it now.
                let filter = RowFilter {
                    schema: &rel.schema,
                    predicate: conj,
                    params,
                    outer,
                };
                let (rows, metrics) =
                    filter.execute(std::mem::take(&mut rel.rows), opts, Some(&subquery_fn))?;
                stats.note_parallel(&metrics);
                rel.rows = rows;
                used[ci] = true;
            }
        }
    }

    // Join the relations left to right.
    let mut acc = relations.remove(0);
    while !relations.is_empty() {
        // Prefer a relation with an equi-join conjunct against the accumulator.
        let mut chosen = 0usize;
        let mut join_keys: Vec<(Expr, Expr)> = Vec::new();
        'search: for (idx, rel) in relations.iter().enumerate() {
            let keys = find_equi_join_keys(where_conjuncts, &used, &acc.schema, &rel.schema);
            if !keys.is_empty() {
                chosen = idx;
                join_keys = keys;
                break 'search;
            }
        }
        let right = relations.remove(chosen);
        // Mark the conjuncts we are about to consume as used.
        for (ci, conj) in where_conjuncts.iter().enumerate() {
            if used[ci] {
                continue;
            }
            if let Some((l, r)) = as_equi_join(conj) {
                let consumed = join_keys
                    .iter()
                    .any(|(jl, jr)| (*jl == l && *jr == r) || (*jl == r && *jr == l));
                if consumed {
                    used[ci] = true;
                }
            }
        }
        acc = if join_keys.is_empty() {
            CrossJoin::execute(&acc, &right)
        } else {
            let join = HashJoin {
                keys: &join_keys,
                params,
                outer,
            };
            let (joined, metrics) = timed(
                spans,
                || "HashJoin".to_string(),
                |(rel, _): &(Relation, ParallelMetrics)| rel.rows.len() as u64,
                || join.execute(&acc, &right, opts),
            )?;
            stats.note_parallel(&metrics);
            joined
        };

        // Apply any remaining conjuncts that are now fully resolvable (cheap
        // early filtering between joins).
        for (ci, conj) in where_conjuncts.iter().enumerate() {
            if used[ci] || conj.contains_subquery() || conj.contains_aggregate() {
                continue;
            }
            if refs_resolvable(conj, &acc.schema) {
                let filter = RowFilter {
                    schema: &acc.schema,
                    predicate: conj,
                    params,
                    outer,
                };
                let (rows, metrics) =
                    filter.execute(std::mem::take(&mut acc.rows), opts, Some(&subquery_fn))?;
                stats.note_parallel(&metrics);
                acc.rows = rows;
                used[ci] = true;
            }
        }
    }

    // Apply all remaining conjuncts (including those with subqueries).
    for (ci, conj) in where_conjuncts.iter().enumerate() {
        if used[ci] {
            continue;
        }
        let filter = RowFilter {
            schema: &acc.schema,
            predicate: conj,
            params,
            outer,
        };
        let (rows, metrics) =
            filter.execute(std::mem::take(&mut acc.rows), opts, Some(&subquery_fn))?;
        stats.note_parallel(&metrics);
        acc.rows = rows;
        used[ci] = true;
    }

    Ok(acc)
}

/// Column references a query may resolve against its base-table scans, used
/// to prune unreferenced columns at materialization time.
#[derive(Clone)]
struct ReferencedColumns {
    refs: Vec<ColumnRef>,
    /// A `SELECT *` appears somewhere: keep every column (conservative — a
    /// star inside a nested subquery disables pruning for the whole query).
    star: bool,
}

impl ReferencedColumns {
    /// Indices of the scan's columns the query may reference. A qualified
    /// reference must name this scan's binding; an unqualified one matches by
    /// column name alone (conservative under ambiguity).
    fn pruned_indices(&self, binding: &str, schema: &RowSchema) -> Vec<usize> {
        if self.star {
            return (0..schema.len()).collect();
        }
        (0..schema.len())
            .filter(|&i| {
                let (_, name) = &schema.columns[i];
                self.refs.iter().any(|r| {
                    r.column.eq_ignore_ascii_case(name)
                        && r.table
                            .as_deref()
                            .is_none_or(|t| t.eq_ignore_ascii_case(binding))
                })
            })
            .collect()
    }
}

/// Collects every column reference the query can make against its FROM
/// relations *outside its own WHERE clause*, descending into subqueries
/// (correlated references resolve against the enclosing query's scans, so
/// they count too). The top-level WHERE conjuncts are deliberately excluded:
/// a conjunct consumed by the vectorized scan never runs again, so columns it
/// alone references need not be materialized — each scan adds back the refs
/// of the conjuncts still pending when it materializes.
fn collect_referenced_columns(query: &Query) -> ReferencedColumns {
    let mut out = ReferencedColumns {
        refs: Vec::new(),
        star: false,
    };
    collect_query_refs(query, false, &mut out);
    out
}

fn collect_query_refs(query: &Query, include_where: bool, out: &mut ReferencedColumns) {
    for p in &query.projections {
        collect_expr_refs(&p.expr, out);
    }
    if include_where {
        if let Some(w) = &query.where_clause {
            collect_expr_refs(w, out);
        }
    }
    for g in &query.group_by {
        collect_expr_refs(g, out);
    }
    if let Some(h) = &query.having {
        collect_expr_refs(h, out);
    }
    for o in &query.order_by {
        collect_expr_refs(&o.expr, out);
    }
    for t in &query.from {
        if let TableRef::Subquery { query: sub, .. } = t {
            collect_query_refs(sub, true, out);
        }
    }
}

fn collect_expr_refs(expr: &Expr, out: &mut ReferencedColumns) {
    expr.walk(&mut |node| match node {
        Expr::Column(c) => {
            if c.column == "*" {
                out.star = true;
            } else {
                out.refs.push(c.clone());
            }
        }
        // `Expr::walk` does not descend into subqueries; their (possibly
        // correlated) references still pin columns of the outer scans. Their
        // WHERE clauses count: they are evaluated row-at-a-time against the
        // outer query's materialized rows, not consumed by the outer scan.
        Expr::ScalarSubquery(q) => collect_query_refs(q, true, out),
        Expr::InSubquery { subquery, .. } => collect_query_refs(subquery, true, out),
        Expr::Exists { subquery, .. } => collect_query_refs(subquery, true, out),
        _ => {}
    });
}

/// True if every column reference in `expr` resolves in `schema`.
fn refs_resolvable(expr: &Expr, schema: &RowSchema) -> bool {
    expr.column_refs()
        .iter()
        .all(|c| schema.resolve(c).is_some())
}

/// True if any column reference in `expr` resolves in one of the other schemas
/// with a qualified name, which would make single-relation pre-filtering wrong.
fn refs_resolvable_elsewhere(expr: &Expr, others: &[&RowSchema]) -> bool {
    expr.column_refs()
        .iter()
        .any(|c| c.table.is_some() && others.iter().any(|s| s.resolve(c).is_some()))
}

/// If the conjunct is `col_expr = col_expr`, returns the two sides.
fn as_equi_join(conj: &Expr) -> Option<(Expr, Expr)> {
    if let Expr::BinaryOp {
        left,
        op: BinaryOp::Eq,
        right,
    } = conj
    {
        let left_cols = left.column_refs();
        let right_cols = right.column_refs();
        if !left_cols.is_empty() && !right_cols.is_empty() {
            return Some((*left.clone(), *right.clone()));
        }
    }
    None
}

/// Finds equality conjuncts joining the accumulator schema to the right schema.
/// Returns pairs `(left_key_expr, right_key_expr)` oriented accumulator-first.
fn find_equi_join_keys(
    conjuncts: &[&Expr],
    used: &[bool],
    left: &RowSchema,
    right: &RowSchema,
) -> Vec<(Expr, Expr)> {
    let mut keys = Vec::new();
    for (ci, conj) in conjuncts.iter().enumerate() {
        if used[ci] {
            continue;
        }
        if let Some((a, b)) = as_equi_join(conj) {
            let a_left = refs_resolvable(&a, left);
            let a_right = refs_resolvable(&a, right);
            let b_left = refs_resolvable(&b, left);
            let b_right = refs_resolvable(&b, right);
            if a_left && b_right && !(a_right && b_left) {
                keys.push((a, b));
            } else if b_left && a_right {
                keys.push((b, a));
            }
        }
    }
    keys
}

/// Collects every aggregate-like expression (true aggregates and the encrypted
/// aggregation UDFs) appearing in the query's post-grouping clauses.
fn collect_aggregates(query: &Query) -> Vec<Expr> {
    let mut found: Vec<Expr> = Vec::new();
    let mut push_from = |e: &Expr| {
        e.walk(&mut |node| {
            let is_agg = matches!(node, Expr::Aggregate { .. })
                || matches!(node, Expr::Function { name, .. } if is_udf_aggregate(name));
            if is_agg && !found.contains(node) {
                found.push(node.clone());
            }
        });
    };
    for p in &query.projections {
        push_from(&p.expr);
    }
    if let Some(h) = &query.having {
        push_from(h);
    }
    for o in &query.order_by {
        push_from(&o.expr);
    }
    found
}

/// UDF aggregates the encrypted execution path uses.
pub fn is_udf_aggregate(name: &str) -> bool {
    matches!(name, "paillier_sum" | "group_concat")
}

fn aggregate_and_project(
    stmt: &Statement<'_>,
    query: &Query,
    relation: &Relation,
    outer: Option<(&RowSchema, &[Value])>,
    stats: &mut ExecStats,
    opts: &ExecOptions,
    spans: &mut Option<Vec<Span>>,
) -> Result<ProjectedRows, EngineError> {
    let (db, params) = (stmt.db, stmt.params);
    let subquery_fn = make_subquery_fn(stmt, *opts);
    let agg_exprs = collect_aggregates(query);
    let specs: Vec<AggSpec> = agg_exprs.iter().map(AggSpec::of).collect();

    // PartialAggregate → Merge: morsel-partitioned grouping with thread-local
    // aggregation states, merged in partition order (bit-identical to the
    // serial first-encounter accumulation at any thread count).
    let aggregate = MorselAggregate {
        relation,
        group_by: &query.group_by,
        specs: &specs,
        db,
        params,
        outer,
    };
    let (mut groups, metrics) = timed(
        spans,
        || "MorselAggregate".to_string(),
        |(groups, _): &(Vec<GroupEntry>, ParallelMetrics)| groups.len() as u64,
        || aggregate.execute(opts, Some(&subquery_fn)),
    )?;
    stats.note_parallel(&metrics);

    // A global aggregate over an empty input still produces one group.
    if groups.is_empty() && query.group_by.is_empty() {
        groups.push(GroupEntry {
            key: Vec::new(),
            rep_row: None,
            states: specs
                .iter()
                .map(|s| AggState::new(&s.expr, db))
                .collect::<Result<Vec<_>, _>>()?,
        });
    }

    let mut columns = Vec::new();
    for (i, p) in query.projections.iter().enumerate() {
        columns.push(p.output_name(i));
    }

    let mut rows_out = Vec::new();
    let mut sort_keys_out = Vec::new();
    for group in groups {
        // Finished aggregate values for this group, keyed by expression node.
        let mut agg_values: HashMap<Expr, Value> = HashMap::new();
        for (spec, state) in specs.iter().zip(group.states) {
            agg_values.insert(spec.expr.clone(), state.finish());
        }

        // Representative row for evaluating group-key expressions in
        // projections / HAVING / ORDER BY.
        let representative: Vec<Value> = group
            .rep_row
            .map(|i| relation.rows[i].clone())
            .unwrap_or_else(|| vec![Value::Null; relation.schema.len()]);

        let ctx = EvalContext {
            params,
            aggregates: Some(&agg_values),
            subquery: Some(&subquery_fn),
            outer,
        };

        // HAVING.
        if let Some(having) = &query.having {
            let keep = eval(having, &relation.schema, &representative, &ctx)?
                .as_bool()
                .unwrap_or(false);
            if !keep {
                continue;
            }
        }

        // Projections.
        let mut out_row = Vec::with_capacity(query.projections.len());
        for p in &query.projections {
            out_row.push(eval(&p.expr, &relation.schema, &representative, &ctx)?);
        }

        // ORDER BY keys: aliases refer to projection outputs.
        let mut keys = Vec::with_capacity(query.order_by.len());
        for ob in &query.order_by {
            keys.push(resolve_order_key(
                ob,
                query,
                &out_row,
                &relation.schema,
                &representative,
                &ctx,
            )?);
        }

        rows_out.push(out_row);
        sort_keys_out.push(keys);
    }

    Ok(ProjectedRows {
        columns,
        rows: rows_out,
        sort_keys: sort_keys_out,
    })
}

fn project_rows(
    query: &Query,
    relation: &Relation,
    params: &[Value],
    outer: Option<(&RowSchema, &[Value])>,
    subquery_fn: SubqueryFn<'_>,
) -> Result<ProjectedRows, EngineError> {
    let mut columns = Vec::new();
    let star = query
        .projections
        .iter()
        .any(|p| matches!(&p.expr, Expr::Column(c) if c.column == "*"));
    if star {
        for (_, name) in &relation.schema.columns {
            columns.push(name.clone());
        }
    } else {
        for (i, p) in query.projections.iter().enumerate() {
            columns.push(p.output_name(i));
        }
    }

    let mut rows_out = Vec::with_capacity(relation.rows.len());
    let mut sort_keys_out = Vec::with_capacity(relation.rows.len());
    for row in &relation.rows {
        let ctx = EvalContext {
            params,
            aggregates: None,
            subquery: Some(subquery_fn),
            outer,
        };
        let out_row = if star {
            row.clone()
        } else {
            query
                .projections
                .iter()
                .map(|p| eval(&p.expr, &relation.schema, row, &ctx))
                .collect::<Result<Vec<_>, _>>()?
        };
        let mut keys = Vec::with_capacity(query.order_by.len());
        for ob in &query.order_by {
            keys.push(resolve_order_key(
                ob,
                query,
                &out_row,
                &relation.schema,
                row,
                &ctx,
            )?);
        }
        rows_out.push(out_row);
        sort_keys_out.push(keys);
    }
    Ok(ProjectedRows {
        columns,
        rows: rows_out,
        sort_keys: sort_keys_out,
    })
}

/// Resolves an ORDER BY key: projection aliases and positions take precedence,
/// otherwise the expression is evaluated against the source row.
fn resolve_order_key(
    ob: &OrderByItem,
    query: &Query,
    out_row: &[Value],
    schema: &RowSchema,
    row: &[Value],
    ctx: &EvalContext<'_>,
) -> Result<Value, EngineError> {
    if let Expr::Column(c) = &ob.expr {
        if c.table.is_none() {
            if let Some(pos) = query.projections.iter().position(|p| {
                p.alias
                    .as_deref()
                    .is_some_and(|a| a.eq_ignore_ascii_case(&c.column))
            }) {
                return Ok(out_row[pos].clone());
            }
        }
    }
    if let Expr::Literal(Literal::Number(n)) = &ob.expr {
        if let Ok(pos) = n.parse::<usize>() {
            if pos >= 1 && pos <= out_row.len() {
                return Ok(out_row[pos - 1].clone());
            }
        }
    }
    // The expression may itself be (or contain) one of the projection
    // expressions; evaluate directly.
    if let Some(pos) = query.projections.iter().position(|p| p.expr == ob.expr) {
        return Ok(out_row[pos].clone());
    }
    eval(&ob.expr, schema, row, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_stats_merge_sums_counters_and_keeps_selectivity_consistent() {
        // Two per-thread partials of one scan: 60+40 rows scanned, 15+10
        // survivors.
        let a = ExecStats {
            rows_scanned: 60,
            bytes_scanned: 600,
            rows_materialized: 15,
            bytes_materialized: 120,
            result_rows: 0,
            result_bytes: 0,
            segments_read: 2,
            segments_pruned: 1,
            index_probes: 2,
            index_rows_fetched: 30,
            postings_bytes_read: 240,
            morsels: 3,
            threads_used: 4,
            worker_busy_nanos: 1_000,
            parallel_wall_nanos: 400,
        };
        let b = ExecStats {
            rows_scanned: 40,
            bytes_scanned: 400,
            rows_materialized: 10,
            bytes_materialized: 80,
            result_rows: 25,
            result_bytes: 200,
            segments_read: 1,
            segments_pruned: 3,
            index_probes: 1,
            index_rows_fetched: 10,
            postings_bytes_read: 60,
            morsels: 2,
            threads_used: 2,
            worker_busy_nanos: 500,
            parallel_wall_nanos: 300,
        };
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.rows_scanned, 100);
        assert_eq!(merged.bytes_scanned, 1_000);
        assert_eq!(merged.rows_materialized, 25);
        assert_eq!(merged.bytes_materialized, 200);
        assert_eq!(merged.result_rows, 25);
        assert_eq!(merged.result_bytes, 200);
        assert_eq!(merged.segments_read, 3);
        assert_eq!(merged.segments_pruned, 4);
        assert_eq!(merged.index_probes, 3);
        assert_eq!(merged.index_rows_fetched, 40);
        assert_eq!(merged.postings_bytes_read, 300);
        assert_eq!(merged.morsels, 5);
        assert_eq!(merged.threads_used, 4);
        assert_eq!(merged.worker_busy_nanos, 1_500);
        assert_eq!(merged.parallel_wall_nanos, 700);
        // Selectivity over the merged totals: 25/100.
        assert!((merged.scan_selectivity() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn exec_stats_merge_into_empty_is_identity() {
        let partial = ExecStats {
            rows_scanned: 7,
            bytes_scanned: 70,
            rows_materialized: 3,
            bytes_materialized: 24,
            result_rows: 3,
            result_bytes: 24,
            segments_read: 0,
            segments_pruned: 0,
            index_probes: 0,
            index_rows_fetched: 0,
            postings_bytes_read: 0,
            morsels: 1,
            threads_used: 1,
            worker_busy_nanos: 10,
            parallel_wall_nanos: 10,
        };
        let mut merged = ExecStats::default();
        merged.merge(&partial);
        assert_eq!(merged.rows_scanned, partial.rows_scanned);
        assert_eq!(merged.bytes_scanned, partial.bytes_scanned);
        assert_eq!(merged.rows_materialized, partial.rows_materialized);
        assert_eq!(merged.bytes_materialized, partial.bytes_materialized);
        assert!((merged.scan_selectivity() - partial.scan_selectivity()).abs() < 1e-12);
        // An empty stats block is all-1.0 selectivity by convention.
        assert!((ExecStats::default().scan_selectivity() - 1.0).abs() < f64::EPSILON);
    }
}
