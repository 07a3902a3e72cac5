//! Client-side execution of split plans: RemoteSQL dispatch, LocalDecrypt,
//! LocalFilter, then LocalGroupBy/LocalGroupFilter, LocalProjection and
//! LocalSort through the engine's own operators
//! ([`monomi_engine::QueryTail`]).
//!
//! LocalDecrypt itself is the `decrypt` module: per RemoteSQL execution the
//! output columns are compiled into per-column decryptors and the result is
//! decrypted column-major. This module times it as one phase
//! (`QueryTimings::decrypt_seconds`, the `LocalDecrypt` span) and, under a
//! non-zero trace id, hangs the pipeline's per-column `Decrypt(<scheme>)`
//! spans beneath that span.
//!
//! The executor reports measured time only: the client's own work
//! (decryption and residual computation), the server's reported execution
//! time, and the time on the wire. Nothing in [`QueryTimings`] is modeled;
//! the planner's predictions live in [`crate::cost::CostBreakdown`].

use crate::decrypt::DecryptPipeline;
use crate::design::Encryptor;
use crate::plan::{RemotePlan, SplitPlan};
use crate::rewrite::normalize_expr;
use crate::transport::ServerTransport;
use crate::CoreError;
use monomi_engine::{
    collect_aggregates, AggSpec, BoundExpr, ColumnDef, ColumnType, Database, ExecOptions,
    ExecStats, PhaseLabels, QueryTail, ResultSet, SortKey, SubqueryResult, TableSchema, Value,
};
use monomi_obs::{Span, Stopwatch, TraceId};
use monomi_sql::ast::*;
use std::sync::Arc;

/// Measured timing breakdown of one query execution through MONOMI: clock
/// readings and counters, no model. [`total_seconds`](Self::total_seconds)
/// is the sum of the four measured phases (server, wire, decrypt, client);
/// the paper's throttled link is a prediction and lives in
/// [`crate::NetworkModel`], never here.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryTimings {
    /// Server-reported wall-clock time executing the server queries (the sum
    /// of the `RemoteSQL` spans). Real disk reads are inside it when the
    /// server runs on the segment store.
    pub server_seconds: f64,
    /// Aggregate CPU time the server's worker threads burned executing the
    /// queries (no disk I/O): wall-clock outside parallel regions plus the
    /// summed residency of every morsel worker inside them
    /// (`ExecStats::cpu_seconds`). Equals the server's execution wall time
    /// at `MONOMI_THREADS=1`; with a dedicated core per worker the ratio
    /// `server_cpu_seconds / server exec wall` is the observed effective
    /// parallelism. Worker residency includes descheduled time, so on
    /// oversubscribed hosts (threads > cores) this is an upper bound on
    /// true CPU.
    pub server_cpu_seconds: f64,
    /// Time on the wire: for TCP transports, the round-trip wall-clock of
    /// each server call minus the server-reported execution seconds (0 for
    /// in-process execution); the sum of the `Wire` spans.
    ///
    /// The subtraction is clamped at zero (via [`monomi_obs::wire_share`]):
    /// the two clocks are read on different machines, so on a loopback link a
    /// server-measured execution can exceed the client-measured round trip by
    /// scheduling noise, and a negative "time on the wire" is meaningless.
    pub wire_seconds: f64,
    /// Measured frame bytes the client sent to the server (0 in-process).
    pub wire_bytes_sent: u64,
    /// Measured frame bytes the client received from the server
    /// (0 in-process). Compare with `transfer_bytes`.
    pub wire_bytes_received: u64,
    /// Request attempts beyond the first the transport needed (retryable
    /// wire failures absorbed by the retry/backoff machinery; 0 in-process
    /// and on a healthy link).
    pub retries: u64,
    /// Connections the transport re-established mid-query (each replayed
    /// the session journal; 0 in-process and on a healthy link).
    pub reconnects: u64,
    /// Client time spent decrypting intermediate results (the sum of the
    /// `LocalDecrypt` spans).
    pub decrypt_seconds: f64,
    /// Client time spent on residual query processing.
    pub client_seconds: f64,
    /// Bytes of the encrypted results shipped from server to client (the
    /// byte count the paper's link would carry).
    pub transfer_bytes: u64,
    /// Bytes the server read from storage. For committed segments these
    /// are the *stored* (encoded) bytes of the segments scans actually
    /// decoded — real I/O, not modeled width.
    pub server_bytes_scanned: u64,
    /// Committed segments the server's scans read (0 when its tables have
    /// no store).
    pub server_segments_read: u64,
    /// Disk segments zone-map pruning skipped before any predicate ran.
    pub server_segments_pruned: u64,
    /// Bytes the server materialized after scan-level filtering (selection-
    /// vector survivors, referenced columns only) — the selectivity-aware
    /// scan output the cost model's materialization term corresponds to.
    pub server_bytes_materialized: u64,
    /// Secondary-index probes the server's scans ran (DET dictionary point
    /// lookups and OPE range binary searches over per-segment index blocks).
    pub server_index_probes: u64,
    /// Row ids the probes' postings yielded before intersection — the rows
    /// the index path actually fetched instead of scanning the segment.
    pub server_index_rows_fetched: u64,
    /// Bytes of posting lists the probes touched.
    pub server_postings_bytes_read: u64,
}

impl QueryTimings {
    /// The timings of one server execution, before any wire or client work:
    /// `exec_seconds` of server time doing the work `stats` counts, and
    /// `result` to ship back.
    pub fn server(stats: &ExecStats, exec_seconds: f64, result: &ResultSet) -> Self {
        QueryTimings {
            server_seconds: exec_seconds,
            // Aggregate CPU: serial portions run on one thread (wall ==
            // CPU); inside morsel-parallel regions the workers' summed busy
            // time replaces the region's wall-clock contribution.
            server_cpu_seconds: stats.cpu_seconds(exec_seconds),
            transfer_bytes: result.size_bytes() as u64,
            server_bytes_scanned: stats.bytes_scanned,
            server_segments_read: stats.segments_read,
            server_segments_pruned: stats.segments_pruned,
            server_bytes_materialized: stats.bytes_materialized,
            server_index_probes: stats.index_probes,
            server_index_rows_fetched: stats.index_rows_fetched,
            server_postings_bytes_read: stats.postings_bytes_read,
            ..QueryTimings::default()
        }
    }

    /// Total measured time: server + wire + decrypt + client.
    pub fn total_seconds(&self) -> f64 {
        self.server_seconds + self.wire_seconds + self.decrypt_seconds + self.client_seconds
    }

    /// Client CPU time (decrypt + residual compute), for Figure 7.
    pub fn client_cpu_seconds(&self) -> f64 {
        self.decrypt_seconds + self.client_seconds
    }

    fn add(&mut self, other: &QueryTimings) {
        self.server_seconds += other.server_seconds;
        self.server_cpu_seconds += other.server_cpu_seconds;
        self.wire_seconds += other.wire_seconds;
        self.wire_bytes_sent += other.wire_bytes_sent;
        self.wire_bytes_received += other.wire_bytes_received;
        self.retries += other.retries;
        self.reconnects += other.reconnects;
        self.decrypt_seconds += other.decrypt_seconds;
        self.client_seconds += other.client_seconds;
        self.transfer_bytes += other.transfer_bytes;
        self.server_bytes_scanned += other.server_bytes_scanned;
        self.server_segments_read += other.server_segments_read;
        self.server_segments_pruned += other.server_segments_pruned;
        self.server_bytes_materialized += other.server_bytes_materialized;
        self.server_index_probes += other.server_index_probes;
        self.server_index_rows_fetched += other.server_index_rows_fetched;
        self.server_postings_bytes_read += other.server_postings_bytes_read;
    }
}

/// Executes split plans against an encrypted database reached through a
/// [`ServerTransport`] — in-process or over a real TCP connection; results
/// are byte-identical either way.
pub struct SplitExecutor<'a> {
    pub server: &'a dyn ServerTransport,
    pub encryptor: &'a Encryptor,
    /// Engine execution options for both the server queries and the client's
    /// residual plaintext execution (results are thread-count-invariant).
    pub exec_options: ExecOptions,
}

impl<'a> SplitExecutor<'a> {
    /// Executes a plan under a trace id, returning plaintext results, the
    /// timing breakdown and the client span tree: the server's per-operator
    /// spans (echoed over the wire) nested under each RemoteSQL step, plus
    /// client-side decrypt and residual-computation spans. A zero trace id
    /// means untraced — no spans are collected anywhere and the server pays
    /// no timing overhead.
    pub fn run(
        &self,
        plan: &SplitPlan,
        trace: TraceId,
    ) -> Result<(ResultSet, QueryTimings, Vec<Span>), CoreError> {
        let mut spans = Vec::new();
        let (rs, timings) = match plan {
            SplitPlan::Remote(rp) => self.execute_remote(rp, trace, &mut spans)?,
            SplitPlan::Client { query, children } => {
                self.execute_client(query, children, trace, &mut spans)?
            }
        };
        Ok((rs, timings, spans))
    }

    fn execute_client(
        &self,
        query: &Query,
        children: &[(String, SplitPlan)],
        trace: TraceId,
        spans: &mut Vec<Span>,
    ) -> Result<(ResultSet, QueryTimings), CoreError> {
        let mut timings = QueryTimings::default();
        let (local_db, load_seconds) =
            self.residual_database(children, trace, spans, &mut timings)?;
        let started = Stopwatch::start();
        let (rs, _, _) = local_db
            .execute(query, &[], &self.exec_options, false)
            .map_err(|e| CoreError::new(e.to_string()))?;
        // The step's own client time, all under its span: building its
        // tables, then running the residual query over them.
        let residual_seconds = load_seconds + started.seconds();
        timings.client_seconds += residual_seconds;
        if !trace.is_zero() {
            spans.push(Span::leaf(
                "ClientResidual",
                residual_seconds,
                rs.rows.len() as u64,
            ));
        }
        Ok((rs, timings))
    }

    /// Materializes every child of a client-side step into the plaintext
    /// database its residual query runs over, returning it and the seconds
    /// spent building its tables (the children's own timings go to
    /// `timings`). Always storeless: decrypted intermediates must never be
    /// written to disk by the trusted side, whatever `MONOMI_STORAGE` says.
    fn residual_database(
        &self,
        children: &[(String, SplitPlan)],
        trace: TraceId,
        spans: &mut Vec<Span>,
        timings: &mut QueryTimings,
    ) -> Result<(Database, f64), CoreError> {
        let mut local_db = Database::in_memory();
        let mut load_seconds = 0.0;
        for (binding, child) in children {
            let dispatched = Stopwatch::start();
            let (rs, t, child_spans) = self.run(child, trace)?;
            timings.add(&t);
            if !trace.is_zero() {
                spans.push(Span::node(
                    format!("Child({binding})"),
                    dispatched.seconds(),
                    rs.rows.len() as u64,
                    child_spans,
                ));
            }
            let started = Stopwatch::start();
            let schema = TableSchema::new(
                binding.clone(),
                rs.columns
                    .iter()
                    .enumerate()
                    .map(|(i, name)| ColumnDef::new(name.clone(), column_type(&rs.rows, i)))
                    .collect(),
            );
            local_db.create_table(schema);
            local_db
                .bulk_load(binding, rs.rows)
                .map_err(|e| CoreError::new(e.to_string()))?;
            load_seconds += started.seconds();
        }
        Ok((local_db, load_seconds))
    }

    fn execute_remote(
        &self,
        rp: &RemotePlan,
        trace: TraceId,
        spans: &mut Vec<Span>,
    ) -> Result<(ResultSet, QueryTimings), CoreError> {
        let mut timings = QueryTimings::default();

        // 1. Child subqueries (uncorrelated) referenced by local predicates.
        // The compiled residual reads child `i`'s result at index `i`.
        let mut sub_results = Vec::with_capacity(rp.subquery_children.len());
        for (_, child) in &rp.subquery_children {
            let dispatched = Stopwatch::start();
            let (rs, t, child_spans) = self.run(child, trace)?;
            timings.add(&t);
            if !trace.is_zero() {
                spans.push(Span::node(
                    "Subquery".to_string(),
                    dispatched.seconds(),
                    rs.rows.len() as u64,
                    child_spans,
                ));
            }
            sub_results.push(Arc::new(SubqueryResult::new(rs.rows)));
        }

        // 2. RemoteSQL on the untrusted server, through the transport.
        let remote = self
            .server
            .execute_traced(&rp.server_query, &self.exec_options, trace)?;
        let enc_rs = remote.result;
        let exec_elapsed = remote.exec_seconds;
        timings.add(&QueryTimings {
            wire_seconds: remote.wire.seconds,
            wire_bytes_sent: remote.wire.bytes_sent,
            wire_bytes_received: remote.wire.bytes_received,
            retries: remote.wire.retries,
            reconnects: remote.wire.reconnects,
            ..QueryTimings::server(&remote.stats, exec_elapsed, &enc_rs)
        });
        if !trace.is_zero() {
            spans.push(Span::node(
                "RemoteSQL".to_string(),
                exec_elapsed,
                enc_rs.rows.len() as u64,
                remote.spans,
            ));
            spans.push(Span::leaf(
                "Wire",
                remote.wire.seconds,
                enc_rs.rows.len() as u64,
            ));
        }

        // 3. LocalDecrypt: the outputs' decryptors, compiled for this
        // execution, run column-major over the result (see `crate::decrypt`).
        let started = Stopwatch::start();
        let (rows, column_spans) = DecryptPipeline::compile(self.encryptor, &rp.outputs)?
            .run(&enc_rs, !trace.is_zero())?;
        let decrypt_seconds = started.seconds();
        timings.decrypt_seconds += decrypt_seconds;
        if !trace.is_zero() {
            spans.push(Span::node(
                "LocalDecrypt".to_string(),
                decrypt_seconds,
                rows.len() as u64,
                column_spans,
            ));
        }

        // 4. Residual client-side operators, compiled for this execution.
        let started = Stopwatch::start();
        let (result, phase_spans) =
            Residual::compile(rp)?.run(rows, &sub_results, &self.exec_options, !trace.is_zero())?;
        let residual_seconds = started.seconds();
        timings.client_seconds += residual_seconds;
        if !trace.is_zero() {
            spans.push(Span::node(
                "ClientResidual",
                residual_seconds,
                result.rows.len() as u64,
                phase_spans,
            ));
        }
        Ok((result, timings))
    }
}

/// What the columns of residual rows carry: one plaintext expression per
/// column — the decrypted outputs' sources, followed after a local GROUP BY
/// by the aggregates.
struct Environment {
    keys: Vec<Expr>,
}

impl Environment {
    /// Compiles `expr` for rows of this environment. Every subtree that
    /// matches a key once normalized becomes a read of that key's column;
    /// AVG(x) the environment lacks, over a SUM(x) and a COUNT(*) it
    /// carries, becomes their quotient. `subquery` maps each subquery to its
    /// index among the precomputed child results.
    fn bind(&self, expr: &Expr, subquery: &dyn Fn(&Query) -> Option<usize>) -> BoundExpr {
        let position = |e: &Expr| {
            let normalized = normalize_expr(e);
            self.keys.iter().position(|k| *k == normalized)
        };
        let resolve = |e: &Expr| {
            if let Some(i) = position(e) {
                return Some(BoundExpr::Column(i));
            }
            let Expr::Aggregate {
                func: AggFunc::Avg,
                arg: Some(arg),
                distinct,
            } = e
            else {
                return None;
            };
            let sum = position(&Expr::Aggregate {
                func: AggFunc::Sum,
                arg: Some(arg.clone()),
                distinct: *distinct,
            })?;
            let count = position(&Expr::Aggregate {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            })?;
            Some(BoundExpr::BinaryOp {
                left: Box::new(BoundExpr::Column(sum)),
                op: BinaryOp::Div,
                right: Box::new(BoundExpr::Column(count)),
            })
        };
        BoundExpr::bind(expr, &resolve, subquery)
    }
}

/// The residual operators of one [`RemotePlan`] — LocalFilter,
/// LocalGroupBy, LocalGroupFilter, LocalProjection, LocalSort — compiled once
/// per execution. Every filter, group key, aggregate argument, HAVING,
/// projection and ORDER BY key is substituted against the environment it
/// runs over, normalized (AVG over a fetched SUM and COUNT becomes their
/// quotient), and bound to that environment's column positions; each
/// IN / EXISTS / scalar subquery is bound to its `subquery_children` entry by
/// index. [`run`](Self::run) filters the decrypted rows and hands them to the
/// engine's own aggregation, projection, DISTINCT, sort and LIMIT
/// ([`QueryTail`]).
struct Residual {
    filters: Vec<BoundExpr>,
    tail: QueryTail,
    columns: Vec<String>,
}

/// The span labels of the residual's phases that run in [`QueryTail`].
const RESIDUAL_LABELS: PhaseLabels = PhaseLabels {
    group: "Residual(group)",
    project: Some("Residual(project)"),
    sort: "Residual(sort)",
};

impl Residual {
    fn compile(rp: &RemotePlan) -> Result<Self, CoreError> {
        let slot = |q: &Query| rp.subquery_children.iter().position(|(sub, _)| sub == q);
        let env = Environment {
            keys: rp.outputs.iter().map(|o| o.source.clone()).collect(),
        };
        let filters = rp
            .local_filters
            .iter()
            .map(|f| env.bind(f, &slot))
            .collect();
        let aggregates = match rp.local_group_by {
            Some(_) => collect_aggregates(&rp.projections, rp.local_having.as_ref(), &rp.order_by),
            None => Vec::new(),
        };
        let specs = aggregates
            .iter()
            .map(|agg| AggSpec::of(agg, None, |arg| env.bind(arg, &slot)))
            .collect::<Result<_, _>>()
            .map_err(|e| CoreError::new(e.to_string()))?;
        let group_by = rp
            .local_group_by
            .as_ref()
            .map(|keys| keys.iter().map(|k| env.bind(k, &slot)).collect());
        let width = env.keys.len();
        // A table-fetch plan (no projections) outputs the environment.
        let columns = if rp.projections.is_empty() {
            env.keys
                .iter()
                .map(|k| match k {
                    Expr::Column(c) => c.column.clone(),
                    other => other.to_string(),
                })
                .collect()
        } else {
            rp.projections
                .iter()
                .enumerate()
                .map(|(i, p)| p.output_name(i))
                .collect()
        };
        // HAVING, the projections and the ORDER BY keys run over a group's
        // first row, then its aggregates.
        let mut env = env;
        env.keys.extend(aggregates.into_iter().map(normalize_expr));
        let bind = |e| env.bind(e, &slot);
        let tail = QueryTail {
            width,
            group_by,
            aggregates: specs,
            aggregate_reads_subqueries: !rp.subquery_children.is_empty(),
            having: rp.local_having.as_ref().map(bind),
            projections: (!rp.projections.is_empty())
                .then(|| rp.projections.iter().map(|p| bind(&p.expr)).collect()),
            sort_keys: rp
                .order_by
                .iter()
                .map(|ob| SortKey::bind(ob, &rp.projections, rp.projections.len(), bind))
                .collect(),
            distinct: rp.distinct,
            limit: rp.limit,
        };
        Ok(Residual {
            filters,
            tail,
            columns,
        })
    }

    /// Runs the residual over the decrypted rows, reading subquery `i` from
    /// `subqueries[i]`. With `traced`, also returns one `Residual(<phase>)`
    /// span per phase that ran (filter, group, project, sort); untraced, no
    /// clock is read.
    fn run(
        self,
        mut rows: Vec<Vec<Value>>,
        subqueries: &Vec<Arc<SubqueryResult>>,
        opts: &ExecOptions,
        traced: bool,
    ) -> Result<(ResultSet, Vec<Span>), CoreError> {
        let mut spans = traced.then(Vec::new);
        if !self.filters.is_empty() {
            let watch = traced.then(Stopwatch::start);
            for filter in &self.filters {
                let mut kept = Vec::with_capacity(rows.len());
                for row in rows {
                    let holds = filter
                        .eval(&row, subqueries)
                        .map_err(|e| CoreError::new(e.to_string()))?;
                    if holds.as_bool().unwrap_or(false) {
                        kept.push(row);
                    }
                }
                rows = kept;
            }
            if let (Some(spans), Some(watch)) = (&mut spans, watch) {
                spans.push(Span::leaf(
                    "Residual(filter)",
                    watch.seconds(),
                    rows.len() as u64,
                ));
            }
        }
        let rows = self
            .tail
            .run(
                rows,
                opts,
                subqueries,
                &RESIDUAL_LABELS,
                &mut ExecStats::default(),
                &mut spans,
            )
            .map_err(|e| CoreError::new(e.to_string()))?;
        let result = ResultSet {
            columns: self.columns,
            rows,
        };
        Ok((result, spans.unwrap_or_default()))
    }
}

/// The type of column `i` of a client-side table over `rows`: that of its
/// first non-NULL value, widened to Float or Date when an Int shares the
/// column with one. Only `TableSchema::check_row` reads it, so an all-NULL
/// column may have any type.
fn column_type(rows: &[Vec<Value>], i: usize) -> ColumnType {
    let type_of = |v: &Value| match v {
        Value::Float(_) => Some(ColumnType::Float),
        Value::Str(_) => Some(ColumnType::Str),
        Value::Date(_) => Some(ColumnType::Date),
        Value::Bytes(_) | Value::List(_) => Some(ColumnType::Bytes),
        Value::Int(_) | Value::Null => None,
    };
    let mut values = rows.iter().map(|r| &r[i]).filter(|v| !v.is_null());
    match values.next() {
        None => ColumnType::Int,
        Some(Value::Int(_)) => values
            .find_map(|v| type_of(v).filter(|t| matches!(t, ColumnType::Float | ColumnType::Date)))
            .unwrap_or(ColumnType::Int),
        Some(v) => type_of(v).unwrap_or(ColumnType::Int),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::PhysicalDesign;
    use crate::plan::{DecryptSpec, OutputColumn};
    use crate::transport::InProcessTransport;
    use monomi_crypto::MasterKey;
    use monomi_sql::parse_query;

    /// The client's residual database holds decrypted intermediates, so it
    /// must not get a segment store even in a process started with
    /// `MONOMI_STORAGE=disk` (where `Database::new()` would create one under
    /// `$TMPDIR`).
    #[test]
    fn residual_database_of_a_client_step_is_never_disk_backed() {
        let server = InProcessTransport::new(Database::in_memory());
        let encryptor = Encryptor::new(MasterKey::from_bytes([7; 32]), PhysicalDesign::new(128), 1);
        let executor = SplitExecutor {
            server: &server,
            encryptor: &encryptor,
            exec_options: ExecOptions::serial(),
        };
        let child = SplitPlan::Client {
            query: parse_query("SELECT 7 AS x").unwrap(),
            children: Vec::new(),
        };
        let children = vec![("c".to_string(), child)];

        let mut timings = QueryTimings::default();
        let (db, _) = executor
            .residual_database(&children, TraceId::ZERO, &mut Vec::new(), &mut timings)
            .unwrap();
        assert!(!db.is_disk_backed());
        let table = db.table("c").expect("child materialized");
        assert_eq!(table.backing_name(), "memory");
        assert_eq!(table.stored_bytes(), 0);
        assert_eq!(table.rows(), vec![vec![Value::Int(7)]]);
    }

    /// Plaintext tables `t(k, g, v, w)` and `s(x)`, `s2(x)` (both with a
    /// NULL), loaded into a fresh database.
    fn residual_test_db() -> Database {
        let mut db = Database::in_memory();
        let int = |v: i64| Value::Int(v);
        let schema = |name: &str, columns: &[(&str, ColumnType)]| {
            TableSchema::new(
                name,
                columns
                    .iter()
                    .map(|(c, ty)| ColumnDef::new(*c, *ty))
                    .collect(),
            )
        };
        db.create_table(schema(
            "t",
            &[
                ("k", ColumnType::Int),
                ("g", ColumnType::Str),
                ("v", ColumnType::Int),
                ("w", ColumnType::Int),
            ],
        ));
        let rows = [
            (1, "a", 1, Some(10)),
            (2, "a", 2, Some(20)),
            (3, "b", 3, Some(20)),
            (4, "b", 4, Some(30)),
            (5, "c", 5, Some(30)),
            (1, "c", 6, Some(30)),
            (2, "d", 7, Some(10)),
            (6, "d", 8, Some(40)),
            (3, "e", 4, Some(20)),
            (7, "e", 1, Some(50)),
            (4, "e", 3, None),
        ];
        let rows = rows
            .iter()
            .map(|&(k, g, v, w)| {
                vec![
                    int(k),
                    Value::Str(g.into()),
                    int(v),
                    w.map_or(Value::Null, int),
                ]
            })
            .collect();
        db.bulk_load("t", rows).unwrap();
        for (name, xs) in [("s", vec![1, 2, 3, 4, 5, 6]), ("s2", vec![6])] {
            db.create_table(schema(name, &[("x", ColumnType::Int)]));
            let mut rows: Vec<Vec<Value>> = xs.into_iter().map(|x| vec![int(x)]).collect();
            rows.push(vec![Value::Null]);
            db.bulk_load(name, rows).unwrap();
        }
        db
    }

    /// A residual-free RemotePlan: the server runs `server_sql` over
    /// plaintext and each output column comes back as is, keyed by `sources`.
    fn plaintext_remote(server_sql: &str, sources: &[&str]) -> RemotePlan {
        let server_query = parse_query(server_sql).unwrap();
        let source_of = |s: &str| {
            parse_query(&format!("SELECT {s} FROM t"))
                .unwrap()
                .projections[0]
                .expr
                .clone()
        };
        RemotePlan {
            outputs: sources
                .iter()
                .zip(&server_query.projections)
                .map(|(s, p)| OutputColumn {
                    source: source_of(s),
                    server_expr: p.expr.clone(),
                    decrypt: DecryptSpec::Plain,
                })
                .collect(),
            server_query,
            subquery_children: Vec::new(),
            local_filters: Vec::new(),
            local_group_by: None,
            local_having: None,
            server_grouped: false,
            projections: Vec::new(),
            order_by: Vec::new(),
            limit: None,
            distinct: false,
        }
    }

    /// A RemotePlan whose server fetches `t`'s rows as they are and whose
    /// residual runs all of `sql` on the client: WHERE as local filters
    /// (each IN subquery a child plan over `s` or `s2`), a local GROUP BY
    /// whenever `sql` aggregates, then HAVING, projections, ORDER BY, LIMIT
    /// and DISTINCT.
    fn local_plan(sql: &str) -> RemotePlan {
        let q = parse_query(sql).unwrap();
        let mut plan = plaintext_remote("SELECT k, g, v, w FROM t", &["k", "g", "v", "w"]);
        for sub in ["SELECT x FROM s", "SELECT x FROM s2"] {
            if sql.contains(&format!("({sub})")) {
                let child = plaintext_remote(sub, &["x"]);
                plan.subquery_children.push((
                    parse_query(sub).unwrap(),
                    SplitPlan::Remote(Box::new(child)),
                ));
            }
        }
        plan.local_filters = q
            .where_clause
            .as_ref()
            .map(|w| w.split_conjuncts().into_iter().cloned().collect())
            .unwrap_or_default();
        plan.local_group_by = q.is_aggregate_query().then(|| q.group_by.clone());
        plan.local_having = q.having.clone();
        plan.projections = q.projections.clone();
        plan.order_by = q.order_by.clone();
        plan.limit = q.limit;
        plan.distinct = q.distinct;
        plan
    }

    /// The compiled residual computes what the plaintext engine computes for
    /// the same query, Debug-equal, at 1 and 4 threads over two-row morsels.
    /// The local plans run every residual operator: local IN and NOT IN
    /// subquery filters (NULLs in the subquery results), a local GROUP BY
    /// with COUNT, SUM and AVG over DISTINCT values (an integer and a float
    /// argument), MIN/MAX over strings, a group key that is an expression
    /// the SELECT list repeats, a global aggregate over no rows (one row
    /// out), a GROUP BY that finds no group (no row out), HAVING, ORDER BY by
    /// alias, by position and by an expression no projection repeats,
    /// DISTINCT, and LIMIT with and without ORDER BY. The AVG → SUM /
    /// COUNT(*) rewrite applies only where the server grouped and shipped the
    /// SUM and the COUNT, so a server-grouped plan covers it. Traced,
    /// `ClientResidual` carries one span per phase that ran, within its own
    /// duration.
    #[test]
    fn compiled_residual_matches_the_plaintext_engine() {
        let plain = residual_test_db();
        let server = InProcessTransport::new(residual_test_db());
        let encryptor = Encryptor::new(MasterKey::from_bytes([7; 32]), PhysicalDesign::new(128), 1);

        // Each query and the rows it returns: none is vacuous but the one
        // that finds no group.
        let local_sqls = [
            (
                "SELECT DISTINCT COUNT(DISTINCT w) AS dw, SUM(v) AS sv FROM t \
                 WHERE k IN (SELECT x FROM s) AND k NOT IN (SELECT x FROM s2) \
                 GROUP BY g HAVING SUM(v) > 2 ORDER BY sv DESC, 1, MAX(v) LIMIT 3",
                3,
            ),
            (
                "SELECT v % 3, SUM(DISTINCT w), AVG(DISTINCT w), SUM(DISTINCT w * 0.1), \
                 MIN(g), MAX(g) FROM t GROUP BY v % 3 ORDER BY 1",
                3,
            ),
            (
                "SELECT COUNT(*), SUM(DISTINCT v), MIN(g), AVG(w) FROM t WHERE k > 100",
                1,
            ),
            ("SELECT g, COUNT(*) FROM t WHERE k > 100 GROUP BY g", 0),
            (
                "SELECT g, SUM(v) FROM t WHERE w IS NOT NULL GROUP BY g LIMIT 2",
                2,
            ),
        ];
        let mut plans: Vec<(&str, RemotePlan, usize)> = local_sqls
            .iter()
            .map(|&(sql, rows)| (sql, local_plan(sql), rows))
            .collect();

        let grouped_sql = "SELECT g, AVG(v) AS av, SUM(v) FROM t GROUP BY g \
                           HAVING AVG(v) > 2 ORDER BY av DESC, g";
        let q = parse_query(grouped_sql).unwrap();
        let mut grouped = plaintext_remote(
            "SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g",
            &["g", "SUM(v)", "COUNT(*)"],
        );
        grouped.server_grouped = true;
        grouped.local_having = q.having.clone();
        grouped.projections = q.projections.clone();
        grouped.order_by = q.order_by.clone();
        plans.push((grouped_sql, grouped, 4));

        for threads in [1, 4] {
            let opts = ExecOptions {
                morsel_rows: 2,
                ..ExecOptions::with_threads(threads)
            };
            let executor = SplitExecutor {
                server: &server,
                encryptor: &encryptor,
                exec_options: opts,
            };
            for (sql, plan, rows) in &plans {
                let (expected, _, _) = plain
                    .execute(&parse_query(sql).unwrap(), &[], &opts, false)
                    .unwrap();
                assert_eq!(expected.rows.len(), *rows, "{sql}");
                let plan = SplitPlan::Remote(Box::new(plan.clone()));
                let (rs, _, _) = executor.run(&plan, TraceId::ZERO).unwrap();
                assert_eq!(format!("{rs:?}"), format!("{expected:?}"), "{sql}");

                let trace = monomi_obs::TraceIdGen::new(1).next_id();
                let (traced, _, spans) = executor.run(&plan, trace).unwrap();
                assert_eq!(format!("{traced:?}"), format!("{expected:?}"), "{sql}");
                let residual = spans
                    .iter()
                    .find(|s| s.label == "ClientResidual")
                    .expect("ClientResidual span");
                let phases: Vec<&str> =
                    residual.children.iter().map(|c| c.label.as_str()).collect();
                let SplitPlan::Remote(rp) = &plan else {
                    unreachable!()
                };
                let expected_phases: Vec<&str> = [
                    (!rp.local_filters.is_empty(), "Residual(filter)"),
                    (rp.local_group_by.is_some(), "Residual(group)"),
                    (true, "Residual(project)"),
                    (!rp.order_by.is_empty(), "Residual(sort)"),
                ]
                .into_iter()
                .filter_map(|(ran, label)| ran.then_some(label))
                .collect();
                assert_eq!(phases, expected_phases, "{sql}");
                let covered: f64 = residual.children.iter().map(|c| c.seconds).sum();
                assert!(
                    covered <= residual.seconds,
                    "{sql}: phases exceed the residual"
                );
            }
        }
    }
}
