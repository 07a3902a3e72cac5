//! Client-side execution of split plans: RemoteSQL dispatch, LocalDecrypt,
//! LocalFilter, LocalGroupBy/LocalGroupFilter, LocalProjection, LocalSort.
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
use crate::plan::{DecryptSpec, OutputColumn, RemotePlan, SplitPlan};
use crate::transport::ServerTransport;
use crate::CoreError;
use monomi_engine::{
    ColumnDef, ColumnType, Database, ExecOptions, ResultSet, RowSchema, TableSchema, Value,
};
use monomi_obs::{Span, Stopwatch, TraceId};
use monomi_sql::ast::*;
use std::collections::HashMap;

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

/// The decrypted intermediate result of a RemoteSQL + LocalDecrypt step: rows
/// whose columns are keyed by the plaintext expression they carry.
struct Environment {
    keys: Vec<Expr>,
    rows: Vec<Vec<Value>>,
}

impl<'a> SplitExecutor<'a> {
    /// Executes a plan, returning plaintext results and the timing breakdown.
    pub fn execute(&self, plan: &SplitPlan) -> Result<(ResultSet, QueryTimings), CoreError> {
        let (rs, timings, _) = self.execute_traced(plan, TraceId::ZERO)?;
        Ok((rs, timings))
    }

    /// Executes a plan under a trace id, additionally returning the client
    /// span tree: the server's per-operator spans (echoed over the wire)
    /// nested under each RemoteSQL step, plus client-side decrypt and
    /// residual-computation spans. A zero trace id means untraced — no spans
    /// are collected anywhere and the server pays no timing overhead.
    pub fn execute_traced(
        &self,
        plan: &SplitPlan,
        trace: TraceId,
    ) -> Result<(ResultSet, QueryTimings, Vec<Span>), CoreError> {
        let mut spans = Vec::new();
        let (rs, timings) = self.dispatch(plan, trace, &mut spans)?;
        Ok((rs, timings, spans))
    }

    fn dispatch(
        &self,
        plan: &SplitPlan,
        trace: TraceId,
        spans: &mut Vec<Span>,
    ) -> Result<(ResultSet, QueryTimings), CoreError> {
        match plan {
            SplitPlan::Remote(rp) => self.execute_remote(rp, trace, spans),
            SplitPlan::Client { query, children } => {
                self.execute_client(query, children, trace, spans)
            }
        }
    }

    fn execute_client(
        &self,
        query: &Query,
        children: &[(String, SplitPlan)],
        trace: TraceId,
        spans: &mut Vec<Span>,
    ) -> Result<(ResultSet, QueryTimings), CoreError> {
        let mut timings = QueryTimings::default();
        let local_db = self.residual_database(children, trace, spans, &mut timings)?;
        let started = Stopwatch::start();
        let (rs, _) = local_db
            .execute_with(query, &[], &self.exec_options)
            .map_err(|e| CoreError::new(e.to_string()))?;
        let residual_seconds = started.seconds();
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
    /// database its residual query runs over. Always storeless: decrypted
    /// intermediates must never be written to disk by the trusted side,
    /// whatever `MONOMI_STORAGE` says.
    fn residual_database(
        &self,
        children: &[(String, SplitPlan)],
        trace: TraceId,
        spans: &mut Vec<Span>,
        timings: &mut QueryTimings,
    ) -> Result<Database, CoreError> {
        let mut local_db = Database::in_memory();
        for (binding, child) in children {
            let mut child_spans = Vec::new();
            let dispatched = Stopwatch::start();
            let (rs, t) = self.dispatch(child, trace, &mut child_spans)?;
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
            // Column types come from the child plan's declared schema first;
            // sniffing the rows is only a fallback for expressions the
            // inference cannot type. Without the declared types, an all-NULL
            // intermediate column silently became Int, which then made
            // comparisons against its real type vacuously false.
            let declared = output_column_types(child);
            let schema = TableSchema::new(
                binding.clone(),
                rs.columns
                    .iter()
                    .enumerate()
                    .map(|(i, name)| {
                        let ty = declared
                            .get(i)
                            .and_then(|(_, t)| *t)
                            .or_else(|| rs.rows.iter().find_map(|r| value_column_type(&r[i])))
                            .unwrap_or(ColumnType::Int);
                        ColumnDef::new(name.clone(), ty)
                    })
                    .collect(),
            );
            local_db.create_table(schema);
            local_db
                .bulk_load(binding, rs.rows)
                .map_err(|e| CoreError::new(e.to_string()))?;
            timings.client_seconds += started.seconds();
        }
        Ok(local_db)
    }

    fn execute_remote(
        &self,
        rp: &RemotePlan,
        trace: TraceId,
        spans: &mut Vec<Span>,
    ) -> Result<(ResultSet, QueryTimings), CoreError> {
        let mut timings = QueryTimings::default();

        // 1. Child subqueries (uncorrelated) referenced by local predicates.
        let mut sub_results: HashMap<Query, Vec<Vec<Value>>> = HashMap::new();
        for (sub, child) in &rp.subquery_children {
            let mut child_spans = Vec::new();
            let dispatched = Stopwatch::start();
            let (rs, t) = self.dispatch(child, trace, &mut child_spans)?;
            timings.add(&t);
            if !trace.is_zero() {
                spans.push(Span::node(
                    "Subquery".to_string(),
                    dispatched.seconds(),
                    rs.rows.len() as u64,
                    child_spans,
                ));
            }
            sub_results.insert(sub.clone(), rs.rows);
        }

        // 2. RemoteSQL on the untrusted server, through the transport.
        let remote = self
            .server
            .execute_traced(&rp.server_query, &self.exec_options, trace)?;
        let enc_rs = remote.result;
        let stats = remote.stats;
        let exec_elapsed = remote.exec_seconds;
        timings.server_seconds += exec_elapsed;
        timings.wire_seconds += remote.wire.seconds;
        timings.wire_bytes_sent += remote.wire.bytes_sent;
        timings.wire_bytes_received += remote.wire.bytes_received;
        timings.retries += remote.wire.retries;
        timings.reconnects += remote.wire.reconnects;
        // Aggregate CPU: serial portions run on one thread (wall == CPU);
        // inside morsel-parallel regions the workers' summed busy time
        // replaces the region's wall-clock contribution.
        timings.server_cpu_seconds += stats.cpu_seconds(exec_elapsed);
        timings.server_bytes_scanned += stats.bytes_scanned;
        timings.server_segments_read += stats.segments_read;
        timings.server_segments_pruned += stats.segments_pruned;
        timings.server_bytes_materialized += stats.bytes_materialized;
        timings.server_index_probes += stats.index_probes;
        timings.server_index_rows_fetched += stats.index_rows_fetched;
        timings.server_postings_bytes_read += stats.postings_bytes_read;
        timings.transfer_bytes += enc_rs.size_bytes() as u64;
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

        // 3. LocalDecrypt.
        let started = Stopwatch::start();
        let (env, column_spans) = self.decrypt(&rp.outputs, &enc_rs, !trace.is_zero())?;
        let decrypt_seconds = started.seconds();
        timings.decrypt_seconds += decrypt_seconds;
        if !trace.is_zero() {
            spans.push(Span::node(
                "LocalDecrypt".to_string(),
                decrypt_seconds,
                env.rows.len() as u64,
                column_spans,
            ));
        }

        // 4. Residual client-side operators.
        let started = Stopwatch::start();
        let result = self.finish_locally(rp, env, &sub_results)?;
        let residual_seconds = started.seconds();
        timings.client_seconds += residual_seconds;
        if !trace.is_zero() {
            spans.push(Span::leaf(
                "ClientResidual",
                residual_seconds,
                result.rows.len() as u64,
            ));
        }
        Ok((result, timings))
    }

    /// LocalDecrypt: compiles the outputs' decryptors for this execution and
    /// runs them column-major over the result (see [`crate::decrypt`]).
    /// Returns the per-column spans when `traced`.
    fn decrypt(
        &self,
        outputs: &[OutputColumn],
        enc_rs: &ResultSet,
        traced: bool,
    ) -> Result<(Environment, Vec<Span>), CoreError> {
        let keys: Vec<Expr> = outputs.iter().map(|o| o.source.clone()).collect();
        let (rows, spans) =
            DecryptPipeline::compile(self.encryptor, outputs)?.run(enc_rs, traced)?;
        Ok((Environment { keys, rows }, spans))
    }

    fn finish_locally(
        &self,
        rp: &RemotePlan,
        env: Environment,
        sub_results: &HashMap<Query, Vec<Vec<Value>>>,
    ) -> Result<ResultSet, CoreError> {
        // Build an engine row schema with synthetic names for every environment
        // key so we can reuse the engine's expression evaluator.
        let schema = RowSchema::new(
            (0..env.keys.len())
                .map(|i| (None, format!("__env{i}")))
                .collect(),
        );
        let substitute = |expr: &Expr| substitute_env(expr, &env.keys);
        let subquery_fn = move |q: &Query,
                                _outer: Option<(&RowSchema, &[Value])>|
              -> Result<Vec<Vec<Value>>, monomi_engine::EngineError> {
            sub_results
                .get(q)
                .cloned()
                .ok_or_else(|| monomi_engine::EngineError::new("subquery result not precomputed"))
        };

        let eval_row = |expr: &Expr, row: &[Value]| -> Result<Value, CoreError> {
            let substituted = substitute(expr);
            let ctx = monomi_engine::EvalContext {
                params: &[],
                aggregates: None,
                subquery: Some(&subquery_fn),
                outer: None,
            };
            monomi_engine::expr::eval(&substituted, &schema, row, &ctx)
                .map_err(|e| CoreError::new(e.to_string()))
        };

        // 1. Local filters.
        let mut rows = env.rows;
        for filter in &rp.local_filters {
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows {
                if eval_row(filter, &row)?.as_bool().unwrap_or(false) {
                    kept.push(row);
                }
            }
            rows = kept;
        }

        // 2. Local grouping if the server did not group.
        let (final_keys, mut final_rows): (Vec<Expr>, Vec<Vec<Value>>) =
            if let Some(group_keys) = &rp.local_group_by {
                let mut agg_exprs: Vec<Expr> = Vec::new();
                let mut collect = |e: &Expr| {
                    e.walk(&mut |n| {
                        if matches!(n, Expr::Aggregate { .. }) && !agg_exprs.contains(n) {
                            agg_exprs.push(n.clone());
                        }
                    })
                };
                for p in &rp.projections {
                    collect(&p.expr);
                }
                if let Some(h) = &rp.local_having {
                    collect(h);
                }
                for o in &rp.order_by {
                    collect(&o.expr);
                }

                let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
                let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
                for (ri, row) in rows.iter().enumerate() {
                    let key: Vec<Value> = group_keys
                        .iter()
                        .map(|k| eval_row(k, row))
                        .collect::<Result<_, _>>()?;
                    let gi = *index.entry(key.clone()).or_insert_with(|| {
                        groups.push((key, Vec::new()));
                        groups.len() - 1
                    });
                    groups[gi].1.push(ri);
                }
                if groups.is_empty() && group_keys.is_empty() {
                    groups.push((Vec::new(), Vec::new()));
                }

                let mut keys: Vec<Expr> = group_keys.iter().map(normalize_key).collect();
                keys.extend(agg_exprs.iter().map(normalize_key));
                let mut out_rows = Vec::with_capacity(groups.len());
                for (key_vals, members) in &groups {
                    let mut row_out = key_vals.clone();
                    for agg in &agg_exprs {
                        row_out.push(compute_local_aggregate(agg, members, &rows, &eval_row)?);
                    }
                    out_rows.push(row_out);
                }
                (keys, out_rows)
            } else {
                (env.keys.clone(), rows)
            };

        // When aggregating on the client we must also handle queries with no
        // GROUP BY but local aggregates over ungrouped rows (handled above via
        // empty group_keys), so nothing more to do here.

        // 3. Local HAVING.
        let schema2 = RowSchema::new(
            (0..final_keys.len())
                .map(|i| (None, format!("__env{i}")))
                .collect(),
        );
        let eval_final = |expr: &Expr, row: &[Value]| -> Result<Value, CoreError> {
            let substituted = substitute_env(expr, &final_keys);
            let ctx = monomi_engine::EvalContext {
                params: &[],
                aggregates: None,
                subquery: Some(&subquery_fn),
                outer: None,
            };
            monomi_engine::expr::eval(&substituted, &schema2, row, &ctx)
                .map_err(|e| CoreError::new(e.to_string()))
        };
        if let Some(having) = &rp.local_having {
            let mut kept = Vec::with_capacity(final_rows.len());
            for row in final_rows {
                if eval_final(having, &row)?.as_bool().unwrap_or(false) {
                    kept.push(row);
                }
            }
            final_rows = kept;
        }

        // 4. Projection.
        // Each projected row carries its ORDER BY sort key alongside the values.
        type KeyedRows = Vec<(Vec<Value>, Vec<Value>)>;
        let (columns, mut projected): (Vec<String>, KeyedRows) = if rp.projections.is_empty() {
            // Table-fetch plan: output the environment columns directly.
            let columns = final_keys
                .iter()
                .map(|k| match k {
                    Expr::Column(c) => c.column.clone(),
                    other => other.to_string(),
                })
                .collect();
            (
                columns,
                final_rows.into_iter().map(|r| (r, Vec::new())).collect(),
            )
        } else {
            let columns = rp
                .projections
                .iter()
                .enumerate()
                .map(|(i, p)| p.output_name(i))
                .collect();
            let mut out = Vec::with_capacity(final_rows.len());
            for row in &final_rows {
                let mut proj = Vec::with_capacity(rp.projections.len());
                for p in &rp.projections {
                    proj.push(eval_final(&p.expr, row)?);
                }
                // Sort keys.
                let mut sort_keys = Vec::with_capacity(rp.order_by.len());
                for ob in &rp.order_by {
                    let key = resolve_order_key(ob, rp, &proj, row, &eval_final)?;
                    sort_keys.push(key);
                }
                out.push((proj, sort_keys));
            }
            (columns, out)
        };

        // 5. DISTINCT.
        if rp.distinct {
            let mut seen = std::collections::HashSet::new();
            projected.retain(|(row, _)| seen.insert(row.clone()));
        }

        // 6. LocalSort + LIMIT.
        if !rp.order_by.is_empty() {
            projected.sort_by(|(_, ka), (_, kb)| {
                for (i, ob) in rp.order_by.iter().enumerate() {
                    let ord = ka[i].compare(&kb[i]);
                    let ord = if ob.desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        let mut rows_out: Vec<Vec<Value>> = projected.into_iter().map(|(r, _)| r).collect();
        if let Some(limit) = rp.limit {
            rows_out.truncate(limit as usize);
        }

        Ok(ResultSet {
            columns,
            rows: rows_out,
        })
    }
}

fn resolve_order_key(
    ob: &OrderByItem,
    rp: &RemotePlan,
    projected: &[Value],
    row: &[Value],
    eval_final: &impl Fn(&Expr, &[Value]) -> Result<Value, CoreError>,
) -> Result<Value, CoreError> {
    if let Expr::Column(c) = &ob.expr {
        if c.table.is_none() {
            if let Some(pos) = rp.projections.iter().position(|p| {
                p.alias
                    .as_deref()
                    .is_some_and(|a| a.eq_ignore_ascii_case(&c.column))
            }) {
                return Ok(projected[pos].clone());
            }
        }
    }
    if let Expr::Literal(Literal::Number(n)) = &ob.expr {
        if let Ok(pos) = n.parse::<usize>() {
            if pos >= 1 && pos <= projected.len() {
                return Ok(projected[pos - 1].clone());
            }
        }
    }
    if let Some(pos) = rp.projections.iter().position(|p| p.expr == ob.expr) {
        return Ok(projected[pos].clone());
    }
    eval_final(&ob.expr, row)
}

/// Replaces every subtree of `expr` that structurally matches one of the
/// environment keys with a reference to the corresponding synthetic column.
fn substitute_env(expr: &Expr, keys: &[Expr]) -> Expr {
    let normalized = crate::rewrite::normalize_expr(expr);
    if let Some(idx) = keys.iter().position(|k| *k == normalized) {
        return Expr::col(format!("__env{idx}"));
    }
    match expr {
        Expr::BinaryOp { left, op, right } => Expr::BinaryOp {
            left: Box::new(substitute_env(left, keys)),
            op: *op,
            right: Box::new(substitute_env(right, keys)),
        },
        Expr::UnaryOp { op, expr } => Expr::UnaryOp {
            op: *op,
            expr: Box::new(substitute_env(expr, keys)),
        },
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => {
            // AVG over a fetched SUM: rewrite AVG(x) as SUM(x) / COUNT(*) when
            // both are available in the environment.
            if *func == AggFunc::Avg {
                if let Some(a) = arg {
                    let sum = Expr::Aggregate {
                        func: AggFunc::Sum,
                        arg: Some(a.clone()),
                        distinct: *distinct,
                    };
                    let count = Expr::Aggregate {
                        func: AggFunc::Count,
                        arg: None,
                        distinct: false,
                    };
                    let sum_n = crate::rewrite::normalize_expr(&sum);
                    let count_n = crate::rewrite::normalize_expr(&count);
                    if keys.contains(&sum_n) && keys.contains(&count_n) {
                        return substitute_env(&sum, keys)
                            .binop(BinaryOp::Div, substitute_env(&count, keys));
                    }
                }
            }
            Expr::Aggregate {
                func: *func,
                arg: arg.as_ref().map(|a| Box::new(substitute_env(a, keys))),
                distinct: *distinct,
            }
        }
        Expr::Function { name, args } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(|a| substitute_env(a, keys)).collect(),
        },
        Expr::Case {
            operand,
            when_then,
            else_expr,
        } => Expr::Case {
            operand: operand.as_ref().map(|o| Box::new(substitute_env(o, keys))),
            when_then: when_then
                .iter()
                .map(|(w, t)| (substitute_env(w, keys), substitute_env(t, keys)))
                .collect(),
            else_expr: else_expr
                .as_ref()
                .map(|e| Box::new(substitute_env(e, keys))),
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(substitute_env(expr, keys)),
            pattern: Box::new(substitute_env(pattern, keys)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(substitute_env(expr, keys)),
            list: list.iter().map(|e| substitute_env(e, keys)).collect(),
            negated: *negated,
        },
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => Expr::InSubquery {
            expr: Box::new(substitute_env(expr, keys)),
            subquery: subquery.clone(),
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(substitute_env(expr, keys)),
            low: Box::new(substitute_env(low, keys)),
            high: Box::new(substitute_env(high, keys)),
            negated: *negated,
        },
        Expr::Extract { field, expr } => Expr::Extract {
            field: *field,
            expr: Box::new(substitute_env(expr, keys)),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(substitute_env(expr, keys)),
            negated: *negated,
        },
        other => other.clone(),
    }
}

fn normalize_key(e: &Expr) -> Expr {
    crate::rewrite::normalize_expr(e)
}

/// Computes one aggregate over the member rows of a local group.
fn compute_local_aggregate(
    agg: &Expr,
    members: &[usize],
    rows: &[Vec<Value>],
    eval_row: &impl Fn(&Expr, &[Value]) -> Result<Value, CoreError>,
) -> Result<Value, CoreError> {
    let (func, arg, distinct) = match agg {
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => (*func, arg.clone(), *distinct),
        _ => return Err(CoreError::new("not an aggregate")),
    };
    let mut values: Vec<Value> = Vec::with_capacity(members.len());
    for &ri in members {
        match &arg {
            Some(a) => values.push(eval_row(a, &rows[ri])?),
            None => values.push(Value::Int(1)),
        }
    }
    if distinct {
        let mut seen = std::collections::HashSet::new();
        values.retain(|v| seen.insert(v.clone()));
    }
    Ok(fold_group(values, Some(func), false))
}

/// Folds a list of plaintext values with an aggregate function (or keeps the
/// list when `agg` is `None`).
pub(crate) fn fold_group(values: Vec<Value>, agg: Option<AggFunc>, distinct: bool) -> Value {
    let mut values = values;
    if distinct {
        let mut seen = std::collections::HashSet::new();
        values.retain(|v| seen.insert(v.clone()));
    }
    let agg = match agg {
        Some(a) => a,
        None => return Value::List(values),
    };
    let non_null: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
    match agg {
        AggFunc::Count => Value::Int(non_null.len() as i64),
        AggFunc::Min => non_null
            .iter()
            .min()
            .map(|v| (*v).clone())
            .unwrap_or(Value::Null),
        AggFunc::Max => non_null
            .iter()
            .max()
            .map(|v| (*v).clone())
            .unwrap_or(Value::Null),
        AggFunc::Sum | AggFunc::Avg => {
            if non_null.is_empty() {
                return Value::Null;
            }
            let any_float = non_null.iter().any(|v| matches!(v, Value::Float(_)));
            if any_float {
                let total: f64 = non_null.iter().filter_map(|v| v.as_float()).sum();
                if agg == AggFunc::Avg {
                    Value::Float(total / non_null.len() as f64)
                } else {
                    Value::Float(total)
                }
            } else {
                let total: i64 = non_null.iter().filter_map(|v| v.as_int()).sum();
                if agg == AggFunc::Avg {
                    Value::Float(total as f64 / non_null.len() as f64)
                } else {
                    Value::Int(total)
                }
            }
        }
    }
}

/// One plan's output schema: column name, and its declared type where one can
/// be derived statically.
type OutputColumnTypes = Vec<(String, Option<ColumnType>)>;

/// The declared output schema of a split plan: one `(name, type)` pair per
/// result column, with `None` where the type cannot be derived statically.
///
/// This is what `execute_client` materializes child results with, so that an
/// all-NULL intermediate column keeps its declared type instead of being
/// sniffed (and silently defaulting to `Int`). Types flow from the plan:
/// [`DecryptSpec`] carries the plaintext type of every decrypted output, and
/// projection/grouping expressions are typed structurally on top of that
/// environment.
fn output_column_types(plan: &SplitPlan) -> OutputColumnTypes {
    match plan {
        SplitPlan::Remote(rp) => {
            // Environment the residual operators see: outputs keyed by their
            // plaintext source expression, typed by their decrypt spec.
            let env: Vec<(Expr, Option<ColumnType>)> = rp
                .outputs
                .iter()
                .map(|o| (normalize_key(&o.source), decrypt_spec_type(o)))
                .collect();
            let resolve_env = |e: &Expr| -> Option<ColumnType> {
                let n = normalize_key(e);
                env.iter().find(|(k, _)| *k == n).and_then(|(_, t)| *t)
            };

            // Mirror `finish_locally`: local grouping replaces the
            // environment keys with group keys + collected aggregates.
            let final_keys: Vec<(Expr, Option<ColumnType>)> =
                if let Some(group_keys) = &rp.local_group_by {
                    let mut agg_exprs: Vec<Expr> = Vec::new();
                    let mut collect = |e: &Expr| {
                        e.walk(&mut |n| {
                            if matches!(n, Expr::Aggregate { .. }) && !agg_exprs.contains(n) {
                                agg_exprs.push(n.clone());
                            }
                        })
                    };
                    for p in &rp.projections {
                        collect(&p.expr);
                    }
                    if let Some(h) = &rp.local_having {
                        collect(h);
                    }
                    for o in &rp.order_by {
                        collect(&o.expr);
                    }
                    group_keys
                        .iter()
                        .chain(agg_exprs.iter())
                        .map(|k| (normalize_key(k), infer_expr_type(k, &resolve_env)))
                        .collect()
                } else {
                    env.clone()
                };
            let resolve_final = |e: &Expr| -> Option<ColumnType> {
                let n = normalize_key(e);
                final_keys
                    .iter()
                    .find(|(k, _)| *k == n)
                    .and_then(|(_, t)| *t)
            };

            if rp.projections.is_empty() {
                // Table-fetch plan: the environment columns come out directly.
                final_keys
                    .iter()
                    .map(|(k, t)| {
                        let name = match k {
                            Expr::Column(c) => c.column.clone(),
                            other => other.to_string(),
                        };
                        (name, *t)
                    })
                    .collect()
            } else {
                rp.projections
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (p.output_name(i), infer_expr_type(&p.expr, &resolve_final)))
                    .collect()
            }
        }
        SplitPlan::Client { query, children } => {
            // The residual query runs over local tables materialized from the
            // children; resolve column references against their schemas.
            let bindings: Vec<(String, OutputColumnTypes)> = children
                .iter()
                .map(|(b, c)| (b.clone(), output_column_types(c)))
                .collect();
            let resolve = |e: &Expr| -> Option<ColumnType> {
                let Expr::Column(c) = e else { return None };
                let mut found: Option<ColumnType> = None;
                for (binding, cols) in &bindings {
                    if c.table
                        .as_deref()
                        .is_some_and(|t| !t.eq_ignore_ascii_case(binding))
                    {
                        continue;
                    }
                    if let Some((_, t)) = cols
                        .iter()
                        .find(|(name, _)| name.eq_ignore_ascii_case(&c.column))
                    {
                        if found.is_some() {
                            // Ambiguous across bindings: give up.
                            return None;
                        }
                        found = *t;
                    }
                }
                found
            };
            query
                .projections
                .iter()
                .enumerate()
                .map(|(i, p)| (p.output_name(i), infer_expr_type(&p.expr, &resolve)))
                .collect()
        }
    }
}

/// The plaintext type a decrypted output column carries, per its spec.
fn decrypt_spec_type(out: &OutputColumn) -> Option<ColumnType> {
    match &out.decrypt {
        // Plain covers server-computable plaintext (e.g. COUNT(*)); its type
        // follows from the source expression's structure, resolved by the
        // caller's structural inference.
        DecryptSpec::Plain => None,
        DecryptSpec::Column { ty, .. } => Some(*ty),
        DecryptSpec::HomSum { ty, .. } | DecryptSpec::HomGroupSum { ty, .. } => Some(*ty),
        DecryptSpec::GroupValues { ty, agg, .. } => match agg {
            // `fold_group` keeps the list; it materializes as a Bytes column.
            None => Some(ColumnType::Bytes),
            Some(AggFunc::Count) => Some(ColumnType::Int),
            Some(AggFunc::Avg) => Some(ColumnType::Float),
            Some(AggFunc::Sum) => match ty {
                ColumnType::Float => Some(ColumnType::Float),
                ColumnType::Int => Some(ColumnType::Int),
                _ => None,
            },
            Some(AggFunc::Min) | Some(AggFunc::Max) => Some(*ty),
        },
    }
}

/// Structural type inference for residual expressions, mirroring the engine's
/// evaluation semantics (`Int/Int` division yields `Float`, AVG is always
/// `Float`, …). `resolve` types whole subtrees the environment already
/// carries; `None` means "unknown", in which case the caller falls back to
/// sniffing row values.
fn infer_expr_type(
    expr: &Expr,
    resolve: &dyn Fn(&Expr) -> Option<ColumnType>,
) -> Option<ColumnType> {
    if let Some(t) = resolve(expr) {
        return Some(t);
    }
    match expr {
        Expr::Literal(Literal::Number(n)) => {
            if n.contains(['.', 'e', 'E']) {
                Some(ColumnType::Float)
            } else {
                Some(ColumnType::Int)
            }
        }
        Expr::Literal(Literal::String(_)) => Some(ColumnType::Str),
        Expr::Literal(Literal::Date(_)) => Some(ColumnType::Date),
        Expr::UnaryOp { expr, .. } => infer_expr_type(expr, resolve),
        Expr::BinaryOp { left, op, right } => match op {
            // The engine evaluates division in floating point even for
            // integer operands (TPC-H ratios).
            BinaryOp::Div => Some(ColumnType::Float),
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Mod => {
                match (
                    infer_expr_type(left, resolve),
                    infer_expr_type(right, resolve),
                ) {
                    (Some(ColumnType::Float), Some(_)) | (Some(_), Some(ColumnType::Float)) => {
                        Some(ColumnType::Float)
                    }
                    (Some(ColumnType::Int), Some(ColumnType::Int)) => Some(ColumnType::Int),
                    _ => None,
                }
            }
            _ => None,
        },
        Expr::Aggregate { func, arg, .. } => match func {
            AggFunc::Count => Some(ColumnType::Int),
            AggFunc::Avg => Some(ColumnType::Float),
            AggFunc::Sum => match arg.as_deref().and_then(|a| infer_expr_type(a, resolve)) {
                Some(ColumnType::Float) => Some(ColumnType::Float),
                Some(ColumnType::Int) => Some(ColumnType::Int),
                _ => None,
            },
            AggFunc::Min | AggFunc::Max => arg.as_deref().and_then(|a| infer_expr_type(a, resolve)),
        },
        Expr::Case {
            when_then,
            else_expr,
            ..
        } => when_then
            .iter()
            .map(|(_, t)| t)
            .chain(else_expr.iter().map(|e| e.as_ref()))
            .find_map(|e| infer_expr_type(e, resolve)),
        Expr::Extract { .. } => Some(ColumnType::Int),
        _ => None,
    }
}

/// Infers an engine column type from a value (for materializing client-side
/// relations).
fn value_column_type(v: &Value) -> Option<ColumnType> {
    match v {
        Value::Null => None,
        Value::Int(_) => Some(ColumnType::Int),
        Value::Float(_) => Some(ColumnType::Float),
        Value::Str(_) => Some(ColumnType::Str),
        Value::Date(_) => Some(ColumnType::Date),
        Value::Bytes(_) | Value::List(_) => Some(ColumnType::Bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::PhysicalDesign;
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
        let db = executor
            .residual_database(&children, TraceId::ZERO, &mut Vec::new(), &mut timings)
            .unwrap();
        assert!(!db.is_disk_backed());
        let table = db.table("c").expect("child materialized");
        assert_eq!(table.backing_name(), "memory");
        assert_eq!(table.stored_bytes(), 0);
        assert_eq!(table.rows(), vec![vec![Value::Int(7)]]);
    }
}
