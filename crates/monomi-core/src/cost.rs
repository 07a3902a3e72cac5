//! The planner's cost model (§6.4 of the paper): server execution time,
//! network transfer time, and client post-processing (decryption) time, plus
//! the startup micro-profiler that measures per-scheme decryption costs.

use crate::decrypt::DecryptPipeline;
use crate::design::{Encryptor, PhysicalDesign};
use crate::network::NetworkModel;
use crate::plan::{value_to_literal, DecryptSpec, OutputColumn, RemotePlan, SplitPlan};
use crate::schemes::EncScheme;
use monomi_engine::{ColumnType, Database, QueryEstimate, ResultSet, Value};
use monomi_sql::ast::{Expr, Literal, Query, TableRef};
use monomi_store::INDEX_SELECTIVITY_CROSSOVER;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Per-value decryption costs in seconds, measured at client startup (§6.4:
/// "running a profiler that decrypts a small amount of data when MONOMI is
/// first launched").
#[derive(Clone, Copy, Debug)]
pub struct DecryptProfile {
    pub det_int_seconds: f64,
    pub det_str_seconds: f64,
    pub rnd_seconds: f64,
    pub hom_seconds: f64,
    /// Per-operation cost of one server-side homomorphic addition (one
    /// Montgomery ciphertext multiplication modulo n²). Server-side HOM
    /// aggregation pays this once per input row (§5.3), so it is measured
    /// alongside the per-value decrypt costs and used to price
    /// `paillier_sum` in candidate plans.
    pub hom_add_seconds: f64,
    /// Observed speedup of the server's morsel-parallel execution at the
    /// client's configured worker count (wall-clock of one thread doing W
    /// work over wall-clock of N threads sharing W·N work, on an
    /// embarrassingly parallel homomorphic fold — an upper bound). The
    /// planner prices server compute by wall-clock, discounting this factor
    /// through Amdahl's law for the serial phases real queries have. 1.0
    /// when profiling is skipped or a single thread is configured; never
    /// below 1.0 and never above the thread count.
    pub effective_parallelism: f64,
}

impl Default for DecryptProfile {
    fn default() -> Self {
        // Conservative defaults used when profiling is skipped.
        DecryptProfile {
            det_int_seconds: 2e-6,
            det_str_seconds: 4e-6,
            rnd_seconds: 4e-6,
            hom_seconds: 3e-4,
            hom_add_seconds: 2e-6,
            effective_parallelism: 1.0,
        }
    }
}

impl DecryptProfile {
    /// Measures decryption costs with the client's actual keys. `threads` is
    /// the worker count the client will actually execute server queries with
    /// (`ClientConfig::exec_options`, falling back to the environment) — the
    /// effective-parallelism probe must measure that configuration, not an
    /// unrelated one.
    pub fn measure(encryptor: &Encryptor, threads: usize) -> DecryptProfile {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let paillier = encryptor.paillier();

        // The per-value costs are those of the executor's own LocalDecrypt —
        // the compiled pipeline, run over a one-column result — under the
        // client's keys, on a design with one column per priced scheme. The
        // sampled values are all distinct, so the DET prices are those of a
        // column the memo does not help: an upper bound for one it does.
        let mut design = PhysicalDesign::new(encryptor.design().paillier_bits);
        let td = design.table_mut("profile");
        td.add(Expr::col("det_int"), ColumnType::Int, EncScheme::Det);
        td.add(Expr::col("det_str"), ColumnType::Str, EncScheme::Det);
        td.add(Expr::col("rnd"), ColumnType::Str, EncScheme::Rnd);
        td.add(Expr::col("hom"), ColumnType::Int, EncScheme::Hom);
        let profiled =
            Encryptor::with_keys(encryptor.master_key().clone(), paillier.clone(), design);
        let mut seconds_per_value = |base: &str, scheme: EncScheme, values: Vec<Value>| {
            let column = profiled
                .column("profile", base)
                .expect("the profile design has the column");
            let ty = column.design().ty;
            let enc_rs = ResultSet {
                columns: vec![base.to_string()],
                rows: values
                    .iter()
                    .map(|v| {
                        vec![column
                            .encrypt_value(scheme, v, &mut rng)
                            .expect("profile values match their column types")]
                    })
                    .collect(),
            };
            let outputs = [OutputColumn {
                source: Expr::col(base),
                server_expr: Expr::col(base),
                decrypt: DecryptSpec::Column {
                    table: "profile".into(),
                    base: base.into(),
                    scheme,
                    ty,
                },
            }];
            let pipeline = DecryptPipeline::compile(&profiled, &outputs)
                .expect("the profile design serves its own outputs");
            let best = best_of(&mut || {
                std::hint::black_box(
                    pipeline
                        .run(&enc_rs, false)
                        .expect("own ciphertexts decrypt"),
                );
            });
            best / values.len() as f64
        };
        let strings = || (0..64).map(|i| Value::Str(format!("profiled string value {i}")));
        let det_int_seconds = seconds_per_value(
            "det_int",
            EncScheme::Det,
            (0..256).map(|i| Value::Int(i * 977)).collect(),
        );
        let det_str_seconds = seconds_per_value("det_str", EncScheme::Det, strings().collect());
        let rnd_seconds = seconds_per_value("rnd", EncScheme::Rnd, strings().collect());
        let hom_seconds =
            seconds_per_value("hom", EncScheme::Hom, (0..8).map(Value::Int).collect());

        let hom_ct: Vec<_> = (0..8u64)
            .map(|i| paillier.encrypt_u64(&mut rng, i))
            .collect();
        // Per-op homomorphic-add cost: one long chained sum amortizes the
        // Montgomery conversions exactly like the server's aggregation loop.
        const HOM_ADD_OPS: usize = 256;
        let start = Instant::now();
        let chain: Vec<_> = std::iter::repeat_with(|| hom_ct.iter())
            .take((HOM_ADD_OPS / hom_ct.len()).max(1))
            .flatten()
            .collect();
        std::hint::black_box(paillier.sum_ciphertexts(chain.iter().copied()));
        let hom_add_seconds = start.elapsed().as_secs_f64() / chain.len() as f64;

        // Effective parallelism of the server's morsel workers: time one
        // thread folding the chain FOLDS times, then N threads each doing the
        // same work (N× total). Perfect scaling keeps the wall-clock equal;
        // the ratio is the factor the planner divides server compute terms
        // by. The region is long enough (FOLDS repeats) that thread
        // spawn/join overhead is amortized, and both sides take the best of
        // three runs so one scheduler hiccup cannot skew the factor that
        // scales every server cost term.
        let effective_parallelism = if threads <= 1 {
            1.0
        } else {
            const FOLDS: usize = 8;
            let fold_chain = || {
                for _ in 0..FOLDS {
                    std::hint::black_box(paillier.sum_ciphertexts(chain.iter().copied()));
                }
            };
            let serial = best_of(&mut || fold_chain());
            let parallel = best_of(&mut || {
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        scope.spawn(fold_chain);
                    }
                });
            });
            if parallel > 0.0 && serial > 0.0 {
                (serial * threads as f64 / parallel).clamp(1.0, threads as f64)
            } else {
                1.0
            }
        };

        DecryptProfile {
            det_int_seconds,
            det_str_seconds,
            rnd_seconds,
            hom_seconds,
            hom_add_seconds,
            effective_parallelism,
        }
    }
}

/// Wall seconds of the fastest of three runs of `f`: the first run also warms
/// the caches, and one scheduler hiccup cannot skew a price every plan is
/// costed with.
fn best_of(f: &mut dyn FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Estimated cost of one candidate plan. This is the prediction; the
/// measured counterpart is [`crate::QueryTimings`], whose `wire_seconds`
/// corresponds to `network_seconds` here.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostBreakdown {
    pub server_seconds: f64,
    /// Predicted transfer time over the [`NetworkModel`] link.
    pub network_seconds: f64,
    pub decrypt_seconds: f64,
    pub client_seconds: f64,
}

impl CostBreakdown {
    /// Total cost in estimated seconds.
    pub fn total(&self) -> f64 {
        self.server_seconds + self.network_seconds + self.decrypt_seconds + self.client_seconds
    }
}

/// Conversion factor from the engine's abstract cost units into seconds. Both
/// the plaintext baseline and MONOMI go through the same conversion, so the
/// comparisons the planner makes are unaffected by its absolute value.
const COST_UNIT_SECONDS: f64 = 5e-5;
/// Client-side per-row processing cost for residual operators.
const CLIENT_ROW_SECONDS: f64 = 2e-6;
/// Server-side cost per byte the vectorized scan materializes *after*
/// filtering (selection-vector survivors only). Encrypted ciphertexts widen
/// post-filter rows just like they widen the scan, so this term is scaled by
/// the same expansion factor; selective queries pay proportionally less.
const MATERIALIZE_BYTE_SECONDS: f64 = 1e-9;
/// Fixed overhead of one index probe: the per-segment binary searches over
/// the sorted key blocks plus reading the posting headers.
const INDEX_PROBE_BASE_SECONDS: f64 = 2e-6;
/// Per fetched row: posting-list read plus the late-materializing gather's
/// random access, priced so a probe breaks even with the sequential scan at
/// the selectivity where the engine's runtime planner stops probing (3× the
/// per-tuple scan cost at a 0.25 crossover) — estimates and execution pick
/// the same access path.
const INDEX_PROBE_ROW_SECONDS: f64 = (1.0 / INDEX_SELECTIVITY_CROSSOVER - 1.0) * SCAN_ROW_SECONDS;
/// Sequential scan cost per tuple in seconds: the engine estimator's
/// `CPU_TUPLE_COST` through the same abstract-unit conversion, so the probe
/// vs scan comparison is made in the scan term's own currency.
const SCAN_ROW_SECONDS: f64 = monomi_engine::stats::CPU_TUPLE_COST * COST_UNIT_SECONDS;

/// Assumed serial fraction of server-side query execution (hash-join builds,
/// partial-aggregate merges, sorts, result assembly, morsel dispatch). The
/// profiler's `effective_parallelism` is measured on an embarrassingly
/// parallel homomorphic fold — an upper bound only the fully parallel portion
/// of a query attains — so server terms are discounted through Amdahl's law
/// with this fraction instead of being divided by the raw factor.
const SERVER_SERIAL_FRACTION: f64 = 0.2;

/// Cost model for split plans.
pub struct CostModel<'a> {
    /// Plaintext database (used only for statistics/cardinalities; its
    /// contents stay on the trusted side).
    pub plain: &'a Database,
    pub profile: DecryptProfile,
    pub network: NetworkModel,
}

impl<'a> CostModel<'a> {
    /// Estimates the cost of a split plan for a query whose *plaintext* form
    /// is `original` (used for cardinality estimation).
    pub fn plan_cost(&self, plan: &SplitPlan, original: &Query) -> CostBreakdown {
        self.plan_cost_estimated(plan, original, None)
    }

    /// [`plan_cost`](Self::plan_cost), reusing `est_original`, the estimate
    /// of `original`, when the caller already holds it: the planner prices
    /// several candidates of one query and estimates it once for all.
    pub(crate) fn plan_cost_estimated(
        &self,
        plan: &SplitPlan,
        original: &Query,
        est_original: Option<&QueryEstimate>,
    ) -> CostBreakdown {
        match plan {
            SplitPlan::Remote(rp) => match est_original {
                Some(est) => self.remote_cost(rp, original, est),
                None => self.remote_cost(rp, original, &self.plain.estimate(original)),
            },
            SplitPlan::Client { query, children } => self.client_cost(
                children.iter().map(|(_, child)| self.child_cost(child)),
                &self.plain.estimate(query),
            ),
        }
    }

    /// Cost and estimated output rows of one child of a client plan: the
    /// child is priced against its own server query (or client query).
    pub(crate) fn child_cost(&self, child: &SplitPlan) -> (CostBreakdown, f64) {
        let child_query = match child {
            SplitPlan::Remote(r) => &r.server_query,
            SplitPlan::Client { query, .. } => query,
        };
        (
            self.plan_cost(child, child_query),
            self.plain.estimate(child_query).result_rows,
        )
    }

    /// Cost of a client plan from its children's `(cost, rows)` in plan
    /// order and the estimate of the query the client evaluates over them.
    /// Every client plan is summed here, in this order, so a caller that
    /// memoizes children gets a bit-identical total.
    pub(crate) fn client_cost(
        &self,
        children: impl IntoIterator<Item = (CostBreakdown, f64)>,
        est: &QueryEstimate,
    ) -> CostBreakdown {
        let mut total = CostBreakdown::default();
        let mut child_rows = 0.0;
        for (c, rows) in children {
            total.server_seconds += c.server_seconds;
            total.network_seconds += c.network_seconds;
            total.decrypt_seconds += c.decrypt_seconds;
            total.client_seconds += c.client_seconds;
            child_rows += rows;
        }
        // Client-side evaluation of the original query over the
        // materialized children.
        total.client_seconds +=
            child_rows * CLIENT_ROW_SECONDS * 4.0 + est.result_rows * CLIENT_ROW_SECONDS;
        total
    }

    fn remote_cost(
        &self,
        rp: &RemotePlan,
        original: &Query,
        est_original: &QueryEstimate,
    ) -> CostBreakdown {
        let mut cost = CostBreakdown::default();

        // Children (sub-selects executed in separate rounds).
        for (sub, child) in &rp.subquery_children {
            let c = self.plan_cost(child, sub);
            cost.server_seconds += c.server_seconds;
            cost.network_seconds += c.network_seconds;
            cost.decrypt_seconds += c.decrypt_seconds;
            cost.client_seconds += c.client_seconds;
        }

        // Server execution: the original query's cost estimate scaled by the
        // width expansion of the encrypted tables it scans, plus a
        // selectivity-aware materialization term — the vectorized scan only
        // materializes post-filter bytes, so selective predicates shrink this
        // component instead of paying for every scanned row. Server compute
        // is priced by wall-clock: morsel-parallel execution spreads it over
        // the profiled effective-parallelism factor, Amdahl-discounted for
        // the serial phases real queries have and the probe does not.
        let measured = self.profile.effective_parallelism.max(1.0);
        let parallelism =
            1.0 / (SERVER_SERIAL_FRACTION + (1.0 - SERVER_SERIAL_FRACTION) / measured);
        let expansion = self.scan_expansion(original);
        cost.server_seconds +=
            est_original.server_cost * COST_UNIT_SECONDS * expansion / parallelism;
        // Access-path refinement: when the WHERE is selective enough that the
        // engine probes secondary indexes instead of scanning, credit the
        // difference between the full per-tuple scan term and the probe
        // price over the base-table rows. Unselective queries clear nothing
        // — the crossover keeps the scan term intact.
        let base_rows: f64 = original
            .from
            .iter()
            .map(|t| match t {
                TableRef::Table { name, .. } => self
                    .plain
                    .table(name)
                    .map(|t| t.row_count() as f64)
                    .unwrap_or(0.0),
                TableRef::Subquery { .. } => 0.0,
            })
            .sum();
        let (path, probe_seconds) = self.access_path(base_rows, est_original.scan_selectivity);
        if path == AccessPath::IndexProbe {
            let scan_seconds = base_rows * SCAN_ROW_SECONDS;
            cost.server_seconds -=
                (scan_seconds - probe_seconds).max(0.0) * expansion / parallelism;
        }
        cost.server_seconds +=
            est_original.post_filter_bytes * MATERIALIZE_BYTE_SECONDS * expansion / parallelism;

        // Rows of the query with GROUP BY, HAVING and LIMIT removed. Without
        // any of the three that query is the original, whose estimate is in
        // hand.
        let ungrouped_rows = || {
            if original.group_by.is_empty() && original.having.is_none() && original.limit.is_none()
            {
                est_original.result_rows
            } else {
                let mut ungrouped = original.clone();
                ungrouped.group_by = Vec::new();
                ungrouped.having = None;
                ungrouped.limit = None;
                self.plain.estimate(&ungrouped).result_rows
            }
        };
        // Result cardinality of the server query.
        let grouped = rp.server_grouped && original.is_aggregate_query();
        let result_rows = if grouped {
            est_original.result_rows.max(1.0)
        } else {
            // Without server grouping the server ships (filtered) rows.
            ungrouped_rows().max(1.0)
        };
        let rows_per_group = if grouped {
            (ungrouped_rows() / result_rows).max(1.0)
        } else {
            1.0
        };

        // Transfer and decrypt per output column.
        let mut row_bytes = 0.0;
        let mut decrypt_per_row = 0.0;
        let mut hom_agg_columns = 0.0;
        for out in &rp.outputs {
            match &out.decrypt {
                DecryptSpec::Plain => {
                    row_bytes += 8.0;
                }
                DecryptSpec::Column { scheme, ty, .. } => {
                    let (bytes, secs) = match (scheme, ty) {
                        (EncScheme::Det, monomi_engine::ColumnType::Str) => {
                            (32.0, self.profile.det_str_seconds)
                        }
                        (EncScheme::Det, _) => (8.0, self.profile.det_int_seconds),
                        (EncScheme::Rnd, _) => (48.0, self.profile.rnd_seconds),
                        _ => (16.0, self.profile.det_int_seconds),
                    };
                    row_bytes += bytes;
                    decrypt_per_row += secs;
                }
                DecryptSpec::HomGroupSum { .. } | DecryptSpec::HomSum { .. } => {
                    row_bytes += 256.0;
                    decrypt_per_row += self.profile.hom_seconds;
                    hom_agg_columns += 1.0;
                }
                DecryptSpec::GroupValues { ty, .. } => {
                    let per_value = match ty {
                        monomi_engine::ColumnType::Str => (32.0, self.profile.det_str_seconds),
                        _ => (8.0, self.profile.det_int_seconds),
                    };
                    row_bytes += per_value.0 * rows_per_group;
                    decrypt_per_row += per_value.1 * rows_per_group;
                }
            }
        }
        let transfer_bytes = row_bytes * result_rows;
        cost.network_seconds += self.network.transfer_seconds(transfer_bytes as u64);
        cost.decrypt_seconds += decrypt_per_row * result_rows;

        // Server-side HOM aggregation: every `paillier_sum` output costs one
        // ciphertext multiplication per input row of its group (§5.3), priced
        // with the profiler-measured per-op homomorphic-add cost and spread
        // over the morsel workers like every other server compute term.
        if hom_agg_columns > 0.0 {
            cost.server_seconds +=
                hom_agg_columns * self.profile.hom_add_seconds * rows_per_group * result_rows
                    / parallelism;
        }

        // Residual client computation.
        let mut client_rows = result_rows;
        if rp.local_group_by.is_some() {
            client_rows *= 2.0;
        }
        client_rows *= 1.0 + rp.local_filters.len() as f64 * 0.5;
        cost.client_seconds += client_rows * CLIENT_ROW_SECONDS;

        cost
    }

    /// Ratio between the encrypted width of the tables scanned by a query and
    /// their plaintext width. Approximated from the design's storage
    /// accounting at client construction time; here we use a fixed factor per
    /// scheme mix, so the value only depends on what the server must read.
    fn scan_expansion(&self, original: &Query) -> f64 {
        // Without a loaded encrypted database at design time we approximate
        // expansion with the design-independent constant the paper reports
        // (1.7–2×). The ordering of candidate plans is unaffected because all
        // candidates scan the same tables.
        let tables = original
            .from
            .iter()
            .filter(|t| matches!(t, TableRef::Table { .. }))
            .count()
            .max(1);
        1.7 + 0.05 * (tables as f64 - 1.0)
    }

    /// Prices both access paths for a scan of `rows` rows whose indexable
    /// WHERE conjuncts keep `selectivity` of them, and picks the cheaper:
    /// a secondary-index probe costs its fixed overhead plus the fetched
    /// rows' posting reads and random-access gathers, a full scan costs every
    /// row sequentially. With the constants above the break-even sits at the
    /// engine's [`INDEX_SELECTIVITY_CROSSOVER`] (plus the vanishing base
    /// term), so the model picks the path the executor will actually take —
    /// a crossover, not index-always.
    pub fn access_path(&self, rows: f64, selectivity: f64) -> (AccessPath, f64) {
        let scan = rows * SCAN_ROW_SECONDS;
        let probe = INDEX_PROBE_BASE_SECONDS
            + rows * selectivity.clamp(0.0, 1.0) * (INDEX_PROBE_ROW_SECONDS + SCAN_ROW_SECONDS);
        if probe < scan {
            (AccessPath::IndexProbe, probe)
        } else {
            (AccessPath::FullScan, scan)
        }
    }
}

/// The access path the server's scan is expected to take for a predicate,
/// as chosen by [`CostModel::access_path`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessPath {
    /// Seed the scan from DET/OPE index postings; touch only fetched rows.
    IndexProbe,
    /// Vectorized full scan (zone-map pruning still applies).
    FullScan,
}

/// Helper used by the planner to bind parameters before planning: replaces
/// `:n` placeholders with literal values.
pub fn bind_params(query: &Query, params: &[Value]) -> Query {
    let mut q = query.clone();
    let bind_expr = |e: &Expr| -> Expr { bind_expr_params(e, params) };
    for p in &mut q.projections {
        p.expr = bind_expr(&p.expr);
    }
    if let Some(w) = &q.where_clause {
        q.where_clause = Some(bind_expr(w));
    }
    q.group_by = q.group_by.iter().map(&bind_expr).collect();
    if let Some(h) = &q.having {
        q.having = Some(bind_expr(h));
    }
    for o in &mut q.order_by {
        o.expr = bind_expr(&o.expr);
    }
    for t in &mut q.from {
        if let TableRef::Subquery { query: sub, .. } = t {
            **sub = bind_params(sub, params);
        }
    }
    q
}

fn bind_expr_params(expr: &Expr, params: &[Value]) -> Expr {
    match expr {
        Expr::Param(n) => {
            let v = params.get(n - 1).and_then(value_to_literal);
            v.unwrap_or(Expr::Literal(Literal::Null))
        }
        Expr::BinaryOp { left, op, right } => Expr::BinaryOp {
            left: Box::new(bind_expr_params(left, params)),
            op: *op,
            right: Box::new(bind_expr_params(right, params)),
        },
        Expr::UnaryOp { op, expr } => Expr::UnaryOp {
            op: *op,
            expr: Box::new(bind_expr_params(expr, params)),
        },
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => Expr::Aggregate {
            func: *func,
            arg: arg.as_ref().map(|a| Box::new(bind_expr_params(a, params))),
            distinct: *distinct,
        },
        Expr::Function { name, args } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(|a| bind_expr_params(a, params)).collect(),
        },
        Expr::Case {
            operand,
            when_then,
            else_expr,
        } => Expr::Case {
            operand: operand
                .as_ref()
                .map(|o| Box::new(bind_expr_params(o, params))),
            when_then: when_then
                .iter()
                .map(|(w, t)| (bind_expr_params(w, params), bind_expr_params(t, params)))
                .collect(),
            else_expr: else_expr
                .as_ref()
                .map(|e| Box::new(bind_expr_params(e, params))),
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(bind_expr_params(expr, params)),
            pattern: Box::new(bind_expr_params(pattern, params)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(bind_expr_params(expr, params)),
            list: list.iter().map(|e| bind_expr_params(e, params)).collect(),
            negated: *negated,
        },
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => Expr::InSubquery {
            expr: Box::new(bind_expr_params(expr, params)),
            subquery: Box::new(bind_params(subquery, params)),
            negated: *negated,
        },
        Expr::Exists { subquery, negated } => Expr::Exists {
            subquery: Box::new(bind_params(subquery, params)),
            negated: *negated,
        },
        Expr::ScalarSubquery(subquery) => {
            Expr::ScalarSubquery(Box::new(bind_params(subquery, params)))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(bind_expr_params(expr, params)),
            low: Box::new(bind_expr_params(low, params)),
            high: Box::new(bind_expr_params(high, params)),
            negated: *negated,
        },
        Expr::Extract { field, expr } => Expr::Extract {
            field: *field,
            expr: Box::new(bind_expr_params(expr, params)),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(bind_expr_params(expr, params)),
            negated: *negated,
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_path_crossover_matches_the_engine() {
        let plain = Database::in_memory();
        let model = CostModel {
            plain: &plain,
            profile: DecryptProfile::default(),
            network: NetworkModel::paper_default(),
        };
        let rows = 1_000_000.0;
        // Selective predicates probe, unselective ones keep the scan.
        let (path, cost) = model.access_path(rows, 0.001);
        assert_eq!(path, AccessPath::IndexProbe);
        assert!(cost < rows * SCAN_ROW_SECONDS);
        let (path, cost) = model.access_path(rows, 0.9);
        assert_eq!(path, AccessPath::FullScan);
        assert!((cost - rows * SCAN_ROW_SECONDS).abs() < 1e-12);
        // The break-even sits at the engine's published crossover (the fixed
        // probe base vanishes against a million rows).
        let (lo, _) = model.access_path(rows, INDEX_SELECTIVITY_CROSSOVER - 0.01);
        let (hi, _) = model.access_path(rows, INDEX_SELECTIVITY_CROSSOVER + 0.01);
        assert_eq!(lo, AccessPath::IndexProbe);
        assert_eq!(hi, AccessPath::FullScan);
        // Out-of-range selectivities clamp instead of extrapolating.
        assert_eq!(model.access_path(rows, -3.0).0, AccessPath::IndexProbe);
        assert_eq!(model.access_path(rows, 7.0).0, AccessPath::FullScan);
        // A tiny table never pays the probe's fixed overhead.
        assert_eq!(model.access_path(1.0, 0.0).0, AccessPath::FullScan);
    }
}
