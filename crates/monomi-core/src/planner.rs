//! The MONOMI planner (§6.2–§6.4): per-query EncSet extraction, power-set
//! enumeration with the unit pruning heuristic, and best-plan selection by
//! cost.

use crate::cost::{CostBreakdown, CostModel, DecryptProfile};
use crate::design::{Encryptor, PhysicalDesign};
use crate::network::NetworkModel;
use crate::plan::{
    fallback_plan_with, fallback_tables, for_each_query, generate_query_plan, narrow_fetches,
    query_exprs, table_fetch_plan, PlanOptions, SplitPlan,
};
use crate::rewrite::{normalize_expr, QueryScope};
use crate::schemes::EncScheme;
use monomi_crypto::{MasterKey, PaillierKey};
use monomi_engine::{ColumnType, Database, QueryEstimate};
use monomi_sql::ast::*;
use std::collections::HashMap;

/// One ⟨expression, scheme⟩ pair the designer could materialize (an element of
/// the paper's set E).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct EncPair {
    pub table: String,
    /// Normalized (unqualified) source expression.
    pub source: Expr,
    pub ty_tag: u8,
    pub scheme: EncScheme,
}

impl PartialOrd for EncPair {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EncPair {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (&self.table, self.scheme, self.source.to_string()).cmp(&(
            &other.table,
            other.scheme,
            other.source.to_string(),
        ))
    }
}

impl EncPair {
    /// Logical column type of the source.
    pub fn ty(&self) -> ColumnType {
        match self.ty_tag {
            0 => ColumnType::Int,
            1 => ColumnType::Float,
            2 => ColumnType::Str,
            3 => ColumnType::Date,
            _ => ColumnType::Bytes,
        }
    }

    fn tag(ty: ColumnType) -> u8 {
        match ty {
            ColumnType::Int => 0,
            ColumnType::Float => 1,
            ColumnType::Str => 2,
            ColumnType::Date => 3,
            ColumnType::Bytes => 4,
        }
    }
}

/// A query unit (§6.3): a WHERE conjunct, the GROUP BY clause, the HAVING
/// clause, or one aggregate — the pruning heuristic enables or disables all of
/// a unit's pairs together.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncUnit {
    pub description: String,
    pub pairs: Vec<EncPair>,
}

/// Extracts the EncSet of a query, organized into units.
pub fn extract_enc_units(query: &Query, plain: &Database) -> Vec<EncUnit> {
    let scope = match QueryScope::for_query(query, plain) {
        Some(s) => s,
        None => {
            // Derived tables: recurse into each subquery; the outer query runs
            // on the client so only the children contribute units.
            let mut units = Vec::new();
            for t in &query.from {
                if let TableRef::Subquery { query: sub, .. } = t {
                    units.extend(extract_enc_units(sub, plain));
                }
            }
            return units;
        }
    };
    let mut units = Vec::new();

    let mut pair_for = |expr: &Expr, scheme: EncScheme| -> Option<EncPair> {
        let table = scope.single_table(expr)?;
        let ty = scope.infer_type(expr);
        // HOM only applies to numeric values.
        if scheme == EncScheme::Hom && !matches!(ty, ColumnType::Int | ColumnType::Float) {
            return None;
        }
        // OPE applies to numbers and dates.
        if scheme == EncScheme::Ope && matches!(ty, ColumnType::Str | ColumnType::Bytes) {
            return None;
        }
        Some(EncPair {
            table,
            source: normalize_expr(expr),
            ty_tag: EncPair::tag(ty),
            scheme,
        })
    };

    // WHERE conjuncts: one unit each.
    let conjuncts = query
        .where_clause
        .as_ref()
        .map(|w| w.split_conjuncts())
        .unwrap_or_default();
    for conj in conjuncts {
        let mut pairs = Vec::new();
        collect_predicate_pairs(conj, &mut pair_for, &mut pairs);
        // Subqueries inside the conjunct contribute their own units.
        conj.walk(&mut |node| {
            if let Expr::InSubquery { subquery, .. } | Expr::Exists { subquery, .. } = node {
                units.extend(extract_enc_units(subquery, plain));
            } else if let Expr::ScalarSubquery(subquery) = node {
                units.extend(extract_enc_units(subquery, plain));
            }
        });
        if !pairs.is_empty() {
            units.push(EncUnit {
                description: format!("where: {conj}"),
                pairs,
            });
        }
    }

    // GROUP BY: one unit for all keys.
    if !query.group_by.is_empty() {
        let mut pairs = Vec::new();
        for key in &query.group_by {
            if let Some(p) = pair_for(key, EncScheme::Det) {
                pairs.push(p);
            }
        }
        if !pairs.is_empty() {
            units.push(EncUnit {
                description: "group by".into(),
                pairs,
            });
        }
    }

    // Aggregates: HOM pair per SUM/AVG argument (one unit per aggregate), plus
    // a DET pair so the client-side alternative (group_concat) is available.
    let mut agg_exprs: Vec<Expr> = Vec::new();
    let mut collect = |e: &Expr| {
        e.walk(&mut |n| {
            if matches!(n, Expr::Aggregate { .. }) && !agg_exprs.contains(n) {
                agg_exprs.push(n.clone());
            }
        })
    };
    for p in &query.projections {
        collect(&p.expr);
    }
    if let Some(h) = &query.having {
        collect(h);
        h.walk(&mut |node| {
            if let Expr::ScalarSubquery(subquery) = node {
                units.extend(extract_enc_units(subquery, plain));
            }
        });
    }
    for agg in &agg_exprs {
        if let Expr::Aggregate {
            func: AggFunc::Sum | AggFunc::Avg,
            arg: Some(a),
            ..
        } = agg
        {
            let mut pairs = Vec::new();
            if let Some(p) = pair_for(a, EncScheme::Hom) {
                pairs.push(p);
            }
            if let Some(p) = pair_for(a, EncScheme::Det) {
                pairs.push(p);
            }
            if !pairs.is_empty() {
                units.push(EncUnit {
                    description: format!("aggregate: {agg}"),
                    pairs,
                });
            }
        }
        if let Expr::Aggregate {
            func: AggFunc::Min | AggFunc::Max,
            arg: Some(a),
            ..
        } = agg
        {
            if let Some(p) = pair_for(a, EncScheme::Det) {
                units.push(EncUnit {
                    description: format!("aggregate: {agg}"),
                    pairs: vec![p],
                });
            }
        }
    }

    // HAVING SUM(x) > c additionally proposes an OPE pair on x so the
    // conservative pre-filter (§5.4) is available.
    if let Some(Expr::BinaryOp {
        left,
        op: BinaryOp::Gt | BinaryOp::GtEq,
        ..
    }) = &query.having
    {
        if let Expr::Aggregate {
            func: AggFunc::Sum,
            arg: Some(a),
            ..
        } = &**left
        {
            if let Some(p) = pair_for(a, EncScheme::Ope) {
                units.push(EncUnit {
                    description: "having pre-filter".into(),
                    pairs: vec![p],
                });
            }
        }
    }

    units
}

fn collect_predicate_pairs(
    conj: &Expr,
    pair_for: &mut impl FnMut(&Expr, EncScheme) -> Option<EncPair>,
    out: &mut Vec<EncPair>,
) {
    match conj {
        Expr::BinaryOp {
            left,
            op: BinaryOp::And | BinaryOp::Or,
            right,
        } => {
            collect_predicate_pairs(left, pair_for, out);
            collect_predicate_pairs(right, pair_for, out);
        }
        Expr::UnaryOp {
            op: UnaryOp::Not,
            expr,
        } => collect_predicate_pairs(expr, pair_for, out),
        Expr::BinaryOp { left, op, right } if op.is_comparison() => {
            let l_cols = !left.column_refs().is_empty();
            let r_cols = !right.column_refs().is_empty();
            match (l_cols, r_cols) {
                (true, false) | (false, true) => {
                    let col_side = if l_cols { left } else { right };
                    let scheme = if matches!(op, BinaryOp::Eq | BinaryOp::NotEq) {
                        EncScheme::Det
                    } else {
                        EncScheme::Ope
                    };
                    if let Some(p) = pair_for(col_side, scheme) {
                        out.push(p);
                    }
                }
                (true, true) => {
                    if *op == BinaryOp::Eq {
                        // Equi-join: DET on both sides.
                        if let Some(p) = pair_for(left, EncScheme::Det) {
                            out.push(p);
                        }
                        if let Some(p) = pair_for(right, EncScheme::Det) {
                            out.push(p);
                        }
                    } else {
                        // Same-table comparison: precompute the whole predicate.
                        if let Some(p) = pair_for(conj, EncScheme::Det) {
                            out.push(p);
                        }
                    }
                }
                _ => {}
            }
        }
        Expr::Between { expr, .. } => {
            if let Some(p) = pair_for(expr, EncScheme::Ope) {
                out.push(p);
            }
        }
        Expr::InList { expr, .. } => {
            if let Some(p) = pair_for(expr, EncScheme::Det) {
                out.push(p);
            }
        }
        Expr::Like { expr, .. } => {
            if let Some(p) = pair_for(expr, EncScheme::Search) {
                out.push(p);
            }
        }
        Expr::InSubquery { expr, .. } => {
            if let Some(p) = pair_for(expr, EncScheme::Det) {
                out.push(p);
            }
        }
        _ => {}
    }
}

/// Result of planning one query against a candidate set of encryptions.
#[derive(Clone, Debug)]
pub struct PlannedQuery {
    pub plan: SplitPlan,
    pub cost: CostBreakdown,
    /// Indexes (into the unit list) of the units whose pairs the plan relies on.
    pub enabled_units: Vec<usize>,
}

/// The runtime/design-time planner.
pub struct Planner<'a> {
    pub plain: &'a Database,
    pub master: &'a MasterKey,
    pub paillier: &'a PaillierKey,
    pub profile: DecryptProfile,
    pub network: NetworkModel,
    pub options: PlanOptions,
    pub paillier_bits: usize,
}

/// Cap on the number of unit subsets enumerated per query (the full power
/// set is pruned to units, and very wide queries are further capped).
const MAX_SUBSETS: usize = 64;

/// One base table's whole-table fetch (`SELECT *`, no predicate) — a child
/// of the client fallback as the planner prices it — with its cost and
/// estimated rows as [`CostModel::child_cost`] prices it.
#[derive(Clone, Debug)]
struct TableFetch {
    plan: SplitPlan,
    cost: CostBreakdown,
    rows: f64,
}

/// The client fallback's children in the whole-table form the planner
/// prices, built and priced once per catalog table. A whole-table fetch
/// depends only on the table, the statistics, the design (not on
/// [`PlanOptions`]) and its price on the decrypt profile and the link — all
/// fixed once a client is set up — so [`Planner::best_plan`] sums these
/// instead of building and pricing the fallback for every query. The
/// fetches a chosen fallback runs are narrowed after the choice
/// ([`crate::plan::narrow_fetches`]), and never priced.
#[derive(Clone, Debug, Default)]
pub struct TableFetches {
    by_table: HashMap<String, TableFetch>,
}

impl TableFetches {
    fn get(&self, table: &str) -> &TableFetch {
        self.by_table
            .get(table)
            .expect("table fetch plan must always exist")
    }

    /// The cost of the client fallback for `query`, whose estimate is
    /// `est`: the memoized fetches of the tables it references, in plan
    /// order, summed by `CostModel::client_cost` like any client plan —
    /// bit-identical to pricing [`client_fallback_plan`] in full.
    ///
    /// [`client_fallback_plan`]: crate::plan::client_fallback_plan
    pub fn fallback_cost(
        &self,
        cost_model: &CostModel<'_>,
        query: &Query,
        est: &QueryEstimate,
    ) -> CostBreakdown {
        let tables = fallback_tables(query, cost_model.plain);
        let children = tables.iter().map(|t| {
            let fetch = self.get(t);
            (fetch.cost, fetch.rows)
        });
        cost_model.client_cost(children, est)
    }

    /// The client fallback for `query`, assembled from the memoized fetch
    /// plans: equal to [`crate::plan::client_fallback_plan`] under the same
    /// design.
    pub fn fallback_plan(&self, query: &Query, plain: &Database) -> SplitPlan {
        fallback_plan_with(query, plain, |t| Some(self.get(t).plan.clone()))
    }
}

impl<'a> Planner<'a> {
    fn cost_model(&self) -> CostModel<'a> {
        CostModel {
            plain: self.plain,
            profile: self.profile,
            network: self.network,
        }
    }

    /// Builds a design containing the baseline coverage plus the pairs of the
    /// enabled units (plus packing flags).
    pub fn design_for_pairs(&self, pairs: &[EncPair]) -> PhysicalDesign {
        let mut design = PhysicalDesign::new(self.paillier_bits);
        for p in pairs {
            let td = design.table_mut(&p.table);
            td.add(p.source.clone(), p.ty(), p.scheme);
        }
        design.add_baseline_coverage(self.plain);
        for td in design.tables.values_mut() {
            td.col_packing = true;
        }
        design
    }

    /// Enumerates unit subsets for a query and returns every candidate plan
    /// with its cost and the units it depends on, cheapest first.
    pub fn candidate_plans(&self, query: &Query, units: &[EncUnit]) -> Vec<PlannedQuery> {
        let n = units.len().min(16);
        let subset_count = (1usize << n).min(MAX_SUBSETS);
        let cost_model = self.cost_model();
        let mut out = Vec::new();
        // Enumerate subsets from "all units enabled" downwards so the best
        // plans are found even if the cap truncates enumeration.
        let full = (1usize << n) - 1;
        let mut masks: Vec<usize> = (0..(1usize << n)).map(|m| full ^ m).collect();
        masks.truncate(subset_count);
        for mask in masks {
            let mut pairs = Vec::new();
            let mut enabled = Vec::new();
            for (i, unit) in units.iter().enumerate().take(n) {
                if mask & (1 << i) != 0 {
                    pairs.extend(unit.pairs.iter().cloned());
                    enabled.push(i);
                }
            }
            let design = self.design_for_pairs(&pairs);
            let encryptor =
                Encryptor::with_keys(self.master.clone(), self.paillier.clone(), design);
            let plan = generate_query_plan(query, self.plain, &encryptor, &self.options);
            let cost = cost_model.plan_cost(&plan, query);
            out.push(PlannedQuery {
                plan,
                cost,
                enabled_units: enabled,
            });
        }
        out.sort_by(|a, b| a.cost.total().total_cmp(&b.cost.total()));
        out
    }

    /// Builds and prices the fetch of every catalog table under
    /// `encryptor`'s design, for [`best_plan`](Self::best_plan).
    pub fn table_fetches(&self, encryptor: &Encryptor) -> TableFetches {
        let cost_model = self.cost_model();
        let by_table = self
            .plain
            .table_names()
            .into_iter()
            .filter_map(|table| {
                let plan =
                    table_fetch_plan(&table, None, &[], self.plain, encryptor, &self.options)?;
                let (cost, rows) = cost_model.child_cost(&plan);
                Some((table, TableFetch { plan, cost, rows }))
            })
            .collect();
        TableFetches { by_table }
    }

    /// Chooses the best plan for a query given a fixed design (runtime use):
    /// the cheapest of the Algorithm-1 split plan, the same plan without
    /// homomorphic aggregation, and the client-side fallback, in that order
    /// of preference on ties, each fallback priced with whole-table fetches.
    /// The winner's fetches are then narrowed by
    /// [`narrow_fetches`](crate::plan::narrow_fetches); the returned cost is
    /// the unnarrowed plan's. `fetches` must come from
    /// [`table_fetches`](Self::table_fetches) under the same design, profile
    /// and link.
    pub fn best_plan(
        &self,
        query: &Query,
        encryptor: &Encryptor,
        fetches: &TableFetches,
    ) -> (SplitPlan, CostBreakdown) {
        let cost_model = self.cost_model();
        let est = self.plain.estimate(query);
        // Candidate 1: Algorithm-1 split plan with every optimization allowed.
        let smart = generate_query_plan(query, self.plain, encryptor, &self.options);
        let smart_cost = cost_model.plan_cost_estimated(&smart, query, Some(&est));
        let mut best = (smart, smart_cost);
        // Candidate 2: split plan without homomorphic aggregation (ships group
        // values instead) — this is the choice that matters for queries with
        // many small groups (the paper's query 18 example). The option is
        // read only when planning a SUM or AVG, so without one this plan is
        // candidate 1 again.
        if self.options.use_hom_aggregation && mentions_sum_or_avg(query) {
            let mut no_hom_options = self.options;
            no_hom_options.use_hom_aggregation = false;
            let no_hom = generate_query_plan(query, self.plain, encryptor, &no_hom_options);
            let no_hom_cost = cost_model.plan_cost_estimated(&no_hom, query, Some(&est));
            if no_hom_cost.total() < best.1.total() {
                best = (no_hom, no_hom_cost);
            }
        }
        // Candidate 3: the client-side fallback, priced from the memoized
        // fetches and built only if it wins.
        let fallback_cost = fetches.fallback_cost(&cost_model, query, &est);
        if fallback_cost.total() < best.1.total() {
            best = (fetches.fallback_plan(query, self.plain), fallback_cost);
        }
        // Priced whole, run narrowed: the choice and its cost stay those of
        // the whole-table fetches, an upper bound on what the narrowed ones
        // ship.
        narrow_fetches(&mut best.0, query, self.plain, encryptor, &self.options);
        best
    }
}

/// True if a SUM or AVG appears anywhere in `query`: any clause, derived
/// tables and subqueries included.
fn mentions_sum_or_avg(query: &Query) -> bool {
    let mut found = false;
    for_each_query(query, &mut |q| {
        for e in query_exprs(q) {
            e.walk(&mut |node| {
                found |= matches!(
                    node,
                    Expr::Aggregate {
                        func: AggFunc::Sum | AggFunc::Avg,
                        ..
                    }
                )
            });
        }
    });
    found
}
