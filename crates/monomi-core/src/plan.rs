//! Split client/server query plans and the plan generator (Algorithm 1).
//!
//! A [`SplitPlan`] describes how MONOMI executes one query: the part pushed to
//! the untrusted server as SQL over encrypted columns (`RemoteSQL` in the
//! paper), and the operators the trusted client applies after decrypting the
//! intermediate result (`LocalDecrypt`, `LocalFilter`, `LocalGroupBy`,
//! `LocalGroupFilter`, `LocalProjection`, `LocalSort`).

use crate::design::Encryptor;
use crate::rewrite::{normalize_expr, FetchSpec, QueryScope, Rewriter};
use crate::schemes::EncScheme;
use monomi_engine::{fold_constant, ColumnType, Database, Value};
use monomi_sql::ast::*;
use std::collections::HashSet;

/// How the client decrypts one column of a RemoteSQL result and what
/// plaintext expression that column stands for.
#[derive(Clone, Debug, PartialEq)]
pub enum DecryptSpec {
    /// The server returns a plaintext value (e.g. `COUNT(*)`).
    Plain,
    /// Decrypt a single column value with the given scheme.
    Column {
        table: String,
        base: String,
        scheme: EncScheme,
        ty: ColumnType,
    },
    /// Decrypt a `paillier_sum` over the packed HOM group column and extract
    /// the slot belonging to `base`.
    HomGroupSum {
        table: String,
        base: String,
        ty: ColumnType,
    },
    /// Decrypt a `paillier_sum` over a stand-alone HOM column.
    HomSum {
        table: String,
        base: String,
        ty: ColumnType,
    },
    /// The server returns `group_concat` of DET ciphertexts: decrypt every
    /// element and fold with the aggregate function.
    GroupValues {
        table: String,
        base: String,
        ty: ColumnType,
        agg: AggFunc,
        distinct: bool,
    },
}

/// One output column of the RemoteSQL operator.
#[derive(Clone, Debug, PartialEq)]
pub struct OutputColumn {
    /// The plaintext-semantics expression this output column yields once
    /// decrypted (what the client-side environment is keyed by).
    pub source: Expr,
    /// The expression the server evaluates (over encrypted columns).
    pub server_expr: Expr,
    /// How to decrypt.
    pub decrypt: DecryptSpec,
}

/// A plan in which the bulk of the query runs on the server as a single SQL
/// statement, followed by client-side decryption and residual operators.
#[derive(Clone, Debug, PartialEq)]
pub struct RemotePlan {
    /// The SQL the server executes over encrypted columns.
    pub server_query: Query,
    /// How each server output column is decrypted and what it represents.
    pub outputs: Vec<OutputColumn>,
    /// Uncorrelated subqueries referenced by local predicates; each is planned
    /// independently and its result is made available to the local evaluator.
    pub subquery_children: Vec<(Query, SplitPlan)>,
    /// Predicates (original plaintext semantics) the client applies after
    /// decryption.
    pub local_filters: Vec<Expr>,
    /// Group keys when the GROUP BY could not be pushed to the server.
    pub local_group_by: Option<Vec<Expr>>,
    /// HAVING applied on the client.
    pub local_having: Option<Expr>,
    /// Whether the server already grouped rows (GROUP BY pushed).
    pub server_grouped: bool,
    /// The original projections, evaluated over the decrypted environment.
    pub projections: Vec<SelectItem>,
    pub order_by: Vec<OrderByItem>,
    pub limit: Option<u64>,
    pub distinct: bool,
}

/// A split execution plan.
// `Client` embeds a full `Query` inline; plans are built once per query and
// never stored in bulk, so boxing it would cost indirection for no gain.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum SplitPlan {
    /// Algorithm-1 style: one server query plus local operators.
    Remote(Box<RemotePlan>),
    /// The query is evaluated on the client over the materialized outputs of
    /// child plans (used for derived tables, correlated subqueries, and the
    /// "download and compute locally" fallback the paper compares against).
    Client {
        query: Query,
        children: Vec<(String, SplitPlan)>,
    },
}

impl SplitPlan {
    /// Number of RemoteSQL operators in the plan (for plan inspection/tests).
    pub fn remote_query_count(&self) -> usize {
        match self {
            SplitPlan::Remote(rp) => {
                1 + rp
                    .subquery_children
                    .iter()
                    .map(|(_, p)| p.remote_query_count())
                    .sum::<usize>()
            }
            SplitPlan::Client { children, .. } => {
                children.iter().map(|(_, p)| p.remote_query_count()).sum()
            }
        }
    }

    /// True if any part of the plan groups or filters on the client.
    pub fn has_local_work(&self) -> bool {
        match self {
            SplitPlan::Remote(rp) => {
                !rp.local_filters.is_empty()
                    || rp.local_group_by.is_some()
                    || rp.local_having.is_some()
            }
            SplitPlan::Client { .. } => true,
        }
    }

    /// A short human-readable description of the plan shape (EXPLAIN-like).
    pub fn describe(&self) -> String {
        match self {
            SplitPlan::Remote(rp) => {
                let mut parts = vec![format!(
                    "RemoteSQL[{} outputs{}]",
                    rp.outputs.len(),
                    if rp.server_grouped {
                        ", server GROUP BY"
                    } else {
                        ""
                    }
                )];
                if !rp.local_filters.is_empty() {
                    parts.push(format!("LocalFilter×{}", rp.local_filters.len()));
                }
                if rp.local_group_by.is_some() {
                    parts.push("LocalGroupBy".into());
                }
                if rp.local_having.is_some() {
                    parts.push("LocalGroupFilter".into());
                }
                if !rp.order_by.is_empty() {
                    parts.push("LocalSort".into());
                }
                parts.push("LocalProjection".into());
                parts.join(" -> ")
            }
            SplitPlan::Client { children, .. } => format!(
                "ClientExec over [{}]",
                children
                    .iter()
                    .map(|(name, c)| format!("{name}: {}", c.describe()))
                    .collect::<Vec<_>>()
                    .join("; ")
            ),
        }
    }
}

/// Options controlling which of the paper's optimizations the plan generator
/// may use; toggled by the Figure 5/6 experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanOptions {
    /// Use per-row precomputed expression columns (§5.1).
    pub use_precomputation: bool,
    /// Use homomorphic (Paillier) server-side aggregation.
    pub use_hom_aggregation: bool,
    /// Use conservative pre-filtering for un-pushable HAVING clauses (§5.4).
    pub use_prefiltering: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            use_precomputation: true,
            use_hom_aggregation: true,
            use_prefiltering: true,
        }
    }
}

/// Generates a split plan for `query` (Algorithm 1 plus the recursive handling
/// of derived tables and subqueries). Always succeeds: when a part of the
/// query cannot be pushed, it degrades to client-side execution of that part.
pub fn generate_query_plan(
    query: &Query,
    plain: &Database,
    encryptor: &Encryptor,
    options: &PlanOptions,
) -> SplitPlan {
    // Derived tables in FROM: plan each subquery, evaluate the outer query on
    // the client over the children's outputs.
    let has_derived = query
        .from
        .iter()
        .any(|t| matches!(t, TableRef::Subquery { .. }));
    if has_derived {
        let mut children = Vec::new();
        let mut outer = query.clone();
        for t in &mut outer.from {
            if let TableRef::Subquery { query: sub, alias } = t {
                let child = generate_query_plan(sub, plain, encryptor, options);
                children.push((alias.clone(), child));
                // Replace with a reference to the client-side relation.
                *t = TableRef::Table {
                    name: alias.clone(),
                    alias: None,
                };
            }
        }
        return SplitPlan::Client {
            query: outer,
            children,
        };
    }

    let scope = match QueryScope::for_query(query, plain) {
        Some(s) => s,
        None => return client_fallback_plan(query, plain, encryptor, options),
    };
    match generate_remote_plan(query, plain, encryptor, &scope, options) {
        Some(plan) => SplitPlan::Remote(Box::new(plan)),
        None => client_fallback_plan(query, plain, encryptor, options),
    }
}

/// The "ship the tables to the client" fallback: every catalog table the
/// query references, at any depth, is fetched whole by a `SELECT *` remote
/// plan with no predicate, and the original query runs on the client.
/// Always correct, it is the paper's strawman; the planner picks it only when
/// nothing better exists. This whole-table form is the one the planner
/// prices, an upper bound on what the fallback ships: once one is chosen,
/// [`narrow_fetches`] cuts each fetch down to what the query reads.
pub fn client_fallback_plan(
    query: &Query,
    plain: &Database,
    encryptor: &Encryptor,
    options: &PlanOptions,
) -> SplitPlan {
    fallback_plan_with(query, plain, |t| {
        table_fetch_plan(t, None, &[], plain, encryptor, options)
    })
}

/// The client fallback for `query` whose child for each table of
/// [`fallback_tables`] is `fetch(table)`.
pub(crate) fn fallback_plan_with(
    query: &Query,
    plain: &Database,
    mut fetch: impl FnMut(&str) -> Option<SplitPlan>,
) -> SplitPlan {
    let children = fallback_tables(query, plain)
        .into_iter()
        .map(|t| {
            let plan = fetch(&t).expect("table fetch plan must always exist");
            (t, plan)
        })
        .collect();
    SplitPlan::Client {
        query: query.clone(),
        children,
    }
}

/// The tables the client fallback fetches for `query`: every catalog table
/// it references, at any depth, sorted and deduplicated — the order of the
/// fallback plan's children.
pub(crate) fn fallback_tables(query: &Query, plain: &Database) -> Vec<String> {
    let mut tables: Vec<String> = Vec::new();
    for_each_query(query, &mut |q| {
        tables.extend(q.base_tables().iter().map(|t| t.to_lowercase()))
    });
    tables.sort();
    tables.dedup();
    tables.retain(|t| plain.catalog().get(t).is_some());
    tables
}

/// The remote plan that ships one base table to the client, or `None` when
/// the design cannot decrypt a column it ships. It fetches `columns` of the
/// table (`None`: every column, as `SELECT *`) from the rows that satisfy
/// `conjuncts`, unqualified predicates over this table alone: those the
/// design can evaluate run on the server, the rest as the fetch's local
/// filters. With all columns and no conjunct it is the whole-table fetch the
/// planner prices. It depends only on its arguments, the statistics database
/// and the design: `options` reaches no branch a fetch takes.
pub fn table_fetch_plan(
    table: &str,
    columns: Option<&[String]>,
    conjuncts: &[Expr],
    plain: &Database,
    encryptor: &Encryptor,
    options: &PlanOptions,
) -> Option<SplitPlan> {
    let projections = match columns {
        None => vec![SelectItem::new(Expr::col("*"))],
        Some(columns) => columns
            .iter()
            .map(|c| SelectItem::new(Expr::col(c.clone())))
            .collect(),
    };
    let fetch_query = Query {
        projections,
        from: vec![TableRef::Table {
            name: table.to_string(),
            alias: None,
        }],
        where_clause: Expr::join_conjuncts(conjuncts),
        ..Default::default()
    };
    let scope = QueryScope::for_query(&fetch_query, plain)?;
    let plan = generate_remote_plan(&fetch_query, plain, encryptor, &scope, options)?;
    Some(SplitPlan::Remote(Box::new(plan)))
}

/// Narrows every table fetch of `plan`, planned for `query` by
/// [`generate_query_plan`] or the planner, at any depth: the children of
/// each client fallback, inside derived tables and subqueries too. Each
/// fetch then ships only the columns of its table the fallback's query
/// names anywhere (all of them under a `*`), and carries the query's
/// top-level WHERE conjuncts that read that table alone, when the table
/// occurs once in the query's tree. The client query is unchanged and
/// re-applies every conjunct, so answers are those of the whole-table
/// fetches.
///
/// A fallback is told from a derived-table step by how it was built, never
/// by a child's name: a fallback runs the query it was planned for as is,
/// while a derived-table step runs it with each derived table replaced by a
/// reference to the child of the same position.
pub fn narrow_fetches(
    plan: &mut SplitPlan,
    query: &Query,
    plain: &Database,
    encryptor: &Encryptor,
    options: &PlanOptions,
) {
    match plan {
        SplitPlan::Remote(rp) => {
            for (sub, child) in &mut rp.subquery_children {
                narrow_fetches(child, sub, plain, encryptor, options);
            }
        }
        SplitPlan::Client {
            query: client_query,
            ..
        } if client_query == query => {
            let reads = ColumnReads::of(query);
            *plan = fallback_plan_with(query, plain, |t| {
                let columns = reads.columns(t, plain);
                let conjuncts = fetch_conjuncts(query, t, plain);
                table_fetch_plan(t, columns.as_deref(), &conjuncts, plain, encryptor, options)
            });
        }
        SplitPlan::Client { children, .. } => {
            let derived = query.from.iter().filter_map(|t| match t {
                TableRef::Subquery { query, .. } => Some(query),
                TableRef::Table { .. } => None,
            });
            for ((_, child), sub) in children.iter_mut().zip(derived) {
                narrow_fetches(child, sub, plain, encryptor, options);
            }
        }
    }
}

/// What a query reads of its tables, at any depth: the column names it
/// mentions (lowercase), and the tables a `*` reads whole.
struct ColumnReads {
    named: HashSet<String>,
    whole: HashSet<String>,
}

impl ColumnReads {
    fn of(query: &Query) -> ColumnReads {
        let mut reads = ColumnReads {
            named: HashSet::new(),
            whole: HashSet::new(),
        };
        for_each_query(query, &mut |q| {
            for c in query_exprs(q).flat_map(Expr::column_refs) {
                if c.column == "*" {
                    reads
                        .whole
                        .extend(q.base_tables().iter().map(|t| t.to_lowercase()));
                } else {
                    reads.named.insert(c.column.to_lowercase());
                }
            }
        });
        reads
    }

    /// The columns of `table` a fetch must ship, in schema order; `None`
    /// when a `*` reads it whole. A name is matched against every table, so
    /// a column another table's reference shares is shipped too.
    fn columns(&self, table: &str, plain: &Database) -> Option<Vec<String>> {
        if self.whole.contains(table) {
            return None;
        }
        let schema = plain.catalog().get(table)?;
        Some(
            schema
                .columns
                .iter()
                .map(|c| c.name.to_lowercase())
                .filter(|c| self.named.contains(c))
                .collect(),
        )
    }
}

/// The top-level WHERE conjuncts of `query` a fetch of `table` may carry,
/// unqualified. None unless `table` occurs exactly once in the query's
/// tree, in its own FROM: a table read elsewhere too shares the fetch. A
/// conjunct qualifies when it has no subquery and no aggregate, and every
/// column it reads resolves to `table` without ambiguity — qualified by the
/// table's binding, or unqualified and a column of no other FROM table (and
/// no derived table in FROM).
fn fetch_conjuncts(query: &Query, table: &str, plain: &Database) -> Vec<Expr> {
    let mut occurrences = 0;
    for_each_query(query, &mut |q| {
        occurrences += q
            .base_tables()
            .iter()
            .filter(|t| t.eq_ignore_ascii_case(table))
            .count()
    });
    let binding = query.from.iter().find_map(|t| match t {
        TableRef::Table { name, .. } if name.eq_ignore_ascii_case(table) => Some(t.binding_name()),
        _ => None,
    });
    let (Some(binding), 1, Some(where_clause)) = (binding, occurrences, &query.where_clause) else {
        return Vec::new();
    };
    let has_column = |t: &str, c: &str| {
        plain
            .catalog()
            .get(t)
            .is_some_and(|s| s.column_index(c).is_some())
    };
    // A derived table in FROM may own any unqualified name.
    let has_derived = query
        .from
        .iter()
        .any(|t| matches!(t, TableRef::Subquery { .. }));
    let others: Vec<String> = query
        .base_tables()
        .into_iter()
        .filter(|t| !t.eq_ignore_ascii_case(table))
        .collect();
    let reads_table = |c: &ColumnRef| {
        has_column(table, &c.column)
            && match &c.table {
                Some(q) => q.eq_ignore_ascii_case(binding),
                None => !has_derived && !others.iter().any(|o| has_column(o, &c.column)),
            }
    };
    where_clause
        .split_conjuncts()
        .into_iter()
        .filter(|conj| {
            let refs = conj.column_refs();
            !conj.contains_subquery()
                && !conj.contains_aggregate()
                && !refs.is_empty()
                && refs.iter().all(reads_table)
        })
        .map(normalize_expr)
        .collect()
}

/// Every expression of one query's own clauses, not descending into
/// subqueries.
pub(crate) fn query_exprs(query: &Query) -> impl Iterator<Item = &Expr> {
    query
        .projections
        .iter()
        .map(|p| &p.expr)
        .chain(&query.where_clause)
        .chain(&query.group_by)
        .chain(&query.having)
        .chain(query.order_by.iter().map(|o| &o.expr))
}

/// Calls `f` on `query` and on every query nested in it: its derived tables
/// and the subqueries of every clause, at any depth.
pub(crate) fn for_each_query<'a>(query: &'a Query, f: &mut impl FnMut(&'a Query)) {
    f(query);
    for t in &query.from {
        if let TableRef::Subquery { query, .. } = t {
            for_each_query(query, f);
        }
    }
    for e in query_exprs(query) {
        e.walk(&mut |node| match node {
            Expr::InSubquery { subquery, .. }
            | Expr::Exists { subquery, .. }
            | Expr::ScalarSubquery(subquery) => for_each_query(subquery, f),
            _ => {}
        });
    }
}

/// True if a subquery references columns it does not define (correlated).
fn is_correlated(sub: &Query, plain: &Database) -> bool {
    let scope = match QueryScope::for_query(sub, plain) {
        Some(s) => s,
        // Derived tables inside: treat conservatively as correlated.
        None => return true,
    };
    let mut correlated = false;
    let mut check = |e: &Expr| {
        for c in e.column_refs() {
            if c.column != "*" && scope.resolve(&c).is_none() {
                correlated = true;
            }
        }
    };
    for p in &sub.projections {
        check(&p.expr);
    }
    if let Some(w) = &sub.where_clause {
        check(w);
    }
    if let Some(h) = &sub.having {
        check(h);
    }
    for g in &sub.group_by {
        check(g);
    }
    correlated
}

/// Core of Algorithm 1: build a RemotePlan for a query over base tables.
/// Returns `None` when the query shape cannot be handled by a single remote
/// query (e.g. correlated subqueries or un-pushable joins).
fn generate_remote_plan(
    query: &Query,
    plain: &Database,
    encryptor: &Encryptor,
    scope: &QueryScope,
    options: &PlanOptions,
) -> Option<RemotePlan> {
    let design = encryptor.design();
    let rewriter = Rewriter {
        design,
        encryptor,
        scope,
    };

    let mut remote = Query {
        from: query.from.clone(),
        ..Default::default()
    };
    let mut outputs: Vec<OutputColumn> = Vec::new();
    let mut subquery_children: Vec<(Query, SplitPlan)> = Vec::new();
    let mut local_filters: Vec<Expr> = Vec::new();
    let mut remote_conjuncts: Vec<Expr> = Vec::new();

    // Helper: ensure an output column exists for a fetchable source expression.
    let add_fetch = |outputs: &mut Vec<OutputColumn>, spec: &FetchSpec, source: Expr| {
        let server_expr = Expr::col(spec.enc_column.clone());
        if outputs.iter().any(|o| o.source == source) {
            return;
        }
        outputs.push(OutputColumn {
            source,
            server_expr,
            decrypt: DecryptSpec::Column {
                table: spec.table.clone(),
                base: spec.base.clone(),
                scheme: spec.scheme,
                ty: spec.ty,
            },
        });
    };

    // Fetch every base column referenced by `expr` so the client can evaluate
    // it after decryption. Fails if some column has no decryptable encryption.
    let fetch_exprs_for = |outputs: &mut Vec<OutputColumn>, expr: &Expr| -> Option<()> {
        for c in expr.column_refs() {
            if c.column == "*" {
                continue;
            }
            let col_expr = Expr::Column(c.clone());
            let spec = rewriter.fetch_source(&col_expr)?;
            add_fetch(outputs, &spec, normalize_expr(&col_expr));
        }
        Some(())
    };

    // ---- SELECT * expansion for table-fetch plans ----
    let star = query
        .projections
        .iter()
        .any(|p| matches!(&p.expr, Expr::Column(c) if c.column == "*"));

    // ---- WHERE / JOIN clauses (lines 6–13 of Algorithm 1) ----
    let conjuncts = query
        .where_clause
        .as_ref()
        .map(|w| w.split_conjuncts())
        .unwrap_or_default();
    for conj in conjuncts {
        if conj.contains_subquery() {
            // Plan uncorrelated subqueries as children; correlated ones force
            // the fallback path.
            let mut failed = false;
            let mut subs: Vec<Query> = Vec::new();
            conj.walk(&mut |node| match node {
                Expr::InSubquery { subquery, .. } | Expr::Exists { subquery, .. } => {
                    subs.push((**subquery).clone())
                }
                Expr::ScalarSubquery(subquery) => subs.push((**subquery).clone()),
                _ => {}
            });
            for sub in subs {
                if is_correlated(&sub, plain) {
                    failed = true;
                } else {
                    let child = generate_query_plan(&sub, plain, encryptor, options);
                    subquery_children.push((sub, child));
                }
            }
            if failed {
                return None;
            }
            fetch_exprs_for(&mut outputs, conj)?;
            local_filters.push(conj.clone());
            continue;
        }
        // Try to push the conjunct to the server.
        let pushed = rewriter.rewrite_plain(conj);
        match pushed {
            Some(server_expr) => remote_conjuncts.push(server_expr),
            None => {
                // A join predicate that cannot be pushed means the join itself
                // would have to happen on the client; fall back.
                let tables: std::collections::HashSet<_> = conj
                    .column_refs()
                    .iter()
                    .filter_map(|c| scope.resolve(c).map(|(t, _, _)| t))
                    .collect();
                if tables.len() > 1 {
                    return None;
                }
                fetch_exprs_for(&mut outputs, conj)?;
                local_filters.push(conj.clone());
            }
        }
    }
    remote.where_clause = Expr::join_conjuncts(&remote_conjuncts);

    // ---- GROUP BY (lines 14–18) ----
    // If any WHERE conjunct stays on the client, the server cannot group:
    // grouping before the residual filter would aggregate rows that the
    // filter later rejects.
    let filters_stay_local = !local_filters.is_empty();
    let mut server_grouped = false;
    let mut local_group_by: Option<Vec<Expr>> = None;
    if !query.group_by.is_empty() {
        let rewritten: Option<Vec<Expr>> = query
            .group_by
            .iter()
            .map(|k| {
                if !options.use_precomputation && !matches!(k, Expr::Column(_)) {
                    None
                } else {
                    rewriter.rewrite_det(k)
                }
            })
            .collect();
        match rewritten {
            Some(keys) if !filters_stay_local => {
                remote.group_by = keys;
                server_grouped = true;
            }
            _ => {
                local_group_by = Some(query.group_by.clone());
            }
        }
    } else if query.is_aggregate_query() {
        if filters_stay_local {
            // Global aggregate with a residual filter: aggregate on the client
            // over the filtered rows.
            local_group_by = Some(Vec::new());
        } else {
            // Global aggregate: the "group" is the whole result; the server can
            // still aggregate if the aggregates themselves are pushable.
            server_grouped = true;
        }
    }

    // ---- HAVING (lines 19–31) ----
    let mut local_having: Option<Expr> = None;
    if let Some(having) = &query.having {
        if server_grouped {
            // HAVING can rarely be pushed because it compares aggregates;
            // attempt it, otherwise evaluate on the client (plus optional
            // conservative pre-filter).
            match rewrite_having(having) {
                Some(server_having) => remote.having = Some(server_having),
                None => {
                    local_having = Some(having.clone());
                    if options.use_prefiltering {
                        if let Some(pre) = prefilter_for(&rewriter, having, plain) {
                            remote.having = Some(pre);
                        }
                    }
                }
            }
        } else {
            local_having = Some(having.clone());
        }
        // Any subqueries inside HAVING become children.
        let mut subs: Vec<Query> = Vec::new();
        having.walk(&mut |node| match node {
            Expr::InSubquery { subquery, .. } | Expr::Exists { subquery, .. } => {
                subs.push((**subquery).clone())
            }
            Expr::ScalarSubquery(subquery) => subs.push((**subquery).clone()),
            _ => {}
        });
        for sub in subs {
            if is_correlated(&sub, plain) {
                return None;
            }
            let child = generate_query_plan(&sub, plain, encryptor, options);
            subquery_children.push((sub, child));
        }
    }

    // ---- Aggregates and projections (lines 32–37) ----
    // Collect every aggregate that must be available on the client: from
    // projections, HAVING (if local), and ORDER BY.
    let mut needed_aggregates: Vec<Expr> = Vec::new();
    let mut collect_aggs = |e: &Expr| {
        e.walk(&mut |node| {
            if matches!(node, Expr::Aggregate { .. }) && !needed_aggregates.contains(node) {
                needed_aggregates.push(node.clone());
            }
        });
    };
    for p in &query.projections {
        collect_aggs(&p.expr);
    }
    if let Some(h) = &local_having {
        collect_aggs(h);
    }
    for o in &query.order_by {
        collect_aggs(&o.expr);
    }

    if query.is_aggregate_query() && server_grouped {
        // Group keys must be fetched (decryptable) so the client can produce
        // the final projection.
        for key in &query.group_by {
            match rewriter.fetch_source(key) {
                Some(spec) => add_fetch(&mut outputs, &spec, normalize_expr(key)),
                None => {
                    // Fall back to fetching the underlying columns.
                    fetch_exprs_for(&mut outputs, key)?;
                }
            }
        }
        let needs_count = needed_aggregates.iter().any(|a| {
            matches!(
                a,
                Expr::Aggregate {
                    func: AggFunc::Avg,
                    ..
                }
            )
        });
        for agg in &needed_aggregates {
            let out = plan_aggregate(&rewriter, agg, options)?;
            if !outputs.iter().any(|o| o.source == out.source) {
                outputs.push(out);
            }
        }
        if needs_count {
            // AVG over a homomorphic SUM needs the group cardinality too.
            let count = Expr::Aggregate {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            };
            if !outputs.iter().any(|o| o.source == count) {
                outputs.push(OutputColumn {
                    source: count.clone(),
                    server_expr: count,
                    decrypt: DecryptSpec::Plain,
                });
            }
        }
    } else if query.is_aggregate_query() {
        // Group by on the client: fetch per-row values for group keys and
        // aggregate arguments.
        for key in query.group_by.iter() {
            fetch_exprs_for(&mut outputs, key)?;
        }
        for agg in &needed_aggregates {
            if let Expr::Aggregate { arg: Some(a), .. } = agg {
                fetch_exprs_for(&mut outputs, a)?;
            }
        }
    }

    // Non-aggregate projection expressions (and ORDER BY keys) must be
    // computable on the client.
    if star {
        // Table-fetch plan: project every base column.
        for t in &query.from {
            if let TableRef::Table { name, .. } = t {
                if let Some(schema) = plain.catalog().get(name) {
                    for col in &schema.columns {
                        let col_expr = Expr::col(col.name.to_lowercase());
                        let spec = rewriter.fetch_source(&col_expr)?;
                        add_fetch(&mut outputs, &spec, col_expr);
                    }
                }
            }
        }
    } else {
        for p in &query.projections {
            if p.expr.contains_aggregate() {
                continue;
            }
            match rewriter.fetch_source(&p.expr) {
                Some(spec) => add_fetch(&mut outputs, &spec, normalize_expr(&p.expr)),
                None => fetch_exprs_for(&mut outputs, &p.expr)?,
            }
        }
        for o in &query.order_by {
            if o.expr.contains_aggregate() {
                continue;
            }
            if let Expr::Column(c) = &o.expr {
                // Alias of a projection: already available.
                let is_alias = query.projections.iter().any(|p| {
                    p.alias
                        .as_deref()
                        .is_some_and(|a| a.eq_ignore_ascii_case(&c.column))
                });
                if is_alias {
                    continue;
                }
            }
            if let Expr::Literal(_) = &o.expr {
                continue;
            }
            match rewriter.fetch_source(&o.expr) {
                Some(spec) => add_fetch(&mut outputs, &spec, normalize_expr(&o.expr)),
                None => fetch_exprs_for(&mut outputs, &o.expr)?,
            }
        }
    }

    // The server query projects exactly the server expressions of our outputs.
    remote.projections = outputs
        .iter()
        .map(|o| SelectItem::new(o.server_expr.clone()))
        .collect();
    if remote.projections.is_empty() {
        // Degenerate query (e.g. SELECT COUNT(*) with local grouping); fetch a
        // constant so the row count is preserved.
        remote.projections = vec![SelectItem::new(Expr::int(1))];
        outputs.push(OutputColumn {
            source: Expr::int(1),
            server_expr: Expr::int(1),
            decrypt: DecryptSpec::Plain,
        });
    }

    Some(RemotePlan {
        server_query: remote,
        outputs,
        subquery_children,
        local_filters,
        local_group_by,
        local_having,
        server_grouped,
        projections: if star {
            Vec::new()
        } else {
            query.projections.clone()
        },
        order_by: query.order_by.clone(),
        limit: query.limit,
        distinct: query.distinct,
    })
}

/// Plans one aggregate for a server-grouped query: Paillier aggregation when
/// available, `COUNT(*)` in plaintext, otherwise `group_concat` of DET values
/// folded on the client.
fn plan_aggregate(
    rewriter: &Rewriter<'_>,
    agg: &Expr,
    options: &PlanOptions,
) -> Option<OutputColumn> {
    let (func, arg, distinct) = match agg {
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => (*func, arg.clone(), *distinct),
        _ => return None,
    };
    let source = normalize_expr(agg);
    match (func, &arg) {
        (AggFunc::Count, None) => Some(OutputColumn {
            source,
            server_expr: Expr::Aggregate {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            },
            decrypt: DecryptSpec::Plain,
        }),
        (AggFunc::Count, Some(a)) => {
            let spec = rewriter.scheme_column(a, EncScheme::Det)?;
            Some(OutputColumn {
                source,
                server_expr: Expr::Aggregate {
                    func: AggFunc::Count,
                    arg: Some(Box::new(Expr::col(spec.enc_column))),
                    distinct,
                },
                decrypt: DecryptSpec::Plain,
            })
        }
        (AggFunc::Sum | AggFunc::Avg, Some(a)) => {
            // Preferred: homomorphic aggregation of the (possibly precomputed)
            // argument.
            if options.use_hom_aggregation {
                if let Some(spec) = rewriter.scheme_column(a, EncScheme::Hom) {
                    let td = rewriter.design.table(&spec.table)?;
                    let (col, decrypt) = if td.col_packing {
                        (
                            td.hom_group_column(),
                            DecryptSpec::HomGroupSum {
                                table: spec.table.clone(),
                                base: spec.base.clone(),
                                ty: spec.ty,
                            },
                        )
                    } else {
                        (
                            spec.enc_column.clone(),
                            DecryptSpec::HomSum {
                                table: spec.table.clone(),
                                base: spec.base.clone(),
                                ty: spec.ty,
                            },
                        )
                    };
                    // AVG is computed on the client as SUM / COUNT, so the
                    // source we expose is SUM; the plan also needs COUNT(*),
                    // which the local evaluator adds automatically.
                    let sum_source = Expr::Aggregate {
                        func: AggFunc::Sum,
                        arg: Some(Box::new(normalize_expr(a))),
                        distinct: false,
                    };
                    return Some(OutputColumn {
                        source: sum_source,
                        server_expr: Expr::Function {
                            name: "paillier_sum".into(),
                            args: vec![Expr::col(col)],
                        },
                        decrypt,
                    });
                }
            }
            // Otherwise ship the group's values (DET) and fold on the client.
            let spec = rewriter.scheme_column(a, EncScheme::Det)?;
            Some(OutputColumn {
                source,
                server_expr: Expr::Function {
                    name: "group_concat".into(),
                    args: vec![Expr::col(spec.enc_column)],
                },
                decrypt: DecryptSpec::GroupValues {
                    table: spec.table,
                    base: spec.base,
                    ty: spec.ty,
                    agg: func,
                    distinct,
                },
            })
        }
        (AggFunc::Min | AggFunc::Max, Some(a)) => {
            let spec = rewriter.scheme_column(a, EncScheme::Det)?;
            Some(OutputColumn {
                source,
                server_expr: Expr::Function {
                    name: "group_concat".into(),
                    args: vec![Expr::col(spec.enc_column)],
                },
                decrypt: DecryptSpec::GroupValues {
                    table: spec.table,
                    base: spec.base,
                    ty: spec.ty,
                    agg: func,
                    distinct,
                },
            })
        }
        _ => None,
    }
}

/// Attempts to push a HAVING clause to the server. This only succeeds when it
/// involves no cross-scheme comparisons, e.g. `COUNT(*) > 5`.
fn rewrite_having(having: &Expr) -> Option<Expr> {
    match having {
        Expr::BinaryOp { left, op, right } if op.is_comparison() => {
            let count_side = |e: &Expr| {
                matches!(
                    e,
                    Expr::Aggregate {
                        func: AggFunc::Count,
                        ..
                    }
                )
            };
            if count_side(left) {
                let c = fold_constant(right, &[])?;
                let lit = value_to_literal(&c)?;
                return Some(Expr::BinaryOp {
                    left: left.clone(),
                    op: *op,
                    right: Box::new(lit),
                });
            }
            if count_side(right) {
                let c = fold_constant(left, &[])?;
                let lit = value_to_literal(&c)?;
                return Some(Expr::BinaryOp {
                    left: Box::new(lit),
                    op: *op,
                    right: right.clone(),
                });
            }
            None
        }
        _ => None,
    }
}

/// Conservative pre-filtering (§5.4): for `HAVING SUM(x) > c` with an OPE
/// encryption of `x` available, emit the server-side superset filter
/// `MAX(x_ope) > ope(m) OR COUNT(*) > c / m` with `m` the observed maximum of
/// `x` in the statistics sample.
fn prefilter_for(rewriter: &Rewriter<'_>, having: &Expr, plain: &Database) -> Option<Expr> {
    let (sum_arg, constant) = match having {
        Expr::BinaryOp {
            left,
            op: BinaryOp::Gt | BinaryOp::GtEq,
            right,
        } => match (&**left, fold_constant(right, &[])) {
            (
                Expr::Aggregate {
                    func: AggFunc::Sum,
                    arg: Some(a),
                    ..
                },
                Some(c),
            ) => ((**a).clone(), c),
            _ => return None,
        },
        _ => return None,
    };
    let threshold = constant.as_float()?;
    let spec = rewriter.scheme_column(&sum_arg, EncScheme::Ope)?;
    // m = maximum observed value of the column in the sample data.
    let m = plain
        .column_max(&spec.table, &spec.base)
        .as_ref()
        .and_then(Value::as_float)
        .unwrap_or(1.0)
        .max(1.0);
    let enc_m = rewriter
        .encryptor
        .column(&spec.table, &spec.base)?
        .encrypt_constant(EncScheme::Ope, &Value::Int(m as i64))
        .ok()?;
    let enc_m_expr = match enc_m {
        Value::Bytes(b) => Expr::Function {
            name: "hex_bytes".into(),
            args: vec![Expr::Literal(Literal::String(monomi_engine::encode_hex(
                &b,
            )))],
        },
        Value::Int(i) => Expr::Literal(Literal::Number(i.to_string())),
        _ => return None,
    };
    let max_clause = Expr::Aggregate {
        func: AggFunc::Max,
        arg: Some(Box::new(Expr::col(spec.enc_column.clone()))),
        distinct: false,
    }
    .binop(BinaryOp::GtEq, enc_m_expr);
    let count_clause = Expr::Aggregate {
        func: AggFunc::Count,
        arg: None,
        distinct: false,
    }
    .binop(
        BinaryOp::Gt,
        Expr::Literal(Literal::Number(format!(
            "{}",
            (threshold / m).floor() as i64
        ))),
    );
    Some(max_clause.binop(BinaryOp::Or, count_clause))
}

pub(crate) fn value_to_literal(v: &Value) -> Option<Expr> {
    Some(match v {
        Value::Int(i) => Expr::Literal(Literal::Number(i.to_string())),
        Value::Float(f) => Expr::Literal(Literal::Number(format!("{f}"))),
        Value::Str(s) => Expr::Literal(Literal::String(s.clone())),
        Value::Date(d) => Expr::Literal(Literal::Date(monomi_engine::date::format_date(*d))),
        _ => return None,
    })
}
