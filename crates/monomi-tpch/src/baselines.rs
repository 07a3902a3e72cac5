//! The systems compared in the paper's evaluation (§8.2–§8.6):
//!
//! * **Plaintext** — unencrypted database on the server; the client only pays
//!   for transferring final results.
//! * **CryptDB+Client** — per-column encryption only (no precomputation, no
//!   packing, no pre-filtering), greedy maximal push-down, remainder on the
//!   client (the strawman built from prior work).
//! * **Execution-Greedy** — all of MONOMI's physical-design techniques but a
//!   greedy "always push to the server" execution strategy instead of the
//!   cost-based planner.
//! * **MONOMI** — the full system: optimizing designer + planner.

use crate::queries::TpchQuery;
use monomi_core::client::{ClientConfig, DesignStrategy, MonomiClient};
use monomi_core::cost::bind_params;
use monomi_core::design::PhysicalDesign;
use monomi_core::designer::Designer;
use monomi_core::localexec::QueryTimings;
use monomi_core::plan::PlanOptions;
use monomi_core::schemes::EncScheme;
use monomi_core::{CoreError, NetworkModel};
use monomi_crypto::{MasterKey, PaillierKey};
use monomi_engine::{ColumnType, Database, ExecOptions, ResultSet};
use monomi_sql::ast::Expr;
use monomi_sql::parse_query;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Which system executes the workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemKind {
    Plaintext,
    CryptDbClient,
    ExecutionGreedy,
    Monomi,
}

/// The result of running one query on one system.
#[derive(Clone, Debug)]
pub struct QueryRun {
    pub timings: QueryTimings,
    pub result: ResultSet,
}

/// The plan options of CryptDB+Client: HOM aggregation over single columns,
/// no precomputed expressions, no pre-filtering.
pub const CRYPTDB_OPTIONS: PlanOptions = PlanOptions {
    use_precomputation: false,
    use_hom_aggregation: true,
    use_prefiltering: false,
};

/// How a client chooses a query's plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanMode {
    /// The cost-based planner (MONOMI).
    Planner,
    /// Always push as much as the options allow to the server, never
    /// consulting the cost model (Execution-Greedy, CryptDB+Client).
    Greedy(PlanOptions),
}

impl SystemKind {
    /// The plan mode this system runs its queries under.
    pub fn plan_mode(self) -> PlanMode {
        match self {
            SystemKind::CryptDbClient => PlanMode::Greedy(CRYPTDB_OPTIONS),
            SystemKind::ExecutionGreedy => PlanMode::Greedy(PlanOptions::default()),
            SystemKind::Plaintext | SystemKind::Monomi => PlanMode::Planner,
        }
    }
}

/// Runs one query on an encrypted deployment under a plan mode.
pub fn run_query(
    client: &MonomiClient,
    mode: PlanMode,
    query: &TpchQuery,
) -> Result<QueryRun, CoreError> {
    let (result, timings) = match mode {
        PlanMode::Planner => client.execute(query.sql, &query.params)?,
        PlanMode::Greedy(options) => client.execute_plan(&client.plan_with_options(
            query.sql,
            &query.params,
            &options,
            true,
        )?)?,
    };
    Ok(QueryRun { timings, result })
}

/// Runs a query on an unencrypted server database: measured execution time,
/// and the (small) final result as the bytes a link would carry.
pub fn run_plaintext(plain: &Database, query: &TpchQuery) -> Result<QueryRun, CoreError> {
    let parsed = parse_query(query.sql).map_err(|e| CoreError::new(e.to_string()))?;
    let bound = bind_params(&parsed, &query.params);
    let started = Instant::now();
    let (rs, stats) = plain
        .execute_with(&bound, &[], &ExecOptions::env_cached())
        .map_err(|e| CoreError::new(e.to_string()))?;
    let exec = started.elapsed().as_secs_f64();
    let timings = QueryTimings {
        server_seconds: exec,
        server_cpu_seconds: stats.cpu_seconds(exec),
        transfer_bytes: rs.size_bytes() as u64,
        server_bytes_scanned: stats.bytes_scanned,
        server_segments_read: stats.segments_read,
        server_segments_pruned: stats.segments_pruned,
        server_bytes_materialized: stats.bytes_materialized,
        server_index_probes: stats.index_probes,
        server_index_rows_fetched: stats.index_rows_fetched,
        server_postings_bytes_read: stats.postings_bytes_read,
        ..QueryTimings::default()
    };
    Ok(QueryRun {
        timings,
        result: rs,
    })
}

/// Builds a CryptDB-style physical design: one encryption per column per
/// operation class it appears in, but no precomputed expressions, no grouped
/// packing, and no multi-row packing.
pub fn cryptdb_design(
    plain: &Database,
    workload: &[TpchQuery],
    paillier_bits: usize,
) -> PhysicalDesign {
    // Start from MONOMI's unconstrained designer to find which columns need
    // which schemes, then strip the MONOMI-specific parts.
    let mut rng = StdRng::seed_from_u64(0xCDB);
    let master = MasterKey::generate(&mut rng);
    let paillier = PaillierKey::generate(&mut rng, paillier_bits.max(128));
    let designer = Designer {
        plain,
        master,
        paillier,
        paillier_bits,
        network: NetworkModel::paper_default(),
        profile: Default::default(),
        options: CRYPTDB_OPTIONS,
    };
    let queries: Vec<_> = workload
        .iter()
        .filter_map(|q| parse_query(q.sql).ok())
        .collect();
    let mut design = designer.unconstrained(&queries).design;
    for td in design.tables.values_mut() {
        // CryptDB has no precomputed columns, no packing.
        td.columns.retain(|c| matches!(c.source, Expr::Column(_)));
        td.col_packing = false;
        td.multirow_packing = false;
        // CryptDB's onion encryption stores RND on top of every column, which
        // is what drives its 4.21× space overhead; model that by adding RND to
        // every column.
        for cd in &mut td.columns {
            cd.schemes.insert(EncScheme::Rnd);
            if matches!(cd.ty, ColumnType::Int | ColumnType::Date) {
                cd.schemes.insert(EncScheme::Ope);
            }
        }
    }
    design
}

/// Configuration of one evaluated system.
pub struct SystemSetup {
    pub kind: SystemKind,
    pub client: Option<MonomiClient>,
}

/// Builds the client for a system over the given plaintext database/workload.
pub fn build_system(
    kind: SystemKind,
    plain: &Database,
    workload: &[TpchQuery],
    config: &ClientConfig,
) -> Result<SystemSetup, CoreError> {
    let queries: Vec<_> = workload
        .iter()
        .filter_map(|q| parse_query(q.sql).ok())
        .collect();
    let client = match kind {
        SystemKind::Plaintext => None,
        SystemKind::CryptDbClient => {
            let design = cryptdb_design(plain, workload, config.paillier_bits);
            let mut rng = StdRng::seed_from_u64(config.seed);
            let master = MasterKey::generate(&mut rng);
            let paillier = PaillierKey::generate(&mut rng, config.paillier_bits.max(128));
            let mut cfg = config.clone();
            cfg.plan_options = CRYPTDB_OPTIONS;
            Some(MonomiClient::from_design(
                plain, design, master, paillier, &cfg,
            )?)
        }
        SystemKind::ExecutionGreedy | SystemKind::Monomi => {
            let (client, _) =
                MonomiClient::setup(plain, &queries, DesignStrategy::Designer, config)?;
            Some(client)
        }
    };
    Ok(SystemSetup { kind, client })
}

impl SystemSetup {
    /// Runs one query under this system.
    pub fn run(&self, plain: &Database, query: &TpchQuery) -> Result<QueryRun, CoreError> {
        match &self.client {
            Some(client) => run_query(client, self.kind.plan_mode(), query),
            None => run_plaintext(plain, query),
        }
    }

    /// Server storage footprint of this system (plaintext size for Plaintext).
    pub fn server_bytes(&self, plain: &Database) -> usize {
        match &self.client {
            Some(client) => client.designed_size_bytes(),
            None => plain.total_size_bytes(),
        }
    }
}
