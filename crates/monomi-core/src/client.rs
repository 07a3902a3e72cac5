//! The trusted client library: the only component holding decryption keys.
//!
//! [`MonomiClient`] wraps the full MONOMI pipeline: run the designer over a
//! representative workload, encrypt and load the database onto the (untrusted)
//! server, and at query time plan, execute, decrypt, and post-process queries,
//! returning plaintext results together with a timing breakdown.

use crate::cost::{bind_params, CostBreakdown, DecryptProfile};
use crate::design::{Encryptor, PhysicalDesign};
use crate::designer::{DesignOutcome, Designer};
use crate::localexec::{QueryTimings, SplitExecutor};
use crate::network::NetworkModel;
use crate::plan::{PlanOptions, SplitPlan};
use crate::planner::{Planner, TableFetches};
use crate::transport::{
    load_database_with, InProcessTransport, ServerTransport, TcpTransport, TransportOptions,
    WireMetrics,
};
use crate::CoreError;
use monomi_crypto::{MasterKey, PaillierKey};
use monomi_engine::{Database, ExecOptions, ResultSet, Value};
use monomi_obs::{Span, Stopwatch, TraceId, TraceIdGen};
use monomi_sql::{parse_query, Query};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for building a MONOMI deployment.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Paillier modulus size in bits (the paper uses 1,024; tests use less).
    pub paillier_bits: usize,
    /// Server space budget as a multiple of the plaintext size (paper: S = 2).
    pub space_budget: Option<f64>,
    /// The link the planner and designer price transfers with.
    pub network: NetworkModel,
    /// Which optimizations the planner may use.
    pub plan_options: PlanOptions,
    /// Deterministic seed for key generation and encryption randomness.
    pub seed: u64,
    /// Skip the startup decryption profiler (use defaults) for fast tests.
    pub skip_profiling: bool,
    /// Execution options for the engine (server-side morsel workers and the
    /// client's residual plaintext execution). `None` reads `MONOMI_THREADS`
    /// and `MONOMI_INDEXES` from the environment once, at setup time;
    /// results are bit-identical at every thread count either way.
    pub exec_options: Option<ExecOptions>,
    /// Address of a running `monomi-server` (e.g. `127.0.0.1:7433`). `None`
    /// keeps the server in-process (the historical zero-copy path). With an
    /// address, setup ships the encrypted database over the wire and every
    /// server query runs through the TCP transport; results are
    /// byte-identical between the two.
    pub server_addr: Option<String>,
    /// Resilience knobs for the TCP transport (deadlines, retry budget,
    /// backoff). `None` means [`TransportOptions::default`]. Ignored for
    /// in-process servers.
    pub transport: Option<TransportOptions>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            paillier_bits: 512,
            space_budget: Some(2.0),
            network: NetworkModel::paper_default(),
            plan_options: PlanOptions::default(),
            seed: 42,
            skip_profiling: false,
            exec_options: None,
            server_addr: None,
            transport: None,
        }
    }
}

/// How the physical design is chosen during setup.
#[derive(Clone, Debug)]
pub enum DesignStrategy {
    /// Run the designer (ILP when a space budget is configured).
    Designer,
    /// Space-Greedy baseline: drop largest columns until within budget.
    SpaceGreedy,
    /// Use an explicitly provided design (e.g. the CryptDB-style baseline).
    Manual(PhysicalDesign),
}

/// The trusted MONOMI client.
pub struct MonomiClient {
    plain_stats_db: Database,
    encryptor: Encryptor,
    /// Every server interaction goes through here: in-process for `None`
    /// [`ClientConfig::server_addr`], framed TCP otherwise.
    server: Box<dyn ServerTransport>,
    network: NetworkModel,
    profile: DecryptProfile,
    plan_options: PlanOptions,
    /// Resolved once at setup (config override or environment), so the
    /// profiled effective-parallelism and every executed query describe the
    /// same configuration.
    exec_options: ExecOptions,
    design_outcome: Option<DesignOutcome>,
    /// The client fallback's per-table fetches, priced once at setup for
    /// every query's plan choice.
    fetches: TableFetches,
    /// Mints the per-query trace ids the traced execution paths carry across
    /// the wire. Seeded from the client seed, so a pinned-seed run produces
    /// the same id sequence every time.
    trace_ids: TraceIdGen,
}

impl MonomiClient {
    /// Sets up a MONOMI deployment: designs the encrypted schema for the given
    /// representative workload, encrypts `plain` and loads it as the untrusted
    /// server's database.
    ///
    /// `plain` plays two roles, matching the paper: it is the data to outsource
    /// and the statistics sample the designer uses.
    pub fn setup(
        plain: &Database,
        workload: &[Query],
        strategy: DesignStrategy,
        config: &ClientConfig,
    ) -> Result<(Self, DesignOutcome), CoreError> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let master = MasterKey::generate(&mut rng);
        let paillier = PaillierKey::generate(&mut rng, config.paillier_bits.max(128));

        let profile = DecryptProfile::default();
        let designer = Designer {
            plain,
            master: master.clone(),
            paillier: paillier.clone(),
            paillier_bits: config.paillier_bits,
            network: config.network,
            profile,
            options: config.plan_options,
        };
        let outcome = match strategy {
            DesignStrategy::Designer => match config.space_budget {
                Some(s) => designer.with_space_budget(workload, s),
                None => designer.unconstrained(workload),
            },
            DesignStrategy::SpaceGreedy => {
                designer.space_greedy(workload, config.space_budget.unwrap_or(2.0))
            }
            DesignStrategy::Manual(design) => DesignOutcome {
                design,
                estimated_cost: 0.0,
                setup_seconds: 0.0,
            },
        };

        let client = Self::from_design(plain, outcome.design.clone(), master, paillier, config)?;
        let mut client = client;
        client.design_outcome = Some(outcome.clone());
        Ok((client, outcome))
    }

    /// Builds a client from an explicit design and keys (used by the baselines
    /// and the design-sensitivity experiments).
    pub fn from_design(
        plain: &Database,
        design: PhysicalDesign,
        master: MasterKey,
        paillier: PaillierKey,
        config: &ClientConfig,
    ) -> Result<Self, CoreError> {
        let encryptor = Encryptor::with_keys(master, paillier, design);
        let encrypted_db = encryptor.encrypt_database(plain, config.seed ^ 0x5eed)?;
        // Stand up the server: keep the encrypted database in-process, or
        // ship it (schemas, Paillier modulus, ciphertext rows) to a remote
        // monomi-server and drop the local ciphertext copy. Either way the
        // trusted client keeps its keys and the plaintext copy below.
        let server: Box<dyn ServerTransport> = match &config.server_addr {
            None => Box::new(InProcessTransport::new(encrypted_db)),
            Some(addr) => {
                let opts = config.transport.unwrap_or_default();
                let mut transport = TcpTransport::connect_with(addr, opts)?;
                load_database_with(
                    &mut transport,
                    &encrypted_db,
                    &encryptor.design().unindexed_by_table(),
                )?;
                Box::new(transport)
            }
        };
        // Resolve the execution options once: the profiler below and every
        // later query must describe the same configuration.
        let exec_options = config.exec_options.unwrap_or_else(ExecOptions::from_env);
        let profile = if config.skip_profiling {
            DecryptProfile::default()
        } else {
            DecryptProfile::measure(&encryptor, exec_options.threads)
        };
        // Keep a full in-memory copy of the plaintext database, every row
        // included, for the planner's cardinality estimates and the designed
        // size. The paper's client keeps only schema and statistics; this
        // copy is on the trusted side, but it costs client memory equal to
        // the plaintext.
        let plain_stats_db = clone_database(plain);
        let mut client = MonomiClient {
            plain_stats_db,
            encryptor,
            server,
            network: config.network,
            profile,
            plan_options: config.plan_options,
            exec_options,
            design_outcome: None,
            fetches: TableFetches::default(),
            trace_ids: TraceIdGen::new(config.seed),
        };
        client.fetches = client.planner().table_fetches(&client.encryptor);
        Ok(client)
    }

    /// The physical design in use.
    pub fn design(&self) -> &PhysicalDesign {
        self.encryptor.design()
    }

    /// The outcome of the designer run, if the client was built via `setup`.
    pub fn design_outcome(&self) -> Option<&DesignOutcome> {
        self.design_outcome.as_ref()
    }

    /// The encrypted server database, when it lives in this process (tests
    /// and space accounting reach through this; with a remote server the
    /// client holds no copy and this returns `None`).
    pub fn encrypted_database(&self) -> Option<&Database> {
        self.server.in_process_database()
    }

    /// The transport every server interaction goes through.
    pub fn server_transport(&self) -> &dyn ServerTransport {
        self.server.as_ref()
    }

    /// Replaces the server transport with `wrap(current)`. This is the
    /// fault-injection seam: `monomi-faults` wraps the live transport in a
    /// `FaultyTransport` without the client knowing, so the chaos suite can
    /// drive every failure mode through the real execution pipeline.
    pub fn wrap_transport(
        &mut self,
        wrap: impl FnOnce(Box<dyn ServerTransport>) -> Box<dyn ServerTransport>,
    ) {
        let placeholder: Box<dyn ServerTransport> =
            Box::new(InProcessTransport::new(Database::in_memory()));
        let current = std::mem::replace(&mut self.server, placeholder);
        self.server = wrap(current);
    }

    /// Cumulative measured wire traffic (all zeros for in-process servers).
    pub fn wire_totals(&self) -> WireMetrics {
        self.server.wire_totals()
    }

    /// Actual bytes stored on the untrusted server (asked of the server
    /// itself when remote).
    pub fn server_size_bytes(&self) -> usize {
        self.server.server_size_bytes().unwrap_or(0) as usize
    }

    /// Analytic server size under the design (reflects multi-row packing).
    pub fn designed_size_bytes(&self) -> usize {
        self.design()
            .storage_bytes(&self.plain_stats_db, self.encryptor.paillier())
    }

    fn planner(&self) -> Planner<'_> {
        Planner {
            plain: &self.plain_stats_db,
            master: self.encryptor.master_key(),
            paillier: self.encryptor.paillier(),
            profile: self.profile,
            network: self.network,
            options: self.plan_options,
            paillier_bits: self.design().paillier_bits,
        }
    }

    fn executor(&self) -> SplitExecutor<'_> {
        SplitExecutor {
            server: self.server.as_ref(),
            encryptor: &self.encryptor,
            exec_options: self.exec_options,
        }
    }

    /// Plans a query without executing it (EXPLAIN).
    pub fn plan(&self, sql: &str, params: &[Value]) -> Result<SplitPlan, CoreError> {
        let query = parse_query(sql).map_err(|e| CoreError::new(e.to_string()))?;
        let bound = bind_params(&query, params);
        let (plan, _) = self
            .planner()
            .best_plan(&bound, &self.encryptor, &self.fetches);
        Ok(plan)
    }

    /// Executes a query end to end: plan, run remote parts on the encrypted
    /// server, decrypt, finish locally. Returns plaintext rows and timings.
    pub fn execute(
        &self,
        sql: &str,
        params: &[Value],
    ) -> Result<(ResultSet, QueryTimings), CoreError> {
        let (_, _, result, timings, _) = self.run(sql, params, TraceId::ZERO)?;
        Ok((result, timings))
    }

    /// Executes a specific plan (used by the optimization-ablation harnesses).
    pub fn execute_plan(&self, plan: &SplitPlan) -> Result<(ResultSet, QueryTimings), CoreError> {
        let (result, timings, _) = self.executor().run(plan, TraceId::ZERO)?;
        Ok((result, timings))
    }

    /// Executes a query under a freshly minted trace id. On top of what
    /// [`MonomiClient::execute`] returns, this yields the trace id (carried
    /// in every server request frame this query issued and echoed back) and
    /// the span tree: client plan/decrypt/residual spans with the server's
    /// per-operator spans nested under each RemoteSQL step.
    ///
    /// Tracing never changes results — the parity tests pin traced and
    /// untraced execution byte-identical at every thread count.
    pub fn execute_traced(
        &self,
        sql: &str,
        params: &[Value],
    ) -> Result<(ResultSet, QueryTimings, TraceId, Vec<Span>), CoreError> {
        let trace = self.trace_ids.next_id();
        let (_, _, result, timings, spans) = self.run(sql, params, trace)?;
        Ok((result, timings, trace, spans))
    }

    /// The one path a query takes through the client: parse, bind and plan
    /// `sql`, then run the plan under `trace` (zero: untraced). Returns the
    /// plan and the cost the planner chose it at with the plan's rows,
    /// timings and spans.
    fn run(
        &self,
        sql: &str,
        params: &[Value],
        trace: TraceId,
    ) -> Result<(SplitPlan, CostBreakdown, ResultSet, QueryTimings, Vec<Span>), CoreError> {
        let query = parse_query(sql).map_err(|e| CoreError::new(e.to_string()))?;
        let planning = Stopwatch::start();
        let bound = bind_params(&query, params);
        let (plan, cost) = self
            .planner()
            .best_plan(&bound, &self.encryptor, &self.fetches);
        let plan_seconds = planning.seconds();
        let (result, timings, mut spans) = self.executor().run(&plan, trace)?;
        if !trace.is_zero() {
            // One Plan leaf up front keeps the tree honest about where client
            // time went: binding plus the cost-based choice among the
            // candidates.
            spans.insert(0, Span::leaf("Plan", plan_seconds, 0));
        }
        Ok((plan, cost, result, timings, spans))
    }

    /// EXPLAIN ANALYZE: executes `sql` traced and renders a report — the
    /// chosen split plan, the measured span tree (per-operator wall seconds
    /// and row counts, server operators included), and the per-phase
    /// seconds the planner chose the plan at (a fallback's priced with
    /// whole-table fetches) next to the measured ones, so drift
    /// between the model and reality is visible at a glance. The `wire` row
    /// compares the predicted link time with the measured time on the wire
    /// (0 in-process).
    pub fn explain_analyze(&self, sql: &str, params: &[Value]) -> Result<String, CoreError> {
        let trace = self.trace_ids.next_id();
        let (plan, predicted, result, timings, spans) = self.run(sql, params, trace)?;

        let mut out = String::new();
        out.push_str(&format!("EXPLAIN ANALYZE  trace={trace}\n"));
        out.push_str(&format!("plan: {}\n", plan.describe()));
        out.push_str("spans:\n");
        for span in &spans {
            out.push_str(&span.render());
        }
        out.push_str(&format!(
            "{} rows in {:.6}s\n",
            result.rows.len(),
            timings.total_seconds()
        ));
        out.push_str("phase        predicted_s    actual_s\n");
        for (phase, pred, actual) in [
            ("server", predicted.server_seconds, timings.server_seconds),
            ("wire", predicted.network_seconds, timings.wire_seconds),
            (
                "decrypt",
                predicted.decrypt_seconds,
                timings.decrypt_seconds,
            ),
            ("client", predicted.client_seconds, timings.client_seconds),
            ("total", predicted.total(), timings.total_seconds()),
        ] {
            out.push_str(&format!("{phase:<12} {pred:>11.6} {actual:>11.6}\n"));
        }
        Ok(out)
    }

    /// Generates a plan with explicit options (bypassing the cost-based choice).
    pub fn plan_with_options(
        &self,
        sql: &str,
        params: &[Value],
        options: &PlanOptions,
        force_greedy: bool,
    ) -> Result<SplitPlan, CoreError> {
        let query = parse_query(sql).map_err(|e| CoreError::new(e.to_string()))?;
        let bound = bind_params(&query, params);
        if force_greedy {
            // Greedy execution: always push as much as possible to the server,
            // regardless of cost (the Execution-Greedy baseline).
            Ok(crate::plan::generate_query_plan(
                &bound,
                &self.plain_stats_db,
                &self.encryptor,
                options,
            ))
        } else {
            // The fetch memo holds under any options: a table fetch reads none.
            let mut planner = self.planner();
            planner.options = *options;
            Ok(planner.best_plan(&bound, &self.encryptor, &self.fetches).0)
        }
    }
}

/// Deep-copies a database (schema + rows). The engine intentionally has no
/// `Clone` on `Database` because real deployments would not copy servers; the
/// trusted client here only needs it for statistics, so the copy is always
/// in-memory — under `MONOMI_STORAGE=disk` only the *server* database (the
/// encrypted one built by the encryptor) lives in the segment store; the
/// client's statistics sample should not pay for a second store.
fn clone_database(db: &Database) -> Database {
    let mut out = Database::in_memory();
    for schema in db.catalog().tables() {
        out.create_table(schema.clone());
    }
    for name in db.table_names() {
        let table = db.table(&name).expect("listed table exists");
        out.bulk_load(&name, table.rows())
            .expect("row shapes match schema");
    }
    if let Some(m) = db.paillier_modulus() {
        out.register_paillier_modulus(m.clone());
    }
    out
}
