//! A deployment: generated data, a fresh `monomi-server` child, and a client
//! set up against it over TCP, with the fixed parameters of the benchmark.

use crate::ops;
use crate::server::{server_binary, ServerChild, THREADS};
use crate::{Args, Workload};
use monomi_core::{ClientConfig, DesignStrategy, MonomiClient, TransportOptions};
use monomi_engine::{Database, ExecOptions, DEFAULT_MORSEL_ROWS};
use monomi_obs::Stopwatch;
use monomi_store::IndexMode;
use monomi_tpch::datagen;
use std::path::{Path, PathBuf};

/// Paillier modulus bits: the paper's size.
pub const PAILLIER_BITS: usize = 1024;

/// Execution options of both sides: the client's residual engine runs with
/// them and sends them with every server query.
pub fn exec_options() -> ExecOptions {
    ExecOptions {
        threads: THREADS,
        morsel_rows: DEFAULT_MORSEL_ROWS,
        index_mode: IndexMode::All,
    }
}

/// A directory under the build directory that this run owns and removes.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn create() -> Scratch {
        let exe = std::env::current_exe().expect("path of the running benchmark");
        let profile_dir = exe.parent().expect("executable sits in a directory");
        let dir = profile_dir
            .parent()
            .unwrap_or(profile_dir)
            .join("e2e-scratch")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes with the last run that used it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A fresh server with a fresh client set up against it.
pub struct Deployment {
    // Dropped in this order: the client's connection closes before the
    // server is killed.
    pub client: MonomiClient,
    pub server: ServerChild,
    pub plain: Database,
    /// Datagen + designer + encrypt + load over TCP + index build.
    pub setup_s: f64,
    pub designer_s: f64,
    /// Round-trip seconds of the load requests (create, modulus, bulk loads).
    pub load_s: f64,
}

fn client_config(workload: Workload, seed: u64, addr: &str) -> ClientConfig {
    ClientConfig {
        paillier_bits: PAILLIER_BITS,
        // The paper's default deployment is S = 2; the other workloads run
        // on the unconstrained design.
        space_budget: (workload == Workload::TpchS2).then_some(2.0),
        seed,
        skip_profiling: false,
        exec_options: Some(exec_options()),
        server_addr: Some(addr.to_string()),
        transport: Some(TransportOptions::default()),
        ..Default::default()
    }
}

/// Starts a server under `scratch` and sets a client up against it. The
/// seed drives data generation, key generation and encryption randomness.
pub fn deploy(args: &Args, scale: f64, scratch: &Path, repeat: usize) -> Deployment {
    let server = ServerChild::spawn(
        &server_binary(),
        scratch.join(format!("server-{repeat}")),
        args.server_cpus.as_deref(),
    );
    let watch = Stopwatch::start();
    let plain = datagen::generate(&datagen::GeneratorConfig {
        scale_factor: scale,
        seed: args.seed,
    });
    let workload = ops::designer_workload(&plain, args.workload.is_lookup());
    let config = client_config(args.workload, args.seed, server.addr());
    let (client, outcome) =
        MonomiClient::setup(&plain, &workload, DesignStrategy::Designer, &config)
            .unwrap_or_else(|e| panic!("client setup against {} failed: {e:?}", server.addr()));
    Deployment {
        setup_s: watch.seconds(),
        designer_s: outcome.setup_seconds,
        load_s: client.wire_totals().seconds,
        client,
        server,
        plain,
    }
}
