#![forbid(unsafe_code)]
//! # monomi-bench
//!
//! Benchmark harnesses that regenerate every table and figure of the MONOMI
//! paper's evaluation (§8), plus microbenchmarks for what the end-to-end
//! benchmark (`e2ebench/`) cannot isolate: crypto primitives, scan kernels,
//! index probes and thread scaling. Each figure/table is a separate bench
//! target (custom harness) that prints the same rows/series the paper
//! reports; see EXPERIMENTS.md for the paper-vs-measured record.

use monomi_core::{ClientConfig, NetworkModel};
use monomi_tpch::{datagen, queries, TpchQuery};

/// Shared experiment setup: generated data, workload, the modeled link, and
/// the client configuration used across figures.
pub struct Experiment {
    pub plain: monomi_engine::Database,
    pub workload: Vec<TpchQuery>,
    /// The paper's 10 Mbit/s link. The figure harnesses add it to measured
    /// time through [`monomi_tpch::with_modeled_link`] and say so where they
    /// print.
    pub network: NetworkModel,
    pub config: ClientConfig,
}

impl Experiment {
    /// Standard experiment environment. The scale factor is intentionally small
    /// so every figure regenerates in minutes on a laptop; override via the
    /// `MONOMI_SCALE` environment variable (e.g. `MONOMI_SCALE=0.01`).
    pub fn standard() -> Experiment {
        let scale = std::env::var("MONOMI_SCALE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.002);
        let plain = datagen::generate(&datagen::GeneratorConfig {
            scale_factor: scale,
            ..Default::default()
        });
        Experiment {
            plain,
            workload: queries::workload(),
            network: NetworkModel::paper_default(),
            config: monomi_tpch::fast_config(),
        }
    }
}

/// Reads a `usize` knob from the environment, falling back to `default` on
/// absence or parse failure. Shared by the bench harnesses' knob handling.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(default)
}

/// Prints a standard experiment header.
pub fn print_header(title: &str, paper_ref: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("(reproduces {paper_ref} of Tu et al., VLDB 2013)");
    println!("==============================================================");
}
