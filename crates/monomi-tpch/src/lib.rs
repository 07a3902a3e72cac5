#![forbid(unsafe_code)]
//! # monomi-tpch
//!
//! The evaluation workload for the MONOMI reproduction: a deterministic
//! TPC-H-style data generator ([`datagen`]), the adapted TPC-H query set
//! ([`queries`]), and the systems the paper compares against
//! ([`baselines`]): Plaintext, CryptDB+Client, Execution-Greedy, and MONOMI.
//!
//! ```no_run
//! use monomi_tpch::{datagen, queries, baselines};
//! use monomi_core::ClientConfig;
//!
//! let plain = datagen::generate(&datagen::GeneratorConfig::default());
//! let workload = queries::workload();
//! let monomi = baselines::build_system(
//!     baselines::SystemKind::Monomi, &plain, &workload, &ClientConfig::default()).unwrap();
//! let run = monomi.run(&plain, &workload[0]).unwrap();
//! println!("Q{} took {:.3}s", workload[0].number, run.timings.total_seconds());
//! ```

pub mod baselines;
pub mod datagen;
pub mod queries;
pub mod schema;

pub use baselines::{
    build_system, run_plaintext, run_query, PlanMode, QueryRun, SystemKind, SystemSetup,
};
pub use datagen::{generate, GeneratorConfig};
pub use queries::{query, workload, TpchQuery};

/// A small client configuration for tests and examples: 256-bit Paillier keys,
/// no startup profiling, S = 2 space budget. The `paper` bench target uses
/// the paper's 1024-bit keys instead.
pub fn fast_config() -> monomi_core::ClientConfig {
    monomi_core::ClientConfig {
        paillier_bits: 256,
        space_budget: Some(2.0),
        skip_profiling: true,
        ..Default::default()
    }
}
