#![forbid(unsafe_code)]
//! # monomi
//!
//! Umbrella crate for the MONOMI reproduction (Tu, Kaashoek, Madden,
//! Zeldovich — *Processing Analytical Queries over Encrypted Data*, VLDB
//! 2013). It re-exports every subcrate under one roof and homes the
//! cross-crate integration tests (`tests/end_to_end.rs`) and the runnable
//! examples (`examples/*.rs`).
//!
//! Crate map, client side to server side:
//!
//! - [`math`] — big-integer / modular arithmetic substrate
//! - [`crypto`] — DET, OPE, RND, Paillier (plain and packed), SEARCH schemes
//! - [`sql`] — lexer, parser, and AST for the supported analytical subset
//! - [`store`] — persistent columnar segment store: encodings, zone maps,
//!   crash-safe catalog, segment cache (and the shared `Value` model)
//! - [`engine`] — columnar engine playing the untrusted server; a table is
//!   committed store segments plus an in-memory tail (`MONOMI_STORAGE=disk`
//!   gives `Database::new()` a store)
//! - [`core`] — the MONOMI client: designer, planner, split executor
//! - [`tpch`] — TPC-H schema, deterministic datagen, workload, baselines
//!
//! Quickstart:
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

pub use monomi_core as core;
pub use monomi_crypto as crypto;
pub use monomi_engine as engine;
pub use monomi_math as math;
pub use monomi_sql as sql;
pub use monomi_store as store;
pub use monomi_tpch as tpch;

/// The most common client-side entry points, re-exported flat.
pub mod prelude {
    pub use monomi_core::{ClientConfig, DesignStrategy, MonomiClient, NetworkModel};
    pub use monomi_engine::{Database, Value};
    pub use monomi_sql::parse_query;
}
