#![forbid(unsafe_code)]
//! # monomi-engine
//!
//! A columnar analytical database engine: the stand-in for the
//! "unmodified DBMS (Postgres)" that MONOMI (Tu et al., VLDB 2013) uses as its
//! untrusted server.
//!
//! The engine provides exactly the contract MONOMI needs from the server:
//!
//! * SQL execution over stored tables ([`Database::execute_sql`]) — the tables
//!   may hold plaintext (for the baseline) or ciphertexts (for MONOMI), the
//!   engine does not care;
//! * cryptographic UDFs for encrypted processing: `paillier_sum` (homomorphic
//!   aggregation), `group_concat` (fetching whole groups for client-side
//!   aggregation), `search_match` (encrypted keyword LIKE);
//! * EXPLAIN-style cost estimates ([`Database::estimate`]), which the MONOMI
//!   planner uses to compare candidate server queries;
//! * byte-accurate storage accounting ([`Database::total_size_bytes`]) for the
//!   space-overhead experiments.
//!
//! ```
//! use monomi_engine::{Database, TableSchema, ColumnDef, ColumnType, Value};
//!
//! let mut db = Database::new();
//! db.create_table(TableSchema::new("t", vec![
//!     ColumnDef::new("id", ColumnType::Int),
//!     ColumnDef::new("v", ColumnType::Int),
//! ]));
//! db.insert("t", vec![Value::Int(1), Value::Int(10)]).unwrap();
//! db.insert("t", vec![Value::Int(2), Value::Int(32)]).unwrap();
//! let (rs, _) = db.execute_sql("SELECT SUM(v) FROM t", &[]).unwrap();
//! assert_eq!(rs.rows[0][0], Value::Int(42));
//! ```

pub mod bound;
pub mod database;
pub mod exec;
pub mod expr;
pub mod ops;
pub mod schema;
pub mod stats;
pub mod storage;
pub mod value;

pub use bound::BoundExpr;
pub use database::{Database, PaillierServerCtx, STORAGE_ENV};
pub use exec::{subquery_runs, ExecStats, ResultSet};
pub use expr::{
    apply_predicate, compile_predicate, decode_hex, encode_hex, zone_may_match, ColumnarPredicate,
    EvalContext, RowSchema, SubqueryResult,
};
pub use ops::{ExecOptions, Morsel, DEFAULT_MORSEL_ROWS};
pub use schema::{Catalog, ColumnDef, ColumnType, TableSchema};
pub use stats::{QueryEstimate, TableStats};
pub use storage::{ColumnBatch, SelectionVector, StagedLoad, Table};
pub use value::{date, Value};

/// Error type for all engine operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineError {
    /// Human-readable description.
    pub message: String,
}

impl EngineError {
    /// Creates an error from anything stringifiable.
    pub fn new(message: impl Into<String>) -> Self {
        EngineError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "engine error: {}", self.message)
    }
}

impl std::error::Error for EngineError {}

impl From<String> for EngineError {
    fn from(message: String) -> Self {
        EngineError { message }
    }
}
