#![forbid(unsafe_code)]
//! # monomi-core
//!
//! A from-scratch Rust reproduction of **MONOMI** (Tu, Kaashoek, Madden,
//! Zeldovich — *Processing Analytical Queries over Encrypted Data*, VLDB 2013):
//! a system for executing analytical SQL workloads over an encrypted database
//! hosted on an untrusted server.
//!
//! The crate implements the paper's contributions:
//!
//! * **Split client/server execution** ([`plan`], [`localexec`]) — Algorithm 1:
//!   as much of each query as possible runs on the untrusted server over
//!   encrypted columns; the trusted client decrypts intermediate results and
//!   finishes the computation.
//! * **Optimization techniques** (§5): per-row precomputation, space-efficient
//!   encryption, grouped homomorphic addition, and conservative pre-filtering.
//! * **Designer** ([`designer`]) — chooses the physical design (which
//!   encryptions of which expressions to materialize), optionally under a
//!   space budget via an ILP solved by branch-and-bound.
//! * **Planner** ([`planner`], [`cost`]) — chooses the best split execution
//!   plan for each query using a cost model over server cost estimates,
//!   network transfer, and client decryption.
//! * **Client library** ([`client::MonomiClient`]) — the only component that
//!   holds decryption keys.
//!
//! ```no_run
//! use monomi_core::client::{ClientConfig, DesignStrategy, MonomiClient};
//! use monomi_engine::Database;
//! use monomi_sql::parse_query;
//!
//! # fn example(plain: Database) -> Result<(), monomi_core::CoreError> {
//! let workload = vec![parse_query("SELECT o_custkey, SUM(o_totalprice) FROM orders GROUP BY o_custkey").unwrap()];
//! let (client, outcome) = MonomiClient::setup(
//!     &plain, &workload, DesignStrategy::Designer, &ClientConfig::default())?;
//! println!("designer took {:.1}s", outcome.setup_seconds);
//! let (rows, timings) = client.execute(
//!     "SELECT o_custkey, SUM(o_totalprice) FROM orders GROUP BY o_custkey", &[])?;
//! println!("{} groups in {:.3}s", rows.len(), timings.total_seconds());
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod cost;
mod decrypt;
pub mod design;
pub mod designer;
pub mod localexec;
pub mod network;
pub mod plan;
pub mod planner;
pub mod rewrite;
pub mod schemes;
pub mod transport;

pub use client::{ClientConfig, DesignStrategy, MonomiClient};
pub use design::{ColumnCrypto, ColumnDesign, Encryptor, PhysicalDesign, TableDesign};
pub use designer::{DesignOutcome, Designer};
pub use localexec::{QueryTimings, SplitExecutor};
pub use network::NetworkModel;
pub use plan::{PlanOptions, SplitPlan};
pub use planner::{EncPair, EncUnit, Planner};
pub use schemes::{EncRequest, EncScheme};
pub use transport::{
    InProcessTransport, RemoteExecution, ServerErrorCode, ServerTransport, TcpTransport,
    TransportOptions, WireMetrics,
};

/// Observability vocabulary, re-exported so callers consuming traced results
/// need not depend on `monomi-obs` directly.
pub use monomi_obs::{Span, TraceId};

/// The class of a transport failure, attached to [`CoreError`] so callers and
/// tests can assert on *what kind* of failure occurred instead of matching
/// message strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportErrorKind {
    /// The server actively refused the TCP connection.
    Refused,
    /// A connect attempt or a request exceeded its deadline.
    Timeout,
    /// The connection dropped (reset, EOF, broken pipe) and reconnection
    /// within the retry budget did not succeed.
    Disconnected,
    /// Bytes arrived but were not a valid frame (bad magic, checksum
    /// mismatch, malformed payload) or the response was cut mid-frame.
    /// Never retried: the transport cannot know what the peer applied.
    Corrupt,
    /// Client and server speak different wire versions.
    HandshakeVersionMismatch,
    /// The server answered with a typed error response.
    Server(monomi_proto::ErrorCode),
}

/// Error type for MONOMI client-side operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoreError {
    /// Human-readable description.
    pub message: String,
    /// The transport failure class, when this error crossed the wire layer.
    pub transport: Option<TransportErrorKind>,
}

impl CoreError {
    /// Creates an error from anything stringifiable.
    pub fn new(message: impl Into<String>) -> Self {
        CoreError {
            message: message.into(),
            transport: None,
        }
    }

    /// Creates a typed transport error.
    pub fn transport(kind: TransportErrorKind, message: impl Into<String>) -> Self {
        CoreError {
            message: message.into(),
            transport: Some(kind),
        }
    }

    /// The transport failure class, if any.
    pub fn transport_kind(&self) -> Option<TransportErrorKind> {
        self.transport
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "monomi error: {}", self.message)
    }
}

impl std::error::Error for CoreError {}

impl From<monomi_engine::EngineError> for CoreError {
    fn from(e: monomi_engine::EngineError) -> Self {
        CoreError::new(e.to_string())
    }
}
