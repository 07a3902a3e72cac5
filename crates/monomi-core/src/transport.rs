//! The client's view of the untrusted server: every server interaction —
//! loading ciphertext tables, registering the public Paillier modulus,
//! executing the server half of a split plan — goes through
//! [`ServerTransport`] instead of touching a [`Database`] directly.
//!
//! Two implementations:
//!
//! * [`InProcessTransport`] — owns the encrypted `Database` and calls the
//!   engine directly. Zero-copy, zero wire bytes; this is the historical
//!   behavior and what single-process experiments use.
//! * [`TcpTransport`] — speaks `monomi-proto`'s framed protocol to a
//!   `monomi-server` over a blocking TCP socket, and *measures* the wire:
//!   every call counts the frame bytes it sent and received, and wire time is
//!   the round-trip wall-clock minus the server-reported execution seconds.
//!
//! The two are interchangeable by construction: the wire format round-trips
//! `Value`s exactly (variant and bit pattern), so a split plan executed over
//! TCP must return byte-identical results to the in-process path — the
//! transport-parity tests hold both implementations to that.
//!
//! ## Fault tolerance
//!
//! [`TcpTransport`] assumes the wire fails — the paper's deployment is a
//! long-running cloud service, where resets, stalls, and restarts are normal
//! operation. Every request runs under a deadline ([`TransportOptions`]);
//! failures are *classified*: a refused connect, a reset, or a timeout before
//! any response byte is **retryable**, while a typed server error, a corrupt
//! frame, or a response cut off midway is **not** (the transport cannot know
//! what the peer applied, and corrupt framing state is unrecoverable). On a
//! retryable failure the transport reconnects with seeded-jitter exponential
//! backoff and re-establishes the session idempotently: it re-runs the
//! `Hello` handshake (carrying a stable client id) and replays the session
//! journal — every `CreateTable`/`RegisterModulus`/`BulkLoad` this client has
//! issued, each tagged with its original request id, so a request the server
//! already applied is acknowledged rather than re-executed (a `BulkLoad` is
//! never double-loaded). The chaos suite (`tests/chaos.rs`) drives every
//! failure mode through this machinery and holds it to: byte-identical
//! results or a typed error — never a hang, panic, or silently partial
//! result.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::{CoreError, TransportErrorKind};
use monomi_engine::{Database, ExecOptions, ExecStats, ResultSet, TableSchema, Value};
use monomi_math::BigUint;
use monomi_obs::{unflatten_spans, wire_share, Span, Stopwatch, TraceId};
use monomi_proto::{
    frame, read_response, ErrorCode, ProtoErrorKind, Request, Response, WIRE_VERSION,
};
use monomi_sql::Query;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Rows per `BulkLoad` frame when shipping a database to a remote server.
/// Bounds peak frame size without drowning the load in round-trips.
const LOAD_CHUNK_ROWS: usize = 4096;

/// Default connect timeout.
pub const DEFAULT_CONNECT_TIMEOUT_MS: u64 = 5_000;
/// Default per-request deadline: the budget for one logical request including
/// every retry and reconnect it needed.
pub const DEFAULT_DEADLINE_MS: u64 = 30_000;
/// Default retry budget per request.
pub const DEFAULT_RETRIES: u32 = 3;
/// Default backoff base: retry `n` sleeps roughly `base * 2^(n-1)`, jittered
/// to 50–100% of nominal.
pub const DEFAULT_BACKOFF_MS: u64 = 50;
/// Ceiling on one backoff sleep regardless of the exponent.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Client-side resilience knobs for [`TcpTransport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransportOptions {
    /// How long one TCP connect attempt may take.
    pub connect_timeout: Duration,
    /// Deadline for one logical request, retries and reconnects included.
    /// The client never hangs: when this elapses, the call returns a typed
    /// [`TransportErrorKind::Timeout`].
    pub request_deadline: Duration,
    /// Retryable failures tolerated per request before giving up.
    pub max_retries: u32,
    /// Base of the exponential backoff between retries.
    pub backoff_base: Duration,
    /// Seed of the deterministic jitter stream (tests pin it; the default is
    /// fine for production — jitter only decorrelates retry storms).
    pub backoff_seed: u64,
}

impl Default for TransportOptions {
    fn default() -> Self {
        TransportOptions {
            connect_timeout: Duration::from_millis(DEFAULT_CONNECT_TIMEOUT_MS),
            request_deadline: Duration::from_millis(DEFAULT_DEADLINE_MS),
            max_retries: DEFAULT_RETRIES,
            backoff_base: Duration::from_millis(DEFAULT_BACKOFF_MS),
            backoff_seed: 0x6d6f_6e6f_6d69, // "monomi"
        }
    }
}

/// Measured wire traffic: what actually crossed the client/server boundary,
/// as opposed to the transfer times the planner predicts with the
/// [`NetworkModel`](crate::network::NetworkModel). All zeros for in-process
/// execution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WireMetrics {
    /// Wall-clock spent on the wire: round-trip time minus the
    /// server-reported execution time, clamped at zero.
    pub seconds: f64,
    /// Frame bytes written to the socket (requests).
    pub bytes_sent: u64,
    /// Frame bytes read from the socket (responses).
    pub bytes_received: u64,
    /// Request attempts beyond the first (a retry re-sends the request after
    /// a retryable failure; the request ids keep replays idempotent).
    pub retries: u64,
    /// Connections re-established after the initial connect (each replays
    /// the session journal through the Hello handshake).
    pub reconnects: u64,
}

impl WireMetrics {
    fn add(&mut self, other: &WireMetrics) {
        self.seconds += other.seconds;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.retries += other.retries;
        self.reconnects += other.reconnects;
    }
}

/// What one remote query execution produced: the (still encrypted) result
/// set, the server's deterministic work counters, the server-measured
/// execution wall seconds, and the measured wire traffic of this call.
#[derive(Clone, Debug)]
pub struct RemoteExecution {
    pub result: ResultSet,
    pub stats: ExecStats,
    /// Execution wall-clock as measured where the query ran (on the server
    /// for TCP, around the engine call for in-process).
    pub exec_seconds: f64,
    /// Wire traffic of this call (zeros in-process).
    pub wire: WireMetrics,
    /// The trace id this execution ran under, echoed back by the server
    /// ([`TraceId::ZERO`] for untraced calls).
    pub trace: TraceId,
    /// Per-operator server spans, present only when a non-zero trace id was
    /// sent. Timing metadata about ciphertext processing — never row values.
    pub spans: Vec<Span>,
}

/// Everything the trusted client is allowed to ask of the untrusted server.
///
/// Nothing in this interface carries plaintext or key material: schemas and
/// rows are the encryptor's output, queries are the planner's rewritten
/// server halves, and results come back as ciphertext for the client to
/// decrypt. Setup-time methods take `&mut self`; query-time methods take
/// `&self` so a transport can be shared behind the executor.
pub trait ServerTransport: Send {
    /// Short transport name for reports ("in-process" / "tcp").
    fn kind(&self) -> &'static str;

    /// Registers an encrypted table schema on the server, with the columns
    /// the design opts out of secondary-index builds.
    fn create_table(&mut self, schema: &TableSchema, unindexed: &[String])
        -> Result<(), CoreError>;

    /// Registers the public Paillier modulus `n²` the server needs for
    /// ciphertext addition.
    fn register_paillier_modulus(&mut self, n_squared: &BigUint) -> Result<(), CoreError>;

    /// Appends ciphertext rows to a table created by this client.
    fn bulk_load(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<(), CoreError>;

    /// Executes the server half of a split query.
    ///
    /// The default forwards to [`ServerTransport::execute_traced`] with
    /// [`TraceId::ZERO`], i.e. no tracing.
    fn execute(&self, query: &Query, opts: &ExecOptions) -> Result<RemoteExecution, CoreError> {
        self.execute_traced(query, opts, TraceId::ZERO)
    }

    /// Executes the server half of a split query under a trace id. A zero id
    /// means untraced: the server collects no spans and pays no timing
    /// overhead. A non-zero id is carried in the request frame, echoed in the
    /// response, and returns per-operator server spans in
    /// [`RemoteExecution::spans`].
    fn execute_traced(
        &self,
        query: &Query,
        opts: &ExecOptions,
        trace: TraceId,
    ) -> Result<RemoteExecution, CoreError>;

    /// Total bytes the server stores.
    fn server_size_bytes(&self) -> Result<u64, CoreError>;

    /// The server's Prometheus-text metrics dump, when this transport can ask
    /// for one. `None` for transports without a metrics endpoint (in-process
    /// execution has no server process to instrument).
    fn metrics_text(&self) -> Result<Option<String>, CoreError> {
        Ok(None)
    }

    /// Cumulative wire traffic over the life of this transport.
    fn wire_totals(&self) -> WireMetrics;

    /// The server database, when it lives in this process (tests and space
    /// accounting reach through this; a remote server returns `None`).
    fn in_process_database(&self) -> Option<&Database> {
        None
    }
}

impl std::fmt::Debug for dyn ServerTransport + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServerTransport({})", self.kind())
    }
}

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

/// The historical execution path: the encrypted database lives in the client
/// process and the engine is called directly. No serialization, no wire.
pub struct InProcessTransport {
    db: Database,
}

impl std::fmt::Debug for InProcessTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("InProcessTransport")
    }
}

impl InProcessTransport {
    /// Wraps an already encrypted database.
    pub fn new(db: Database) -> Self {
        InProcessTransport { db }
    }
}

impl ServerTransport for InProcessTransport {
    fn kind(&self) -> &'static str {
        "in-process"
    }

    fn create_table(
        &mut self,
        schema: &TableSchema,
        unindexed: &[String],
    ) -> Result<(), CoreError> {
        self.db
            .create_table_with(schema.clone(), unindexed.to_vec());
        Ok(())
    }

    fn register_paillier_modulus(&mut self, n_squared: &BigUint) -> Result<(), CoreError> {
        self.db.register_paillier_modulus(n_squared.clone());
        Ok(())
    }

    fn bulk_load(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<(), CoreError> {
        self.db
            .bulk_load(table, rows)
            .map_err(|e| CoreError::new(e.to_string()))
    }

    fn execute_traced(
        &self,
        query: &Query,
        opts: &ExecOptions,
        trace: TraceId,
    ) -> Result<RemoteExecution, CoreError> {
        let watch = Stopwatch::start();
        let (result, stats, spans) = self
            .db
            .execute(query, &[], opts, !trace.is_zero())
            .map_err(|e| CoreError::new(e.to_string()))?;
        Ok(RemoteExecution {
            result,
            stats,
            exec_seconds: watch.seconds(),
            wire: WireMetrics::default(),
            trace,
            spans,
        })
    }

    fn server_size_bytes(&self) -> Result<u64, CoreError> {
        Ok(self.db.total_size_bytes() as u64)
    }

    fn wire_totals(&self) -> WireMetrics {
        WireMetrics::default()
    }

    fn in_process_database(&self) -> Option<&Database> {
        Some(&self.db)
    }
}

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

/// A client id stable for the life of one transport and unique across
/// processes with overwhelming probability: the server keys table ownership
/// and its idempotency journal by it, so a reconnect regains both.
fn fresh_client_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut h = RandomState::new().build_hasher();
    h.write_u64(std::process::id() as u64);
    h.write_u64(COUNTER.fetch_add(1, Ordering::Relaxed));
    h.finish()
}

struct TcpInner {
    /// `None` between a failed attempt and the reconnect that replaces it.
    stream: Option<TcpStream>,
    totals: WireMetrics,
    /// Session-establishing requests in issue order, each carrying its
    /// original request id; replayed verbatim after every reconnect.
    journal: Vec<Request>,
    next_request_id: u64,
    /// Deterministic jitter stream for backoff sleeps.
    rng: StdRng,
}

/// One failed attempt, classified.
struct AttemptFail {
    kind: TransportErrorKind,
    retryable: bool,
    message: String,
    /// Frame bytes this attempt still moved before failing.
    bytes_sent: u64,
    bytes_received: u64,
}

impl AttemptFail {
    fn new(kind: TransportErrorKind, retryable: bool, message: impl Into<String>) -> Self {
        AttemptFail {
            kind,
            retryable,
            message: message.into(),
            bytes_sent: 0,
            bytes_received: 0,
        }
    }

    fn into_core(self) -> CoreError {
        CoreError::transport(self.kind, self.message)
    }
}

/// Classifies a socket-level error kind.
fn io_error_kind(e: &std::io::Error) -> TransportErrorKind {
    match e.kind() {
        std::io::ErrorKind::ConnectionRefused => TransportErrorKind::Refused,
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
            TransportErrorKind::Timeout
        }
        _ => TransportErrorKind::Disconnected,
    }
}

/// A reader that counts the response bytes seen so far and remembers the
/// kind of the last io error — both feed the retryable/non-retryable
/// classification (a timeout *before any response byte* is retryable; one
/// mid-response is not, because the transport cannot resynchronize framing).
struct CountingReader<'a> {
    inner: &'a TcpStream,
    seen: usize,
    last_io: Option<std::io::ErrorKind>,
}

impl Read for CountingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.inner.read(buf) {
            Ok(n) => {
                self.seen += n;
                Ok(n)
            }
            Err(e) => {
                self.last_io = Some(e.kind());
                Err(e)
            }
        }
    }
}

/// A connection to a `monomi-server`, speaking `monomi-proto` frames over
/// blocking TCP with deadlines, classified failures, bounded retries, and
/// idempotent session re-establishment (see the module docs). One
/// request/response in flight at a time (the split executor is sequential
/// per query); the mutex makes `&self` execution safe.
pub struct TcpTransport {
    addr: String,
    client_id: u64,
    opts: TransportOptions,
    inner: Mutex<TcpInner>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("addr", &self.addr)
            .field("client_id", &self.client_id)
            .finish()
    }
}

impl TcpTransport {
    /// Connects with the default [`TransportOptions`] and performs the
    /// version handshake.
    pub fn connect(addr: &str) -> Result<TcpTransport, CoreError> {
        Self::connect_with(addr, TransportOptions::default())
    }

    /// Connects with explicit options. The initial connect is a single
    /// attempt — a refused or mismatched server surfaces immediately as a
    /// typed error ([`TransportErrorKind::Refused`] / [`Timeout`] /
    /// [`HandshakeVersionMismatch`] / [`Server`]); the retry machinery only
    /// arms once a session existed.
    ///
    /// [`Timeout`]: TransportErrorKind::Timeout
    /// [`HandshakeVersionMismatch`]: TransportErrorKind::HandshakeVersionMismatch
    /// [`Server`]: TransportErrorKind::Server
    pub fn connect_with(addr: &str, opts: TransportOptions) -> Result<TcpTransport, CoreError> {
        let transport = TcpTransport {
            addr: addr.to_string(),
            client_id: fresh_client_id(),
            opts,
            inner: Mutex::new(TcpInner {
                stream: None,
                totals: WireMetrics::default(),
                journal: Vec::new(),
                next_request_id: 1,
                rng: StdRng::seed_from_u64(opts.backoff_seed),
            }),
        };
        {
            let mut inner = transport.inner.lock().unwrap_or_else(|e| e.into_inner());
            let deadline = Instant::now() + opts.request_deadline;
            let mut wire = WireMetrics::default();
            transport
                .establish(&mut inner, deadline, &mut wire)
                .map_err(|f| {
                    inner.totals.add(&wire);
                    f.into_core()
                })?;
            inner.totals.add(&wire);
        }
        Ok(transport)
    }

    /// The address this transport is connected to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The stable client id this transport presents in `Hello`.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    fn call(&self, req: &Request) -> Result<(Response, WireMetrics), CoreError> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        self.call_locked(&mut inner, req)
    }

    /// One logical request: attempt, classify, retry within the deadline and
    /// retry budget, reconnecting (with journal replay) as needed.
    fn call_locked(
        &self,
        inner: &mut TcpInner,
        req: &Request,
    ) -> Result<(Response, WireMetrics), CoreError> {
        let started = Instant::now();
        let deadline = started + self.opts.request_deadline;
        let mut wire = WireMetrics::default();
        let mut attempts: u32 = 0;
        loop {
            // Split the remaining deadline across the attempts still in the
            // budget: a stalled response then costs one slice, not the whole
            // deadline, leaving room to reconnect and retry.
            let slices = (self.opts.max_retries + 1).saturating_sub(attempts).max(1);
            let fail = match self.attempt_once(inner, req, deadline, slices, &mut wire) {
                Ok(resp) => {
                    wire.seconds = started.elapsed().as_secs_f64();
                    inner.totals.add(&wire);
                    return Ok((resp, wire));
                }
                Err(f) => f,
            };
            wire.bytes_sent += fail.bytes_sent;
            wire.bytes_received += fail.bytes_received;
            // The connection is in an unknown state past any failure.
            inner.stream = None;
            let out_of_budget = attempts >= self.opts.max_retries || Instant::now() >= deadline;
            if !fail.retryable || out_of_budget {
                wire.seconds = started.elapsed().as_secs_f64();
                inner.totals.add(&wire);
                return Err(fail.into_core());
            }
            attempts += 1;
            wire.retries += 1;
            backoff_sleep(&mut inner.rng, self.opts.backoff_base, attempts, deadline);
        }
    }

    /// One attempt of `req`: ensure a connection (reconnect + replay if
    /// needed), send, receive, classify.
    fn attempt_once(
        &self,
        inner: &mut TcpInner,
        req: &Request,
        deadline: Instant,
        slices: u32,
        wire: &mut WireMetrics,
    ) -> Result<Response, AttemptFail> {
        if inner.stream.is_none() {
            self.establish(inner, deadline, wire)?;
            wire.reconnects += 1;
        }
        let Some(stream) = inner.stream.as_ref() else {
            return Err(AttemptFail::new(
                TransportErrorKind::Disconnected,
                true,
                "no connection after establish",
            ));
        };
        let (resp, sent, received) = round_trip_raw(stream, req, deadline, slices)?;
        wire.bytes_sent += sent;
        wire.bytes_received += received;
        Ok(resp)
    }

    /// Dials, handshakes, and replays the session journal. On success the
    /// connection is installed in `inner.stream`; wire traffic of the
    /// handshake and replay is charged to `wire`.
    fn establish(
        &self,
        inner: &mut TcpInner,
        deadline: Instant,
        wire: &mut WireMetrics,
    ) -> Result<(), AttemptFail> {
        let stream = self.dial(deadline)?;
        let _ = stream.set_nodelay(true);

        let hello = Request::Hello {
            version: WIRE_VERSION,
            client_id: self.client_id,
        };
        let (resp, sent, received) = round_trip_raw(&stream, &hello, deadline, 1)?;
        wire.bytes_sent += sent;
        wire.bytes_received += received;
        match resp {
            Response::Hello { version } if version == WIRE_VERSION => {}
            Response::Hello { version } => {
                return Err(AttemptFail::new(
                    TransportErrorKind::HandshakeVersionMismatch,
                    false,
                    format!("server speaks wire version {version}, client speaks {WIRE_VERSION}"),
                ))
            }
            Response::Error { code, message } => {
                let kind = match code {
                    ErrorCode::VersionMismatch => TransportErrorKind::HandshakeVersionMismatch,
                    other => TransportErrorKind::Server(other),
                };
                return Err(AttemptFail::new(
                    kind,
                    false,
                    format!("server refused handshake ({code:?}): {message}"),
                ));
            }
            other => {
                return Err(AttemptFail::new(
                    TransportErrorKind::Corrupt,
                    false,
                    format!("unexpected handshake response: {other:?}"),
                ))
            }
        }

        // Idempotent session re-establishment: replay the journal in issue
        // order. The server acknowledges already-applied request ids without
        // re-executing them, so a replay after a mid-load reconnect restores
        // table ownership without double-loading a single row.
        for entry in &inner.journal {
            let (resp, sent, received) = round_trip_raw(&stream, entry, deadline, 1)?;
            wire.bytes_sent += sent;
            wire.bytes_received += received;
            match resp {
                Response::Ok => {}
                Response::Error { code, message } => {
                    return Err(AttemptFail::new(
                        TransportErrorKind::Server(code),
                        false,
                        format!("session replay rejected ({code:?}): {message}"),
                    ))
                }
                other => {
                    return Err(AttemptFail::new(
                        TransportErrorKind::Corrupt,
                        false,
                        format!("unexpected replay response: {other:?}"),
                    ))
                }
            }
        }
        inner.stream = Some(stream);
        Ok(())
    }

    /// One TCP connect attempt, bounded by the connect timeout and the
    /// request deadline (whichever is tighter).
    fn dial(&self, deadline: Instant) -> Result<TcpStream, AttemptFail> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(AttemptFail::new(
                TransportErrorKind::Timeout,
                false,
                format!("deadline elapsed before connecting to {}", self.addr),
            ));
        }
        let budget = remaining.min(self.opts.connect_timeout);
        let mut last: Option<std::io::Error> = None;
        let addrs = self.addr.to_socket_addrs().map_err(|e| {
            AttemptFail::new(
                TransportErrorKind::Disconnected,
                true,
                format!("cannot resolve {}: {e}", self.addr),
            )
        })?;
        for sock in addrs {
            match TcpStream::connect_timeout(&sock, budget) {
                Ok(stream) => return Ok(stream),
                Err(e) => last = Some(e),
            }
        }
        Err(match last {
            Some(e) => AttemptFail::new(
                io_error_kind(&e),
                true,
                format!("cannot connect to monomi-server {}: {e}", self.addr),
            ),
            None => AttemptFail::new(
                TransportErrorKind::Disconnected,
                true,
                format!("{} resolves to no address", self.addr),
            ),
        })
    }

    /// Issues a session-mutating request: assigns it the next request id,
    /// runs it through the retry machinery, and on success appends it to the
    /// replay journal.
    fn mutate(&mut self, make: impl FnOnce(u64) -> Request) -> Result<(), CoreError> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let id = inner.next_request_id;
        inner.next_request_id += 1;
        let req = make(id);
        let (resp, _) = self.call_locked(&mut inner, &req)?;
        expect_ok(resp)?;
        inner.journal.push(req);
        Ok(())
    }
}

/// Sends one request and reads one response on a bare stream, with socket
/// timeouts set from the remaining deadline. Failures come back classified.
fn round_trip_raw(
    stream: &TcpStream,
    req: &Request,
    deadline: Instant,
    slices: u32,
) -> Result<(Response, u64, u64), AttemptFail> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(AttemptFail::new(
            TransportErrorKind::Timeout,
            false,
            "request deadline elapsed",
        ));
    }
    // This attempt's slice of the remaining budget (see call_locked).
    let budget = (remaining / slices.max(1)).max(Duration::from_millis(1));
    let _ = stream.set_read_timeout(Some(budget));
    let _ = stream.set_write_timeout(Some(budget));

    let framed = frame(&req.encode());
    if let Err(e) = (&mut &*stream).write_all(&framed) {
        // Nothing of the response was seen; the server may or may not have
        // received the request — exactly what request-id idempotency covers.
        return Err(AttemptFail::new(
            io_error_kind(&e),
            true,
            format!("send failed: {e}"),
        ));
    }
    let sent = framed.len() as u64;

    let mut reader = CountingReader {
        inner: stream,
        seen: 0,
        last_io: None,
    };
    match read_response(&mut reader) {
        Ok((resp, received)) => Ok((resp, sent, received as u64)),
        Err(e) => {
            let received = reader.seen as u64;
            let mut fail = match e.kind {
                ProtoErrorKind::Io => {
                    let kind = match reader.last_io {
                        Some(std::io::ErrorKind::TimedOut)
                        | Some(std::io::ErrorKind::WouldBlock) => TransportErrorKind::Timeout,
                        _ => TransportErrorKind::Disconnected,
                    };
                    match (kind, received) {
                        // Timeout before any response byte: the request may
                        // still be running, but re-asking is safe.
                        (TransportErrorKind::Timeout, 0) => {
                            AttemptFail::new(kind, true, format!("no response: {e}"))
                        }
                        // Timeout mid-response: framing state is lost and the
                        // budget is evidently tight — surface it.
                        (TransportErrorKind::Timeout, _) => AttemptFail::new(
                            kind,
                            false,
                            format!("response stalled after {received} bytes: {e}"),
                        ),
                        // Reset/EOF, before or during the response: the
                        // connection is gone; reconnect and replay.
                        _ => AttemptFail::new(
                            kind,
                            true,
                            format!("connection lost after {received} response bytes: {e}"),
                        ),
                    }
                }
                ProtoErrorKind::VersionMismatch => AttemptFail::new(
                    TransportErrorKind::HandshakeVersionMismatch,
                    false,
                    e.to_string(),
                ),
                // Bad magic, checksum mismatch, truncation, oversize,
                // malformed payload: mid-response corruption, never retried.
                _ => AttemptFail::new(TransportErrorKind::Corrupt, false, e.to_string()),
            };
            fail.bytes_sent = sent;
            fail.bytes_received = received;
            Err(fail)
        }
    }
}

/// Sleeps the `attempt`-th backoff: exponential in the attempt number,
/// jittered deterministically to 50–100% of nominal, capped, and never past
/// the deadline.
fn backoff_sleep(rng: &mut StdRng, base: Duration, attempt: u32, deadline: Instant) {
    let exp = attempt.saturating_sub(1).min(16);
    let nominal = base
        .saturating_mul(1u32 << exp)
        .min(BACKOFF_CAP)
        .max(Duration::from_millis(1));
    let nanos = nominal.as_nanos() as u64;
    let jittered = Duration::from_nanos(nanos / 2 + rng.next_u64() % (nanos / 2 + 1));
    let remaining = deadline.saturating_duration_since(Instant::now());
    let sleep = jittered.min(remaining);
    if !sleep.is_zero() {
        std::thread::sleep(sleep);
    }
}

fn unexpected(resp: &Response) -> CoreError {
    match resp {
        Response::Error { code, message } => CoreError::transport(
            TransportErrorKind::Server(*code),
            format!("server error ({code:?}): {message}"),
        ),
        other => CoreError::new(format!("unexpected server response: {other:?}")),
    }
}

/// Maps a response that should be a bare `Ok` to `Result<(), CoreError>`.
fn expect_ok(resp: Response) -> Result<(), CoreError> {
    match resp {
        Response::Ok => Ok(()),
        other => Err(unexpected(&other)),
    }
}

impl ServerTransport for TcpTransport {
    fn kind(&self) -> &'static str {
        "tcp"
    }

    fn create_table(
        &mut self,
        schema: &TableSchema,
        unindexed: &[String],
    ) -> Result<(), CoreError> {
        let name = schema.name.clone();
        let columns: Vec<_> = schema
            .columns
            .iter()
            .map(|c| (c.name.clone(), c.ty))
            .collect();
        let unindexed = unindexed.to_vec();
        self.mutate(move |request_id| Request::CreateTable {
            request_id,
            name,
            columns,
            unindexed,
        })
    }

    fn register_paillier_modulus(&mut self, n_squared: &BigUint) -> Result<(), CoreError> {
        let n_squared_be = n_squared.to_bytes_be();
        self.mutate(move |request_id| Request::RegisterModulus {
            request_id,
            n_squared_be,
        })
    }

    fn bulk_load(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<(), CoreError> {
        // Chunked so a large ciphertext load never materializes as one giant
        // frame (MAX_PAYLOAD) on either side. Each chunk carries its own
        // request id, so a retry replays exactly the chunks whose
        // acknowledgement was lost — and the server applies none of them
        // twice.
        if rows.is_empty() {
            return Ok(());
        }
        let mut rows = rows;
        while !rows.is_empty() {
            let rest = rows.split_off(rows.len().min(LOAD_CHUNK_ROWS));
            let table = table.to_string();
            self.mutate(move |request_id| Request::BulkLoad {
                request_id,
                table,
                rows,
            })?;
            rows = rest;
        }
        Ok(())
    }

    fn execute_traced(
        &self,
        query: &Query,
        opts: &ExecOptions,
        trace: TraceId,
    ) -> Result<RemoteExecution, CoreError> {
        // The SQL dialect round-trips through Display/parse (the sql crate's
        // tests hold that invariant), so the server re-parses exactly this
        // query. Execute is read-only, hence retry-safe without an id — and
        // the trace id rides the request frame, so a retried request reports
        // under the same trace.
        let (resp, wire) = self.call(&Request::Execute {
            sql: query.to_string(),
            threads: opts.threads.min(u32::MAX as usize) as u32,
            morsel_rows: opts.morsel_rows.min(u32::MAX as usize) as u32,
            trace,
        })?;
        match resp {
            Response::Result {
                result,
                stats,
                exec_seconds,
                trace,
                spans,
            } => Ok(RemoteExecution {
                result,
                stats,
                exec_seconds,
                wire: WireMetrics {
                    // Time on the wire is what the round trip cost beyond
                    // the server's own execution.
                    seconds: wire_share(wire.seconds, exec_seconds),
                    ..wire
                },
                trace,
                spans: unflatten_spans(&spans),
            }),
            other => Err(unexpected(&other)),
        }
    }

    fn metrics_text(&self) -> Result<Option<String>, CoreError> {
        let (resp, _) = self.call(&Request::Metrics)?;
        match resp {
            Response::Metrics { text } => Ok(Some(text)),
            other => Err(unexpected(&other)),
        }
    }

    fn server_size_bytes(&self) -> Result<u64, CoreError> {
        let (resp, _) = self.call(&Request::ServerSize)?;
        match resp {
            Response::Size { bytes } => Ok(bytes),
            other => Err(unexpected(&other)),
        }
    }

    fn wire_totals(&self) -> WireMetrics {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).totals
    }
}

/// Ships an encrypted database to a server through a transport: every table
/// schema, the Paillier modulus, then the rows. Used at client setup when a
/// remote server address is configured; the in-process transport never needs
/// it (it is handed the database whole).
pub fn load_database(transport: &mut dyn ServerTransport, db: &Database) -> Result<(), CoreError> {
    load_database_with(transport, db, &std::collections::BTreeMap::new())
}

/// [`load_database`] with per-table index opt-out lists (keyed by table
/// name), as produced by `PhysicalDesign::unindexed_by_table`.
pub fn load_database_with(
    transport: &mut dyn ServerTransport,
    db: &Database,
    unindexed: &std::collections::BTreeMap<String, Vec<String>>,
) -> Result<(), CoreError> {
    for schema in db.catalog().tables() {
        let opt_outs = unindexed
            .get(&schema.name.to_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        transport.create_table(schema, opt_outs)?;
    }
    if let Some(n_squared) = db.paillier_modulus() {
        transport.register_paillier_modulus(n_squared)?;
    }
    for name in db.table_names() {
        let table = db
            .table(&name)
            .ok_or_else(|| CoreError::new(format!("listed table {name} missing")))?;
        transport.bulk_load(&name, table.rows())?;
    }
    Ok(())
}

/// Typed server error codes, re-exported so callers matching on transport
/// failures need not depend on `monomi-proto` directly.
pub use monomi_proto::ErrorCode as ServerErrorCode;
