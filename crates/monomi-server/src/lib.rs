#![forbid(unsafe_code)]
//! # monomi-server
//!
//! The untrusted half of MONOMI's deployment model: a standalone server that
//! stores ciphertext tables and executes the server half of split queries.
//! It holds no keys and can decrypt nothing — every table, every value, and
//! every query it sees has already been transformed by the trusted client
//! (`monomi-lint`'s trust-boundary rule enforces that no key-material type or
//! `decrypt*` identifier appears in this crate).
//!
//! The shape follows the paper's Postgres-backed server, scaled to this
//! reproduction:
//!
//! * a **blocking TCP accept loop** with one thread per connection — std
//!   only, no async runtime. Intra-query parallelism belongs to the engine's
//!   morsel scheduler, so a connection thread is almost always parked in
//!   `read` and a thread per session is the honest cost model;
//! * a **connection limit** ([`ServerOptions::max_conns`]) as primitive
//!   admission control: connection number `max_conns + 1` is greeted with a
//!   typed [`ErrorCode::Busy`] and closed, rather than queued into oblivion;
//! * **per-connection timeouts** ([`CONN_TIMEOUT`]): a connection may sit
//!   idle for at most the timeout, and once the first byte of a frame
//!   arrives the *whole frame* must arrive within the timeout — so a
//!   half-open or slowloris client cannot pin a connection thread (and with
//!   it an admission slot) indefinitely;
//! * a **per-client schema registry**: tables are owned by the client that
//!   created them (clients identify themselves with a stable id in `Hello`,
//!   so a reconnect regains ownership); other clients can query them (shared
//!   analytics is the point) but cannot load into or redefine them.
//!   Ownership claims are released when the owner's last connection ends;
//! * an **idempotency journal**: `CreateTable`/`RegisterModulus`/`BulkLoad`
//!   carry request ids, and the server remembers which ids each client has
//!   applied. A replayed request — the client retried because the connection
//!   died before the acknowledgement arrived — is acknowledged without being
//!   re-executed, so a `BulkLoad` is never double-applied — not even when
//!   the replay arrives while the original is still loading: it waits for
//!   the original, then is acknowledged;
//! * **graceful drain**: shutdown stops the accept loop, lets in-flight
//!   requests finish and their responses flush (no mid-frame cuts), and
//!   answers subsequent requests with a typed [`ErrorCode::ShuttingDown`];
//! * one shared [`Database`] — `MONOMI_STORAGE` decides whether its tables
//!   get a segment store, exactly as for in-process execution. Queries and
//!   bulk loads into store-backed tables share its lock, so a load never
//!   blocks a lookup; only `CreateTable` and `RegisterModulus` (and a load
//!   into a table without a store, for its append) take it exclusively.
//!
//! Every message crossing the wire uses `monomi-proto`'s CRC-64 framed
//! protocol; a connection must open with a `Hello` carrying a matching
//! [`WIRE_VERSION`] before anything else is accepted.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use monomi_engine::{ColumnDef, Database, ExecOptions, TableSchema, Value};
use monomi_math::BigUint;
use monomi_obs::{flatten_spans, slow_query_json, ServerMetrics};
use monomi_proto::{
    read_request, write_response, ErrorCode, ProtoError, ProtoErrorKind, Request, Response,
    WIRE_VERSION,
};
use monomi_sql::parse_query;
use parking_lot::{Mutex, RwLock};

/// Default listen address.
pub const DEFAULT_LISTEN: &str = "127.0.0.1:7433";

/// Default connection limit.
pub const DEFAULT_MAX_CONNS: usize = 64;

/// Per-connection read/write budget: the longest a connection may sit idle
/// between frames, and the longest one frame may take to arrive once its
/// first byte has been read.
pub const CONN_TIMEOUT: Duration = Duration::from_secs(30);

/// Most worker threads one query may engage, whatever thread count its
/// request frame asks for: the engine starts one OS thread per worker.
pub const MAX_QUERY_THREADS: usize = 256;

/// Disconnected clients whose idempotency journal is retained, at most. The
/// journal lets a client that reconnects *after* its last connection dropped
/// replay its session without double-applying anything; beyond this many
/// remembered clients, the longest-disconnected journals are evicted.
const MAX_CLIENT_JOURNALS: usize = 128;

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Connections admitted concurrently; the next one is refused with
    /// [`ErrorCode::Busy`].
    pub max_conns: usize,
    /// When set, the Prometheus-text metrics dump is written to this path as
    /// the accept loop exits (graceful shutdown or drain).
    pub metrics_dump: Option<PathBuf>,
    /// Slow-query threshold: a query whose server-side execution takes at
    /// least this many milliseconds logs one structured JSON line (trace id,
    /// latency, rows — never SQL text) to stderr.
    pub slow_query_ms: Option<u64>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            max_conns: DEFAULT_MAX_CONNS,
            metrics_dump: None,
            slow_query_ms: None,
        }
    }
}

/// What the server remembers about one client id.
struct ClientState {
    /// Live connections presenting this client id.
    conns: usize,
    /// Request ids this client has successfully applied (`CreateTable`,
    /// `RegisterModulus`, `BulkLoad`). Survives disconnects so replays after
    /// a reconnect are acknowledged instead of re-executed. Its lock is held
    /// from the replay check through the apply to the record (see
    /// [`journaled`]).
    journal: Arc<Mutex<BTreeSet<u64>>>,
    /// Monotonic tick of the last activity, for journal eviction.
    last_seen: u64,
}

/// State shared by the accept loop and every connection thread.
///
/// Which lock each request takes on `db`:
///
/// * `Execute` and `ServerSize` take the shared lock;
/// * `BulkLoad` takes the shared lock too ([`Database::stage_load`] encodes,
///   writes and commits the segments beside running queries). It takes the
///   exclusive lock afterwards only for a table with a tail to append to —
///   one without a segment store — and then only for the append
///   ([`Database::apply_load`]);
/// * `CreateTable` and `RegisterModulus` take the exclusive lock: they edit
///   the table map and the aggregation context that statements read, and a
///   replaced table's files may be deleted only while no statement runs.
///
/// A statement pins one catalog version when it starts, so a load that
/// commits mid-statement is invisible to it, and visible whole to the next.
struct Shared {
    db: RwLock<Database>,
    /// Table name → owning client id. Entries disappear when the owner's
    /// last connection ends; the tables themselves stay.
    owners: Mutex<BTreeMap<String, u64>>,
    /// Per-client connection counts and idempotency journals.
    clients: Mutex<BTreeMap<u64, ClientState>>,
    active: AtomicUsize,
    tick: AtomicU64,
    shutdown: AtomicBool,
    opts: ServerOptions,
    metrics: ServerMetrics,
}

impl Shared {
    /// Registers one more live connection for `client_id`.
    fn client_connected(&self, client_id: u64) {
        self.metrics.sessions_total.inc();
        self.metrics.active_sessions.inc();
        let tick = self.tick.fetch_add(1, Ordering::SeqCst);
        let mut clients = self.clients.lock();
        let state = Self::client_entry(&mut clients, client_id, tick);
        state.conns += 1;
    }

    /// The state of `client_id`, created on first sight, marked active at
    /// `tick`.
    fn client_entry(
        clients: &mut BTreeMap<u64, ClientState>,
        client_id: u64,
        tick: u64,
    ) -> &mut ClientState {
        let state = clients.entry(client_id).or_insert_with(|| ClientState {
            conns: 0,
            journal: Arc::default(),
            last_seen: tick,
        });
        state.last_seen = tick;
        state
    }

    /// Unregisters a connection; when it was the client's last, releases the
    /// client's table ownership and bounds the retained journals.
    fn client_disconnected(&self, client_id: u64) {
        self.metrics.active_sessions.dec();
        let mut clients = self.clients.lock();
        let last_gone = match clients.get_mut(&client_id) {
            Some(state) => {
                state.conns = state.conns.saturating_sub(1);
                state.conns == 0
            }
            None => false,
        };
        if last_gone {
            self.owners
                .lock()
                .retain(|_, &mut owner| owner != client_id);
        }
        self.evict_journals(&mut clients);
    }

    /// Bounds the retained idempotency journals (extracted so
    /// `client_disconnected` stays readable).
    fn evict_journals(&self, clients: &mut BTreeMap<u64, ClientState>) {
        // Bound the journal table: evict the longest-disconnected clients
        // first (never one with live connections).
        while clients.len() > MAX_CLIENT_JOURNALS {
            let oldest = clients
                .iter()
                .filter(|(_, s)| s.conns == 0)
                .min_by_key(|(_, s)| s.last_seen)
                .map(|(&id, _)| id);
            match oldest {
                Some(id) => {
                    clients.remove(&id);
                }
                None => break,
            }
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .finish()
    }
}

impl Server {
    /// Binds a listener and wraps a fresh [`Database`] (backend selected by
    /// `MONOMI_STORAGE`, exactly like in-process execution).
    pub fn bind(addr: impl ToSocketAddrs, opts: ServerOptions) -> io::Result<Server> {
        Server::bind_with_db(addr, opts, Database::new())
    }

    /// Binds a listener over a caller-supplied database (tests pre-load one).
    pub fn bind_with_db(
        addr: impl ToSocketAddrs,
        opts: ServerOptions,
        db: Database,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                db: RwLock::new(db),
                owners: Mutex::new(BTreeMap::new()),
                clients: Mutex::new(BTreeMap::new()),
                active: AtomicUsize::new(0),
                tick: AtomicU64::new(1),
                shutdown: AtomicBool::new(false),
                opts,
                metrics: ServerMetrics::default(),
            }),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop on the calling thread until shut down via a
    /// [`ServerHandle`] (or forever, for the binary).
    pub fn run(self) {
        for conn in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            // Admission control: reserve a slot before spawning; refuse with
            // a typed Busy once the limit is reached.
            let shared = Arc::clone(&self.shared);
            if shared.active.fetch_add(1, Ordering::SeqCst) >= shared.opts.max_conns {
                shared.active.fetch_sub(1, Ordering::SeqCst);
                shared.metrics.busy_rejections_total.inc();
                let mut stream = stream;
                let _ = stream.set_write_timeout(Some(CONN_TIMEOUT));
                let _ = write_response(
                    &mut stream,
                    &Response::error(ErrorCode::Busy, "connection limit reached"),
                );
                continue;
            }
            std::thread::spawn(move || {
                // Released on unwind too: a panicking connection thread must
                // not keep its admission slot.
                let _slot = ReleaseOnDrop(|| {
                    shared.active.fetch_sub(1, Ordering::SeqCst);
                });
                let _ = serve_connection(&shared, stream);
            });
        }
        // Graceful exit: persist the metrics dump where asked. In-flight
        // connection threads may still bump counters while draining, so this
        // is a lower bound; `drain` before shutdown makes it exact.
        if let Some(path) = &self.shared.opts.metrics_dump {
            let _ = std::fs::write(path, self.shared.metrics.render_prometheus());
        }
    }

    /// Runs the accept loop on a background thread, returning a handle that
    /// shuts the server down on drop. This is what the parity tests use.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            shared,
            thread: Some(thread),
        })
    }
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ServerHandle {
    /// Address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently admitted (live connection threads).
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// The server's metrics catalog (what the `Metrics` wire request and the
    /// `MONOMI_METRICS_DUMP` file render).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Tables currently claimed by some live client.
    pub fn owned_tables(&self) -> usize {
        self.shared.owners.lock().len()
    }

    /// Begins a graceful drain: stop accepting, let in-flight requests
    /// complete and their responses flush, answer subsequent requests with a
    /// typed [`ErrorCode::ShuttingDown`]. Returns `true` once every
    /// connection has ended, `false` if `timeout` elapsed first (stragglers
    /// are then cut by [`shutdown`](Self::shutdown) / drop as before).
    pub fn drain(&self, timeout: Duration) -> bool {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept call so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        let deadline = Instant::now() + timeout;
        while self.shared.active.load(Ordering::SeqCst) > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Stops the accept loop and joins its thread. Connection threads exit
    /// when their clients hang up or their per-connection timeout fires.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A [`Read`] over a connection that enforces [`CONN_TIMEOUT`]: an idle wait
/// for the next frame is bounded by it, and once the first byte of a frame
/// has been read the *rest of that frame* must arrive before it elapses (call [`start_frame`](Self::start_frame) at each frame
/// boundary). This is the slowloris bound: trickling one byte per
/// almost-timeout no longer holds the connection open indefinitely.
struct TimedConn<'a> {
    stream: &'a TcpStream,
    deadline: Option<Instant>,
}

impl<'a> TimedConn<'a> {
    fn new(stream: &'a TcpStream) -> Self {
        TimedConn {
            stream,
            deadline: None,
        }
    }

    /// Resets the frame clock: the next read is an idle wait again.
    fn start_frame(&mut self) {
        self.deadline = None;
    }
}

impl Read for TimedConn<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let remaining = match self.deadline {
            None => CONN_TIMEOUT,
            Some(d) => d.saturating_duration_since(Instant::now()),
        };
        if remaining.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "per-connection frame budget exhausted",
            ));
        }
        self.stream.set_read_timeout(Some(remaining))?;
        let n = self.stream.read(buf)?;
        if self.deadline.is_none() && n > 0 {
            self.deadline = Some(Instant::now() + CONN_TIMEOUT);
        }
        Ok(n)
    }
}

/// One connection: Hello handshake (which identifies the client), then a
/// request/response loop until the client disconnects, the per-connection
/// budget fires, or the transport breaks.
fn serve_connection(shared: &Shared, stream: TcpStream) -> Result<(), ProtoError> {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(CONN_TIMEOUT));
    let mut reader = TimedConn::new(&stream);
    let mut writer = &stream;

    // The first message must be a version handshake carrying the client id.
    let client_id = match read_request(&mut reader) {
        Ok((Request::Hello { version, client_id }, _)) if version == WIRE_VERSION => {
            write_response(
                &mut writer,
                &Response::Hello {
                    version: WIRE_VERSION,
                },
            )?;
            client_id
        }
        Ok((Request::Hello { version, .. }, _)) => {
            write_response(
                &mut writer,
                &Response::error(
                    ErrorCode::VersionMismatch,
                    format!("client speaks v{version}, server speaks v{WIRE_VERSION}"),
                ),
            )?;
            return Ok(());
        }
        Ok(_) => {
            write_response(
                &mut writer,
                &Response::error(ErrorCode::BadRequest, "expected Hello first"),
            )?;
            return Ok(());
        }
        Err(e) if e.kind == ProtoErrorKind::VersionMismatch => {
            // Frame-level version mismatch: our reply frame may be
            // undecodable to the peer, but a typed refusal beats silence.
            write_response(
                &mut writer,
                &Response::error(ErrorCode::VersionMismatch, e.message),
            )?;
            return Ok(());
        }
        Err(e) => return Err(e),
    };

    shared.client_connected(client_id);
    let _session = ReleaseOnDrop(|| shared.client_disconnected(client_id));
    session_loop(shared, &stream, client_id)
}

/// Runs its closure when dropped, including while a panic unwinds.
struct ReleaseOnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for ReleaseOnDrop<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}

/// The post-handshake request/response loop.
fn session_loop(shared: &Shared, stream: &TcpStream, client_id: u64) -> Result<(), ProtoError> {
    let mut reader = TimedConn::new(stream);
    let mut writer = stream;
    loop {
        reader.start_frame();
        let request = match read_request(&mut reader) {
            Ok((req, _)) => req,
            // Clean disconnect, idle/frame timeout, or a broken transport
            // either way: done. The timeout is what keeps a half-open client
            // from pinning this thread (and its admission slot) forever.
            Err(e) if e.kind == ProtoErrorKind::Io => return Ok(()),
            // Corrupt frame: tell the peer and drop the connection — framing
            // state past a corrupt frame is unrecoverable.
            Err(e) => {
                let _ = write_response(
                    &mut writer,
                    &Response::error(ErrorCode::BadRequest, e.to_string()),
                );
                return Err(e);
            }
        };
        // Graceful drain: requests that arrive after shutdown began get a
        // typed refusal — a complete, well-formed frame, never a mid-frame
        // cut. (A request already being handled below finishes normally and
        // its response is fully written before this check is reached again.)
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = write_response(
                &mut writer,
                &Response::error(ErrorCode::ShuttingDown, "server is draining"),
            );
            return Ok(());
        }
        let response = handle_request(shared, client_id, request);
        write_response(&mut writer, &response)?;
    }
}

/// Runs a journaled request at most once per `(client_id, request_id)`:
/// `apply` runs unless the id was applied before, and a `Response::Ok` from
/// it records the id. Check, apply and record happen under the client's
/// journal lock, so a replay that arrives while the original is still
/// applying — the client timed out mid-load and resent the request over a
/// new connection — waits for it and is then answered by `replay` instead
/// of applying twice.
fn journaled(
    shared: &Shared,
    client_id: u64,
    request_id: u64,
    replay: impl FnOnce() -> Response,
    apply: impl FnOnce() -> Response,
) -> Response {
    let tick = shared.tick.fetch_add(1, Ordering::SeqCst);
    let journal = {
        let mut clients = shared.clients.lock();
        Arc::clone(&Shared::client_entry(&mut clients, client_id, tick).journal)
    };
    let mut applied = journal.lock();
    if applied.contains(&request_id) {
        // The server-side face of a client retry: the request landed before
        // but its acknowledgement did not.
        shared.metrics.journal_replays_total.inc();
        return replay();
    }
    let response = apply();
    if matches!(response, Response::Ok) {
        applied.insert(request_id);
    }
    response
}

/// Bulk-loads `rows` into `table`: staged under the shared lock, and applied
/// under the exclusive one only when the stage left rows for the tail.
fn bulk_load(db: &RwLock<Database>, table: &str, rows: Vec<Vec<Value>>) -> Response {
    // Bound first: the shared guard must be gone before `write` below.
    let staged = db.read().stage_load(table, rows);
    let loaded = match staged {
        Ok(Some(staged)) => db.write().apply_load(staged),
        Ok(None) => Ok(()),
        Err(e) => Err(e),
    };
    match loaded {
        Ok(()) => Response::Ok,
        Err(e) => Response::error(ErrorCode::Exec, e.to_string()),
    }
}

/// Executes one request against the shared state. Pure with respect to the
/// transport: all socket handling lives in [`serve_connection`].
fn handle_request(shared: &Shared, client_id: u64, request: Request) -> Response {
    match request {
        Request::Hello { version, .. } if version == WIRE_VERSION => Response::Hello {
            version: WIRE_VERSION,
        },
        Request::Hello { version, .. } => Response::error(
            ErrorCode::VersionMismatch,
            format!("client speaks v{version}, server speaks v{WIRE_VERSION}"),
        ),
        Request::CreateTable {
            request_id,
            name,
            columns,
            unindexed,
        } => journaled(
            shared,
            client_id,
            request_id,
            || {
                // Replay after a reconnect: the table exists and this client
                // created it — re-claim ownership (it was released when the
                // client's last connection dropped) and acknowledge.
                shared.owners.lock().insert(name.clone(), client_id);
                Response::Ok
            },
            || {
                let mut owners = shared.owners.lock();
                let mut db = shared.db.write();
                if db.table(&name).is_some() {
                    return match owners.get(&name) {
                        Some(&owner) if owner == client_id => {
                            Response::error(ErrorCode::BadRequest, format!("table {name} exists"))
                        }
                        _ => Response::error(
                            ErrorCode::Ownership,
                            format!("table {name} belongs to another client"),
                        ),
                    };
                }
                let defs = columns
                    .into_iter()
                    .map(|(col, ty)| ColumnDef::new(col, ty))
                    .collect();
                db.create_table_with(TableSchema::new(name.clone(), defs), unindexed);
                owners.insert(name.clone(), client_id);
                Response::Ok
            },
        ),
        Request::RegisterModulus {
            request_id,
            n_squared_be,
        } => journaled(
            shared,
            client_id,
            request_id,
            || Response::Ok,
            || {
                if n_squared_be.is_empty() {
                    return Response::error(ErrorCode::BadRequest, "empty modulus");
                }
                shared
                    .db
                    .write()
                    .register_paillier_modulus(BigUint::from_bytes_be(&n_squared_be));
                Response::Ok
            },
        ),
        Request::BulkLoad {
            request_id,
            table,
            rows,
        } => journaled(
            shared,
            client_id,
            request_id,
            // The chunk landed before the connection died; acknowledging
            // without re-loading is what makes client retries safe.
            || Response::Ok,
            || {
                match shared.owners.lock().get(&table) {
                    Some(&owner) if owner == client_id => {}
                    Some(_) => {
                        return Response::error(
                            ErrorCode::Ownership,
                            format!("table {table} belongs to another client"),
                        )
                    }
                    None => {
                        return Response::error(
                            ErrorCode::BadRequest,
                            format!("table {table} was not created by any live client"),
                        )
                    }
                }
                bulk_load(&shared.db, &table, rows)
            },
        ),
        Request::Execute {
            sql,
            threads,
            morsel_rows,
            trace,
        } => {
            let m = &shared.metrics;
            m.queries_total.inc();
            let query = match parse_query(&sql) {
                Ok(q) => q,
                Err(e) => {
                    m.query_errors_total.inc();
                    return Response::error(ErrorCode::Sql, e.to_string());
                }
            };
            let opts = ExecOptions {
                threads: (threads as usize).clamp(1, MAX_QUERY_THREADS),
                morsel_rows: (morsel_rows as usize).max(1),
                ..ExecOptions::env_cached()
            };
            let started = Instant::now();
            // A zero trace id means "untraced": the executor collects no
            // spans and makes no clock calls.
            let outcome = shared
                .db
                .read()
                .execute(&query, &[], &opts, !trace.is_zero());
            match outcome {
                Ok((result, stats, spans)) => {
                    let exec_seconds = started.elapsed().as_secs_f64();
                    m.rows_scanned_total.add(stats.rows_scanned);
                    m.bytes_scanned_total.add(stats.bytes_scanned);
                    m.rows_returned_total.add(stats.result_rows);
                    m.segments_read_total.add(stats.segments_read);
                    m.segments_pruned_total.add(stats.segments_pruned);
                    m.index_probes_total.add(stats.index_probes);
                    m.query_seconds.observe(exec_seconds);
                    if let Some(threshold_ms) = shared.opts.slow_query_ms {
                        if exec_seconds * 1e3 >= threshold_ms as f64 {
                            // One structured line per offending query: trace
                            // id and timings only, never SQL text or values.
                            eprintln!(
                                "{}",
                                slow_query_json(
                                    trace,
                                    "server-execute",
                                    exec_seconds,
                                    stats.result_rows,
                                    threshold_ms,
                                )
                            );
                        }
                    }
                    Response::Result {
                        result,
                        stats,
                        exec_seconds,
                        trace,
                        spans: flatten_spans(&spans),
                    }
                }
                Err(e) => {
                    m.query_errors_total.inc();
                    Response::error(ErrorCode::Exec, e.to_string())
                }
            }
        }
        Request::Metrics => Response::Metrics {
            text: shared.metrics.render_prometheus(),
        },
        Request::ServerSize => Response::Size {
            bytes: shared.db.read().total_size_bytes() as u64,
        },
    }
}
