//! Fault-injection suite: under every injected fault the client must return
//! either the byte-identical fault-free result (the retry machinery absorbed
//! the fault) or a typed transport error — never a hang, a panic, or a
//! silently wrong answer.
//!
//! Faults are injected at two levels: a TCP chaos proxy (`ChaosProxy`) that
//! mangles real frames between client and server, and an in-process
//! transport wrapper (`FaultyTransport`) that fails calls at exact
//! positions. Both are driven by deterministic, seeded schedules so failures
//! reproduce exactly.

mod common;

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::Duration;

use monomi_core::{
    ClientConfig, DesignStrategy, MonomiClient, ServerErrorCode, ServerTransport, TcpTransport,
    TransportErrorKind, TransportOptions,
};
use monomi_engine::{ColumnDef, ColumnType, Database, ExecOptions, TableSchema, Value};
use monomi_faults::{
    schedule, CallFault, ChaosProxy, Direction, Fault, FaultPlan, FaultyTransport,
};
use monomi_server::{Server, ServerHandle, ServerOptions};
use monomi_sql::parse_query;
use monomi_tpch::{datagen, queries};

const CORPUS: [u32; 11] = [1, 3, 4, 5, 6, 10, 12, 14, 18, 19, 22];

/// Offset 13 is the second payload byte of any frame (the header is 12
/// bytes), so flipping it always lands inside the payload and breaks the
/// CRC without touching magic/version/length.
const PAYLOAD_FLIP: Fault = Fault::FlipByte { offset: 13 };

fn small_plain() -> Database {
    datagen::generate(&datagen::GeneratorConfig {
        scale_factor: 0.001,
        seed: 99,
    })
}

/// Tight, pinned transport options: short deadline so injected stalls cost
/// test seconds rather than minutes, a fixed jitter seed for reproducible
/// backoff, and enough retries to absorb every recoverable fault.
fn chaos_transport() -> TransportOptions {
    TransportOptions {
        connect_timeout: Duration::from_secs(2),
        request_deadline: Duration::from_secs(8),
        max_retries: 4,
        backoff_base: Duration::from_millis(5),
        backoff_seed: 0xC0FFEE,
    }
}

fn loopback_server() -> ServerHandle {
    Server::bind_with_db(
        "127.0.0.1:0",
        ServerOptions {
            max_conns: 16,
            ..Default::default()
        },
        Database::in_memory(),
    )
    .expect("bind loopback")
    .spawn()
    .expect("spawn server")
}

fn workload() -> Vec<monomi_sql::Query> {
    queries::workload()
        .iter()
        .map(|q| parse_query(q.sql).expect("workload query parses"))
        .collect()
}

fn chaos_config(exec: ExecOptions) -> ClientConfig {
    ClientConfig {
        paillier_bits: 256,
        space_budget: Some(2.0),
        skip_profiling: true,
        exec_options: Some(exec),
        transport: Some(chaos_transport()),
        ..Default::default()
    }
}

/// In-process client — the fault-free oracle.
fn local_client(plain: &Database, exec: ExecOptions) -> MonomiClient {
    let (client, _) = MonomiClient::setup(
        plain,
        &workload(),
        DesignStrategy::Designer,
        &chaos_config(exec),
    )
    .expect("in-process setup");
    client
}

/// TCP client connected through the chaos proxy.
fn proxied_client(plain: &Database, proxy_addr: &str, exec: ExecOptions) -> MonomiClient {
    let config = ClientConfig {
        server_addr: Some(proxy_addr.to_string()),
        ..chaos_config(exec)
    };
    let (client, _) = MonomiClient::setup(plain, &workload(), DesignStrategy::Designer, &config)
        .expect("proxied tcp setup");
    client
}

fn rows_of(client: &MonomiClient, number: u32) -> String {
    let q = queries::query(number).expect("query exists");
    let (rs, _) = client
        .execute(q.sql, &q.params)
        .unwrap_or_else(|e| panic!("fault-free Q{number} failed: {e}"));
    format!("{:?}", rs.rows)
}

fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while std::time::Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

/// Every recoverable fault — delays, cuts before/inside/after frames, a
/// stalled response — must be absorbed by retry with a byte-identical
/// result; corruption must surface as a typed error and the very next
/// request must succeed again.
#[test]
fn scripted_proxy_faults_recover_or_fail_typed() {
    let plain = small_plain();
    let server = loopback_server();
    let proxy = ChaosProxy::start(&server.addr().to_string()).expect("proxy");
    let local = local_client(&plain, ExecOptions::serial());
    let remote = proxied_client(&plain, proxy.addr(), ExecOptions::serial());
    let baseline = rows_of(&local, 6);
    let q = queries::query(6).expect("query exists");

    use Direction::{ClientToServer, ServerToClient};
    let recoverable = [
        FaultPlan {
            direction: ClientToServer,
            fault: Fault::Delay { millis: 30 },
        },
        FaultPlan {
            direction: ServerToClient,
            fault: Fault::Delay { millis: 30 },
        },
        FaultPlan {
            direction: ClientToServer,
            fault: Fault::DisconnectBefore,
        },
        FaultPlan {
            direction: ServerToClient,
            fault: Fault::DisconnectBefore,
        },
        FaultPlan {
            direction: ClientToServer,
            fault: Fault::DisconnectAfter { bytes: 5 },
        },
        FaultPlan {
            direction: ServerToClient,
            fault: Fault::DisconnectAfter { bytes: 64 },
        },
        FaultPlan {
            direction: ClientToServer,
            fault: Fault::TruncateFrame,
        },
        FaultPlan {
            direction: ServerToClient,
            fault: Fault::TruncateFrame,
        },
        FaultPlan {
            direction: ServerToClient,
            fault: Fault::Stall,
        },
    ];
    for plan in recoverable {
        proxy.arm(plan);
        let (rs, timings) = remote
            .execute(q.sql, &q.params)
            .unwrap_or_else(|e| panic!("{plan:?} was not absorbed by retry: {e}"));
        assert_eq!(format!("{:?}", rs.rows), baseline, "{plan:?}: wrong result");
        assert!(!proxy.pending(), "{plan:?} was never injected");
        if !matches!(plan.fault, Fault::Delay { .. }) {
            assert!(timings.retries >= 1, "{plan:?}: no retry counted");
            assert!(timings.reconnects >= 1, "{plan:?}: no reconnect counted");
        }
    }

    // A corrupted response fails the CRC: typed Corrupt, never retried
    // (the client cannot know what the server applied).
    proxy.arm(FaultPlan {
        direction: ServerToClient,
        fault: PAYLOAD_FLIP,
    });
    let err = remote
        .execute(q.sql, &q.params)
        .expect_err("corrupt response must fail");
    assert_eq!(
        err.transport_kind(),
        Some(TransportErrorKind::Corrupt),
        "{err}"
    );
    // Recover first (corruption dropped the stream), so the next
    // client-to-server frame is the Execute request, not the handshake.
    assert_eq!(
        rows_of(&remote, 6),
        baseline,
        "no recovery after corruption"
    );

    // A corrupted request fails the server's CRC check; the server answers
    // with a typed BadRequest which the client surfaces as a server error.
    proxy.arm(FaultPlan {
        direction: ClientToServer,
        fault: PAYLOAD_FLIP,
    });
    let err = remote
        .execute(q.sql, &q.params)
        .expect_err("corrupt request must fail");
    assert!(
        matches!(err.transport_kind(), Some(TransportErrorKind::Server(_))),
        "expected a typed server rejection, got: {err}"
    );

    // After the typed rejection the transport recovers transparently.
    assert_eq!(rows_of(&remote, 6), baseline, "no recovery after rejection");
}

/// Runs the whole corpus through the proxy under a seeded fault schedule:
/// every query either matches the fault-free baseline byte for byte or
/// fails with a typed error, at one and at four threads, and the transport
/// always recovers for a fault-free epilogue.
fn seeded_corpus_run(
    proxy: &ChaosProxy,
    remote: &MonomiClient,
    baseline: &BTreeMap<u32, String>,
    seed: u64,
    label: &str,
) {
    let plans = schedule(seed, CORPUS.len());
    for (plan, number) in plans.iter().zip(CORPUS) {
        proxy.arm(*plan);
        let q = queries::query(number).expect("query exists");
        match remote.execute(q.sql, &q.params) {
            Ok((rs, _)) => assert_eq!(
                format!("{:?}", rs.rows),
                baseline[&number],
                "{label}: Q{number} silently wrong under {plan:?}"
            ),
            Err(e) => assert!(
                e.transport_kind().is_some(),
                "{label}: Q{number} failed untyped under {plan:?}: {e}"
            ),
        }
    }
    for number in [1u32, 6] {
        assert_eq!(
            rows_of(remote, number),
            baseline[&number],
            "{label}: no recovery after seed {seed} schedule"
        );
    }
}

#[test]
fn seeded_chaos_schedules_never_corrupt_results() {
    let plain = small_plain();
    let local = local_client(&plain, ExecOptions::serial());
    let baseline: BTreeMap<u32, String> = CORPUS.iter().map(|&n| (n, rows_of(&local, n))).collect();
    for seed in [1u64, 2] {
        for threads in [1usize, 4] {
            let server = loopback_server();
            let proxy = ChaosProxy::start(&server.addr().to_string()).expect("proxy");
            let remote = proxied_client(&plain, proxy.addr(), ExecOptions::with_threads(threads));
            let label = format!("seed {seed} @ {threads} threads");
            seeded_corpus_run(&proxy, &remote, &baseline, seed, &label);
            assert!(proxy.injected() >= CORPUS.len(), "{label}: schedule unused");
        }
    }
}

/// A lost BulkLoad acknowledgement must not double-apply the load: the
/// server applies, the ack is cut, the client reconnects and replays the
/// same request id, and the server acks without re-applying.
#[test]
fn bulk_load_is_not_double_applied_across_reconnect() {
    let server = loopback_server();
    let proxy = ChaosProxy::start(&server.addr().to_string()).expect("proxy");
    let mut remote =
        TcpTransport::connect_with(proxy.addr(), chaos_transport()).expect("connect via proxy");
    let schema = TableSchema::new("chaos_t", vec![ColumnDef::new("a", ColumnType::Int)]);
    let rows: Vec<Vec<Value>> = (0..500).map(|i| vec![Value::Int(i)]).collect();

    // Fault-free oracle: the same load applied exactly once, in process.
    let mut oracle = monomi_core::InProcessTransport::new(Database::in_memory());
    oracle.create_table(&schema, &[]).expect("oracle create");
    oracle
        .bulk_load("chaos_t", rows.clone())
        .expect("oracle load");
    let count = parse_query("SELECT COUNT(*) FROM chaos_t").expect("count parses");
    let expected = format!(
        "{:?}",
        oracle
            .execute(&count, &ExecOptions::serial())
            .expect("oracle count")
            .result
            .rows
    );

    remote.create_table(&schema, &[]).expect("create");
    // Swallow the server's acknowledgement: the load *is* applied, but the
    // client only sees a dead connection and must retry after reconnecting.
    proxy.arm(FaultPlan {
        direction: Direction::ServerToClient,
        fault: Fault::DisconnectBefore,
    });
    remote
        .bulk_load("chaos_t", rows)
        .expect("load absorbed by retry");
    let totals = remote.wire_totals();
    assert!(totals.retries >= 1, "ack loss did not trigger a retry");
    assert!(totals.reconnects >= 1, "ack loss did not force a reconnect");
    let got = format!(
        "{:?}",
        remote
            .execute(&count, &ExecOptions::serial())
            .expect("count after replay")
            .result
            .rows
    );
    assert_eq!(got, expected, "BulkLoad was double-applied after reconnect");
}

/// A replay racing its original must not double-apply either. A client
/// whose first attempt times out mid-load reconnects and resends the same
/// request id while the server is still applying the original; here two
/// connections presenting one client id send the same `BulkLoad` before
/// either reads its answer. Both are acknowledged, and the rows land once.
#[test]
fn a_replay_racing_its_original_bulk_load_applies_it_once() {
    use monomi_proto::{read_response, write_request, Request, Response, WIRE_VERSION};
    use std::net::TcpStream;

    const ROWS: i64 = 20_000;
    // On disk a load encodes, fsyncs and commits segments: long enough that
    // the second request is checked while the first is still applying.
    let dir = std::env::temp_dir().join(format!("monomi-replay-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind_with_db(
        "127.0.0.1:0",
        ServerOptions::default(),
        Database::open(&dir).expect("store opens"),
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let connect = || {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let hello = Request::Hello {
            version: WIRE_VERSION,
            client_id: 0x5EED_0FC0_FFEE,
        };
        write_request(&mut stream, &hello).expect("send hello");
        let (reply, _) = read_response(&mut stream).expect("hello reply");
        assert_eq!(
            reply,
            Response::Hello {
                version: WIRE_VERSION
            }
        );
        stream
    };
    let ask = |stream: &mut TcpStream, request: &Request| {
        write_request(stream, request).expect("send");
        read_response(stream).expect("reply").0
    };
    let (mut first, mut second) = (connect(), connect());
    let create = Request::CreateTable {
        request_id: 1,
        name: "race_t".into(),
        columns: vec![("a".into(), ColumnType::Int)],
        unindexed: Vec::new(),
    };
    assert_eq!(ask(&mut first, &create), Response::Ok);

    let load = Request::BulkLoad {
        request_id: 2,
        table: "race_t".into(),
        rows: (0..ROWS).map(|i| vec![Value::Int(i)]).collect(),
    };
    write_request(&mut first, &load).expect("send original");
    write_request(&mut second, &load).expect("send replay");
    assert_eq!(read_response(&mut first).expect("reply").0, Response::Ok);
    assert_eq!(read_response(&mut second).expect("reply").0, Response::Ok);
    assert_eq!(server.metrics().journal_replays_total.get(), 1);

    let counter = TcpTransport::connect(&server.addr().to_string()).expect("connect");
    let count = parse_query("SELECT COUNT(*) FROM race_t").expect("count parses");
    let rows = counter
        .execute(&count, &ExecOptions::serial())
        .expect("count")
        .result
        .rows;
    assert_eq!(
        rows,
        vec![vec![Value::Int(ROWS)]],
        "the load was applied twice"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A trace id survives the retry machinery: when the response is cut and the
/// request is re-sent over a fresh connection, the replayed Execute frame
/// carries the same trace id, so the recovered result still comes back with
/// the server's spans under the original trace — and the server counts the
/// replayed session establishment in its journal-replay metric.
#[test]
fn trace_id_survives_retry_and_reconnect() {
    let plain = small_plain();
    let server = loopback_server();
    let proxy = ChaosProxy::start(&server.addr().to_string()).expect("proxy");
    let local = local_client(&plain, ExecOptions::serial());
    let remote = proxied_client(&plain, proxy.addr(), ExecOptions::serial());
    let baseline = rows_of(&local, 6);
    let q = queries::query(6).expect("query exists");

    // Cut the response: the Execute is retried over a reconnect.
    proxy.arm(FaultPlan {
        direction: Direction::ServerToClient,
        fault: Fault::DisconnectBefore,
    });
    let (rs, timings, trace, spans) = remote
        .execute_traced(q.sql, &q.params)
        .expect("traced query absorbed by retry");
    assert!(timings.retries >= 1, "fault was not injected");
    assert!(timings.reconnects >= 1);
    assert_eq!(format!("{:?}", rs.rows), baseline, "wrong recovered result");
    assert!(!trace.is_zero());
    // The server spans only come back when the echoed trace id matches what
    // the (replayed) request carried.
    let server_spans: usize = spans
        .iter()
        .filter(|s| s.label == "RemoteSQL")
        .map(|s| s.children.len())
        .sum();
    assert!(
        server_spans > 0,
        "server spans lost across retry: {spans:?}"
    );
    // The reconnect replayed the session journal; the server counted it.
    assert!(
        server.metrics().journal_replays_total.get() > 0,
        "journal replays not counted"
    );
}

/// Drain answers in-flight sessions with a typed ShuttingDown (no mid-frame
/// cuts), completes once sessions end, and new connections are then refused.
#[test]
fn graceful_drain_answers_typed_then_refuses() {
    let server = loopback_server();
    let addr = server.addr().to_string();
    let remote = TcpTransport::connect_with(&addr, chaos_transport()).expect("connect");
    assert_eq!(server.active_connections(), 1);

    std::thread::scope(|s| {
        let drained = s.spawn(|| server.drain(Duration::from_secs(10)));
        // Let the drain flag land before the request goes out.
        std::thread::sleep(Duration::from_millis(50));
        let err = remote
            .server_size_bytes()
            .expect_err("a draining server must not accept new work");
        assert_eq!(
            err.transport_kind(),
            Some(TransportErrorKind::Server(ServerErrorCode::ShuttingDown)),
            "{err}"
        );
        assert!(
            drained.join().expect("drain thread"),
            "drain must complete once the session ended"
        );
    });
    assert_eq!(server.active_connections(), 0);

    // The listener is gone: fresh connections fail with a typed error.
    let mut post_drain = None;
    assert!(wait_until(|| {
        match TcpTransport::connect_with(&addr, chaos_transport()) {
            Err(e) => {
                post_drain = Some(e);
                true
            }
            Ok(t) => {
                drop(t);
                false
            }
        }
    }));
    let err = post_drain.expect("post-drain connect error");
    assert!(
        err.transport_kind().is_some(),
        "post-drain refusal must be typed: {err}"
    );
}

/// Connection churn: slots fill to the admission limit with a typed Busy
/// past it, and both slots and table ownership are released when clients
/// disconnect — across repeated rounds, with no leaks.
#[test]
fn churn_releases_admission_slots_and_ownership() {
    let server = Server::bind_with_db(
        "127.0.0.1:0",
        ServerOptions {
            max_conns: 4,
            ..Default::default()
        },
        Database::in_memory(),
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = server.addr().to_string();

    for round in 0..3u32 {
        let mut conns: Vec<TcpTransport> = (0..4)
            .map(|i| {
                TcpTransport::connect_with(&addr, chaos_transport())
                    .unwrap_or_else(|e| panic!("round {round} conn {i} refused: {e}"))
            })
            .collect();
        for _ in 0..2 {
            let err = TcpTransport::connect_with(&addr, chaos_transport())
                .expect_err("connection past the limit must be refused");
            assert!(
                matches!(
                    err.transport_kind(),
                    Some(TransportErrorKind::Server(ServerErrorCode::Busy))
                ),
                "expected typed Busy, got: {err}"
            );
        }
        let schema = TableSchema::new(
            format!("churn_{round}"),
            vec![ColumnDef::new("a", ColumnType::Int)],
        );
        conns
            .last_mut()
            .expect("conns nonempty")
            .create_table(&schema, &[])
            .expect("create");
        assert_eq!(server.owned_tables(), 1, "round {round}");
        drop(conns);
        assert!(
            wait_until(|| server.active_connections() == 0),
            "round {round}: admission slots leaked"
        );
        assert!(
            wait_until(|| server.owned_tables() == 0),
            "round {round}: table ownership leaked after disconnect"
        );
    }
}

/// Connect-time failures carry a class, not just a message: a dead port is
/// Refused, a server speaking another wire version is
/// HandshakeVersionMismatch.
#[test]
fn connect_failures_are_typed_by_class() {
    // Bind to learn a free port, then drop the listener.
    let port = {
        let l = TcpListener::bind("127.0.0.1:0").expect("probe bind");
        l.local_addr().expect("probe addr").port()
    };
    let err = TcpTransport::connect_with(&format!("127.0.0.1:{port}"), chaos_transport())
        .expect_err("no listener");
    assert_eq!(err.transport_kind(), Some(TransportErrorKind::Refused));

    // A fake server that answers the handshake with an alien wire version.
    let l = TcpListener::bind("127.0.0.1:0").expect("fake bind");
    let addr = l.local_addr().expect("fake addr").to_string();
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = l.accept().expect("fake accept");
        let mut buf = [0u8; 1024];
        let _ = conn.read(&mut buf);
        let mut frame = monomi_proto::frame(&[]);
        frame[4..8].copy_from_slice(&999u32.to_le_bytes());
        let _ = conn.write_all(&frame);
    });
    let err = TcpTransport::connect_with(&addr, chaos_transport()).expect_err("version mismatch");
    assert_eq!(
        err.transport_kind(),
        Some(TransportErrorKind::HandshakeVersionMismatch),
        "{err}"
    );
    fake.join().expect("fake server thread");
}

/// The in-process fault wrapper drives the client's error paths without
/// sockets: scripted failures surface typed, scripted delays stay
/// transparent, and the client keeps working between faults.
#[test]
fn in_process_faults_surface_typed_and_recover() {
    let plain = small_plain();
    let mut client = local_client(&plain, ExecOptions::serial());
    let baseline = rows_of(&client, 6);
    let q = queries::query(6).expect("query exists");

    let mut slot = None;
    client.wrap_transport(|inner| {
        let (faulty, handle) = FaultyTransport::new(inner);
        slot = Some(handle);
        Box::new(faulty)
    });
    let faults = slot.expect("fault handle");

    faults.push(CallFault::ErrBefore);
    let err = client
        .execute(q.sql, &q.params)
        .expect_err("scripted pre-call fault");
    assert_eq!(err.transport_kind(), Some(TransportErrorKind::Disconnected));

    faults.push(CallFault::ErrAfter);
    let err = client
        .execute(q.sql, &q.params)
        .expect_err("scripted post-call fault");
    assert_eq!(err.transport_kind(), Some(TransportErrorKind::Disconnected));

    faults.push(CallFault::Delay { millis: 20 });
    assert_eq!(rows_of(&client, 6), baseline, "delay must stay transparent");
    assert_eq!(rows_of(&client, 6), baseline, "no recovery between faults");
    assert_eq!(faults.injected(), 3);
}

/// CI chaos leg against an externally started `monomi-server` binary: set
/// `MONOMI_SERVER=host:port` (a fresh server per run — table state
/// persists) and optionally `MONOMI_CHAOS_SEED`, then run with `--ignored`.
#[test]
#[ignore = "needs MONOMI_SERVER pointing at a running monomi-server"]
fn seeded_chaos_against_external_server() {
    let upstream = common::external_server();
    let seed: u64 = std::env::var("MONOMI_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let plain = small_plain();
    let local = local_client(&plain, ExecOptions::serial());
    let baseline: BTreeMap<u32, String> = CORPUS.iter().map(|&n| (n, rows_of(&local, n))).collect();
    let proxy = ChaosProxy::start(&upstream).expect("proxy");
    let remote = proxied_client(&plain, proxy.addr(), ExecOptions::serial());
    let label = format!("external, seed {seed}");
    seeded_corpus_run(&proxy, &remote, &baseline, seed, &label);
}
