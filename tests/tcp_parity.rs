//! Transport parity: the full MONOMI pipeline over a real TCP loopback
//! connection must be indistinguishable — byte for byte — from in-process
//! execution, at every thread count, while actually measuring the wire.
//!
//! Two clients are set up from the same seed and configuration, differing
//! only in `ClientConfig::server_addr`; determinism of key generation and
//! encryption makes their encrypted databases identical, so any result
//! divergence is the transport's fault.

use monomi_core::{ClientConfig, DesignStrategy, MonomiClient, SplitPlan};
use monomi_engine::ExecOptions;
use monomi_server::{Server, ServerOptions};
use monomi_sql::parse_query;
use monomi_tpch::{datagen, fast_config, queries};

const CORPUS: [u32; 11] = [1, 3, 4, 5, 6, 10, 12, 14, 18, 19, 22];

fn small_plain() -> monomi_engine::Database {
    datagen::generate(&datagen::GeneratorConfig {
        scale_factor: 0.001,
        seed: 99,
    })
}

/// Spawns a loopback server (generous connection limit) and returns its
/// handle. Its database follows `MONOMI_STORAGE` like the in-process client's
/// does, so the two sides' scan counters (stored vs. logical bytes, segments
/// read) stay comparable on the disk legs too.
fn loopback_server() -> monomi_server::ServerHandle {
    let server = Server::bind_with_db(
        "127.0.0.1:0",
        ServerOptions {
            max_conns: 16,
            ..Default::default()
        },
        monomi_engine::Database::new(),
    )
    .expect("bind loopback");
    server.spawn().expect("spawn server")
}

/// Builds the two clients — identical but for the transport — over one
/// workload, with explicit exec options.
fn paired_clients(
    plain: &monomi_engine::Database,
    addr: &str,
    exec_options: ExecOptions,
) -> (MonomiClient, MonomiClient) {
    let workload: Vec<_> = queries::workload()
        .iter()
        .map(|q| parse_query(q.sql).expect("workload query parses"))
        .collect();
    let base = ClientConfig {
        exec_options: Some(exec_options),
        ..fast_config()
    };
    let (local, _) = MonomiClient::setup(plain, &workload, DesignStrategy::Designer, &base)
        .expect("in-process setup");
    let tcp_config = ClientConfig {
        server_addr: Some(addr.to_string()),
        ..base
    };
    let (remote, _) = MonomiClient::setup(plain, &workload, DesignStrategy::Designer, &tcp_config)
        .expect("tcp setup");
    (local, remote)
}

#[test]
fn tcp_results_are_byte_identical_to_in_process_at_every_thread_count() {
    let plain = small_plain();
    for threads in [1usize, 4] {
        let handle = loopback_server();
        let addr = handle.addr().to_string();
        let (local, remote) = paired_clients(&plain, &addr, ExecOptions::with_threads(threads));
        assert_eq!(local.server_transport().kind(), "in-process");
        assert_eq!(remote.server_transport().kind(), "tcp");
        // The remote client holds no server database — only the connection.
        assert!(remote.encrypted_database().is_none());
        assert_eq!(local.server_size_bytes(), remote.server_size_bytes());

        let mut wire_seconds_total = 0.0;
        for number in CORPUS {
            let q = queries::query(number).expect("query exists");
            let (a, ta) = local
                .execute(q.sql, &q.params)
                .unwrap_or_else(|e| panic!("in-process Q{number} failed: {e}"));
            let (b, tb) = remote
                .execute(q.sql, &q.params)
                .unwrap_or_else(|e| panic!("tcp Q{number} failed: {e}"));
            // Byte identity: the Debug form distinguishes value variants and
            // float bit patterns (-0.0 vs 0.0), so equal strings mean equal
            // bytes.
            assert_eq!(a.columns, b.columns, "Q{number} columns @ {threads}t");
            assert_eq!(
                format!("{:?}", a.rows),
                format!("{:?}", b.rows),
                "Q{number} rows differ across transports @ {threads} threads"
            );
            // Deterministic accounting must agree; only wall-clock may differ.
            assert_eq!(ta.transfer_bytes, tb.transfer_bytes, "Q{number}");
            assert_eq!(
                ta.server_bytes_scanned, tb.server_bytes_scanned,
                "Q{number}"
            );
            assert_eq!(
                ta.server_segments_read, tb.server_segments_read,
                "Q{number}"
            );
            assert_eq!(
                ta.server_segments_pruned, tb.server_segments_pruned,
                "Q{number}"
            );
            assert_eq!(
                ta.server_bytes_materialized, tb.server_bytes_materialized,
                "Q{number}"
            );
            // The wire is measured, not modeled: in-process shows zero bytes,
            // TCP shows real frames in both directions.
            assert_eq!(ta.wire_bytes_sent, 0, "Q{number}: in-process sent bytes");
            assert_eq!(ta.wire_bytes_received, 0);
            assert!(ta.wire_seconds == 0.0);
            assert!(
                tb.wire_bytes_sent > 0 && tb.wire_bytes_received > 0,
                "Q{number}: tcp wire bytes not measured"
            );
            wire_seconds_total += tb.wire_seconds;
        }
        assert!(
            wire_seconds_total > 0.0,
            "measured wire seconds over the corpus must be positive"
        );
        let totals = remote.wire_totals();
        assert!(totals.bytes_sent > 0 && totals.bytes_received > 0);
        assert_eq!(local.wire_totals(), monomi_core::WireMetrics::default());
    }
}

#[test]
fn engine_exec_stats_counters_agree_across_transports() {
    let plain = small_plain();
    let handle = loopback_server();
    let addr = handle.addr().to_string();
    let (local, remote) = paired_clients(&plain, &addr, ExecOptions::serial());

    // Drive the transports directly with the planner's server queries so the
    // engine-level ExecStats (not just the aggregated timings) can be
    // compared counter by counter.
    for number in [1u32, 6, 12] {
        let q = queries::query(number).expect("query exists");
        let plan = local.plan(q.sql, &q.params).expect("plan");
        let SplitPlan::Remote(rp) = plan else {
            continue;
        };
        for threads in [1usize, 4] {
            let opts = ExecOptions::with_threads(threads);
            let a = local
                .server_transport()
                .execute(&rp.server_query, &opts)
                .expect("in-process execute");
            let b = remote
                .server_transport()
                .execute(&rp.server_query, &opts)
                .expect("tcp execute");
            assert_eq!(
                a.stats.work_counters(),
                b.stats.work_counters(),
                "Q{number} @ {threads} threads: deterministic ExecStats counters diverged"
            );
            assert_eq!(
                format!("{:?}", a.result.rows),
                format!("{:?}", b.result.rows),
                "Q{number} @ {threads} threads: server-half rows diverged"
            );
        }
    }
}

#[test]
fn admission_control_refuses_connections_past_the_limit() {
    let server = Server::bind_with_db(
        "127.0.0.1:0",
        ServerOptions {
            max_conns: 2,
            ..Default::default()
        },
        monomi_engine::Database::in_memory(),
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let _handle = server.spawn().expect("spawn");

    let _c1 = monomi_core::TcpTransport::connect(&addr).expect("first connection admitted");
    let _c2 = monomi_core::TcpTransport::connect(&addr).expect("second connection admitted");
    let refused = monomi_core::TcpTransport::connect(&addr);
    let err = refused.expect_err("third connection must be refused");
    assert!(
        err.to_string().contains("Busy"),
        "expected a typed Busy refusal, got: {err}"
    );
}

/// CI smoke against an externally started `monomi-server` binary: set
/// `MONOMI_SERVER=host:port` and run with `--ignored`. Kept out of the
/// default run because it needs a process the test does not own.
#[test]
#[ignore = "needs MONOMI_SERVER pointing at a running monomi-server"]
fn tcp_parity_against_external_server() {
    let addr = std::env::var("MONOMI_SERVER").expect("MONOMI_SERVER=host:port");
    let plain = small_plain();
    let (local, remote) = paired_clients(&plain, &addr, ExecOptions::serial());
    for number in CORPUS {
        let q = queries::query(number).expect("query exists");
        let (a, _) = local.execute(q.sql, &q.params).expect("in-process");
        let (b, tb) = remote.execute(q.sql, &q.params).expect("external tcp");
        assert_eq!(
            format!("{:?}", a.rows),
            format!("{:?}", b.rows),
            "Q{number}"
        );
        assert!(tb.wire_bytes_sent > 0 && tb.wire_bytes_received > 0);
    }
}
