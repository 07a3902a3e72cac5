//! End-to-end observability: wire-propagated trace ids, span trees, EXPLAIN
//! ANALYZE, and the server metrics registry.
//!
//! The contract under test: tracing is *inert* — a traced execution returns
//! byte-identical results to an untraced one at every thread count and on
//! both storage backends — while a non-zero trace id rides every request
//! frame, comes back echoed, and carries the server's per-operator spans
//! with it.

use monomi_core::{ClientConfig, DesignStrategy, MonomiClient, NetworkModel};
use monomi_engine::{Database, ExecOptions};
use monomi_obs::{flatten_spans, Span, TraceId};
use monomi_server::{Server, ServerOptions};
use monomi_sql::parse_query;
use monomi_tpch::{datagen, fast_config, queries};
use std::time::Instant;

fn small_plain() -> Database {
    datagen::generate(&datagen::GeneratorConfig {
        scale_factor: 0.001,
        seed: 99,
    })
}

fn loopback_server() -> monomi_server::ServerHandle {
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

/// Two clients from the same seed, one in-process and one over TCP.
fn paired_clients(
    plain: &Database,
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

/// The deterministic face of a span tree: labels and row counts in tree
/// order, with the measured seconds stripped.
fn span_shape(spans: &[Span]) -> Vec<(u32, String, u64)> {
    flatten_spans(spans)
        .into_iter()
        .map(|f| (f.depth, f.label, f.rows))
        .collect()
}

fn has_label(spans: &[Span], prefix: &str) -> bool {
    flatten_spans(spans)
        .iter()
        .any(|f| f.label.starts_with(prefix))
}

/// A non-zero trace id crosses the wire and brings the server's per-operator
/// spans back with it; the tree's deterministic shape (labels, nesting, row
/// counts) is identical between in-process and TCP execution.
#[test]
fn trace_ids_and_server_spans_propagate_across_both_transports() {
    let plain = small_plain();
    let handle = loopback_server();
    let addr = handle.addr().to_string();
    let (local, remote) = paired_clients(&plain, &addr, ExecOptions::serial());

    let q = queries::query(1).expect("query exists");
    let (rows_a, _, trace_a, spans_a) = local.execute_traced(q.sql, &q.params).expect("in-process");
    let (rows_b, _, trace_b, spans_b) = remote.execute_traced(q.sql, &q.params).expect("tcp");

    assert!(!trace_a.is_zero() && !trace_b.is_zero());
    // Same seed, same generator: both clients mint the same id sequence.
    assert_eq!(trace_a, trace_b, "trace ids must be seed-deterministic");
    assert_eq!(format!("{:?}", rows_a.rows), format!("{:?}", rows_b.rows));

    // The client tree has the split-execution phases...
    for prefix in ["Plan", "RemoteSQL", "Wire", "LocalDecrypt"] {
        assert!(has_label(&spans_a, prefix), "in-process missing {prefix}");
        assert!(has_label(&spans_b, prefix), "tcp missing {prefix}");
    }
    // ...and the server's operator spans are nested under RemoteSQL — over
    // TCP they can only have arrived by riding the trace id through the
    // request frame and back in the response.
    let server_ops = |spans: &[Span]| -> Vec<String> {
        spans
            .iter()
            .filter(|s| s.label == "RemoteSQL")
            .flat_map(|s| flatten_spans(&s.children))
            .map(|f| f.label)
            .collect()
    };
    let ops_a = server_ops(&spans_a);
    let ops_b = server_ops(&spans_b);
    assert!(
        ops_a.iter().any(|l| l.starts_with("ScanFilter")),
        "no server scan span in {ops_a:?}"
    );
    assert_eq!(
        ops_a, ops_b,
        "server operator spans diverged across transports"
    );
    assert_eq!(
        span_shape(&spans_a),
        span_shape(&spans_b),
        "span tree shape diverged across transports"
    );

    // Trace ids are unique per query.
    let (_, _, trace_next, _) = local.execute_traced(q.sql, &q.params).expect("second run");
    assert_ne!(trace_a, trace_next);
}

/// Tracing never changes results: traced and untraced execution are
/// byte-identical on both transports at one and at four threads.
#[test]
fn tracing_is_invisible_to_results_at_every_thread_count() {
    let plain = small_plain();
    for threads in [1usize, 4] {
        let handle = loopback_server();
        let addr = handle.addr().to_string();
        let (local, remote) = paired_clients(&plain, &addr, ExecOptions::with_threads(threads));
        for number in [1u32, 6, 12] {
            let q = queries::query(number).expect("query exists");
            let (plain_rs, _) = local.execute(q.sql, &q.params).expect("untraced");
            for (name, client) in [("in-process", &local), ("tcp", &remote)] {
                let (traced_rs, _, trace, spans) =
                    client.execute_traced(q.sql, &q.params).expect("traced");
                assert!(!trace.is_zero());
                assert!(!spans.is_empty(), "Q{number} {name}: no spans");
                assert_eq!(
                    format!("{:?}", plain_rs.rows),
                    format!("{:?}", traced_rs.rows),
                    "Q{number} {name} @ {threads} threads: tracing changed the result"
                );
            }
        }
        // An untraced call (zero trace id) collects no spans on either side.
        let count = parse_query("SELECT COUNT(*) FROM lineitem").expect("parses");
        for (name, client) in [("in-process", &local), ("tcp", &remote)] {
            let untraced = client
                .server_transport()
                .execute(&count, &ExecOptions::serial())
                .expect("untraced server query");
            assert!(untraced.spans.is_empty(), "{name}: zero trace id has spans");
        }
    }
}

/// Engine-level tracing parity on both storage backends: a traced execution
/// returns the same rows as an untraced one whether the table lives in
/// memory or in the segment store, at one and at four threads.
#[test]
fn engine_tracing_parity_on_both_storage_backends() {
    let plain = small_plain();
    let dir = std::env::temp_dir().join(format!("monomi-obs-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk = Database::open(&dir).expect("disk store opens");
    let mut disk = disk;
    let mut mem = Database::in_memory();
    for db in [&mut mem, &mut disk] {
        for schema in plain.catalog().tables() {
            db.create_table(schema.clone());
        }
        for name in plain.table_names() {
            let table = plain.table(&name).expect("listed table exists");
            db.bulk_load(&name, table.rows()).expect("rows load");
        }
    }

    let sql = "SELECT l_returnflag, COUNT(*), SUM(l_quantity) FROM lineitem \
               GROUP BY l_returnflag ORDER BY l_returnflag";
    let query = parse_query(sql).expect("parses");
    let mut shapes = Vec::new();
    for (backend, db) in [("memory", &mem), ("disk", &disk)] {
        for threads in [1usize, 4] {
            let opts = ExecOptions::with_threads(threads);
            let (plain_rs, _) = db.execute_with(&query, &[], &opts).expect("untraced");
            let (traced_rs, _, spans) = db.execute_with_traced(&query, &[], &opts).expect("traced");
            assert_eq!(
                format!("{:?}", plain_rs.rows),
                format!("{:?}", traced_rs.rows),
                "{backend} @ {threads} threads: tracing changed the result"
            );
            assert!(
                spans.iter().any(|s| s.label.starts_with("ScanFilter")),
                "{backend} @ {threads} threads: no scan span"
            );
            shapes.push(span_shape(&spans));
        }
    }
    // The deterministic shape (labels + row counts) is identical across all
    // four backend × thread-count combinations.
    assert!(
        shapes.windows(2).all(|w| w[0] == w[1]),
        "span shapes diverged across backends/threads: {shapes:?}"
    );
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `LocalDecrypt` carries one `Decrypt(<scheme>)` child per decrypted output
/// column: what was decrypted, how many values, how many of them reused an
/// earlier decryption. The parent keeps the phase's total seconds and its row
/// count, so the children can only account for part of it. `Plan` reports the
/// time planning took, not a placeholder.
#[test]
fn local_decrypt_has_per_column_spans_and_plan_is_timed() {
    let plain = small_plain();
    let workload: Vec<_> = queries::workload()
        .iter()
        .map(|q| parse_query(q.sql).expect("parses"))
        .collect();
    let config = ClientConfig {
        exec_options: Some(ExecOptions::serial()),
        ..fast_config()
    };
    let (client, _) =
        MonomiClient::setup(&plain, &workload, DesignStrategy::Designer, &config).expect("setup");

    // Under S = 2, Q6 ships lineitem rows and decrypts their DET columns.
    let q = queries::query(6).expect("Q6 exists");
    let (_, timings, _, spans) = client.execute_traced(q.sql, &q.params).expect("traced");
    let plan = spans.iter().find(|s| s.label == "Plan").expect("Plan span");
    assert!(plan.seconds > 0.0, "Plan span has no duration");

    let decrypt = spans
        .iter()
        .find(|s| s.label == "LocalDecrypt")
        .expect("LocalDecrypt span");
    assert_eq!(decrypt.seconds, timings.decrypt_seconds);
    assert!(!decrypt.children.is_empty(), "no per-column spans");
    for child in &decrypt.children {
        assert!(
            child.label.starts_with("Decrypt(DET) lineitem.") && child.label.contains(" reused="),
            "unexpected child {}",
            child.label
        );
        assert!(
            child.rows <= decrypt.rows,
            "{} decrypts too much",
            child.label
        );
    }
    let covered: f64 = decrypt.children.iter().map(|c| c.seconds).sum();
    assert!(covered <= decrypt.seconds);
    // Quantities and discounts repeat; the memo serves the repeats.
    let reused: u64 = decrypt
        .children
        .iter()
        .filter_map(|c| c.label.rsplit_once("reused=")?.1.parse::<u64>().ok())
        .sum();
    assert!(reused > 0, "no value of Q6 was served from a memo");
}

/// `ClientResidual` of a split plan carries one `Residual(<phase>)` child per
/// residual phase that ran, within its own duration. No client span borrows
/// an engine operator's label: a benchmark that attributes `ScanFilter(..)`,
/// `HashJoin`, `MorselAggregate` and `Sort` anywhere in the tree to the
/// server engine must not count client work there.
#[test]
fn client_residual_has_phase_spans_and_no_engine_labels() {
    let plain = small_plain();
    let workload: Vec<_> = queries::workload()
        .iter()
        .map(|q| parse_query(q.sql).expect("parses"))
        .collect();
    let config = ClientConfig {
        exec_options: Some(ExecOptions::serial()),
        ..fast_config()
    };
    let (client, _) =
        MonomiClient::setup(&plain, &workload, DesignStrategy::Designer, &config).expect("setup");

    /// Labels of the client's own spans: everything outside `RemoteSQL`.
    fn client_labels(spans: &[Span], out: &mut Vec<String>) {
        for span in spans.iter().filter(|s| s.label != "RemoteSQL") {
            out.push(span.label.clone());
            client_labels(&span.children, out);
        }
    }

    let mut phases_seen = 0;
    for q in queries::workload() {
        let (_, _, _, spans) = client.execute_traced(q.sql, &q.params).expect("traced");
        for residual in all_spans(&spans)
            .into_iter()
            .filter(|s| s.label == "ClientResidual")
        {
            let covered: f64 = residual.children.iter().map(|c| c.seconds).sum();
            assert!(
                covered <= residual.seconds,
                "Q{}: residual phases ({covered}s) exceed ClientResidual ({}s)",
                q.number,
                residual.seconds
            );
            for phase in &residual.children {
                assert!(
                    ["filter", "group", "project", "sort"]
                        .iter()
                        .any(|p| phase.label == format!("Residual({p})")),
                    "Q{}: unexpected residual child {}",
                    q.number,
                    phase.label
                );
            }
            phases_seen += residual.children.len();
        }
        let mut labels = Vec::new();
        client_labels(&spans, &mut labels);
        for label in labels {
            assert!(
                !["ScanFilter(", "HashJoin", "MorselAggregate", "Sort"]
                    .iter()
                    .any(|engine| label.starts_with(engine)),
                "Q{}: client span {label} carries an engine label",
                q.number
            );
        }
    }
    assert!(phases_seen > 0, "no residual phase span in the corpus");
}

/// Every span of the forest, pre-order.
fn all_spans(spans: &[Span]) -> Vec<&Span> {
    let mut out = Vec::new();
    let mut stack: Vec<&Span> = spans.iter().rev().collect();
    while let Some(span) = stack.pop() {
        out.push(span);
        stack.extend(span.children.iter().rev());
    }
    out
}

/// Summed seconds of every span labelled exactly `label`, at any depth.
fn labelled_seconds(spans: &[Span], label: &str) -> f64 {
    flatten_spans(spans)
        .into_iter()
        .filter(|f| f.label == label)
        .map(|f| f.seconds)
        .sum()
}

fn assert_close(what: &str, a: f64, b: f64) {
    assert!(
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()),
        "{what}: {a} != {b}"
    );
}

/// `QueryTimings` holds clock readings, not a model: each phase equals the
/// spans that time it, and the total is the sum of the four measured phases.
#[test]
fn timings_are_the_sums_of_their_spans() {
    let plain = small_plain();
    let workload: Vec<_> = queries::workload()
        .iter()
        .map(|q| parse_query(q.sql).expect("parses"))
        .collect();
    let config = ClientConfig {
        exec_options: Some(ExecOptions::serial()),
        ..fast_config()
    };
    let (client, _) =
        MonomiClient::setup(&plain, &workload, DesignStrategy::Designer, &config).expect("setup");

    for number in [1u32, 6] {
        let q = queries::query(number).expect("query exists");
        let (_, t, _, spans) = client.execute_traced(q.sql, &q.params).expect("traced");
        assert!(t.server_bytes_scanned > 0, "Q{number} scanned nothing");
        let phase = |name: &str| format!("Q{number} {name}");
        assert_close(
            &phase("server"),
            t.server_seconds,
            labelled_seconds(&spans, "RemoteSQL"),
        );
        assert_close(
            &phase("wire"),
            t.wire_seconds,
            labelled_seconds(&spans, "Wire"),
        );
        assert_close(
            &phase("decrypt"),
            t.decrypt_seconds,
            labelled_seconds(&spans, "LocalDecrypt"),
        );
        assert_close(
            &phase("total"),
            t.total_seconds(),
            t.server_seconds + t.wire_seconds + t.decrypt_seconds + t.client_seconds,
        );
    }
}

/// A `Child(..)` or `Subquery` span is the wall time of dispatching its child
/// plan: no less than the spans beneath it, no more than the whole query,
/// however slow the link the planner prices with.
#[test]
fn child_spans_are_wall_time_not_the_modeled_link() {
    let plain = small_plain();
    let workload: Vec<_> = queries::workload()
        .iter()
        .map(|q| parse_query(q.sql).expect("parses"))
        .collect();
    // A 1 bit/s link: any modeled transfer term dwarfs every wall time.
    let mut network = NetworkModel::paper_default();
    network.bandwidth_bits_per_sec = 1.0;
    let config = ClientConfig {
        exec_options: Some(ExecOptions::serial()),
        network,
        ..fast_config()
    };
    let (client, _) =
        MonomiClient::setup(&plain, &workload, DesignStrategy::Designer, &config).expect("setup");

    // Q11 runs its residual on the client over three materialized children.
    let q = queries::query(11).expect("Q11 exists");
    let started = Instant::now();
    let (_, _, _, spans) = client.execute_traced(q.sql, &q.params).expect("traced");
    let wall = started.elapsed().as_secs_f64();

    let dispatched: Vec<&Span> = all_spans(&spans)
        .into_iter()
        .filter(|s| s.label.starts_with("Child(") || s.label == "Subquery")
        .collect();
    assert!(
        dispatched.iter().any(|s| s.label.starts_with("Child(")),
        "Q11 has no Child span"
    );
    for span in dispatched {
        let beneath: f64 = span.children.iter().map(|c| c.seconds).sum();
        assert!(
            span.seconds >= beneath,
            "{} ({}s) is shorter than its children ({beneath}s)",
            span.label,
            span.seconds
        );
        assert!(
            span.seconds <= wall,
            "{} ({}s) is longer than the whole query ({wall}s)",
            span.label,
            span.seconds
        );
    }
}

/// EXPLAIN ANALYZE renders the plan, the measured span tree, and the cost
/// model's predicted per-phase seconds next to the measured ones.
#[test]
fn explain_analyze_shows_span_tree_and_predicted_vs_actual() {
    let plain = small_plain();
    let workload: Vec<_> = queries::workload()
        .iter()
        .map(|q| parse_query(q.sql).expect("parses"))
        .collect();
    let (client, _) = MonomiClient::setup(
        &plain,
        &workload,
        DesignStrategy::Designer,
        &ClientConfig {
            exec_options: Some(ExecOptions::serial()),
            ..fast_config()
        },
    )
    .expect("setup");

    let q = queries::query(1).expect("Q1 exists");
    let report = client.explain_analyze(q.sql, &q.params).expect("explain");
    for needle in [
        "EXPLAIN ANALYZE",
        "trace=",
        "plan: ",
        "RemoteSQL",
        "ScanFilter",
        "LocalDecrypt",
        "predicted_s",
        "actual_s",
        "server",
        "decrypt",
        "total",
        " ms",
    ] {
        assert!(report.contains(needle), "missing `{needle}` in:\n{report}");
    }
    // The link row compares the prediction with the measured wire time; a
    // `network` row (a model next to a model) must not come back.
    assert!(
        report.lines().any(|l| l.starts_with("wire ")),
        "no `wire` row in:\n{report}"
    );
    assert!(
        !report.lines().any(|l| l.starts_with("network")),
        "modeled `network` row in:\n{report}"
    );
    // The trace id in the report is a well-formed id, not the zero id.
    let hex = report
        .lines()
        .next()
        .and_then(|l| l.split("trace=").nth(1))
        .expect("first line carries the trace id")
        .trim();
    let trace = TraceId::from_hex(hex).expect("renders as parseable hex");
    assert!(!trace.is_zero());
}

/// The server's metrics registry counts queries, scanned rows, and sessions;
/// the `Metrics` wire request returns the same Prometheus text the dump file
/// would contain.
#[test]
fn server_metrics_count_queries_and_are_served_over_the_wire() {
    let plain = small_plain();
    let handle = loopback_server();
    let addr = handle.addr().to_string();
    let (_, remote) = paired_clients(&plain, &addr, ExecOptions::serial());

    let corpus = [1u32, 6, 12];
    for number in corpus {
        let q = queries::query(number).expect("query exists");
        remote.execute(q.sql, &q.params).expect("query runs");
        remote
            .execute_traced(q.sql, &q.params)
            .expect("traced runs");
    }

    let m = handle.metrics();
    assert!(
        m.queries_total.get() >= 2 * corpus.len() as u64,
        "queries_total={}",
        m.queries_total.get()
    );
    assert_eq!(m.query_errors_total.get(), 0);
    assert!(m.rows_scanned_total.get() > 0);
    assert!(m.bytes_scanned_total.get() > 0);
    assert!(m.rows_returned_total.get() > 0);
    assert!(m.sessions_total.get() >= 1);
    assert!(m.active_sessions.get() >= 1, "client still connected");
    assert_eq!(m.query_seconds.count(), m.queries_total.get());

    // The wire endpoint serves the same registry.
    let text = remote
        .server_transport()
        .metrics_text()
        .expect("metrics request")
        .expect("tcp transport has a metrics endpoint");
    assert!(text.contains("monomi_queries_total"));
    assert!(text.contains("monomi_query_seconds{quantile=\"0.5\"}"));
    let queries_line = text
        .lines()
        .find(|l| l.starts_with("monomi_queries_total "))
        .expect("queries series present");
    let served: u64 = queries_line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("counter value parses");
    assert!(served >= 2 * corpus.len() as u64);

    // In-process execution has no server process to instrument.
    let local_db = small_plain();
    let workload = [parse_query("SELECT COUNT(*) FROM lineitem").expect("parses")];
    let (local, _) = MonomiClient::setup(
        &local_db,
        &workload,
        DesignStrategy::Designer,
        &fast_config(),
    )
    .expect("setup");
    assert_eq!(local.server_transport().metrics_text().expect("ok"), None);
}

/// `MONOMI_METRICS_DUMP` writes the Prometheus text dump when the server
/// shuts down gracefully.
#[test]
fn metrics_dump_file_is_written_on_shutdown() {
    let dump = std::env::temp_dir().join(format!("monomi-metrics-{}.prom", std::process::id()));
    let _ = std::fs::remove_file(&dump);
    let mut handle = Server::bind_with_db(
        "127.0.0.1:0",
        ServerOptions {
            max_conns: 16,
            metrics_dump: Some(dump.clone()),
            ..Default::default()
        },
        Database::in_memory(),
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = handle.addr().to_string();

    let plain = small_plain();
    let workload = [parse_query("SELECT COUNT(*) FROM lineitem").expect("parses")];
    let config = ClientConfig {
        server_addr: Some(addr),
        ..fast_config()
    };
    let (client, _) =
        MonomiClient::setup(&plain, &workload, DesignStrategy::Designer, &config).expect("setup");
    client
        .execute("SELECT COUNT(*) FROM lineitem", &[])
        .expect("query runs");
    drop(client);

    handle.shutdown();
    let text = std::fs::read_to_string(&dump).expect("dump file written on shutdown");
    assert!(text.contains("monomi_queries_total"));
    assert!(text.contains("monomi_query_seconds_count"));
    let _ = std::fs::remove_file(&dump);
}
