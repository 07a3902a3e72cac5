//! One run: deploy, check one pass against the oracle, measure passes for
//! the requested time, and turn the samples into named metrics.

use crate::deploy::{deploy, Deployment, Scratch, PAILLIER_BITS};
use crate::ops::{self, Op, OpKind};
use crate::pass::{
    run_ops, run_pass, Ingest, PassPlan, PassSample, INGEST_BATCHES_PER_PASS, INGEST_BATCH_ROWS,
};
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::server::THREADS;
use crate::spans::LayerSeconds;
use crate::stats::{geomean, median, percentile, quartiles, tail_fraction};
use crate::{micro, oracle, procfs, Args, Workload};
use monomi_core::{Encryptor, MonomiClient, ServerTransport, WireMetrics};
use monomi_crypto::{MasterKey, PaillierKey};
use monomi_engine::{Database, Value};
use monomi_obs::Stopwatch;
use monomi_sql::parse_query;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

// --- Fixed parameters (README.md, "Fixed parameters") ----------------------

/// TPC-H scale factor: `lineitem` has about 12 000 rows.
const SCALE_FACTOR: f64 = 0.002;
/// Scale factor of a `--smoke` run.
const SMOKE_SCALE_FACTOR: f64 = 0.001;
/// A `--trace 0` run deploys this many times and reports the median set-up.
const SETUP_REPEATS: usize = 3;
/// Lookups in one pass of the lookup workloads, the same ones every pass.
const LOOKUPS_PER_PASS: usize = 2_000;
/// Lookups of the pass whose answers are checked against the oracle.
const ORACLE_LOOKUPS: usize = 1_000;
/// Timed passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Round trips timed for `wire.rtt_us`.
const RTT_SAMPLES: usize = 200;
/// A traced run whose spans (with the outside-timed plan) leave more of the
/// wall time than this unaccounted for is reported as incorrect: 0.10 of a
/// TPC-H pass, 0.20 of a lookup pass. A lookup takes 0.1 to 0.5 ms, of which
/// the client's glue between the spans (minting the trace id, binding, SQL
/// text, re-treeing spans) is about 25 us, 0.13 at the commit that added
/// this benchmark; a TPC-H pass leaves 0.01 to 0.02.
fn max_unattributed_share(workload: Workload) -> f64 {
    if workload.is_lookup() {
        0.20
    } else {
        0.10
    }
}

/// Statements that return a wrong answer at the commit that added this
/// benchmark, by workload. They are left out of the timed pass, because the
/// time of a wrong answer says nothing, but each is run and compared once
/// per run and shows in the output as `oracle.known_mismatches`; README.md
/// has the write-up.
fn known_wrong(workload: Workload) -> &'static [&'static str] {
    match workload {
        // On the unconstrained design Q12 returns no row.
        Workload::TpchHom => &["Q12"],
        _ => &[],
    }
}

// --- The operations and their plaintext answers -----------------------------------

/// The operations of one pass, with the oracle's answers to the first of them.
struct Checked {
    kinds: Vec<OpKind>,
    ops: Vec<Op>,
    /// Plaintext rows of `ops[..expected.len()]`.
    expected: Vec<Vec<Vec<Value>>>,
    /// Plaintext-engine wall of the checked operations, in ms, by kind.
    plain_ms: Vec<Vec<f64>>,
    /// TPC-H answers compare in `ORDER BY` order, lookups sorted.
    ordered: bool,
}

impl Checked {
    fn new(plain: &Database, kinds: Vec<OpKind>, ops: Vec<Op>, ordered: bool) -> Checked {
        let checked = if ordered {
            ops.len()
        } else {
            ORACLE_LOOKUPS.min(ops.len())
        };
        let mut plain_ms = vec![Vec::new(); kinds.len()];
        let expected = ops[..checked]
            .iter()
            .map(|op| {
                let kind = &kinds[op.kind];
                let watch = Stopwatch::start();
                let rows = oracle::plaintext_rows(plain, &kind.name, &kind.sql, &op.params);
                plain_ms[op.kind].push(watch.seconds() * 1e3);
                if ordered {
                    rows
                } else {
                    oracle::sorted_rows(rows)
                }
            })
            .collect();
        Checked {
            kinds,
            ops,
            expected,
            plain_ms,
            ordered,
        }
    }

    fn plan(&self, traced: bool) -> PassPlan<'_> {
        PassPlan {
            kinds: &self.kinds,
            ops: &self.ops,
            expected: &[],
            ordered: self.ordered,
            traced,
            span_sink: None,
            until: None,
        }
    }
}

// --- The measuring window ---------------------------------------------------------

/// What the timed passes of one run measured.
struct Window {
    untraced: Vec<PassSample>,
    traced: Vec<PassSample>,
    /// CPU seconds (user + system) of each process per pass.
    client_cpu_s: f64,
    server_cpu_s: f64,
    /// Frame bytes sent and received per pass, both connections.
    wire_bytes: f64,
    seconds: f64,
}

fn wire_bytes(totals: WireMetrics) -> u64 {
    totals.bytes_sent + totals.bytes_received
}

/// Runs passes until `--seconds` have gone by (at least `MIN_PASSES`; one
/// for `--smoke`). A traced run alternates untraced and traced passes, so
/// that both see the same drift of the host.
fn measure(
    args: &Args,
    client: &MonomiClient,
    server_pid: u32,
    checked: &Checked,
    mut ingest: Option<&mut Ingest>,
    report: &mut Report,
) -> Window {
    let wire_now = |ingest: &Option<&mut Ingest>| {
        wire_bytes(client.wire_totals())
            + ingest
                .as_ref()
                .map_or(0, |i| wire_bytes(i.transport.wire_totals()))
    };
    let wire_before = wire_now(&ingest);
    let client_cpu_before = procfs::cpu_seconds(std::process::id());
    let server_cpu_before = procfs::cpu_seconds(server_pid);
    let watch = Stopwatch::start();
    let mut untraced: Vec<PassSample> = Vec::new();
    let mut traced: Vec<PassSample> = Vec::new();
    let min_passes = if args.smoke { 1 } else { MIN_PASSES };
    loop {
        let turn_traced = args.trace && traced.len() < untraced.len();
        let pairs_done = if args.trace {
            traced.len()
        } else {
            untraced.len()
        };
        let time_up = args.smoke || watch.seconds() >= args.seconds;
        if pairs_done >= min_passes && !turn_traced && time_up {
            break;
        }
        let mut plan = checked.plan(turn_traced);
        if turn_traced && args.out.is_some() {
            plan.span_sink = Some((traced.len(), &mut report.span_lines));
        }
        let sample = run_pass(client, plan, ingest.as_deref_mut());
        report.attempted += sample.attempted;
        report.failed += sample.failed;
        if turn_traced {
            &mut traced
        } else {
            &mut untraced
        }
        .push(sample);
    }
    let seconds = watch.seconds();
    let passes = (untraced.len() + traced.len()) as f64;
    Window {
        client_cpu_s: (procfs::cpu_seconds(std::process::id()) - client_cpu_before) / passes,
        server_cpu_s: (procfs::cpu_seconds(server_pid) - server_cpu_before) / passes,
        wire_bytes: (wire_now(&ingest) - wire_before) as f64 / passes,
        untraced,
        traced,
        seconds,
    }
}

fn walls(samples: &[PassSample]) -> Vec<f64> {
    samples.iter().map(|p| p.wall_s).collect()
}

/// Median latency in ms of each kind over the given passes.
fn kind_medians(kinds: &[OpKind], passes: &[PassSample]) -> Vec<f64> {
    (0..kinds.len())
        .map(|kind| {
            let ms: Vec<f64> = passes
                .iter()
                .flat_map(|p| {
                    p.op_ms
                        .iter()
                        .filter(move |(k, _)| *k == kind)
                        .map(|(_, ms)| *ms)
                })
                .collect();
            assert!(
                !ms.is_empty(),
                "no timed operation of kind {}",
                kinds[kind].name
            );
            median(&ms)
        })
        .collect()
}

fn spread(values: &[f64]) -> String {
    let (q1, q2, q3) = quartiles(values);
    format!(
        "median {q2:.6} quartiles {q1:.6}..{q3:.6} over {} samples",
        values.len()
    )
}

// --- The run ----------------------------------------------------------------------

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let scale = if args.smoke {
        SMOKE_SCALE_FACTOR
    } else {
        SCALE_FACTOR
    };
    report.note(format!(
        "workload {} seed {} seconds {} trace {}{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " smoke" } else { "" }
    ));
    let host_cpus = procfs::host_cpus();
    report.note(format!(
        "host: {host_cpus} CPUs, {}; client on CPUs {}, server on CPUs {}",
        procfs::cpu_model(),
        procfs::allowed_cpus(),
        args.server_cpus.as_deref().unwrap_or("any")
    ));
    if host_cpus < 2 * THREADS {
        report.note(format!(
            "{THREADS} worker threads on each side and {host_cpus} CPUs for both: \
             no parallel speed-up is measured"
        ));
    }
    report.note(format!(
        "sf {scale}, Paillier {PAILLIER_BITS} bits, {THREADS} threads per side, closed loops, \
         server on MONOMI_STORAGE=disk with the default 256 MiB segment cache (the data fits)"
    ));

    // Set-up: every repeat is a fresh server and a fresh client; the passes
    // run on the last one.
    let scratch = Scratch::create();
    let repeats = if args.trace || args.smoke {
        1
    } else {
        SETUP_REPEATS
    };
    let mut setups = Vec::new();
    let mut deployment = None;
    for repeat in 0..repeats {
        drop(deployment.take());
        let fresh = deploy(args, scale, &scratch.0, repeat);
        setups.push(fresh.setup_s);
        deployment = Some(fresh);
    }
    let deployment = deployment.expect("at least one deployment");
    let Deployment {
        client,
        server,
        plain,
        ..
    } = &deployment;
    report.note(format!("setup_s: {}", spread(&setups)));
    let space_overhead_x = client.server_size_bytes() as f64 / plain.total_size_bytes() as f64;

    let skipped = known_wrong(args.workload);
    let checked = if args.workload.is_lookup() {
        let lookups = ops::sample_lookups(plain, args.seed, LOOKUPS_PER_PASS);
        Checked::new(plain, ops::lookup_kinds(), lookups, false)
    } else {
        let (kinds, pass) = ops::tpch_pass(|name| !skipped.contains(&name));
        Checked::new(plain, kinds, pass, true)
    };
    let mut ingest = (args.workload == Workload::IngestMix).then(|| Ingest::prepare(server.addr()));

    // Warm-up: the pass whose answers are checked, run without ingest.
    let warm = run_ops(
        client,
        PassPlan {
            expected: &checked.expected,
            ..checked.plan(false)
        },
    );
    report.attempted += warm.attempted;
    report.failed += warm.failed;
    if args.workload.is_lookup() && warm.unprobed_points > 0 {
        report.violation(format!(
            "{} point lookups probed no index",
            warm.unprobed_points
        ));
    }
    let known_mismatches = count_known_mismatches(client, plain, skipped, &mut report);

    let window = measure(
        args,
        client,
        server.pid(),
        &checked,
        ingest.as_mut(),
        &mut report,
    );
    let untraced_walls = walls(&window.untraced);
    let medians_ms = kind_medians(&checked.kinds, &window.untraced);
    let p99s: Vec<f64> = window
        .untraced
        .iter()
        .map(|p| p.percentile_ms(0.99))
        .collect();
    report.note(format!(
        "{} untraced and {} traced passes of {} operations in {:.3} s",
        window.untraced.len(),
        window.traced.len(),
        window.untraced[0].op_ms.len(),
        window.seconds
    ));
    report.note(format!("pass_wall_s: {}", spread(&untraced_walls)));
    report.note(format!("op_ms_p99: {}", spread(&p99s)));
    for (kind, ms) in checked.kinds.iter().zip(&medians_ms) {
        report.note(format!("{}: median {ms:.3} ms", kind.name));
    }

    if !args.trace {
        report.push("setup_s", median(&setups));
        report.push("pass_wall_s", median(&untraced_walls));
        report.push("query_wall_geomean_ms", geomean(&medians_ms));
        report.push("op_ms_p99", median(&p99s));
        report.push("wire_mb_per_pass", window.wire_bytes / 1e6);
        report.push("server_peak_rss_mb", procfs::peak_rss_mb(server.pid()));
        report.push("space_overhead_x", space_overhead_x);
        report.finish(END_TO_END);
        return report;
    }

    let layers = Layers {
        args,
        deployment: &deployment,
        checked: &checked,
        window: &window,
        warm: &warm,
        medians_ms: &medians_ms,
        scratch: &scratch.0,
        known_mismatches,
    };
    layers.report(&mut report);
    report.finish(PER_LAYER);
    report
}

/// Runs each statement that is known to answer wrongly once and counts those
/// that still do. The count is reported, not added to the failed operations.
fn count_known_mismatches(
    client: &MonomiClient,
    plain: &Database,
    skipped: &[&str],
    report: &mut Report,
) -> u64 {
    if skipped.is_empty() {
        return 0;
    }
    let (kinds, pass) = ops::tpch_pass(|name| skipped.contains(&name));
    let known = Checked::new(plain, kinds, pass, true);
    let sample = run_ops(
        client,
        PassPlan {
            expected: &known.expected,
            ..known.plan(false)
        },
    );
    report.note(format!(
        "KNOWN WRONG ANSWERS: {skipped:?} left out of the timed pass; {} of {} still differ \
         from the plaintext answer (README.md, \"Known wrong answers\")",
        sample.failed,
        skipped.len()
    ));
    sample.failed
}

// --- Per-layer metrics --------------------------------------------------------------

/// Reads `name value` from the server's Prometheus text.
fn prometheus_counter(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("server metrics have no counter {name}"))
}

fn directory_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => directory_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// What the per-layer metrics of a traced run are computed from.
struct Layers<'a> {
    args: &'a Args,
    deployment: &'a Deployment,
    checked: &'a Checked,
    window: &'a Window,
    /// The quiet warm-up pass.
    warm: &'a PassSample,
    /// Median untraced latency of each kind.
    medians_ms: &'a [f64],
    scratch: &'a Path,
    known_mismatches: u64,
}

impl Layers<'_> {
    /// True when a second connection ingests beside the lookups.
    fn ingesting(&self) -> bool {
        self.args.workload == Workload::IngestMix
    }

    /// Median over the traced passes of one layer's seconds.
    fn layer(&self, pick: fn(&LayerSeconds) -> f64) -> f64 {
        median(
            &self
                .window
                .traced
                .iter()
                .map(|p| pick(&p.layers))
                .collect::<Vec<f64>>(),
        )
    }

    fn report(&self, report: &mut Report) {
        self.client_layers(report);
        self.crypto_and_store(report);
        self.server_layers(report);
        self.wire(report);
        self.tails_and_baseline(report);
        self.tracing(report);
    }

    /// `sql` and `core`: parse and plan timed from outside on the pass's own
    /// operations, decrypt and residual from the spans, set-up phases.
    fn client_layers(&self, report: &mut Report) {
        let (parse_us, plan_ms) = self.parse_and_plan();
        let all_plan_ms: Vec<f64> = plan_ms.iter().flatten().copied().collect();
        let traced = &self.window.traced;
        let last = traced.last().expect("a traced run has traced passes");
        report.push("client.cpu_s", self.window.client_cpu_s);
        report.push("sql.parse_us", median(&parse_us));
        report.push("core.plan_ms", median(&all_plan_ms));
        report.push("core.decrypt_s", self.layer(|l| l.decrypt));
        report.push("core.decrypt_rows", last.layers.decrypt_rows as f64);
        let shares: Vec<f64> = traced
            .iter()
            .map(|p| p.layers.decrypt / p.op_wall_s())
            .collect();
        report.push("core.decrypt_share", median(&shares));
        report.push("core.residual_s", self.layer(|l| l.residual));
        report.push("core.setup_s", self.deployment.setup_s);
        report.push("core.designer_s", self.deployment.designer_s);
        report.push("core.load_s", self.deployment.load_s);

        // Spans cover everything but planning, whose span is a placeholder:
        // the outside-timed plan of each operation's kind stands in for it.
        let plan_median_s: Vec<f64> = plan_ms.iter().map(|ms| median(ms) / 1e3).collect();
        let unattributed: Vec<f64> = traced
            .iter()
            .map(|p| {
                let planned_s: f64 = p.op_ms.iter().map(|(kind, _)| plan_median_s[*kind]).sum();
                1.0 - (planned_s + p.layers.attributed()) / p.op_wall_s()
            })
            .collect();
        let share = median(&unattributed);
        report.push("trace.unattributed_share", share);
        report.note(format!(
            "unattributed share per traced pass: {}",
            spread(&unattributed)
        ));
        if share > max_unattributed_share(self.args.workload) {
            report.violation(format!(
                "spans leave {share:.3} of the traced wall unattributed"
            ));
        }
    }

    /// Parse time in us of every operation, and plan time in ms by kind.
    /// `MonomiClient::plan` parses the text itself, so a plan time includes
    /// one parse.
    fn parse_and_plan(&self) -> (Vec<f64>, Vec<Vec<f64>>) {
        let client = &self.deployment.client;
        let mut parse_us = Vec::new();
        let mut plan_ms = vec![Vec::new(); self.checked.kinds.len()];
        for op in &self.checked.ops {
            let kind = &self.checked.kinds[op.kind];
            let watch = Stopwatch::start();
            std::hint::black_box(parse_query(&kind.sql).expect("workload statement parses"));
            parse_us.push(watch.seconds() * 1e6);
            let watch = Stopwatch::start();
            std::hint::black_box(
                client
                    .plan(&kind.sql, &op.params)
                    .expect("workload statement plans"),
            );
            plan_ms[op.kind].push(watch.seconds() * 1e3);
        }
        (parse_us, plan_ms)
    }

    /// `crypto` and the local `store`: outside-timed calls with the keys the
    /// client derived from the seed, on the encrypted database it loaded.
    fn crypto_and_store(&self, report: &mut Report) {
        let Deployment { client, plain, .. } = self.deployment;
        let mut rng = StdRng::seed_from_u64(self.args.seed);
        let master = MasterKey::generate(&mut rng);
        let paillier = PaillierKey::generate(&mut rng, PAILLIER_BITS);
        let encryptor = Encryptor::with_keys(master, paillier, client.design().clone());
        let watch = Stopwatch::start();
        let encrypted = encryptor
            .encrypt_database(plain, self.args.seed ^ 0x5eed)
            .expect("encrypt database");
        report.push("core.encrypt_db_s", watch.seconds());
        let crypto = micro::crypto_costs(plain, &encryptor);
        report.push("crypto.det_dec_ns", crypto.det_dec_ns);
        report.push("crypto.rnd_dec_ns", crypto.rnd_dec_ns);
        report.push("crypto.ope_enc_us", crypto.ope_enc_us);
        report.push("crypto.paillier_dec_us", crypto.paillier_dec_us);
        report.push("crypto.paillier_add_ns", crypto.paillier_add_ns);
        // The server's directory, before the local store is written beside it.
        report.push("store.stored_bytes", directory_bytes(self.scratch) as f64);
        let throughput = micro::store_throughput(&encrypted, &self.scratch.join("local-store"));
        report.push("store.write_mb_s", throughput.write_mb_s);
        report.push("store.cold_scan_mb_s", throughput.cold_scan_mb_s);
        report.push("store.warm_scan_mb_s", throughput.warm_scan_mb_s);
    }

    /// `server`, `engine` and the server's `store`: spans by operator kind,
    /// the child's CPU time, and the work counters of one traced pass.
    fn server_layers(&self, report: &mut Report) {
        let traced = &self.window.traced;
        let last = traced
            .last()
            .expect("a traced run has traced passes")
            .counters;
        report.push("server.exec_s", self.layer(|l| l.server_exec));
        report.push("server.other_s", self.layer(|l| l.server_other));
        report.push("server.cpu_s", self.window.server_cpu_s);
        // The server's own registry, over one more traced pass.
        let transport = self.deployment.client.server_transport();
        let scrape = || {
            transport
                .metrics_text()
                .expect("metrics round trip")
                .expect("a TCP transport has a metrics endpoint")
        };
        let before = scrape();
        let counted_pass = run_ops(&self.deployment.client, self.checked.plan(true));
        let after = scrape();
        report.attempted += counted_pass.attempted;
        report.failed += counted_pass.failed;
        let counted =
            |name: &str| prometheus_counter(&after, name) - prometheus_counter(&before, name);
        report.push("server.queries", counted("monomi_queries_total"));
        report.push("server.rows_scanned", counted("monomi_rows_scanned_total"));
        report.push("engine.scan_s", self.layer(|l| l.scan));
        report.push("engine.join_s", self.layer(|l| l.join));
        report.push("engine.agg_s", self.layer(|l| l.agg));
        report.push("engine.sort_s", self.layer(|l| l.sort));
        report.push("engine.bytes_materialized", last.bytes_materialized as f64);
        report.push("store.bytes_scanned", last.bytes_scanned as f64);
        report.push("store.segments_read", last.segments_read as f64);
        report.push("store.segments_pruned", last.segments_pruned as f64);
        report.push("store.index_probes", last.index_probes as f64);
        report.push("store.index_rows_fetched", last.index_rows_fetched as f64);
        report.push("store.postings_bytes", last.postings_bytes as f64);

        // Identical operations must do identical work; beside a concurrent
        // ingest the number of lookups in a pass varies, and so do the sums.
        let repeat = traced.iter().all(|p| p.counters == last);
        report.push("trace.counters_repeat", f64::from(u8::from(repeat)));
        if !repeat && !self.ingesting() {
            report.violation(
                "work counters differ between traced passes of identical operations".into(),
            );
        }
    }

    fn wire(&self, report: &mut Report) {
        let traced = &self.window.traced;
        let last = traced
            .last()
            .expect("a traced run has traced passes")
            .counters;
        let transport = self.deployment.client.server_transport();
        let rtt_us: Vec<f64> = (0..RTT_SAMPLES)
            .map(|_| {
                let watch = Stopwatch::start();
                std::hint::black_box(transport.server_size_bytes().expect("size round trip"));
                watch.seconds() * 1e6
            })
            .collect();
        let wire_s: Vec<f64> = traced.iter().map(|p| p.wire_s).collect();
        report.push("wire.seconds", median(&wire_s));
        report.push("wire.bytes_sent", last.wire_bytes_sent as f64);
        report.push("wire.bytes_received", last.wire_bytes_received as f64);
        report.push("wire.retries", last.retries as f64);
        report.push("wire.reconnects", last.reconnects as f64);
        report.push("wire.rtt_us", median(&rtt_us));
    }

    /// Ungated tails of the untraced passes, what the ingest costs the
    /// readers, and the plaintext engine as the baseline of Figure 4.
    fn tails_and_baseline(&self, report: &mut Report) {
        let untraced = &self.window.untraced;
        let pooled: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.op_ms.iter().map(|(_, ms)| *ms))
            .collect();
        let tail = tail_fraction(pooled.len()).unwrap_or(0.5);
        report.push("op_ms_p50", percentile(&pooled, 0.5));
        report.push("op_ms_tail", percentile(&pooled, tail));
        report.push("op_tail_percentile", tail * 100.0);

        // The 99th percentile beside the ingest minus the one of the quiet
        // warm-up pass of the same lookups.
        let p99s: Vec<f64> = untraced.iter().map(|p| p.percentile_ms(0.99)).collect();
        let (stall_ms, rows_per_s) = if self.ingesting() {
            (
                (median(&p99s) - self.warm.percentile_ms(0.99)).max(0.0),
                (INGEST_BATCHES_PER_PASS * INGEST_BATCH_ROWS) as f64 / median(&walls(untraced)),
            )
        } else {
            (0.0, 0.0)
        };
        report.push("server.lock_stall_ms_p99", stall_ms);
        report.push("ingest.rows_per_s", rows_per_s);

        let plain_ms: Vec<f64> = self.checked.plain_ms.iter().map(|ms| median(ms)).collect();
        let plain_pass_s: f64 = self
            .checked
            .ops
            .iter()
            .map(|op| plain_ms[op.kind] / 1e3)
            .sum();
        let overheads: Vec<f64> = self
            .medians_ms
            .iter()
            .zip(&plain_ms)
            .map(|(e, p)| e / p)
            .collect();
        report.push("plain.pass_wall_s", plain_pass_s);
        report.push("plain.overhead_median_x", median(&overheads));
        report.push("oracle.known_mismatches", self.known_mismatches as f64);
    }

    fn tracing(&self, report: &mut Report) {
        let traced_walls = walls(&self.window.traced);
        let overheads: Vec<f64> = traced_walls
            .iter()
            .zip(walls(&self.window.untraced))
            .map(|(traced, untraced)| traced / untraced - 1.0)
            .collect();
        report.push("trace.overhead_share", median(&overheads));
        report.push("host.nproc", procfs::host_cpus() as f64);
        report.note(format!("traced pass_wall_s: {}", spread(&traced_walls)));
    }
}
