//! The paper's evaluation (§8) from one run: Figures 4–9 and Tables 2–3 at
//! each rung of a scale ladder, in the paper's configuration (1024-bit
//! Paillier, startup profiling on, seed 1), with the server in process.
//!
//! Per rung, the data is generated once and each compared system is set up
//! once; each (system, plan mode, query) runs once, and every figure and
//! table is read from those runs. Times are measured
//! (`QueryTimings::total_seconds`), with the megabytes each run transferred
//! beside them so a reader can price a link; nothing is modeled. A setup or
//! query that returns an error stops the harness with a non-zero exit; a
//! wrong answer is marked in Figure 4, not fatal.
//!
//! `MONOMI_SCALE`, when set, replaces the ladder with that one scale:
//!
//! ```bash
//! cargo bench --bench paper
//! MONOMI_SCALE=0.001 cargo bench --bench paper
//! ```

use monomi_bench::{print_header, scale};
use monomi_core::design::SecuritySummary;
use monomi_core::plan::PlanOptions;
use monomi_core::{ClientConfig, CoreError, DesignStrategy, MonomiClient};
use monomi_sql::{parse_query, Query};
use monomi_tpch::baselines::{self, PlanMode, QueryRun, SystemKind, CRYPTDB_OPTIONS};
use monomi_tpch::{datagen, queries, TpchQuery};
use std::collections::BTreeMap;
use std::time::Instant;

/// The scale ladder. The paper ran scale factor 10.
const SCALES: [f64; 4] = [0.002, 0.01, 0.02, 0.05];
/// Seed of data generation, keys and encryption randomness.
const SEED: u64 = 1;

/// Labels of the S = 2 client's plan modes.
const MONOMI: &str = "MONOMI";
const GREEDY: &str = "Execution-Greedy";
const COL_PACKING: &str = "+Col packing";
const PRECOMPUTATION: &str = "+Precomputation";
/// Labels of the other systems.
const CRYPTDB: &str = "CryptDB+Client";
const UNCONSTRAINED: &str = "Unconstrained";
const S14_ILP: &str = "S=1.4 ILP";
const S14_GREEDY: &str = "S=1.4 Space-Greedy";

/// Fig. 8's designer inputs, by query number (k = all is the S = 2 client).
const FIG8_INPUTS: [(&str, &[u32]); 4] = [
    ("k=0", &[]),
    ("k=1 (Q1)", &[1]),
    ("k=2 (Q1,Q19)", &[1, 19]),
    ("k=4 (Q1,Q4,Q14,Q19)", &[1, 4, 14, 19]),
];

/// What one query's run measured.
struct Run {
    seconds: f64,
    mb: f64,
    client_cpu: f64,
    rows: usize,
}

impl Run {
    fn new(run: &QueryRun) -> Run {
        Run {
            seconds: run.timings.total_seconds(),
            mb: run.timings.transfer_bytes as f64 / 1e6,
            client_cpu: run.timings.client_cpu_seconds(),
            rows: run.result.len(),
        }
    }
}

/// One client that was set up: its design's size and security, and how
/// long it took.
struct Setup {
    label: &'static str,
    stored_bytes: usize,
    designed_bytes: usize,
    setup_seconds: f64,
    /// Designer time and estimated workload cost; none for a fixed design.
    designer: Option<(f64, f64)>,
    security: BTreeMap<String, SecuritySummary>,
}

/// Everything measured at one scale.
struct Rung {
    plain_bytes: usize,
    lineitem_rows: usize,
    workload: Vec<TpchQuery>,
    plain_runs: Vec<Run>,
    /// The workload's runs per (system, plan mode), by label.
    runs: BTreeMap<&'static str, Vec<Run>>,
    setups: Vec<Setup>,
}

impl Rung {
    /// Sets a client up with `build`, records its design, and runs the
    /// workload on it once per plan mode.
    fn measure(
        &mut self,
        label: &'static str,
        modes: &[(&'static str, PlanMode)],
        build: impl FnOnce() -> Result<MonomiClient, CoreError>,
    ) -> Result<(), CoreError> {
        eprintln!("setting up {label}...");
        let started = Instant::now();
        let client = build()?;
        self.setups.push(Setup {
            label,
            stored_bytes: client.server_size_bytes(),
            designed_bytes: client.designed_size_bytes(),
            setup_seconds: started.elapsed().as_secs_f64(),
            designer: client
                .design_outcome()
                .map(|o| (o.setup_seconds, o.estimated_cost)),
            security: client.design().security_summary(),
        });
        for &(mode_label, mode) in modes {
            eprintln!("  running {mode_label}...");
            let runs = self
                .workload
                .iter()
                .map(|q| baselines::run_query(&client, mode, q).map(|r| Run::new(&r)))
                .collect::<Result<_, _>>()?;
            self.runs.insert(mode_label, runs);
        }
        Ok(())
    }

    fn setup(&self, label: &str) -> &Setup {
        self.setups
            .iter()
            .find(|s| s.label == label)
            .expect("system was set up")
    }

    fn runs(&self, label: &str) -> &[Run] {
        &self.runs[label]
    }

    fn query_index(&self, number: u32) -> usize {
        self.workload
            .iter()
            .position(|q| q.number == number)
            .expect("query in the workload")
    }

    fn ratios(&self, label: &str) -> Vec<f64> {
        self.runs(label)
            .iter()
            .zip(&self.plain_runs)
            .map(|(r, p)| r.seconds / p.seconds.max(1e-9))
            .collect()
    }

    fn median_overhead(&self, label: &str) -> f64 {
        let mut ratios = self.ratios(label);
        ratios.sort_by(f64::total_cmp);
        ratios[ratios.len() / 2]
    }
}

fn config(space_budget: Option<f64>) -> ClientConfig {
    ClientConfig {
        paillier_bits: 1024,
        space_budget,
        seed: SEED,
        skip_profiling: false,
        ..Default::default()
    }
}

/// Generates the data at `scale`, sets up each compared system once and
/// runs the workload on it. At most 9 setups.
fn measure_rung(scale: f64) -> Result<Rung, CoreError> {
    let plain = datagen::generate(&datagen::GeneratorConfig {
        scale_factor: scale,
        seed: SEED,
    });
    let workload = queries::workload();
    let parsed: Vec<Query> = workload
        .iter()
        .map(|q| parse_query(q.sql).map_err(|e| CoreError::new(e.to_string())))
        .collect::<Result<_, _>>()?;
    let plain_runs = workload
        .iter()
        .map(|q| baselines::run_plaintext(&plain, q).map(|r| Run::new(&r)))
        .collect::<Result<_, _>>()?;
    let mut rung = Rung {
        plain_bytes: plain.total_size_bytes(),
        lineitem_rows: plain.table("lineitem").map_or(0, |t| t.row_count()),
        workload,
        plain_runs,
        runs: BTreeMap::new(),
        setups: Vec::new(),
    };
    let s2 = config(Some(2.0));
    let designer = |input: &[Query], strategy, config: &ClientConfig| {
        MonomiClient::setup(&plain, input, strategy, config).map(|(client, _)| client)
    };
    let planned = |label| [(label, PlanMode::Planner)];

    let cryptdb = [(CRYPTDB, PlanMode::Greedy(CRYPTDB_OPTIONS))];
    rung.measure(CRYPTDB, &cryptdb, || {
        let kind = SystemKind::CryptDbClient;
        let setup = baselines::build_system(kind, &plain, &queries::workload(), &s2)?;
        Ok(setup.client.expect("an encrypted system has a client"))
    })?;
    let precomputation = PlanOptions {
        use_prefiltering: false,
        ..PlanOptions::default()
    };
    let s2_modes = [
        (MONOMI, PlanMode::Planner),
        (GREEDY, PlanMode::Greedy(PlanOptions::default())),
        (COL_PACKING, PlanMode::Greedy(CRYPTDB_OPTIONS)),
        (PRECOMPUTATION, PlanMode::Greedy(precomputation)),
    ];
    rung.measure(MONOMI, &s2_modes, || {
        designer(&parsed, DesignStrategy::Designer, &s2)
    })?;
    rung.measure(UNCONSTRAINED, &planned(UNCONSTRAINED), || {
        designer(&parsed, DesignStrategy::Designer, &config(None))
    })?;
    for (label, numbers) in FIG8_INPUTS {
        let input: Vec<Query> = numbers
            .iter()
            .map(|&n| parsed[rung.query_index(n)].clone())
            .collect();
        rung.measure(label, &planned(label), || {
            designer(&input, DesignStrategy::Designer, &s2)
        })?;
    }
    for (label, strategy) in [
        (S14_ILP, DesignStrategy::Designer),
        (S14_GREEDY, DesignStrategy::SpaceGreedy),
    ] {
        rung.measure(label, &planned(label), || {
            designer(&parsed, strategy, &config(Some(1.4)))
        })?;
    }
    Ok(rung)
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0), |(s, n), x| (s + x.max(1e-9).ln(), n + 1));
    (sum / n as f64).exp()
}

fn total(runs: &[Run]) -> (f64, f64) {
    runs.iter()
        .fold((0.0, 0.0), |(s, mb), r| (s + r.seconds, mb + r.mb))
}

fn fig4(rung: &Rung) {
    let systems = [CRYPTDB, GREEDY, MONOMI, UNCONSTRAINED];
    println!("\nFigure 4: time per query, normalized to plaintext [MB transferred]");
    let mut header = format!("{:<6} {:>18}", "query", "plaintext s [MB]");
    for s in systems {
        header.push_str(&format!(" {s:>20}"));
    }
    println!("{header}");
    let ratios = systems.map(|s| rung.ratios(s));
    for (i, q) in rung.workload.iter().enumerate() {
        let p = &rung.plain_runs[i];
        let mut row = format!("Q{:<5} {:>8.4} [{:>7.3}]", q.number, p.seconds, p.mb);
        for (s, ratios) in systems.iter().zip(&ratios) {
            let r = &rung.runs(s)[i];
            let mark = if r.rows == p.rows { ' ' } else { '!' };
            row.push_str(&format!(" {:>9.2}x{mark}[{:>7.3}]", ratios[i], r.mb));
        }
        println!("{row}");
    }
    let mut row = format!("{:<25}", "median");
    for s in systems {
        row.push_str(&format!(" {:>9.2}x{:10}", rung.median_overhead(s), ""));
    }
    println!("{row}");
    println!("(! = row count differs from plaintext; paper: MONOMI median 1.24x at SF 10)");
}

fn fig5(rung: &Rung) {
    println!("\nFigure 5: workload time as optimizations are added cumulatively");
    println!(
        "{:<24} {:>10} {:>14} {:>10}",
        "configuration", "mean (s)", "geo mean (s)", "MB"
    );
    for (name, label) in [
        (CRYPTDB, CRYPTDB),
        (COL_PACKING, COL_PACKING),
        (PRECOMPUTATION, PRECOMPUTATION),
        ("+Other (pre-filtering)", GREEDY),
        ("+Planner (MONOMI)", MONOMI),
    ] {
        let runs = rung.runs(label);
        let (seconds, mb) = total(runs);
        let geo = geomean(runs.iter().map(|r| r.seconds));
        println!(
            "{name:<24} {:>10.4} {geo:>14.4} {mb:>10.3}",
            seconds / runs.len() as f64
        );
    }
}

fn fig6(rung: &Rung) {
    println!("\nFigure 6: the query each optimization helps most, before and after");
    println!(
        "{:<24} {:>12} {:>12}",
        "optimization (query)", "before (s)", "after (s)"
    );
    for (name, number, before, after) in [
        ("+Col packing", 1, CRYPTDB, COL_PACKING),
        ("+Precomputation", 1, COL_PACKING, PRECOMPUTATION),
        ("+Precomputation", 5, COL_PACKING, PRECOMPUTATION),
        ("+Pre-filtering", 18, PRECOMPUTATION, GREEDY),
        ("+Planner", 18, GREEDY, MONOMI),
    ] {
        let i = rung.query_index(number);
        println!(
            "{:<24} {:>12.4} {:>12.4}",
            format!("{name} (Q{number})"),
            rung.runs(before)[i].seconds,
            rung.runs(after)[i].seconds
        );
    }
}

fn fig7(rung: &Rung) {
    println!("\nFigure 7: MONOMI client CPU time vs. local plaintext execution");
    println!(
        "{:<6} {:>16} {:>16} {:>10}",
        "query", "client CPU (s)", "local plain (s)", "ratio"
    );
    for (i, q) in rung.workload.iter().enumerate() {
        let cpu = rung.runs(MONOMI)[i].client_cpu;
        let local = rung.plain_runs[i].seconds.max(1e-9);
        println!(
            "Q{:<5} {cpu:>16.4} {local:>16.4} {:>10.3}",
            q.number,
            cpu / local
        );
    }
}

fn fig8(rung: &Rung) {
    println!("\nFigure 8: workload time when the designer sees only k queries");
    println!(
        "{:<22} {:>16} {:>10} {:>22}",
        "designer input", "workload (s)", "MB", "designer estimate (s)"
    );
    let rows = FIG8_INPUTS.iter().map(|(label, _)| (*label, *label));
    for (name, label) in rows.chain([("k=all", MONOMI)]) {
        let (seconds, mb) = total(rung.runs(label));
        let estimate = rung
            .setup(label)
            .designer
            .map_or(f64::NAN, |(_, cost)| cost);
        println!("{name:<22} {seconds:>16.4} {mb:>10.3} {estimate:>22.3}");
    }
}

fn fig9(rung: &Rung) {
    let affected = [1u32, 6, 14, 18];
    println!("\nFigure 9: the queries a smaller space budget affects (seconds)");
    let mut header = format!("{:<20}", "configuration");
    for q in affected {
        header.push_str(&format!(" {:>9}", format!("Q{q}")));
    }
    println!("{header} {:>12}", "workload");
    for (name, label) in [
        ("S=2 ILP", MONOMI),
        (S14_GREEDY, S14_GREEDY),
        (S14_ILP, S14_ILP),
    ] {
        let runs = rung.runs(label);
        let mut row = format!("{name:<20}");
        for q in affected {
            row.push_str(&format!(" {:>9.4}", runs[rung.query_index(q)].seconds));
        }
        println!("{row} {:>12.4}", total(runs).0);
    }
}

fn table2(rung: &Rung) {
    let plain = rung.plain_bytes as f64;
    println!("\nTable 2: server space, stored and as designed, relative to plaintext");
    println!(
        "{:<20} {:>11} {:>8} {:>12} {:>8} {:>10} {:>13}",
        "system", "stored MB", "x", "designed MB", "x", "setup (s)", "designer (s)"
    );
    println!("{:<20} {:>11.2} {:>8}", "Plaintext", plain / 1e6, "-");
    for s in &rung.setups {
        let designer = s
            .designer
            .map_or("-".to_string(), |(t, _)| format!("{t:.2}"));
        println!(
            "{:<20} {:>11.2} {:>7.2}x {:>12.2} {:>7.2}x {:>10.2} {designer:>13}",
            s.label,
            s.stored_bytes as f64 / 1e6,
            s.stored_bytes as f64 / plain,
            s.designed_bytes as f64 / 1e6,
            s.designed_bytes as f64 / plain,
            s.setup_seconds,
        );
    }
    println!(
        "(Execution-Greedy runs on the MONOMI design. Paper: CryptDB+Client 4.21x, MONOMI 1.72x.)"
    );
}

fn table3(rung: &Rung) {
    for label in [MONOMI, UNCONSTRAINED] {
        println!("\nTable 3 ({label} design): columns by weakest scheme, base+precomputed");
        println!(
            "{:<12} {:>8} {:>16} {:>8} {:>8}",
            "table", "columns", "RND/HOM/SEARCH", "DET", "OPE"
        );
        for (table, s) in &rung.setup(label).security {
            let cell = |i: usize| format!("{}+{}", s.base[i], s.precomputed[i]);
            let columns = format!(
                "{}+{}",
                s.base.iter().sum::<usize>(),
                s.precomputed.iter().sum::<usize>()
            );
            println!(
                "{table:<12} {columns:>8} {:>16} {:>8} {:>8}",
                cell(0),
                cell(1),
                cell(2)
            );
        }
    }
}

fn main() -> Result<(), CoreError> {
    print_header(
        "The paper's figures and tables, measured",
        "§8 (Figs. 4-9, Tables 2-3)",
    );
    let scales = scale(SCALES[0]).map_or(SCALES.to_vec(), |s| vec![s]);
    let mut summary = Vec::new();
    for scale in scales {
        let started = Instant::now();
        eprintln!("sf {scale}: generating data and running plaintext...");
        let rung = measure_rung(scale)?;
        let wall = started.elapsed().as_secs_f64();
        println!(
            "\n=== sf {} ({} lineitem rows), 1024-bit Paillier, profiling on, seed {SEED} ===",
            scale, rung.lineitem_rows
        );
        fig4(&rung);
        fig5(&rung);
        fig6(&rung);
        fig7(&rung);
        fig8(&rung);
        fig9(&rung);
        table2(&rung);
        table3(&rung);
        println!(
            "\nsf {scale}: {} setups, rung wall time {wall:.1} s",
            rung.setups.len()
        );
        summary.push((
            scale,
            rung.setups.len(),
            wall,
            [MONOMI, UNCONSTRAINED, CRYPTDB].map(|s| rung.median_overhead(s)),
        ));
    }
    println!("\nMedian overhead vs. plaintext per rung (paper: MONOMI 1.24x at SF 10)");
    println!(
        "{:<8} {:>12} {:>14} {:>15} {:>7} {:>10}",
        "sf", "MONOMI S=2", UNCONSTRAINED, CRYPTDB, "setups", "wall (s)"
    );
    for (scale, setups, wall, [monomi, unconstrained, cryptdb]) in summary {
        println!(
            "{scale:<8} {monomi:>11.2}x {unconstrained:>13.2}x {cryptdb:>14.2}x {setups:>7} {wall:>10.1}"
        );
    }
    Ok(())
}
