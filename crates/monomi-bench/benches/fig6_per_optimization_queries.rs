//! Figure 6: the single query that benefits most from each optimization,
//! before and after that optimization is applied. Each time is measured plus
//! the paper's 10 Mbit/s link, modeled over the run's transferred bytes.

use monomi_bench::{print_header, Experiment};
use monomi_core::plan::PlanOptions;
use monomi_tpch::{baselines, baselines::SystemKind, queries, with_modeled_link};

fn run_with(
    setup: &baselines::SystemSetup,
    exp: &Experiment,
    number: u32,
    options: &PlanOptions,
    greedy: bool,
) -> f64 {
    let q = queries::query(number).expect("query exists");
    let client = setup.client.as_ref().expect("client");
    let timings = if greedy {
        client
            .plan_with_options(q.sql, &q.params, options, true)
            .and_then(|p| client.execute_plan(&p))
            .map(|(_, t)| t)
    } else {
        setup.run(&exp.plain, &q).map(|r| r.timings)
    };
    timings
        .map(|t| with_modeled_link(&t, &exp.network))
        .unwrap_or(f64::NAN)
}

fn main() {
    print_header(
        "Figure 6: per-optimization before/after on the most-affected query",
        "Figure 6",
    );
    let exp = Experiment::standard();
    let cryptdb = baselines::build_system(
        SystemKind::CryptDbClient,
        &exp.plain,
        &exp.workload,
        &exp.config,
    )
    .expect("cryptdb");
    let greedy = baselines::build_system(
        SystemKind::ExecutionGreedy,
        &exp.plain,
        &exp.workload,
        &exp.config,
    )
    .expect("greedy");
    let monomi =
        baselines::build_system(SystemKind::Monomi, &exp.plain, &exp.workload, &exp.config)
            .expect("monomi");

    let no_precomp = PlanOptions {
        use_precomputation: false,
        use_hom_aggregation: true,
        use_prefiltering: false,
    };
    let with_precomp = PlanOptions {
        use_precomputation: true,
        use_hom_aggregation: true,
        use_prefiltering: false,
    };
    let all = PlanOptions::default();

    println!("seconds: measured + modeled 10 Mbit/s link");
    println!(
        "{:<34} {:>12} {:>12}",
        "optimization (query)", "before (s)", "after (s)"
    );
    // Col packing: CryptDB-style per-column HOM vs grouped packing (Q1).
    let before = run_with(&cryptdb, &exp, 1, &no_precomp, true);
    let after = run_with(&greedy, &exp, 1, &no_precomp, true);
    println!(
        "{:<34} {:>12.3} {:>12.3}",
        "+Col packing (Q1)", before, after
    );

    // Precomputation: Q1 aggregates over expressions.
    let before = run_with(&greedy, &exp, 1, &no_precomp, true);
    let after = run_with(&greedy, &exp, 1, &with_precomp, true);
    println!(
        "{:<34} {:>12.3} {:>12.3}",
        "+Precomputation (Q1)", before, after
    );

    // Precomputation also dominates Q5/Q14-style revenue expressions.
    let before = run_with(&greedy, &exp, 5, &no_precomp, true);
    let after = run_with(&greedy, &exp, 5, &with_precomp, true);
    println!(
        "{:<34} {:>12.3} {:>12.3}",
        "+Precomputation (Q5)", before, after
    );

    // Pre-filtering: Q18's HAVING SUM(l_quantity) > k.
    let before = run_with(&greedy, &exp, 18, &with_precomp, true);
    let after = run_with(&greedy, &exp, 18, &all, true);
    println!(
        "{:<34} {:>12.3} {:>12.3}",
        "+Pre-filtering (Q18)", before, after
    );

    // Planner: greedy push-everything vs cost-based plan for Q18.
    let before = run_with(&greedy, &exp, 18, &all, true);
    let after = run_with(&monomi, &exp, 18, &all, false);
    println!("{:<34} {:>12.3} {:>12.3}", "+Planner (Q18)", before, after);

    println!("\n(Paper shape: each 'after' is at or below its 'before'.)");
}
