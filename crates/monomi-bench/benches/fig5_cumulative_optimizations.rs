//! Figure 5: aggregate TPC-H execution time as MONOMI's optimizations are
//! enabled cumulatively on top of the CryptDB+Client strawman. Each time is
//! measured plus the paper's 10 Mbit/s link, modeled over the run's
//! transferred bytes.

use monomi_bench::{print_header, Experiment};
use monomi_core::plan::PlanOptions;
use monomi_tpch::{baselines, baselines::SystemKind, with_modeled_link};

struct Level {
    name: &'static str,
    kind: SystemKind,
    options: PlanOptions,
    use_planner: bool,
}

fn main() {
    print_header(
        "Figure 5: cumulative effect of MONOMI's optimization techniques",
        "Figure 5",
    );
    let exp = Experiment::standard();
    let levels = [
        Level {
            name: "CryptDB+Client",
            kind: SystemKind::CryptDbClient,
            options: PlanOptions {
                use_precomputation: false,
                use_hom_aggregation: true,
                use_prefiltering: false,
            },
            use_planner: false,
        },
        Level {
            name: "+Col packing",
            kind: SystemKind::ExecutionGreedy,
            options: PlanOptions {
                use_precomputation: false,
                use_hom_aggregation: true,
                use_prefiltering: false,
            },
            use_planner: false,
        },
        Level {
            name: "+Precomputation",
            kind: SystemKind::ExecutionGreedy,
            options: PlanOptions {
                use_precomputation: true,
                use_hom_aggregation: true,
                use_prefiltering: false,
            },
            use_planner: false,
        },
        Level {
            name: "+Other (pre-filtering)",
            kind: SystemKind::ExecutionGreedy,
            options: PlanOptions::default(),
            use_planner: false,
        },
        Level {
            name: "+Planner (MONOMI)",
            kind: SystemKind::Monomi,
            options: PlanOptions::default(),
            use_planner: true,
        },
    ];

    println!("seconds: measured + modeled 10 Mbit/s link");
    println!(
        "{:<26} {:>12} {:>16}",
        "configuration", "mean (s)", "geometric mean (s)"
    );
    for level in levels {
        let setup = baselines::build_system(level.kind, &exp.plain, &exp.workload, &exp.config)
            .expect("setup");
        let mut times = Vec::new();
        for q in &exp.workload {
            let run = if level.use_planner || level.kind == SystemKind::CryptDbClient {
                setup.run(&exp.plain, q)
            } else {
                // Greedy execution with the level's option set.
                let client = setup.client.as_ref().expect("client");
                client
                    .plan_with_options(q.sql, &q.params, &level.options, true)
                    .and_then(|plan| client.execute_plan(&plan))
                    .map(|(result, timings)| baselines::QueryRun {
                        query_number: q.number,
                        system: level.kind,
                        timings,
                        result,
                    })
            };
            if let Ok(run) = run {
                times.push(with_modeled_link(&run.timings, &exp.network));
            }
        }
        if times.is_empty() {
            // Every query at this level errored; don't fabricate means
            // (exp(0/1) would print a nonexistent 1.000 s geometric mean).
            println!("{:<26} {:>12} {:>16}", level.name, "n/a", "n/a");
            continue;
        }
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let geo = (times.iter().map(|t| t.max(1e-9).ln()).sum::<f64>() / times.len() as f64).exp();
        println!("{:<26} {:>12.3} {:>16.3}", level.name, mean, geo);
    }
    println!("\n(Paper shape: each added technique reduces both means; the planner never hurts.)");
}
