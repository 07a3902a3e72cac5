//! Figure 4: execution time of TPC-H queries under CryptDB+Client,
//! Execution-Greedy, and MONOMI, normalized to plaintext execution. Each
//! time is measured plus the paper's 10 Mbit/s link, modeled over the run's
//! transferred bytes.

use monomi_bench::{print_header, Experiment};
use monomi_tpch::{baselines, baselines::SystemKind, with_modeled_link};

fn main() {
    print_header("Figure 4: per-query overhead vs. plaintext", "Figure 4");
    let exp = Experiment::standard();
    let systems = [
        SystemKind::CryptDbClient,
        SystemKind::ExecutionGreedy,
        SystemKind::Monomi,
    ];
    let mut setups = Vec::new();
    for kind in systems {
        eprintln!("setting up {kind}...");
        setups.push(
            baselines::build_system(kind, &exp.plain, &exp.workload, &exp.config)
                .expect("system setup"),
        );
    }

    println!("seconds: measured + modeled 10 Mbit/s link");
    println!(
        "{:<5} {:>12} {:>16} {:>18} {:>12}",
        "query", "plaintext(s)", "CryptDB+Client", "Execution-Greedy", "MONOMI"
    );
    let mut overheads: Vec<f64> = Vec::new();
    for q in &exp.workload {
        let plain_run = baselines::run_plaintext(&exp.plain, q).expect("plaintext run");
        let base = with_modeled_link(&plain_run.timings, &exp.network).max(1e-9);
        let mut row = format!("Q{:<4} {:>12.3}", q.number, base);
        for setup in &setups {
            match setup.run(&exp.plain, q) {
                Ok(run) => {
                    let ratio = with_modeled_link(&run.timings, &exp.network) / base;
                    row.push_str(&format!(" {:>15.2}x", ratio));
                    if setup.kind == SystemKind::Monomi {
                        overheads.push(ratio);
                    }
                }
                Err(e) => row.push_str(&format!(" {:>15}", format!("err:{}", e.message))),
            }
        }
        println!("{row}");
    }
    overheads.sort_by(f64::total_cmp);
    if !overheads.is_empty() {
        let median = overheads[overheads.len() / 2];
        println!(
            "\nMONOMI median overhead (modeled 10 Mbit/s link): {:.2}x (paper: 1.24x, range 1.03x–2.33x)",
            median
        );
    }
}
