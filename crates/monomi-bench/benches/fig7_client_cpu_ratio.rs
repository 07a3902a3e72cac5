//! Figure 7: ratio of client CPU time under MONOMI to the time a local
//! plaintext execution of the same query would take. Both sides are
//! measured; no link is involved, so none is modeled.

use monomi_bench::{print_header, Experiment};
use monomi_tpch::{baselines, baselines::SystemKind};

fn main() {
    print_header(
        "Figure 7: client CPU time vs. local plaintext execution",
        "Figure 7",
    );
    let exp = Experiment::standard();
    let monomi =
        baselines::build_system(SystemKind::Monomi, &exp.plain, &exp.workload, &exp.config)
            .expect("monomi setup");

    println!("seconds: measured (no modeled link)");
    println!(
        "{:<6} {:>16} {:>16} {:>10}",
        "query", "client CPU (s)", "local plain (s)", "ratio"
    );
    for q in &exp.workload {
        let plain_run = baselines::run_plaintext(&exp.plain, q).expect("plaintext");
        let monomi_run = match monomi.run(&exp.plain, q) {
            Ok(r) => r,
            Err(e) => {
                println!("Q{:<5} error: {}", q.number, e.message);
                continue;
            }
        };
        let local = plain_run.timings.server_seconds.max(1e-9);
        let client_cpu = monomi_run.timings.client_cpu_seconds();
        println!(
            "Q{:<5} {:>16.4} {:>16.4} {:>10.3}",
            q.number,
            client_cpu,
            local,
            client_cpu / local
        );
    }
    println!("\n(Paper shape: ratio < 1 for most queries; decrypt-heavy queries exceed 1.)");
}
