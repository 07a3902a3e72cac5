//! Figure 9: the queries affected by shrinking the space budget from S=2 to
//! S=1.4, under the ILP designer and the Space-Greedy heuristic. Each time is
//! measured plus the paper's 10 Mbit/s link, modeled over the run's
//! transferred bytes.

use monomi_bench::{print_header, Experiment};
use monomi_core::client::{ClientConfig, DesignStrategy, MonomiClient};
use monomi_sql::parse_query;
use monomi_tpch::with_modeled_link;

fn main() {
    print_header(
        "Figure 9: performance under a reduced space budget",
        "Figure 9",
    );
    let exp = Experiment::standard();
    let parsed: Vec<_> = exp
        .workload
        .iter()
        .map(|q| parse_query(q.sql).expect("parses"))
        .collect();

    let configs: Vec<(&str, DesignStrategy, f64)> = vec![
        ("S=2.0 (ILP)", DesignStrategy::Designer, 2.0),
        ("S=1.4 Space-Greedy", DesignStrategy::SpaceGreedy, 1.4),
        ("S=1.4 MONOMI (ILP)", DesignStrategy::Designer, 1.4),
    ];
    let affected = [1u32, 6, 14, 18];

    println!("seconds: measured + modeled 10 Mbit/s link");
    println!(
        "{:<22} {}",
        "configuration",
        affected
            .map(|q| format!("{:>10}", format!("Q{q}(s)")))
            .join("")
    );
    for (label, strategy, budget) in configs {
        let config = ClientConfig {
            space_budget: Some(budget),
            ..exp.config.clone()
        };
        let (client, _) =
            MonomiClient::setup(&exp.plain, &parsed, strategy, &config).expect("setup");
        let mut row = format!("{label:<22}");
        for number in affected {
            let q = monomi_tpch::queries::query(number).expect("query");
            let t = client
                .execute(q.sql, &q.params)
                .map(|(_, t)| with_modeled_link(&t, &exp.network))
                .unwrap_or(f64::NAN);
            row.push_str(&format!("{t:>10.3}"));
        }
        println!("{row}");
    }
    println!("\n(Paper shape: at S=1.4 the ILP design degrades these queries far less than Space-Greedy.)");
}
