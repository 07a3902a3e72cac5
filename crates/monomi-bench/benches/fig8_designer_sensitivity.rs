//! Figure 8: total workload runtime and designer cost estimate when the
//! designer only sees the best k of the workload queries. Workload time is
//! measured plus the paper's 10 Mbit/s link, modeled over each run's
//! transferred bytes.

use monomi_bench::{print_header, Experiment};
use monomi_core::client::{ClientConfig, DesignStrategy, MonomiClient};
use monomi_sql::parse_query;
use monomi_tpch::with_modeled_link;

fn main() {
    print_header(
        "Figure 8: sensitivity of the design to the number of input queries",
        "Figure 8",
    );
    let exp = Experiment::standard();
    let parsed: Vec<_> = exp
        .workload
        .iter()
        .map(|q| parse_query(q.sql).expect("parses"))
        .collect();

    // The paper's best k=4 subset contains the queries that exercise the key
    // features: scan-heavy aggregation with precomputed expressions (Q1) and
    // selective filtering over lineitem (Q4/Q19-style); we mirror that here.
    let subsets: Vec<(String, Vec<usize>)> = vec![
        ("k=0 (no input)".into(), vec![]),
        ("k=1 (Q1)".into(), vec![0]),
        ("k=2 (Q1,Q19)".into(), vec![0, 10]),
        ("k=4 (Q1,Q4,Q14,Q19)".into(), vec![0, 2, 8, 10]),
        ("k=all".into(), (0..exp.workload.len()).collect()),
    ];

    println!("workload time: measured + modeled 10 Mbit/s link");
    println!(
        "{:<22} {:>18} {:>22}",
        "designer input", "workload time (s)", "designer cost estimate"
    );
    for (label, idxs) in subsets {
        let input: Vec<_> = idxs.iter().map(|&i| parsed[i].clone()).collect();
        let config = ClientConfig {
            ..exp.config.clone()
        };
        let (client, outcome) =
            MonomiClient::setup(&exp.plain, &input, DesignStrategy::Designer, &config)
                .expect("setup");
        let mut total = 0.0;
        for q in &exp.workload {
            match client.execute(q.sql, &q.params) {
                Ok((_, t)) => total += with_modeled_link(&t, &exp.network),
                Err(_) => total += f64::NAN,
            }
        }
        println!(
            "{:<22} {:>18.3} {:>22.3}",
            label, total, outcome.estimated_cost
        );
    }
    println!(
        "\n(Paper shape: a few well-chosen queries reach the full-workload design's performance.)"
    );
}
