//! TPC-H analytics over encrypted data: generates a small TPC-H database,
//! sets up MONOMI and the plaintext baseline, and compares per-query runtimes
//! — a miniature version of the paper's Figure 4. Times are measured, plus
//! the paper's 10 Mbit/s link modeled over each run's transferred bytes.
//!
//! Run with: `cargo run --release --example tpch_analytics`

use monomi_core::NetworkModel;
use monomi_tpch::{baselines, datagen, fast_config, queries, with_modeled_link};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let plain = datagen::generate(&datagen::GeneratorConfig {
        scale_factor: 0.002,
        ..Default::default()
    });
    println!(
        "generated TPC-H data: {} lineitem rows, {:.1} MB plaintext",
        plain.table("lineitem").unwrap().row_count(),
        plain.total_size_bytes() as f64 / 1e6
    );

    let workload = queries::workload();
    let network = NetworkModel::paper_default();
    let config = fast_config();

    println!("setting up MONOMI (designer + encrypted load)...");
    let monomi =
        baselines::build_system(baselines::SystemKind::Monomi, &plain, &workload, &config)?;

    println!("\nseconds: measured + modeled 10 Mbit/s link");
    println!("  Q    plaintext    MONOMI     overhead   plan");
    for q in &workload {
        let plain_run = baselines::run_plaintext(&plain, q)?;
        let monomi_run = monomi.run(&plain, q)?;
        let plain_seconds = with_modeled_link(&plain_run.timings, &network);
        let monomi_seconds = with_modeled_link(&monomi_run.timings, &network);
        let plan = monomi
            .client
            .as_ref()
            .unwrap()
            .plan(q.sql, &q.params)?
            .describe();
        println!(
            "  Q{:<3} {:>8.3}s  {:>8.3}s   {:>6.2}x   {}",
            q.number,
            plain_seconds,
            monomi_seconds,
            monomi_seconds / plain_seconds.max(1e-9),
            plan.chars().take(60).collect::<String>()
        );
        // Sanity: answers must match row counts.
        assert_eq!(plain_run.result.len(), monomi_run.result.len());
    }
    Ok(())
}
