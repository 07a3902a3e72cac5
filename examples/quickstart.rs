//! Quickstart: encrypt a small database, run an analytical query over it on an
//! untrusted server, and read back plaintext results on the trusted client.
//!
//! Run with: `cargo run --release --example quickstart`

use monomi_core::{ClientConfig, DesignStrategy, MonomiClient};
use monomi_engine::{ColumnDef, ColumnType, Database, TableSchema, Value};
use monomi_sql::parse_query;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A plaintext database on the trusted side: a sales table.
    let mut plain = Database::new();
    plain.create_table(TableSchema::new(
        "sales",
        vec![
            ColumnDef::new("region", ColumnType::Str),
            ColumnDef::new("product", ColumnType::Str),
            ColumnDef::new("quantity", ColumnType::Int),
            ColumnDef::new("price", ColumnType::Int),
        ],
    ));
    let regions = ["north", "south", "east", "west"];
    let products = ["widget", "gadget", "sprocket"];
    for i in 0..500i64 {
        plain.insert(
            "sales",
            vec![
                Value::Str(regions[i as usize % regions.len()].into()),
                Value::Str(products[i as usize % products.len()].into()),
                Value::Int(1 + i % 7),
                Value::Int(100 + (i * 13) % 900),
            ],
        )?;
    }

    // 2. Tell the designer what the workload looks like.
    let workload = vec![
        parse_query("SELECT region, SUM(quantity * price) FROM sales GROUP BY region")?,
        parse_query("SELECT product, COUNT(*) FROM sales WHERE price > 500 GROUP BY product")?,
    ];

    // 3. Set up MONOMI: the designer picks a physical design, the data is
    //    encrypted, and the encrypted tables become the untrusted server.
    let config = ClientConfig {
        paillier_bits: 256,
        skip_profiling: true,
        ..Default::default()
    };
    let (client, outcome) =
        MonomiClient::setup(&plain, &workload, DesignStrategy::Designer, &config)?;
    println!(
        "designer chose {} encrypted targets in {:.2}s",
        client.design().total_targets(),
        outcome.setup_seconds
    );

    // 4. Run queries. The server only ever sees ciphertext; the client gets
    //    plaintext answers plus a timing breakdown.
    let (rows, timings) = client.execute(
        "SELECT region, SUM(quantity * price) AS revenue FROM sales GROUP BY region ORDER BY revenue DESC",
        &[],
    )?;
    println!("\nrevenue by region (computed over encrypted data):");
    for row in &rows.rows {
        println!("  {:8} {}", row[0], row[1]);
    }
    println!(
        "\nserver {:.4}s | wire {:.4}s | decrypt {:.4}s | client {:.4}s",
        timings.server_seconds,
        timings.wire_seconds,
        timings.decrypt_seconds,
        timings.client_seconds
    );

    // 5. Show what the plan looked like.
    let plan = client.plan(
        "SELECT region, SUM(quantity * price) FROM sales GROUP BY region",
        &[],
    )?;
    println!("\nsplit plan: {}", plan.describe());
    Ok(())
}
