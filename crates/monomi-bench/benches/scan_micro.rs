//! Scan microbenchmark: the vectorized selection-vector scan with late
//! materialization, on TPC-H Q1/Q6-shaped single-table filters over
//! `lineitem`.
//!
//! The scan evaluates compiled predicates directly over the column slices
//! and clones only the survivors' referenced columns. Before timing, its
//! output is checked against row-at-a-time evaluation: the predicate bound
//! once as a `BoundExpr` and evaluated over every materialized row.

use monomi_bench::print_header;
use monomi_engine::{
    apply_predicate, compile_predicate, BoundExpr, NoSubqueries, RowSchema, SelectionVector, Table,
    Value,
};
use monomi_sql::ast::Expr;
use monomi_sql::parse_query;
use monomi_store::env_knob;
use monomi_tpch::datagen;
use std::time::Instant;

/// A named single-table filter plus the columns the query would materialize.
struct ScanCase {
    name: &'static str,
    where_sql: &'static str,
    /// Column names referenced by the full query (projection + predicates):
    /// what late materialization keeps.
    referenced: &'static [&'static str],
}

const CASES: &[ScanCase] = &[
    ScanCase {
        name: "Q6-shaped (selective)",
        where_sql: "l_shipdate >= DATE '1994-01-01' \
                    AND l_shipdate < DATE '1994-01-01' + INTERVAL '1' YEAR \
                    AND l_discount BETWEEN 5 AND 7 AND l_quantity < 24",
        referenced: &["l_extendedprice", "l_discount", "l_shipdate", "l_quantity"],
    },
    ScanCase {
        name: "Q1-shaped (low selectivity)",
        where_sql: "l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY",
        referenced: &[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
    },
];

/// The oracle: materialize every row of the table, filter row-at-a-time, then
/// keep only the referenced columns of the survivors.
fn row_at_a_time_scan(
    table: &Table,
    schema: &RowSchema,
    pred: &Expr,
    referenced: &[usize],
) -> Vec<Vec<Value>> {
    let resolve = |e: &Expr| match e {
        Expr::Column(c) => schema.resolve(c).map(BoundExpr::Column),
        _ => None,
    };
    let pred = BoundExpr::bind(pred, &resolve, &|_| None);
    table
        .rows()
        .into_iter()
        .filter(|row| {
            pred.eval(row, &NoSubqueries)
                .expect("predicate evaluates")
                .as_bool()
                .unwrap_or(false)
        })
        .map(|row| referenced.iter().map(|&c| row[c].clone()).collect())
        .collect()
}

/// The vectorized scan: compiled predicate over column slices, then late
/// materialization of the survivors' referenced columns.
fn vectorized_scan(
    table: &Table,
    schema: &RowSchema,
    pred: &Expr,
    referenced: &[usize],
) -> Vec<Vec<Value>> {
    let batch = table.tail_batch();
    let compiled = compile_predicate(pred, schema, &[]);
    let selection = apply_predicate(&compiled, &batch, &SelectionVector::all(table.row_count()))
        .expect("columnar filter");
    batch.gather(&selection, referenced)
}

fn median_seconds(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    print_header(
        "Scan microbenchmark: vectorized scan with late materialization",
        "the §8 server-side scan substrate",
    );
    let scale = env_knob("MONOMI_SCALE", 0.02, |s: &f64| s.is_finite() && *s > 0.0);
    let iters = env_knob("MONOMI_BENCH_ITERS", 9, |&n: &usize| n >= 1);
    let db = datagen::generate(&datagen::GeneratorConfig {
        scale_factor: scale,
        ..Default::default()
    });
    let generated = db.table("lineitem").expect("lineitem exists");
    // This bench measures the scan over in-memory columns
    // (`Table::tail_batch`), so copy the generated rows into a table without
    // a store — under MONOMI_STORAGE=disk they were committed to segments
    // (that path is measured by e2ebench's store.*_scan_mb_s).
    let mut table = Table::new(generated.schema().clone());
    table.bulk_load(generated.rows()).expect("memory copy");
    let table = &table;
    let schema = RowSchema::new(
        table
            .schema()
            .columns
            .iter()
            .map(|c| (Some("lineitem".to_string()), c.name.clone()))
            .collect(),
    );
    println!(
        "lineitem: {} rows, {:.1} MB (MONOMI_SCALE={scale})\n",
        table.row_count(),
        table.size_bytes() as f64 / 1e6
    );
    println!("{:<28} {:>10} {:>12}", "filter", "rows out", "scan");

    for case in CASES {
        let parsed = parse_query(&format!(
            "SELECT l_orderkey FROM lineitem WHERE {}",
            case.where_sql
        ))
        .expect("filter parses");
        let pred = parsed.where_clause.expect("has WHERE");
        let referenced: Vec<usize> = case
            .referenced
            .iter()
            .map(|name| {
                table
                    .schema()
                    .columns
                    .iter()
                    .position(|c| c.name == *name)
                    .expect("referenced column exists")
            })
            .collect();

        // Correctness first: the scan must select what the oracle selects.
        let expected = row_at_a_time_scan(table, &schema, &pred, &referenced);
        let got = vectorized_scan(table, &schema, &pred, &referenced);
        assert_eq!(
            expected, got,
            "scan disagrees with the oracle on {}",
            case.name
        );

        let mut samples = Vec::with_capacity(iters);
        for _ in 0..iters {
            let start = Instant::now();
            std::hint::black_box(vectorized_scan(table, &schema, &pred, &referenced));
            samples.push(start.elapsed().as_secs_f64());
        }
        println!(
            "{:<28} {:>10} {:>10.3}ms",
            case.name,
            expected.len(),
            median_seconds(samples) * 1e3
        );
    }
}
