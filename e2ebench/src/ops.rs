//! The operations a pass is made of: the twelve TPC-H queries, or a seeded
//! stream of point and range lookups over four templates.

use monomi_engine::{Database, Value};
use monomi_sql::{parse_query, Query};
use monomi_tpch::queries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One statement shape; operations of a kind differ only in parameters.
#[derive(Clone, Debug)]
pub struct OpKind {
    /// Short name used in reports (`Q1`, `orders_by_key`).
    pub name: String,
    /// SQL text with `:n` placeholders.
    pub sql: String,
    /// True for the point-lookup templates, each of whose executions must
    /// probe an index.
    pub point: bool,
}

/// One operation: a kind and the parameter values bound to it.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// Index into the workload's kinds.
    pub kind: usize,
    pub params: Vec<Value>,
}

/// A lookup template: the table and column its keys are sampled from.
struct Template {
    name: &'static str,
    sql: &'static str,
    table: &'static str,
    column: &'static str,
    /// A range of this many days starting at the sampled key; 0 for a point.
    range_days: i32,
}

const TEMPLATES: [Template; 4] = [
    Template {
        name: "orders_by_key",
        sql: "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate \
              FROM orders WHERE o_orderkey = :1",
        table: "orders",
        column: "o_orderkey",
        range_days: 0,
    },
    Template {
        name: "customer_by_key",
        sql: "SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = :1",
        table: "customer",
        column: "c_custkey",
        range_days: 0,
    },
    Template {
        name: "lineitem_by_order",
        sql: "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice \
              FROM lineitem WHERE l_orderkey = :1",
        table: "lineitem",
        column: "l_orderkey",
        range_days: 0,
    },
    Template {
        name: "orders_by_week",
        sql: "SELECT o_orderkey, o_totalprice FROM orders \
              WHERE o_orderdate >= :1 AND o_orderdate < :2",
        table: "orders",
        column: "o_orderdate",
        range_days: 7,
    },
];

/// Index of the range template among the lookup kinds.
const RANGE_TEMPLATE: usize = 3;

/// The TPC-H queries whose name (`Q1`, ...) `keep` accepts: the kinds in the
/// order a pass runs them, and one pass (each query once, with its default
/// parameters).
pub fn tpch_pass(keep: impl Fn(&str) -> bool) -> (Vec<OpKind>, Vec<Op>) {
    queries::workload()
        .into_iter()
        .map(|q| (format!("Q{}", q.number), q))
        .filter(|(name, _)| keep(name))
        .enumerate()
        .map(|(kind, (name, q))| {
            let kind_def = OpKind {
                name,
                sql: q.sql.to_string(),
                point: false,
            };
            (
                kind_def,
                Op {
                    kind,
                    params: q.params,
                },
            )
        })
        .unzip()
}

/// The four lookup templates as kinds.
pub fn lookup_kinds() -> Vec<OpKind> {
    TEMPLATES
        .iter()
        .map(|t| OpKind {
            name: t.name.to_string(),
            sql: t.sql.to_string(),
            point: t.range_days == 0,
        })
        .collect()
}

/// `count` lookups drawn by `seed`: nine in ten are point lookups, spread
/// evenly over the three point templates, one in ten is a 7-day range. Each
/// key is the value of a uniformly chosen generated row, so every lookup
/// finds at least one row.
pub fn sample_lookups(plain: &Database, seed: u64, count: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6c6f_6f6b_7570); // "lookup"
    let columns: Vec<(&monomi_engine::Table, usize)> = TEMPLATES
        .iter()
        .map(|t| {
            let table = plain.table(t.table).expect("TPC-H table exists");
            let column = table
                .schema()
                .column_index(t.column)
                .expect("key column exists");
            (table, column)
        })
        .collect();
    (0..count)
        .map(|_| {
            let kind = if rng.gen_range(0..10usize) == 0 {
                RANGE_TEMPLATE
            } else {
                rng.gen_range(0..RANGE_TEMPLATE)
            };
            let (table, column) = columns[kind];
            let key = table.value(rng.gen_range(0..table.row_count()), column);
            let params = match (&key, TEMPLATES[kind].range_days) {
                (_, 0) => vec![key],
                (Value::Date(day), span) => vec![Value::Date(*day), Value::Date(*day + span)],
                (other, _) => panic!("range template over a non-date key {other:?}"),
            };
            Op { kind, params }
        })
        .collect()
}

/// The statements handed to the designer: the TPC-H workload, and for the
/// lookup workloads the four templates bound to representative keys.
pub fn designer_workload(plain: &Database, with_lookups: bool) -> Vec<Query> {
    let mut workload: Vec<Query> = queries::workload()
        .iter()
        .map(|q| parse_query(q.sql).expect("TPC-H query parses"))
        .collect();
    if with_lookups {
        // One sampled lookup of each kind stands for the template.
        let samples = sample_lookups(plain, 0, 256);
        for (kind, template) in lookup_kinds().iter().enumerate() {
            let op = samples
                .iter()
                .find(|op| op.kind == kind)
                .expect("256 draws hit each of four templates");
            let parsed = parse_query(&template.sql).expect("lookup template parses");
            workload.push(monomi_core::cost::bind_params(&parsed, &op.params));
        }
    }
    workload
}

#[cfg(test)]
mod tests {
    use super::*;
    use monomi_tpch::datagen;

    fn tiny() -> Database {
        datagen::generate(&datagen::GeneratorConfig {
            scale_factor: 0.0005,
            seed: 3,
        })
    }

    #[test]
    fn the_same_seed_samples_the_same_lookups() {
        let plain = tiny();
        let a = sample_lookups(&plain, 11, 500);
        assert_eq!(a, sample_lookups(&plain, 11, 500));
        assert_ne!(a, sample_lookups(&plain, 12, 500));
        // A longer stream starts with the shorter one.
        assert_eq!(a[..], sample_lookups(&plain, 11, 700)[..500]);
    }

    #[test]
    fn the_mix_is_nine_points_to_one_range_and_every_key_exists() {
        let plain = tiny();
        let ops = sample_lookups(&plain, 5, 4000);
        let ranges = ops.iter().filter(|op| op.kind == RANGE_TEMPLATE).count();
        assert!((300..500).contains(&ranges), "{ranges} ranges of 4000");
        for kind in 0..RANGE_TEMPLATE {
            let n = ops.iter().filter(|op| op.kind == kind).count();
            assert!((1000..1400).contains(&n), "template {kind}: {n} of 4000");
        }
        for op in ops.iter().take(50) {
            let sql = &lookup_kinds()[op.kind].sql;
            let (rows, _) = plain.execute_sql(sql, &op.params).expect("lookup runs");
            assert!(!rows.rows.is_empty(), "{sql} {:?} found nothing", op.params);
            assert_eq!(
                op.params.len(),
                if op.kind == RANGE_TEMPLATE { 2 } else { 1 }
            );
        }
    }

    #[test]
    fn the_designer_sees_bound_lookup_templates() {
        let plain = tiny();
        let (kinds, pass) = tpch_pass(|_| true);
        assert_eq!((kinds.len(), pass.len()), (12, 12));
        let (kinds, pass) = tpch_pass(|name| name != "Q12");
        assert_eq!((kinds.len(), pass.len()), (11, 11));
        assert!(kinds.iter().all(|k| k.name != "Q12") && pass[10].kind == 10);
        let (kinds, pass) = tpch_pass(|name| name == "Q12");
        assert_eq!(
            (kinds[0].name.as_str(), pass[0].kind, pass.len()),
            ("Q12", 0, 1)
        );
        assert_eq!(designer_workload(&plain, false).len(), 12);
        let with = designer_workload(&plain, true);
        assert_eq!(with.len(), 12 + 4);
        assert!(!with.last().expect("non-empty").to_string().contains(':'));
    }
}
