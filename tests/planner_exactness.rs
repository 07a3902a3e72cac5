//! The runtime planner's choice is exact. `Planner::best_plan` prices the
//! client fallback from per-table fetches memoized at setup, estimates the
//! query once for every candidate, and builds the no-HOM candidate only when
//! the query has a SUM or AVG. None of that may change a plan or a bit of its
//! cost: this suite checks it against the reference procedure below, which
//! builds all three candidates, prices each with `CostModel::plan_cost`,
//! compares them in the same order and narrows the winner's table fetches
//! with the same pass. The fallback is priced in its whole-table form.

use monomi_core::cost::{bind_params, CostBreakdown, CostModel, DecryptProfile};
use monomi_core::designer::Designer;
use monomi_core::plan::{
    client_fallback_plan, generate_query_plan, narrow_fetches, table_fetch_plan,
};
use monomi_core::{
    ClientConfig, Encryptor, MonomiClient, NetworkModel, PhysicalDesign, PlanOptions, Planner,
    SplitPlan,
};
use monomi_crypto::{MasterKey, PaillierKey};
use monomi_engine::{Database, Value};
use monomi_sql::{parse_query, Query};
use monomi_tpch::{datagen, queries};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The lookup templates of the benchmark's lookup workloads: three point
/// lookups and one 7-day range, with the column each key is sampled from.
const LOOKUPS: [(&str, &str, &str, i32); 4] = [
    (
        "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate \
         FROM orders WHERE o_orderkey = :1",
        "orders",
        "o_orderkey",
        0,
    ),
    (
        "SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = :1",
        "customer",
        "c_custkey",
        0,
    ),
    (
        "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice \
         FROM lineitem WHERE l_orderkey = :1",
        "lineitem",
        "l_orderkey",
        0,
    ),
    (
        "SELECT o_orderkey, o_totalprice FROM orders \
         WHERE o_orderdate >= :1 AND o_orderdate < :2",
        "orders",
        "o_orderdate",
        7,
    ),
];

/// Parameter sets sampled per lookup template.
const SAMPLES_PER_LOOKUP: usize = 50;

/// The option sets of the Figure 5 harness, beyond the default.
const FIG5_OPTIONS: [PlanOptions; 2] = [
    PlanOptions {
        use_precomputation: false,
        use_hom_aggregation: true,
        use_prefiltering: false,
    },
    PlanOptions {
        use_precomputation: true,
        use_hom_aggregation: true,
        use_prefiltering: false,
    },
];

fn cost_model<'a>(planner: &Planner<'a>) -> CostModel<'a> {
    CostModel {
        plain: planner.plain,
        profile: planner.profile,
        network: planner.network,
    }
}

/// Reference: every candidate built in full and priced by `plan_cost`; the
/// winner is then narrowed, its cost left as priced.
fn reference_best_plan(
    planner: &Planner<'_>,
    query: &Query,
    encryptor: &Encryptor,
) -> (SplitPlan, CostBreakdown) {
    let cost_model = cost_model(planner);
    let smart = generate_query_plan(query, planner.plain, encryptor, &planner.options);
    let smart_cost = cost_model.plan_cost(&smart, query);
    let fallback = client_fallback_plan(query, planner.plain, encryptor, &planner.options);
    let fallback_cost = cost_model.plan_cost(&fallback, query);
    let mut no_hom_options = planner.options;
    no_hom_options.use_hom_aggregation = false;
    let no_hom = generate_query_plan(query, planner.plain, encryptor, &no_hom_options);
    let no_hom_cost = cost_model.plan_cost(&no_hom, query);

    let mut best = (smart, smart_cost);
    if no_hom_cost.total() < best.1.total() {
        best = (no_hom, no_hom_cost);
    }
    if fallback_cost.total() < best.1.total() {
        best = (fallback, fallback_cost);
    }
    narrow_fetches(
        &mut best.0,
        query,
        planner.plain,
        encryptor,
        &planner.options,
    );
    best
}

fn cost_bits(c: &CostBreakdown) -> [u64; 4] {
    [
        c.server_seconds.to_bits(),
        c.network_seconds.to_bits(),
        c.decrypt_seconds.to_bits(),
        c.client_seconds.to_bits(),
    ]
}

fn tpch_workload() -> Vec<Query> {
    queries::workload()
        .iter()
        .map(|q| bind_params(&parse_query(q.sql).expect("TPC-H parses"), &q.params))
        .collect()
}

/// `SAMPLES_PER_LOOKUP` bound statements per lookup template, keys drawn
/// from generated rows so every lookup finds something.
fn sampled_lookups(plain: &Database, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for (sql, table, column, range_days) in LOOKUPS {
        let template = parse_query(sql).expect("lookup template parses");
        let table = plain.table(table).expect("TPC-H table exists");
        let column = table
            .schema()
            .column_index(column)
            .expect("key column exists");
        for _ in 0..SAMPLES_PER_LOOKUP {
            let key = table.value(rng.gen_range(0..table.row_count()), column);
            let params = match (key, range_days) {
                (key, 0) => vec![key],
                (Value::Date(day), span) => vec![Value::Date(day), Value::Date(day + span)],
                (other, _) => panic!("range over a non-date key {other:?}"),
            };
            out.push(bind_params(&template, &params));
        }
    }
    out
}

struct Setup {
    plain: Database,
    master: MasterKey,
    paillier: PaillierKey,
}

impl Setup {
    fn new(seed: u64) -> Setup {
        let plain = datagen::generate(&datagen::GeneratorConfig {
            scale_factor: 0.001,
            seed,
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let master = MasterKey::generate(&mut rng);
        let paillier = PaillierKey::generate(&mut rng, 256);
        Setup {
            plain,
            master,
            paillier,
        }
    }

    fn planner(&self, profile: DecryptProfile, options: PlanOptions) -> Planner<'_> {
        Planner {
            plain: &self.plain,
            master: &self.master,
            paillier: &self.paillier,
            profile,
            network: NetworkModel::paper_default(),
            options,
            paillier_bits: 256,
        }
    }

    fn design(&self, workload: &[Query], space_budget: Option<f64>) -> PhysicalDesign {
        let designer = Designer {
            plain: &self.plain,
            master: self.master.clone(),
            paillier: self.paillier.clone(),
            paillier_bits: 256,
            network: NetworkModel::paper_default(),
            profile: DecryptProfile::default(),
            options: PlanOptions::default(),
        };
        match space_budget {
            Some(s) => designer.with_space_budget(workload, s).design,
            None => designer.unconstrained(workload).design,
        }
    }

    fn encryptor(&self, design: PhysicalDesign) -> Encryptor {
        Encryptor::with_keys(self.master.clone(), self.paillier.clone(), design)
    }
}

/// Asserts `best_plan` equals the reference on every query, under the
/// default and the measured profile and under every option set. Returns
/// how many times the client fallback won, so a caller can check that the
/// path building it from the memo ran.
fn assert_exact(setup: &Setup, encryptor: &Encryptor, queries: &[Query], label: &str) -> usize {
    let mut fallbacks = 0;
    let measured = DecryptProfile::measure(encryptor, 2);
    for (profile_name, profile) in [
        ("default", DecryptProfile::default()),
        ("measured", measured),
    ] {
        for options in std::iter::once(PlanOptions::default()).chain(FIG5_OPTIONS) {
            let planner = setup.planner(profile, options);
            // Built under the default options, as a client builds it, and
            // shared by every option set.
            let fetches = setup
                .planner(profile, PlanOptions::default())
                .table_fetches(encryptor);
            for (i, query) in queries.iter().enumerate() {
                let (plan, cost) = planner.best_plan(query, encryptor, &fetches);
                let (ref_plan, ref_cost) = reference_best_plan(&planner, query, encryptor);
                let context = format!("{label}, {profile_name} profile, {options:?}, query {i}");
                assert_eq!(
                    format!("{plan:?}"),
                    format!("{ref_plan:?}"),
                    "plan differs: {context}"
                );
                assert_eq!(
                    cost_bits(&cost),
                    cost_bits(&ref_cost),
                    "cost differs: {context}: {cost:?} vs {ref_cost:?}"
                );
                if matches!(&plan, SplitPlan::Client { query: q, .. } if q == query) {
                    fallbacks += 1;
                }
                // The fallback on its own: it loses on most queries, where
                // the winner alone would not show it priced wrong.
                let model = cost_model(&planner);
                let reference = client_fallback_plan(query, planner.plain, encryptor, &options);
                assert_eq!(
                    format!("{:?}", fetches.fallback_plan(query, planner.plain)),
                    format!("{reference:?}"),
                    "fallback plan differs: {context}"
                );
                assert_eq!(
                    cost_bits(&fetches.fallback_cost(
                        &model,
                        query,
                        &planner.plain.estimate(query)
                    )),
                    cost_bits(&model.plan_cost(&reference, query)),
                    "fallback cost differs: {context}"
                );
            }
        }
    }
    fallbacks
}

#[test]
fn best_plan_matches_the_reference_on_tpch() {
    let workload = tpch_workload();
    for seed in [1, 2] {
        let setup = Setup::new(seed);
        for space_budget in [Some(2.0), None] {
            let encryptor = setup.encryptor(setup.design(&workload, space_budget));
            let label = format!("seed {seed}, budget {space_budget:?}");
            let fallbacks = assert_exact(&setup, &encryptor, &workload, &label);
            assert!(fallbacks > 0, "{label}: the fallback never won");
        }
    }
}

#[test]
fn best_plan_matches_the_reference_on_lookups() {
    let setup = Setup::new(3);
    let lookups = sampled_lookups(&setup.plain, 3);
    assert_eq!(lookups.len(), LOOKUPS.len() * SAMPLES_PER_LOOKUP);
    // The lookup workloads' design: unconstrained, over TPC-H plus one bound
    // statement per template.
    let mut workload = tpch_workload();
    workload.extend((0..LOOKUPS.len()).map(|t| lookups[t * SAMPLES_PER_LOOKUP].clone()));
    let encryptor = setup.encryptor(setup.design(&workload, None));
    assert_exact(&setup, &encryptor, &lookups, "lookups");
}

#[test]
fn the_client_plans_like_the_reference() {
    // Through the client's own planner and memo, built at setup.
    let setup = Setup::new(4);
    let workload = tpch_workload();
    let design = setup.design(&workload, Some(2.0));
    let config = ClientConfig {
        paillier_bits: 256,
        skip_profiling: true,
        ..Default::default()
    };
    let client = MonomiClient::from_design(
        &setup.plain,
        design.clone(),
        setup.master.clone(),
        setup.paillier.clone(),
        &config,
    )
    .expect("client builds");
    let encryptor = setup.encryptor(design);
    let planner = setup.planner(DecryptProfile::default(), PlanOptions::default());
    for q in queries::workload() {
        let bound = bind_params(&parse_query(q.sql).expect("TPC-H parses"), &q.params);
        let (reference, _) = reference_best_plan(&planner, &bound, &encryptor);
        let plan = client.plan(q.sql, &q.params).expect("plans");
        assert_eq!(
            format!("{plan:?}"),
            format!("{reference:?}"),
            "Q{}",
            q.number
        );
        for options in FIG5_OPTIONS {
            let planner = setup.planner(DecryptProfile::default(), options);
            let (reference, _) = reference_best_plan(&planner, &bound, &encryptor);
            let plan = client
                .plan_with_options(q.sql, &q.params, &options, false)
                .expect("plans");
            assert_eq!(
                format!("{plan:?}"),
                format!("{reference:?}"),
                "Q{}",
                q.number
            );
        }
    }
}

#[test]
fn table_fetches_do_not_depend_on_plan_options() {
    // What lets one memo serve `plan_with_options` under any option set.
    let setup = Setup::new(1);
    let workload = tpch_workload();
    for space_budget in [Some(2.0), None] {
        let encryptor = setup.encryptor(setup.design(&workload, space_budget));
        for table in setup.plain.table_names() {
            let fetch = |options: PlanOptions| {
                format!(
                    "{:?}",
                    table_fetch_plan(&table, None, &[], &setup.plain, &encryptor, &options)
                )
            };
            let default = fetch(PlanOptions::default());
            for bits in 0..8u8 {
                let options = PlanOptions {
                    use_precomputation: bits & 1 != 0,
                    use_hom_aggregation: bits & 2 != 0,
                    use_prefiltering: bits & 4 != 0,
                };
                assert_eq!(fetch(options), default, "{table} under {options:?}");
            }
        }
    }
}
