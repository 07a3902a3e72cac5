//! The MONOMI physical designer (§6): chooses which encryptions of which
//! expressions to materialize on the server, optionally under a space budget,
//! using the planner's cost model.
//!
//! Three strategies are provided, matching the paper's evaluation:
//!
//! * [`Designer::unconstrained`] — §6.2: per-query best sets, unioned.
//! * [`Designer::with_space_budget`] — §6.5: the ILP formulation, solved with
//!   the branch-and-bound solver in [`ilp`].
//! * [`Designer::space_greedy`] — the Space-Greedy baseline of §8.6 (drop the
//!   largest column until the budget is met).

use crate::cost::DecryptProfile;
use crate::design::PhysicalDesign;
use crate::network::NetworkModel;
use crate::plan::PlanOptions;
use crate::planner::{extract_enc_units, EncPair, Planner};
use crate::schemes::EncScheme;
use monomi_crypto::{MasterKey, PaillierKey};
use monomi_engine::{ColumnType, Database};
use monomi_sql::ast::Query;
use std::collections::BTreeSet;

/// The designer.
pub struct Designer<'a> {
    pub plain: &'a Database,
    pub master: MasterKey,
    pub paillier: PaillierKey,
    pub paillier_bits: usize,
    pub network: NetworkModel,
    pub profile: DecryptProfile,
    pub options: PlanOptions,
}

/// Outcome of a designer run.
#[derive(Clone, Debug)]
pub struct DesignOutcome {
    pub design: PhysicalDesign,
    /// Estimated total workload cost (seconds) under the chosen design.
    pub estimated_cost: f64,
    /// Designer wall-clock time in seconds (the paper reports 52 s for TPC-H).
    pub setup_seconds: f64,
}

impl<'a> Designer<'a> {
    fn planner(&self) -> Planner<'_> {
        Planner {
            plain: self.plain,
            master: &self.master,
            paillier: &self.paillier,
            profile: self.profile,
            network: self.network,
            options: self.options,
            paillier_bits: self.paillier_bits,
        }
    }

    /// §6.2: for each query choose the cheapest plan over the pruned power set
    /// of its EncSet; the design is the union of the chosen pairs.
    pub fn unconstrained(&self, workload: &[Query]) -> DesignOutcome {
        let started = std::time::Instant::now();
        let planner = self.planner();
        let mut chosen: BTreeSet<EncPair> = BTreeSet::new();
        let mut total_cost = 0.0;
        for query in workload {
            let units = extract_enc_units(query, self.plain);
            let candidates = planner.candidate_plans(query, &units);
            if let Some(best) = candidates.first() {
                total_cost += best.cost.total();
                for &ui in &best.enabled_units {
                    for p in &units[ui].pairs {
                        chosen.insert(p.clone());
                    }
                }
            }
        }
        let design = self.design_from_pairs(&chosen);
        DesignOutcome {
            design,
            estimated_cost: total_cost,
            setup_seconds: started.elapsed().as_secs_f64(),
        }
    }

    /// §6.5: minimize total workload cost subject to the server space budget
    /// `space_factor × plaintext size`, via the ILP formulation.
    pub fn with_space_budget(&self, workload: &[Query], space_factor: f64) -> DesignOutcome {
        let started = std::time::Instant::now();
        let planner = self.planner();
        let plain_bytes = self.plain.total_size_bytes() as f64;
        let budget = space_factor * plain_bytes;

        // Baseline (DET/RND coverage of every column) is mandatory; its size is
        // the floor every candidate pays.
        let baseline = self.design_from_pairs(&BTreeSet::new());
        let baseline_bytes = baseline.storage_bytes(self.plain, &self.paillier) as f64;

        // Per query: candidate plans (cheapest-first), each with the pairs it
        // needs. This is the cost(i, j) matrix of the ILP.
        let mut all_pairs: Vec<EncPair> = Vec::new();
        let mut per_query: Vec<Vec<(f64, Vec<usize>)>> = Vec::new();
        for query in workload {
            let units = extract_enc_units(query, self.plain);
            let candidates = planner.candidate_plans(query, &units);
            let mut rows = Vec::new();
            for cand in candidates.iter().take(8) {
                let mut pair_idx = Vec::new();
                for &ui in &cand.enabled_units {
                    for p in &units[ui].pairs {
                        let idx = match all_pairs.iter().position(|q| q == p) {
                            Some(i) => i,
                            None => {
                                all_pairs.push(p.clone());
                                all_pairs.len() - 1
                            }
                        };
                        if !pair_idx.contains(&idx) {
                            pair_idx.push(idx);
                        }
                    }
                }
                rows.push((cand.cost.total(), pair_idx));
            }
            if rows.is_empty() {
                rows.push((f64::INFINITY, Vec::new()));
            }
            per_query.push(rows);
        }

        // Incremental size of each pair beyond the baseline.
        let pair_sizes: Vec<f64> = all_pairs.iter().map(|p| self.pair_size_bytes(p)).collect();

        let problem = ilp::DesignProblem {
            per_query,
            pair_sizes,
            budget: (budget - baseline_bytes).max(0.0),
        };
        let solution = ilp::solve(&problem);
        let mut chosen: BTreeSet<EncPair> = BTreeSet::new();
        for (i, enabled) in solution.enabled_pairs.iter().enumerate() {
            if *enabled {
                chosen.insert(all_pairs[i].clone());
            }
        }
        let design = self.design_from_pairs(&chosen);
        DesignOutcome {
            design,
            estimated_cost: solution.cost,
            setup_seconds: started.elapsed().as_secs_f64(),
        }
    }

    /// Space-Greedy baseline (§8.6): start from the unconstrained design and
    /// drop the largest optional column until the budget is met.
    pub fn space_greedy(&self, workload: &[Query], space_factor: f64) -> DesignOutcome {
        let started = std::time::Instant::now();
        let unconstrained = self.unconstrained(workload);
        let mut design = unconstrained.design;
        let budget = space_factor * self.plain.total_size_bytes() as f64;
        loop {
            let current = design.storage_bytes(self.plain, &self.paillier) as f64;
            if current <= budget {
                break;
            }
            // Find the largest droppable ⟨column, scheme⟩ (never drop the last
            // scheme of a base column — every column must stay encrypted).
            let mut best: Option<(String, String, EncScheme, f64)> = None;
            for td in design.tables.values() {
                let rows = self
                    .plain
                    .table(&td.table)
                    .map(|t| t.row_count())
                    .unwrap_or(0) as f64;
                for cd in &td.columns {
                    for scheme in &cd.schemes {
                        if cd.schemes.len() == 1 && !cd.is_precomputed() {
                            continue;
                        }
                        let width = match scheme {
                            EncScheme::Hom => 256.0,
                            EncScheme::Ope => 16.0,
                            EncScheme::Rnd => 48.0,
                            EncScheme::Search => 48.0,
                            EncScheme::Det => 8.0,
                        };
                        let size = width * rows;
                        if best.as_ref().is_none_or(|(_, _, _, s)| size > *s) {
                            best = Some((td.table.clone(), cd.base_name.clone(), *scheme, size));
                        }
                    }
                }
            }
            match best {
                Some((table, base, scheme, _)) => {
                    let td = design.table_mut(&table);
                    if let Some(cd) = td.columns.iter_mut().find(|c| c.base_name == base) {
                        cd.schemes.remove(&scheme);
                    }
                    td.columns.retain(|c| !c.schemes.is_empty());
                }
                None => break,
            }
        }
        DesignOutcome {
            design,
            estimated_cost: unconstrained.estimated_cost,
            setup_seconds: started.elapsed().as_secs_f64(),
        }
    }

    fn design_from_pairs(&self, pairs: &BTreeSet<EncPair>) -> PhysicalDesign {
        let mut design = PhysicalDesign::new(self.paillier_bits);
        for p in pairs {
            let td = design.table_mut(&p.table);
            td.add(p.source.clone(), p.ty(), p.scheme);
        }
        design.add_baseline_coverage(self.plain);
        for td in design.tables.values_mut() {
            td.col_packing = true;
            td.multirow_packing = true;
        }
        design
    }

    fn pair_size_bytes(&self, pair: &EncPair) -> f64 {
        let rows = self
            .plain
            .table(&pair.table)
            .map(|t| t.row_count())
            .unwrap_or(0) as f64;
        let width = match pair.scheme {
            EncScheme::Det => match pair.ty() {
                ColumnType::Str => 32.0,
                _ => 8.0,
            },
            EncScheme::Ope => 16.0,
            EncScheme::Rnd => 48.0,
            EncScheme::Search => 64.0,
            EncScheme::Hom => 64.0, // amortized by packing
        };
        rows * width
    }
}

/// A small exact solver for the designer's constrained formulation.
pub mod ilp {
    /// The ILP instance: for each query a list of candidate plans (cost and
    /// the indexes of the encryption pairs they require), the incremental size
    /// of each pair, and the space budget for those increments.
    #[derive(Clone, Debug)]
    pub struct DesignProblem {
        pub per_query: Vec<Vec<(f64, Vec<usize>)>>,
        pub pair_sizes: Vec<f64>,
        pub budget: f64,
    }

    /// Solution: which pairs are materialized and the resulting total cost.
    #[derive(Clone, Debug)]
    pub struct DesignSolution {
        pub enabled_pairs: Vec<bool>,
        pub cost: f64,
    }

    /// Branch-and-bound over the pair variables (the `e_k` of §6.5). For a
    /// fixed assignment of pairs, the optimal plan choice per query is simply
    /// the cheapest candidate whose pairs are all enabled, which makes the
    /// bound exact on fully assigned nodes and optimistic (all undecided pairs
    /// enabled) on partial nodes.
    pub fn solve(problem: &DesignProblem) -> DesignSolution {
        let n = problem.pair_sizes.len();
        // Candidate ordering: pairs that appear in cheap plans first.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| problem.pair_sizes[a].total_cmp(&problem.pair_sizes[b]));

        let mut best = DesignSolution {
            enabled_pairs: vec![false; n],
            cost: evaluate(problem, &vec![false; n]),
        };
        // Greedy warm start: enable pairs in size order while they fit.
        let mut greedy = vec![false; n];
        let mut used = 0.0;
        for &i in &order {
            if used + problem.pair_sizes[i] <= problem.budget {
                greedy[i] = true;
                used += problem.pair_sizes[i];
            }
        }
        let greedy_cost = evaluate(problem, &greedy);
        if greedy_cost < best.cost {
            best = DesignSolution {
                enabled_pairs: greedy,
                cost: greedy_cost,
            };
        }

        let mut assignment: Vec<Option<bool>> = vec![None; n];
        branch(problem, &order, 0, &mut assignment, 0.0, &mut best);
        best
    }

    fn branch(
        problem: &DesignProblem,
        order: &[usize],
        depth: usize,
        assignment: &mut Vec<Option<bool>>,
        used_space: f64,
        best: &mut DesignSolution,
    ) {
        // Bound: cost assuming every undecided pair is enabled (ignores space,
        // so it is a valid lower bound on achievable cost).
        let optimistic = evaluate_partial(problem, assignment);
        if optimistic >= best.cost {
            return;
        }
        if depth == order.len() {
            let enabled: Vec<bool> = assignment.iter().map(|a| a.unwrap_or(false)).collect();
            let cost = evaluate(problem, &enabled);
            if cost < best.cost {
                *best = DesignSolution {
                    enabled_pairs: enabled,
                    cost,
                };
            }
            return;
        }
        let var = order[depth];
        // Try enabling first (cheaper plans), then disabling.
        if used_space + problem.pair_sizes[var] <= problem.budget {
            assignment[var] = Some(true);
            branch(
                problem,
                order,
                depth + 1,
                assignment,
                used_space + problem.pair_sizes[var],
                best,
            );
        }
        assignment[var] = Some(false);
        branch(problem, order, depth + 1, assignment, used_space, best);
        assignment[var] = None;
    }

    fn evaluate(problem: &DesignProblem, enabled: &[bool]) -> f64 {
        let mut total = 0.0;
        for candidates in &problem.per_query {
            let mut best = f64::INFINITY;
            for (cost, pairs) in candidates {
                if pairs.iter().all(|&p| enabled[p]) {
                    best = best.min(*cost);
                }
            }
            total += best;
        }
        total
    }

    fn evaluate_partial(problem: &DesignProblem, assignment: &[Option<bool>]) -> f64 {
        let mut total = 0.0;
        for candidates in &problem.per_query {
            let mut best = f64::INFINITY;
            for (cost, pairs) in candidates {
                if pairs.iter().all(|&p| assignment[p] != Some(false)) {
                    best = best.min(*cost);
                }
            }
            total += best;
        }
        total
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn picks_cheapest_feasible_combination() {
            // Two queries, two pairs. Pair 0 is cheap to store and helps Q1;
            // pair 1 is huge and helps Q2 slightly.
            let problem = DesignProblem {
                per_query: vec![
                    vec![(1.0, vec![0]), (10.0, vec![])],
                    vec![(4.0, vec![1]), (5.0, vec![])],
                ],
                pair_sizes: vec![10.0, 1000.0],
                budget: 100.0,
            };
            let sol = solve(&problem);
            assert!(sol.enabled_pairs[0]);
            assert!(!sol.enabled_pairs[1]);
            assert!((sol.cost - 6.0).abs() < 1e-9);
        }

        #[test]
        fn unlimited_budget_enables_everything_useful() {
            let problem = DesignProblem {
                per_query: vec![vec![(1.0, vec![0, 1]), (50.0, vec![])]],
                pair_sizes: vec![10.0, 10.0],
                budget: 1e12,
            };
            let sol = solve(&problem);
            assert!((sol.cost - 1.0).abs() < 1e-9);
        }

        #[test]
        fn infeasible_pairs_fall_back_to_no_pair_plan() {
            let problem = DesignProblem {
                per_query: vec![vec![(1.0, vec![0]), (7.0, vec![])]],
                pair_sizes: vec![1000.0],
                budget: 10.0,
            };
            let sol = solve(&problem);
            assert!(!sol.enabled_pairs[0]);
            assert!((sol.cost - 7.0).abs() < 1e-9);
        }
    }
}
