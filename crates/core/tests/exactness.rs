//! Exactness of the chain planner's objective: the cheapest plan meeting
//! the SLO costs `C*`, and the planner returns the fastest plan costing at
//! most `C*·(1 + tol)`, the cheaper on equal seconds.
//!
//! On two small models with a coarse memory grid, the oracle enumerates
//! every cut `Optimizer::pass1` returns and every memory mix of it, prices
//! each plan with `baselines::predict`, and applies that objective by
//! brute force. The planner must agree on the selected plan's seconds and
//! dollars within 1e-12 relative (selection reads pass-1 sums; plans
//! carry `predict` bits), and on which points no plan meets the SLO.

use ampsinf_core::baselines::predict;
use ampsinf_core::optimizer::{CutEval, OptimizeError, Optimizer};
use ampsinf_core::plan::{ExecutionPlan, PartitionPlan};
use ampsinf_core::AmpsConfig;
use ampsinf_model::{zoo, LayerGraph};
use ampsinf_profiler::Profile;

const TOLERANCES: [f64; 4] = [0.0, 0.05, 0.1, 0.3];

/// SLO factors on the tolerance-0 unconstrained plan time (`None`: no
/// SLO); the tightest are infeasible on both models.
const SLO_FACTORS: [Option<f64>; 7] = [
    None,
    Some(0.3),
    Some(0.6),
    Some(0.8),
    Some(0.9),
    Some(1.0),
    Some(1.2),
];

/// Six memory blocks (128, 704, …, 3008 MB) and at most three partitions,
/// so every mix of every cut can be priced.
fn coarse(batch: u64) -> AmpsConfig {
    let mut cfg = AmpsConfig::default().with_batch(batch).with_threads(1);
    cfg.quotas.memory_step_mb = 576;
    cfg.max_partitions = 3;
    cfg
}

/// `(seconds, dollars)` of every plan over every feasible pass-1 cut and
/// every memory mix that `predict` can price.
fn all_plans(graph: &LayerGraph, cfg: &AmpsConfig) -> Vec<(f64, f64)> {
    let profile = Profile::batched(graph, cfg.batch_size);
    let blocks = cfg.quotas.memory_blocks_search_grid();
    let (cuts, evals) = Optimizer::new(cfg.clone()).pass1(graph).unwrap();
    let mut out = Vec::new();
    for (cut, eval) in cuts.iter().zip(&evals) {
        if matches!(eval, CutEval::Infeasible) {
            continue;
        }
        // Odometer over one block index per partition.
        let mut pick = vec![0usize; cut.len()];
        loop {
            let mut start = 0;
            let partitions = cut
                .iter()
                .zip(&pick)
                .map(|(&end, &j)| {
                    let p = PartitionPlan {
                        start,
                        end,
                        memory_mb: blocks[j],
                    };
                    start = end + 1;
                    p
                })
                .collect();
            let mut plan = ExecutionPlan {
                model: graph.name.clone(),
                partitions,
                predicted_time_s: 0.0,
                predicted_cost: 0.0,
            };
            if predict(&profile, &mut plan, cfg) {
                out.push((plan.predicted_time_s, plan.predicted_cost));
            }
            let Some(k) = pick.iter().rposition(|&j| j + 1 < blocks.len()) else {
                break;
            };
            pick[k] += 1;
            pick[k + 1..].fill(0);
        }
    }
    out
}

/// The objective by brute force: `(seconds, dollars, C*)` of the selected
/// plan, or `None` when no plan meets the SLO. The slacks are the
/// planner's: `1e-9` s on the SLO, `1e-15` dollars on the budget.
fn brute_force(plans: &[(f64, f64)], slo: Option<f64>, tol: f64) -> Option<(f64, f64, f64)> {
    let limit = slo.map_or(f64::INFINITY, |s| s + 1e-9);
    let cheapest = plans
        .iter()
        .filter(|p| p.0 <= limit)
        .map(|p| p.1)
        .fold(f64::INFINITY, f64::min);
    if cheapest == f64::INFINITY {
        return None;
    }
    let budget = cheapest * (1.0 + tol) + 1e-15;
    let (t, c) = plans
        .iter()
        .copied()
        .filter(|p| p.1 <= budget)
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)))?;
    Some((t, c, cheapest))
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

#[test]
fn chain_planner_matches_brute_force_objective() {
    let mut checked = 0usize;
    let mut binding = 0usize;
    for graph in [zoo::linear_chain(6, 1024), zoo::tiny_cnn()] {
        for batch in [1, 64] {
            let cfg = coarse(batch);
            let plans = all_plans(&graph, &cfg);
            assert!(plans.len() >= 50, "{}: {} plans", graph.name, plans.len());
            let (anchor, ..) = brute_force(&plans, None, 0.0).expect("unconstrained plan");
            for factor in SLO_FACTORS {
                let slo = factor.map(|f| anchor * f);
                for tol in TOLERANCES {
                    let label = format!("{} b{batch} slo {slo:?} tol {tol}", graph.name);
                    let mut point = cfg.clone();
                    point.slo_s = slo;
                    point.cost_tolerance = tol;
                    let got = Optimizer::new(point).optimize(&graph).map(|r| r.plan);
                    match (brute_force(&plans, slo, tol), got) {
                        (None, Err(e)) => assert_eq!(e, OptimizeError::SloInfeasible, "{label}"),
                        (Some((t, c, cheapest)), Ok(plan)) => {
                            let (pt, pc) = (plan.predicted_time_s, plan.predicted_cost);
                            assert!(
                                close(pt, t) && close(pc, c),
                                "{label}: planner ({pt} s, ${pc}) vs oracle ({t} s, ${c})"
                            );
                            if tol == 0.0 {
                                assert!(close(pc, cheapest), "{label}: ${pc} vs C* ${cheapest}");
                            }
                            if slo.is_some_and(|s| s < anchor) {
                                binding += 1;
                            }
                            checked += 1;
                        }
                        (want, got) => panic!("{label}: oracle {want:?} vs planner {got:?}"),
                    }
                }
            }
        }
    }
    assert!(checked >= 60, "only {checked} feasible points");
    assert!(binding >= 24, "only {binding} SLO-binding points");
}
