//! Every chain plan the planner returns carries `baselines::predict`'s
//! own prediction of it, bit for bit: through `optimize`,
//! `optimize_sweep`, `optimize_dag` (the chain incumbent) and
//! `optimize_pipelined`, over zoo models × batch sizes × cost
//! tolerances × SLOs.

use ampsinf_core::baselines;
use ampsinf_core::optimizer::Optimizer;
use ampsinf_core::sweep::SweepGrid;
use ampsinf_core::{AmpsConfig, ExecutionPlan};
use ampsinf_model::{zoo, LayerGraph};
use ampsinf_profiler::Profile;

const BATCHES: [u64; 3] = [1, 8, 64];
const TOLERANCES: [f64; 4] = [0.0, 0.05, 0.1, 0.3];
/// SLOs as multiples of the unconstrained chain plan's predicted time;
/// the unconstrained plan itself is checked too.
const SLO_FACTORS: [f64; 5] = [0.9, 0.95, 1.0, 1.1, 1.5];

fn models() -> Vec<LayerGraph> {
    vec![
        zoo::tiny_cnn(),
        zoo::mobilenet_v1(),
        zoo::resnet50(),
        zoo::inception_v3(),
        zoo::xception(),
        zoo::densenet121(),
        zoo::bert_base().quantized(1),
    ]
}

/// Asserts that `plan`'s predicted bits are `predict`'s; returns 1 so
/// callers can count the plans checked.
fn check(profile: &Profile, cfg: &AmpsConfig, plan: &ExecutionPlan, label: &str) -> usize {
    let mut again = plan.clone();
    assert!(
        baselines::predict(profile, &mut again, cfg),
        "{label}: plan cannot run"
    );
    assert_eq!(
        (
            plan.predicted_time_s.to_bits(),
            plan.predicted_cost.to_bits()
        ),
        (
            again.predicted_time_s.to_bits(),
            again.predicted_cost.to_bits()
        ),
        "{label}: planned ({} s, ${}) vs predict ({} s, ${})",
        plan.predicted_time_s,
        plan.predicted_cost,
        again.predicted_time_s,
        again.predicted_cost
    );
    1
}

#[test]
fn chain_plans_carry_predicts_bits() {
    let mut checked = 0;
    for g in models() {
        for batch in BATCHES {
            let profile = Profile::batched(&g, batch);
            for tol in TOLERANCES {
                let cfg = AmpsConfig {
                    cost_tolerance: tol,
                    ..AmpsConfig::default().with_batch(batch).with_threads(1)
                };
                let at = |slo: Option<f64>| format!("{} b{batch} tol {tol} slo {slo:?}", g.name);
                let Ok(free) = Optimizer::new(cfg.clone()).optimize(&g) else {
                    continue;
                };
                checked += check(&profile, &cfg, &free.plan, &at(None));
                if let Ok(pp) = Optimizer::new(cfg.clone()).optimize_pipelined(&g) {
                    let label = format!("{} (pipelined)", at(None));
                    checked += check(&profile, &cfg, &pp.plan, &label);
                }
                let t = free.plan.predicted_time_s;
                let slos: Vec<f64> = SLO_FACTORS.iter().map(|f| t * f).collect();
                for &slo in &slos {
                    let pcfg = cfg.clone().with_slo(slo);
                    let opt = Optimizer::new(pcfg.clone());
                    if let Ok(r) = opt.optimize(&g) {
                        checked += check(&profile, &pcfg, &r.plan, &at(Some(slo)));
                    }
                    if let Ok(r) = opt.optimize_dag(&g) {
                        let label = format!("{} (dag incumbent)", at(Some(slo)));
                        checked += check(&profile, &pcfg, &r.chain.plan, &label);
                    }
                    if let Ok(pp) = opt.optimize_pipelined(&g) {
                        let label = format!("{} (pipelined)", at(Some(slo)));
                        checked += check(&profile, &pcfg, &pp.plan, &label);
                    }
                }
                let grid = SweepGrid::from_slos(slos).with_batches(vec![batch]);
                let opt = Optimizer::new(cfg.clone());
                for p in opt.optimize_sweep(&g, &grid).points {
                    if let Ok(plan) = &p.outcome {
                        let label = format!("{} (sweep)", at(Some(p.slo_s)));
                        checked += check(&profile, &cfg, plan, &label);
                    }
                }
            }
        }
    }
    assert!(checked > 1000, "only {checked} plans checked");
}
