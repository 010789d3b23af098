//! SerFer \[42\] — the "state-of-the-art" comparison of the paper's Fig. 11.
//!
//! SerFer drives partitioned inference with AWS Step Functions and an EC2
//! driver, and requires manual model splitting. The paper gives it the
//! *same* partitions and memory configuration as AMPS-Inf; the differences
//! are (a) the Step-Function state machine — each transition "takes nearly
//! 15 s" (footnote 2) — and (b) the driver instance. The partitions run on
//! the coordinator's engine like AMPS-Inf's own (faults and retries
//! included); a transition is a delay in front of each partition
//! ([`Coordinator::serve_one_delayed`]) plus one on exit, each billed one
//! transition fee.

use ampsinf_core::plan::ExecutionPlan;
use ampsinf_core::{AmpsConfig, Coordinator};
use ampsinf_faas::vm::{VmInstance, VmType};
use ampsinf_faas::CostLedger;
use ampsinf_model::LayerGraph;

/// Step Functions' state-transition latency (paper footnote 2: "nearly
/// 15 s").
const TRANSITION_LATENCY_S: f64 = 15.0;
/// AWS Standard Workflows price per state transition ($0.025 / 1,000).
const TRANSITION_COST: f64 = 0.000_025;

/// Result of a SerFer run.
#[derive(Debug, Clone, Copy)]
pub struct SerferReport {
    /// End-to-end completion (workflow + driver overheads).
    pub completion_s: f64,
    /// Total dollars (lambdas + transitions + driver instance).
    pub dollars: f64,
    /// Seconds spent in state transitions alone.
    pub transition_s: f64,
    /// Workflow state transitions.
    pub transitions: usize,
}

/// Fixed driver-side overhead: SerFer's driver splits the input image and
/// stages it before starting the workflow.
const DRIVER_SPLIT_OVERHEAD_S: f64 = 2.0;

/// Runs SerFer with AMPS-Inf's plan (the paper's setup for Fig. 11): one
/// Task state per partition, chained through storage exactly like
/// AMPS-Inf's coordinator, with a transition on workflow entry, between
/// states and on exit.
pub fn run_serfer(
    graph: &LayerGraph,
    plan: &ExecutionPlan,
    cfg: &AmpsConfig,
) -> Result<SerferReport, String> {
    let coord = Coordinator::new(cfg.clone());
    let mut platform = coord.platform();
    let dep = coord
        .deploy(&mut platform, graph, plan)
        .map_err(|e| e.to_string())?;
    let driver = VmInstance::start(VmType::ec2_driver(), 0.0);
    let t0 = DRIVER_SPLIT_OVERHEAD_S;
    let job = coord
        .serve_one_delayed(&mut platform, &dep, t0, TRANSITION_LATENCY_S)
        .map_err(|e| e.to_string())?;
    // The last partition's completion plus the workflow's exit transition.
    let completion_s = t0 + job.inference_s + TRANSITION_LATENCY_S;
    let transitions = dep.functions.len() + 1;
    let mut dollars = job.dollars + transitions as f64 * TRANSITION_COST;
    dollars += platform.settle_storage(completion_s);
    dollars += driver.stop(completion_s, &mut CostLedger::new());
    Ok(SerferReport {
        completion_s,
        dollars,
        transition_s: transitions as f64 * TRANSITION_LATENCY_S,
        transitions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampsinf_core::plan::PartitionPlan;
    use ampsinf_core::Optimizer;
    use ampsinf_faas::FaultPlan;
    use ampsinf_model::zoo;

    #[test]
    fn serfer_slower_and_pricier_than_amps() {
        // Fig. 11: AMPS-Inf beats SerFer on both axes.
        let g = zoo::resnet50();
        let cfg = AmpsConfig::default();
        let plan = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
        let serfer = run_serfer(&g, &plan, &cfg).unwrap();

        let coord = Coordinator::new(cfg.clone());
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
        let amps = coord.serve_one(&mut platform, &dep, 0.0).unwrap();
        let amps_dollars = amps.dollars + platform.settle_storage(amps.inference_s);

        assert!(
            serfer.completion_s > amps.inference_s + serfer.transition_s - 1e-9,
            "serfer {} vs amps {} (+{} transitions)",
            serfer.completion_s,
            amps.inference_s,
            serfer.transition_s
        );
        assert!(serfer.dollars > amps_dollars);
    }

    #[test]
    fn transition_overhead_scales_with_partitions() {
        let cfg = AmpsConfig::default();
        let g = zoo::resnet50();
        let resnet = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
        // MobileNet cut into 10 equal partitions: the paper's footnote-2
        // workflow of ~10 states.
        let m = zoo::mobilenet_v1();
        let n = m.num_layers();
        let ten = ExecutionPlan {
            model: m.name.clone(),
            partitions: (0..10)
                .map(|i| PartitionPlan {
                    start: i * n / 10,
                    end: (i + 1) * n / 10 - 1,
                    memory_mb: 2048,
                })
                .collect(),
            predicted_time_s: 0.0,
            predicted_cost: 0.0,
        };
        for (graph, plan) in [(&g, &resnet), (&m, &ten)] {
            let r = run_serfer(graph, plan, &cfg).unwrap();
            assert_eq!(r.transitions, plan.num_lambdas() + 1);
            assert_eq!(r.transition_s, r.transitions as f64 * TRANSITION_LATENCY_S);
            assert!(r.completion_s > r.transition_s);
        }
        // Footnote 2: ~11 transitions of ~15 s dominate such a workflow.
        let r = run_serfer(&m, &ten, &cfg).unwrap();
        assert!(r.transition_s >= 150.0, "{}", r.transition_s);
    }

    #[test]
    fn crashed_state_is_retried() {
        // SerFer's partitions get the engine's retries like every other
        // mode: the first invocation crashes, its retry completes.
        let g = zoo::resnet50();
        let cfg = AmpsConfig::default();
        let plan = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
        let clean = run_serfer(&g, &plan, &cfg).unwrap();
        let crash = FaultPlan {
            crash_invocations: vec![0],
            ..FaultPlan::none()
        };
        let r = run_serfer(&g, &plan, &cfg.clone().with_faults(crash)).unwrap();
        assert_eq!(r.transitions, clean.transitions);
        assert!(r.completion_s > clean.completion_s);
        assert!(r.dollars > clean.dollars);
    }
}
