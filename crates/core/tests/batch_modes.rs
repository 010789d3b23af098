//! The paper's batch modes (§5.4, Fig. 13) on the coordinator's one
//! engine: a chain deployed with `Coordinator::deploy_batch` serves each
//! batch of images as one request, sequentially (AMPS-Inf-Seq), all at
//! once (AMPS-Inf's parallel mode) or pipelined across the plan's stages.
//!
//! Bit-level pins of these runs live in the serving crate's
//! `batch_modes_golden.rs`; these tests check the modes' shape and that a
//! plan made for a batch serves exactly what it predicts.

use ampsinf_core::config::AmpsConfig;
use ampsinf_core::coordinator::Coordinator;
use ampsinf_core::optimizer::Optimizer;
use ampsinf_core::plan::ExecutionPlan;
use ampsinf_faas::platform::DeployError;
use ampsinf_model::{zoo, LayerGraph};

#[derive(Clone, Copy)]
enum Mode {
    Sequential,
    Parallel,
    Pipelined,
}

/// Completion and dollars (storage settled at the completion) of one run.
struct Run {
    completion_s: f64,
    dollars: f64,
}

/// Deploys `plan` for batches of `batch` images on a fresh platform and
/// serves `batches` of them in `mode`.
fn run(
    g: &LayerGraph,
    plan: &ExecutionPlan,
    cfg: &AmpsConfig,
    batch: u64,
    batches: usize,
    mode: Mode,
) -> Run {
    let coord = Coordinator::new(cfg.clone());
    let mut platform = coord.platform();
    let dep = coord.deploy_batch(&mut platform, g, plan, batch).unwrap();
    let (completion_s, dollars) = match mode {
        Mode::Sequential => {
            let r = coord.serve_sequential(&mut platform, &dep, batches, 0.0);
            assert_eq!(r.failed(), 0);
            (r.completion_s, r.dollars)
        }
        Mode::Parallel => {
            let r = coord.serve_parallel(&mut platform, &dep, batches, 0.0);
            assert_eq!(r.failed(), 0);
            (r.completion_s, r.dollars)
        }
        Mode::Pipelined => {
            let r = coord.serve_pipelined(&mut platform, &dep, batches, 0.0);
            assert_eq!(r.failed, 0);
            (r.completion_s, r.dollars)
        }
    };
    Run {
        completion_s,
        dollars: dollars + platform.settle_storage(completion_s),
    }
}

fn plan_for(g: &LayerGraph, cfg: &AmpsConfig) -> ExecutionPlan {
    Optimizer::new(cfg.clone()).optimize(g).unwrap().plan
}

#[test]
fn batching_amortizes_cost_per_image() {
    let g = zoo::mobilenet_v1();
    let cfg = AmpsConfig::default();
    let plan = plan_for(&g, &cfg);
    let one = run(&g, &plan, &cfg, 1, 1, Mode::Sequential);
    let ten = run(&g, &plan, &cfg, 10, 1, Mode::Sequential);
    let per_image_one = one.dollars;
    let per_image_ten = ten.dollars / 10.0;
    assert!(
        per_image_ten < per_image_one,
        "batched {per_image_ten} vs single {per_image_one}"
    );
}

#[test]
fn parallel_batches_finish_faster_than_sequential() {
    // The Fig. 13 effect: 42.6 s parallel vs 231 s sequential.
    let g = zoo::mobilenet_v1();
    let cfg = AmpsConfig::default();
    let plan = plan_for(&g, &cfg);
    let seq = run(&g, &plan, &cfg, 10, 10, Mode::Sequential);
    let par = run(&g, &plan, &cfg, 10, 10, Mode::Parallel);
    assert!(par.completion_s < seq.completion_s * 0.5);
    // Costs stay in the same ballpark (same total work ± warm starts).
    assert!(par.dollars < seq.dollars * 3.0);
}

#[test]
fn pipelining_beats_sequential_on_multi_partition_plans() {
    // With ≥2 partitions, overlapping batches across stages must cut
    // the makespan versus strictly sequential batches. ResNet50 plans
    // always span several partitions (deployment limit).
    let g = zoo::resnet50();
    let cfg = AmpsConfig::default().with_batch(10);
    let plan = plan_for(&g, &cfg);
    assert!(plan.num_lambdas() >= 2);
    let seq = run(&g, &plan, &cfg, 10, 8, Mode::Sequential);
    let pipe = run(&g, &plan, &cfg, 10, 8, Mode::Pipelined);
    assert!(
        pipe.completion_s < seq.completion_s,
        "pipe {} vs seq {}",
        pipe.completion_s,
        seq.completion_s
    );
    // Same work, same-ish dollars.
    assert!((pipe.dollars - seq.dollars).abs() < seq.dollars * 0.2);
}

#[test]
fn pipeline_throughput_bounded_by_slowest_stage() {
    let g = zoo::resnet50();
    let cfg = AmpsConfig::default().with_batch(10);
    let plan = plan_for(&g, &cfg);
    assert!(plan.num_lambdas() >= 2);
    let few = run(&g, &plan, &cfg, 10, 2, Mode::Pipelined);
    let many = run(&g, &plan, &cfg, 10, 10, Mode::Pipelined);
    // Adding 8 batches costs ~8 bottleneck periods, far less than 8
    // full chain traversals.
    let marginal = (many.completion_s - few.completion_s) / 8.0;
    let chain = few.completion_s / 2.0; // ≈ one cold chain
    assert!(marginal < chain, "marginal {marginal} vs chain {chain}");
}

#[test]
fn sequential_batches_warm_up() {
    let g = zoo::mobilenet_v1();
    let cfg = AmpsConfig::default();
    let plan = plan_for(&g, &cfg);
    let two = run(&g, &plan, &cfg, 5, 2, Mode::Sequential);
    let one = run(&g, &plan, &cfg, 5, 1, Mode::Sequential);
    // Second batch rides warm containers: far less than 2× duration.
    assert!(two.completion_s < one.completion_s * 1.9);
}

#[test]
fn batch_plans_serve_what_they_predict() {
    // A chain planned for batch `b` and deployed at `b` serves its
    // prediction: the coordinator scales node work exactly as the
    // planner's batched profile does.
    for g in [
        zoo::resnet50(),
        zoo::mobilenet_v1(),
        zoo::inception_v3(),
        zoo::xception(),
    ] {
        for batch in [1, 8, 10, 64] {
            let cfg = AmpsConfig::default().with_batch(batch);
            let plan = plan_for(&g, &cfg);
            let coord = Coordinator::new(cfg);
            let mut platform = coord.platform();
            let dep = coord.deploy_batch(&mut platform, &g, &plan, batch).unwrap();
            let r = coord.serve_one(&mut platform, &dep, 0.0).unwrap();
            let close =
                |served: f64, predicted: f64| (served - predicted).abs() <= 1e-12 * predicted.abs();
            assert!(
                close(r.inference_s, plan.predicted_time_s),
                "{} b{batch}: served {} s, predicted {} s",
                g.name,
                r.inference_s,
                plan.predicted_time_s
            );
            assert!(
                close(r.dollars, plan.predicted_cost),
                "{} b{batch}: served ${}, predicted ${}",
                g.name,
                r.dollars,
                plan.predicted_cost
            );
        }
    }
}

#[test]
fn zero_batch_is_an_invalid_plan() {
    let g = zoo::mobilenet_v1();
    let cfg = AmpsConfig::default();
    let plan = plan_for(&g, &cfg);
    let coord = Coordinator::new(cfg);
    let mut platform = coord.platform();
    let err = coord.deploy_batch(&mut platform, &g, &plan, 0).unwrap_err();
    assert!(matches!(err, DeployError::InvalidPlan(_)), "{err}");
    assert_eq!(platform.num_functions(), 0, "nothing deployed");
}
