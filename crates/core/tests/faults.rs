//! End-to-end failure-path tests: deterministic fault injection, chain
//! retries resuming from checkpointed boundaries, failure billing, and
//! graceful batch degradation.
//!
//! Everything here is bit-reproducible: the storage flakiness stream and
//! the lambda fault stream both come from seeded rngs, so the same config
//! produces the same failures, retries, timings and dollars on every run.

use ampsinf_core::config::AmpsConfig;
use ampsinf_core::coordinator::{BatchReport, Coordinator};
use ampsinf_core::optimizer::Optimizer;
use ampsinf_core::plan::ExecutionPlan;
use ampsinf_faas::platform::InvokeError;
use ampsinf_faas::{CostItem, FaultPlan, StoreKind};
use ampsinf_model::{zoo, LayerGraph};

fn planned(cfg: &AmpsConfig, g: &LayerGraph) -> (Coordinator, ExecutionPlan) {
    let plan = Optimizer::new(cfg.clone()).optimize(g).unwrap().plan;
    (Coordinator::new(cfg.clone()), plan)
}

fn flaky_parallel_batch(images: usize) -> (BatchReport, usize) {
    let g = zoo::resnet50();
    let cfg = AmpsConfig {
        store: StoreKind::flaky_s3(0.3),
        ..Default::default()
    };
    let (coord, plan) = planned(&cfg, &g);
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
    let batch = coord.serve_parallel(&mut platform, &dep, images, 0.0);
    (batch, plan.num_lambdas())
}

/// Acceptance criterion: a 5-image parallel ResNet-50 batch on a 30%-flaky
/// store completes every image under the default retry budget, reports
/// nonzero wasted time and dollars, and never panics.
#[test]
fn flaky_store_batch_completes_with_bounded_waste() {
    let (batch, _) = flaky_parallel_batch(5);
    assert_eq!(batch.succeeded(), 5);
    assert_eq!(batch.failed(), 0);
    assert!(
        batch.wasted_s > 0.0,
        "30% flakiness must stall at least one storage op"
    );
    assert!(batch.wasted_dollars > 0.0);
    // Waste is an attribution within the bill, never on top of it.
    assert!(batch.wasted_dollars < batch.dollars);
    // The flaky batch costs at least what a clean one does, and each
    // image's inference includes its stalls.
    let g = zoo::resnet50();
    let cfg = AmpsConfig::default();
    let (coord, plan) = planned(&cfg, &g);
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
    let clean = coord.serve_parallel(&mut platform, &dep, 5, 0.0);
    assert!(batch.dollars >= clean.dollars - 1e-12);
    assert!(batch.completion_s >= clean.completion_s - 1e-9);
}

/// Determinism: the same flaky config replays bit-identically — same
/// successes, same timings, same dollars, same waste.
#[test]
fn flaky_store_batch_is_bit_identical_across_runs() {
    let (a, _) = flaky_parallel_batch(5);
    let (b, _) = flaky_parallel_batch(5);
    assert_eq!(a.succeeded(), b.succeeded());
    assert_eq!(a.completion_s, b.completion_s);
    assert_eq!(a.dollars, b.dollars);
    assert_eq!(a.wasted_s, b.wasted_s);
    assert_eq!(a.wasted_dollars, b.wasted_dollars);
    for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(ja.inference_s, jb.inference_s);
        assert_eq!(ja.dollars, jb.dollars);
        assert_eq!(ja.retries.len(), jb.retries.len());
    }
}

/// Checkpoint-resume: a crash in partition 1 re-runs partition 1 only —
/// partition 0's output is already in storage, so its lambda never
/// cold-starts a second time.
#[test]
fn crash_resumes_from_checkpointed_boundary() {
    let g = zoo::resnet50();
    let cfg = AmpsConfig::default().with_faults(FaultPlan {
        crash_invocations: vec![1],
        ..FaultPlan::default()
    });
    let (coord, plan) = planned(&cfg, &g);
    let k = plan.num_lambdas();
    assert!(k >= 2, "need a chain to test resumption");
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
    let job = coord.serve_one(&mut platform, &dep, 0.0).unwrap();
    // Exactly one retry, on the crashed partition.
    assert_eq!(job.retries.len(), 1);
    assert_eq!(job.retries[0].lambda, 1);
    assert!(matches!(
        job.retries[0].failed.reason,
        InvokeError::Crashed { .. }
    ));
    // Only the failed partition re-ran: k successes + 1 failure.
    assert_eq!(platform.invocation_count(), k as u64 + 1);
    assert_eq!(platform.cold_starts(dep.functions[0]), 1);
    // The failed attempt was billed, and the job accounts for it.
    assert!(job.retries[0].failed.dollars > 0.0);
    assert!((job.wasted_dollars - job.retries[0].failed.dollars).abs() < 1e-12);
    let clean_dollars: f64 = job.outcomes.iter().map(|o| o.dollars).sum();
    assert!((job.dollars - clean_dollars - job.retries[0].failed.dollars).abs() < 1e-12);
    // Wasted wall-clock = the doomed attempt + its backoff, all inside
    // the measured inference time.
    let expect_waste = job.retries[0].failed.duration() + job.retries[0].backoff_s;
    assert!((job.wasted_s - expect_waste).abs() < 1e-12);
    assert!(job.inference_s > expect_waste);
}

/// Exponential backoff: consecutive failures of the same partition double
/// the wait between attempts.
#[test]
fn backoff_doubles_between_attempts() {
    let g = zoo::resnet50();
    let cfg = AmpsConfig::default().with_faults(FaultPlan {
        crash_invocations: vec![1, 2],
        ..FaultPlan::default()
    });
    let (coord, plan) = planned(&cfg, &g);
    assert!(plan.num_lambdas() >= 2);
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
    let job = coord.serve_one(&mut platform, &dep, 0.0).unwrap();
    assert_eq!(job.retries.len(), 2);
    assert_eq!(job.retries[0].backoff_s, cfg.backoff_base_s);
    assert_eq!(job.retries[1].backoff_s, 2.0 * cfg.backoff_base_s);
}

/// An injected timeout bills the full timeout window — GB-seconds for
/// time consumed, exactly as real Lambda bills hung invocations.
#[test]
fn injected_timeout_bills_consumed_window() {
    let g = zoo::mobilenet_v1();
    let cfg = AmpsConfig {
        invoke_retries: 0,
        ..AmpsConfig::default().with_faults(FaultPlan {
            timeout_rate: 1.0,
            ..FaultPlan::default()
        })
    };
    let (coord, plan) = planned(&cfg, &g);
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
    let err = coord.serve_one(&mut platform, &dep, 0.0).unwrap_err();
    assert!(matches!(err.reason, InvokeError::Timeout { .. }));
    assert_eq!(err.lambda, 0);
    assert_eq!(err.attempts, 1);
    // The hung sandbox occupied (and billed) the whole timeout window.
    assert!((err.elapsed_s - cfg.quotas.timeout_s).abs() < 1e-9);
    let mem = platform.spec(dep.functions[0]).unwrap().memory_mb;
    let expect =
        cfg.prices.lambda_compute_cost(cfg.quotas.timeout_s, mem) + cfg.prices.lambda_request;
    assert!((err.dollars - expect).abs() < 1e-12);
    // Failure billing lands in the ledger: strictly positive compute.
    assert!(platform.ledger.total_of(CostItem::LambdaCompute) > 0.0);
    assert!((platform.total_cost() - err.dollars).abs() < 1e-12);
}

/// Graceful batch degradation: one poisoned image fails past its retry
/// budget; the other images complete and the report says exactly which
/// image died, at what cost.
#[test]
fn poisoned_image_degrades_not_poisons_the_batch() {
    let g = zoo::resnet50();
    let base = AmpsConfig::default();
    let (_, plan) = planned(&base, &g);
    let k = plan.num_lambdas() as u64;
    // Image 2's first partition crashes; retries are disabled so the
    // image is doomed.
    let cfg = AmpsConfig {
        invoke_retries: 0,
        ..base.with_faults(FaultPlan {
            crash_invocations: vec![2 * k],
            ..FaultPlan::default()
        })
    };
    let coord = Coordinator::new(cfg);
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
    let batch = coord.serve_parallel(&mut platform, &dep, 5, 0.0);
    assert_eq!(batch.succeeded(), 4);
    assert_eq!(batch.failed(), 1);
    assert_eq!(batch.failures[0].image, 2);
    assert!(matches!(
        batch.failures[0].error.reason,
        InvokeError::Crashed { .. }
    ));
    // The doomed image still billed strictly positive dollars, all wasted.
    assert!(batch.failures[0].error.dollars > 0.0);
    assert!(batch.wasted_dollars >= batch.failures[0].error.dollars);
    let job_dollars: f64 = batch.jobs.iter().map(|j| j.dollars).sum();
    assert!((batch.dollars - job_dollars - batch.failures[0].error.dollars).abs() < 1e-12);
}

/// With fault injection off and a clean store, the fault-tolerant path is
/// bit-identical to the pre-fault-tolerance behaviour: no retries, no
/// waste, prediction equals simulation.
#[test]
fn faults_off_is_bit_identical_and_waste_free() {
    let g = zoo::resnet50();
    let cfg = AmpsConfig::default();
    let (coord, plan) = planned(&cfg, &g);
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
    let batch = coord.serve_parallel(&mut platform, &dep, 3, 0.0);
    assert_eq!(batch.succeeded(), 3);
    assert_eq!(batch.wasted_s, 0.0);
    assert_eq!(batch.wasted_dollars, 0.0);
    for job in &batch.jobs {
        assert!(job.retries.is_empty());
    }
    assert!((batch.jobs[0].inference_s - plan.predicted_time_s).abs() < 1e-6);
    assert!((batch.jobs[0].dollars - plan.predicted_cost).abs() < 1e-9);
}
