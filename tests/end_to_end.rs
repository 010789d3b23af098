//! Cross-crate integration tests: the full AMPS-Inf pipeline from model
//! file to served prediction, for every evaluation model.

use amps_inf::core::baselines;
use amps_inf::core::optimizer::OptimizeError;
use amps_inf::prelude::*;

/// Optimize → deploy → serve for every §5 evaluation model; predictions
/// (the optimizer's objective) must equal platform measurements exactly,
/// and every plan must respect every platform limit by construction.
#[test]
fn full_pipeline_every_evaluation_model() {
    for g in zoo::evaluation_models() {
        let cfg = AmpsConfig::default();
        let report = Optimizer::new(cfg.clone())
            .optimize(&g)
            .unwrap_or_else(|e| panic!("{}: {e}", g.name));
        let plan = &report.plan;
        plan.validate(g.num_layers()).unwrap();

        let coord = Coordinator::new(cfg);
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &g, plan).expect("deployable");
        let job = coord
            .serve_one(&mut platform, &dep, 0.0, "e2e")
            .expect("serves");

        assert!(
            (job.inference_s - plan.predicted_time_s).abs() < 1e-6,
            "{}: measured {} vs predicted {}",
            g.name,
            job.inference_s,
            plan.predicted_time_s
        );
        assert!(
            (job.dollars - plan.predicted_cost).abs() < 1e-9,
            "{}: cost mismatch",
            g.name
        );
    }
}

/// The model-file (JSON) route: serialize → parse → optimize gives the
/// same plan as the in-memory graph (the paper's YAML/JSON input path).
#[test]
fn model_file_round_trip_preserves_plan() {
    let g = zoo::mobilenet_v1();
    let json = amps_inf::model::serialize::to_json(&g);
    let parsed = amps_inf::model::serialize::from_json(&json).unwrap();
    let cfg = AmpsConfig::default();
    let a = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
    let b = Optimizer::new(cfg).optimize(&parsed).unwrap().plan;
    assert_eq!(a.bounds(), b.bounds());
    assert_eq!(a.memories(), b.memories());
}

/// AMPS-Inf vs the paper's three baselines: B3 cheapest, AMPS within
/// tolerance of B3 and at least as fast, heuristics strictly worse.
#[test]
fn optimizer_dominates_heuristics() {
    let g = zoo::inception_v3();
    let cfg = AmpsConfig::default();
    let amps = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
    let b1 = baselines::b1_random(&g, &cfg, 11).unwrap();
    let b2 = baselines::b2_greedy_max(&g, &cfg).unwrap();
    let b3 = baselines::b3_optimal(&g, &cfg).unwrap();
    assert!(amps.predicted_cost <= b1.predicted_cost);
    assert!(amps.predicted_cost <= b2.predicted_cost);
    assert!(b3.predicted_cost <= amps.predicted_cost + 1e-12);
    assert!(amps.predicted_cost <= b3.predicted_cost * 1.25);
}

/// Platform limits propagate: no returned plan ever deploys a partition
/// that the platform would reject, across all models and quota presets.
#[test]
fn plans_always_deployable_under_both_quota_presets() {
    for cfg in [AmpsConfig::default(), AmpsConfig::default().lambda_2021()] {
        for g in [zoo::mobilenet_v1(), zoo::resnet50()] {
            let plan = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
            let coord = Coordinator::new(cfg.clone());
            let mut platform = coord.platform();
            assert!(
                coord.deploy(&mut platform, &g, &plan).is_ok(),
                "{} under {:?} MB max",
                g.name,
                cfg.quotas.memory_max_mb
            );
        }
    }
}

/// The 2021 quota regime (10 GB, 1 MB steps) can only improve plans:
/// strictly more memory options.
#[test]
fn quota_2021_no_worse_than_2020() {
    let g = zoo::resnet50();
    let p2020 = Optimizer::new(AmpsConfig::default())
        .optimize(&g)
        .unwrap()
        .plan;
    let p2021 = Optimizer::new(AmpsConfig {
        cost_tolerance: 0.0,
        ..AmpsConfig::default().lambda_2021()
    })
    .optimize(&g)
    .unwrap()
    .plan;
    // Pure-cost 2021 optimum ≤ tolerance-spending 2020 plan's cost.
    assert!(p2021.predicted_cost <= p2020.predicted_cost * 1.001);
}

/// Infeasible SLOs are reported, feasible ones are honored and monotone:
/// tighter SLO ⇒ never cheaper.
#[test]
fn slo_monotonicity() {
    let g = zoo::xception();
    // Reference: the pure cost optimum's completion time (tolerance 0).
    let base_cfg = AmpsConfig {
        cost_tolerance: 0.0,
        ..Default::default()
    };
    let free = Optimizer::new(base_cfg.clone()).optimize(&g).unwrap().plan;
    let mut last_cost = 0.0;
    let mut became_infeasible = false;
    for factor in [1.5, 1.2, 1.0, 0.85, 0.7, 0.5] {
        let cfg = base_cfg.clone().with_slo(free.predicted_time_s * factor);
        match Optimizer::new(cfg).optimize(&g) {
            Ok(r) => {
                assert!(
                    !became_infeasible,
                    "feasibility must be monotone in the SLO"
                );
                assert!(r.plan.predicted_time_s <= free.predicted_time_s * factor + 1e-9);
                assert!(
                    r.plan.predicted_cost >= last_cost - 1e-12,
                    "cost must not drop as SLO tightens"
                );
                last_cost = r.plan.predicted_cost;
            }
            Err(OptimizeError::SloInfeasible) => became_infeasible = true,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    // Absurd SLO → explicit error.
    let err = Optimizer::new(AmpsConfig::default().with_slo(0.0001))
        .optimize(&g)
        .unwrap_err();
    assert_eq!(err, OptimizeError::SloInfeasible);
}

/// Failure injection: deleting an intermediate object mid-chain surfaces
/// as a MissingInput invocation error, not silent corruption.
#[test]
fn storage_failure_injection() {
    let g = zoo::resnet50();
    let cfg = AmpsConfig::default();
    let plan = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
    assert!(plan.num_lambdas() >= 2);
    let coord = Coordinator::new(cfg);
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, &g, &plan).unwrap();

    // Run the first partition manually, then sabotage its output.
    let work = |i: usize| {
        let p = &plan.partitions[i];
        amps_inf::faas::PartitionWork::from_segment(&g, p.start, p.end)
    };
    let sab = platform.store.intern("sab/b0");
    let w0 = work(0).invocation(None, Some(sab));
    let o0 = platform.invoke(dep.functions[0], 0.0, &w0).unwrap();
    platform.store.delete("sab/b0", o0.end);
    let w1 = work(1).invocation(Some(sab), None);
    let err = platform.invoke(dep.functions[1], o0.end, &w1).unwrap_err();
    assert!(matches!(
        err.reason,
        amps_inf::faas::platform::InvokeError::MissingInput(_)
    ));
    // The doomed invocation still ran its cold phases — real Lambda bills
    // that consumed time.
    assert!(err.duration() > 0.0);
    assert!(err.dollars > 0.0);
}

/// Transient storage failures: moderate flakiness is absorbed by client
/// retries (requests succeed, just slower); extreme flakiness surfaces as
/// an explicit StorageUnavailable error instead of silent corruption.
#[test]
fn flaky_storage_retries_then_fails_cleanly() {
    use amps_inf::faas::platform::InvokeError;
    use amps_inf::faas::StoreKind;

    let g = zoo::resnet50();
    // Moderate flakiness: 20% per request, 3 retries → P(all fail) = 0.16%.
    let cfg = AmpsConfig {
        store: StoreKind::flaky_s3(0.2),
        ..Default::default()
    };
    let plan = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
    assert!(plan.num_lambdas() >= 2);
    let coord = Coordinator::new(cfg);
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
    for r in 0..5 {
        let job = coord
            .serve_one(&mut platform, &dep, r as f64 * 100.0, &format!("fk{r}"))
            .expect("moderate flakiness is retried away");
        assert!(job.inference_s > 0.0);
    }

    // Extreme flakiness: 90% per request → retries exhaust quickly.
    // Chain-level retries are disabled so the raw storage failure mode
    // surfaces (with them on, the coordinator would just keep retrying).
    let cfg = AmpsConfig {
        store: StoreKind::flaky_s3(0.9),
        invoke_retries: 0,
        ..Default::default()
    };
    let coord = Coordinator::new(cfg);
    let mut platform = coord.platform();
    let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
    let mut saw_unavailable = false;
    for r in 0..5 {
        match coord.serve_one(&mut platform, &dep, r as f64 * 100.0, &format!("xk{r}")) {
            Ok(_) => {}
            Err(e) if matches!(e.reason, InvokeError::StorageUnavailable(_)) => {
                // Even the doomed request billed its consumed time.
                assert!(e.dollars > 0.0);
                saw_unavailable = true;
                break;
            }
            Err(e) => panic!("unexpected failure mode: {e}"),
        }
    }
    assert!(saw_unavailable, "90% flakiness must surface as Unavailable");
}

/// An un-splittable model (single giant layer beyond the deployment cap)
/// is reported as NoFeasibleCut — the paper's §5.4 future-work case.
#[test]
fn giant_single_layer_reported_infeasible() {
    use amps_inf::model::{LayerGraph, LayerOp, TensorShape};
    let mut g = LayerGraph::new("giant");
    let i = g.add(
        "input",
        LayerOp::Input {
            shape: TensorShape::Flat(16384),
        },
        &[],
    );
    // 16384 × 8192 weights ≈ 512 MB for this single Dense layer.
    g.add(
        "dense",
        LayerOp::Dense {
            units: 8192,
            use_bias: true,
            activation: amps_inf::model::Activation::Linear,
        },
        &[i],
    );
    let err = Optimizer::new(AmpsConfig::default())
        .optimize(&g)
        .unwrap_err();
    assert_eq!(err, OptimizeError::NoFeasibleCut);
}
