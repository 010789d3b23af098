//! Property-style tests for the AMPS-Inf core: cut enumeration, plan
//! structure, prediction arithmetic. Inputs come from deterministic grids
//! (no external property-testing dependency).

use ampsinf_core::baselines::{b1_random, b2_greedy_max, b3_optimal, predict};
use ampsinf_core::cuts::{enumerate_cuts, segment_feasible};
use ampsinf_core::plan::{ExecutionPlan, PartitionPlan};
use ampsinf_core::{AmpsConfig, Optimizer};
use ampsinf_model::zoo;
use ampsinf_profiler::{quick_eval_node, Profile};

#[test]
fn chain_cut_count_is_compositions() {
    // An unconstrained n-compute-layer chain (+1 input layer) has
    // 2^(layers-1) contiguous cuts when every partition count is
    // allowed — the paper's §4 example generalized.
    for n in 1usize..8 {
        let g = zoo::linear_chain(n, 4);
        let profile = Profile::of(&g);
        let cfg = AmpsConfig {
            max_partitions: n + 1,
            ..Default::default()
        };
        let cuts = enumerate_cuts(&profile, &cfg);
        assert_eq!(cuts.len(), 1usize << n);
    }
}

#[test]
fn every_enumerated_cut_is_fully_feasible() {
    for g in [zoo::mobilenet_v1(), zoo::resnet50(), zoo::xception()] {
        let profile = Profile::of(&g);
        let cfg = AmpsConfig::default();
        let cuts = enumerate_cuts(&profile, &cfg);
        assert!(!cuts.is_empty());
        // Sample a handful of cuts deterministically.
        for cut in cuts.iter().step_by((cuts.len() / 16).max(1)) {
            let mut start = 0usize;
            for &end in cut {
                assert!(segment_feasible(&profile, start, end, &cfg));
                start = end + 1;
            }
            assert_eq!(*cut.last().unwrap(), g.num_layers() - 1);
        }
    }
}

#[test]
fn predict_is_additive_over_partitions() {
    // A plan's predicted cost is the sum of its partitions' dollars,
    // and its time the sum of their durations.
    let g = zoo::mobilenet_v1();
    let profile = Profile::of(&g);
    let cfg = AmpsConfig::default();
    let n = g.num_layers();
    let mut checked = 0usize;
    for k in 2usize..6 {
        for memory in [512u32, 1024, 1536, 2048] {
            let mut partitions = Vec::new();
            let mut start = 0usize;
            for i in 0..k {
                let end = if i == k - 1 {
                    n - 1
                } else {
                    n * (i + 1) / k - 1
                };
                partitions.push(PartitionPlan {
                    start,
                    end,
                    memory_mb: memory,
                });
                start = end + 1;
            }
            let mut plan = ExecutionPlan {
                model: g.name.clone(),
                partitions: partitions.clone(),
                predicted_time_s: 0.0,
                predicted_cost: 0.0,
            };
            if !predict(&profile, &mut plan, &cfg) {
                continue; // infeasible split: nothing to check
            }
            checked += 1;
            let mut t_sum = 0.0;
            let mut c_sum = 0.0;
            for p in &partitions {
                let (reads, writes) = profile.chain_io(p.start, p.end);
                let e = quick_eval_node(
                    &profile,
                    p.start,
                    p.end,
                    p.memory_mb,
                    &cfg.quotas,
                    &cfg.prices,
                    &cfg.perf,
                    &cfg.store,
                    reads,
                    writes,
                )
                .unwrap();
                t_sum += e.duration_s;
                c_sum += e.dollars;
            }
            assert!((plan.predicted_time_s - t_sum).abs() < 1e-9);
            assert!((plan.predicted_cost - c_sum).abs() < 1e-12);
        }
    }
    assert!(checked > 0, "no feasible splits exercised");
}

#[test]
fn b1_always_returns_valid_feasible_plans() {
    let g = zoo::inception_v3();
    let cfg = AmpsConfig::default();
    for seed in 0u64..50 {
        if let Some(plan) = b1_random(&g, &cfg, seed) {
            plan.validate(g.num_layers()).unwrap();
            assert!(plan.predicted_cost > 0.0);
            assert!(plan.predicted_time_s > 0.0);
            // Shared memory size across lambdas (the baseline's definition).
            let mems = plan.memories();
            assert!(mems.iter().all(|&m| m == mems[0]));
        }
    }
}

#[test]
fn memory_monotonicity_per_segment() {
    // More memory never makes a segment slower (CPU share is monotone
    // and pressure only relaxes).
    let g = zoo::resnet50();
    let profile = Profile::of(&g);
    let cfg = AmpsConfig::default();
    let n = g.num_layers();
    let (reads, writes) = profile.chain_io(0, n / 2);
    for lo in [512u32, 1024, 2048] {
        let hi = 3008u32;
        let eval = |mem| {
            quick_eval_node(
                &profile,
                0,
                n / 2,
                mem,
                &cfg.quotas,
                &cfg.prices,
                &cfg.perf,
                &cfg.store,
                reads,
                writes,
            )
        };
        let (a, b) = (eval(lo), eval(hi));
        if let (Ok(a), Ok(b)) = (a, b) {
            assert!(b.duration_s <= a.duration_s + 1e-9);
        }
    }
}

#[test]
fn b2_is_deterministic() {
    let g = zoo::xception();
    let cfg = AmpsConfig::default();
    let a = b2_greedy_max(&g, &cfg).unwrap();
    let b = b2_greedy_max(&g, &cfg).unwrap();
    assert_eq!(a.bounds(), b.bounds());
    assert_eq!(a.memories(), b.memories());
}

#[test]
fn b2_partitions_are_maximal() {
    // Greedy-from-last: every partition except the first cannot absorb one
    // more preceding layer without breaking a limit.
    let g = zoo::resnet50();
    let cfg = AmpsConfig::default();
    let profile = Profile::of(&g);
    let plan = b2_greedy_max(&g, &cfg).unwrap();
    for p in plan.partitions.iter().skip(1) {
        assert!(
            !segment_feasible(&profile, p.start - 1, p.end, &cfg),
            "partition [{}, {}] is not maximal",
            p.start,
            p.end
        );
    }
}

/// Baseline 3 plans at the configured batch: its plan re-prices to itself
/// under `predict` on the batched profile, and as the optimum over every
/// boundary it is no dearer than the planner's tolerance-0 plan.
#[test]
fn b3_plans_at_the_configured_batch() {
    for g in [zoo::resnet50(), zoo::inception_v3()] {
        for batch in [8, 64] {
            let cfg = AmpsConfig {
                cost_tolerance: 0.0,
                ..AmpsConfig::default().with_batch(batch)
            };
            let label = format!("{} at batch {batch}", g.name);
            let b3 = b3_optimal(&g, &cfg).expect("baseline 3 plans");
            let mut again = b3.clone();
            assert!(predict(&Profile::batched(&g, batch), &mut again, &cfg));
            assert_eq!(
                [
                    again.predicted_time_s.to_bits(),
                    again.predicted_cost.to_bits()
                ],
                [b3.predicted_time_s.to_bits(), b3.predicted_cost.to_bits()],
                "{label}: baseline 3 priced off the batch"
            );
            let amps = Optimizer::new(cfg.clone()).optimize(&g).expect("plans");
            assert!(
                b3.predicted_cost <= amps.plan.predicted_cost * (1.0 + 1e-12),
                "{label}: baseline 3 ${} vs planner ${}",
                b3.predicted_cost,
                amps.plan.predicted_cost
            );
        }
    }
}
