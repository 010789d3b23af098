//! The paper's three comparison baselines (§5.1):
//!
//! * **Baseline 1** — random cut, one random memory size for all lambdas
//!   (the paper's ResNet50 instance: 10 lambdas at 1024 MB);
//! * **Baseline 2** — pack layers from the *last* layer backwards until a
//!   platform limit is about to hit, maximum memory everywhere;
//! * **Baseline 3** — the cost-optimal configuration via exhaustive
//!   search (we use an exact DP over *every* boundary position, a strictly
//!   larger search space than the Optimizer's candidate set — so Baseline 3
//!   lower-bounds AMPS-Inf's cost, matching §5.3's "≈ 9% increase in cost"
//!   relationship);
//! * **Baseline 4** — PipeServe's backward bucket-scan partitioner: split
//!   the per-layer time profile into equal-duration buckets scanned from
//!   the last layer, maximum memory everywhere. It balances stage *times*
//!   (the pipelined-throughput objective) but ignores cost, so it brackets
//!   the joint planner from the opposite side as Baselines 1–3.

use crate::config::AmpsConfig;
use crate::cuts::segment_feasible;
use crate::plan::{DagPlan, ExecutionPlan, PartitionPlan};
use crate::polish::dag_schedule;
use ampsinf_faas::SmallRng;
use ampsinf_model::LayerGraph;
use ampsinf_profiler::{quick_eval_node, NodePricer, Profile};

/// Evaluates a complete plan's predicted chain time and cost (cold chain,
/// same arithmetic as the optimizer / platform). The chain is priced as
/// the DAG it deploys as ([`DagPlan::from_chain`]): each partition reads
/// its predecessor's boundary object, so the critical path is the sum of
/// the partitions' durations.
pub fn predict(profile: &Profile, plan: &mut ExecutionPlan, cfg: &AmpsConfig) -> bool {
    let mut dag = DagPlan::from_chain(plan, |k| profile.output_bytes(k));
    if !predict_dag(profile, &mut dag, cfg) {
        return false;
    }
    plan.predicted_time_s = dag.predicted_time_s;
    plan.predicted_cost = dag.predicted_cost;
    true
}

/// Evaluates a DAG plan's predicted *critical-path* latency and *summed*
/// cost (cold run, same arithmetic as the platform): a node becomes
/// ready when every object it reads has been written, so parallel
/// branches overlap in time while each still bills its own sandbox and
/// every scatter/gather object bills its own request fee. The two
/// numbers diverge exactly where the chain's cannot — fan-out of `k`
/// costs `k` sandboxes but only `max(branch)` wall-clock.
pub fn predict_dag(profile: &Profile, plan: &mut DagPlan, cfg: &AmpsConfig) -> bool {
    let Some(evals) = dag_evals(profile, plan, cfg) else {
        return false;
    };
    let parents: Vec<Vec<usize>> = (0..evals.len()).map(|v| plan.parents_of(v)).collect();
    let (time, cost) = dag_schedule(&parents, &evals, &mut vec![0.0; evals.len()]);
    plan.predicted_time_s = time;
    plan.predicted_cost = cost;
    true
}

/// Per-node predicted durations of a DAG plan (the same arithmetic as
/// [`predict_dag`], reported per node). `None` when any node cannot run.
pub fn dag_node_times(profile: &Profile, plan: &DagPlan, cfg: &AmpsConfig) -> Option<Vec<f64>> {
    dag_evals(profile, plan, cfg).map(|evals| evals.into_iter().map(|(t, _)| t).collect())
}

/// `(duration, dollars)` of every node, evaluated in isolation.
fn dag_evals(profile: &Profile, plan: &DagPlan, cfg: &AmpsConfig) -> Option<Vec<(f64, f64)>> {
    let mut evals = Vec::with_capacity(plan.nodes.len());
    for (v, node) in plan.nodes.iter().enumerate() {
        let (reads, writes) = plan.node_io_bytes(v);
        let e = quick_eval_node(
            profile,
            node.start,
            node.end,
            node.memory_mb,
            &cfg.quotas,
            &cfg.prices,
            &cfg.perf,
            &cfg.store,
            &reads,
            &writes,
        )
        .ok()?;
        evals.push((e.duration_s, e.dollars));
    }
    Some(evals)
}

/// The profile every baseline plans on: `cfg.batch_size` images per
/// request, like the optimizer's. `None` for a zero batch.
fn batch_profile(graph: &LayerGraph, cfg: &AmpsConfig) -> Option<Profile> {
    (cfg.batch_size > 0).then(|| Profile::batched(graph, cfg.batch_size))
}

/// Baseline 1: random feasible cut + one random memory for all lambdas.
///
/// Rejection-samples until feasible (bounded attempts); deterministic under
/// `seed`.
pub fn b1_random(graph: &LayerGraph, cfg: &AmpsConfig, seed: u64) -> Option<ExecutionPlan> {
    let profile = batch_profile(graph, cfg)?;
    let n = profile.num_layers();
    let mut rng = SmallRng::seed_from_u64(seed);
    let blocks = cfg.quotas.memory_blocks();
    for _attempt in 0..10_000 {
        let k = rng.range_inclusive(1, cfg.max_partitions);
        // k-1 distinct random interior boundaries.
        let mut bounds: Vec<usize> = (0..k - 1).map(|_| rng.below(n - 1)).collect();
        bounds.sort_unstable();
        bounds.dedup();
        bounds.push(n - 1);
        // Feasibility of every segment.
        let mut start = 0usize;
        let mut floor = 0u32;
        let mut ok = true;
        for &end in &bounds {
            if !segment_feasible(&profile, start, end, cfg) {
                ok = false;
                break;
            }
            floor = floor.max(
                profile
                    .memory_floor(start, end, &cfg.quotas, &cfg.perf)
                    .expect("feasible segment has a floor"),
            );
            start = end + 1;
        }
        if !ok {
            continue;
        }
        // One random memory size shared by all lambdas, at or above the
        // largest floor (the paper's Baseline 1 gave every lambda 1024 MB).
        let feasible_blocks: Vec<u32> = blocks.iter().copied().filter(|&m| m >= floor).collect();
        if feasible_blocks.is_empty() {
            continue;
        }
        let mem = feasible_blocks[rng.below(feasible_blocks.len())];
        let mut plan = ExecutionPlan {
            model: graph.name.clone(),
            partitions: bounds_to_parts(&bounds, mem),
            predicted_time_s: 0.0,
            predicted_cost: 0.0,
        };
        if predict(&profile, &mut plan, cfg) {
            return Some(plan);
        }
    }
    None
}

/// Baseline 2: greedy pack from the last layer; maximum memory everywhere.
pub fn b2_greedy_max(graph: &LayerGraph, cfg: &AmpsConfig) -> Option<ExecutionPlan> {
    let profile = batch_profile(graph, cfg)?;
    let n = profile.num_layers();
    let max_mem = cfg.quotas.memory_max_mb;
    // Walk backwards, extending each partition toward the front until a
    // platform limit "is about to hit".
    let mut bounds_rev: Vec<usize> = Vec::new();
    let mut end = n - 1;
    loop {
        let mut start = end;
        while start > 0 && segment_feasible(&profile, start - 1, end, cfg) {
            start -= 1;
        }
        if !segment_feasible(&profile, start, end, cfg) {
            return None; // a single layer breaks a limit: unsplittable
        }
        bounds_rev.push(end);
        if start == 0 {
            break;
        }
        end = start - 1;
    }
    bounds_rev.reverse();
    let mut plan = ExecutionPlan {
        model: graph.name.clone(),
        partitions: bounds_to_parts(&bounds_rev, max_mem),
        predicted_time_s: 0.0,
        predicted_cost: 0.0,
    };
    predict(&profile, &mut plan, cfg).then_some(plan)
}

/// Baseline 3: exact cost-optimal plan by dynamic programming over every
/// boundary position and every feasible memory block.
pub fn b3_optimal(graph: &LayerGraph, cfg: &AmpsConfig) -> Option<ExecutionPlan> {
    let profile = batch_profile(graph, cfg)?;
    let n = profile.num_layers();
    // best[s] = (cost to serve layers s..n-1, chosen end, chosen memory)
    let mut best: Vec<Option<(f64, usize, u32)>> = vec![None; n + 1];
    // Base: beyond the last layer costs nothing.
    let mut parts_from: Vec<Option<(usize, u32)>> = vec![None; n];
    let mut cost_from: Vec<f64> = vec![f64::INFINITY; n + 1];
    cost_from[n] = 0.0;
    for s in (0..n).rev() {
        let mut best_here: Option<(f64, usize, u32)> = None;
        for e in s..n {
            if !segment_feasible(&profile, s, e, cfg) {
                // Larger segments only grow weights; once deployment (4)
                // breaks it stays broken, but the layer cap / tmp also
                // monotone — safe to stop extending.
                if !profile.fits_deployment(s, e, &cfg.quotas) {
                    break;
                }
                continue;
            }
            if cost_from[e + 1].is_infinite() {
                continue;
            }
            let (reads, writes) = profile.chain_io(s, e);
            let pricer = NodePricer::new(
                &profile,
                s,
                e,
                &cfg.quotas,
                &cfg.prices,
                &cfg.perf,
                &cfg.store,
                reads,
                writes,
            );
            for mem in profile.feasible_memories(s, e, &cfg.quotas, &cfg.perf) {
                if let Ok(eval) = pricer.eval(mem) {
                    let total = eval.dollars + cost_from[e + 1];
                    if best_here.is_none_or(|(c, _, _)| total < c) {
                        best_here = Some((total, e, mem));
                    }
                }
            }
        }
        if let Some((c, e, mem)) = best_here {
            cost_from[s] = c;
            parts_from[s] = Some((e, mem));
        }
        best[s] = best_here;
    }
    // Reconstruct.
    let mut partitions = Vec::new();
    let mut s = 0usize;
    while s < n {
        let (e, mem) = parts_from[s]?;
        partitions.push(PartitionPlan {
            start: s,
            end: e,
            memory_mb: mem,
        });
        s = e + 1;
    }
    let mut plan = ExecutionPlan {
        model: graph.name.clone(),
        partitions,
        predicted_time_s: 0.0,
        predicted_cost: 0.0,
    };
    predict(&profile, &mut plan, cfg).then_some(plan)
}

/// Baseline 4 (PipeServe): backward bucket-scan toward `stages` partitions
/// of equal per-layer time, maximum memory everywhere.
///
/// Per-layer durations at maximum memory are summed into a bucket target
/// of `total / stages`; layers are scanned from the *last* layer backward
/// and a partition closes when admitting the next (earlier) layer would
/// overflow its bucket or break a platform limit. The frontmost partition
/// absorbs whatever remains (platform limits permitting — a break there
/// opens an extra partition, so heavily constrained models may exceed
/// `stages`). This balances stage times — the quantity that bounds
/// pipelined throughput — with no regard for cost.
pub fn b4_bucket_scan(
    graph: &LayerGraph,
    cfg: &AmpsConfig,
    stages: usize,
) -> Option<ExecutionPlan> {
    let profile = batch_profile(graph, cfg)?;
    let n = profile.num_layers();
    let stages = stages.max(1);
    let max_mem = cfg.quotas.memory_max_mb;
    // Per-layer time profile at max memory (single-layer segments; the
    // handoff overheads cancel in the balance comparison).
    let mut w = Vec::with_capacity(n);
    for i in 0..n {
        let (reads, writes) = profile.chain_io(i, i);
        let e = quick_eval_node(
            &profile,
            i,
            i,
            max_mem,
            &cfg.quotas,
            &cfg.prices,
            &cfg.perf,
            &cfg.store,
            reads,
            writes,
        )
        .ok()?;
        w.push(e.duration_s);
    }
    let bucket = w.iter().sum::<f64>() / stages as f64;
    let mut bounds_rev: Vec<usize> = Vec::new();
    let mut end = n - 1;
    loop {
        let mut s = end;
        let mut acc = w[end];
        while s > 0 {
            // The final (frontmost) allowed partition ignores its bucket
            // and absorbs the rest; earlier ones close on overflow.
            let last_allowed = bounds_rev.len() + 1 >= stages;
            if !last_allowed && acc + w[s - 1] > bucket + 1e-12 {
                break;
            }
            if !segment_feasible(&profile, s - 1, end, cfg) {
                break;
            }
            s -= 1;
            acc += w[s];
        }
        if !segment_feasible(&profile, s, end, cfg) {
            return None; // a single layer breaks a limit: unsplittable
        }
        bounds_rev.push(end);
        if s == 0 {
            break;
        }
        end = s - 1;
    }
    bounds_rev.reverse();
    let mut plan = ExecutionPlan {
        model: graph.name.clone(),
        partitions: bounds_to_parts(&bounds_rev, max_mem),
        predicted_time_s: 0.0,
        predicted_cost: 0.0,
    };
    predict(&profile, &mut plan, cfg).then_some(plan)
}

fn bounds_to_parts(bounds: &[usize], mem: u32) -> Vec<PartitionPlan> {
    let mut start = 0usize;
    let mut parts = Vec::with_capacity(bounds.len());
    for &end in bounds {
        parts.push(PartitionPlan {
            start,
            end,
            memory_mb: mem,
        });
        start = end + 1;
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Optimizer;
    use ampsinf_model::zoo;

    #[test]
    fn b1_is_feasible_and_deterministic() {
        let g = zoo::resnet50();
        let cfg = AmpsConfig::default();
        let a = b1_random(&g, &cfg, 7).unwrap();
        let b = b1_random(&g, &cfg, 7).unwrap();
        assert_eq!(a.bounds(), b.bounds());
        assert_eq!(a.memories(), b.memories());
        a.validate(g.num_layers()).unwrap();
        // One shared memory size.
        let mems = a.memories();
        assert!(mems.iter().all(|&m| m == mems[0]));
    }

    #[test]
    fn b2_uses_max_memory_and_fewest_greedy_parts() {
        let g = zoo::resnet50();
        let cfg = AmpsConfig::default();
        let plan = b2_greedy_max(&g, &cfg).unwrap();
        plan.validate(g.num_layers()).unwrap();
        assert!(plan.memories().iter().all(|&m| m == 3008));
        // The paper's B2 ResNet50 produced few (4) lambdas; greedy packing
        // must land near the deployment-limit-implied minimum of 2–4.
        assert!(plan.num_lambdas() >= 2 && plan.num_lambdas() <= 5, "{plan}");
    }

    #[test]
    fn b3_is_cheapest_of_all() {
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default();
        let b3 = b3_optimal(&g, &cfg).unwrap();
        let b1 = b1_random(&g, &cfg, 3).unwrap();
        let b2 = b2_greedy_max(&g, &cfg).unwrap();
        assert!(b3.predicted_cost <= b1.predicted_cost + 1e-12);
        assert!(b3.predicted_cost <= b2.predicted_cost + 1e-12);
    }

    #[test]
    fn amps_within_tolerance_of_b3_and_not_slower() {
        // The §5.3 relationship: AMPS-Inf trades ≤ cost_tolerance extra
        // cost for equal-or-better completion time vs the cost optimum.
        let g = zoo::resnet50();
        let cfg = AmpsConfig::default();
        let b3 = b3_optimal(&g, &cfg).unwrap();
        let amps = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
        // The tolerance budget is measured against AMPS's own candidate
        // space; B3 searches every boundary, so the paper-observed overhead
        // is tolerance + a small candidate gap (§5.3 reports 9–14%).
        assert!(
            amps.predicted_cost <= b3.predicted_cost * (1.0 + cfg.cost_tolerance + 0.10) + 1e-12,
            "amps {} vs b3 {}",
            amps.predicted_cost,
            b3.predicted_cost
        );
        assert!(
            amps.predicted_time_s <= b3.predicted_time_s * 1.02 + 1e-9,
            "amps {}s vs b3 {}s",
            amps.predicted_time_s,
            b3.predicted_time_s
        );
    }

    #[test]
    fn b3_beats_or_matches_amps_on_cost() {
        // B3 searches a superset of boundary positions: it can only be
        // cheaper or equal.
        let g = zoo::xception();
        let cfg = AmpsConfig::default();
        let b3 = b3_optimal(&g, &cfg).unwrap();
        let amps = Optimizer::new(cfg).optimize(&g).unwrap().plan;
        assert!(b3.predicted_cost <= amps.predicted_cost + 1e-12);
    }

    #[test]
    fn b4_balances_stage_times_better_than_b2() {
        let g = zoo::resnet50();
        let cfg = AmpsConfig::default();
        let profile = Profile::of(&g);
        let b2 = b2_greedy_max(&g, &cfg).unwrap();
        let b4 = b4_bucket_scan(&g, &cfg, b2.num_lambdas()).unwrap();
        b4.validate(g.num_layers()).unwrap();
        assert!(b4.memories().iter().all(|&m| m == cfg.quotas.memory_max_mb));
        let bottleneck = |p: &ExecutionPlan| {
            let dag = DagPlan::from_chain(p, |k| profile.output_bytes(k));
            dag_node_times(&profile, &dag, &cfg)
                .unwrap()
                .into_iter()
                .fold(0.0f64, f64::max)
        };
        // Bucket-scanning targets equal stage times; greedy max-packing
        // does not. At equal stage counts the bucket scan's slowest stage
        // must not be worse.
        assert!(
            bottleneck(&b4) <= bottleneck(&b2) + 1e-9,
            "b4 bottleneck {} vs b2 {}",
            bottleneck(&b4),
            bottleneck(&b2)
        );
    }

    #[test]
    fn b4_is_deterministic_and_respects_stage_target() {
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default();
        let a = b4_bucket_scan(&g, &cfg, 4).unwrap();
        let b = b4_bucket_scan(&g, &cfg, 4).unwrap();
        assert_eq!(a, b);
        // The scan may exceed the target only when platform limits force
        // it; mobilenet at 4 stages is unconstrained.
        assert!(a.num_lambdas() <= 4, "{a}");
        assert!(a.num_lambdas() >= 2, "{a}");
    }

    #[test]
    fn chain_node_times_sum_to_predicted_chain() {
        // A chain's prediction is its segments priced one by one and
        // summed in order, bit for bit.
        let g = zoo::resnet50();
        let cfg = AmpsConfig::default();
        let profile = Profile::of(&g);
        let plan = b2_greedy_max(&g, &cfg).unwrap();
        let dag = DagPlan::from_chain(&plan, |k| profile.output_bytes(k));
        let times = dag_node_times(&profile, &dag, &cfg).unwrap();
        assert_eq!(times.len(), plan.num_lambdas());
        let mut time = 0.0;
        let mut cost = 0.0;
        for (p, t) in plan.partitions.iter().zip(&times) {
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
            assert_eq!(e.duration_s.to_bits(), t.to_bits());
            time += e.duration_s;
            cost += e.dollars;
        }
        assert_eq!(time.to_bits(), plan.predicted_time_s.to_bits());
        assert_eq!(cost.to_bits(), plan.predicted_cost.to_bits());
    }

    #[test]
    fn predict_dag_critical_path_beats_node_sum_on_fork() {
        // A fork of two nodes overlaps their durations: the critical path
        // is strictly below the summed node times while cost still bills
        // every sandbox.
        use crate::plan::{DagNode, DagObject};
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default();
        let profile = Profile::of(&g);
        let n = g.num_layers();
        let q = n / 4;
        let mut dag = DagPlan {
            model: g.name.clone(),
            nodes: vec![
                DagNode {
                    start: 0,
                    end: q,
                    memory_mb: 1024,
                },
                DagNode {
                    start: q + 1,
                    end: 2 * q,
                    memory_mb: 1024,
                },
                DagNode {
                    start: 2 * q + 1,
                    end: 3 * q,
                    memory_mb: 1024,
                },
                DagNode {
                    start: 3 * q + 1,
                    end: n - 1,
                    memory_mb: 1024,
                },
            ],
            objects: vec![
                DagObject {
                    producer: 0,
                    consumers: vec![1, 2],
                    bytes: 100_000,
                },
                DagObject {
                    producer: 1,
                    consumers: vec![3],
                    bytes: 100_000,
                },
                DagObject {
                    producer: 2,
                    consumers: vec![3],
                    bytes: 100_000,
                },
            ],
            predicted_time_s: 0.0,
            predicted_cost: 0.0,
        };
        assert!(predict_dag(&profile, &mut dag, &cfg));
        let times = dag_node_times(&profile, &dag, &cfg).unwrap();
        let sum: f64 = times.iter().sum();
        assert!(
            dag.predicted_time_s < sum - 1e-9,
            "critical path {} should overlap the fork, sum {}",
            dag.predicted_time_s,
            sum
        );
        let expect = times[0] + times[1].max(times[2]) + times[3];
        assert!((dag.predicted_time_s - expect).abs() < 1e-12);
    }

    #[test]
    fn predict_rejects_broken_plans() {
        let g = zoo::resnet50();
        let cfg = AmpsConfig::default();
        let profile = Profile::of(&g);
        // Whole-model single partition is undeployable.
        let mut plan = ExecutionPlan {
            model: g.name.clone(),
            partitions: vec![PartitionPlan {
                start: 0,
                end: g.num_layers() - 1,
                memory_mb: 3008,
            }],
            predicted_time_s: 0.0,
            predicted_cost: 0.0,
        };
        assert!(!predict(&profile, &mut plan, &cfg));
    }
}
