//! Sweep-engine contracts (DESIGN.md §5e, "Amortized sweeps"):
//!
//! 1. **Sweep ≡ cold** — every grid point's plan, and its knapsack solve
//!    and LP-prune counts, equal an independent `optimize()` call's at
//!    that `(slo, batch)`, at every thread count: a point runs the cold
//!    call's pass 2 against its batch's shared pass 1.
//! 2. **Thread invariance** — the deterministic projection of a
//!    `SweepReport` (plans, errors, Pareto marks, knees) is identical at
//!    threads = 1 and threads = many.
//! 3. **Monotonicity** — along a loosening SLO grid at zero cost
//!    tolerance, optimal cost never increases and optimal time never
//!    decreases (the paper's cost-vs-SLO curve); at every tolerance, a
//!    tighter SLO never yields a slower plan.
//! 4. **Amortization is observable** — per-point cache misses are zero
//!    once the shared pass 1 has warmed the cache.

use ampsinf_core::optimizer::{OptimizeError, Optimizer};
use ampsinf_core::sweep::{SweepGrid, SweepPoint, SweepReport};
use ampsinf_core::{AmpsConfig, ExecutionPlan};
use ampsinf_model::zoo;
use ampsinf_model::LayerGraph;

/// Trimmed candidate budget (same rationale as `determinism.rs`): keeps
/// the binding MIQP path exercised while the debug-profile suite stays
/// fast.
fn slim() -> AmpsConfig {
    AmpsConfig {
        max_candidate_boundaries: 8,
        ..Default::default()
    }
}

/// An SLO grid spanning infeasible (0.8×), binding (0.9–1.0×), and slack
/// (≥ 1×) regions around the unconstrained optimum's time.
fn grid_around_free(graph: &LayerGraph, cfg: &AmpsConfig, points: usize) -> SweepGrid {
    let free = Optimizer::new(cfg.clone().with_threads(1))
        .optimize(graph)
        .expect("unconstrained run is feasible");
    let t = free.plan.predicted_time_s;
    SweepGrid::slo_range(t * 0.8, t * 1.6, points)
}

fn assert_plans_bitwise_equal(a: &ExecutionPlan, b: &ExecutionPlan, label: &str) {
    assert_eq!(a.partitions, b.partitions, "{label}: partitions diverge");
    assert_eq!(
        a.predicted_cost.to_bits(),
        b.predicted_cost.to_bits(),
        "{label}: cost diverges ({} vs {})",
        a.predicted_cost,
        b.predicted_cost
    );
    assert_eq!(
        a.predicted_time_s.to_bits(),
        b.predicted_time_s.to_bits(),
        "{label}: time diverges ({} vs {})",
        a.predicted_time_s,
        b.predicted_time_s
    );
}

/// Every sweep point must equal an independent cold `optimize()` at the
/// point's `(slo, batch)` — including the error kind on infeasible points
/// and, on solved ones, the knapsack solve and LP-prune counts.
fn assert_sweep_equals_cold(
    graph: &LayerGraph,
    cfg: &AmpsConfig,
    report: &SweepReport,
    label: &str,
) {
    for (i, p) in report.points.iter().enumerate() {
        let mut pcfg = cfg.clone().with_threads(1);
        pcfg.slo_s = Some(p.slo_s);
        pcfg.batch_size = p.batch;
        let cold = Optimizer::new(pcfg).optimize(graph);
        let plabel = format!("{label}/point[{i}] slo={} batch={}", p.slo_s, p.batch);
        match (&p.outcome, &cold) {
            (Ok(swept), Ok(cold)) => {
                assert_plans_bitwise_equal(swept, &cold.plan, &plabel);
                assert_eq!(
                    (p.stats.miqps_solved, p.stats.miqps_pruned),
                    (cold.miqps_solved, cold.miqps_pruned),
                    "{plabel}: (solved, pruned) diverge"
                );
            }
            (Err(es), Err(ec)) => assert_eq!(es, ec, "{plabel}: error kind diverges"),
            (s, c) => panic!("{plabel}: outcome diverges: {s:?} vs {c:?}"),
        }
    }
}

/// Bit-level plan key: partition bounds/memories plus exact time/cost.
type PlanKey = (Vec<u64>, u64, u64);

/// The thread-invariant projection of a report: per-point outcome
/// (plan or error), dominance, knee, plus the frontier index list.
fn projection(r: &SweepReport) -> Vec<(Option<PlanKey>, bool, bool)> {
    let key = |p: &SweepPoint| {
        p.outcome.as_ref().ok().map(|plan| {
            (
                plan.partitions
                    .iter()
                    .flat_map(|q| [q.start as u64, q.end as u64, u64::from(q.memory_mb)])
                    .collect::<Vec<u64>>(),
                plan.predicted_time_s.to_bits(),
                plan.predicted_cost.to_bits(),
            )
        })
    };
    r.points
        .iter()
        .map(|p| (key(p), p.dominated, p.knee))
        .collect()
}

#[test]
fn sweep_points_equal_cold_solves_at_every_thread_count() {
    let g = zoo::mobilenet_v1();
    let cfg = slim();
    let grid = grid_around_free(&g, &cfg, 6);
    for threads in [1usize, 2, 4] {
        let report = Optimizer::new(cfg.clone().with_threads(threads)).optimize_sweep(&g, &grid);
        assert_eq!(report.points.len(), grid.len());
        assert_sweep_equals_cold(&g, &cfg, &report, &format!("mobilenet/threads={threads}"));
    }
}

#[test]
fn sweep_counters_equal_cold_on_inception_v3_at_zero_tolerance() {
    // At tolerance 0 this grid's binding cuts sit close to the prune
    // threshold, so any bound carried from one point to the next shows
    // in the solve counts.
    let g = zoo::inception_v3();
    let cfg = AmpsConfig {
        cost_tolerance: 0.0,
        ..Default::default()
    };
    let t = Optimizer::new(cfg.clone().with_threads(1))
        .optimize(&g)
        .expect("unconstrained run is feasible")
        .plan
        .predicted_time_s;
    let grid = SweepGrid::slo_range(t * 0.9, t * 1.5, 16);
    let report = Optimizer::new(cfg.clone().with_threads(1)).optimize_sweep(&g, &grid);
    assert_sweep_equals_cold(&g, &cfg, &report, "inception_v3/tol=0");
}

#[test]
fn sweep_with_batches_equals_cold_solves() {
    let g = zoo::tiny_cnn();
    let cfg = AmpsConfig::default();
    // Loose to tight, with one SLO twice: points run in grid order.
    let mut slos = grid_around_free(&g, &cfg, 4).slos;
    slos.reverse();
    slos.insert(2, slos[1]);
    let grid = SweepGrid::from_slos(slos).with_batches(vec![1, 4]);
    let report = Optimizer::new(cfg.clone().with_threads(2)).optimize_sweep(&g, &grid);
    assert_eq!(report.points.len(), 10);
    // Grid order is batch-major and preserves the slo axis order.
    for (i, p) in report.points.iter().enumerate() {
        assert_eq!(p.batch, grid.batches[i / grid.slos.len()]);
        assert_eq!(p.slo_s, grid.slos[i % grid.slos.len()]);
    }
    assert_sweep_equals_cold(&g, &cfg, &report, "tiny_cnn/batches");
}

#[test]
fn sweep_projection_is_thread_invariant() {
    let g = zoo::tiny_cnn();
    let cfg = AmpsConfig::default();
    let grid = grid_around_free(&g, &cfg, 5).with_batches(vec![1, 4]);
    let base = Optimizer::new(cfg.clone().with_threads(1)).optimize_sweep(&g, &grid);
    for threads in [2usize, 4] {
        let par = Optimizer::new(cfg.clone().with_threads(threads)).optimize_sweep(&g, &grid);
        assert_eq!(
            projection(&base),
            projection(&par),
            "projection diverges at threads={threads}"
        );
        assert_eq!(
            base.pareto, par.pareto,
            "pareto diverges at threads={threads}"
        );
        assert_eq!(par.threads_used, threads);
    }
}

#[test]
fn cost_monotone_and_time_monotone_across_loosening_slo() {
    // The paper-level property behind the cost-vs-SLO curve: at zero cost
    // tolerance the optimizer is a pure cost minimizer, so loosening the
    // SLO can only reveal cheaper (and, among cheapest, slower) plans.
    for (g, points) in [(zoo::resnet50(), 8), (zoo::mobilenet_v1(), 8)] {
        let cfg = AmpsConfig {
            cost_tolerance: 0.0,
            ..slim()
        };
        let grid = grid_around_free(&g, &cfg, points);
        let report = Optimizer::new(cfg.clone()).optimize_sweep(&g, &grid);
        assert_sweep_equals_cold(&g, &cfg, &report, &format!("{}/tol=0", g.name));
        let solved: Vec<&SweepPoint> = report.points.iter().filter(|p| p.outcome.is_ok()).collect();
        assert!(
            solved.len() >= 3,
            "{}: too few feasible points to check monotonicity",
            g.name
        );
        for w in solved.windows(2) {
            let (a, b) = (
                w[0].outcome.as_ref().unwrap(),
                w[1].outcome.as_ref().unwrap(),
            );
            assert!(
                b.predicted_cost <= a.predicted_cost + 1e-12,
                "{}: cost increased when SLO loosened {} → {}: {} → {}",
                g.name,
                w[0].slo_s,
                w[1].slo_s,
                a.predicted_cost,
                b.predicted_cost
            );
            assert!(
                b.predicted_time_s >= a.predicted_time_s - 1e-9,
                "{}: time decreased when SLO loosened {} → {}: {} → {}",
                g.name,
                w[0].slo_s,
                w[1].slo_s,
                a.predicted_time_s,
                b.predicted_time_s
            );
        }
    }
}

/// Seconds of each plan, tightest SLO first; `None` for an error.
fn check_tighter_never_slower(times: &[Option<f64>], label: &str) {
    for (i, a) in times.iter().enumerate() {
        for (j, b) in times.iter().enumerate().skip(i + 1) {
            match (a, b) {
                (Some(a), Some(b)) => assert!(
                    *a <= b * (1.0 + 1e-12),
                    "{label}: SLO #{i} plans {a} s, the looser #{j} {b} s"
                ),
                (Some(_), None) => panic!("{label}: SLO #{i} is feasible, the looser #{j} is not"),
                _ => {}
            }
        }
    }
}

#[test]
fn tighter_slo_never_yields_a_slower_plan() {
    // A looser SLO can only lower `C*`, the least dollars meeting it, and
    // with it the budget `C*·(1 + tol)`; the fastest plan within a smaller
    // budget is never faster. The slack covers the difference between the
    // pass-1 sums selection reads and the `predict` bits plans carry.
    let models = [
        zoo::mobilenet_v1(),
        zoo::resnet50(),
        zoo::inception_v3(),
        zoo::xception(),
        zoo::densenet121(),
        zoo::bert_base().quantized(1),
        zoo::tiny_cnn(),
    ];
    for g in &models {
        for batch in [1, 8, 64] {
            let base = AmpsConfig::default().with_batch(batch).with_threads(1);
            let anchor = Optimizer::new(AmpsConfig {
                cost_tolerance: 0.0,
                ..base.clone()
            })
            .optimize(g)
            .expect("unconstrained plan")
            .plan
            .predicted_time_s;
            let slos: Vec<f64> = [0.9, 0.95, 1.0, 1.1, 1.25, 1.5, 2.0]
                .iter()
                .map(|f| anchor * f)
                .collect();
            for tol in [0.0, 0.05, 0.1, 0.3] {
                let cfg = AmpsConfig {
                    cost_tolerance: tol,
                    ..base.clone()
                };
                let label = format!("{} b{batch} tol {tol}", g.name);
                let time =
                    |r: Result<&ExecutionPlan, &OptimizeError>| r.ok().map(|p| p.predicted_time_s);
                let free = time(
                    Optimizer::new(cfg.clone())
                        .optimize(g)
                        .map(|r| r.plan)
                        .as_ref(),
                );
                let cold: Vec<Option<f64>> = slos
                    .iter()
                    .map(|&slo| {
                        let r = Optimizer::new(cfg.clone().with_slo(slo)).optimize(g);
                        time(r.map(|r| r.plan).as_ref())
                    })
                    .chain([free])
                    .collect();
                check_tighter_never_slower(&cold, &format!("{label} optimize"));
                let report = Optimizer::new(cfg.clone())
                    .optimize_sweep(g, &SweepGrid::from_slos(slos.clone()));
                let swept: Vec<Option<f64>> = report
                    .points
                    .iter()
                    .map(|p| time(p.outcome.as_ref()))
                    .chain([free])
                    .collect();
                check_tighter_never_slower(&swept, &format!("{label} optimize_sweep"));
            }
        }
    }
}

#[test]
fn sweep_points_evaluate_no_segment_beyond_pass1() {
    // Per batch, a whole sweep evaluates exactly the segments one cold
    // `optimize` evaluates: pass 2 reads the segment table, never the memo.
    let g = zoo::mobilenet_v1();
    for batch in [1, 8] {
        let cfg = slim().with_batch(batch).with_threads(1);
        let grid = grid_around_free(&g, &cfg, 6);
        let report = Optimizer::new(cfg.clone()).optimize_sweep(&g, &grid);
        let cold = Optimizer::new(cfg).optimize(&g).unwrap();
        assert!(report.solved() > 0, "batch {batch}: no point solved");
        assert_eq!(
            (report.cache_hits, report.cache_misses),
            (cold.column_cache_hits, cold.column_cache_misses),
            "batch {batch}"
        );
        assert!(report.cache_hits > report.cache_misses);
    }
}

#[test]
fn infeasible_and_tight_points_report_errors() {
    let g = zoo::mobilenet_v1();
    let report = Optimizer::new(AmpsConfig::default().with_threads(1)).optimize_sweep(
        &g,
        &SweepGrid::from_slos(vec![0.001]), // impossible SLO
    );
    assert_eq!(report.points.len(), 1);
    assert_eq!(
        report.points[0].outcome.as_ref().unwrap_err(),
        &OptimizeError::SloInfeasible
    );
    assert!(report.pareto.is_empty());
    assert_eq!(report.solved(), 0);
}

#[test]
fn frontier_knee_marked_once_per_batch() {
    let g = zoo::mobilenet_v1();
    let cfg = slim();
    let grid = grid_around_free(&g, &cfg, 8);
    let report = Optimizer::new(cfg.with_threads(2)).optimize_sweep(&g, &grid);
    let frontier: Vec<&SweepPoint> = report.pareto.iter().map(|&i| &report.points[i]).collect();
    assert!(!frontier.is_empty());
    assert!(frontier.iter().all(|p| !p.dominated));
    let knees = report.points.iter().filter(|p| p.knee).count();
    if frontier.len() >= 3 {
        assert_eq!(knees, 1, "exactly one knee on a ≥3-point frontier");
    } else {
        assert_eq!(knees, 0);
    }
    // Every dominated point is witnessed by some frontier point.
    for p in report.points.iter().filter(|p| p.dominated) {
        let plan = p.outcome.as_ref().unwrap();
        assert!(
            frontier.iter().any(|f| {
                let fp = f.outcome.as_ref().unwrap();
                fp.predicted_time_s <= plan.predicted_time_s
                    && fp.predicted_cost <= plan.predicted_cost
            }),
            "dominated point has no dominating frontier witness"
        );
    }
}
