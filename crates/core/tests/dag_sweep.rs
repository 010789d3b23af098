//! Branch-parallel planning contracts (DESIGN.md §7, "Incremental DAG
//! search"):
//!
//! 1. **Sweep ≡ cold** — every `optimize_dag_sweep` point (chain plan
//!    *and* DAG verdict) is bit-identical to an independent
//!    `optimize_dag()` call at that `(slo, batch)`, including at zero
//!    cost tolerance.
//! 2. **Thread invariance** — the parallel region search accepts the
//!    same regions in the same order at every thread count, so
//!    `DagReport` and the sweep projection are bit-identical at
//!    threads = 1 and threads = 8.
//! 3. **Warm ≡ cold** — the node/spine memos are pure, so a duplicated
//!    grid point resolves entirely from warm tables with an identical
//!    result.
//! 4. **Amortization is observable** — the search counters expose memo
//!    reuse across trials and points, and a sweep's memo totals are the
//!    sums of its points' counters.

use ampsinf_core::optimizer::Optimizer;
use ampsinf_core::sweep::{SweepGrid, SweepReport};
use ampsinf_core::{AmpsConfig, DagPlan, DagReport, DagSearchStats, ExecutionPlan};
use ampsinf_model::zoo;
use ampsinf_model::LayerGraph;

/// Trimmed candidate budget (same rationale as `sweep.rs`): keeps every
/// search path exercised while the debug-profile suite stays fast.
fn slim() -> AmpsConfig {
    AmpsConfig {
        max_candidate_boundaries: 8,
        ..Default::default()
    }
}

/// An SLO grid spanning binding and slack regions around the
/// unconstrained chain optimum's time.
fn grid_around_free(graph: &LayerGraph, cfg: &AmpsConfig, points: usize) -> SweepGrid {
    let free = Optimizer::new(cfg.clone().with_threads(1))
        .optimize(graph)
        .expect("unconstrained run is feasible");
    let t = free.plan.predicted_time_s;
    SweepGrid::slo_range(t * 0.8, t * 1.6, points)
}

/// Bit-level chain key: partition triples plus exact time/cost.
type ChainKey = (Vec<u64>, u64, u64);

fn chain_key(p: &ExecutionPlan) -> ChainKey {
    (
        p.partitions
            .iter()
            .flat_map(|q| [q.start as u64, q.end as u64, u64::from(q.memory_mb)])
            .collect(),
        p.predicted_time_s.to_bits(),
        p.predicted_cost.to_bits(),
    )
}

/// Bit-level DAG key: node triples, object wiring, exact time/cost.
type DagKey = (Vec<u64>, Vec<u64>, u64, u64);

fn dag_key(d: &DagPlan) -> DagKey {
    (
        d.nodes
            .iter()
            .flat_map(|n| [n.start as u64, n.end as u64, u64::from(n.memory_mb)])
            .collect(),
        d.objects
            .iter()
            .flat_map(|o| {
                let mut v = vec![o.producer as u64, o.bytes];
                v.extend(o.consumers.iter().map(|&c| c as u64));
                v
            })
            .collect(),
        d.predicted_time_s.to_bits(),
        d.predicted_cost.to_bits(),
    )
}

/// The thread-invariant projection of a DAG report.
fn report_key(r: &DagReport) -> (ChainKey, Option<DagKey>, usize, usize) {
    (
        chain_key(&r.chain.plan),
        r.dag.as_ref().map(dag_key),
        r.regions_considered,
        r.regions_used,
    )
}

/// The thread-invariant projection of a DAG sweep: per-point chain
/// outcome, DAG verdict, regions used, dominance, knee, plus the
/// frontier.
#[allow(clippy::type_complexity)]
fn projection(
    r: &SweepReport,
) -> (
    Vec<(Option<ChainKey>, Option<DagKey>, usize, bool, bool)>,
    Vec<usize>,
) {
    (
        r.points
            .iter()
            .map(|p| {
                (
                    p.outcome.as_ref().ok().map(chain_key),
                    p.dag.as_ref().map(dag_key),
                    p.regions_used,
                    p.dominated,
                    p.knee,
                )
            })
            .collect(),
        r.pareto.clone(),
    )
}

/// Every sweep point must equal an independent cold `optimize_dag()` at
/// the point's `(slo, batch)` — chain bits, DAG verdict, and error kind.
fn assert_dag_sweep_equals_cold(
    graph: &LayerGraph,
    cfg: &AmpsConfig,
    report: &SweepReport,
    label: &str,
) {
    for (i, p) in report.points.iter().enumerate() {
        let mut pcfg = cfg.clone().with_threads(1);
        pcfg.slo_s = Some(p.slo_s);
        pcfg.batch_size = p.batch;
        let cold = Optimizer::new(pcfg).optimize_dag(graph);
        let plabel = format!("{label}/point[{i}] slo={} batch={}", p.slo_s, p.batch);
        match (&p.outcome, &cold) {
            (Ok(swept), Ok(cold)) => {
                assert_eq!(
                    chain_key(swept),
                    chain_key(&cold.chain.plan),
                    "{plabel}: chain plan diverges"
                );
                assert_eq!(
                    p.dag.as_ref().map(dag_key),
                    cold.dag.as_ref().map(dag_key),
                    "{plabel}: DAG verdict diverges"
                );
                assert_eq!(
                    p.regions_used, cold.regions_used,
                    "{plabel}: regions_used diverges"
                );
            }
            (Err(es), Err(ec)) => assert_eq!(es, ec, "{plabel}: error kind diverges"),
            (s, c) => panic!("{plabel}: outcome diverges: {s:?} vs {c:?}"),
        }
    }
}

#[test]
fn dag_sweep_equals_independent_optimize_dag() {
    let g = zoo::inception_v3();
    for (tol, label) in [(None, "default_tol"), (Some(0.0), "tol=0")] {
        let mut cfg = slim();
        cfg.batch_size = 8;
        if let Some(t) = tol {
            cfg.cost_tolerance = t;
        }
        let grid = grid_around_free(&g, &cfg, 4);
        let report = Optimizer::new(cfg.clone().with_threads(1)).optimize_dag_sweep(&g, &grid);
        assert_eq!(report.points.len(), grid.len());
        assert_dag_sweep_equals_cold(&g, &cfg, &report, &format!("inception_b8/{label}"));
    }
}

#[test]
fn dag_report_is_thread_invariant_on_batched_inception() {
    // The ISSUE's determinism pin: the parallel region search at 8
    // threads accepts bit-identical plans to the serial search, on the
    // scenario where the DAG beats the chain.
    let g = zoo::inception_v3();
    let base = slim();
    let free = Optimizer::new(AmpsConfig {
        batch_size: 64,
        ..base.clone()
    })
    .optimize(&g)
    .expect("free chain run is feasible");
    let cfg = AmpsConfig {
        batch_size: 64,
        slo_s: Some(free.plan.predicted_time_s),
        ..base
    };
    let serial = Optimizer::new(cfg.clone().with_threads(1))
        .optimize_dag(&g)
        .expect("feasible");
    assert!(
        serial.dag.is_some(),
        "batched inception at its chain time must prefer the DAG"
    );
    for threads in [2usize, 8] {
        let par = Optimizer::new(cfg.clone().with_threads(threads))
            .optimize_dag(&g)
            .expect("feasible");
        assert_eq!(
            report_key(&serial),
            report_key(&par),
            "DAG report diverges at threads={threads}"
        );
        assert_eq!(
            serial.search.polish_steps, par.search.polish_steps,
            "polish steps diverge at threads={threads}"
        );
    }
    assert!(serial.search.polish_steps > 0, "the polish must upgrade");
}

#[test]
fn dag_sweep_projection_is_thread_invariant() {
    let g = zoo::inception_v3();
    let mut cfg = slim();
    cfg.batch_size = 8;
    let grid = grid_around_free(&g, &cfg, 4);
    let base = Optimizer::new(cfg.clone().with_threads(1)).optimize_dag_sweep(&g, &grid);
    for threads in [2usize, 8] {
        let par = Optimizer::new(cfg.clone().with_threads(threads)).optimize_dag_sweep(&g, &grid);
        assert_eq!(
            projection(&base),
            projection(&par),
            "projection diverges at threads={threads}"
        );
        assert_eq!(par.threads_used, threads);
    }
}

#[test]
fn duplicated_point_resolves_warm_with_identical_result() {
    // The second copy of a duplicated grid point runs entirely against
    // warm node/spine memos — and must reproduce the first bit for bit
    // (the memoized values are pure functions of their keys).
    let g = zoo::inception_v3();
    let mut cfg = slim();
    cfg.batch_size = 8;
    let free = Optimizer::new(cfg.clone().with_threads(1))
        .optimize(&g)
        .expect("feasible");
    let slo = free.plan.predicted_time_s * 1.1;
    let report = Optimizer::new(cfg.with_threads(1))
        .optimize_dag_sweep(&g, &SweepGrid::from_slos(vec![slo, slo]));
    assert_eq!(report.points.len(), 2);
    let (a, b) = (&report.points[0], &report.points[1]);
    assert_eq!(
        a.outcome.as_ref().ok().map(chain_key),
        b.outcome.as_ref().ok().map(chain_key),
        "duplicate points must produce identical chains"
    );
    assert_eq!(
        a.dag.as_ref().map(dag_key),
        b.dag.as_ref().map(dag_key),
        "duplicate points must produce identical DAG verdicts"
    );
    // Exactly one of the two paid the cold evaluations: the later
    // executed copy re-solves no spine span and evaluates no node grid.
    let cold = a.search.node_memo_misses + b.search.node_memo_misses;
    let warm = a.search.node_memo_misses.min(b.search.node_memo_misses);
    assert!(cold > 0, "someone must have evaluated the node grids");
    assert_eq!(warm, 0, "the duplicate point must be all memo hits");
    assert_eq!(
        a.search.spine_spans_solved.min(b.search.spine_spans_solved),
        0,
        "the duplicate point must re-solve no spine span"
    );
    assert_eq!(a.search.trials_evaluated, b.search.trials_evaluated);
}

#[test]
fn dag_sweep_counters_expose_amortization() {
    let g = zoo::inception_v3();
    let mut cfg = slim();
    cfg.batch_size = 8;
    let grid = grid_around_free(&g, &cfg, 4);
    let report = Optimizer::new(cfg.with_threads(1)).optimize_dag_sweep(&g, &grid);
    assert!(report.regions_considered > 0, "inception has fork/joins");
    assert!(report.cuts_considered > 0);
    assert!(
        report.node_memo_hits > report.node_memo_misses,
        "trials must overwhelmingly reuse node evaluations ({} hits / {} misses)",
        report.node_memo_hits,
        report.node_memo_misses
    );
    assert!(
        report.spine_span_hits > 0,
        "greedy rounds must reuse spine spans"
    );
    assert!(report.spine_spans_solved > 0);
    for (i, p) in report.points.iter().enumerate() {
        if p.outcome.is_ok() {
            assert!(p.search.trials_evaluated > 0, "point[{i}] searched nothing");
        }
    }
    assert!(report.solved() >= 1);
    assert!(report.total_time >= report.pass1_time);
}

#[test]
fn sweep_totals_are_sums_of_points() {
    // Every DAG memo lookup is tallied by the point whose search made it,
    // so the report's node and spine totals are the sums over points;
    // the segment-table totals are pass 1's, once per distinct batch.
    let g = zoo::inception_v3();
    let cfg = AmpsConfig::default().with_threads(1);
    let free = |batch: u64| {
        Optimizer::new(cfg.clone().with_batch(batch))
            .optimize(&g)
            .expect("unconstrained run is feasible")
            .plan
            .predicted_time_s
    };
    let (t1, t64) = (free(1), free(64));
    let grid = SweepGrid::from_slos(vec![t1 * 0.9, t1 * 1.5, t64 * 0.95, t64 * 1.2])
        .with_batches(vec![1, 64]);
    let r = Optimizer::new(cfg).optimize_dag_sweep(&g, &grid);
    let sum =
        |f: fn(&DagSearchStats) -> usize| r.points.iter().map(|p| f(&p.search)).sum::<usize>();
    let totals = [
        r.cache_hits,
        r.cache_misses,
        r.node_memo_hits,
        r.node_memo_misses,
        r.spine_span_hits,
        r.spine_spans_solved,
    ];
    assert_eq!(r.node_memo_hits, sum(|s| s.node_memo_hits));
    assert_eq!(r.node_memo_misses, sum(|s| s.node_memo_misses));
    assert_eq!(r.spine_span_hits, sum(|s| s.spine_span_hits));
    assert_eq!(r.spine_spans_solved, sum(|s| s.spine_spans_solved));
    // Recorded when the cache and the spine memo also kept their own
    // tallies; counting each lookup once must not move them.
    assert_eq!(totals, [185_568, 668, 6_321, 640, 360, 68]);
}
