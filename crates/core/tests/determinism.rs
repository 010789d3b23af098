//! Determinism of the parallel optimizer (DESIGN.md §5c, "Optimizer
//! parallelism"): at every thread count the selected plan must be
//! bit-identical to the sequential `threads = 1` run — same partitions,
//! same memories, bit-equal predicted cost and time. The sweep covers the
//! no-SLO path (zero MIQPs, pass 1 and selection only), binding SLOs (parallel
//! speculative MIQP pass + lazy replay), and infeasible SLOs (error-path
//! agreement). Tight-SLO sweeps run on chain models whose MIQPs are small,
//! so the suite stays fast in the debug profile; the real zoo models cover
//! the (much cheaper) unconstrained path and one slim binding case.

use ampsinf_core::colcache::SegmentColumnCache;
use ampsinf_core::cuts::enumerate_cuts;
use ampsinf_core::miqp_build::{
    evaluate_columns, presolve_dominated, separable_min_cost_cols, separable_min_time_cols,
};
use ampsinf_core::optimizer::{CutEval, OptimizeError, Optimizer, OptimizerReport};
use ampsinf_core::AmpsConfig;
use ampsinf_model::zoo;
use ampsinf_model::LayerGraph;
use ampsinf_profiler::Profile;

const THREAD_COUNTS: [usize; 2] = [2, 4];

fn assert_identical(graph: &LayerGraph, cfg: &AmpsConfig, label: &str) {
    let base: Result<OptimizerReport, OptimizeError> =
        Optimizer::new(cfg.clone().with_threads(1)).optimize(graph);
    for &t in &THREAD_COUNTS {
        let par = Optimizer::new(cfg.clone().with_threads(t)).optimize(graph);
        match (&base, &par) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    a.plan.partitions, b.plan.partitions,
                    "{label}: partitions diverge at threads={t}"
                );
                assert_eq!(
                    a.plan.predicted_cost.to_bits(),
                    b.plan.predicted_cost.to_bits(),
                    "{label}: cost diverges at threads={t} ({} vs {})",
                    a.plan.predicted_cost,
                    b.plan.predicted_cost
                );
                assert_eq!(
                    a.plan.predicted_time_s.to_bits(),
                    b.plan.predicted_time_s.to_bits(),
                    "{label}: time diverges at threads={t} ({} vs {})",
                    a.plan.predicted_time_s,
                    b.plan.predicted_time_s
                );
                assert_eq!(b.threads_used, t, "{label}: thread knob ignored");
            }
            (Err(ea), Err(eb)) => {
                assert_eq!(ea, eb, "{label}: error kind diverges at threads={t}")
            }
            (a, b) => panic!("{label}: outcome diverges at threads={t}: {a:?} vs {b:?}"),
        }
    }
}

/// SLO factors relative to the unconstrained optimum's time: >1 is slack
/// (no binding cuts), <1 forces the MIQP path on every surviving cut.
fn slo_sweep(graph: &LayerGraph, cfg: &AmpsConfig, factors: &[f64], label: &str) {
    assert_identical(graph, cfg, label);
    let free = Optimizer::new(cfg.clone().with_threads(1))
        .optimize(graph)
        .expect("unconstrained run is feasible");
    for &factor in factors {
        let slo = free.plan.predicted_time_s * factor;
        assert_identical(
            graph,
            &cfg.clone().with_slo(slo),
            &format!("{label}/slo={factor}"),
        );
    }
}

/// Trimmed candidate budget: keeps the binding MIQP path exercised on a
/// real zoo model while the debug-profile test stays fast (tight-SLO MIQPs
/// dominate the suite's runtime).
fn slim() -> AmpsConfig {
    AmpsConfig {
        max_candidate_boundaries: 8,
        ..Default::default()
    }
}

#[test]
fn zoo_models_identical_without_slo() {
    // Unconstrained runs solve zero MIQPs, so this isolates pass 1's
    // summary-table evaluation + stable sort on the real architectures.
    for g in [zoo::mobilenet_v1(), zoo::resnet50(), zoo::xception()] {
        let label = g.name.clone();
        assert_identical(&g, &AmpsConfig::default(), &label);
    }
}

#[test]
fn mobilenet_binding_slo_identical() {
    // One real-model binding case: the speculative MIQP pass + replay.
    slo_sweep(&zoo::mobilenet_v1(), &slim(), &[0.95], "mobilenet_v1/slim");
}

#[test]
fn tiny_cnn_plans_identical_across_slo_tightness() {
    // A small heterogeneous model (conv/BN/residual-add): cheap enough to
    // sweep slack and binding SLOs broadly. (Homogeneous dense chains are
    // deliberately not used here — their massive cost ties degenerate the
    // branch-and-bound search and the sweep stops being cheap.)
    let g = zoo::tiny_cnn();
    slo_sweep(&g, &AmpsConfig::default(), &[1.5, 0.9], "tiny_cnn");
}

#[test]
fn zero_tolerance_plans_identical() {
    // cost_tolerance = 0 narrows the tolerance set to exact cost ties,
    // where the first-wins ordering is most fragile.
    let cfg = AmpsConfig {
        cost_tolerance: 0.0,
        ..Default::default()
    };
    slo_sweep(&zoo::tiny_cnn(), &cfg, &[1.5, 0.9], "tiny_cnn/tol=0");
}

#[test]
fn infeasible_slo_errors_identical() {
    assert_identical(
        &zoo::mobilenet_v1(),
        &AmpsConfig::default().with_slo(0.001),
        "mobilenet_v1/impossible-slo",
    );
}

#[test]
fn memoized_columns_match_direct_evaluation() {
    // The segment-column cache must be a pure memoization: for every cut,
    // the cached per-partition columns equal a fresh evaluate + presolve.
    for g in [zoo::mobilenet_v1(), zoo::tiny_cnn()] {
        let cfg = slim();
        let profile = Profile::batched(&g, cfg.batch_size);
        let cuts = enumerate_cuts(&profile, &cfg);
        let cache = SegmentColumnCache::new();
        for cut in &cuts {
            let cached = cache.columns_for_cut(&profile, cut, &cfg);
            let direct = evaluate_columns(&profile, cut, &cfg)
                .map(|cols| cols.iter().map(presolve_dominated).collect::<Vec<_>>());
            match (cached, direct) {
                (Some(c), Some(d)) => {
                    assert_eq!(c.len(), d.len(), "{}: column count", g.name);
                    for (a, b) in c.iter().zip(&d) {
                        assert_eq!(a.as_ref(), b, "{}: cached columns diverge", g.name);
                    }
                }
                (None, None) => {}
                (c, d) => panic!(
                    "{}: cache feasibility diverges ({:?} vs {:?})",
                    g.name,
                    c.is_some(),
                    d.is_some()
                ),
            }
        }
        assert!(cache.hits() > 0, "{}: shared segments never hit", g.name);
    }
}

/// Pass 1's summary table is exact: for every cut, the table-summed
/// min-cost and min-time mixes equal the per-cut path — the cut's cached
/// columns through `separable_min_{cost,time}_cols` — bit for bit, and a
/// cut is infeasible exactly when some segment has no column.
#[test]
fn pass1_summary_table_matches_per_cut_columns_bitwise() {
    let bits = |v: f64| v.to_bits();
    for g in [
        zoo::mobilenet_v1(),
        zoo::resnet50(),
        zoo::inception_v3(),
        zoo::bert_base().quantized(1),
    ] {
        for batch in [1, 64] {
            let cfg = AmpsConfig::default().with_batch(batch);
            let label = format!("{}/batch={batch}", g.name);
            let (cuts, evals) = Optimizer::new(cfg.clone()).pass1(&g);
            let profile = Profile::batched(&g, batch);
            assert_eq!(cuts, enumerate_cuts(&profile, &cfg), "{label}: cut list");
            assert_eq!(evals.len(), cuts.len(), "{label}: one verdict per cut");
            let cache = SegmentColumnCache::new();
            let mut feasible = 0usize;
            for (ci, (cut, eval)) in cuts.iter().zip(&evals).enumerate() {
                match (cache.columns_for_cut(&profile, cut, &cfg), eval) {
                    (Some(cols), CutEval::Feasible(fe)) => {
                        feasible += 1;
                        let (mems, time, cost) = separable_min_cost_cols(&cols);
                        let (min_mems, min_time, min_cost) = separable_min_time_cols(&cols);
                        assert_eq!(fe.ci, ci, "{label}: cut index");
                        assert_eq!(fe.mems, mems, "{label}: cut {ci} min-cost mix");
                        assert_eq!(fe.min_mems, min_mems, "{label}: cut {ci} min-time mix");
                        assert_eq!(
                            [bits(fe.time), bits(fe.cost)],
                            [bits(time), bits(cost)],
                            "{label}: cut {ci} min-cost totals"
                        );
                        assert_eq!(
                            [bits(fe.min_time), bits(fe.min_cost)],
                            [bits(min_time), bits(min_cost)],
                            "{label}: cut {ci} min-time totals"
                        );
                    }
                    (None, CutEval::Infeasible) => {}
                    (cols, eval) => panic!(
                        "{label}: cut {ci} feasibility diverges (columns {}, verdict {eval:?})",
                        cols.is_some()
                    ),
                }
            }
            assert!(feasible > 0, "{label}: no feasible cut exercised");
        }
    }
}

#[test]
fn warm_and_cold_bb_plans_identical() {
    // Warm-started branch-and-bound must select the same plan as cold
    // starts — bit-equal cost/time, same partitions — at every thread
    // count, across slack and binding SLOs.
    for g in [zoo::mobilenet_v1(), zoo::tiny_cnn()] {
        let free = Optimizer::new(slim().with_threads(1))
            .optimize(&g)
            .expect("unconstrained run is feasible");
        for factor in [1.5, 0.95] {
            let slo = free.plan.predicted_time_s * factor;
            let cfg = slim().with_slo(slo);
            let warm = Optimizer::new(cfg.clone().with_threads(1))
                .optimize(&g)
                .expect("warm run feasible");
            for &t in &[1usize, 2, 4] {
                let mut cold_cfg = cfg.clone().with_threads(t);
                cold_cfg.bb_warm_start = false;
                let cold = Optimizer::new(cold_cfg)
                    .optimize(&g)
                    .expect("cold run feasible");
                let label = format!("{}/slo={factor}/threads={t}", g.name);
                assert_eq!(
                    warm.plan.partitions, cold.plan.partitions,
                    "{label}: partitions diverge warm vs cold"
                );
                assert_eq!(
                    warm.plan.predicted_cost.to_bits(),
                    cold.plan.predicted_cost.to_bits(),
                    "{label}: cost diverges warm vs cold"
                );
                assert_eq!(
                    warm.plan.predicted_time_s.to_bits(),
                    cold.plan.predicted_time_s.to_bits(),
                    "{label}: time diverges warm vs cold"
                );
            }
        }
    }
}

#[test]
fn auto_thread_count_matches_sequential_plan() {
    // threads = 0 resolves to the machine's parallelism; whatever that is,
    // the plan must match the sequential one.
    let g = zoo::resnet50();
    let base = Optimizer::new(AmpsConfig::default().with_threads(1))
        .optimize(&g)
        .unwrap();
    let auto = Optimizer::new(AmpsConfig::default()).optimize(&g).unwrap();
    assert!(auto.threads_used >= 1);
    assert_eq!(base.plan.partitions, auto.plan.partitions);
    assert_eq!(
        base.plan.predicted_cost.to_bits(),
        auto.plan.predicted_cost.to_bits()
    );
}
