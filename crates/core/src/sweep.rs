//! Amortized multi-point planning: one call plans an entire SLO × batch
//! grid (the paper's whole evaluation is such a family — cost-vs-SLO
//! curves, batch tables; §5, Figs. 7–8).
//!
//! Three amortizations over N independent [`Optimizer::optimize`] calls:
//!
//! 1. **Pass-1 sharing** — the profile, the cut enumeration, every cut's
//!    column evaluation, and the segment-column memo cache are functions
//!    of `(model, batch)` only, so they are built once per distinct batch
//!    and reused by every SLO point ([`crate::optimizer`]'s `BatchShared`).
//! 2. **Cross-point bound seeding** — the optimal cost is monotone
//!    non-increasing as the SLO loosens, so a completed tighter-SLO
//!    point's optimum is an upper bound for every looser point: it
//!    tightens the replay's LP-bound prunes and its tolerance break. A
//!    per-point cold-fallback guard keeps the bound *advisory*: plans are
//!    **always** bit-identical to independent cold solves, at every
//!    thread count, seeding on or off.
//! 3. **Parallel batch chains** — each batch's points form a sequential
//!    tight-to-loose chain (so seeds are deterministic); distinct batch
//!    chains run concurrently on scoped threads, and in a DAG sweep the
//!    remaining threads fan out each point's region trials. Results merge
//!    in grid order.
//!
//! The report marks the per-batch Pareto frontier over (time, cost) with
//! the knee point flagged — the grid point a cost/latency trade-off
//! discussion would pick.

use crate::colcache::CacheCounters;
use crate::cuts::DagShared;
use crate::optimizer::{
    BatchShared, DagSearchStats, OptimizeError, Optimizer, PointSolve, NAN_SLO, ZERO_BATCH,
};
use crate::plan::{DagPlan, ExecutionPlan, PartitionPlan, PipelinePlan};
use ampsinf_model::LayerGraph;
use ampsinf_profiler::{batched_unique, quick_eval, Profile};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The SLO × batch grid a sweep plans. The grid is the cross product of
/// `slos` and `batches`; points are reported batch-major in the order
/// given here (execution may reorder, results never do).
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// SLO values in seconds (any order; duplicates allowed).
    pub slos: Vec<f64>,
    /// Batch sizes (images per request). Defaults to `[1]`.
    pub batches: Vec<u64>,
}

impl SweepGrid {
    /// Grid over explicit SLO values at batch 1.
    pub fn from_slos(slos: Vec<f64>) -> Self {
        assert!(!slos.is_empty(), "at least one SLO required");
        assert!(
            slos.iter().all(|s| s.is_finite() && *s > 0.0),
            "SLOs must be positive and finite"
        );
        SweepGrid {
            slos,
            batches: vec![1],
        }
    }

    /// `points` linearly spaced SLOs over `[from, to]` inclusive.
    pub fn slo_range(from: f64, to: f64, points: usize) -> Self {
        assert!(points >= 1, "at least one point required");
        assert!(
            from.is_finite() && to.is_finite() && from > 0.0 && to >= from,
            "need 0 < from <= to"
        );
        let slos = if points == 1 {
            vec![from]
        } else {
            (0..points)
                .map(|i| from + (to - from) * (i as f64) / ((points - 1) as f64))
                .collect()
        };
        Self::from_slos(slos)
    }

    /// Replaces the batch axis.
    pub fn with_batches(mut self, batches: Vec<u64>) -> Self {
        assert!(!batches.is_empty(), "at least one batch size required");
        assert!(
            batches.iter().all(|&b| b >= 1),
            "batch sizes must be at least 1"
        );
        self.batches = batches;
        self
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.slos.len() * self.batches.len()
    }

    /// Whether the grid is empty (never, given the constructors' checks).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-point solver statistics; they exist to make the amortization
/// observable.
#[derive(Debug, Clone, Default)]
pub struct PointStats {
    /// Exact knapsack solves of SLO-binding cuts at this point.
    pub miqps_solved: usize,
    /// SLO-binding cuts the replay pruned on their LP bound.
    pub miqps_pruned: usize,
    /// Segment-column cache hits attributed to this point's pass 2.
    pub cache_hits: usize,
    /// Segment-column cache misses attributed to this point's pass 2
    /// (zero once the shared pass 1 has warmed the cache).
    pub cache_misses: usize,
    /// A tighter point's optimum seeded this solve.
    pub seeded: bool,
    /// The seed proved invalid and the replay reran cold (rare; the plan
    /// is cold-identical either way).
    pub seed_fallback: bool,
    /// Wall-clock spent solving this point.
    pub solve_time: Duration,
}

/// One planned grid point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The point's SLO in seconds.
    pub slo_s: f64,
    /// The point's batch size.
    pub batch: u64,
    /// The plan, or why none exists at this point.
    pub outcome: Result<ExecutionPlan, OptimizeError>,
    /// Solver statistics for this point.
    pub stats: PointStats,
    /// Another same-batch point is at least as fast *and* as cheap.
    pub dominated: bool,
    /// The knee of its batch's Pareto frontier (max normalized distance
    /// from the chord; only marked on frontiers of ≥ 3 points).
    pub knee: bool,
}

/// Result of [`Optimizer::optimize_sweep`]: every grid point in grid
/// order plus the Pareto frontier and cumulative cache statistics.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Every grid point, batch-major in grid order
    /// (`points[bi * slos.len() + si]`).
    pub points: Vec<SweepPoint>,
    /// Indices (into `points`) of the per-batch Pareto frontiers,
    /// ascending.
    pub pareto: Vec<usize>,
    /// Cuts enumerated, summed over distinct batches.
    pub cuts_considered: usize,
    /// Cumulative segment-column cache hits (shared pass 1 + all points).
    pub cache_hits: usize,
    /// Cumulative segment-column cache misses.
    pub cache_misses: usize,
    /// Wall-clock spent building the per-batch shared state (pass 1).
    pub pass1_time: Duration,
    /// Wall-clock of the whole sweep.
    pub total_time: Duration,
    /// Worker threads the sweep was allowed to use.
    pub threads_used: usize,
}

impl SweepReport {
    /// Points whose plan solved.
    pub fn solved(&self) -> usize {
        self.points.iter().filter(|p| p.outcome.is_ok()).count()
    }
}

/// One planned grid point of a DAG sweep: the chain incumbent plus the
/// branch-parallel plan when one wins at this point.
#[derive(Debug, Clone)]
pub struct DagSweepPoint {
    /// The point's SLO in seconds.
    pub slo_s: f64,
    /// The point's batch size.
    pub batch: u64,
    /// The chain incumbent, or why none exists at this point.
    pub outcome: Result<ExecutionPlan, OptimizeError>,
    /// The branch-parallel plan when it beats the chain under the twin
    /// objectives (`None`: the chain stands).
    pub dag: Option<DagPlan>,
    /// Fork/join regions the winning DAG uses (0 when `dag` is `None`).
    pub regions_used: usize,
    /// Chain-solver statistics for this point.
    pub stats: PointStats,
    /// Region-search statistics for this point (memo hits attribute to
    /// the point that touched the entry, like `PointStats`' cache
    /// columns).
    pub search: DagSearchStats,
    /// Another same-batch point's *effective* plan is at least as fast
    /// *and* as cheap.
    pub dominated: bool,
    /// The knee of its batch's effective-plan Pareto frontier.
    pub knee: bool,
}

impl DagSweepPoint {
    /// The point's effective `(time, cost)`: the DAG's when it won, the
    /// chain's otherwise, `None` when the point is infeasible.
    pub fn effective(&self) -> Option<(f64, f64)> {
        match (&self.dag, &self.outcome) {
            (Some(d), _) => Some((d.predicted_time_s, d.predicted_cost)),
            (None, Ok(p)) => Some((p.predicted_time_s, p.predicted_cost)),
            (None, Err(_)) => None,
        }
    }
}

/// Result of [`Optimizer::optimize_dag_sweep`]: every grid point in grid
/// order, the Pareto frontier over *effective* plans (the DAG's when it
/// won, the chain's otherwise), and cumulative memo statistics.
#[derive(Debug, Clone)]
pub struct DagSweepReport {
    /// Every grid point, batch-major in grid order
    /// (`points[bi * slos.len() + si]`).
    pub points: Vec<DagSweepPoint>,
    /// Indices (into `points`) of the per-batch effective-plan Pareto
    /// frontiers, ascending.
    pub pareto: Vec<usize>,
    /// Fork/join regions considered, summed over distinct batches.
    pub regions_considered: usize,
    /// Cuts enumerated, summed over distinct batches.
    pub cuts_considered: usize,
    /// Cumulative segment-column cache hits (shared pass 1 + all points).
    pub cache_hits: usize,
    /// Cumulative segment-column cache misses.
    pub cache_misses: usize,
    /// Cumulative node-evaluation memo hits, summed over distinct batches.
    pub node_memo_hits: usize,
    /// Cumulative node-evaluation memo misses (each evaluated one span's
    /// memory grid exactly once per io shape).
    pub node_memo_misses: usize,
    /// Cumulative spine-span memo hits, summed over distinct batches.
    pub spine_span_hits: usize,
    /// Cumulative spine spans actually solved.
    pub spine_spans_solved: usize,
    /// Wall-clock spent building the per-batch shared state (pass 1 and
    /// the region/byte-table precomputation).
    pub pass1_time: Duration,
    /// Wall-clock of the whole sweep.
    pub total_time: Duration,
    /// Worker threads the sweep was allowed to use.
    pub threads_used: usize,
}

impl DagSweepReport {
    /// Points whose chain plan solved.
    pub fn solved(&self) -> usize {
        self.points.iter().filter(|p| p.outcome.is_ok()).count()
    }

    /// Points whose branch-parallel plan beat the chain.
    pub fn dag_wins(&self) -> usize {
        self.points.iter().filter(|p| p.dag.is_some()).count()
    }
}

/// One planned grid point of a pipelined sweep.
#[derive(Debug, Clone)]
pub struct PipelinePoint {
    /// The point's SLO in seconds (bounds the *fill* — one request's
    /// end-to-end chain time — not the steady-state period).
    pub slo_s: f64,
    /// The point's batch size.
    pub batch: u64,
    /// The stall-aware plan, or why none exists at this point.
    pub outcome: Result<PipelinePlan, OptimizeError>,
    /// Another same-batch point has a bottleneck at least as short *and*
    /// a cost at least as low.
    pub dominated: bool,
}

/// Result of [`Optimizer::optimize_pipelined`]: every grid point in grid
/// order plus the overall throughput-best point.
#[derive(Debug, Clone)]
pub struct PipelineSweepReport {
    /// Every grid point, batch-major in grid order
    /// (`points[bi * slos.len() + si]`).
    pub points: Vec<PipelinePoint>,
    /// Index (into `points`) of the highest-steady-throughput solved
    /// point (ties: cheaper, then earlier in grid order). `None` when no
    /// point solved.
    pub best: Option<usize>,
    /// Cuts enumerated, summed over distinct batches.
    pub cuts_considered: usize,
    /// Wall-clock of the whole sweep.
    pub total_time: Duration,
}

impl PipelineSweepReport {
    /// Points whose plan solved.
    pub fn solved(&self) -> usize {
        self.points.iter().filter(|p| p.outcome.is_ok()).count()
    }
}

/// One batch group awaiting execution: the shared pass-1 state (or the
/// error every point inherits) plus the SLO indices in tight-to-loose
/// execution order.
struct BatchGroup<'a, S> {
    bi: usize,
    batch: u64,
    shared: &'a Result<S, OptimizeError>,
    /// Indices into `grid.slos`, ascending by SLO value (stable on ties).
    exec_order: Vec<usize>,
}

/// One [`BatchGroup`] per grid batch, over the per-distinct-batch state.
fn batch_groups<'a, S>(
    grid: &SweepGrid,
    shared_by_batch: &'a [(u64, Result<S, OptimizeError>)],
) -> Vec<BatchGroup<'a, S>> {
    let mut exec_order: Vec<usize> = (0..grid.slos.len()).collect();
    exec_order.sort_by(|&a, &c| {
        grid.slos[a]
            .partial_cmp(&grid.slos[c])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    grid.batches
        .iter()
        .enumerate()
        .map(|(bi, &b)| BatchGroup {
            bi,
            batch: b,
            shared: shared_of(shared_by_batch, b),
            exec_order: exec_order.clone(),
        })
        .collect()
}

/// The state [`Optimizer::shared_per_batch`] built for batch `b`.
fn shared_of<S>(
    shared_by_batch: &[(u64, Result<S, OptimizeError>)],
    b: u64,
) -> &Result<S, OptimizeError> {
    &shared_by_batch
        .iter()
        .find(|(seen, _)| *seen == b)
        .expect("every grid batch was profiled")
        .1
}

/// Runs `run` over every batch group — on up to `workers` scoped threads
/// claiming groups in turn when there are several — and returns the
/// results in group order, whichever thread ran each.
fn run_groups<G: Sync, P: Send>(
    groups: &[G],
    workers: usize,
    run: impl Fn(&G) -> P + Sync,
) -> Vec<P> {
    if workers <= 1 {
        return groups.iter().map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, P)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let gi = next.fetch_add(1, Ordering::Relaxed);
                        if gi >= groups.len() {
                            break;
                        }
                        local.push((gi, run(&groups[gi])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep chain worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<P>> = (0..groups.len()).map(|_| None).collect();
    for (gi, p) in parts.into_iter().flatten() {
        slots[gi] = Some(p);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every chain ran exactly once"))
        .collect()
}

/// Scatters each group's chain (points in its execution order) into
/// batch-major grid order.
fn grid_order<S, P>(groups: &[BatchGroup<'_, S>], chains: Vec<Vec<P>>, per_batch: usize) -> Vec<P> {
    let mut points: Vec<Option<P>> = (0..groups.len() * per_batch).map(|_| None).collect();
    for (g, chain) in groups.iter().zip(chains) {
        for (&si, point) in g.exec_order.iter().zip(chain) {
            points[g.bi * per_batch + si] = Some(point);
        }
    }
    points
        .into_iter()
        .map(|p| p.expect("every grid point planned exactly once"))
        .collect()
}

impl Optimizer {
    /// Per-distinct-batch shared state: `build` runs on the batch's profile
    /// with an optimizer configured for that batch. A zero batch gets
    /// [`OptimizeError::InvalidInput`] instead, which every point at it
    /// inherits.
    fn shared_per_batch<S>(
        &self,
        graph: &LayerGraph,
        batches: &[u64],
        build: impl Fn(&Optimizer, Profile) -> Result<S, OptimizeError>,
    ) -> Vec<(u64, Result<S, OptimizeError>)> {
        let valid: Vec<u64> = batches.iter().copied().filter(|&b| b > 0).collect();
        let mut out: Vec<(u64, Result<S, OptimizeError>)> = batched_unique(graph, &valid)
            .into_iter()
            .map(|(b, profile)| {
                let mut cfg = self.config().clone();
                cfg.batch_size = b;
                (b, build(&Optimizer::new(cfg), profile))
            })
            .collect();
        if valid.len() < batches.len() {
            out.push((0, Err(ZERO_BATCH)));
        }
        out
    }

    /// Plans every point of `grid` in one call. See the module docs for
    /// what is shared across points; the contract is that every returned
    /// plan is bit-identical to an independent [`Optimizer::optimize`]
    /// call at that point's `(slo, batch)` — at every thread count, with
    /// seeding on or off.
    pub fn optimize_sweep(&self, graph: &LayerGraph, grid: &SweepGrid) -> SweepReport {
        let t0 = Instant::now();
        let threads = self.resolve_threads();

        // Shared pass 1, once per distinct batch.
        let p1 = Instant::now();
        let shared_by_batch =
            self.shared_per_batch(graph, &grid.batches, |opt, p| opt.build_shared(p));
        let pass1_time = p1.elapsed();

        // Batch chains run concurrently; the split depends only on the
        // grid shape and `threads`, never on interleaving.
        let groups = batch_groups(grid, &shared_by_batch);
        let workers = threads.min(groups.len()).max(1);
        let chains = run_groups(&groups, workers, |g| {
            let mut bound = None;
            g.exec_order
                .iter()
                .map(|&si| {
                    let t = Instant::now();
                    let slo = grid.slos[si];
                    let (_, solve, mut stats) =
                        self.sweep_point(graph, g.shared.as_ref(), g.batch, slo, &mut bound);
                    stats.solve_time = t.elapsed();
                    SweepPoint {
                        slo_s: slo,
                        batch: g.batch,
                        outcome: solve.map(|ps| ps.plan),
                        stats,
                        dominated: false,
                        knee: false,
                    }
                })
                .collect()
        });
        let n = grid.slos.len();
        let mut points = grid_order(&groups, chains, n);
        let pareto = mark_pareto(&mut points, grid.batches.len(), n);

        let ok_shared = || shared_by_batch.iter().filter_map(|(_, s)| s.as_ref().ok());
        SweepReport {
            points,
            pareto,
            cuts_considered: ok_shared().map(|sh| sh.pass1.cuts.len()).sum(),
            cache_hits: ok_shared().map(|sh| sh.cache.hits()).sum(),
            cache_misses: ok_shared().map(|sh| sh.cache.misses()).sum(),
            pass1_time,
            total_time: t0.elapsed(),
            threads_used: threads,
        }
    }

    /// Solves one grid point of a batch chain at `(batch, slo)`, seeded
    /// with the chain's running `bound` (tightened when the point solves).
    /// Returns the point's optimizer, its solve, and its stats (with
    /// `solve_time` left for the caller to stamp).
    fn sweep_point(
        &self,
        graph: &LayerGraph,
        shared: Result<&BatchShared, &OptimizeError>,
        batch: u64,
        slo: f64,
        bound: &mut Option<f64>,
    ) -> (Optimizer, Result<PointSolve, OptimizeError>, PointStats) {
        let mut cfg = self.config().clone();
        cfg.batch_size = batch;
        cfg.slo_s = Some(slo);
        let seed = if cfg.sweep_seed_bounds { *bound } else { None };
        let opt = Optimizer::new(cfg);
        let counters = CacheCounters::new();
        let solve = shared
            .map_err(Clone::clone)
            .and_then(|sh| opt.solve_point(graph, sh, seed, Some(&counters)));
        let stats = match &solve {
            Ok(ps) => {
                *bound = Some(bound.map_or(ps.best_cost, |b| b.min(ps.best_cost)));
                PointStats {
                    miqps_solved: ps.solved.len(),
                    miqps_pruned: ps.miqps_pruned,
                    cache_hits: counters.hits(),
                    cache_misses: counters.misses(),
                    seeded: ps.seeded,
                    seed_fallback: ps.seed_fallback,
                    solve_time: Duration::ZERO,
                }
            }
            Err(_) => PointStats {
                seeded: shared.is_ok() && seed.is_some(),
                ..PointStats::default()
            },
        };
        (opt, solve, stats)
    }

    /// Plans every point of `grid` with the branch-parallel search of
    /// [`Optimizer::optimize_dag`]: each point gets the chain incumbent
    /// *and* the greedy fork/join region search against it.
    ///
    /// Reuses [`Optimizer::optimize_sweep`]'s amortization for the chain
    /// side (shared pass 1, tight-to-loose bound seeding, parallel batch
    /// chains) and adds the DAG side's own sharing: the region
    /// candidates, scatter/gather byte tables, spine-span memo, and
    /// node-evaluation memo are built once per distinct batch (the
    /// region tables and memos are SLO-independent) and
    /// warmed further by every point of the batch. The contract matches
    /// `optimize_sweep`'s: every point's chain plan *and* DAG verdict are
    /// bit-identical to an independent [`Optimizer::optimize_dag`] call at
    /// that `(slo, batch)` — at every thread count, seeding on or off —
    /// because every memoized value is a pure function of its key.
    pub fn optimize_dag_sweep(&self, graph: &LayerGraph, grid: &SweepGrid) -> DagSweepReport {
        let t0 = Instant::now();
        let threads = self.resolve_threads();

        // Shared pass 1 plus the DAG search's shared tables, once per
        // distinct batch.
        let p1 = Instant::now();
        let shared_by_batch = self.shared_per_batch(graph, &grid.batches, |opt, p| {
            let sh = opt.build_shared(p)?;
            let ds = DagShared::new(graph, &sh.profile, opt.config());
            Ok((sh, ds))
        });
        let pass1_time = p1.elapsed();

        // Same deterministic thread split as `optimize_sweep`: batch
        // chains concurrently, leftover threads fan out each point's
        // region trials.
        let groups = batch_groups(grid, &shared_by_batch);
        let workers = threads.min(groups.len()).max(1);
        let inner = (threads / workers).max(1);
        let chains = run_groups(&groups, workers, |g| {
            let mut bound = None;
            g.exec_order
                .iter()
                .map(|&si| {
                    let t = Instant::now();
                    let slo = grid.slos[si];
                    let chain = g.shared.as_ref().map(|(sh, _)| sh);
                    let (opt, solve, mut stats) =
                        self.sweep_point(graph, chain, g.batch, slo, &mut bound);
                    let (dag, regions_used, search) = match (&solve, g.shared) {
                        (Ok(ps), Ok((sh, ds))) => {
                            let s0 = Instant::now();
                            let (dag, used, mut search) =
                                opt.dag_search(graph, sh, ds, &ps.plan, inner);
                            search.search_time = s0.elapsed();
                            (dag, used, search)
                        }
                        _ => (None, 0, DagSearchStats::default()),
                    };
                    stats.solve_time = t.elapsed();
                    DagSweepPoint {
                        slo_s: slo,
                        batch: g.batch,
                        outcome: solve.map(|ps| ps.plan),
                        dag,
                        regions_used,
                        stats,
                        search,
                        dominated: false,
                        knee: false,
                    }
                })
                .collect()
        });
        let n = grid.slos.len();
        let mut points = grid_order(&groups, chains, n);
        let pareto = mark_frontier(&mut points, grid.batches.len(), n, true);

        let ok_shared = || shared_by_batch.iter().filter_map(|(_, s)| s.as_ref().ok());
        DagSweepReport {
            points,
            pareto,
            regions_considered: ok_shared().map(|(_, ds)| ds.regions.len()).sum(),
            cuts_considered: ok_shared().map(|(sh, _)| sh.pass1.cuts.len()).sum(),
            cache_hits: ok_shared().map(|(sh, _)| sh.cache.hits()).sum(),
            cache_misses: ok_shared().map(|(sh, _)| sh.cache.misses()).sum(),
            node_memo_hits: ok_shared().map(|(sh, _)| sh.cache.node_hits()).sum(),
            node_memo_misses: ok_shared().map(|(sh, _)| sh.cache.node_misses()).sum(),
            spine_span_hits: ok_shared().map(|(_, ds)| ds.spine_hits()).sum(),
            spine_spans_solved: ok_shared().map(|(_, ds)| ds.spine_solves()).sum(),
            pass1_time,
            total_time: t0.elapsed(),
            threads_used: threads,
        }
    }

    /// Plans every point of `grid` for **pipelined** execution: batch size
    /// and partition are chosen *jointly* against steady-state throughput
    /// under the SLO. Under pipelined stage execution the makespan is
    /// bottleneck-stage-bound — `fill + (n−1)·max_i tᵢ`, not `n·Σtᵢ` — so
    /// among configurations whose *fill* (one request's chain time) meets
    /// the SLO and whose cost stays within `cost_tolerance` of the
    /// cheapest such configuration, the planner picks the cut whose
    /// slowest stage is shortest, i.e. the cut that best balances stage
    /// times and therefore minimizes pipeline stalls.
    ///
    /// Reuses [`Optimizer::optimize_sweep`]'s amortization: the profile,
    /// cut enumeration, and every cut's separable column optima are built
    /// once per distinct batch and shared by every SLO point.
    pub fn optimize_pipelined(&self, graph: &LayerGraph, grid: &SweepGrid) -> PipelineSweepReport {
        let t0 = Instant::now();
        let shared_by_batch =
            self.shared_per_batch(graph, &grid.batches, |opt, p| opt.build_shared(p));

        let mut points = Vec::with_capacity(grid.len());
        for &batch in &grid.batches {
            let shared = shared_of(&shared_by_batch, batch);
            for &slo in &grid.slos {
                let outcome = match shared {
                    Err(e) => Err(e.clone()),
                    Ok(sh) => self.solve_pipelined_point(graph, sh, slo),
                };
                points.push(PipelinePoint {
                    slo_s: slo,
                    batch,
                    outcome,
                    dominated: false,
                });
            }
        }

        mark_pipeline_dominance(&mut points, grid.batches.len(), grid.slos.len());

        // Grid-best: max steady throughput (min bottleneck), then min
        // cost, then earliest grid index.
        let mut best: Option<usize> = None;
        for (i, p) in points.iter().enumerate() {
            let Ok(pp) = &p.outcome else { continue };
            let better = match best {
                None => true,
                Some(j) => {
                    let cur = points[j].outcome.as_ref().expect("best is solved");
                    pp.bottleneck_s < cur.bottleneck_s
                        || (pp.bottleneck_s == cur.bottleneck_s
                            && pp.plan.predicted_cost < cur.plan.predicted_cost)
                }
            };
            if better {
                best = Some(i);
            }
        }

        let cuts_considered: usize = shared_by_batch
            .iter()
            .filter_map(|(_, s)| s.as_ref().ok().map(|sh| sh.pass1.cuts.len()))
            .sum();

        PipelineSweepReport {
            points,
            best,
            cuts_considered,
            total_time: t0.elapsed(),
        }
    }

    /// Solves one pipelined grid point against a [`BatchShared`].
    ///
    /// Candidate configurations are each feasible cut's two separable
    /// memory mixes from pass 1 (min-cost and min-time). The twin
    /// objectives become: (1) the fill must meet the SLO; (2) cost within
    /// `cost_tolerance` of the cheapest SLO-feasible candidate; (3) among
    /// those, minimize the bottleneck stage duration (ties: cheaper, then
    /// pass-1 cost rank, min-cost mix before min-time mix).
    fn solve_pipelined_point(
        &self,
        graph: &LayerGraph,
        sh: &BatchShared,
        slo: f64,
    ) -> Result<PipelinePlan, OptimizeError> {
        if slo.is_nan() {
            return Err(NAN_SLO);
        }
        let cfg = self.config();
        let p1 = &sh.pass1;
        // Pass A: the cost floor over SLO-feasible candidates.
        let mut floor = f64::INFINITY;
        for &ci in &sh.order {
            let s = p1.totals(ci);
            if s.time <= slo + 1e-9 {
                floor = floor.min(s.cost);
            }
            if s.min_time <= slo + 1e-9 {
                floor = floor.min(s.min_cost);
            }
        }
        if floor.is_infinite() {
            return Err(OptimizeError::SloInfeasible);
        }
        let budget = floor * (1.0 + self.tolerance()) + 1e-15;

        // Pass B: among budget-feasible candidates, minimize the
        // bottleneck stage. Stage durations come from `quick_eval` — the
        // same arithmetic pass 1 used for the totals. Mixes are read back
        // from pass 1; a plan is built only for a new best.
        let n = sh.profile.num_layers();
        let mut best: Option<PipelinePlan> = None;
        let mut stage_times: Vec<f64> = Vec::new();
        for &ci in &sh.order {
            let s = p1.totals(ci);
            for fastest in [false, true] {
                let (time, cost) = if fastest {
                    (s.min_time, s.min_cost)
                } else {
                    (s.time, s.cost)
                };
                if time > slo + 1e-9 || cost > budget || (fastest && p1.one_mix(ci)) {
                    continue;
                }
                stage_times.clear();
                let mut start = 0usize;
                let mut ok = true;
                for (i, (end, mem)) in p1.cuts.cut(ci).zip(p1.mix(ci, fastest)).enumerate() {
                    match quick_eval(
                        &sh.profile,
                        start,
                        end,
                        mem,
                        &cfg.quotas,
                        &cfg.prices,
                        &cfg.perf,
                        &cfg.store,
                        i == 0,
                        end == n - 1,
                    ) {
                        Ok(e) => stage_times.push(e.duration_s),
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                    start = end + 1;
                }
                if !ok {
                    continue;
                }
                let bottleneck = stage_times.iter().copied().fold(0.0f64, f64::max);
                let replace = match &best {
                    None => true,
                    Some(b) => {
                        bottleneck < b.bottleneck_s
                            || (bottleneck == b.bottleneck_s && cost < b.plan.predicted_cost)
                    }
                };
                if replace {
                    let mut partitions = Vec::with_capacity(stage_times.len());
                    let mut start = 0usize;
                    for (end, mem) in p1.cuts.cut(ci).zip(p1.mix(ci, fastest)) {
                        partitions.push(PartitionPlan {
                            start,
                            end,
                            memory_mb: mem,
                        });
                        start = end + 1;
                    }
                    best = Some(PipelinePlan {
                        plan: ExecutionPlan {
                            model: graph.name.clone(),
                            partitions,
                            predicted_time_s: time,
                            predicted_cost: cost,
                        },
                        stage_times_s: stage_times.clone(),
                        bottleneck_s: bottleneck,
                    });
                }
            }
        }
        best.ok_or(OptimizeError::SloInfeasible)
    }
}

/// A sweep point every frontier marking understands: an optional
/// `(x, y)` metric pair (both lower-is-better; `None` skips the point)
/// plus the dominated/knee flags to set.
trait FrontierPoint {
    /// The point's metric pair, or `None` when it has no plan to rank.
    fn metric(&self) -> Option<(f64, f64)>;
    /// Records that another same-batch point dominates this one.
    fn set_dominated(&mut self, dominated: bool);
    /// Records that this point is its frontier's knee (ignored by point
    /// types without the concept).
    fn set_knee(&mut self) {}
}

impl FrontierPoint for SweepPoint {
    fn metric(&self) -> Option<(f64, f64)> {
        self.outcome
            .as_ref()
            .ok()
            .map(|p| (p.predicted_time_s, p.predicted_cost))
    }
    fn set_dominated(&mut self, dominated: bool) {
        self.dominated = dominated;
    }
    fn set_knee(&mut self) {
        self.knee = true;
    }
}

impl FrontierPoint for DagSweepPoint {
    fn metric(&self) -> Option<(f64, f64)> {
        self.effective()
    }
    fn set_dominated(&mut self, dominated: bool) {
        self.dominated = dominated;
    }
    fn set_knee(&mut self) {
        self.knee = true;
    }
}

impl FrontierPoint for PipelinePoint {
    fn metric(&self) -> Option<(f64, f64)> {
        self.outcome
            .as_ref()
            .ok()
            .map(|pp| (pp.bottleneck_s, pp.plan.predicted_cost))
    }
    fn set_dominated(&mut self, dominated: bool) {
        self.dominated = dominated;
    }
}

/// Marks per-batch dominance over the points' metric pairs in place;
/// returns the ascending frontier indices. A point is dominated when
/// another rankable same-batch point is no worse on both axes (exact
/// ties keep the lower index, mirroring the column presolve's
/// tie-break). With `knees`, each frontier of ≥ 3 points also gets its
/// knee flagged: the point farthest (perpendicular) from the chord
/// between the frontier's endpoints, in normalized metric space, ties
/// keeping the earliest along the frontier.
fn mark_frontier<P: FrontierPoint>(
    points: &mut [P],
    num_batches: usize,
    per_batch: usize,
    knees: bool,
) -> Vec<usize> {
    let mut pareto = Vec::new();
    for bi in 0..num_batches {
        let base = bi * per_batch;
        let solved: Vec<usize> = (base..base + per_batch)
            .filter(|&i| points[i].metric().is_some())
            .collect();
        let tc = |points: &[P], i: usize| points[i].metric().expect("rankable point");
        let mut frontier: Vec<usize> = Vec::new();
        for &i in &solved {
            let (ti, ci) = tc(points, i);
            let dominated = solved.iter().any(|&j| {
                if j == i {
                    return false;
                }
                let (tj, cj) = tc(points, j);
                tj <= ti && cj <= ci && (tj < ti || cj < ci || j < i)
            });
            points[i].set_dominated(dominated);
            if !dominated {
                frontier.push(i);
            }
        }
        frontier.sort_by(|&a, &b| {
            tc(points, a)
                .0
                .partial_cmp(&tc(points, b).0)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        if knees && frontier.len() >= 3 {
            let (t_lo, c_hi) = tc(points, frontier[0]);
            let (t_hi, c_lo) = tc(points, *frontier.last().unwrap());
            let span_t = (t_hi - t_lo).abs().max(1e-12);
            let span_c = (c_hi - c_lo).abs().max(1e-12);
            let norm = |points: &[P], i: usize| {
                let (t, c) = tc(points, i);
                ((t - t_lo) / span_t, (c - c_lo) / span_c)
            };
            let (x1, y1) = norm(points, frontier[0]);
            let (x2, y2) = norm(points, *frontier.last().unwrap());
            let mut knee: Option<(usize, f64)> = None;
            for &i in &frontier[1..frontier.len() - 1] {
                let (x, y) = norm(points, i);
                let dist = ((x2 - x1) * (y1 - y) - (x1 - x) * (y2 - y1)).abs();
                if knee.is_none_or(|(_, d)| dist > d) {
                    knee = Some((i, dist));
                }
            }
            if let Some((i, _)) = knee {
                points[i].set_knee();
            }
        }
        pareto.extend(frontier.iter().copied());
    }
    pareto.sort_unstable();
    pareto
}

/// Marks per-batch dominance over (bottleneck, cost) in place
/// ([`mark_frontier`] without knees; exact ties keep the lower index).
fn mark_pipeline_dominance(
    points: &mut [PipelinePoint],
    num_batches: usize,
    slos_per_batch: usize,
) {
    mark_frontier(points, num_batches, slos_per_batch, false);
}

/// Marks per-batch dominance and knees in place; returns the ascending
/// frontier indices ([`mark_frontier`] over the chain plans' (time,
/// cost)).
fn mark_pareto(points: &mut [SweepPoint], num_batches: usize, slos_per_batch: usize) -> Vec<usize> {
    mark_frontier(points, num_batches, slos_per_batch, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmpsConfig;
    use crate::plan::PartitionPlan;

    fn point(slo: f64, batch: u64, time: f64, cost: f64) -> SweepPoint {
        SweepPoint {
            slo_s: slo,
            batch,
            outcome: Ok(ExecutionPlan {
                model: "m".into(),
                partitions: vec![PartitionPlan {
                    start: 0,
                    end: 0,
                    memory_mb: 512,
                }],
                predicted_time_s: time,
                predicted_cost: cost,
            }),
            stats: PointStats::default(),
            dominated: false,
            knee: false,
        }
    }

    #[test]
    fn grid_shapes() {
        let g = SweepGrid::slo_range(1.0, 2.0, 5).with_batches(vec![1, 8]);
        assert_eq!(g.len(), 10);
        assert!(!g.is_empty());
        assert_eq!(g.slos[0], 1.0);
        assert_eq!(*g.slos.last().unwrap(), 2.0);
        assert!((g.slos[1] - 1.25).abs() < 1e-12);
        assert_eq!(SweepGrid::slo_range(3.0, 3.0, 1).slos, vec![3.0]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn grid_rejects_nonpositive_slo() {
        let _ = SweepGrid::from_slos(vec![1.0, 0.0]);
    }

    #[test]
    fn pareto_marks_dominated_and_knee() {
        // A convex frontier with one clearly dominated point and a sharp
        // elbow at (2, 2).
        let mut pts = vec![
            point(0.1, 1, 1.0, 10.0),
            point(0.2, 1, 2.0, 2.0),
            point(0.3, 1, 5.0, 1.8),
            point(0.4, 1, 9.0, 1.7),
            point(0.5, 1, 9.5, 5.0), // dominated by (9.0, 1.7)? no: 9.5 > 9.0 and 5.0 > 1.7 → dominated
        ];
        let pareto = mark_pareto(&mut pts, 1, 5);
        assert_eq!(pareto, vec![0, 1, 2, 3]);
        assert!(pts[4].dominated);
        assert!(!pts[1].dominated);
        assert!(pts[1].knee, "elbow at (2,2) should be the knee");
        assert_eq!(pts.iter().filter(|p| p.knee).count(), 1);
    }

    #[test]
    fn pareto_tie_keeps_lower_index() {
        let mut pts = vec![
            point(0.1, 1, 1.0, 1.0),
            point(0.2, 1, 1.0, 1.0), // exact duplicate → dominated by index 0
        ];
        let pareto = mark_pareto(&mut pts, 1, 2);
        assert_eq!(pareto, vec![0]);
        assert!(!pts[0].dominated);
        assert!(pts[1].dominated);
    }

    #[test]
    fn pareto_is_per_batch() {
        // Batch groups never dominate across each other.
        let mut pts = vec![
            point(0.1, 1, 5.0, 5.0),
            point(0.2, 1, 6.0, 6.0), // dominated within batch 1
            point(0.1, 8, 1.0, 1.0), // would dominate everything if global
            point(0.2, 8, 2.0, 2.0), // dominated within batch 8
        ];
        let pareto = mark_pareto(&mut pts, 2, 2);
        assert_eq!(pareto, vec![0, 2]);
    }

    #[test]
    fn short_frontier_has_no_knee() {
        let mut pts = vec![point(0.1, 1, 1.0, 2.0), point(0.2, 1, 2.0, 1.0)];
        mark_pareto(&mut pts, 1, 2);
        assert!(pts.iter().all(|p| !p.knee));
    }

    #[test]
    fn infeasible_points_are_skipped_by_pareto() {
        let mut pts = vec![point(0.1, 1, 1.0, 1.0), point(0.2, 1, 2.0, 2.0)];
        pts[0].outcome = Err(OptimizeError::SloInfeasible);
        let pareto = mark_pareto(&mut pts, 1, 2);
        assert_eq!(pareto, vec![1]);
        assert!(!pts[1].dominated);
    }

    fn pipe_point(slo: f64, batch: u64, bottleneck: f64, cost: f64) -> PipelinePoint {
        PipelinePoint {
            slo_s: slo,
            batch,
            outcome: Ok(PipelinePlan {
                plan: ExecutionPlan {
                    model: "m".into(),
                    partitions: vec![PartitionPlan {
                        start: 0,
                        end: 0,
                        memory_mb: 512,
                    }],
                    predicted_time_s: bottleneck,
                    predicted_cost: cost,
                },
                stage_times_s: vec![bottleneck],
                bottleneck_s: bottleneck,
            }),
            dominated: false,
        }
    }

    #[test]
    fn pipeline_dominance_is_per_batch_with_tie_break() {
        let mut pts = vec![
            pipe_point(0.1, 1, 1.0, 2.0),
            pipe_point(0.2, 1, 1.0, 2.0), // exact tie → dominated by index 0
            pipe_point(0.3, 1, 2.0, 1.0), // incomparable → kept
            pipe_point(0.1, 8, 9.0, 9.0), // other batch: untouched by batch 1
            pipe_point(0.2, 8, 9.5, 9.5), // dominated within batch 8
            pipe_point(0.3, 8, 0.5, 9.9), // incomparable → kept
        ];
        mark_pipeline_dominance(&mut pts, 2, 3);
        assert!(!pts[0].dominated);
        assert!(pts[1].dominated);
        assert!(!pts[2].dominated);
        assert!(!pts[3].dominated);
        assert!(pts[4].dominated);
        assert!(!pts[5].dominated);
    }

    #[test]
    fn pipelined_point_balances_stages_within_budget() {
        let g = ampsinf_model::zoo::resnet50();
        let opt = Optimizer::new(AmpsConfig::default().with_threads(1));
        let free = opt.optimize(&g).unwrap().plan;
        let grid = SweepGrid::from_slos(vec![free.predicted_time_s * 2.0]);
        let report = opt.optimize_pipelined(&g, &grid);
        assert_eq!(report.points.len(), 1);
        assert_eq!(report.best, Some(0));
        let pp = report.points[0].outcome.as_ref().unwrap();
        pp.plan.validate(g.num_layers()).unwrap();
        // Stage times are the same arithmetic as the chain prediction.
        let fill: f64 = pp.stage_times_s.iter().sum();
        assert!(
            (fill - pp.plan.predicted_time_s).abs() < 1e-9,
            "fill {fill} vs predicted {}",
            pp.plan.predicted_time_s
        );
        assert!(pp.bottleneck_s <= pp.plan.predicted_time_s + 1e-12);
        assert!(pp.steady_rps() > 0.0);
        // The tolerance budget holds against the cheapest SLO-feasible
        // candidate, which the optimizer's own plan upper-bounds.
        let cfg = AmpsConfig::default();
        assert!(
            pp.plan.predicted_cost <= free.predicted_cost * (1.0 + cfg.cost_tolerance) + 1e-12,
            "pipelined {} vs optimize {}",
            pp.plan.predicted_cost,
            free.predicted_cost
        );
    }

    #[test]
    fn pipelined_sweep_is_deterministic_and_rejects_tight_slo() {
        let g = ampsinf_model::zoo::mobilenet_v1();
        let opt = Optimizer::new(AmpsConfig::default().with_threads(1));
        let free = opt.optimize(&g).unwrap().plan.predicted_time_s;
        let grid = SweepGrid::from_slos(vec![free * 1e-6, free * 3.0]).with_batches(vec![1, 4]);
        let a = opt.optimize_pipelined(&g, &grid);
        let b = opt.optimize_pipelined(&g, &grid);
        assert_eq!(a.points.len(), 4);
        // The hopeless SLO at batch 1 is infeasible.
        assert!(matches!(
            a.points[0].outcome,
            Err(OptimizeError::SloInfeasible)
        ));
        assert!(a.solved() >= 1);
        assert!(a.best.is_some());
        assert_eq!(a.best, b.best);
        for (x, y) in a.points.iter().zip(&b.points) {
            match (&x.outcome, &y.outcome) {
                (Ok(px), Ok(py)) => assert_eq!(px, py),
                (Err(ex), Err(ey)) => assert_eq!(ex, ey),
                _ => panic!("outcome mismatch"),
            }
        }
        // Best is the max-throughput point: no solved point beats it.
        let best = a.points[a.best.unwrap()].outcome.as_ref().unwrap();
        for p in &a.points {
            if let Ok(pp) = &p.outcome {
                assert!(pp.bottleneck_s >= best.bottleneck_s - 1e-15);
            }
        }
    }

    #[test]
    fn zero_batches_and_nan_slos_are_per_point_errors() {
        let g = ampsinf_model::zoo::tiny_cnn();
        let opt = Optimizer::new(AmpsConfig::default().with_threads(1));
        let free = opt.optimize(&g).unwrap().plan.predicted_time_s;
        // The public fields bypass the grid constructors' checks.
        let grid = SweepGrid {
            slos: vec![f64::NAN, free * 2.0],
            batches: vec![0, 1],
        };
        let want = [Some(ZERO_BATCH), Some(ZERO_BATCH), Some(NAN_SLO), None];
        let chain: Vec<_> = opt.optimize_sweep(&g, &grid).points;
        let dag: Vec<_> = opt.optimize_dag_sweep(&g, &grid).points;
        let pipe: Vec<_> = opt.optimize_pipelined(&g, &grid).points;
        let outcomes = [
            chain
                .iter()
                .map(|p| p.outcome.clone().err())
                .collect::<Vec<_>>(),
            dag.iter().map(|p| p.outcome.clone().err()).collect(),
            pipe.iter().map(|p| p.outcome.clone().err()).collect(),
        ];
        for errs in outcomes {
            // Batch-major: (0, NaN), (0, ok), (1, NaN), (1, ok) plans.
            assert_eq!(errs, want);
        }
    }

    #[test]
    fn sweep_smoke_on_tiny_model() {
        let g = ampsinf_model::zoo::tiny_cnn();
        let opt = Optimizer::new(AmpsConfig::default().with_threads(1));
        let free = opt.optimize(&g).unwrap().plan.predicted_time_s;
        let grid = SweepGrid::slo_range(free * 0.9, free * 2.0, 4);
        let report = opt.optimize_sweep(&g, &grid);
        assert_eq!(report.points.len(), 4);
        assert!(report.solved() >= 1);
        assert!(!report.pareto.is_empty());
        assert!(report.cache_hits > 0, "pass 1 must share the cache");
    }
}
