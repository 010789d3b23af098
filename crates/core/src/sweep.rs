//! Amortized multi-point planning: one call plans an entire SLO × batch
//! grid (the paper's whole evaluation is such a family — cost-vs-SLO
//! curves, batch tables; §5, Figs. 7–8).
//!
//! What a sweep shares over N independent [`Optimizer::optimize`] calls:
//!
//! - **Pass 1, once per batch.** The profile, the cut enumeration, the
//!   segment table with every segment's columns, and the segment-column
//!   memo cache are functions of `(model, batch)` only, so they are built
//!   once per distinct batch and reused by every SLO point
//!   ([`crate::optimizer`]'s `BatchShared`). Each point then runs exactly
//!   the pass 2 a cold `optimize()` runs, reading segments from the table,
//!   so its plan and its solve/prune counters equal the cold call's and it
//!   evaluates no segment.
//! - **Parallel batches.** A batch's points run in grid order on one
//!   thread; distinct batches run concurrently on scoped threads, and in
//!   a DAG sweep the remaining threads fan out each point's region
//!   trials. Results come back in grid order.
//!
//! [`Optimizer::optimize_sweep`] (chain plans) and
//! [`Optimizer::optimize_dag_sweep`] (chain-vs-DAG verdicts) are two entry
//! points over one body and return the same [`SweepReport`]; a chain sweep
//! builds no region tables and runs no region search. The report marks
//! the per-batch Pareto frontier over each point's effective (time, cost)
//! with the knee point flagged — the grid point a cost/latency trade-off
//! discussion would pick. Pipelined planning is one point at a time
//! ([`Optimizer::optimize_pipelined`]).

use crate::cuts::DagShared;
use crate::optimizer::{BatchShared, DagSearchStats, OptimizeError, Optimizer, ZERO_BATCH};
use crate::par_map;
use crate::plan::{DagPlan, ExecutionPlan};
use ampsinf_model::LayerGraph;
use ampsinf_profiler::batched_unique;
use std::time::{Duration, Instant};

/// The SLO × batch grid a sweep plans. The grid is the cross product of
/// `slos` and `batches`; points are planned and reported batch-major in
/// the order given here.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// SLO values in seconds (any order; duplicates allowed).
    pub slos: Vec<f64>,
    /// Batch sizes (images per request). Empty, as the constructors
    /// leave it, plans at the optimizer's `AmpsConfig::batch_size`.
    pub batches: Vec<u64>,
}

impl SweepGrid {
    /// Grid over explicit SLO values at the optimizer's batch. Values are
    /// not checked here: a sweep plans a NaN SLO to
    /// [`OptimizeError::InvalidInput`] and a zero or negative one to
    /// [`OptimizeError::SloInfeasible`], per point.
    pub fn from_slos(slos: Vec<f64>) -> Self {
        SweepGrid {
            slos,
            batches: Vec::new(),
        }
    }

    /// `points` linearly spaced SLOs from `from` to `to` inclusive (none
    /// when `points` is 0).
    pub fn slo_range(from: f64, to: f64, points: usize) -> Self {
        let slos = if points == 1 {
            vec![from]
        } else {
            (0..points)
                .map(|i| from + (to - from) * (i as f64) / ((points - 1) as f64))
                .collect()
        };
        Self::from_slos(slos)
    }

    /// Replaces the batch axis (empty: the optimizer's batch). A zero
    /// batch plans to [`OptimizeError::InvalidInput`] at each of its points.
    pub fn with_batches(mut self, batches: Vec<u64>) -> Self {
        self.batches = batches;
        self
    }

    /// Total number of grid points (an empty batch axis is one batch).
    pub fn len(&self) -> usize {
        self.slos.len() * self.batches.len().max(1)
    }

    /// Whether the grid has no points (its SLO list is empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-point solver statistics; they exist to make the amortization
/// observable.
#[derive(Debug, Clone, Default)]
pub struct PointStats {
    /// Exact knapsack solves of both selection stages at this point.
    pub miqps_solved: usize,
    /// Cuts both selection stages pruned on their LP bound.
    pub miqps_pruned: usize,
    /// Wall-clock spent solving this point.
    pub solve_time: Duration,
}

/// One planned grid point of a chain or DAG sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The point's SLO in seconds.
    pub slo_s: f64,
    /// The point's batch size.
    pub batch: u64,
    /// The chain plan, or why none exists at this point.
    pub outcome: Result<ExecutionPlan, OptimizeError>,
    /// The branch-parallel plan when it beats the chain under the twin
    /// objectives (always `None` in a chain sweep: the chain stands).
    pub dag: Option<DagPlan>,
    /// Fork/join regions the winning DAG uses (0 when `dag` is `None`).
    pub regions_used: usize,
    /// Chain-solver statistics for this point.
    pub stats: PointStats,
    /// Region-search statistics for this point (all zero in a chain
    /// sweep; memo hits attribute to the point that touched the entry).
    pub search: DagSearchStats,
    /// Another same-batch point's *effective* plan is at least as fast
    /// *and* as cheap.
    pub dominated: bool,
    /// The knee of its batch's effective-plan Pareto frontier (max
    /// normalized distance from the chord; only marked on frontiers of
    /// ≥ 3 points).
    pub knee: bool,
}

impl SweepPoint {
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

/// Result of [`Optimizer::optimize_sweep`] and
/// [`Optimizer::optimize_dag_sweep`]: every grid point in grid order, the
/// Pareto frontier over *effective* plans, and cumulative cache and memo
/// statistics. The region and spine counters stay 0 in a chain sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Every grid point, batch-major in grid order
    /// (`points[bi * slos.len() + si]`).
    pub points: Vec<SweepPoint>,
    /// Indices (into `points`) of the per-batch effective-plan Pareto
    /// frontiers, ascending.
    pub pareto: Vec<usize>,
    /// Fork/join regions considered, summed over distinct batches.
    pub regions_considered: usize,
    /// Cuts enumerated, summed over distinct batches.
    pub cuts_considered: usize,
    /// Pass-1 segment references served by the segment table, summed over
    /// distinct batches (see `OptimizerReport::column_cache_hits`).
    pub cache_hits: usize,
    /// Segment evaluations, summed over distinct batches: pass 1's only,
    /// since no point evaluates a segment.
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
    /// Wall-clock spent building the per-batch shared state (pass 1 and,
    /// in a DAG sweep, the region/byte-table precomputation).
    pub pass1_time: Duration,
    /// Wall-clock of the whole sweep.
    pub total_time: Duration,
    /// Worker threads the sweep was allowed to use.
    pub threads_used: usize,
}

impl SweepReport {
    /// Points whose chain plan solved.
    pub fn solved(&self) -> usize {
        self.points.iter().filter(|p| p.outcome.is_ok()).count()
    }

    /// Points whose branch-parallel plan beat the chain.
    pub fn dag_wins(&self) -> usize {
        self.points.iter().filter(|p| p.dag.is_some()).count()
    }
}

/// A batch's shared state: pass 1, plus the region tables in a DAG sweep.
type Shared = (BatchShared, Option<DagShared>);

impl Optimizer {
    /// Per-distinct-batch shared state, built on the batch's profile by an
    /// optimizer configured for that batch (`dag` adds the region tables).
    /// A zero batch gets [`OptimizeError::InvalidInput`] instead, which
    /// every point at it inherits.
    fn shared_per_batch(
        &self,
        graph: &LayerGraph,
        batches: &[u64],
        dag: bool,
    ) -> Vec<(u64, Result<Shared, OptimizeError>)> {
        let valid: Vec<u64> = batches.iter().copied().filter(|&b| b > 0).collect();
        let mut out: Vec<_> = batched_unique(graph, &valid)
            .into_iter()
            .map(|(b, profile)| {
                let mut cfg = self.config().clone();
                cfg.batch_size = b;
                let opt = Optimizer::new(cfg);
                let shared = opt.build_shared(profile).map(|sh| {
                    let ds = dag.then(|| DagShared::new(graph, &sh.profile, opt.config()));
                    (sh, ds)
                });
                (b, shared)
            })
            .collect();
        if valid.len() < batches.len() {
            out.push((0, Err(ZERO_BATCH)));
        }
        out
    }

    /// `grid` with an empty batch axis replaced by this optimizer's batch.
    fn batch_axis(&self, grid: &SweepGrid) -> SweepGrid {
        let mut grid = grid.clone();
        if grid.batches.is_empty() {
            grid.batches = vec![self.config().batch_size];
        }
        grid
    }

    /// Plans every point of `grid` in one call. See the module docs for
    /// what is shared across points; the contract is that every returned
    /// plan is bit-identical to an independent [`Optimizer::optimize`]
    /// call at that point's `(slo, batch)`, at every thread count.
    pub fn optimize_sweep(&self, graph: &LayerGraph, grid: &SweepGrid) -> SweepReport {
        self.sweep(graph, grid, false)
    }

    /// Plans every point of `grid` with the branch-parallel search of
    /// [`Optimizer::optimize_dag`]: each point gets the chain incumbent
    /// *and* the greedy fork/join region search against it.
    ///
    /// Reuses [`Optimizer::optimize_sweep`]'s amortization for the chain
    /// side (shared pass 1, parallel batches) and adds the DAG side's own
    /// sharing: the region candidates, scatter/gather byte tables,
    /// spine-span memo, and node-evaluation memo are built once per
    /// distinct batch (the region tables and memos are SLO-independent)
    /// and warmed further by every point of the batch. The contract
    /// matches `optimize_sweep`'s: every point's chain plan *and* DAG
    /// verdict are bit-identical to an independent
    /// [`Optimizer::optimize_dag`] call at that `(slo, batch)` — at every
    /// thread count — because every memoized value is a pure function of
    /// its key.
    pub fn optimize_dag_sweep(&self, graph: &LayerGraph, grid: &SweepGrid) -> SweepReport {
        self.sweep(graph, grid, true)
    }

    /// The body of both sweeps; `dag` adds the region tables per batch and
    /// the region search per solved point.
    fn sweep(&self, graph: &LayerGraph, grid: &SweepGrid, dag: bool) -> SweepReport {
        let grid = &self.batch_axis(grid);
        let t0 = Instant::now();
        let threads = self.resolve_threads();

        // Shared pass 1 (plus the DAG search's shared tables), once per
        // distinct batch.
        let p1 = Instant::now();
        let shared_by_batch = self.shared_per_batch(graph, &grid.batches, dag);
        let pass1_time = p1.elapsed();

        // Each grid batch, in grid order, with its shared state. Batches
        // run concurrently, leftover threads fan out each point's region
        // trials; the split depends only on the grid shape and `threads`,
        // never on interleaving.
        let groups: Vec<_> = grid
            .batches
            .iter()
            .map(|&b| {
                let (_, shared) = shared_by_batch
                    .iter()
                    .find(|(seen, _)| *seen == b)
                    .expect("every grid batch was profiled");
                (b, shared)
            })
            .collect();
        let workers = threads.min(groups.len()).max(1);
        let inner = (threads / workers).max(1);
        let per_batch = par_map(&groups, threads, |&(batch, shared)| {
            grid.slos
                .iter()
                .map(|&slo| self.sweep_point(graph, shared.as_ref(), batch, slo, inner))
                .collect::<Vec<_>>()
        });
        let mut points: Vec<SweepPoint> = per_batch.into_iter().flatten().collect();
        let metrics: Vec<_> = points.iter().map(SweepPoint::effective).collect();
        let frontier = mark_frontier(&metrics, grid.slos.len());
        for (p, dominated) in points.iter_mut().zip(frontier.dominated) {
            p.dominated = dominated;
        }
        for i in frontier.knees {
            points[i].knee = true;
        }

        let ok_shared = || shared_by_batch.iter().filter_map(|(_, s)| s.as_ref().ok());
        let ok_dag = || ok_shared().filter_map(|(_, ds)| ds.as_ref());
        SweepReport {
            points,
            pareto: frontier.pareto,
            regions_considered: ok_dag().map(|ds| ds.regions.len()).sum(),
            cuts_considered: ok_shared().map(|(sh, _)| sh.pass1.cuts.len()).sum(),
            cache_hits: ok_shared().map(|(sh, _)| sh.pass1.hits).sum(),
            cache_misses: ok_shared().map(|(sh, _)| sh.cache.misses()).sum(),
            node_memo_hits: ok_shared().map(|(sh, _)| sh.cache.node_hits()).sum(),
            node_memo_misses: ok_shared().map(|(sh, _)| sh.cache.node_misses()).sum(),
            spine_span_hits: ok_dag().map(|ds| ds.spine_hits()).sum(),
            spine_spans_solved: ok_dag().map(|ds| ds.spine_solves()).sum(),
            pass1_time,
            total_time: t0.elapsed(),
            threads_used: threads,
        }
    }

    /// Solves one grid point at `(batch, slo)` against its batch's shared
    /// state: the chain's pass 2 and, when the batch carries region
    /// tables, the region search on `inner` threads.
    fn sweep_point(
        &self,
        graph: &LayerGraph,
        shared: Result<&Shared, &OptimizeError>,
        batch: u64,
        slo: f64,
        inner: usize,
    ) -> SweepPoint {
        let t = Instant::now();
        let mut cfg = self.config().clone();
        cfg.batch_size = batch;
        cfg.slo_s = Some(slo);
        let opt = Optimizer::new(cfg);
        let solve = shared
            .map_err(Clone::clone)
            .and_then(|(sh, _)| opt.solve_point(graph, sh));
        let mut stats = match &solve {
            Ok(ps) => PointStats {
                miqps_solved: ps.miqps_solved,
                miqps_pruned: ps.miqps_pruned,
                solve_time: Duration::ZERO,
            },
            Err(_) => PointStats::default(),
        };
        let (dag, regions_used, search) = match (&solve, shared) {
            (Ok(ps), Ok((sh, Some(ds)))) => {
                let s0 = Instant::now();
                let (dag, used, mut search) = opt.dag_search(graph, sh, ds, &ps.plan, inner);
                search.search_time = s0.elapsed();
                (dag, used, search)
            }
            _ => (None, 0, DagSearchStats::default()),
        };
        stats.solve_time = t.elapsed();
        SweepPoint {
            slo_s: slo,
            batch,
            outcome: solve.map(|ps| ps.plan),
            dag,
            regions_used,
            stats,
            search,
            dominated: false,
            knee: false,
        }
    }
}

/// The per-batch Pareto marks of a sweep's points.
struct Frontier {
    /// `dominated[i]`: another rankable same-batch point is no worse on
    /// both axes.
    dominated: Vec<bool>,
    /// Ascending indices of the per-batch frontiers.
    pareto: Vec<usize>,
    /// The knee of each frontier of ≥ 3 points.
    knees: Vec<usize>,
}

/// Marks per-batch dominance over the points' metric pairs (both
/// lower-is-better; `None` is a point with no plan to rank), batch-major
/// in groups of `per_batch`. A point is dominated when another rankable
/// same-batch point is no worse on both axes (exact ties keep the lower
/// index, mirroring the column presolve's tie-break). Each frontier of
/// ≥ 3 points also gets a knee: the point farthest (perpendicular) from
/// the chord between the frontier's endpoints, in normalized metric
/// space, ties keeping the earliest along the frontier.
fn mark_frontier(metrics: &[Option<(f64, f64)>], per_batch: usize) -> Frontier {
    let mut marks = Frontier {
        dominated: vec![false; metrics.len()],
        pareto: Vec::new(),
        knees: Vec::new(),
    };
    for base in (0..metrics.len()).step_by(per_batch.max(1)) {
        let solved: Vec<usize> = (base..base + per_batch)
            .filter(|&i| metrics[i].is_some())
            .collect();
        let tc = |i: usize| metrics[i].expect("rankable point");
        let mut frontier: Vec<usize> = Vec::new();
        for &i in &solved {
            let (ti, ci) = tc(i);
            let dominated = solved.iter().any(|&j| {
                if j == i {
                    return false;
                }
                let (tj, cj) = tc(j);
                tj <= ti && cj <= ci && (tj < ti || cj < ci || j < i)
            });
            marks.dominated[i] = dominated;
            if !dominated {
                frontier.push(i);
            }
        }
        frontier.sort_by(|&a, &b| {
            tc(a)
                .0
                .partial_cmp(&tc(b).0)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        if frontier.len() >= 3 {
            let (t_lo, c_hi) = tc(frontier[0]);
            let (t_hi, c_lo) = tc(*frontier.last().unwrap());
            let span_t = (t_hi - t_lo).abs().max(1e-12);
            let span_c = (c_hi - c_lo).abs().max(1e-12);
            let norm = |i: usize| {
                let (t, c) = tc(i);
                ((t - t_lo) / span_t, (c - c_lo) / span_c)
            };
            let (x1, y1) = norm(frontier[0]);
            let (x2, y2) = norm(*frontier.last().unwrap());
            let mut knee: Option<(usize, f64)> = None;
            for &i in &frontier[1..frontier.len() - 1] {
                let (x, y) = norm(i);
                let dist = ((x2 - x1) * (y1 - y) - (x1 - x) * (y2 - y1)).abs();
                if knee.is_none_or(|(_, d)| dist > d) {
                    knee = Some((i, dist));
                }
            }
            marks.knees.extend(knee.map(|(i, _)| i));
        }
        marks.pareto.extend(frontier.iter().copied());
    }
    marks.pareto.sort_unstable();
    marks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmpsConfig;
    use crate::optimizer::NAN_SLO;

    /// Metric pairs of solved points.
    fn solved(pairs: &[(f64, f64)]) -> Vec<Option<(f64, f64)>> {
        pairs.iter().copied().map(Some).collect()
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
        assert!(SweepGrid::slo_range(1.0, 2.0, 0).is_empty());
    }

    #[test]
    fn pareto_marks_dominated_and_knee() {
        // A convex frontier with one clearly dominated point and a sharp
        // elbow at (2, 2).
        let f = mark_frontier(
            &solved(&[
                (1.0, 10.0),
                (2.0, 2.0),
                (5.0, 1.8),
                (9.0, 1.7),
                (9.5, 5.0), // dominated by (9.0, 1.7)
            ]),
            5,
        );
        assert_eq!(f.pareto, vec![0, 1, 2, 3]);
        assert_eq!(f.dominated, vec![false, false, false, false, true]);
        assert_eq!(f.knees, vec![1], "elbow at (2,2) should be the knee");
    }

    #[test]
    fn pareto_tie_keeps_lower_index() {
        // An exact duplicate is dominated by index 0.
        let f = mark_frontier(&solved(&[(1.0, 1.0), (1.0, 1.0)]), 2);
        assert_eq!(f.pareto, vec![0]);
        assert_eq!(f.dominated, vec![false, true]);
    }

    #[test]
    fn pareto_is_per_batch() {
        // Batch groups never dominate across each other.
        let f = mark_frontier(
            &solved(&[
                (5.0, 5.0),
                (6.0, 6.0), // dominated within batch 1
                (1.0, 1.0), // would dominate everything if global
                (2.0, 2.0), // dominated within batch 8
            ]),
            2,
        );
        assert_eq!(f.pareto, vec![0, 2]);
    }

    #[test]
    fn short_frontier_has_no_knee() {
        let f = mark_frontier(&solved(&[(1.0, 2.0), (2.0, 1.0)]), 2);
        assert!(f.knees.is_empty());
    }

    #[test]
    fn infeasible_points_are_skipped_by_pareto() {
        let f = mark_frontier(&[None, Some((2.0, 2.0))], 2);
        assert_eq!(f.pareto, vec![1]);
        assert_eq!(f.dominated, vec![false, false]);
    }

    #[test]
    fn dominance_is_per_batch_with_tie_break() {
        // (time, cost) pairs of two batches of three points.
        let f = mark_frontier(
            &solved(&[
                (1.0, 2.0),
                (1.0, 2.0), // exact tie → dominated by index 0
                (2.0, 1.0), // incomparable → kept
                (9.0, 9.0), // other batch: untouched by batch 1
                (9.5, 9.5), // dominated within batch 8
                (0.5, 9.9), // incomparable → kept
            ]),
            3,
        );
        assert_eq!(f.dominated, vec![false, true, false, false, true, false]);
    }

    #[test]
    fn zero_batches_and_nan_slos_are_per_point_errors() {
        let g = ampsinf_model::zoo::tiny_cnn();
        let opt = Optimizer::new(AmpsConfig::default().with_threads(1).with_batch(2));
        let free = opt.optimize(&g).unwrap().plan.predicted_time_s;
        let bad = Some(OptimizeError::SloInfeasible);
        // Batch-major (batch, SLO) points and the error each plans to.
        let cases = [
            (
                SweepGrid::from_slos(vec![f64::NAN, free * 2.0]).with_batches(vec![0, 1]),
                vec![(0, Some(ZERO_BATCH)), (0, Some(ZERO_BATCH))]
                    .into_iter()
                    .chain([(1, Some(NAN_SLO)), (1, None)])
                    .collect::<Vec<_>>(),
            ),
            (
                SweepGrid::from_slos(vec![0.0, -1.0, free * 2.0]),
                vec![(2, bad.clone()), (2, bad), (2, None)],
            ),
            (
                SweepGrid::from_slos(vec![]).with_batches(vec![1, 4]),
                vec![],
            ),
            (
                SweepGrid::slo_range(free * 2.0, free * 2.0, 1).with_batches(vec![]),
                vec![(2, None)],
            ),
        ];
        for (grid, want) in cases {
            let chain = opt.optimize_sweep(&g, &grid).points;
            let dag = opt.optimize_dag_sweep(&g, &grid).points;
            let outcomes = [
                chain
                    .iter()
                    .map(|p| (p.batch, p.outcome.clone().err()))
                    .collect::<Vec<_>>(),
                dag.iter()
                    .map(|p| (p.batch, p.outcome.clone().err()))
                    .collect(),
            ];
            for got in outcomes {
                assert_eq!(got, want, "grid {grid:?}");
            }
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
