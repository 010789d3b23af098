//! The Optimizer component (paper Fig. 4): enumerate cuts, solve the
//! per-cut MIQP, select the best configuration.
//!
//! Pass 1 walks the enumerated cuts once. Every distinct segment is
//! evaluated through the segment memo the first time a cut reaches it,
//! and one `(start slot, end slot)` segment table keeps the memo's entry
//! and its two separable picks. After pass 1 every chain reader takes
//! segments from that table by slot: both knapsack stages, the winner's
//! pricing and [`Optimizer::optimize_pipelined`]'s stage times. Only the
//! DAG region search still looks spans up in the memo, under their own
//! objects.
//!
//! Selection implements the paper's twin objectives — *cost-efficiency*
//! and *timely-response* — exactly, in two pick-one knapsack stages over
//! every cut: `C*` is the least cost of any configuration meeting the
//! SLO, and the plan is the fastest configuration costing at most
//! `C*·(1 + cost_tolerance)`, the cheaper on equal seconds (this is what
//! makes AMPS-Inf land slightly above Baseline 3's cost but slightly
//! below its completion time in §5.3). The DAG region search applies the
//! same objective to its trials.

use crate::baselines::predict_dag;
use crate::colcache::{CacheCounters, NodeColumns, SegmentColumnCache};
use crate::config::AmpsConfig;
use crate::cuts::{
    enumerate_cut_set, insert_region_sorted, segment_feasible, CutSet, DagShared, SegmentTable,
};
use crate::miqp_build::CutKnapsack;
use crate::plan::{DagNode, DagObject, DagPlan, ExecutionPlan, PartitionPlan, PipelinePlan};
use crate::polish::{dag_schedule, Polish};
use ampsinf_model::LayerGraph;
use ampsinf_profiler::Profile;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Optimization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimizeError {
    /// No cut satisfies the platform constraints at all.
    NoFeasibleCut,
    /// Cuts exist but none meets the SLO.
    SloInfeasible,
    /// The request cannot be planned as given (a zero batch size or a NaN
    /// SLO); the text says which.
    InvalidInput(&'static str),
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizeError::NoFeasibleCut => {
                write!(f, "no partitioning satisfies the platform constraints")
            }
            OptimizeError::SloInfeasible => write!(f, "no configuration meets the SLO"),
            OptimizeError::InvalidInput(why) => write!(f, "invalid input: {why}"),
        }
    }
}

impl std::error::Error for OptimizeError {}

/// The [`OptimizeError::InvalidInput`] of a zero batch size.
pub(crate) const ZERO_BATCH: OptimizeError =
    OptimizeError::InvalidInput("batch size must be at least 1");

/// The [`OptimizeError::InvalidInput`] of a NaN SLO.
pub(crate) const NAN_SLO: OptimizeError = OptimizeError::InvalidInput("SLO is NaN");

/// Pass-1 result for one cut in its per-cut form (see
/// [`Optimizer::pass1`]): the separable optima over memory mixes. The
/// planner itself keeps pass 1 flat and reads these values back from it.
#[derive(Debug, Clone, PartialEq)]
pub struct FastEval {
    /// Index of the cut in the enumerated cut list.
    pub ci: usize,
    /// Separable min-cost memory mix and its time/cost.
    pub mems: Vec<u32>,
    /// Total seconds of the min-cost mix.
    pub time: f64,
    /// Total dollars of the min-cost mix.
    pub cost: f64,
    /// Separable min-time memory mix and its time/cost (the SLO fallback).
    pub min_mems: Vec<u32>,
    /// Total seconds of the min-time mix.
    pub min_time: f64,
    /// Total dollars of the min-time mix.
    pub min_cost: f64,
}

/// Pass-1 verdict for one cut. Deliberately **SLO-independent**: whether a
/// feasible cut survives a given SLO (`min_time ≤ slo`) is decided per
/// point, so one evaluation serves every point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum CutEval {
    /// No memory assignment satisfies the platform constraints.
    Infeasible,
    /// Feasible; carries the cached separable optima.
    Feasible(FastEval),
}

/// One feasible cut's pass-1 totals: the seconds and dollars of its
/// separable min-cost mix and of its separable min-time mix, each summed
/// left to right from `0.0` over the cut's segments.
#[derive(Debug, Clone, Copy)]
struct CutSums {
    time: f64,
    cost: f64,
    min_time: f64,
    min_cost: f64,
}

/// Pass 1 stored flat: the cuts, their segment table, one [`CutSums`]
/// record per cut (`None`: infeasible) and the count of segment
/// references the table served — no per-cut heap object.
pub(crate) struct Pass1 {
    pub(crate) cuts: CutSet,
    /// Every segment a cut reached holds its memo entry and picks; every
    /// segment of a feasible cut has picks.
    segments: SegmentTable,
    sums: Vec<Option<CutSums>>,
    /// Segment references after a segment's first: served by the table,
    /// with no memo lookup (the reported column-cache hits).
    pub(crate) hits: usize,
    /// Cells filled: each segment's first reference, one memo lookup
    /// that evaluates the segment in the fresh memo (the reported
    /// column-cache misses).
    pub(crate) misses: usize,
}

impl Pass1 {
    /// Feasible cut `ci`'s totals.
    fn totals(&self, ci: usize) -> CutSums {
        self.sums[ci].expect("ranked cuts are feasible")
    }

    /// Feasible cut `ci`'s separable min-time mix (`fastest`) or min-cost
    /// mix, one memory per partition.
    fn mix(&self, ci: usize, fastest: bool) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.cuts.segments(ci).map(move |(s, e)| {
            let (cost, time) = self
                .segments
                .cell(s, e)
                .picks
                .expect("a feasible cut's segments have picks");
            if fastest {
                time.0
            } else {
                cost.0
            }
        })
    }

    /// Feasible cut `ci`'s segment columns, in chain order.
    fn columns(&self, ci: usize) -> impl ExactSizeIterator<Item = &NodeColumns> + '_ {
        self.cuts.segments(ci).map(|(s, e)| {
            let cell = self.segments.cell(s, e);
            cell.columns
                .as_deref()
                .expect("pass 1 reached every segment of a feasible cut")
        })
    }

    /// The knapsack form of feasible cut `ci`, over its presolved columns.
    fn knapsack(&self, ci: usize) -> CutKnapsack {
        CutKnapsack::new(&self.columns(ci).collect::<Vec<_>>())
    }

    /// `(seconds, dollars)` of each segment of feasible cut `ci` at the
    /// memories `mems`, in chain order.
    fn evals_at<'a>(
        &'a self,
        ci: usize,
        mems: impl IntoIterator<Item = u32> + 'a,
    ) -> impl Iterator<Item = (f64, f64)> + 'a {
        self.columns(ci)
            .zip(mems)
            .map(|(cols, m)| cols.eval_at(m).expect("a selected mix is feasible"))
    }

    /// True when cut `ci`'s min-cost and min-time mixes are the same.
    fn one_mix(&self, ci: usize) -> bool {
        self.mix(ci, false).eq(self.mix(ci, true))
    }

    /// Cut `ci`'s verdict in the public per-cut form.
    fn eval(&self, ci: usize) -> CutEval {
        match self.sums[ci] {
            None => CutEval::Infeasible,
            Some(s) => CutEval::Feasible(FastEval {
                ci,
                mems: self.mix(ci, false).collect(),
                time: s.time,
                cost: s.cost,
                min_mems: self.mix(ci, true).collect(),
                min_time: s.min_time,
                min_cost: s.min_cost,
            }),
        }
    }
}

/// The feasible cuts in separable min-cost order, ties by index, sorted
/// only as far as a reader reads. Unread cuts wait in a min-heap of
/// `(cost bits, index)` keys, built in linear time. Costs are sums of
/// finite non-negative dollars from `0.0`, never NaN or `-0.0`, so their
/// bits order as `<` does, and `(cost, index)` is a strict total order:
/// the pops come out exactly as `sort_unstable_by(cost, then index)`
/// would place them. Popped keys stay in `ranked`, so a later reader
/// (the next sweep point at this batch) re-reads them without a pop.
struct CostRank {
    /// The ranked prefix: `(cost, cut)` in rank order.
    ranked: Vec<(f64, usize)>,
    /// The unranked cuts, cheapest on top.
    rest: BinaryHeap<Reverse<(u64, usize)>>,
}

impl CostRank {
    /// The rank of the feasible cuts of `sums`, none ranked yet.
    fn new(sums: &[Option<CutSums>]) -> Self {
        CostRank {
            ranked: Vec::new(),
            rest: heap_of(sums, |ci, s| Some((s.cost.to_bits(), ci))),
        }
    }

    /// Cuts in the rank, ranked or not.
    fn len(&self) -> usize {
        self.ranked.len() + self.rest.len()
    }

    /// Moves the cheapest unranked cut onto the ranked prefix.
    fn rank_next(&mut self) -> Option<(f64, usize)> {
        let Reverse((bits, ci)) = self.rest.pop()?;
        self.ranked.push((f64::from_bits(bits), ci));
        Some((f64::from_bits(bits), ci))
    }

    /// `(cost, cut)` in rank order from the cheapest, ranking each cut
    /// the first time any reader reaches it.
    fn in_order(&mut self) -> impl Iterator<Item = (f64, usize)> + '_ {
        let mut k = 0;
        std::iter::from_fn(move || {
            let key = match self.ranked.get(k) {
                Some(&key) => key,
                None => self.rank_next()?,
            };
            k += 1;
            Some(key)
        })
    }

    /// The rank-order prefix of cuts whose cost is at most `budget`, if
    /// ranking at most `len / RANK_SHARE` cuts in all yields it; `None`
    /// when more cuts fit, which one scan of pass 1 finds faster.
    fn fitting(&mut self, budget: f64) -> Option<&[(f64, usize)]> {
        let unranked_fits = |r: &Self| {
            r.rest
                .peek()
                .is_some_and(|Reverse((bits, _))| f64::from_bits(*bits) <= budget)
        };
        while self.ranked.len() < self.len() / RANK_SHARE && unranked_fits(self) {
            self.rank_next();
        }
        if unranked_fits(self) {
            return None;
        }
        let fits = self.ranked.partition_point(|&(cost, _)| cost <= budget);
        Some(&self.ranked[..fits])
    }
}

/// [`CostRank::fitting`] ranks at most this share of the cuts: a pop
/// costs about what scanning a few dozen cuts' sums does, so a budget
/// that more cuts fit is gathered by one scan instead.
const RANK_SHARE: usize = 32;

/// Stage 2's visiting order: a min-heap of `(min_time bits, cost bits,
/// cut)` over the feasible cuts whose separable min cost is at most
/// `budget`, built in linear time. Non-negative floats order as their
/// bits do, so cuts pop by `min_time`, ties in cost order, then by index:
/// ties in cost rank order, with no rank sorted for it. The cuts come
/// from the rank's prefix when it holds them all (a budget few cuts fit,
/// or a sweep point after one that ranked past it), else from one scan.
fn time_order(
    sums: &[Option<CutSums>],
    rank: &mut CostRank,
    budget: f64,
) -> BinaryHeap<Reverse<(u64, u64, usize)>> {
    let key = |ci: usize, s: &CutSums| {
        (s.cost <= budget).then(|| (s.min_time.to_bits(), s.cost.to_bits(), ci))
    };
    match rank.fitting(budget) {
        Some(prefix) => prefix
            .iter()
            .filter_map(|&(_, ci)| sums[ci].as_ref().and_then(|s| key(ci, s)).map(Reverse))
            .collect(),
        None => heap_of(sums, key),
    }
}

/// A min-heap of the keys `key` gives the feasible cuts of `sums` (`None`:
/// leave the cut out), heapified in place in one buffer of exactly their
/// count: a first pass counts them, so a large heap is neither copied
/// while it grows nor handed memory it never fills (a buffer sized for
/// every cut raised the peak RSS of a process that planned, then
/// served, by ~1.2 MB).
fn heap_of<K: Ord>(
    sums: &[Option<CutSums>],
    key: impl Fn(usize, &CutSums) -> Option<K>,
) -> BinaryHeap<Reverse<K>> {
    let keyed = || {
        sums.iter()
            .enumerate()
            .filter_map(|(ci, s)| s.as_ref().and_then(|s| key(ci, s)))
    };
    let mut keys = Vec::with_capacity(keyed().count());
    keys.extend(keyed().map(Reverse));
    BinaryHeap::from(keys)
}

/// SLO-independent shared state for one `(model, batch)`: the batch-scaled
/// profile, pass 1 (the enumerated cuts, their segment table and every
/// cut's verdict), the feasible cuts' cost rank, and the segment-column
/// memo table the DAG region search reads.
/// One instance serves every SLO point of a sweep at this batch size; a
/// plain [`Optimizer::optimize`] builds one for its single point.
pub(crate) struct BatchShared {
    pub(crate) profile: Profile,
    pub(crate) pass1: Pass1,
    /// The feasible cuts' cost rank, ranked as far as pass 2 of any
    /// point at this batch has read it. A batch's points run one after
    /// another, so the lock is never contended; it makes the shared
    /// state `Sync` for the sweep's batch workers.
    rank: Mutex<CostRank>,
    /// The least separable `min_time` of any feasible cut: no mix of any
    /// cut meets a tighter SLO.
    least_min_time: f64,
    /// Segment-column memo table: pass 1's chain entries, and the DAG
    /// search's node entries of every point on this batch.
    pub(crate) cache: SegmentColumnCache,
}

impl BatchShared {
    fn rank(&self) -> MutexGuard<'_, CostRank> {
        self.rank.lock().expect("no reader panics while ranking")
    }

    /// Cuts the cost rank has ranked so far.
    pub(crate) fn ranked(&self) -> usize {
        self.rank().ranked.len()
    }
}

/// Result of solving one grid point against a [`BatchShared`].
pub(crate) struct PointSolve {
    pub(crate) plan: ExecutionPlan,
    /// Indices of the SLO-binding cuts whose min-cost knapsack stage 1
    /// solved, in rank order.
    pub(crate) solved: Vec<usize>,
    /// Knapsack solves of both stages.
    pub(crate) miqps_solved: usize,
    /// Cuts both stages discarded on their LP bound alone.
    pub(crate) miqps_pruned: usize,
}

/// Optimizer statistics for the paper's overhead discussion (§5.4: "within
/// a few seconds on a laptop").
#[derive(Debug, Clone)]
pub struct OptimizerReport {
    /// The selected plan.
    pub plan: ExecutionPlan,
    /// Cuts enumerated.
    pub cuts_considered: usize,
    /// Exact pick-one knapsack solves: stage 1's on SLO-binding cuts
    /// (cheapest mix meeting the SLO) plus stage 2's (fastest mix within
    /// the cost budget).
    pub miqps_solved: usize,
    /// Cuts the two stages discarded on their LP lower bound alone,
    /// without a solve.
    pub miqps_pruned: usize,
    /// Feasible cuts pass 2 put in cost order: the cheapest ones, up to
    /// the first whose separable min cost exceeds `C*` (stage 1), or up
    /// to stage 2's budget when few cuts fit it. The rest are never
    /// sorted.
    pub cuts_ranked: usize,
    /// Reference-only: branch-and-bound nodes. The planner solves no MIQP
    /// by branch and bound, so this is always 0; the field stays for
    /// callers that replay [`crate::miqp_build::build`] through
    /// `ampsinf_solver::bb` and report the same counters.
    pub bb_nodes: usize,
    /// Reference-only: QP relaxations (always 0, see `bb_nodes`).
    pub qp_relaxations: usize,
    /// Reference-only: warm-started relaxations (always 0, see
    /// `bb_nodes`).
    pub warm_start_hits: usize,
    /// Pass-1 segment references served by the segment table: every
    /// reference to a segment after its first.
    pub column_cache_hits: usize,
    /// Segment evaluations: pass 1's first reference to each distinct
    /// segment. Pass 2 evaluates nothing.
    pub column_cache_misses: usize,
    /// Wall-clock optimization time.
    pub solve_time: Duration,
    /// Wall-clock time of pass 1 (column evaluation + separable paths).
    pub pass1_time: Duration,
    /// Wall-clock time of pass 2 (both selection stages and their
    /// knapsack solves).
    pub pass2_time: Duration,
    /// Worker threads the run was allowed (`cfg.threads` resolved). The
    /// chain passes run on one thread; the DAG region search fans out.
    pub threads_used: usize,
}

/// Counters of one DAG region search, following the
/// [`PointStats`](crate::sweep::PointStats) conventions: plans are
/// thread-invariant, these counts need not be (racing trials may
/// duplicate a memoized evaluation, each tallying a miss). The memo
/// counters are the only tally of the search's lookups: the memos keep
/// none, and a sweep's totals are these summed over its points.
#[derive(Debug, Clone, Default)]
pub struct DagSearchStats {
    /// Trial plans the greedy rounds evaluated (thread-independent: every
    /// insertable region is tried exactly once per round).
    pub trials_evaluated: usize,
    /// Node-evaluation memo hits during the search.
    pub node_memo_hits: usize,
    /// Node-evaluation memo misses — spans whose memory grid was actually
    /// evaluated.
    pub node_memo_misses: usize,
    /// Spine spans served from the span memo.
    pub spine_span_hits: usize,
    /// Spine spans actually (re-)solved — span memo misses; adding one
    /// region to the accepted set re-solves only the spans it splits.
    pub spine_spans_solved: usize,
    /// Memory upgrades the polish accepted, summed over every trial (SLO
    /// repair and tolerance spending alike). Thread-independent: each
    /// trial's polish is a deterministic function of its plan.
    pub polish_steps: usize,
    /// Wall-clock of the region search (on top of the chain solve).
    pub search_time: Duration,
}

/// Tallies shared by every trial of one DAG region search (the
/// [`DagSearchStats`] sources).
#[derive(Default)]
struct SearchCounters {
    /// Node-evaluation memo lookups.
    node: CacheCounters,
    /// Spine-span memo lookups.
    spine: CacheCounters,
    /// Memory upgrades accepted by the trials' polish.
    polish_steps: AtomicUsize,
}

/// Result of a chain-vs-DAG optimization (see [`Optimizer::optimize_dag`]):
/// the chain incumbent always, plus the branch-parallel plan when — and
/// only when — it wins under the same objective with scatter/gather
/// communication billed.
#[derive(Debug, Clone)]
pub struct DagReport {
    /// The chain incumbent (the standard [`Optimizer::optimize`] result).
    pub chain: OptimizerReport,
    /// The branch-parallel plan, present only when it beats the chain
    /// under the paper's selection rule — minimum cost subject to the
    /// SLO, fastest within `cost_tolerance` of the optimum — with every
    /// scatter/gather request fee and transfer second included.
    pub dag: Option<DagPlan>,
    /// Fork/join regions the platform could host as parallel branches.
    pub regions_considered: usize,
    /// Regions the returned DAG actually parallelizes (0 when `dag` is
    /// `None`).
    pub regions_used: usize,
    /// Region-search counters (trials, memo hits/misses, spans solved).
    pub search: DagSearchStats,
}

/// The AMPS-Inf optimizer.
#[derive(Debug, Clone)]
pub struct Optimizer {
    cfg: AmpsConfig,
}

impl Optimizer {
    /// Creates an optimizer with the given configuration.
    pub fn new(cfg: AmpsConfig) -> Self {
        Optimizer { cfg }
    }

    /// Access to the configuration.
    pub fn config(&self) -> &AmpsConfig {
        &self.cfg
    }

    /// Computes the optimal execution + provisioning plan for `graph`.
    ///
    /// Both passes run on one thread: pass 1 is a per-segment summary table
    /// plus a few additions per cut, and pass 2 solves each SLO-binding
    /// cut exactly as a pick-one knapsack in microseconds. The plan is the
    /// same at every `cfg.threads`.
    pub fn optimize(&self, graph: &LayerGraph) -> Result<OptimizerReport, OptimizeError> {
        self.chain(graph).map(|(_, report)| report)
    }

    /// Validates the request, runs both passes, and returns the shared
    /// pass-1 state with the chain report.
    fn chain(&self, graph: &LayerGraph) -> Result<(BatchShared, OptimizerReport), OptimizeError> {
        self.check_inputs()?;
        let t0 = Instant::now();
        let shared = self.build_shared(Profile::batched(graph, self.cfg.batch_size))?;
        let pass1_time = t0.elapsed();
        let p2 = Instant::now();
        let sol = self.solve_point(graph, &shared)?;
        let pass2_time = p2.elapsed();
        let report = OptimizerReport {
            plan: sol.plan,
            cuts_considered: shared.pass1.cuts.len(),
            miqps_solved: sol.miqps_solved,
            miqps_pruned: sol.miqps_pruned,
            cuts_ranked: shared.ranked(),
            bb_nodes: 0,
            qp_relaxations: 0,
            warm_start_hits: 0,
            column_cache_hits: shared.pass1.hits,
            column_cache_misses: shared.pass1.misses,
            solve_time: t0.elapsed(),
            pass1_time,
            pass2_time,
            threads_used: self.resolve_threads(),
        };
        Ok((shared, report))
    }

    /// Rejects a request the planner cannot plan: a zero batch size or a
    /// NaN SLO.
    pub(crate) fn check_inputs(&self) -> Result<(), OptimizeError> {
        if self.cfg.batch_size == 0 {
            return Err(ZERO_BATCH);
        }
        if self.cfg.slo_s.is_some_and(f64::is_nan) {
            return Err(NAN_SLO);
        }
        Ok(())
    }

    /// Pass 1 on its own: the enumerated cuts of `graph` at this
    /// configuration's batch size and every cut's SLO-independent verdict,
    /// exactly as the planner ranks them. A zero batch size or a NaN SLO
    /// is [`OptimizeError::InvalidInput`].
    pub fn pass1(
        &self,
        graph: &LayerGraph,
    ) -> Result<(Vec<Vec<usize>>, Vec<CutEval>), OptimizeError> {
        self.check_inputs()?;
        let profile = Profile::batched(graph, self.cfg.batch_size);
        let p1 = self.evaluate_cuts(
            &profile,
            enumerate_cut_set(&profile, &self.cfg),
            &SegmentColumnCache::new(),
        );
        let n = p1.cuts.len();
        Ok((
            (0..n).map(|ci| p1.cuts.cut(ci).collect()).collect(),
            (0..n).map(|ci| p1.eval(ci)).collect(),
        ))
    }

    /// Stage 1's exact solves on their own: the SLO-binding cuts whose
    /// min-cost knapsack the planner solved for this configuration, in rank
    /// order — what an oracle re-solves to check the planner's inner solve.
    pub fn solved_cuts(&self, graph: &LayerGraph) -> Result<Vec<Vec<usize>>, OptimizeError> {
        self.check_inputs()?;
        let shared = self.build_shared(Profile::batched(graph, self.cfg.batch_size))?;
        let sol = self.solve_point(graph, &shared)?;
        Ok(sol
            .solved
            .iter()
            .map(|&ci| shared.pass1.cuts.cut(ci).collect())
            .collect())
    }

    /// Pass 1 for one `(model, batch)`: enumerate cuts, summarize every
    /// distinct segment once through a fresh memo cache into the segment
    /// table, and sum each cut's separable fast paths from that table.
    /// Everything here is **SLO-independent** (the cut set, the columns,
    /// and the separable argmins are functions of the profile and the
    /// platform config only), so one `BatchShared` serves every SLO point
    /// of a sweep at this batch size.
    pub(crate) fn build_shared(&self, profile: Profile) -> Result<BatchShared, OptimizeError> {
        let walk = enumerate_cut_set(&profile, &self.cfg);
        if walk.0.is_empty() {
            return Err(OptimizeError::NoFeasibleCut);
        }
        // One segment-column memo table shared by pass 1, every worker of
        // the DAG search, and (in a sweep) every point on this batch: a
        // span's columns are a pure function of the profile/config.
        let cache = SegmentColumnCache::new();
        let pass1 = self.evaluate_cuts(&profile, walk, &cache);
        let rank = CostRank::new(&pass1.sums);
        if rank.len() == 0 {
            return Err(OptimizeError::NoFeasibleCut);
        }
        let least_min_time = pass1
            .sums
            .iter()
            .flatten()
            .map(|s| s.min_time)
            .fold(f64::INFINITY, f64::min);
        Ok(BatchShared {
            profile,
            pass1,
            rank: Mutex::new(rank),
            least_min_time,
            cache,
        })
    }

    /// Pass 2 for one grid point (`self.cfg` carries the point's SLO and
    /// batch), in two exact stages: [`Optimizer::cheapest`] finds `C*`,
    /// [`Optimizer::fastest`] the fastest mix costing at most
    /// `C*·(1 + tolerance)`. The winner is priced from its segments' raw
    /// grids in the segment table with `baselines::predict`'s fold. A
    /// sweep point runs exactly the pass 2 a cold [`Optimizer::optimize`]
    /// runs, against its batch's `shared`.
    pub(crate) fn solve_point(
        &self,
        graph: &LayerGraph,
        shared: &BatchShared,
    ) -> Result<PointSolve, OptimizeError> {
        self.check_inputs()?;
        let (best_cost, solved, pruned) = self.cheapest(shared);
        if best_cost == f64::INFINITY {
            return Err(OptimizeError::SloInfeasible);
        }
        let budget = best_cost * (1.0 + self.tolerance()) + 1e-15;
        let (ci, memories, solves, prunes) = self
            .fastest(shared, budget)
            .ok_or(OptimizeError::SloInfeasible)?;
        let (mut time, mut cost) = (0.0f64, -0.0f64);
        for (t, d) in shared.pass1.evals_at(ci, memories.iter().copied()) {
            (time, cost) = (time + t, cost + d);
        }
        Ok(PointSolve {
            plan: self.to_plan(graph, shared.pass1.cuts.cut(ci), memories, time, cost),
            miqps_solved: solved.len() + solves,
            miqps_pruned: pruned + prunes,
            solved,
        })
    }

    /// Stage 1: `C*`, the least dollars of any mix meeting the SLO
    /// (infinite when none does), the SLO-binding cuts whose knapsack was
    /// solved (in rank order) and the count pruned on the LP bound.
    ///
    /// Cuts arrive in cost order until their separable min cost exceeds
    /// the running best; the batch's cost rank sorts no further than
    /// that. A cut whose separable `min_time` misses the SLO
    /// has no mix meeting it; one whose separable min-cost mix meets it
    /// costs exactly that. Any other cut is SLO-binding: pruned when its LP
    /// bound exceeds the running best, else solved within `slo + 1e-9`.
    /// When every cut's `min_time` misses the SLO, no cut is read (the
    /// walk would skip them all and rank every cut doing so).
    fn cheapest(&self, shared: &BatchShared) -> (f64, Vec<usize>, usize) {
        let slo = self.cfg.slo_s;
        let limit = slo.map_or(f64::INFINITY, |s| s + 1e-9);
        let (mut best, mut solved, mut pruned) = (f64::INFINITY, Vec::new(), 0usize);
        if shared.least_min_time > limit {
            return (best, solved, pruned);
        }
        for (cost, ci) in shared.rank().in_order() {
            if cost > best + 1e-15 {
                break;
            }
            let s = shared.pass1.totals(ci);
            if s.min_time > limit {
                continue;
            }
            if slo.is_none_or(|slo| s.time <= slo) {
                best = best.min(s.cost);
                continue;
            }
            let knapsack = shared.pass1.knapsack(ci);
            if knapsack.lower_bound(limit).max(s.cost) > best + 1e-15 {
                pruned += 1;
                continue;
            }
            solved.push(ci);
            if let Some((_, _, cost)) = knapsack.solve(limit) {
                best = best.min(cost);
            }
        }
        (best, solved, pruned)
    }

    /// Stage 2: the fastest mix whose dollars are at most `budget`, the
    /// cheaper on equal seconds, as `(cut, memories, knapsack solves, LP
    /// prunes)`; `None` when no mix fits.
    ///
    /// Only the cuts whose separable min cost fits the budget can hold
    /// such a mix. They are visited by separable `min_time` (ties in cost
    /// order), stopping at the first cut slower than the incumbent. A
    /// cut whose min-time mix fits the budget offers it unsolved; any other
    /// is pruned when its swapped LP bound exceeds the incumbent, else
    /// solved for its fastest mix within the budget.
    fn fastest(
        &self,
        shared: &BatchShared,
        budget: f64,
    ) -> Option<(usize, Vec<u32>, usize, usize)> {
        let p1 = &shared.pass1;
        let mut visit = time_order(&p1.sums, &mut shared.rank(), budget);
        let (mut solves, mut prunes) = (0usize, 0usize);
        // (seconds, dollars, cut, memories)
        let mut best: Option<(f64, f64, usize, Vec<u32>)> = None;
        while let Some(Reverse((bits, _, ci))) = visit.pop() {
            let min_time = f64::from_bits(bits);
            let incumbent = best.as_ref().map_or(f64::INFINITY, |b| b.0);
            if min_time > incumbent {
                break;
            }
            let s = p1.totals(ci);
            let (time, cost, mems) = if s.min_cost <= budget {
                (s.min_time, s.min_cost, p1.mix(ci, true).collect())
            } else {
                let knapsack = shared.pass1.knapsack(ci);
                if knapsack.time_bound(budget) > incumbent {
                    prunes += 1;
                    continue;
                }
                solves += 1;
                let Some((mems, time, cost)) = knapsack.fastest(budget) else {
                    continue;
                };
                (time, cost, mems)
            };
            if best
                .as_ref()
                .is_none_or(|b| time < b.0 || (time == b.0 && cost < b.1))
            {
                best = Some((time, cost, ci, mems));
            }
        }
        best.map(|(_, _, ci, mems)| (ci, mems, solves, prunes))
    }

    /// Plans `graph` for **pipelined** execution at this configuration's
    /// SLO (`None`: no SLO) and batch. Under pipelined stage execution the
    /// makespan is bottleneck-stage-bound — `fill + (n−1)·max_i tᵢ`, not
    /// `n·Σtᵢ` — so among configurations whose *fill* (one request's chain
    /// time) meets the SLO and whose cost stays within `cost_tolerance` of
    /// the cheapest such configuration, the planner picks the cut whose
    /// slowest stage is shortest, i.e. the cut that best balances stage
    /// times and therefore minimizes pipeline stalls.
    ///
    /// Candidates are each feasible cut's two separable memory mixes from
    /// pass 1 (min-cost and min-time); bottleneck ties go to the cheaper,
    /// then to pass-1 cost rank, the min-cost mix before the min-time mix.
    /// A candidate never costs less than its cut's separable min cost, so
    /// only the cuts whose min cost fits the budget are sorted.
    /// A zero batch size or a NaN SLO is [`OptimizeError::InvalidInput`].
    pub fn optimize_pipelined(&self, graph: &LayerGraph) -> Result<PipelinePlan, OptimizeError> {
        self.check_inputs()?;
        let sh = self.build_shared(Profile::batched(graph, self.cfg.batch_size))?;
        let p1 = &sh.pass1;
        let limit = self.cfg.slo_s.map_or(f64::INFINITY, |s| s + 1e-9);
        // The cost floor over SLO-feasible candidates, in any order.
        let mut floor = f64::INFINITY;
        for s in p1.sums.iter().flatten() {
            if s.time <= limit {
                floor = floor.min(s.cost);
            }
            if s.min_time <= limit {
                floor = floor.min(s.min_cost);
            }
        }
        if floor.is_infinite() {
            return Err(OptimizeError::SloInfeasible);
        }
        let budget = floor * (1.0 + self.tolerance()) + 1e-15;

        // Among budget-feasible candidates, minimize the bottleneck stage.
        // Stage seconds come from the segment table's memo entries, which
        // evaluate each stage exactly as chain pricing and `predict` do. A
        // plan is built only for a new best.
        let stage_times =
            |ci: usize, fastest: bool| p1.evals_at(ci, p1.mix(ci, fastest)).map(|(t, _)| t);
        let mut fits: Vec<(f64, usize)> = p1
            .sums
            .iter()
            .enumerate()
            .filter_map(|(ci, s)| s.filter(|s| s.cost <= budget).map(|s| (s.cost, ci)))
            .collect();
        fits.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut best: Option<PipelinePlan> = None;
        for (_, ci) in fits {
            let s = p1.totals(ci);
            for fastest in [false, true] {
                let (time, cost) = if fastest {
                    (s.min_time, s.min_cost)
                } else {
                    (s.time, s.cost)
                };
                if time > limit || cost > budget || (fastest && p1.one_mix(ci)) {
                    continue;
                }
                let bottleneck = stage_times(ci, fastest).fold(0.0f64, f64::max);
                if best.as_ref().is_none_or(|b| {
                    bottleneck < b.bottleneck_s
                        || (bottleneck == b.bottleneck_s && cost < b.plan.predicted_cost)
                }) {
                    best = Some(PipelinePlan {
                        plan: self.to_plan(graph, p1.cuts.cut(ci), p1.mix(ci, fastest), time, cost),
                        stage_times_s: stage_times(ci, fastest).collect(),
                        bottleneck_s: bottleneck,
                    });
                }
            }
        }
        best.ok_or(OptimizeError::SloInfeasible)
    }

    /// The cost tolerance the selection rules spend: `cfg.cost_tolerance`,
    /// with a NaN or negative value behaving as 0 (pure cost minimum).
    pub(crate) fn tolerance(&self) -> f64 {
        self.cfg.cost_tolerance.max(0.0)
    }

    /// Resolves the configured thread count (`0` = machine parallelism).
    pub(crate) fn resolve_threads(&self) -> usize {
        if self.cfg.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.cfg.threads
        }
    }

    /// Pass-1 verdicts of all cuts, from the segment table the cut walk
    /// left. The first reference to a segment stores the memo's chain
    /// entry from `cache` (a miss) and its two separable picks in the
    /// segment's cell; every later reference reads the cell (a hit). The
    /// separable argmins over the presolved Pareto frontier equal those
    /// over the raw grid (dominated columns are never argmins and exact
    /// duplicates keep their smallest-memory copy), and each cut sums its
    /// picks left to right from `0.0` — the order
    /// `separable_min_{cost,time}_cols` add in — so every verdict is
    /// bit-identical to summing the cut's columns directly. A cut stops at
    /// its first segment without a feasible column. No SLO is consulted:
    /// the verdicts serve every sweep point.
    fn evaluate_cuts(
        &self,
        profile: &Profile,
        (cuts, mut segments): (CutSet, SegmentTable),
        cache: &SegmentColumnCache,
    ) -> Pass1 {
        let (mut hits, mut misses) = (0usize, 0usize);
        let sums = (0..cuts.len())
            .map(|ci| {
                let mut sums = CutSums {
                    time: 0.0,
                    cost: 0.0,
                    min_time: 0.0,
                    min_cost: 0.0,
                };
                for (s, e) in cuts.segments(ci) {
                    let cell = segments.cell_mut(s, e);
                    if cell.columns.is_some() {
                        hits += 1;
                    } else {
                        let (start, end) = (cuts.start_layer(s), cuts.ends[e]);
                        let cols = cache.chain_columns(profile, start, end, &self.cfg);
                        misses += 1;
                        cell.picks = cols.min_cost().zip(cols.min_time());
                        cell.columns = Some(cols);
                    }
                    let ((_, t, c), (_, min_t, min_c)) = cell.picks?;
                    sums.time += t;
                    sums.cost += c;
                    sums.min_time += min_t;
                    sums.min_cost += min_c;
                }
                Some(sums)
            })
            .collect();
        Pass1 {
            cuts,
            segments,
            sums,
            hits,
            misses,
        }
    }

    /// The chain plan that cuts after each layer of `cut`, with one
    /// memory per partition and the given prediction.
    pub(crate) fn to_plan(
        &self,
        graph: &LayerGraph,
        cut: impl IntoIterator<Item = usize>,
        memories: impl IntoIterator<Item = u32>,
        time_s: f64,
        cost: f64,
    ) -> ExecutionPlan {
        let mut start = 0usize;
        let partitions = cut
            .into_iter()
            .zip(memories)
            .map(|(end, memory_mb)| {
                let part = PartitionPlan {
                    start,
                    end,
                    memory_mb,
                };
                start = end + 1;
                part
            })
            .collect();
        ExecutionPlan {
            model: graph.name.clone(),
            partitions,
            predicted_time_s: time_s,
            predicted_cost: cost,
        }
    }

    /// Chain-vs-DAG optimization: computes the chain incumbent with
    /// [`Optimizer::optimize`], then searches branch-parallel refinements
    /// over the model's fork/join regions (see
    /// [`LayerGraph::branch_regions`](ampsinf_model::LayerGraph::branch_regions)).
    /// Each accepted region replaces a run of chain layers with one
    /// concurrent Lambda per branch, fed by a *scatter* of the entry
    /// tensor (1 PUT, `k` GETs) and drained by a *gather* of the branch
    /// outputs (`k` PUTs, `k` GETs at the merge node) — every object
    /// billing its own request fees and transfer seconds through
    /// [`quick_eval_node`](ampsinf_profiler::quick_eval_node). Regions are
    /// accumulated greedily by marginal improvement; the DAG is reported
    /// only when it wins under the
    /// *same* objective as the chain (minimum cost subject to the SLO,
    /// fastest within `cost_tolerance` of the optimum), so callers never
    /// pay for parallelism that the communication fees eat.
    pub fn optimize_dag(&self, graph: &LayerGraph) -> Result<DagReport, OptimizeError> {
        // One batched profile serves both the chain solve and the region
        // search (the chain pass's `BatchShared` carries it, along with
        // the segment/node memo tables the search reads).
        let (shared, chain) = self.chain(graph)?;
        let ds = DagShared::new(graph, &shared.profile, &self.cfg);
        let s0 = Instant::now();
        let (dag, regions_used, mut search) =
            self.dag_search(graph, &shared, &ds, &chain.plan, chain.threads_used);
        search.search_time = s0.elapsed();
        Ok(DagReport {
            chain,
            dag,
            regions_considered: ds.regions.len(),
            regions_used,
            search,
        })
    }

    /// The greedy region search against a chain incumbent. Each round
    /// evaluates every still-insertable region as a trial plan; a trial's
    /// construction is independent of the round's running incumbent, so
    /// with `threads > 1` the trials are built concurrently into
    /// per-trial slots and the acceptance scan replays sequentially in
    /// region order, making the accepted set bit-identical to the serial
    /// loop at every thread count. Returns the winning DAG (if
    /// any), the accepted-region count, and the search counters (with
    /// `search_time` left for the caller to stamp).
    pub(crate) fn dag_search(
        &self,
        graph: &LayerGraph,
        sh: &BatchShared,
        ds: &DagShared,
        chain_plan: &ExecutionPlan,
        threads: usize,
    ) -> (Option<DagPlan>, usize, DagSearchStats) {
        let tol = self.tolerance();
        let track = SearchCounters::default();
        let mut trials_evaluated = 0usize;
        let mut used = vec![false; ds.regions.len()];
        // Accepted regions, kept sorted ascending by entry so each trial
        // set is one in-place insertion, not a clone + re-sort.
        let mut accepted: Vec<usize> = Vec::new();
        let mut best: Option<DagPlan> = None;
        loop {
            // Regions whose insertion keeps the accepted set disjoint
            // along the layer order (they must share one spine).
            let work: Vec<(usize, Vec<usize>)> = (0..ds.regions.len())
                .filter(|&i| !used[i])
                .filter_map(|i| insert_region_sorted(&accepted, &ds.regions, i).map(|t| (i, t)))
                .collect();
            if work.is_empty() {
                break;
            }
            trials_evaluated += work.len();
            let plans = crate::par_map(&work, threads, |(_, t)| {
                self.build_dag(graph, sh, ds, t, &track)
            });
            // Deterministic replay of the acceptance scan in region
            // order. A trial must beat the round's incumbent *and* stay a
            // winner against the chain anchor — without the second test,
            // each round could ratchet cost up by one tolerance band and
            // the accumulated plan would drift past the chain it is
            // supposed to beat.
            let (mut inc_t, mut inc_c) = match &best {
                Some(d) => (d.predicted_time_s, d.predicted_cost),
                None => (chain_plan.predicted_time_s, chain_plan.predicted_cost),
            };
            let mut round: Option<(usize, DagPlan)> = None;
            for ((i, _), plan) in work.iter().zip(plans) {
                let Some(plan) = plan else { continue };
                let beats_inc = Self::wins(
                    plan.predicted_time_s,
                    plan.predicted_cost,
                    inc_t,
                    inc_c,
                    tol,
                );
                let beats_chain = Self::wins(
                    plan.predicted_time_s,
                    plan.predicted_cost,
                    chain_plan.predicted_time_s,
                    chain_plan.predicted_cost,
                    tol,
                );
                if beats_inc && beats_chain {
                    inc_t = plan.predicted_time_s;
                    inc_c = plan.predicted_cost;
                    round = Some((*i, plan));
                }
            }
            match round {
                Some((i, plan)) => {
                    used[i] = true;
                    let pos =
                        accepted.partition_point(|&j| ds.regions[j].entry < ds.regions[i].entry);
                    accepted.insert(pos, i);
                    best = Some(plan);
                }
                None => break,
            }
        }
        let dag = best.filter(|d| {
            Self::wins(
                d.predicted_time_s,
                d.predicted_cost,
                chain_plan.predicted_time_s,
                chain_plan.predicted_cost,
                tol,
            )
        });
        let regions_used = if dag.is_some() { accepted.len() } else { 0 };
        let stats = DagSearchStats {
            trials_evaluated,
            node_memo_hits: track.node.hits(),
            node_memo_misses: track.node.misses(),
            spine_span_hits: track.spine.hits(),
            spine_spans_solved: track.spine.misses(),
            polish_steps: track.polish_steps.into_inner(),
            search_time: Duration::ZERO,
        };
        (dag, regions_used, stats)
    }

    /// The paper's selection rule over two candidates, as a strict win
    /// test for `a` over `b`: take the cheaper cost as the optimum; a
    /// candidate above `(1 + tol)` of it loses outright; when both are
    /// within tolerance the faster wins, cost breaking exact ties.
    fn wins(at: f64, ac: f64, bt: f64, bc: f64, tol: f64) -> bool {
        let cmin = ac.min(bc);
        let within = |c: f64| c <= cmin * (1.0 + tol) + 1e-15;
        match (within(ac), within(bc)) {
            (true, true) => at < bt - 1e-12 || (ac < bc - 1e-15 && at <= bt + 1e-12),
            (a_in, _) => a_in,
        }
    }

    /// Min-dollar `(memory, dollars)` for one DAG node span with explicit
    /// object reads/writes, served from the shared segment memo — the
    /// grid is evaluated once per `(span, io)` shape and every later
    /// lookup is a scan over cached values. [`NodeColumns::min_cost`]
    /// reads the grid's presolved frontier: the cheapest column, then the
    /// faster, then the smaller memory — the pick pass 1 makes.
    fn dag_node_best(
        &self,
        sh: &BatchShared,
        s: usize,
        e: usize,
        reads: &[u64],
        writes: &[u64],
        track: &CacheCounters,
    ) -> Option<(u32, f64)> {
        sh.cache
            .node_columns_tracked(&sh.profile, s, e, (reads, writes), &self.cfg, track)
            .min_cost()
            .map(|(m, _, dollars)| (m, dollars))
    }

    /// Min-cost chain partitioning of the spine segment `[a, b]`: a DP
    /// over the thinned candidate boundaries (plus `b` itself), each
    /// partition evaluated with its true object traffic — `first_reads`
    /// feed the segment's first node (gather objects, or nothing for the
    /// root), `last_writes` leave its last node (the scatter object, or
    /// nothing at the model tail), and interior boundaries carry the full
    /// chain cut. Returns `(start, end, memory)` per partition.
    #[allow(clippy::too_many_arguments)]
    fn dag_spine(
        &self,
        sh: &BatchShared,
        cand: &[usize],
        a: usize,
        b: usize,
        first_reads: &[u64],
        last_writes: &[u64],
        track: &CacheCounters,
    ) -> Option<Vec<(usize, usize, u32)>> {
        let profile = &sh.profile;
        let mut ends: Vec<usize> = cand.iter().copied().filter(|&k| k >= a && k < b).collect();
        ends.push(b);
        // best[j] = cheapest cover of `[a, ends[j]]`: (dollars, predecessor
        // end index or usize::MAX for "starts the segment", memory).
        let mut bests: Vec<Option<(f64, usize, u32)>> = vec![None; ends.len()];
        for j in 0..ends.len() {
            let e = ends[j];
            for p in 0..=j {
                // p == 0 doubles as "no predecessor" via the sentinel span.
                let (s, base) = if p == 0 {
                    (a, Some(0.0))
                } else {
                    (ends[p - 1] + 1, bests[p - 1].map(|(c, _, _)| c))
                };
                let Some(base) = base else { continue };
                if !segment_feasible(profile, s, e, &self.cfg) {
                    continue;
                }
                let chain_in;
                let reads: &[u64] = if s == a {
                    first_reads
                } else {
                    chain_in = [profile.output_bytes(s - 1)];
                    &chain_in
                };
                let chain_out;
                let writes: &[u64] = if e == b {
                    last_writes
                } else {
                    chain_out = [profile.output_bytes(e)];
                    &chain_out
                };
                let Some((mem, c)) = self.dag_node_best(sh, s, e, reads, writes, track) else {
                    continue;
                };
                let total = base + c;
                if bests[j].is_none_or(|(bc, _, _)| total < bc) {
                    bests[j] = Some((total, if p == 0 { usize::MAX } else { p - 1 }, mem));
                }
            }
        }
        // Reconstruct back from the segment's final boundary.
        let mut parts: Vec<(usize, usize, u32)> = Vec::new();
        let mut j = ends.len() - 1;
        loop {
            let (_, pred, mem) = bests[j]?;
            let s = if pred == usize::MAX {
                a
            } else {
                ends[pred] + 1
            };
            parts.push((s, ends[j], mem));
            if pred == usize::MAX {
                break;
            }
            j = pred;
        }
        parts.reverse();
        Some(parts)
    }

    /// Assembles and polishes a branch-parallel plan for one disjoint,
    /// ascending trial set of fork/join regions (indices into
    /// `ds.regions`). Spine segments between regions come from the
    /// spine-span memo (solved on first use by [`Optimizer::dag_spine`]);
    /// each branch runs as its own node at its memoized min-cost memory;
    /// scatter/gather objects carry the region traffic from `ds`'s
    /// precomputed byte tables. Nodes are emitted block by block (spine
    /// nodes one at a time, then each region's branches), and the block
    /// boundaries go to [`Optimizer::polish_dag`]. Returns `None` when any
    /// piece is infeasible or the SLO cannot be met.
    fn build_dag(
        &self,
        graph: &LayerGraph,
        sh: &BatchShared,
        ds: &DagShared,
        trial: &[usize],
        track: &SearchCounters,
    ) -> Option<DagPlan> {
        let node_track = &track.node;
        let profile = &sh.profile;
        let n = profile.num_layers();
        if trial.is_empty() {
            return None;
        }

        let mut nodes: Vec<DagNode> = Vec::new();
        let mut objects: Vec<DagObject> = Vec::new();
        // Fork/join block boundaries for the polish: every spine node is a
        // block, every region's branches one block.
        let mut bounds: Vec<usize> = vec![0];
        // Gather objects of the region just closed, waiting for the next
        // spine segment's first node: `(branch node index, bytes)`.
        let mut pending_gather: Vec<(usize, u64)> = Vec::new();
        for ri in 0..=trial.len() {
            let prev = (ri > 0).then(|| trial[ri - 1]);
            let next = trial.get(ri).copied();
            let parts = ds.spine_or(prev, next, &track.spine, || {
                let a = prev.map_or(0, |p| ds.regions[p].merge);
                let b = next.map_or(n - 1, |q| ds.regions[q].entry);
                // The root's image arrives with the trigger; the tail
                // returns its prediction in the response.
                let first_reads: &[u64] = prev.map_or(&[], |p| &ds.gather[p]);
                let scatter_out;
                let last_writes: &[u64] = match next {
                    Some(q) => {
                        scatter_out = [ds.scatter[q]];
                        &scatter_out
                    }
                    None => &[],
                };
                self.dag_spine(sh, &ds.cand, a, b, first_reads, last_writes, node_track)
            })?;
            let seg_base = nodes.len();
            for (k, &(s, e, mem)) in parts.iter().enumerate() {
                let idx = nodes.len();
                if k > 0 {
                    objects.push(DagObject {
                        producer: idx - 1,
                        consumers: vec![idx],
                        bytes: profile.output_bytes(s - 1),
                    });
                }
                nodes.push(DagNode {
                    start: s,
                    end: e,
                    memory_mb: mem,
                });
                bounds.push(nodes.len());
            }
            for (bi, bytes) in pending_gather.drain(..) {
                objects.push(DagObject {
                    producer: bi,
                    consumers: vec![seg_base],
                    bytes,
                });
            }
            if let Some(q) = next {
                let r = &ds.regions[q];
                let mems = ds.branch_mems_or(q, || {
                    r.branches
                        .iter()
                        .enumerate()
                        .map(|(k, &(s, e))| {
                            self.dag_node_best(
                                sh,
                                s,
                                e,
                                &[ds.scatter[q]],
                                &[ds.gather[q][k]],
                                node_track,
                            )
                            .map(|(m, _)| m)
                        })
                        .collect()
                })?;
                let producer = nodes.len() - 1; // spine node ending at r.entry
                let mut consumers = Vec::with_capacity(r.branches.len());
                for (k, &(s, e)) in r.branches.iter().enumerate() {
                    let idx = nodes.len();
                    consumers.push(idx);
                    pending_gather.push((idx, ds.gather[q][k]));
                    nodes.push(DagNode {
                        start: s,
                        end: e,
                        memory_mb: mems[k],
                    });
                }
                objects.push(DagObject {
                    producer,
                    consumers,
                    bytes: ds.scatter[q],
                });
                bounds.push(nodes.len());
            }
        }

        let plan = DagPlan {
            model: graph.name.clone(),
            nodes,
            objects,
            predicted_time_s: 0.0,
            predicted_cost: 0.0,
        };
        debug_assert_eq!(plan.validate(n), Ok(()));
        self.polish_dag(sh, plan, &bounds, track)
    }

    /// Memory polish for a freshly built min-cost DAG: first repair the
    /// SLO with the best time-per-dollar single-node upgrades (the chain
    /// knapsack's "cheapest mix meeting the deadline" role), then spend
    /// the `cost_tolerance` budget on further upgrades, as the chain
    /// winner does. Every candidate's full-plan effect is
    /// still measured exactly (so upgrades off the critical path, which
    /// buy no latency, are never taken) — but the evaluations come from
    /// the shared segment memo, and each candidate is priced on the
    /// plan's fork/join block chain (`bounds`, recorded by
    /// [`Optimizer::build_dag`]): one changed block term refolded over
    /// the later blocks, bit-identical to a full re-schedule (see
    /// `crate::polish`). The plan's prediction is the polish's own fold
    /// (debug builds check it against `predict_dag`). Accepted upgrades
    /// are tallied into `track`, also when the SLO repair fails.
    fn polish_dag(
        &self,
        sh: &BatchShared,
        mut plan: DagPlan,
        bounds: &[usize],
        track: &SearchCounters,
    ) -> Option<DagPlan> {
        let cfg = &self.cfg;
        let profile = &sh.profile;
        let n = plan.nodes.len();
        // Per-node object byte lists are memory-independent, so hoist them
        // — and with them each node's whole memory grid from the shared
        // memo: an upgrade trial is then a cached lookup plus a block
        // fold, never a fresh evaluation.
        let cols: Vec<Arc<NodeColumns>> = (0..n)
            .map(|v| {
                let (reads, writes) = plan.node_io_bytes(v);
                sh.cache.node_columns_tracked(
                    profile,
                    plan.nodes[v].start,
                    plan.nodes[v].end,
                    (&reads, &writes),
                    cfg,
                    &track.node,
                )
            })
            .collect();
        let mems = plan.nodes.iter().map(|nd| nd.memory_mb).collect();
        let mut p = Polish::new(&cols, bounds, mems)?;
        // Debug builds check that the block chain is the plan's real
        // wiring (block `j > 0` reads exactly block `j - 1`, block 0
        // nothing) and that its folds reproduce the full schedule's
        // makespan and cost.
        let check = |p: &Polish| {
            if cfg!(debug_assertions) {
                let parents: Vec<Vec<usize>> = (0..n).map(|v| plan.parents_of(v)).collect();
                for j in 0..bounds.len() - 1 {
                    let want: Vec<usize> = (bounds[j.saturating_sub(1)]..bounds[j]).collect();
                    assert!(parents[bounds[j]..bounds[j + 1]]
                        .iter()
                        .all(|ps| *ps == want));
                }
                let full = dag_schedule(&parents, p.evals(), &mut vec![0.0; n]);
                assert_eq!(p.time.to_bits(), full.0.to_bits());
                assert_eq!(p.cost.to_bits(), full.1.to_bits());
            }
        };
        check(&p);

        let repaired = cfg.slo_s.is_none_or(|slo| {
            while p.time > slo + 1e-12 {
                if !p.upgrade_step(None) {
                    return false;
                }
            }
            true
        });
        if repaired {
            let budget = p.cost * (1.0 + self.tolerance());
            while p.upgrade_step(Some(budget)) {}
        }
        check(&p);
        track.polish_steps.fetch_add(p.steps, Ordering::Relaxed);
        if !repaired {
            return None;
        }

        for (node, &m) in plan.nodes.iter_mut().zip(&p.mems) {
            node.memory_mb = m;
        }
        // Stamp the trial's own fold: `check` holds it equal to the full
        // schedule of the memo's cells, which are `predict_dag`'s
        // evaluations, so it is the canonical prediction bit for bit.
        plan.predicted_time_s = p.time;
        plan.predicted_cost = p.cost;
        if cfg!(debug_assertions) {
            let mut canon = plan.clone();
            assert!(predict_dag(profile, &mut canon, cfg));
            assert_eq!(canon.predicted_time_s.to_bits(), p.time.to_bits());
            assert_eq!(canon.predicted_cost.to_bits(), p.cost.to_bits());
        }
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampsinf_model::zoo;

    #[test]
    fn mobilenet_plan_is_small_and_valid() {
        let g = zoo::mobilenet_v1();
        let report = Optimizer::new(AmpsConfig::default()).optimize(&g).unwrap();
        let plan = &report.plan;
        plan.validate(g.num_layers()).unwrap();
        // The paper's AMPS-Inf provisions two lambdas for MobileNet
        // (§5.4); our economics land in the same 1–3 range.
        assert!(plan.num_lambdas() <= 3, "{plan}");
        assert!(plan.predicted_cost > 0.0);
        assert!(report.cuts_considered > 0);
    }

    #[test]
    fn resnet_plan_respects_deployment_limit() {
        let g = zoo::resnet50();
        let report = Optimizer::new(AmpsConfig::default()).optimize(&g).unwrap();
        let plan = &report.plan;
        plan.validate(g.num_layers()).unwrap();
        assert!(plan.num_lambdas() >= 2, "{plan}");
        // Every partition must fit the 250 MB limit.
        let profile = Profile::of(&g);
        for p in &plan.partitions {
            assert!(profile.fits_deployment(p.start, p.end, &AmpsConfig::default().quotas));
        }
    }

    #[test]
    fn slo_infeasible_reported() {
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default().with_slo(0.001);
        assert_eq!(
            Optimizer::new(cfg).optimize(&g).unwrap_err(),
            OptimizeError::SloInfeasible
        );
    }

    #[test]
    fn slo_binds_time() {
        let g = zoo::mobilenet_v1();
        let free = Optimizer::new(AmpsConfig::default()).optimize(&g).unwrap();
        let slo = free.plan.predicted_time_s * 0.85;
        let tight = Optimizer::new(AmpsConfig::default().with_slo(slo))
            .optimize(&g)
            .unwrap();
        assert!(tight.plan.predicted_time_s <= slo + 1e-9);
        assert!(tight.plan.predicted_cost >= free.plan.predicted_cost * 0.999);
    }

    #[test]
    fn tolerance_zero_is_pure_cost_minimum() {
        let g = zoo::mobilenet_v1();
        let pure = Optimizer::new(AmpsConfig {
            cost_tolerance: 0.0,
            ..Default::default()
        })
        .optimize(&g)
        .unwrap();
        let tol = Optimizer::new(AmpsConfig::default()).optimize(&g).unwrap();
        assert!(pure.plan.predicted_cost <= tol.plan.predicted_cost + 1e-12);
        assert!(tol.plan.predicted_time_s <= pure.plan.predicted_time_s + 1e-9);
    }

    #[test]
    fn nan_or_negative_tolerance_selects_like_zero() {
        // A budget below the best cost used to empty the winner set and
        // panic; such tolerances now behave exactly as 0.
        let g = zoo::mobilenet_v1();
        let with_tol = |cost_tolerance: f64| {
            Optimizer::new(AmpsConfig {
                cost_tolerance,
                ..Default::default()
            })
            .optimize(&g)
            .unwrap()
            .plan
        };
        let zero = with_tol(0.0);
        for tol in [-1.0, f64::NAN] {
            let plan = with_tol(tol);
            assert_eq!(plan.partitions, zero.partitions, "tolerance {tol}");
            assert_eq!(
                plan.predicted_cost.to_bits(),
                zero.predicted_cost.to_bits(),
                "tolerance {tol}"
            );
        }
    }

    #[test]
    fn zero_batch_and_nan_slo_are_errors_not_panics() {
        let g = zoo::tiny_cnn();
        let zero = AmpsConfig {
            batch_size: 0,
            ..Default::default()
        };
        let nan = AmpsConfig::default().with_slo(f64::NAN);
        let built = AmpsConfig::default().with_batch(0);
        for (cfg, want) in [(zero, ZERO_BATCH), (built, ZERO_BATCH), (nan, NAN_SLO)] {
            let opt = Optimizer::new(cfg);
            assert_eq!(opt.optimize(&g).unwrap_err(), want);
            assert_eq!(opt.optimize_dag(&g).unwrap_err(), want);
            assert_eq!(opt.solved_cuts(&g).unwrap_err(), want);
            assert_eq!(opt.pass1(&g).unwrap_err(), want);
            assert_eq!(opt.optimize_pipelined(&g).unwrap_err(), want);
        }
        assert_eq!(
            ZERO_BATCH.to_string(),
            "invalid input: batch size must be at least 1"
        );
    }

    /// Pass-1 sums of up to 2,000 cuts, about one in five infeasible, on
    /// grids of dollars (`0.0` included) and `min_time` seconds: half the
    /// cases coarse, so many cuts tie on cost, on `min_time` or on both,
    /// half fine. Also the feasible cuts' `(cost, index)` keys.
    fn tied_sums(
        rng: &mut ampsinf_faas::rng::SmallRng,
    ) -> (Vec<Option<CutSums>>, Vec<(f64, usize)>) {
        let levels = match rng.below(2) {
            0 => rng.range_inclusive(1, 8),
            _ => rng.range_inclusive(50, 400),
        };
        let sums: Vec<Option<CutSums>> = (0..rng.below(2000))
            .map(|_| {
                let cost = rng.below(levels) as f64 * 1e-6;
                let min_time = rng.range_inclusive(1, 6) as f64 * 0.25;
                (rng.below(5) != 0).then_some(CutSums {
                    time: min_time * 2.0,
                    cost,
                    min_time,
                    min_cost: cost * 2.0,
                })
            })
            .collect();
        let keys = sums
            .iter()
            .enumerate()
            .filter_map(|(ci, s)| s.map(|s| (s.cost, ci)))
            .collect();
        (sums, keys)
    }

    /// A budget at the cost of a key of the sorted `keys` (so ties fit)
    /// or half a grid step above it, skewed to the cheap end so that it
    /// often fits few cuts.
    fn budget_in(rng: &mut ampsinf_faas::rng::SmallRng, keys: &[(f64, usize)]) -> f64 {
        let j = rng.below(keys.len().max(1)) >> rng.below(8);
        keys.get(j).map_or(0.0, |k| k.0) + rng.below(2) as f64 * 0.5e-6
    }

    /// The old planner's full cost order.
    fn sorted(keys: &[(f64, usize)]) -> Vec<(f64, usize)> {
        let mut want = keys.to_vec();
        want.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        want
    }

    #[test]
    fn cost_rank_reads_are_prefixes_of_the_full_sort() {
        use ampsinf_faas::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x0a4c_5eed);
        // Budget reads that found their prefix by ranking more cuts, that
        // found it ranked already, and that gave up for a scan.
        let (mut ranked_more, mut ranked_already, mut scans) = (0, 0, 0);
        for case in 0..2000 {
            let (sums, keys) = tied_sums(&mut rng);
            let want = sorted(&keys);
            let mut rank = CostRank::new(&sums);
            assert_eq!(rank.len(), want.len(), "case {case}");
            let cap = want.len() / RANK_SHARE;
            let mut read = 0usize;
            // Reads interleave as a sweep's points do: stage 1 reads from
            // the cheapest cut on, stage 2 up to a budget.
            for step in 0..rng.range_inclusive(1, 6) {
                let label = format!("case {case}, read {step}");
                if rng.below(2) == 0 {
                    let k = rng.below(want.len() + 3) >> rng.below(6);
                    let got: Vec<_> = rank.in_order().take(k).collect();
                    assert_eq!(got, want[..k.min(want.len())], "{label}: first {k}");
                    read = read.max(k.min(want.len()));
                } else {
                    let budget = budget_in(&mut rng, &want);
                    let fits = want.partition_point(|&(c, _)| c <= budget);
                    let got = rank.fitting(budget);
                    if fits <= read {
                        ranked_already += 1;
                    } else if fits <= cap {
                        ranked_more += 1;
                    } else {
                        scans += 1;
                        assert_eq!(got, None, "{label}: ${budget} fits {fits} > cap {cap}");
                    }
                    if fits <= read.max(cap) {
                        assert_eq!(got, Some(&want[..fits]), "{label}: ${budget}");
                    }
                    read = read.max(fits.min(cap));
                }
                // Only what was read is ranked.
                assert_eq!(rank.ranked.len(), read, "{label}: ranked");
            }
        }
        for (what, n) in [
            ("ranked more", ranked_more),
            ("ranked already", ranked_already),
            ("scans", scans),
        ] {
            assert!(n >= 200, "{what}: only {n} budget reads");
        }
    }

    #[test]
    fn stage2_order_pops_like_the_ranked_heap() {
        use ampsinf_faas::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x0057_a9e2);
        let mut via_rank = 0;
        for case in 0..2000 {
            let (sums, keys) = tied_sums(&mut rng);
            let budget = budget_in(&mut rng, &sorted(&keys));
            // The old stage 2: a heap of `(min_time bits, cost rank)`
            // over the budget prefix of the full cost order.
            let order: Vec<usize> = sorted(&keys).into_iter().map(|(_, ci)| ci).collect();
            let fits = order.partition_point(|&ci| sums[ci].unwrap().cost <= budget);
            let mut old: BinaryHeap<Reverse<(u64, usize)>> = order[..fits]
                .iter()
                .enumerate()
                .map(|(rank, &ci)| Reverse((sums[ci].unwrap().min_time.to_bits(), rank)))
                .collect();
            let want: Vec<usize> = std::iter::from_fn(|| old.pop())
                .map(|Reverse((_, rank))| order[rank])
                .collect();
            // The rank as an earlier sweep point may have left it.
            let mut rank = CostRank::new(&sums);
            let read = rng.below(keys.len() + 1);
            rank.in_order().take(read).for_each(drop);
            via_rank += usize::from(rank.fitting(budget).is_some());
            let mut new = time_order(&sums, &mut rank, budget);
            let got: Vec<usize> = std::iter::from_fn(|| new.pop())
                .map(|Reverse((_, _, ci))| ci)
                .collect();
            assert_eq!(got, want, "case {case}: budget ${budget}");
        }
        assert!(
            (500..1500).contains(&via_rank),
            "{via_rank} of 2000 via the rank"
        );
    }

    #[test]
    fn segment_table_cells_share_the_memo_chain_entries() {
        // The DAG spine DP reads interior spans from the memo under
        // `chain_io`, so it must find the very entries pass 1 stored.
        for batch in [1, 64] {
            let g = zoo::inception_v3();
            let cfg = AmpsConfig::default().with_batch(batch);
            let opt = Optimizer::new(cfg.clone());
            let sh = opt.build_shared(Profile::batched(&g, batch)).unwrap();
            let (p1, profile) = (&sh.pass1, &sh.profile);
            let m = p1.cuts.ends.len();
            let mut filled = 0usize;
            let lookups = CacheCounters::new();
            for s in 0..m {
                for e in s..m {
                    let Some(cols) = &p1.segments.cell(s, e).columns else {
                        continue;
                    };
                    let (start, end) = (p1.cuts.start_layer(s), p1.cuts.ends[e]);
                    let io = profile.chain_io(start, end);
                    let memo = sh
                        .cache
                        .node_columns_tracked(profile, start, end, io, &cfg, &lookups);
                    assert!(Arc::ptr_eq(cols, &memo), "batch {batch}: slots ({s}, {e})");
                    filled += 1;
                }
            }
            assert_eq!(filled, p1.misses, "batch {batch}: one cell per evaluation");
            assert_eq!(
                (lookups.hits(), lookups.misses()),
                (filled, 0),
                "batch {batch}: every cell is already in the memo"
            );
        }
    }

    #[test]
    fn pipelined_point_balances_stages_within_budget() {
        let g = zoo::resnet50();
        let cfg = AmpsConfig::default().with_threads(1);
        let free = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
        let opt = Optimizer::new(cfg.clone().with_slo(free.predicted_time_s * 2.0));
        let pp = opt.optimize_pipelined(&g).unwrap();
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
        assert!(
            pp.plan.predicted_cost <= free.predicted_cost * (1.0 + cfg.cost_tolerance) + 1e-12,
            "pipelined {} vs optimize {}",
            pp.plan.predicted_cost,
            free.predicted_cost
        );
        // No SLO plans as an SLO too loose to bind.
        let loose = Optimizer::new(cfg.clone().with_slo(free.predicted_time_s * 1e3));
        let unbound = Optimizer::new(cfg).optimize_pipelined(&g).unwrap();
        assert_eq!(loose.optimize_pipelined(&g).unwrap(), unbound);
    }

    #[test]
    fn pipelined_point_is_deterministic_and_rejects_tight_slo() {
        let g = zoo::mobilenet_v1();
        let cfg = AmpsConfig::default().with_threads(1);
        let free = Optimizer::new(cfg.clone()).optimize(&g).unwrap();
        let t = free.plan.predicted_time_s;
        let tight = Optimizer::new(cfg.clone().with_slo(t * 1e-6));
        assert_eq!(
            tight.optimize_pipelined(&g).unwrap_err(),
            OptimizeError::SloInfeasible
        );
        for batch in [1, 4] {
            let opt = Optimizer::new(cfg.clone().with_batch(batch).with_slo(t * 3.0));
            assert_eq!(
                opt.optimize_pipelined(&g).unwrap(),
                opt.optimize_pipelined(&g).unwrap(),
                "batch {batch}"
            );
        }
    }

    #[test]
    fn optimizer_runs_within_paper_overhead() {
        // Paper §5.4: "within a few seconds on a laptop".
        let g = zoo::resnet50();
        let report = Optimizer::new(AmpsConfig::default()).optimize(&g).unwrap();
        assert!(
            report.solve_time.as_secs_f64() < 30.0,
            "{:?}",
            report.solve_time
        );
    }

    #[test]
    fn dag_report_on_branchless_model_returns_chain_only() {
        // MobileNet is a pure chain: no fork/join regions exist, so the
        // DAG search must degenerate to the chain incumbent.
        let g = zoo::mobilenet_v1();
        let report = Optimizer::new(AmpsConfig::default())
            .optimize_dag(&g)
            .unwrap();
        assert_eq!(report.regions_considered, 0);
        assert_eq!(report.regions_used, 0);
        assert!(report.dag.is_none());
        let plain = Optimizer::new(AmpsConfig::default()).optimize(&g).unwrap();
        assert_eq!(
            report.chain.plan.predicted_cost.to_bits(),
            plain.plan.predicted_cost.to_bits()
        );
    }

    #[test]
    fn dag_plan_is_valid_and_honors_objective_when_returned() {
        // Cost-free SLO on Inception: the chain's cost minimum is hard to
        // beat once scatter/gather fees are billed, so whatever comes
        // back, the selection invariants must hold.
        let g = zoo::inception_v3();
        let report = Optimizer::new(AmpsConfig::default())
            .optimize_dag(&g)
            .unwrap();
        assert!(
            report.regions_considered >= 5,
            "{}",
            report.regions_considered
        );
        if let Some(dag) = &report.dag {
            dag.validate(g.num_layers()).unwrap();
            assert!(dag.width() >= 2);
            let tol = AmpsConfig::default().cost_tolerance;
            assert!(
                dag.predicted_cost
                    <= report.chain.plan.predicted_cost.min(dag.predicted_cost) * (1.0 + tol)
                        + 1e-12
            );
        }
    }

    #[test]
    fn dag_beats_chain_on_batched_inception_at_equal_slo() {
        // The headline scenario: at batch 64 Inception's resident
        // footprint forces the chain past the 1,792 MB CPU-saturation
        // point, where premium GB-seconds buy no more speed — while
        // branch parallelism gets its latency from concurrency at
        // right-sized blocks. At the chain's own free-running latency as
        // the shared SLO, the DAG must win on critical path at no extra
        // cost, with every scatter/gather fee and transfer billed.
        let g = zoo::inception_v3();
        let base = AmpsConfig {
            batch_size: 64,
            ..Default::default()
        };
        let free = Optimizer::new(base.clone()).optimize(&g).unwrap();
        let slo = free.plan.predicted_time_s;
        let report = Optimizer::new(AmpsConfig {
            slo_s: Some(slo),
            ..base
        })
        .optimize_dag(&g)
        .unwrap();
        let chain = &report.chain.plan;
        let dag = report.dag.as_ref().expect("DAG must win at batch 64");
        dag.validate(g.num_layers()).unwrap();
        assert!(dag.width() >= 2);
        assert!(report.regions_used >= 1);
        assert!(dag.predicted_time_s <= slo + 1e-9);
        assert!(
            dag.predicted_time_s < chain.predicted_time_s - 1e-9,
            "dag {} vs chain {}",
            dag.predicted_time_s,
            chain.predicted_time_s
        );
        assert!(
            dag.predicted_cost <= chain.predicted_cost + 1e-12,
            "dag {} vs chain {}",
            dag.predicted_cost,
            chain.predicted_cost
        );
    }
}
