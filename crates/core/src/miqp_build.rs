//! Per-cut MIQP assembly (paper Eq. 12–14).
//!
//! Given a cut `g`, the remaining decision is the memory selector
//! `x_{j,i}` for each lambda `i` (Eq. 1): a 0-1 quadratic program whose
//! objective mirrors Eq. (9)'s structure — a diagonal quadratic term
//! `Q_j x_j x_j` carrying the compute-duration cost (price × unit-time,
//! both selected by the same `x_j`) and a linear term `P_j x_j` carrying
//! transfer cost at the selected price plus request/invocation fees. The
//! SLO enters as a single linear row over all selectors.
//!
//! That MIQP is a pick-one knapsack with one constraint: [`CutKnapsack`]
//! states it in that form, over the presolved frontiers of the memoized
//! [`NodeColumns`], for the planner's exact solver
//! ([`ampsinf_solver::knapsack`]); [`build`] assembles the MIQP form, over
//! thinned columns, that the branch-and-bound reference solves.

use crate::colcache::{ColumnPick, NodeColumns};
use crate::config::AmpsConfig;
use ampsinf_linalg::Matrix;
use ampsinf_profiler::{NodePricer, Profile, SegmentEval};
use ampsinf_solver::knapsack::{self, Item};
use ampsinf_solver::{MiqpProblem, VarKind};
use std::borrow::Borrow;

/// One partition's per-memory evaluation column, with every memory's
/// full [`SegmentEval`]: the reference MIQP splits each cell's dollars by
/// its phase breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionColumns {
    /// Segment bounds (inclusive).
    pub start: usize,
    /// Segment end (inclusive).
    pub end: usize,
    /// Feasible memory blocks (constraint (7) filtered).
    pub memories: Vec<u32>,
    /// Ground-truth evaluation per memory block.
    pub evals: Vec<SegmentEval>,
}

impl PartitionColumns {
    /// The columns at the given indices, in that order.
    fn select(&self, keep: &[usize]) -> PartitionColumns {
        PartitionColumns {
            start: self.start,
            end: self.end,
            memories: keep.iter().map(|&i| self.memories[i]).collect(),
            evals: keep.iter().map(|&i| self.evals[i]).collect(),
        }
    }
}

/// The assembled MIQP plus the variable layout needed to decode solutions.
#[derive(Debug, Clone)]
pub struct CutMiqp {
    /// The solver-ready problem.
    pub problem: MiqpProblem,
    /// Per-partition columns; variable index = `offsets[i] + j`.
    pub parts: Vec<PartitionColumns>,
    /// First variable index of each partition's group.
    pub offsets: Vec<usize>,
}

/// Evaluates every (partition × feasible memory) cell of a cut, each
/// segment reading and writing [`Profile::chain_io`]'s objects. Returns
/// `None` when some partition has no feasible memory/evaluation at all.
/// Only the reference MIQP [`build`] uses it; the planner reads columns
/// from [`crate::colcache::SegmentColumnCache`].
pub fn evaluate_columns(
    profile: &Profile,
    cut: &[usize],
    cfg: &AmpsConfig,
) -> Option<Vec<PartitionColumns>> {
    let mut parts = Vec::with_capacity(cut.len());
    let mut start = 0usize;
    for &end in cut {
        let (reads, writes) = profile.chain_io(start, end);
        let pricer = NodePricer::new(
            profile,
            start,
            end,
            &cfg.quotas,
            &cfg.prices,
            &cfg.perf,
            &cfg.store,
            reads,
            writes,
        );
        let (memories, evals): (Vec<u32>, Vec<SegmentEval>) = profile
            .feasible_memories(start, end, &cfg.quotas, &cfg.perf)
            .into_iter()
            .filter_map(|mem| pricer.eval(mem).ok().map(|eval| (mem, eval)))
            .unzip();
        if memories.is_empty() {
            return None;
        }
        parts.push(PartitionColumns {
            start,
            end,
            memories,
            evals,
        });
        start = end + 1;
    }
    Some(parts)
}

/// Shared body of the separable fast paths: one frontier column per
/// partition, summed left to right from `0.0`. Generic over owned or
/// shared ([`std::sync::Arc`]) columns so the memo-cache path needs no
/// clones.
fn separable<P: Borrow<NodeColumns>>(
    parts: &[P],
    pick: fn(&NodeColumns) -> Option<ColumnPick>,
) -> (Vec<u32>, f64, f64) {
    let mut memories = Vec::with_capacity(parts.len());
    let mut time = 0.0;
    let mut cost = 0.0;
    for p in parts {
        let (m, t, d) = pick(p.borrow()).expect("every segment has a feasible memory");
        memories.push(m);
        time += t;
        cost += d;
    }
    (memories, time, cost)
}

/// Separable fast path over memoized columns: per-partition cost argmin
/// ([`NodeColumns::min_cost`]), ignoring any SLO coupling. Returns
/// `(memories, total time, total cost)`.
pub fn separable_min_cost_cols<P: Borrow<NodeColumns>>(parts: &[P]) -> (Vec<u32>, f64, f64) {
    separable(parts, NodeColumns::min_cost)
}

/// Separable fast path minimizing *time*: per-partition duration argmin
/// ([`NodeColumns::min_time`]). Its total is the fastest any memory mix
/// can make this cut — a provable SLO-feasibility filter. Returns
/// `(memories, total time, total cost)`.
pub fn separable_min_time_cols<P: Borrow<NodeColumns>>(parts: &[P]) -> (Vec<u32>, f64, f64) {
    separable(parts, NodeColumns::min_time)
}

/// The sort and sweep of [`presolve_dominated`], by index: the ascending
/// indices of the `(seconds, dollars)` cells that survive, where `None`
/// cells are infeasible and never do. [`NodeColumns::new`] runs it over a
/// raw grid. The sort compares integer keys that order as `total_cmp`
/// orders the floats (for the finite non-negative evaluations of a grid,
/// the plain bits), so the order is the `total_cmp` chain's.
pub(crate) fn dominance_frontier(
    cells: impl ExactSizeIterator<Item = Option<(f64, f64)>>,
) -> Vec<usize> {
    // `f64::total_cmp`'s key: a negative float's magnitude bits are
    // flipped, so signed integer order is the total order. The flip is its
    // own inverse, so a kept cell's seconds come back bit for bit.
    let flip = |b: i64| b ^ (((b >> 63) as u64) >> 1) as i64;
    let key = |x: f64| flip(x.to_bits() as i64);
    let mut order: Vec<(i64, i64, usize)> = Vec::with_capacity(cells.len());
    order.extend(
        cells
            .enumerate()
            .filter_map(|(j, cell)| cell.map(|(seconds, dollars)| (key(dollars), key(seconds), j))),
    );
    order.sort_unstable();
    let mut fastest = f64::INFINITY;
    order.retain(|&(_, seconds, _)| {
        let seconds = f64::from_bits(flip(seconds) as u64);
        let keep = seconds < fastest;
        if keep {
            fastest = seconds;
        }
        keep
    });
    let mut keep: Vec<usize> = order.iter().map(|&(_, _, j)| j).collect();
    keep.sort_unstable();
    keep
}

/// Dominance presolve: within one partition's SOS-1 group, a memory column
/// is dominated when another column is no worse on cost *and* duration (the
/// only two quantities the objective and the SLO row see) and better on
/// one, or is an exact duplicate of a column at a smaller index (so one
/// copy stays). Dominated columns can never appear in an optimal solution
/// of the joint MIQP, so dropping them shrinks the problem losslessly.
///
/// Sort and sweep, O(l log l): in `(dollars, seconds, index)` order every
/// column that dominates `j` comes before it, so `j` is dominated exactly
/// when some earlier column is no slower — a column is kept exactly when
/// its seconds are strictly below every column before it. So the kept
/// columns' dollars, and their seconds, are pairwise distinct. The kept
/// columns come back in index order. Evaluations are finite and never
/// `-0.0`, where `total_cmp` orders as `<` does.
pub fn presolve_dominated(p: &PartitionColumns) -> PartitionColumns {
    p.select(&dominance_frontier(
        p.evals.iter().map(|e| Some((e.duration_s, e.dollars))),
    ))
}

/// Total binary budget for one *joint* MIQP: each partition keeps a
/// representative column subset (extremes, the cost argmin and its
/// neighbourhood, plus even spacing) sized so the whole problem stays
/// around this many binaries, which keeps the branch-and-bound reference's
/// dense relaxations small. The planner's knapsack reads every column.
const MIQP_BINARY_BUDGET: usize = 48;
/// Never thin a partition below this many columns.
const MIN_MIQP_COLS: usize = 4;

/// Thins a partition's presolved columns for the joint MIQP.
fn thin_columns(p: &PartitionColumns, max_cols: usize) -> PartitionColumns {
    let l = p.memories.len();
    if l <= max_cols {
        return p.clone();
    }
    let argmin_cost = (0..l)
        .min_by(|&a, &b| p.evals[a].dollars.total_cmp(&p.evals[b].dollars))
        .expect("non-empty columns");
    let mut keep: Vec<usize> = vec![0, l - 1, argmin_cost];
    if argmin_cost > 0 {
        keep.push(argmin_cost - 1);
    }
    if argmin_cost + 1 < l {
        keep.push(argmin_cost + 1);
    }
    let remaining = max_cols.saturating_sub(keep.len()).max(1);
    for i in 0..remaining {
        keep.push(i * (l - 1) / remaining);
    }
    keep.sort_unstable();
    keep.dedup();
    keep.truncate(max_cols);
    p.select(&keep)
}

/// One cut's MIQP as a pick-one knapsack over its segments' full
/// frontiers, each column carrying its `(seconds, dollars)`. Its objective
/// at a pick is the MIQP's (the summed dollars of the chosen columns) and
/// its one constraint is the SLO row. The same groups with the two sums
/// swapped answer the planner's second question: the fastest mix within
/// a dollar budget.
#[derive(Debug, Clone)]
pub struct CutKnapsack {
    /// Per-partition memory blocks, one per column, in cut order.
    memories: Vec<Vec<u32>>,
    /// Per-partition columns as `(seconds, dollars)` items.
    groups: Vec<Vec<Item>>,
}

impl CutKnapsack {
    /// The knapsack form of the cut whose segments' columns are given.
    pub fn new<P: Borrow<NodeColumns>>(cols: &[P]) -> Self {
        let frontiers = cols.iter().map(|p| p.borrow().frontier());
        CutKnapsack {
            memories: frontiers
                .clone()
                .map(|f| f.map(|(m, _, _)| m).collect())
                .collect(),
            groups: frontiers
                .map(|f| {
                    f.map(|(_, seconds, dollars)| Item { seconds, dollars })
                        .collect()
                })
                .collect(),
        }
    }

    /// A lower bound on the dollars of every mix whose seconds are at most
    /// `limit` (the LP relaxation, padded down); infinite when no mix fits.
    pub fn lower_bound(&self, limit: f64) -> f64 {
        knapsack::lp_bound(&self.groups, limit).unwrap_or(f64::INFINITY)
    }

    /// The cheapest memory mix whose seconds are at most `limit`, as
    /// `(memories, seconds, dollars)` with both totals summed left to right
    /// from `0.0` like [`CutMiqp::decode`]. Ties go to fewer seconds, then
    /// the lexicographically smaller memories (columns ascend by memory).
    /// `None` when no mix fits.
    pub fn solve(&self, limit: f64) -> Option<(Vec<u32>, f64, f64)> {
        let pick = knapsack::solve(&self.groups, limit)?;
        Some((self.memories_of(&pick.choice), pick.seconds, pick.dollars))
    }

    /// [`CutKnapsack::lower_bound`] with seconds and dollars swapped: a
    /// lower bound on the seconds of every mix whose dollars are at most
    /// `budget`.
    pub fn time_bound(&self, budget: f64) -> f64 {
        knapsack::lp_bound(&self.swapped(), budget).unwrap_or(f64::INFINITY)
    }

    /// [`CutKnapsack::solve`] with seconds and dollars swapped: the fastest
    /// mix whose dollars are at most `budget`, as `(memories, seconds,
    /// dollars)`. Ties go to fewer dollars, then the lexicographically
    /// smaller memories.
    pub fn fastest(&self, budget: f64) -> Option<(Vec<u32>, f64, f64)> {
        let pick = knapsack::solve(&self.swapped(), budget)?;
        Some((self.memories_of(&pick.choice), pick.dollars, pick.seconds))
    }

    /// The groups with each item's seconds and dollars swapped.
    fn swapped(&self) -> Vec<Vec<Item>> {
        let swap = |it: &Item| Item {
            seconds: it.dollars,
            dollars: it.seconds,
        };
        self.groups
            .iter()
            .map(|g| g.iter().map(swap).collect())
            .collect()
    }

    /// The memory blocks of one column choice per partition.
    fn memories_of(&self, choice: &[usize]) -> Vec<u32> {
        self.memories
            .iter()
            .zip(choice)
            .map(|(m, &j)| m[j])
            .collect()
    }
}

/// Builds the solver-ready MIQP for a cut (Eq. 12–14 + Eq. 1 + SLO row)
/// over its presolved columns, each thinned to its share of
/// `MIQP_BINARY_BUDGET`.
pub fn build(profile: &Profile, cut: &[usize], cfg: &AmpsConfig) -> Option<CutMiqp> {
    let full = evaluate_columns(profile, cut, cfg)?;
    let max_cols = (MIQP_BINARY_BUDGET / full.len().max(1)).max(MIN_MIQP_COLS);
    let parts: Vec<PartitionColumns> = full
        .iter()
        .map(|p| thin_columns(&presolve_dominated(p), max_cols))
        .collect();
    let nvars: usize = parts.iter().map(|p| p.memories.len()).sum();
    let mut offsets = Vec::with_capacity(parts.len());
    let mut h = Matrix::zeros(nvars, nvars);
    let mut c = vec![0.0; nvars];
    let mut t_row = vec![0.0; nvars];
    let mut idx = 0usize;
    for p in &parts {
        offsets.push(idx);
        for (j, eval) in p.evals.iter().enumerate() {
            // Split the cell's dollars the way Eq. (9) does: the term that
            // is quadratic in x (price × compute duration, both selected by
            // x_j) goes on the diagonal; transfer-at-price + fees stay
            // linear. ½xᵀHx convention → diagonal entry is 2·Q.
            let rate = f64::from(p.memories[j]) / 1024.0 * cfg.prices.lambda_gb_second;
            let linear_part = rate * eval.breakdown.transfer_s
                + cfg.prices.lambda_request
                + (eval.dollars
                    - cfg
                        .prices
                        .lambda_compute_cost(eval.duration_s, p.memories[j])
                    - cfg.prices.lambda_request); // storage request fees
            let quad_part = eval.dollars - linear_part;
            h[(idx + j, idx + j)] = 2.0 * quad_part;
            c[idx + j] = linear_part;
            t_row[idx + j] = eval.duration_s;
        }
        idx += p.memories.len();
    }
    let mut problem = MiqpProblem::new(h, c, vec![VarKind::Binary; nvars]);
    for (i, p) in parts.iter().enumerate() {
        let group: Vec<usize> = (offsets[i]..offsets[i] + p.memories.len()).collect();
        problem.add_pick_one(&group);
    }
    if let Some(slo) = cfg.slo_s {
        problem.add_le(t_row, slo);
    }
    Some(CutMiqp {
        problem,
        parts,
        offsets,
    })
}

impl CutMiqp {
    /// Decodes a 0-1 solution vector into per-partition memory choices and
    /// the implied (time, cost).
    pub fn decode(&self, x: &[f64]) -> (Vec<u32>, f64, f64) {
        let mut memories = Vec::with_capacity(self.parts.len());
        let mut time = 0.0;
        let mut cost = 0.0;
        for (i, p) in self.parts.iter().enumerate() {
            let base = self.offsets[i];
            let j = (0..p.memories.len())
                .max_by(|&a, &b| {
                    x[base + a]
                        .partial_cmp(&x[base + b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("non-empty group");
            memories.push(p.memories[j]);
            time += p.evals[j].duration_s;
            cost += p.evals[j].dollars;
        }
        (memories, time, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colcache::SegmentColumnCache;
    use ampsinf_model::zoo;
    use ampsinf_solver::bb::{solve_miqp, BbStatus};
    use ampsinf_solver::BbOptions;

    fn setup() -> (Profile, AmpsConfig) {
        let g = zoo::mobilenet_v1();
        (Profile::of(&g), AmpsConfig::default())
    }

    /// The planner's separable min-cost mix of `cut`, from fresh memoized
    /// columns.
    fn separable_min_cost(
        profile: &Profile,
        cut: &[usize],
        cfg: &AmpsConfig,
    ) -> (Vec<u32>, f64, f64) {
        let cols = SegmentColumnCache::new().columns_for_cut(profile, cut, cfg);
        separable_min_cost_cols(&cols.expect("feasible cut"))
    }

    #[test]
    fn build_produces_sos1_structure() {
        let (profile, cfg) = setup();
        let n = profile.num_layers();
        let cut = vec![n / 2, n - 1];
        let miqp = build(&profile, &cut, &cfg).unwrap();
        assert_eq!(miqp.parts.len(), 2);
        assert_eq!(miqp.problem.qp.eq.len(), 2); // two pick-one rows
        let nvars = miqp.problem.num_vars();
        assert_eq!(
            nvars,
            miqp.parts.iter().map(|p| p.memories.len()).sum::<usize>()
        );
    }

    #[test]
    fn miqp_solution_matches_separable_when_no_slo() {
        let (profile, cfg) = setup();
        let n = profile.num_layers();
        let cut = vec![n / 2, n - 1];
        let miqp = build(&profile, &cut, &cfg).unwrap();
        let sol = solve_miqp(&miqp.problem, BbOptions::default());
        assert_eq!(sol.status, BbStatus::Optimal);
        let (mem_bb, _, cost_bb) = miqp.decode(&sol.x);
        let (mem_sep, _, cost_sep) = separable_min_cost(&profile, &cut, &cfg);
        assert!(
            (cost_bb - cost_sep).abs() < 1e-9,
            "miqp {cost_bb} vs separable {cost_sep}"
        );
        assert_eq!(mem_bb, mem_sep);
    }

    #[test]
    fn objective_equals_decoded_cost() {
        // The MIQP objective at a binary point must equal the sum of the
        // selected cells' dollars (Eq. 9 bookkeeping is exact).
        let (profile, cfg) = setup();
        let n = profile.num_layers();
        let miqp = build(&profile, &[n - 1], &cfg).unwrap();
        let sol = solve_miqp(&miqp.problem, BbOptions::default());
        assert_eq!(sol.status, BbStatus::Optimal);
        let (_, _, cost) = miqp.decode(&sol.x);
        assert!(
            (sol.objective - cost).abs() < 1e-9,
            "objective {} vs decoded {}",
            sol.objective,
            cost
        );
    }

    #[test]
    fn presolve_keeps_pareto_frontier_only() {
        let (profile, cfg) = setup();
        let n = profile.num_layers();
        let cols = evaluate_columns(&profile, &[n - 1], &cfg).unwrap();
        let pre = presolve_dominated(&cols[0]);
        assert!(!pre.memories.is_empty());
        assert!(pre.memories.len() <= cols[0].memories.len());
        // No surviving column is dominated by another survivor.
        for j in 0..pre.evals.len() {
            for o in 0..pre.evals.len() {
                if o == j {
                    continue;
                }
                let dominated = pre.evals[o].dollars <= pre.evals[j].dollars
                    && pre.evals[o].duration_s <= pre.evals[j].duration_s
                    && (pre.evals[o].dollars < pre.evals[j].dollars
                        || pre.evals[o].duration_s < pre.evals[j].duration_s);
                assert!(!dominated, "column {j} still dominated by {o}");
            }
        }
        // The frontier retains both extremes: the cost argmin and the
        // duration argmin of the original set.
        let best_cost = cols[0]
            .evals
            .iter()
            .map(|e| e.dollars)
            .fold(f64::INFINITY, f64::min);
        let best_time = cols[0]
            .evals
            .iter()
            .map(|e| e.duration_s)
            .fold(f64::INFINITY, f64::min);
        assert!(pre.evals.iter().any(|e| e.dollars <= best_cost + 1e-15));
        assert!(pre.evals.iter().any(|e| e.duration_s <= best_time + 1e-12));
    }

    /// The dominance presolve by its definition: the O(l²) pairwise scan
    /// — a column goes when another is no worse on both axes and better
    /// on one, or is an exact duplicate at a smaller index.
    fn presolve_reference(p: &PartitionColumns) -> PartitionColumns {
        let l = p.memories.len();
        let keep: Vec<usize> = (0..l)
            .filter(|&j| {
                !(0..l).any(|o| {
                    o != j
                        && p.evals[o].dollars <= p.evals[j].dollars
                        && p.evals[o].duration_s <= p.evals[j].duration_s
                        && (p.evals[o].dollars < p.evals[j].dollars
                            || p.evals[o].duration_s < p.evals[j].duration_s
                            || o < j)
                })
            })
            .collect();
        PartitionColumns {
            start: p.start,
            end: p.end,
            memories: keep.iter().map(|&i| p.memories[i]).collect(),
            evals: keep.iter().map(|&i| p.evals[i]).collect(),
        }
    }

    #[test]
    fn presolve_matches_pairwise_definition_on_random_columns() {
        use ampsinf_faas::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x5eed_d0e1);
        for case in 0..2000 {
            // Values on a coarse grid, so exact duplicates and ties on one
            // axis are common; some columns copy an earlier one outright.
            let l = rng.range_inclusive(1, 24);
            let levels = rng.range_inclusive(1, 6);
            let mut evals: Vec<SegmentEval> = Vec::with_capacity(l);
            for _ in 0..l {
                let e = if !evals.is_empty() && rng.below(4) == 0 {
                    evals[rng.below(evals.len())]
                } else {
                    SegmentEval {
                        duration_s: rng.range_inclusive(1, levels) as f64 * 0.5,
                        dollars: rng.range_inclusive(1, levels) as f64 * 1e-6,
                        breakdown: Default::default(),
                    }
                };
                evals.push(e);
            }
            let p = PartitionColumns {
                start: case,
                end: case + 1,
                memories: (0..l as u32).map(|i| 128 + 64 * i).collect(),
                evals,
            };
            let want = presolve_reference(&p);
            assert_eq!(presolve_dominated(&p), want, "case {case}: {p:?}");
            assert_eq!(presolve_dominated(&want), want, "case {case}: idempotent");
            // The same sweep over a raw grid with infeasible cells between
            // the columns keeps the same columns.
            let (mut memories, mut cells) = (Vec::new(), Vec::new());
            for (&m, e) in p.memories.iter().zip(&p.evals) {
                if rng.below(3) == 0 {
                    memories.push(m - 1);
                    cells.push(None);
                }
                memories.push(m);
                cells.push(Some((e.duration_s, e.dollars)));
            }
            let grid = NodeColumns::new(memories, cells);
            let frontier: Vec<ColumnPick> = want
                .memories
                .iter()
                .zip(&want.evals)
                .map(|(&m, e)| (m, e.duration_s, e.dollars))
                .collect();
            assert_eq!(grid.frontier().collect::<Vec<_>>(), frontier, "case {case}");
        }
    }

    #[test]
    fn presolve_preserves_miqp_optimum() {
        let (profile, cfg) = setup();
        let n = profile.num_layers();
        let cut = vec![n / 2, n - 1];
        // The full MIQP (with presolve inside build) must match the
        // separable optimum computed over the raw, unpresolved columns.
        let raw = evaluate_columns(&profile, &cut, &cfg).unwrap();
        let cost_raw: f64 = raw
            .iter()
            .map(|p| {
                p.evals
                    .iter()
                    .map(|e| e.dollars)
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        let miqp = build(&profile, &cut, &cfg).unwrap();
        let sol = solve_miqp(&miqp.problem, BbOptions::default());
        assert_eq!(sol.status, BbStatus::Optimal);
        let (_, _, cost_pre) = miqp.decode(&sol.x);
        assert!((cost_raw - cost_pre).abs() < 1e-12);
    }

    #[test]
    fn slo_row_forces_faster_memories() {
        let (profile, mut cfg) = setup();
        let n = profile.num_layers();
        let cut = vec![n - 1];
        // Unconstrained min-cost config:
        let (free_mems, t_free, cost_free) = separable_min_cost(&profile, &cut, &cfg);
        // Now demand a response faster than the min-cost config delivers.
        cfg.slo_s = Some(t_free * 0.8);
        let tight = build(&profile, &cut, &cfg).unwrap();
        let sol = solve_miqp(&tight.problem, BbOptions::default());
        assert_eq!(sol.status, BbStatus::Optimal);
        let (mems, t, cost) = tight.decode(&sol.x);
        assert!(t <= t_free * 0.8 + 1e-6, "SLO violated: {t}");
        assert!(cost >= cost_free - 1e-12, "faster cannot be cheaper");
        assert!(mems[0] > free_mems[0]);
    }

    #[test]
    fn knapsack_matches_bb_on_a_binding_cut() {
        let (profile, mut cfg) = setup();
        let n = profile.num_layers();
        let cut = vec![n / 3, 2 * n / 3, n - 1];
        let slo = separable_min_cost(&profile, &cut, &cfg).1 * 0.9;
        cfg.slo_s = Some(slo);
        let miqp = build(&profile, &cut, &cfg).unwrap();
        let sol = solve_miqp(&miqp.problem, BbOptions::default());
        assert_eq!(sol.status, BbStatus::Optimal);
        let (_, t_bb, c_bb) = miqp.decode(&sol.x);
        let cols = SegmentColumnCache::new()
            .columns_for_cut(&profile, &cut, &cfg)
            .unwrap();
        // The knapsack reads the full frontiers, B&B their thinned subset,
        // so the knapsack is never dearer.
        let ks = CutKnapsack::new(&cols);
        let (mems, t, c) = ks.solve(slo + 1e-9).unwrap();
        assert_eq!(mems.len(), cut.len());
        assert!(t <= slo + 1e-9 && t_bb <= slo + 1e-9);
        assert!(c <= c_bb + 2e-9, "knapsack {c} vs b&b {c_bb}");
        assert!(ks.lower_bound(slo + 1e-9) <= c);
        assert_eq!(ks.lower_bound(0.001), f64::INFINITY);
        assert!(ks.solve(0.001).is_none());
        // Swapped: the fastest mix within the cheapest mix's dollars is no
        // slower than it, and no mix fits a budget of nothing.
        let (fast, ft, fc) = ks.fastest(c).unwrap();
        assert_eq!(fast.len(), cut.len());
        assert!(
            ft <= t && fc <= c,
            "fastest ({ft} s, ${fc}) vs ({t} s, ${c})"
        );
        assert!(ks.time_bound(c) <= ft);
        assert_eq!(ks.time_bound(0.0), f64::INFINITY);
        assert!(ks.fastest(0.0).is_none());
    }

    #[test]
    fn infeasible_slo_detected() {
        let (profile, mut cfg) = setup();
        let n = profile.num_layers();
        cfg.slo_s = Some(0.001); // nothing is that fast
        let miqp = build(&profile, &[n - 1], &cfg).unwrap();
        let sol = solve_miqp(&miqp.problem, BbOptions::default());
        assert_eq!(sol.status, BbStatus::Infeasible);
    }
}
