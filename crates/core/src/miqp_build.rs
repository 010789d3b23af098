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
//! states it in that form for the planner's exact solver
//! ([`ampsinf_solver::knapsack`]); [`build`] assembles the MIQP form the
//! branch-and-bound reference solves.

use crate::config::AmpsConfig;
use ampsinf_linalg::Matrix;
use ampsinf_profiler::{quick_eval, Profile, SegmentEval};
use ampsinf_solver::knapsack::{self, Item};
use ampsinf_solver::{MiqpProblem, VarKind};

/// One partition's per-memory evaluation column.
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

/// Evaluates one segment's (memory × eval) columns, or `None` when the
/// segment has no feasible memory/evaluation at all.
///
/// `(start, end)` fully determines the result for a given profile and
/// config: `quick_eval`'s first/last flags are implied by `start == 0` and
/// `end == last layer`. That is what makes segment columns shareable
/// across cuts (see [`crate::colcache::SegmentColumnCache`]).
pub fn evaluate_segment(
    profile: &Profile,
    start: usize,
    end: usize,
    cfg: &AmpsConfig,
) -> Option<PartitionColumns> {
    let is_first = start == 0;
    let is_last = end == profile.num_layers() - 1;
    let mut memories = Vec::new();
    let mut evals = Vec::new();
    for mem in profile.feasible_memories(start, end, &cfg.quotas, &cfg.perf) {
        if let Ok(eval) = quick_eval(
            profile,
            start,
            end,
            mem,
            &cfg.quotas,
            &cfg.prices,
            &cfg.perf,
            &cfg.store,
            is_first,
            is_last,
        ) {
            memories.push(mem);
            evals.push(eval);
        }
    }
    if memories.is_empty() {
        return None;
    }
    Some(PartitionColumns {
        start,
        end,
        memories,
        evals,
    })
}

/// Evaluates every (partition × feasible memory) cell of a cut. Returns
/// `None` when some partition has no feasible memory/evaluation at all.
pub fn evaluate_columns(
    profile: &Profile,
    cut: &[usize],
    cfg: &AmpsConfig,
) -> Option<Vec<PartitionColumns>> {
    let mut parts = Vec::with_capacity(cut.len());
    let mut start = 0usize;
    for &end in cut {
        parts.push(evaluate_segment(profile, start, end, cfg)?);
        start = end + 1;
    }
    Some(parts)
}

/// Deterministic argmin over one partition's columns by `key`. Ties break
/// toward the **smaller memory size** — an explicit rule, so ties can
/// never silently depend on column order. (On a presolved Pareto frontier
/// keys are pairwise distinct and the tie-break is moot; on raw columns it
/// pins the answer.)
fn argmin_column(p: &PartitionColumns, key: impl Fn(&SegmentEval) -> f64) -> usize {
    let mut best = 0usize;
    for j in 1..p.evals.len() {
        let kj = key(&p.evals[j]);
        let kb = key(&p.evals[best]);
        if kj < kb || (kj == kb && p.memories[j] < p.memories[best]) {
            best = j;
        }
    }
    best
}

/// Shared body of the separable fast paths: per-partition argmin by `key`,
/// summed. Generic over owned or shared ([`std::sync::Arc`]) columns so
/// the memo-cache path needs no clones.
fn separable_argmin_cols<P: std::borrow::Borrow<PartitionColumns>>(
    parts: &[P],
    key: impl Fn(&SegmentEval) -> f64 + Copy,
) -> (Vec<u32>, f64, f64) {
    let mut memories = Vec::with_capacity(parts.len());
    let mut time = 0.0;
    let mut cost = 0.0;
    for p in parts {
        let p = p.borrow();
        let j = argmin_column(p, key);
        memories.push(p.memories[j]);
        time += p.evals[j].duration_s;
        cost += p.evals[j].dollars;
    }
    (memories, time, cost)
}

/// `(memory, seconds, dollars)` of one chosen column.
pub(crate) type ColumnPick = (u32, f64, f64);

/// One segment's terms of the separable fast paths: the `(min-cost,
/// min-time)` columns [`separable_min_cost_cols`] and
/// [`separable_min_time_cols`] pick for it. Summing these left to right
/// from `0.0` over a cut's segments reproduces those functions' totals
/// bit for bit.
pub(crate) fn separable_picks(p: &PartitionColumns) -> (ColumnPick, ColumnPick) {
    let pick = |j: usize| (p.memories[j], p.evals[j].duration_s, p.evals[j].dollars);
    (
        pick(argmin_column(p, |e| e.dollars)),
        pick(argmin_column(p, |e| e.duration_s)),
    )
}

/// Separable fast path over evaluated columns: per-partition cost argmin,
/// ignoring any SLO coupling. Returns `(memories, total time, total cost)`.
pub fn separable_min_cost_cols<P: std::borrow::Borrow<PartitionColumns>>(
    parts: &[P],
) -> (Vec<u32>, f64, f64) {
    separable_argmin_cols(parts, |e| e.dollars)
}

/// Separable fast path minimizing *time*: per-partition duration argmin.
/// Its total is the fastest any memory mix can make this cut — a provable
/// SLO-feasibility filter. Returns `(memories, total time, total cost)`.
pub fn separable_min_time_cols<P: std::borrow::Borrow<PartitionColumns>>(
    parts: &[P],
) -> (Vec<u32>, f64, f64) {
    separable_argmin_cols(parts, |e| e.duration_s)
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
/// its seconds are strictly below every column before it. The kept
/// columns come back in index order. Evaluations are finite and never
/// `-0.0`, where `total_cmp` orders as `<` does.
pub fn presolve_dominated(p: &PartitionColumns) -> PartitionColumns {
    let mut order: Vec<usize> = (0..p.memories.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        let (ea, eb) = (&p.evals[a], &p.evals[b]);
        ea.dollars
            .total_cmp(&eb.dollars)
            .then(ea.duration_s.total_cmp(&eb.duration_s))
            .then(a.cmp(&b))
    });
    let mut fastest = f64::INFINITY;
    order.retain(|&j| {
        let keep = p.evals[j].duration_s < fastest;
        if keep {
            fastest = p.evals[j].duration_s;
        }
        keep
    });
    order.sort_unstable();
    let keep = order;
    PartitionColumns {
        start: p.start,
        end: p.end,
        memories: keep.iter().map(|&i| p.memories[i]).collect(),
        evals: keep.iter().map(|&i| p.evals[i]).collect(),
    }
}

/// Total binary budget for one *joint* MIQP: each partition keeps a
/// representative column subset (extremes, the cost argmin and its
/// neighbourhood, plus even spacing) sized so the whole problem stays
/// around this many binaries. The budget dates from the branch-and-bound
/// solver, whose dense relaxations scale cubically with variable count;
/// the exact knapsack keeps it so its plans match that reference. The
/// separable pass and the final memory-upgrade step always use the full
/// grid.
const MIQP_BINARY_BUDGET: usize = 48;
/// Never thin a partition below this many columns.
const MIN_MIQP_COLS: usize = 4;

/// Thins a partition's columns for the joint MIQP.
fn thin_columns(p: &PartitionColumns, max_cols: usize) -> PartitionColumns {
    let l = p.memories.len();
    if l <= max_cols {
        return p.clone();
    }
    let argmin_cost = argmin_column(p, |e| e.dollars);
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
    PartitionColumns {
        start: p.start,
        end: p.end,
        memories: keep.iter().map(|&i| p.memories[i]).collect(),
        evals: keep.iter().map(|&i| p.evals[i]).collect(),
    }
}

/// The per-cut problem's columns: every presolved partition thinned to its
/// share of `MIQP_BINARY_BUDGET` — the groups both the MIQP and the
/// knapsack form choose from.
pub fn miqp_columns<P: std::borrow::Borrow<PartitionColumns>>(
    presolved: &[P],
) -> Vec<PartitionColumns> {
    let max_cols = (MIQP_BINARY_BUDGET / presolved.len().max(1)).max(MIN_MIQP_COLS);
    presolved
        .iter()
        .map(|p| thin_columns(p.borrow(), max_cols))
        .collect()
}

/// One cut's MIQP as a pick-one knapsack: the [`miqp_columns`] groups with
/// each column's `(seconds, dollars)`. Its objective at a pick is the
/// MIQP's (the summed dollars of the chosen columns) and its one
/// constraint is the SLO row.
#[derive(Debug, Clone)]
pub struct CutKnapsack {
    /// Per-partition thinned columns, in cut order.
    pub parts: Vec<PartitionColumns>,
    groups: Vec<Vec<Item>>,
}

impl CutKnapsack {
    /// The knapsack form of the cut whose presolved columns are given.
    pub fn new<P: std::borrow::Borrow<PartitionColumns>>(presolved: &[P]) -> Self {
        let parts = miqp_columns(presolved);
        let groups = parts
            .iter()
            .map(|p| {
                p.evals
                    .iter()
                    .map(|e| Item {
                        seconds: e.duration_s,
                        dollars: e.dollars,
                    })
                    .collect()
            })
            .collect();
        CutKnapsack { parts, groups }
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
        let memories = self
            .parts
            .iter()
            .zip(&pick.choice)
            .map(|(p, &j)| p.memories[j])
            .collect();
        Some((memories, pick.seconds, pick.dollars))
    }
}

/// Builds the solver-ready MIQP for a cut (Eq. 12–14 + Eq. 1 + SLO row).
pub fn build(profile: &Profile, cut: &[usize], cfg: &AmpsConfig) -> Option<CutMiqp> {
    let full = evaluate_columns(profile, cut, cfg)?;
    let presolved: Vec<PartitionColumns> = full.iter().map(presolve_dominated).collect();
    Some(build_from_presolved(&presolved, cfg))
}

/// Builds the MIQP from already-presolved partition columns (the memo
/// cache stores exactly these, see [`crate::colcache::SegmentColumnCache`]).
/// Because `presolve_dominated` is idempotent, this is bit-identical to
/// [`build`] on the same cut.
pub fn build_from_presolved<P: std::borrow::Borrow<PartitionColumns>>(
    presolved: &[P],
    cfg: &AmpsConfig,
) -> CutMiqp {
    let parts = miqp_columns(presolved);
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
    CutMiqp {
        problem,
        parts,
        offsets,
    }
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

    /// Separable fast path over this MIQP's (thinned) columns — see
    /// [`separable_min_cost_cols`]. The thinning always retains the
    /// per-partition cost argmin, so this equals the full-grid fast path.
    pub fn separable_min_cost(&self) -> (Vec<u32>, f64, f64) {
        separable_min_cost_cols(&self.parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampsinf_model::zoo;
    use ampsinf_solver::bb::{solve_miqp, BbStatus};
    use ampsinf_solver::BbOptions;

    fn setup() -> (Profile, AmpsConfig) {
        let g = zoo::mobilenet_v1();
        (Profile::of(&g), AmpsConfig::default())
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
        let (mem_sep, _, cost_sep) = miqp.separable_min_cost();
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
        let (_, _, cost_raw) = separable_min_cost_cols(&raw);
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
        let free = build(&profile, &cut, &cfg).unwrap();
        let (_, t_free, cost_free) = free.separable_min_cost();
        // Now demand a response faster than the min-cost config delivers.
        cfg.slo_s = Some(t_free * 0.8);
        let tight = build(&profile, &cut, &cfg).unwrap();
        let sol = solve_miqp(&tight.problem, BbOptions::default());
        assert_eq!(sol.status, BbStatus::Optimal);
        let (mems, t, cost) = tight.decode(&sol.x);
        assert!(t <= t_free * 0.8 + 1e-6, "SLO violated: {t}");
        assert!(cost >= cost_free - 1e-12, "faster cannot be cheaper");
        assert!(mems[0] > free.separable_min_cost().0[0]);
    }

    #[test]
    fn knapsack_matches_bb_on_a_binding_cut() {
        let (profile, mut cfg) = setup();
        let n = profile.num_layers();
        let cut = vec![n / 3, 2 * n / 3, n - 1];
        let free = build(&profile, &cut, &cfg).unwrap();
        let slo = free.separable_min_cost().1 * 0.9;
        cfg.slo_s = Some(slo);
        let miqp = build(&profile, &cut, &cfg).unwrap();
        let sol = solve_miqp(&miqp.problem, BbOptions::default());
        assert_eq!(sol.status, BbStatus::Optimal);
        let (_, t_bb, c_bb) = miqp.decode(&sol.x);
        let presolved: Vec<PartitionColumns> = evaluate_columns(&profile, &cut, &cfg)
            .unwrap()
            .iter()
            .map(presolve_dominated)
            .collect();
        let ks = CutKnapsack::new(&presolved);
        assert_eq!(
            ks.parts, miqp.parts,
            "both forms choose from the same columns"
        );
        let (mems, t, c) = ks.solve(slo + 1e-9).unwrap();
        assert_eq!(mems.len(), cut.len());
        assert!(t <= slo + 1e-9 && t_bb <= slo + 1e-9);
        assert!(c <= c_bb + 2e-9, "knapsack {c} vs b&b {c_bb}");
        assert!(ks.lower_bound(slo + 1e-9) <= c);
        assert_eq!(ks.lower_bound(0.001), f64::INFINITY);
        assert!(ks.solve(0.001).is_none());
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
