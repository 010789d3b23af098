//! Per-cut MIQP assembly (paper Eq. 12–14).
//!
//! Given a cut `g`, the remaining decision is the memory selector
//! `x_{j,i}` for each lambda `i` (Eq. 1): a 0-1 quadratic program whose
//! objective mirrors Eq. (9)'s structure — a diagonal quadratic term
//! `Q_j x_j x_j` carrying the compute-duration cost (price × unit-time,
//! both selected by the same `x_j`) and a linear term `P_j x_j` carrying
//! transfer cost at the selected price plus request/invocation fees. The
//! SLO enters as a single linear row over all selectors.

use crate::config::AmpsConfig;
use ampsinf_linalg::Matrix;
use ampsinf_profiler::{quick_eval, Profile, SegmentEval};
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
/// only two quantities the objective and the SLO row see). Dominated
/// columns can never appear in an optimal solution of the joint MIQP, so
/// dropping them shrinks branch-and-bound work losslessly.
pub fn presolve_dominated(p: &PartitionColumns) -> PartitionColumns {
    let l = p.memories.len();
    let keep: Vec<usize> = (0..l)
        .filter(|&j| {
            !(0..l).any(|o| {
                o != j
                    && p.evals[o].dollars <= p.evals[j].dollars
                    && p.evals[o].duration_s <= p.evals[j].duration_s
                    && (p.evals[o].dollars < p.evals[j].dollars
                        || p.evals[o].duration_s < p.evals[j].duration_s
                        || o < j) // deterministic tie-break keeps one copy
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

/// Total binary budget for one *joint* MIQP. The dense active-set QP
/// relaxations scale cubically with variable count, so each partition
/// keeps a representative column subset (extremes, the cost argmin and its
/// neighbourhood, plus even spacing) sized so the whole problem stays
/// around this many binaries; the separable pass and the final
/// memory-upgrade step always use the full grid.
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
    let max_cols = (MIQP_BINARY_BUDGET / presolved.len().max(1)).max(MIN_MIQP_COLS);
    let parts: Vec<PartitionColumns> = presolved
        .iter()
        .map(|p| thin_columns(p.borrow(), max_cols))
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
    fn infeasible_slo_detected() {
        let (profile, mut cfg) = setup();
        let n = profile.num_layers();
        cfg.slo_s = Some(0.001); // nothing is that fast
        let miqp = build(&profile, &[n - 1], &cfg).unwrap();
        let sol = solve_miqp(&miqp.problem, BbOptions::default());
        assert_eq!(sol.status, BbStatus::Infeasible);
    }
}
