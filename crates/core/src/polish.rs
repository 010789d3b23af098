//! Memory polish of a DAG plan, priced on its fork/join block chain: the
//! DAG planner's SLO repair and tolerance spending.
//!
//! `Optimizer::build_dag` emits nodes block by block: each spine node is
//! a block of its own, and each fork/join region's branches form one
//! block whose nodes all read the preceding spine node's scatter object
//! and all feed the next spine node. Every node of block `j > 0`
//! therefore has exactly the nodes of block `j − 1` as parents, and the
//! forward schedule collapses onto the chain of blocks:
//!
//! * round-to-nearest is monotone, so `max_b fl(F + d_b) == fl(F + max_b
//!   d_b)` — a block's latest finish is its entry instant plus its
//!   *term*, the max of its node durations (a spine node's term is its
//!   duration);
//! * finishes never decrease along the chain, so the makespan is bit for
//!   bit the left fold `F += term` over the blocks from `0.0`.
//!
//! A single-node memory change alters one term, so a candidate's makespan
//! is `pre_f[j] + t'` followed by the remaining terms (O(blocks), no
//! parent lookups), and its cost is `pre_cost[v] + dollars'` followed by
//! the remaining nodes' dollars — the same addition sequence as the
//! ordered sum over all nodes, which `f64: Sum` starts from `-0.0`.

use crate::colcache::NodeColumns;
use std::sync::Arc;

/// Forward schedule of a whole DAG from explicit parent lists (node `v`
/// starts at the max of its parents' finishes): fills `finish` per node
/// and returns the plan-level `(time, cost)` — full-array max fold for
/// the makespan, ordered sum for the cost. `baselines::predict_dag`
/// prices every DAG plan with it, and the block-chain fold must agree
/// with it bit for bit.
pub(crate) fn dag_schedule(
    parents: &[Vec<usize>],
    evals: &[(f64, f64)],
    finish: &mut [f64],
) -> (f64, f64) {
    for v in 0..evals.len() {
        let ready = parents[v].iter().map(|&u| finish[u]).fold(0.0f64, f64::max);
        finish[v] = ready + evals[v].0;
    }
    let time = finish.iter().copied().fold(0.0f64, f64::max);
    let cost = evals.iter().map(|&(_, d)| d).sum();
    (time, cost)
}

/// One polish run's state: the current memories and evaluations, the
/// block-chain prefix folds every candidate is priced against, and each
/// node's scan state. The vectors live as long as the run, so a step
/// allocates nothing; an accepted step updates only what its move can
/// change (see [`Polish::accept`]).
#[derive(Clone)]
pub(crate) struct Polish<'a> {
    /// Each node's memoized memory grid.
    cols: &'a [Arc<NodeColumns>],
    /// Block boundaries: block `j` is nodes `bounds[j]..bounds[j + 1]`.
    bounds: &'a [usize],
    /// Current memory per node.
    pub(crate) mems: Vec<u32>,
    /// `(seconds, dollars)` per node at `mems`.
    evals: Vec<(f64, f64)>,
    /// Makespan of the current assignment.
    pub(crate) time: f64,
    /// Ordered dollar sum of the current assignment.
    pub(crate) cost: f64,
    /// Upgrades accepted so far.
    pub(crate) steps: usize,
    /// Per block: the max of its node durations.
    terms: Vec<f64>,
    /// `pre_f[j]`: the makespan fold over blocks `..j` (block `j`'s entry
    /// instant); `pre_f[blocks]` is the makespan.
    pre_f: Vec<f64>,
    /// `pre_cost[v]`: the ordered dollar sum over nodes `..v` from `-0.0`.
    pre_cost: Vec<f64>,
    /// Nodes on a tight path of the current schedule.
    crit: Vec<bool>,
    /// Per node: the first grid index whose memory is above the node's
    /// (where its upgrade scan starts).
    above: Vec<usize>,
    /// Per node: the max of its block siblings' durations, from `0.0` (the
    /// block's term without the node).
    rest: Vec<f64>,
}

impl<'a> Polish<'a> {
    /// Starts a run at `mems`; `None` when some node's memory is not a
    /// feasible grid point.
    pub(crate) fn new(
        cols: &'a [Arc<NodeColumns>],
        bounds: &'a [usize],
        mems: Vec<u32>,
    ) -> Option<Self> {
        let n = mems.len();
        debug_assert_eq!(bounds.first(), Some(&0));
        debug_assert_eq!(bounds.last(), Some(&n));
        let evals = mems
            .iter()
            .zip(cols)
            .map(|(&m, c)| c.eval_at(m))
            .collect::<Option<Vec<_>>>()?;
        let blocks = bounds.len() - 1;
        let mut pre_cost = vec![0.0; n + 1];
        pre_cost[0] = -0.0;
        let mut p = Polish {
            cols,
            bounds,
            mems,
            evals,
            time: 0.0,
            cost: 0.0,
            steps: 0,
            terms: vec![0.0; blocks],
            pre_f: vec![0.0; blocks + 1],
            pre_cost,
            crit: vec![false; n],
            above: vec![0; n],
            rest: vec![0.0; n],
        };
        for v in 0..n {
            p.rescan_node(v);
        }
        for j in 0..blocks {
            p.rescan_block(j);
        }
        p.refresh_from(0, 0);
        Some(p)
    }

    /// `(seconds, dollars)` per node at the current memories.
    pub(crate) fn evals(&self) -> &[(f64, f64)] {
        &self.evals
    }

    /// Node `v`'s first grid index above its memory.
    fn rescan_node(&mut self, v: usize) {
        let m = self.mems[v];
        self.above[v] = self.cols[v].memories.partition_point(|&g| g <= m);
    }

    /// Block `j`'s term and each of its nodes' sibling max.
    fn rescan_block(&mut self, j: usize) {
        let (lo, hi) = (self.bounds[j], self.bounds[j + 1]);
        let block = &self.evals[lo..hi];
        self.terms[j] = block.iter().map(|e| e.0).fold(0.0f64, f64::max);
        for v in lo..hi {
            self.rest[v] = (lo..hi)
                .filter(|&w| w != v)
                .map(|w| self.evals[w].0)
                .fold(0.0f64, f64::max);
        }
    }

    /// Refolds the prefix sums from block `j0` (`pre_f`) and node `v0`
    /// (`pre_cost`), restamps the plan's time and cost, and re-marks the
    /// critical nodes of blocks `j0..`, given that no term before block
    /// `j0` and no dollars before node `v0` changed since the last fold.
    /// The folds repeat the same additions in the same order as a fold
    /// from block 0 and node 0, so they land on the same bits.
    fn refresh_from(&mut self, j0: usize, v0: usize) {
        let blocks = self.terms.len();
        let mut f = self.pre_f[j0];
        for j in j0..blocks {
            self.pre_f[j] = f;
            f += self.terms[j];
        }
        self.pre_f[blocks] = f;
        self.time = f;
        let mut c = self.pre_cost[v0];
        for (v, e) in self.evals.iter().enumerate().skip(v0) {
            self.pre_cost[v] = c;
            c += e.1;
        }
        self.pre_cost[self.evals.len()] = c;
        self.cost = c;
        // Exact critical-node marking, the same set the parent walk over
        // the full schedule marks: a node is tight when its finish
        // `pre_f[j] + d` *equals* its block's exit instant (every node of
        // the next block waits for that instant), and the walk reaches
        // every block because each one's exit is the next one's entry. A
        // node off every tight path cannot move the makespan, so its
        // candidates are exactly `dt <= 1e-12` skips, pruned unpriced.
        // Blocks before `j0` keep their entry and exit instants, so their
        // marks stand.
        for j in j0..blocks {
            for v in self.bounds[j]..self.bounds[j + 1] {
                self.crit[v] = self.pre_f[j] + self.evals[v].0 == self.pre_f[j + 1];
            }
        }
    }

    /// Moves node `v` of block `j` to memory `m` evaluated at `ev`: the
    /// node's scan start, the block's term and sibling maxima, and the
    /// folds from `j` and `v` on are all that can change.
    fn accept(&mut self, j: usize, v: usize, m: u32, ev: (f64, f64)) {
        self.mems[v] = m;
        self.evals[v] = ev;
        self.steps += 1;
        self.rescan_node(v);
        self.rescan_block(j);
        self.refresh_from(j, v);
    }

    /// Makespan with block `j`'s term replaced by `term`.
    fn makespan_with(&self, j: usize, term: f64) -> f64 {
        self.terms[j + 1..]
            .iter()
            .fold(self.pre_f[j] + term, |f, &t| f + t)
    }

    /// Ordered dollar sum with node `v`'s dollars replaced by `dollars`.
    fn cost_with(&self, v: usize, dollars: f64) -> f64 {
        self.evals[v + 1..]
            .iter()
            .fold(self.pre_cost[v] + dollars, |c, e| c + e.1)
    }

    /// One greedy polish step: the best Δtime/Δcost single-node memory
    /// bump over the cached grids (optionally within a cost budget), or
    /// `false` when no upgrade helps. Strict improvement with ascending
    /// node/grid iteration keeps ties deterministic.
    pub(crate) fn upgrade_step(&mut self, budget: Option<f64>) -> bool {
        // Margins for the optimistic bounds below: a one-node substitution
        // perturbs the block fold and the cost sum by at most ~n·ulp of
        // their magnitudes (~1e-14 relative) — the 1e-13 slack strictly
        // covers that, so a pruned candidate provably fails the exact
        // test too and the argmax is unchanged bit for bit.
        let tmargin = 1e-13 * self.time.max(1.0);
        let cmargin = 1e-13 * self.cost.abs().max(1.0);
        // (ratio, block, node, memory_mb, (time_s, dollars), new_time, new_cost)
        type Upgrade = (f64, usize, usize, u32, (f64, f64), f64, f64);
        let mut best: Option<Upgrade> = None;
        for j in 0..self.terms.len() {
            for v in self.bounds[j]..self.bounds[j + 1] {
                if !self.crit[v] {
                    continue;
                }
                // The block's term without `v`: its siblings cap how far
                // any upgrade of `v` can pull the block's exit in.
                let rest = self.rest[v];
                let cur = self.evals[v];
                // Optimistic filters on an upgrade to `(t, d)`: the
                // makespan drops by at most the block term's drop and the
                // cost moves by at least the node's dollar delta. A no-
                // faster duration can only raise finishes (rounding is
                // monotone): dt <= 0. When even those optima cannot pass
                // the exact filters against the incumbent ratio `r`, the
                // candidate is skipped unpriced. Every filter only
                // tightens as `t` or `d` grows, so one that holds at a
                // suffix's pointwise minimum holds for the whole suffix.
                let hopeless = |(t, d): (f64, f64), r: Option<f64>| {
                    if t >= cur.0 {
                        return true;
                    }
                    let dt_ub = (self.terms[j] - rest.max(t)) + tmargin;
                    let dc_lb = (d - cur.1) - cmargin;
                    dt_ub <= 1e-12
                        || budget.is_some_and(|b| self.cost + dc_lb > b + 1e-13)
                        || r.is_some_and(|r| dt_ub / dc_lb.max(1e-12) <= r)
                };
                let col = &self.cols[v];
                let suffix = col.suffix_min();
                let above = self.above[v];
                if hopeless(suffix[above], best.map(|b| b.0)) {
                    continue;
                }
                for i in above..col.memories.len() {
                    let Some(ev) = col.evals[i] else { continue };
                    let r = best.map(|b| b.0);
                    if hopeless(ev, r) {
                        if hopeless(suffix[i + 1], r) {
                            break;
                        }
                        continue;
                    }
                    let term = rest.max(ev.0);
                    let nt = self.makespan_with(j, term);
                    let dt = self.time - nt;
                    if dt <= 1e-12 {
                        continue;
                    }
                    // Exact time gain over the optimistic cost: only a
                    // candidate that could still win pays the O(n) sum.
                    let dc_lb = (ev.1 - cur.1) - cmargin;
                    if r.is_some_and(|r| dt / dc_lb.max(1e-12) <= r) {
                        continue;
                    }
                    let nc = self.cost_with(v, ev.1);
                    if budget.is_some_and(|b| nc > b + 1e-15) {
                        continue;
                    }
                    let ratio = dt / (nc - self.cost).max(1e-12);
                    if r.is_none_or(|r| ratio > r) {
                        best = Some((ratio, j, v, col.memories[i], ev, nt, nc));
                    }
                }
            }
        }
        let Some((_, j, v, m, ev, nt, nc)) = best else {
            return false;
        };
        self.accept(j, v, m, ev);
        debug_assert_eq!(self.time.to_bits(), nt.to_bits());
        debug_assert_eq!(self.cost.to_bits(), nc.to_bits());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DagNode, DagObject, DagPlan};
    use ampsinf_faas::rng::SmallRng;

    /// The reference polish step: parent-walk critical marking, the
    /// node's own duration drop as the only time bound, and every
    /// surviving candidate priced by a full forward schedule through the
    /// plan's parent lists. Returns the accepted `(node, memory, time,
    /// cost)`.
    #[allow(clippy::too_many_arguments)]
    fn reference_step(
        cols: &[Arc<NodeColumns>],
        parents: &[Vec<usize>],
        mems: &mut [u32],
        evals: &mut [(f64, f64)],
        time: &mut f64,
        cost: &mut f64,
        budget: Option<f64>,
        finish: &mut [f64],
    ) -> Option<(usize, u32, f64, f64)> {
        let n = mems.len();
        let mut crit = vec![false; n];
        for v in 0..n {
            crit[v] = finish[v] == *time;
        }
        for w in (0..n).rev() {
            if !crit[w] {
                continue;
            }
            let ready = parents[w].iter().map(|&u| finish[u]).fold(0.0f64, f64::max);
            for &u in &parents[w] {
                if finish[u] == ready {
                    crit[u] = true;
                }
            }
        }
        let tmargin = 1e-13 * time.max(1.0);
        let cmargin = 1e-13 * cost.abs().max(1.0);
        type Upgrade = (f64, usize, u32, (f64, f64), f64, f64);
        let mut best: Option<Upgrade> = None;
        let mut scratch = vec![0.0f64; n];
        for v in 0..n {
            if !crit[v] {
                continue;
            }
            for (&m, cev) in cols[v].memories.iter().zip(&cols[v].evals) {
                if m <= mems[v] {
                    continue;
                }
                let Some(ev) = *cev else { continue };
                if ev.0 >= evals[v].0 {
                    continue;
                }
                let dt_ub = (evals[v].0 - ev.0) + tmargin;
                if dt_ub <= 1e-12 {
                    continue;
                }
                let dc_lb = (ev.1 - evals[v].1) - cmargin;
                if budget.is_some_and(|b| *cost + dc_lb > b + 1e-13) {
                    continue;
                }
                if best.is_some_and(|(r, ..)| dt_ub / dc_lb.max(1e-12) <= r) {
                    continue;
                }
                let mut trial = evals.to_vec();
                trial[v] = ev;
                let (nt, nc) = dag_schedule(parents, &trial, &mut scratch);
                let dt = *time - nt;
                let dc = nc - *cost;
                if dt <= 1e-12 {
                    continue;
                }
                if budget.is_some_and(|b| nc > b + 1e-15) {
                    continue;
                }
                let ratio = dt / dc.max(1e-12);
                if best.is_none_or(|(r, ..)| ratio > r) {
                    best = Some((ratio, v, m, ev, nt, nc));
                }
            }
        }
        let (_, v, m, ev, nt, nc) = best?;
        mems[v] = m;
        evals[v] = ev;
        *time = nt;
        *cost = nc;
        dag_schedule(parents, evals, finish);
        Some((v, m, nt, nc))
    }

    /// A random fork/join block chain wired exactly like `build_dag`'s
    /// output: runs of 1–4 spine nodes alternating with regions of 1–6
    /// branches (each reading the last spine node's scatter object and
    /// writing a gather object for the next spine node), ending on a
    /// spine run. Returns the plan, its block boundaries, and one random
    /// memory grid per node.
    fn random_chain(rng: &mut SmallRng) -> (DagPlan, Vec<usize>, Vec<Arc<NodeColumns>>) {
        let mut nodes: Vec<DagNode> = Vec::new();
        let mut objects: Vec<DagObject> = Vec::new();
        let mut bounds = vec![0usize];
        let regions = rng.range_inclusive(0, 4);
        let mut gathers: Vec<usize> = Vec::new();
        for r in 0..=regions {
            for k in 0..rng.range_inclusive(1, 4) {
                let idx = nodes.len();
                if k > 0 {
                    objects.push(DagObject {
                        producer: idx - 1,
                        consumers: vec![idx],
                        bytes: 1,
                    });
                }
                for b in gathers.drain(..) {
                    objects.push(DagObject {
                        producer: b,
                        consumers: vec![idx],
                        bytes: 1,
                    });
                }
                nodes.push(DagNode {
                    start: idx,
                    end: idx,
                    memory_mb: 0,
                });
                bounds.push(nodes.len());
            }
            if r == regions {
                break;
            }
            let producer = nodes.len() - 1;
            let width = rng.range_inclusive(1, 6);
            let consumers: Vec<usize> = (nodes.len()..nodes.len() + width).collect();
            for &c in &consumers {
                gathers.push(c);
                nodes.push(DagNode {
                    start: c,
                    end: c,
                    memory_mb: 0,
                });
            }
            objects.push(DagObject {
                producer,
                consumers,
                bytes: 1,
            });
            bounds.push(nodes.len());
        }
        // Durations from a coarse lattice (so sibling ties and exact
        // rounding absorption both occur), some nudged just below it, at
        // a random scale; grids mix
        // infeasible points, slower-at-more-memory points and cheaper
        // upgrades.
        let scale = [1e-3, 1.0, 37.0, 1e4][rng.below(4)];
        // A coarse lattice makes sibling ties common.
        let lattice = [4, 40][rng.below(2)];
        let cols = (0..nodes.len())
            .map(|_| {
                let points = rng.range_inclusive(1, 8);
                let memories: Vec<u32> = (0..points).map(|i| 128 * (i as u32 + 1)).collect();
                let evals = (0..points)
                    .map(|_| {
                        (rng.below(8) > 0).then(|| {
                            let mut t = scale * (1 + rng.below(lattice)) as f64 / 8.0;
                            // Near-ties: a few ulps of a long block prefix
                            // below a lattice point, which such a prefix
                            // absorbs in rounding and a shorter one does
                            // not, so moving an early block can flip a
                            // later sibling's critical mark.
                            if rng.below(3) == 0 {
                                t -= scale * 2f64.powi(-(46 + rng.below(6) as i32));
                            }
                            let c = 1e-5 * (1 + rng.below(400)) as f64 * rng.next_f64();
                            (t, c)
                        })
                    })
                    .collect();
                Arc::new(NodeColumns::new(memories, evals))
            })
            .collect();
        let plan = DagPlan {
            model: "random".into(),
            nodes,
            objects,
            predicted_time_s: 0.0,
            predicted_cost: 0.0,
        };
        (plan, bounds, cols)
    }

    /// Asserts that the run's kept state — scan starts, sibling maxima,
    /// terms, both prefix folds, the critical marks, time and cost — is bit
    /// for bit what a from-scratch refresh of the current evaluations
    /// computes: every fold from block 0 and node 0, every scan start by
    /// search, every sibling max over the whole block.
    fn assert_state_is_fresh(p: &Polish, at: &str) {
        let (bounds, evals) = (p.bounds, &p.evals);
        let (n, blocks) = (evals.len(), bounds.len() - 1);
        let above: Vec<usize> = (0..n)
            .map(|v| p.cols[v].memories.partition_point(|&m| m <= p.mems[v]))
            .collect();
        let mut rest = Vec::with_capacity(n);
        let mut terms = vec![0.0f64; blocks];
        let mut pre_f = vec![0.0f64; blocks + 1];
        let mut f = 0.0f64;
        for j in 0..blocks {
            let (lo, hi) = (bounds[j], bounds[j + 1]);
            rest.extend((lo..hi).map(|v| {
                (lo..hi)
                    .filter(|&w| w != v)
                    .map(|w| evals[w].0)
                    .fold(0.0f64, f64::max)
            }));
            terms[j] = evals[lo..hi].iter().map(|e| e.0).fold(0.0f64, f64::max);
            pre_f[j] = f;
            f += terms[j];
        }
        pre_f[blocks] = f;
        let mut pre_cost = vec![0.0f64; n + 1];
        let mut c = -0.0f64;
        for v in 0..n {
            pre_cost[v] = c;
            c += evals[v].1;
        }
        pre_cost[n] = c;
        let mut crit = vec![false; n];
        for j in 0..blocks {
            for v in bounds[j]..bounds[j + 1] {
                crit[v] = pre_f[j] + evals[v].0 == pre_f[j + 1];
            }
        }
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(p.above, above, "above, {at}");
        assert_eq!(bits(&p.rest), bits(&rest), "rest, {at}");
        assert_eq!(bits(&p.terms), bits(&terms), "terms, {at}");
        assert_eq!(bits(&p.pre_f), bits(&pre_f), "pre_f, {at}");
        assert_eq!(bits(&p.pre_cost), bits(&pre_cost), "pre_cost, {at}");
        assert_eq!(p.crit, crit, "crit, {at}");
        assert_eq!(p.time.to_bits(), f.to_bits(), "time, {at}");
        assert_eq!(p.cost.to_bits(), c.to_bits(), "cost, {at}");
    }

    /// Collapsed makespan and cost ≡ the full schedule, the block chain
    /// step ≡ the reference step, and the kept state ≡ a from-scratch
    /// refresh, at every step of every polish phase on 4,000 random block
    /// chains. The chains must move blocks of every width from 1 to 4,
    /// and the runs must include budgets that bind, SLO repairs that fail
    /// and steps after which a critical mark past the moved block flips.
    #[test]
    fn block_chain_polish_matches_full_schedule_reference() {
        let mut rng = SmallRng::seed_from_u64(0xb10c_c4a1);
        let (mut chains, mut steps) = (0, 0);
        let (mut bound_budgets, mut failed_repairs) = (0, 0);
        let mut moved_widths = [0usize; 7];
        let mut later_flips = 0;
        for _ in 0..4000 {
            let (plan, bounds, cols) = random_chain(&mut rng);
            let n = plan.nodes.len();
            let parents: Vec<Vec<usize>> = (0..n).map(|v| plan.parents_of(v)).collect();
            // Start from a random feasible memory per node.
            let Some(start) = cols
                .iter()
                .map(|c| {
                    let feasible: Vec<u32> = c
                        .memories
                        .iter()
                        .zip(&c.evals)
                        .filter(|(_, e)| e.is_some())
                        .map(|(&m, _)| m)
                        .collect();
                    (!feasible.is_empty()).then(|| feasible[rng.below(feasible.len())])
                })
                .collect::<Option<Vec<u32>>>()
            else {
                continue;
            };
            chains += 1;
            let mut p = Polish::new(&cols, &bounds, start.clone()).expect("feasible start");
            assert_state_is_fresh(&p, "start");
            let mut mems = start;
            let mut evals = p.evals().to_vec();
            let mut finish = vec![0.0; n];
            let (mut time, mut cost) = dag_schedule(&parents, &evals, &mut finish);
            assert_eq!(p.time.to_bits(), time.to_bits(), "initial makespan");
            assert_eq!(p.cost.to_bits(), cost.to_bits(), "initial cost");
            // Phase 1 repairs a random SLO below the start time; phase 2
            // spends a random tolerance budget.
            let slo = time * (0.3 + 0.7 * rng.next_f64());
            let tol = [0.0, 0.05, 0.3, 2.0][rng.below(4)];
            let mut budget = None;
            for phase in 0..2 {
                if phase == 1 {
                    budget = Some(cost * (1.0 + tol));
                }
                loop {
                    if phase == 0 && time <= slo {
                        break;
                    }
                    let want = reference_step(
                        &cols,
                        &parents,
                        &mut mems,
                        &mut evals,
                        &mut time,
                        &mut cost,
                        budget,
                        &mut finish,
                    );
                    let prev = p.mems.clone();
                    let prev_crit = p.crit.clone();
                    let took = p.upgrade_step(budget);
                    // An accepted upgrade raises exactly one node's memory.
                    let got = took.then(|| {
                        let v = (0..n)
                            .find(|&v| p.mems[v] != prev[v])
                            .expect("one node moved");
                        (v, p.mems[v], p.time, p.cost)
                    });
                    assert_eq!(
                        got.map(|(v, m, t, c)| (v, m, t.to_bits(), c.to_bits())),
                        want.map(|(v, m, t, c)| (v, m, t.to_bits(), c.to_bits())),
                        "step {} of phase {phase}",
                        p.steps
                    );
                    assert_eq!(p.mems, mems);
                    let mut fresh = vec![0.0; n];
                    let full = dag_schedule(&parents, p.evals(), &mut fresh);
                    assert_eq!(p.time.to_bits(), full.0.to_bits(), "collapsed makespan");
                    assert_eq!(p.cost.to_bits(), full.1.to_bits(), "collapsed cost");
                    let Some((v, ..)) = got else {
                        if phase == 0 {
                            failed_repairs += 1;
                        } else if p.clone().upgrade_step(None) {
                            bound_budgets += 1;
                        }
                        break;
                    };
                    assert_state_is_fresh(&p, &format!("step {} of phase {phase}", p.steps));
                    let j = bounds.partition_point(|&b| b <= v) - 1;
                    if (bounds[j + 1]..n).any(|w| p.crit[w] != prev_crit[w]) {
                        later_flips += 1;
                    }
                    moved_widths[bounds[j + 1] - bounds[j]] += 1;
                    steps += 1;
                }
            }
        }
        // The generator must actually exercise the step, not just build.
        assert!(chains > 3000, "{chains} feasible chains");
        assert!(steps > 10_000, "{steps} accepted steps");
        assert!(
            moved_widths[1..=4].iter().all(|&k| k >= 100),
            "accepted steps per moved block width: {moved_widths:?}"
        );
        assert!(bound_budgets >= 100, "{bound_budgets} binding budgets");
        assert!(failed_repairs >= 100, "{failed_repairs} failed SLO repairs");
        assert!(
            later_flips >= 10,
            "{later_flips} steps flipped a later mark"
        );
    }
}
