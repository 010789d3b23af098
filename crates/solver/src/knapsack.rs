//! Exact pick-one knapsack: choose one item from every group so that the
//! summed seconds stay within a limit at the least summed dollars.
//!
//! The AMPS-Inf per-cut MIQP (paper Eq. 12–14) has exactly this shape: a
//! one-hot memory selector per partition, a diagonal objective equal to
//! the summed dollars of the chosen columns, and one SLO row over their
//! seconds. [`solve`] answers it exactly with a dominance-pruned Pareto
//! dynamic program — no relaxations, no branching — and [`lp_bound`] is
//! its LP relaxation, the cheap lower bound a caller prunes on before
//! solving. [`crate::bb`] solves the same problem in its MIQP form and is
//! the reference these are tested against.
//!
//! # Example
//!
//! ```
//! use ampsinf_solver::knapsack::{self, Item};
//!
//! let item = |seconds, dollars| Item { seconds, dollars };
//! // Two partitions, each slow-and-cheap or fast-and-dear.
//! let groups = [
//!     vec![item(4.0, 1.0), item(2.0, 3.0)],
//!     vec![item(5.0, 1.0), item(1.0, 4.0)],
//! ];
//! let pick = knapsack::solve(&groups, 7.0).expect("feasible");
//! assert_eq!(pick.choice, vec![1, 0]); // 2 + 5 s for $4 beats 4 + 1 s for $5
//! assert_eq!((pick.seconds, pick.dollars), (7.0, 4.0));
//! assert!(knapsack::lp_bound(&groups, 7.0).unwrap() <= pick.dollars);
//! assert!(knapsack::solve(&groups, 2.5).is_none());
//! ```

/// One item of a group: what choosing it adds to the two sums.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Seconds (the constrained sum).
    pub seconds: f64,
    /// Dollars (the minimized sum).
    pub dollars: f64,
}

/// An optimal pick.
#[derive(Debug, Clone, PartialEq)]
pub struct Pick {
    /// Chosen item index per group.
    pub choice: Vec<usize>,
    /// Seconds of the chosen items, added left to right from `0.0`.
    pub seconds: f64,
    /// Dollars of the chosen items, added left to right from `0.0`.
    pub dollars: f64,
}

/// Items with a non-finite field can never be chosen.
fn usable(it: &Item) -> bool {
    it.seconds.is_finite() && it.dollars.is_finite()
}

/// `lower` padded down by the rounding a few additions can introduce:
/// `1e-13` relative to the value (absolute below magnitude 1). Sums over a
/// handful of groups differ from any reassociation of themselves by a few
/// ulps (~1e-15 relative), so a test on the padded value never rejects
/// what the exact test would accept.
fn pad_down(lower: f64) -> f64 {
    lower - 1e-13 * lower.abs().max(1.0)
}

/// A partial pick of the first groups: its two sums, the frontier index of
/// its prefix, its item in the newest group, and the lexicographic rank of
/// its prefix's choices among that frontier.
#[derive(Clone, Copy)]
struct State {
    seconds: f64,
    dollars: f64,
    parent: u32,
    item: u32,
    parent_rank: u32,
}

/// The cheapest pick whose seconds are at most `limit`, or `None` when no
/// pick fits (or some group has no usable item).
///
/// Both sums are added left to right from `0.0` over the groups in order,
/// so they equal, bit for bit, what any caller summing the chosen items in
/// that order computes. Ties resolve to lower dollars, then fewer
/// seconds, then the lexicographically smaller choice vector.
///
/// The dynamic program walks the groups in order and keeps only the Pareto
/// frontier of partial sums. Rounding is monotone, so a partial pick no
/// better on either sum than another stays no better after both add the
/// same remaining items; it is dropped. A partial pick is also dropped
/// when even the fastest remaining items would carry it past `limit` (a
/// test padded by `1e-13` relative, so rounding never drops a fit).
pub fn solve<G: AsRef<[Item]>>(groups: &[G], limit: f64) -> Option<Pick> {
    let n = groups.len();
    // rest[g]: the fewest seconds groups g.. can still add.
    let mut rest = vec![0.0f64; n + 1];
    for g in (0..n).rev() {
        let fastest = groups[g]
            .as_ref()
            .iter()
            .filter(|it| usable(it))
            .map(|it| it.seconds)
            .fold(f64::INFINITY, f64::min);
        if fastest == f64::INFINITY {
            return None;
        }
        rest[g] = fastest + rest[g + 1];
    }

    let root = State {
        seconds: 0.0,
        dollars: 0.0,
        parent: 0,
        item: 0,
        parent_rank: 0,
    };
    // layers[g]: the frontier before group g was added.
    let mut layers: Vec<Vec<State>> = Vec::with_capacity(n);
    let mut frontier = vec![root];
    let mut ranks: Vec<u32> = vec![0];
    let mut cand: Vec<State> = Vec::new();
    let mut order: Vec<u32> = Vec::new();
    for (g, items) in groups.iter().enumerate() {
        cand.clear();
        for (p, s) in frontier.iter().enumerate() {
            for (j, it) in items.as_ref().iter().enumerate() {
                if !usable(it) {
                    continue;
                }
                let seconds = s.seconds + it.seconds;
                if pad_down(seconds + rest[g + 1]) > limit {
                    continue;
                }
                cand.push(State {
                    seconds,
                    dollars: s.dollars + it.dollars,
                    parent: p as u32,
                    item: j as u32,
                    parent_rank: ranks[p],
                });
            }
        }
        // Fewest seconds first; among equal seconds the cheapest, then the
        // lexicographically smallest choices. A sweep keeping each state
        // strictly cheaper than every state before it leaves the frontier.
        cand.sort_unstable_by(|a, b| {
            a.seconds
                .total_cmp(&b.seconds)
                .then(a.dollars.total_cmp(&b.dollars))
                .then(a.parent_rank.cmp(&b.parent_rank))
                .then(a.item.cmp(&b.item))
        });
        let mut next = Vec::new();
        let mut cheapest = f64::INFINITY;
        for c in &cand {
            if c.dollars < cheapest {
                cheapest = c.dollars;
                next.push(*c);
            }
        }
        if next.is_empty() {
            return None;
        }
        // Choice vectors compare by prefix first, then by the newest item.
        order.clear();
        order.extend(0..next.len() as u32);
        order.sort_unstable_by_key(|&i| (next[i as usize].parent_rank, next[i as usize].item));
        ranks.clear();
        ranks.resize(next.len(), 0);
        for (r, &i) in order.iter().enumerate() {
            ranks[i as usize] = r as u32;
        }
        layers.push(std::mem::replace(&mut frontier, next));
    }

    // Dollars fall strictly along the frontier, so the cheapest fit is the
    // slowest state within the limit.
    let best = *frontier.iter().rfind(|s| s.seconds <= limit)?;
    let mut choice = vec![0usize; n];
    let mut s = best;
    for g in (0..n).rev() {
        choice[g] = s.item as usize;
        s = layers[g][s.parent as usize];
    }
    Some(Pick {
        choice,
        seconds: best.seconds,
        dollars: best.dollars,
    })
}

/// The LP relaxation's optimum, padded down: a lower bound on the dollars
/// of every pick whose seconds are at most `limit`, or `None` when even the
/// fastest items of every group exceed the limit (no pick fits).
///
/// Only each group's lower convex hull in the (seconds, dollars) plane
/// matters to the relaxation, from its fastest vertex to its cheapest. The
/// relaxation starts every group at its cheapest vertex and, while the
/// seconds exceed the limit, walks hull edges toward faster vertices in
/// order of dollars added per second saved across all groups (convexity
/// makes each group's edges come in hull order), taking the last edge
/// fractionally. This equals the maximum of the Lagrangian dual over the
/// seconds row. The limit is padded up and the result padded down by
/// `1e-13` relative, so floating-point rounding never lifts the bound above
/// a pick [`solve`] would return.
pub fn lp_bound<G: AsRef<[Item]>>(groups: &[G], limit: f64) -> Option<f64> {
    let limit = limit + 1e-13 * limit.abs().max(1.0);
    let mut seconds = 0.0f64;
    let mut dollars = 0.0f64;
    // (dollars per second saved, seconds saved, dollars added) per edge.
    let mut edges: Vec<(f64, f64, f64)> = Vec::new();
    let mut pts: Vec<Item> = Vec::new();
    let mut hull: Vec<Item> = Vec::new();
    for items in groups {
        pts.clear();
        pts.extend(items.as_ref().iter().copied().filter(usable));
        if pts.is_empty() {
            return None;
        }
        pts.sort_unstable_by(|a, b| {
            a.seconds
                .total_cmp(&b.seconds)
                .then(a.dollars.total_cmp(&b.dollars))
        });
        // Andrew's monotone chain, lower half, over the cheapest item of
        // each distinct duration.
        hull.clear();
        for (i, &p) in pts.iter().enumerate() {
            if i > 0 && pts[i - 1].seconds == p.seconds {
                continue;
            }
            while let [.., a, b] = hull[..] {
                let cross = (b.seconds - a.seconds) * (p.dollars - a.dollars)
                    - (b.dollars - a.dollars) * (p.seconds - a.seconds);
                if cross > 0.0 {
                    break;
                }
                hull.pop();
            }
            hull.push(p);
        }
        // Past the cheapest vertex the hull only gets slower and dearer.
        let mut k = 0;
        for (i, h) in hull.iter().enumerate() {
            if h.dollars < hull[k].dollars {
                k = i;
            }
        }
        seconds += hull[k].seconds;
        dollars += hull[k].dollars;
        for w in (1..=k).rev() {
            let (fast, slow) = (hull[w - 1], hull[w]);
            let saved = slow.seconds - fast.seconds;
            let added = fast.dollars - slow.dollars;
            edges.push((added / saved, saved, added));
        }
    }
    if seconds <= limit {
        return Some(pad_down(dollars));
    }
    edges.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    for (rate, saved, added) in edges {
        let over = seconds - limit;
        if saved >= over {
            return Some(pad_down(dollars + rate * over));
        }
        seconds -= saved;
        dollars += added;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(seconds: f64, dollars: f64) -> Item {
        Item { seconds, dollars }
    }

    #[test]
    fn no_groups_is_the_empty_pick() {
        let groups: [Vec<Item>; 0] = [];
        let pick = solve(&groups, 0.0).unwrap();
        assert!(pick.choice.is_empty());
        assert_eq!((pick.seconds, pick.dollars), (0.0, 0.0));
        assert_eq!(lp_bound(&groups, 0.0), Some(pad_down(0.0)));
        assert!(solve(&groups, -1.0).is_none());
    }

    #[test]
    fn empty_or_unusable_group_is_infeasible() {
        let groups = [vec![item(1.0, 1.0)], vec![]];
        assert!(solve(&groups, 10.0).is_none());
        assert!(lp_bound(&groups, 10.0).is_none());
        let groups = [vec![item(f64::NAN, 1.0), item(1.0, f64::INFINITY)]];
        assert!(solve(&groups, 10.0).is_none());
        assert!(lp_bound(&groups, 10.0).is_none());
    }

    #[test]
    fn slack_limit_picks_each_groups_cheapest() {
        let groups = [
            vec![item(3.0, 2.0), item(1.0, 5.0), item(2.0, 2.0)],
            vec![item(4.0, 1.0), item(0.5, 9.0)],
        ];
        let pick = solve(&groups, 100.0).unwrap();
        // Equal dollars in group 0: the faster item wins.
        assert_eq!(pick.choice, vec![2, 0]);
        assert_eq!((pick.seconds, pick.dollars), (6.0, 3.0));
        // Without a binding limit the relaxation is the same sum.
        assert_eq!(lp_bound(&groups, 100.0), Some(pad_down(3.0)));
    }

    #[test]
    fn exact_ties_resolve_to_smaller_choices() {
        // Both groups hold two identical items: every pick ties.
        let groups = [
            vec![item(1.0, 1.0), item(1.0, 1.0)],
            vec![item(2.0, 2.0), item(2.0, 2.0)],
        ];
        assert_eq!(solve(&groups, 3.0).unwrap().choice, vec![0, 0]);
        // Mixed: (0,1) and (1,0) tie on both sums; (0,1) is smaller.
        let groups = [
            vec![item(1.0, 2.0), item(2.0, 1.0)],
            vec![item(1.0, 2.0), item(2.0, 1.0)],
        ];
        assert_eq!(solve(&groups, 3.0).unwrap().choice, vec![0, 1]);
    }

    #[test]
    fn lp_bound_interpolates_the_hull() {
        // One group, limit halfway between its two hull vertices: the
        // relaxation pays half the edge.
        let groups = [vec![item(4.0, 1.0), item(2.0, 3.0), item(3.0, 5.0)]];
        let lp = lp_bound(&groups, 3.0).unwrap();
        assert!((lp - 2.0).abs() < 1e-12, "{lp}");
        assert!(lp < 2.0);
        // The integer optimum must take the fast item.
        assert_eq!(solve(&groups, 3.0).unwrap().dollars, 3.0);
        assert!(lp_bound(&groups, 1.9).is_none());
    }
}
