//! Property-style tests: the B&B MIQP solver and the pick-one knapsack
//! against brute-force oracles, KKT conditions for the QP, and LP
//! invariants. Inputs come from a
//! deterministic PRNG (no external property-testing dependency).

use ampsinf_linalg::{vector, Matrix};
use ampsinf_solver::bb::solve_miqp;
use ampsinf_solver::knapsack::{self, Item, Pick};
use ampsinf_solver::{
    BbOptions, LpProblem, LpStatus, MiqpProblem, QpProblem, QpStatus, Relation, VarKind,
};

/// Deterministic LCG over `[0, 1)`.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed)
    }

    fn unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as f64 / u32::MAX as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn vec(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| self.range(lo, hi)).collect()
    }

    /// Uniform over `[0, 1)` from the top 53 bits of the next state (the
    /// full range, unlike [`Gen::unit`]'s lower half).
    fn uniform(&mut self) -> f64 {
        self.unit();
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi]` over [`Gen::uniform`].
    fn index(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.uniform() * (hi - lo + 1) as f64) as usize
    }

    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.unit() * (hi - lo + 1) as f64) as i64
    }

    /// Random symmetric integer-ish Hessian over `n` binaries.
    fn binary_hessian(&mut self, n: usize) -> Matrix {
        let data: Vec<f64> = (0..n * n).map(|_| self.int(-3, 3) as f64).collect();
        let mut m = Matrix::from_vec(n, n, data);
        m.symmetrize();
        m
    }
}

/// Brute-force oracle over all binary assignments.
fn brute_force(p: &MiqpProblem) -> Option<f64> {
    let bins = p.integral_indices();
    let mut best: Option<f64> = None;
    for mask in 0u64..(1 << bins.len()) {
        let mut x = vec![0.0; p.num_vars()];
        for (b, &i) in bins.iter().enumerate() {
            x[i] = ((mask >> b) & 1) as f64;
        }
        if p.qp.is_feasible(&x) {
            let obj = p.objective_at(&x);
            best = Some(best.map_or(obj, |o: f64| o.min(obj)));
        }
    }
    best
}

const CASES: usize = 24;

#[test]
fn bb_matches_brute_force_unconstrained() {
    let mut g = Gen::new(11);
    for _ in 0..CASES {
        let h = g.binary_hessian(5);
        let c = g.vec(5, -4.0, 4.0);
        let p = MiqpProblem::new(h, c, vec![VarKind::Binary; 5]);
        let sol = solve_miqp(&p, BbOptions::default());
        let oracle = brute_force(&p).unwrap();
        assert!(matches!(sol.status, ampsinf_solver::bb::BbStatus::Optimal));
        assert!(
            (sol.objective - oracle).abs() < 1e-5,
            "bb {} vs oracle {}",
            sol.objective,
            oracle
        );
    }
}

#[test]
fn bb_matches_brute_force_with_cardinality() {
    let mut g = Gen::new(12);
    for _ in 0..CASES {
        let h = g.binary_hessian(5);
        let c = g.vec(5, -4.0, 4.0);
        let k = g.int(1, 4);
        let mut p = MiqpProblem::new(h, c, vec![VarKind::Binary; 5]);
        p.add_le(vec![1.0; 5], k as f64);
        let sol = solve_miqp(&p, BbOptions::default());
        let oracle = brute_force(&p).unwrap();
        assert!((sol.objective - oracle).abs() < 1e-5);
    }
}

#[test]
fn bb_sos1_groups() {
    let mut g = Gen::new(13);
    for _ in 0..CASES {
        // Two pick-one groups of 3 — exactly the AMPS-Inf Eq. (1) structure.
        let h = g.binary_hessian(6);
        let c = g.vec(6, -4.0, 4.0);
        let mut p = MiqpProblem::new(h, c, vec![VarKind::Binary; 6]);
        p.add_pick_one(&[0, 1, 2]);
        p.add_pick_one(&[3, 4, 5]);
        let sol = solve_miqp(&p, BbOptions::default());
        let oracle = brute_force(&p).unwrap();
        assert!((sol.objective - oracle).abs() < 1e-5);
        // Solution respects the groups.
        let g1: f64 = sol.x[0] + sol.x[1] + sol.x[2];
        let g2: f64 = sol.x[3] + sol.x[4] + sol.x[5];
        assert!((g1 - 1.0).abs() < 1e-6 && (g2 - 1.0).abs() < 1e-6);
    }
}

#[test]
fn qp_kkt_stationarity_on_box() {
    let mut gen = Gen::new(14);
    for _ in 0..CASES {
        // Convex separable QP on [0,1]^5: projected-gradient optimality —
        // interior coordinates have zero gradient, boundary ones point out.
        let diag = gen.vec(5, 0.5, 4.0);
        let c = gen.vec(5, -4.0, 4.0);
        let h = Matrix::from_diag(&diag);
        let mut qp = QpProblem::new(h, c);
        qp.lb = vec![0.0; 5];
        qp.ub = vec![1.0; 5];
        let s = qp.solve();
        assert_eq!(s.status, QpStatus::Optimal);
        let mut g = qp.h.matvec(&s.x);
        vector::axpy(1.0, &qp.c, &mut g);
        for (i, (&xi, &gi)) in s.x.iter().zip(g.iter()).enumerate() {
            if xi > 1e-6 && xi < 1.0 - 1e-6 {
                assert!(gi.abs() < 1e-5, "interior grad {gi} at {i}");
            } else if xi <= 1e-6 {
                assert!(gi > -1e-5, "lower-bound grad {gi} at {i}");
            } else {
                assert!(gi < 1e-5, "upper-bound grad {gi} at {i}");
            }
        }
    }
}

#[test]
fn qp_simplex_relaxation_optimum_separable() {
    let mut g = Gen::new(15);
    for _ in 0..CASES {
        // min ½ Σ d_i x_i² on the simplex: optimum x_i ∝ 1/d_i.
        let diag = g.vec(4, 1.0, 4.0);
        let h = Matrix::from_diag(&diag);
        let mut qp = QpProblem::new(h, vec![0.0; 4]);
        qp.eq.push((vec![1.0; 4], 1.0));
        qp.lb = vec![0.0; 4];
        qp.ub = vec![1.0; 4];
        let s = qp.solve();
        assert_eq!(s.status, QpStatus::Optimal);
        let z: f64 = diag.iter().map(|d| 1.0 / d).sum();
        for (xi, di) in s.x.iter().zip(diag.iter()) {
            assert!((xi - (1.0 / di) / z).abs() < 1e-5);
        }
    }
}

#[test]
fn lp_optimal_is_feasible_and_bounded_by_any_point() {
    let mut g = Gen::new(16);
    for _ in 0..CASES {
        // min cᵀx (c > 0) with Σx ≥ b_k rows: optimum exists; every feasible
        // point we can construct scores no better.
        let c = g.vec(4, 0.1, 5.0);
        let b = g.vec(3, 1.0, 10.0);
        let mut lp = LpProblem::new(c.clone());
        for bk in &b {
            lp.add_row(vec![1.0; 4], Relation::Ge, *bk);
        }
        let s = lp.solve();
        assert_eq!(s.status, LpStatus::Optimal);
        // Feasible comparison point: put everything on coordinate 0.
        let need = b.iter().cloned().fold(0.0f64, f64::max);
        let manual = c[0] * need;
        assert!(s.objective <= manual + 1e-7);
        // And the optimum satisfies the rows.
        let sum: f64 = s.x.iter().sum();
        assert!(sum >= need - 1e-7);
    }
}

#[test]
fn lp_infeasible_when_bounds_conflict() {
    let mut g = Gen::new(17);
    for _ in 0..CASES {
        let ub = g.range(0.5, 5.0);
        let mut lp = LpProblem::new(vec![1.0]);
        lp.add_row(vec![1.0], Relation::Le, ub);
        lp.add_row(vec![1.0], Relation::Ge, ub + 1.0);
        assert_eq!(lp.solve().status, LpStatus::Infeasible);
    }
}

#[test]
fn bb_sos1_with_budget_row_matches_oracle() {
    let mut g = Gen::new(18);
    for _ in 0..CASES {
        // The AMPS-Inf SLO structure at solver level: two pick-one groups,
        // linear costs, and a budget row over "durations". Oracle:
        // exhaustive over the 9 feasible picks.
        let costs = g.vec(6, 0.1, 5.0);
        let times = g.vec(6, 0.1, 5.0);
        let slack = g.range(0.2, 1.0);
        let h = Matrix::zeros(6, 6);
        let mut p = MiqpProblem::new(h, costs.clone(), vec![VarKind::Binary; 6]);
        p.add_pick_one(&[0, 1, 2]);
        p.add_pick_one(&[3, 4, 5]);
        // Budget between the loosest and tightest achievable totals.
        let min_t = times[..3].iter().cloned().fold(f64::INFINITY, f64::min)
            + times[3..].iter().cloned().fold(f64::INFINITY, f64::min);
        let max_t = times[..3].iter().cloned().fold(0.0f64, f64::max)
            + times[3..].iter().cloned().fold(0.0f64, f64::max);
        let budget = min_t + slack * (max_t - min_t);
        p.add_le(times.clone(), budget);

        let mut oracle: Option<f64> = None;
        for a in 0..3 {
            for b in 3..6 {
                if times[a] + times[b] <= budget + 1e-12 {
                    let c = costs[a] + costs[b];
                    oracle = Some(oracle.map_or(c, |o: f64| o.min(c)));
                }
            }
        }
        let sol = solve_miqp(&p, BbOptions::default());
        let oracle = oracle.expect("budget chosen feasible");
        assert!(
            (sol.objective - oracle).abs() < 1e-6,
            "bb {} vs oracle {}",
            sol.objective,
            oracle
        );
    }
}

#[test]
fn bb_objective_invariant_under_qcr_method() {
    let mut g = Gen::new(19);
    for _ in 0..CASES {
        // Both convexification policies must land on the same optimum.
        let h = g.binary_hessian(5);
        let c = g.vec(5, -4.0, 4.0);
        let mut p1 = MiqpProblem::new(h.clone(), c.clone(), vec![VarKind::Binary; 5]);
        p1.add_le(vec![1.0; 5], 3.0);
        let mut p2 = p1.clone();
        p2.qp = p1.qp.clone();
        let s1 = solve_miqp(
            &p1,
            BbOptions {
                convexify: ampsinf_solver::ConvexifyMethod::EigenShift,
                ..Default::default()
            },
        );
        let s2 = solve_miqp(
            &p2,
            BbOptions {
                convexify: ampsinf_solver::ConvexifyMethod::DualRefine,
                ..Default::default()
            },
        );
        assert!(
            (s1.objective - s2.objective).abs() < 1e-5,
            "eig {} vs refine {}",
            s1.objective,
            s2.objective
        );
    }
}

/// A random pick-one instance: 2–10 groups of 1–12 items, sized so the
/// brute-force oracle stays under ~200k picks. `integral` draws small
/// integers (exact sums and frequent ties) instead of reals.
fn knapsack_instance(g: &mut Gen, integral: bool) -> Vec<Vec<Item>> {
    let groups = g.index(2, 10);
    let mut picks = 1usize;
    (0..groups)
        .map(|_| {
            let cols = g.index(1, 12).min(200_000 / picks);
            picks *= cols;
            (0..cols)
                .map(|_| {
                    let (seconds, dollars) = if integral {
                        (g.index(0, 6) as f64, g.index(0, 6) as f64)
                    } else {
                        (0.1 + 9.9 * g.uniform(), 1e-5 + 1e-3 * g.uniform())
                    };
                    Item { seconds, dollars }
                })
                .collect()
        })
        .collect()
}

/// Brute-force oracle: every pick in lexicographic order, sums added left
/// to right from 0.0, keeping the first of the cheapest, then fastest.
fn knapsack_brute_force(groups: &[Vec<Item>], limit: f64) -> Option<Pick> {
    let mut choice = vec![0usize; groups.len()];
    let mut best: Option<Pick> = None;
    loop {
        let (mut seconds, mut dollars) = (0.0, 0.0);
        for (items, &j) in groups.iter().zip(&choice) {
            seconds += items[j].seconds;
            dollars += items[j].dollars;
        }
        let better = best
            .as_ref()
            .is_none_or(|b| dollars < b.dollars || (dollars == b.dollars && seconds < b.seconds));
        if seconds <= limit && better {
            best = Some(Pick {
                choice: choice.clone(),
                seconds,
                dollars,
            });
        }
        // Odometer, last group fastest: lexicographic order.
        let mut k = groups.len();
        loop {
            if k == 0 {
                return best;
            }
            k -= 1;
            choice[k] += 1;
            if choice[k] < groups[k].len() {
                break;
            }
            choice[k] = 0;
        }
    }
}

/// Seconds range `(fastest, slowest)` of an instance's picks.
fn seconds_range(groups: &[Vec<Item>]) -> (f64, f64) {
    groups.iter().fold((0.0, 0.0), |(lo, hi), items| {
        let s = items.iter().map(|it| it.seconds);
        (
            lo + s.clone().fold(f64::INFINITY, f64::min),
            hi + s.fold(0.0, f64::max),
        )
    })
}

#[test]
fn knapsack_matches_brute_force_bitwise() {
    let mut g = Gen::new(21);
    let (mut feasible, mut infeasible) = (0, 0);
    for case in 0..120 {
        let integral = case % 3 == 0;
        let groups = knapsack_instance(&mut g, integral);
        let (lo, hi) = seconds_range(&groups);
        // Mostly binding limits, some slack, some below the fastest pick.
        let limit = match case % 5 {
            0 => lo - 0.5,
            1 => hi + 1.0,
            _ if integral => (lo + g.uniform() * (hi - lo)).round(),
            _ => lo + g.uniform() * (hi - lo),
        };
        let got = knapsack::solve(&groups, limit);
        let want = knapsack_brute_force(&groups, limit);
        match (&got, &want) {
            (Some(a), Some(b)) => {
                feasible += 1;
                assert_eq!(a.choice, b.choice, "case {case}: choice");
                assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "case {case}");
                assert_eq!(a.dollars.to_bits(), b.dollars.to_bits(), "case {case}");
                let lp = knapsack::lp_bound(&groups, limit).expect("a pick fits");
                assert!(lp <= a.dollars, "case {case}: lp {lp} above {}", a.dollars);
            }
            (None, None) => infeasible += 1,
            _ => panic!("case {case}: knapsack {got:?} vs brute force {want:?}"),
        }
    }
    assert!(
        feasible >= 60 && infeasible >= 20,
        "{feasible}/{infeasible}"
    );
}

#[test]
fn knapsack_lp_bound_is_tight_without_binding_limit_and_none_when_infeasible() {
    let mut g = Gen::new(22);
    for _ in 0..CASES {
        let groups = knapsack_instance(&mut g, false);
        let (lo, hi) = seconds_range(&groups);
        let slack = knapsack::solve(&groups, hi).expect("every pick fits");
        let lp = knapsack::lp_bound(&groups, hi).unwrap();
        assert!(lp <= slack.dollars && slack.dollars - lp < 1e-12);
        assert!(knapsack::lp_bound(&groups, lo * (1.0 - 1e-6)).is_none());
        assert!(knapsack::solve(&groups, lo * (1.0 - 1e-6)).is_none());
    }
}

/// The instance with seconds and dollars swapped: [`knapsack::solve`] on
/// it finds the fastest pick within a dollar budget.
fn swapped(groups: &[Vec<Item>]) -> Vec<Vec<Item>> {
    groups
        .iter()
        .map(|items| {
            items
                .iter()
                .map(|it| Item {
                    seconds: it.dollars,
                    dollars: it.seconds,
                })
                .collect()
        })
        .collect()
}

#[test]
fn knapsack_swapped_breaks_equal_seconds_toward_fewer_dollars() {
    let item = |seconds, dollars| Item { seconds, dollars };
    // Within $4 the fastest picks take 3 s: (0, 1) for $4 and (1, 0) for
    // $3. The cheaper one wins although its choice vector is larger.
    let groups = [
        vec![item(1.0, 3.0), item(2.0, 1.0)],
        vec![item(1.0, 2.0), item(2.0, 1.0)],
    ];
    let pick = knapsack::solve(&swapped(&groups), 4.0).unwrap();
    assert_eq!(pick.choice, vec![1, 0]);
    assert_eq!((pick.dollars, pick.seconds), (3.0, 3.0));
    // Small integers tie often: against the oracle, fewest seconds within
    // the budget, then fewest dollars, then the smaller choice vector.
    let mut g = Gen::new(23);
    let mut feasible = 0;
    for case in 0..60 {
        let groups = swapped(&knapsack_instance(&mut g, true));
        let (lo, hi) = seconds_range(&groups);
        let budget = (lo + g.uniform() * (hi - lo)).round();
        let got = knapsack::solve(&groups, budget);
        assert_eq!(got, knapsack_brute_force(&groups, budget), "case {case}");
        feasible += usize::from(got.is_some());
    }
    assert!(feasible >= 40, "only {feasible} feasible cases");
}
