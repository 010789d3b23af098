//! From-scratch optimization stack for AMPS-Inf.
//!
//! The paper (§3) reduces cost-minimal model partitioning + resource
//! provisioning to a Mixed-Integer Quadratic Program and notes that "any
//! MIQP solver such as Gurobi, CPLEX, etc." can be used; the authors used
//! CVXPY. None of those are available here, so this crate implements the
//! whole chain from scratch, sized for AMPS-Inf's problem scale (tens to a
//! few hundred variables):
//!
//! * [`lp`] — dense two-phase primal simplex (feasibility/phase-1 engine and
//!   linear-objective fallback);
//! * [`qp`] — primal active-set solver for convex quadratic programs with
//!   equality rows, inequality rows and box bounds (Nocedal & Wright,
//!   Alg. 16.3);
//! * [`qcr`] — the paper's Quadratic Convex Reformulation step (Eq. 22–23,
//!   after Billionnet–Elloumi–Plateau): a diagonal perturbation
//!   `Σ μ_j (x_j² − x_j)` that vanishes on binaries but convexifies the
//!   continuous relaxation. The SDP that yields the optimal `μ*` is
//!   approximated by an eigenvalue shift plus coordinate refinement (see
//!   module docs and DESIGN.md §1);
//! * [`bb`] — best-first branch-and-bound over the convexified relaxations,
//!   exact for the problem sizes AMPS-Inf produces;
//! * [`knapsack`] — the per-cut MIQP in its native form, a pick-one
//!   knapsack with one constraint, solved exactly by a Pareto dynamic
//!   program with an LP-relaxation lower bound. The planner solves its
//!   per-cut problems here; [`bb`] and [`qcr`] are the reference it is
//!   tested against;
//! * [`problem`] — the `MiqpProblem` builder shared by all of the above.
//!
//! # Example: a pick-one memory choice as a tiny MIQP
//!
//! ```
//! use ampsinf_linalg::Matrix;
//! use ampsinf_solver::bb::{solve_miqp, BbStatus};
//! use ampsinf_solver::{BbOptions, MiqpProblem, VarKind};
//!
//! // Three mutually exclusive options with quadratic + linear cost.
//! let h = Matrix::from_diag(&[2.0, 6.0, 4.0]);
//! let mut p = MiqpProblem::new(h, vec![0.5, 0.1, 0.2], vec![VarKind::Binary; 3]);
//! p.add_pick_one(&[0, 1, 2]);
//!
//! let sol = solve_miqp(&p, BbOptions::default());
//! assert_eq!(sol.status, BbStatus::Optimal);
//! // Option 0 wins: ½·2 + 0.5 = 1.5 vs 3.1 and 2.2.
//! assert_eq!(sol.x[0], 1.0);
//! assert!((sol.objective - 1.5).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
// Indexed loops are the clearest idiom for the dense numerical kernels
// here (simultaneous row/column index arithmetic); the iterator forms
// clippy suggests obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod bb;
pub mod knapsack;
pub mod lp;
pub mod problem;
pub mod qcr;
pub mod qp;

pub use bb::{BbOptions, BbSolution, BbStats, BranchAndBound};
pub use lp::{LpProblem, LpSolution, LpStatus, Relation};
pub use problem::{MiqpProblem, VarKind};
pub use qcr::{convexify, Convexified, ConvexifyMethod};
pub use qp::{QpProblem, QpSolution, QpStatus, QpWorkspace};

/// Solver-wide numerical tolerance for feasibility checks.
pub const FEAS_TOL: f64 = 1e-7;
/// Solver-wide tolerance for integrality checks.
pub const INT_TOL: f64 = 1e-6;
