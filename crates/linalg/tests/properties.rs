//! Property-style tests for the dense linear-algebra kernels, driven by a
//! deterministic PRNG (no external property-testing dependency).

use ampsinf_linalg::{vector, Cholesky, Lu, Matrix, SymmetricEigen};

/// Deterministic LCG over `[-1, 1]` entries.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed)
    }

    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as f64 / u32::MAX as f64) * 2.0 - 1.0
    }

    fn vec(&mut self, n: usize, scale: f64) -> Vec<f64> {
        (0..n).map(|_| self.next_f64() * scale).collect()
    }

    /// A well-conditioned square matrix: R + (n+1)·I with R in [-1, 1]
    /// (diagonal dominance keeps all factorizations stable).
    fn well_conditioned(&mut self, n: usize) -> Matrix {
        let mut m = Matrix::from_vec(n, n, self.vec(n * n, 1.0));
        m.shift_diagonal(n as f64 + 1.0);
        m
    }

    /// A symmetric positive-definite matrix, as AᵀA + I.
    fn spd(&mut self, n: usize) -> Matrix {
        let a = Matrix::from_vec(n, n, self.vec(n * n, 1.0));
        let mut g = a.transpose().matmul(&a).unwrap();
        g.shift_diagonal(1.0);
        g
    }

    /// Any symmetric matrix (possibly indefinite).
    fn symmetric(&mut self, n: usize) -> Matrix {
        let mut m = Matrix::from_vec(n, n, self.vec(n * n, 1.0));
        m.symmetrize();
        m
    }
}

const CASES: usize = 32;

#[test]
fn lu_solve_has_small_residual() {
    let mut g = Gen::new(1);
    for _ in 0..CASES {
        let a = g.well_conditioned(6);
        let b = g.vec(6, 10.0);
        let x = Lu::factor(&a).unwrap().solve(&b);
        let r = a.matvec(&x);
        assert!(vector::dist_inf(&r, &b) < 1e-8);
    }
}

#[test]
fn cholesky_solve_matches_lu() {
    let mut g = Gen::new(2);
    for _ in 0..CASES {
        let a = g.spd(5);
        let b = g.vec(5, 10.0);
        let x_ch = Cholesky::factor(&a).unwrap().solve(&b);
        let x_lu = Lu::factor(&a).unwrap().solve(&b);
        assert!(vector::dist_inf(&x_ch, &x_lu) < 1e-7);
    }
}

#[test]
fn eigen_trace_identity() {
    let mut g = Gen::new(5);
    for _ in 0..CASES {
        let a = g.symmetric(5);
        let e = SymmetricEigen::factor(&a).unwrap();
        let trace: f64 = (0..5).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-9);
    }
}

#[test]
fn eigen_shift_certifies_convexity() {
    // The QCR contract: shifting by -λmin + ε always yields SPD.
    let mut g = Gen::new(6);
    for _ in 0..CASES {
        let a = g.symmetric(5);
        let lam = SymmetricEigen::min_eigenvalue(&a).unwrap();
        let mut shifted = a.clone();
        shifted.shift_diagonal(-lam + 1e-6);
        assert!(Cholesky::is_spd(&shifted));
    }
}

#[test]
fn quad_form_matches_eigen_bounds() {
    // Rayleigh quotient bounded by extreme eigenvalues.
    let mut g = Gen::new(7);
    for _ in 0..CASES {
        let a = g.symmetric(4);
        let x = g.vec(4, 1.0);
        let e = SymmetricEigen::factor(&a).unwrap();
        let xtx = vector::dot(&x, &x);
        let q = a.quad_form(&x);
        assert!(q >= e.values[0] * xtx - 1e-9);
        assert!(q <= e.values[3] * xtx + 1e-9);
    }
}

#[test]
fn matmul_associative() {
    let mut g = Gen::new(8);
    for _ in 0..CASES {
        let ma = Matrix::from_vec(3, 3, g.vec(9, 1.0));
        let mb = Matrix::from_vec(3, 3, g.vec(9, 1.0));
        let x = g.vec(3, 1.0);
        let lhs = ma.matmul(&mb).unwrap().matvec(&x);
        let rhs = ma.matvec(&mb.matvec(&x));
        assert!(vector::dist_inf(&lhs, &rhs) < 1e-10);
    }
}

#[test]
fn transpose_matvec_consistency() {
    let mut g = Gen::new(9);
    for _ in 0..CASES {
        let m = Matrix::from_vec(3, 4, g.vec(12, 1.0)); // 3x4
        let x = g.vec(3, 1.0);
        let lhs = m.matvec_t(&x); // 4
        let rhs = m.transpose().matvec(&x);
        assert!(vector::dist_inf(&lhs, &rhs) < 1e-12);
    }
}

#[test]
fn lu_det_sign_consistent_with_cholesky() {
    // SPD determinants are positive under both factorizations.
    let mut g = Gen::new(10);
    for _ in 0..CASES {
        let a = g.spd(4);
        let d_lu = Lu::factor(&a).unwrap().det();
        let d_ch = Cholesky::factor(&a).unwrap().det();
        assert!(d_lu > 0.0);
        assert!((d_lu - d_ch).abs() <= 1e-6 * d_lu.abs().max(1.0));
    }
}
