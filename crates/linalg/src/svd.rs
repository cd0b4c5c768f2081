//! Singular values and condition numbers via one-sided Jacobi iteration.
//!
//! The paper's channel characterization (§5.1) rests on the condition number
//! `κ(H) = σ_max / σ_min`, reported as `κ²` in decibels (Fig. 9). MIMO
//! channel matrices here are at most ~10×10, where one-sided Jacobi is
//! simple, numerically robust, and plenty fast.

use crate::complex::Complex;
use crate::matrix::Matrix;

/// Singular values of `a`, sorted descending. All values are ≥ 0.
///
/// Uses one-sided Jacobi: unitary plane rotations are applied on the right
/// until all column pairs are orthogonal; the singular values are then the
/// column norms. Works for any `m × n` with `m ≥ n`; for `m < n` the
/// transpose is factored instead (singular values are shared).
pub fn singular_values(a: &Matrix) -> Vec<f64> {
    let work = if a.rows() >= a.cols() { a.clone() } else { a.hermitian() };
    one_sided_jacobi(work)
}

fn one_sided_jacobi(mut u: Matrix) -> Vec<f64> {
    let n = u.cols();
    let m = u.rows();
    let max_sweeps = 60;
    let tol = 1e-14;

    for _sweep in 0..max_sweeps {
        let mut off = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                // Gram entries for the (i, j) column pair.
                let mut aii = 0.0;
                let mut ajj = 0.0;
                let mut aij = Complex::ZERO;
                for r in 0..m {
                    let ci = u[(r, i)];
                    let cj = u[(r, j)];
                    aii += ci.norm_sqr();
                    ajj += cj.norm_sqr();
                    aij += ci.conj() * cj;
                }
                let denom = (aii * ajj).sqrt();
                if denom <= 0.0 || aij.abs() <= tol * denom {
                    continue;
                }
                off = off.max(aij.abs() / denom);

                // Phase-align: multiply column j by conj(phase(aij)) so the
                // cross term becomes real, then do a real Jacobi rotation.
                let phase = aij / aij.abs();
                let g = aij.abs();
                let tau = (ajj - aii) / (2.0 * g);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;

                for r in 0..m {
                    let ci = u[(r, i)];
                    let cj = u[(r, j)] * phase.conj();
                    u[(r, i)] = ci.scale(c) - cj.scale(s);
                    u[(r, j)] = (ci.scale(s) + cj.scale(c)) * phase;
                }
            }
        }
        if off < 1e-12 {
            break;
        }
    }

    let mut sv: Vec<f64> =
        (0..n).map(|c| (0..m).map(|r| u[(r, c)].norm_sqr()).sum::<f64>().sqrt()).collect();
    sv.sort_by(|a, b| b.total_cmp(a));
    sv
}

/// 2-norm condition number `κ(A) = σ_max / σ_min`.
///
/// Returns `f64::INFINITY` when the smallest singular value is zero to
/// working precision.
pub fn condition_number(a: &Matrix) -> f64 {
    let sv = singular_values(a);
    let smax = sv.first().copied().unwrap_or(0.0);
    let smin = sv.last().copied().unwrap_or(0.0);
    if smin < 1e-300 {
        f64::INFINITY
    } else {
        smax / smin
    }
}

/// `κ²(A)` in decibels: `10·log10(κ²) = 20·log10(κ)` — the exact quantity on
/// the x-axis of the paper's Figure 9.
pub fn condition_number_sqr_db(a: &Matrix) -> f64 {
    20.0 * condition_number(a).log10()
}

/// Spectral (2-) norm: the largest singular value.
pub fn spectral_norm(a: &Matrix) -> f64 {
    singular_values(a).first().copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qr::qr_decompose;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |_, _| {
            Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        })
    }

    #[test]
    fn identity_has_unit_singular_values() {
        let sv = singular_values(&Matrix::identity(4));
        for s in sv {
            assert!((s - 1.0).abs() < 1e-10);
        }
        assert!((condition_number(&Matrix::identity(4)) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn diagonal_matrix_singular_values() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = Complex::real(3.0);
        a[(1, 1)] = Complex::new(0.0, -5.0); // magnitude 5
        a[(2, 2)] = Complex::real(1.0);
        let sv = singular_values(&a);
        assert!((sv[0] - 5.0).abs() < 1e-10);
        assert!((sv[1] - 3.0).abs() < 1e-10);
        assert!((sv[2] - 1.0).abs() < 1e-10);
        assert!((condition_number(&a) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn frobenius_matches_singular_value_energy() {
        let mut rng = StdRng::seed_from_u64(31);
        for &(m, n) in &[(4, 4), (6, 3), (3, 6), (10, 10)] {
            let a = random_matrix(&mut rng, m, n);
            let sv = singular_values(&a);
            let energy: f64 = sv.iter().map(|s| s * s).sum();
            assert!(
                (energy - a.frobenius_norm_sqr()).abs() < 1e-8 * energy.max(1.0),
                "{m}x{n}: {energy} vs {}",
                a.frobenius_norm_sqr()
            );
        }
    }

    #[test]
    fn unitary_factor_does_not_change_singular_values() {
        let mut rng = StdRng::seed_from_u64(32);
        let a = random_matrix(&mut rng, 4, 4);
        let q = qr_decompose(&random_matrix(&mut rng, 4, 4)).q;
        let qa = q.mul_mat(&a);
        let sv_a = singular_values(&a);
        let sv_qa = singular_values(&qa);
        for (x, y) in sv_a.iter().zip(&sv_qa) {
            assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn singular_matrix_infinite_condition() {
        let a = Matrix::from_rows(
            2,
            2,
            &[Complex::real(1.0), Complex::real(2.0), Complex::real(2.0), Complex::real(4.0)],
        );
        assert!(condition_number(&a).is_infinite());
    }

    #[test]
    fn kappa_sqr_db_of_known_matrix() {
        // diag(10, 1): kappa = 10, kappa^2 = 100 => 20 dB.
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = Complex::real(10.0);
        a[(1, 1)] = Complex::real(1.0);
        assert!((condition_number_sqr_db(&a) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn condition_always_at_least_one() {
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..50 {
            let a = random_matrix(&mut rng, 4, 4);
            assert!(condition_number(&a) >= 1.0 - 1e-12);
        }
    }

    #[test]
    fn svd_invariant_under_transpose() {
        let mut rng = StdRng::seed_from_u64(34);
        let a = random_matrix(&mut rng, 5, 3);
        let sv1 = singular_values(&a);
        let sv2 = singular_values(&a.hermitian());
        for (x, y) in sv1.iter().zip(&sv2) {
            assert!((x - y).abs() < 1e-9);
        }
    }
}
