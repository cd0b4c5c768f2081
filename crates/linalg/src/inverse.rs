//! Matrix inversion and linear solves via partially-pivoted LU.
//!
//! Used by the zero-forcing receiver (`H⁻¹` / pseudo-inverse), the MMSE
//! filter (`(H*H + σ²I)⁻¹H*`), and the Λ channel metric
//! (`[(H*H)⁻¹]_kk`, paper §5.1).

use crate::complex::Complex;
use crate::matrix::Matrix;

/// Error type for singular or non-square systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix was singular to working precision.
    Singular,
    /// An operation requiring a square matrix received a rectangular one.
    NotSquare,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::NotSquare => write!(f, "operation requires a square matrix"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// LU decomposition with partial pivoting: `P A = L U`.
#[derive(Clone, Debug)]
pub struct Lu {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: Matrix,
    /// Row permutation: `pivots[k]` = original row in position `k`.
    pivots: Vec<usize>,
}

/// Factors a square matrix.
pub fn lu_decompose(a: &Matrix) -> Result<Lu, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare);
    }
    let n = a.rows();
    let mut lu = a.clone();
    let mut pivots: Vec<usize> = (0..n).collect();

    for k in 0..n {
        // Partial pivot: largest |entry| in column k at or below the diagonal.
        let (pivot_row, pivot_mag) =
            (k..n).map(|r| (r, lu[(r, k)].abs())).max_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        if pivot_mag < 1e-14 {
            return Err(LinalgError::Singular);
        }
        if pivot_row != k {
            lu = lu.with_swapped_rows(pivot_row, k);
            pivots.swap(pivot_row, k);
        }
        let inv_pivot = lu[(k, k)].inv();
        for r in (k + 1)..n {
            let factor = lu[(r, k)] * inv_pivot;
            lu[(r, k)] = factor;
            for c in (k + 1)..n {
                let delta = factor * lu[(k, c)];
                lu[(r, c)] -= delta;
            }
        }
    }
    Ok(Lu { lu, pivots })
}

impl Lu {
    /// Solves `A x = b` for one right-hand side.
    pub fn solve(&self, b: &[Complex]) -> Vec<Complex> {
        let n = self.lu.rows();
        assert_eq!(b.len(), n);
        // Apply permutation.
        let mut x: Vec<Complex> = self.pivots.iter().map(|&p| b[p]).collect();
        // Forward substitution (L has unit diagonal).
        for r in 1..n {
            for c in 0..r {
                let delta = self.lu[(r, c)] * x[c];
                x[r] -= delta;
            }
        }
        // Back substitution.
        for r in (0..n).rev() {
            for c in (r + 1)..n {
                let delta = self.lu[(r, c)] * x[c];
                x[r] -= delta;
            }
            x[r] /= self.lu[(r, r)];
        }
        x
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> Complex {
        let n = self.lu.rows();
        // Sign of the permutation.
        let mut seen = vec![false; n];
        let mut sign = 1.0;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut len = 0;
            let mut i = start;
            while !seen[i] {
                seen[i] = true;
                i = self.pivots[i];
                len += 1;
            }
            if len % 2 == 0 {
                sign = -sign;
            }
        }
        let mut det = Complex::real(sign);
        for k in 0..n {
            det *= self.lu[(k, k)];
        }
        det
    }
}

/// Inverts a square matrix.
pub fn invert(a: &Matrix) -> Result<Matrix, LinalgError> {
    let lu = lu_decompose(a)?;
    let n = a.rows();
    let mut inv = Matrix::zeros(n, n);
    for c in 0..n {
        let mut e = vec![Complex::ZERO; n];
        e[c] = Complex::ONE;
        let col = lu.solve(&e);
        for r in 0..n {
            inv[(r, c)] = col[r];
        }
    }
    Ok(inv)
}

/// Moore–Penrose pseudo-inverse for full-column-rank `m × n` matrices
/// (`m ≥ n`): `H⁺ = (H*H)⁻¹ H*`.
///
/// This is the zero-forcing filter when the AP has more antennas than there
/// are streams.
pub fn pseudo_inverse(h: &Matrix) -> Result<Matrix, LinalgError> {
    let gram = h.gram();
    let gram_inv = invert(&gram)?;
    Ok(gram_inv.mul_mat(&h.hermitian()))
}

/// Solves the regularized system used by MMSE: `(H*H + λI)⁻¹ H*`.
pub fn regularized_pseudo_inverse(h: &Matrix, lambda: f64) -> Result<Matrix, LinalgError> {
    let n = h.cols();
    let mut gram = h.gram();
    for k in 0..n {
        gram[(k, k)] += Complex::real(lambda);
    }
    let gram_inv = invert(&gram)?;
    Ok(gram_inv.mul_mat(&h.hermitian()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |_, _| {
            Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        })
    }

    #[test]
    fn nan_entry_returns_without_panicking() {
        // The pivot search, the sorted-QR column order and the singular
        // value sort compare magnitudes with `total_cmp`: a non-finite
        // entry gives a non-finite result, never a panic.
        let mut a = Matrix::identity(3);
        a[(1, 1)] = Complex::new(f64::NAN, 0.0);
        let _ = lu_decompose(&a);
        let _ = regularized_pseudo_inverse(&a, 0.1);
        let _ = crate::sorted_qr_decompose(&a);
        assert_eq!(crate::singular_values(&a).len(), 3);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let mut rng = StdRng::seed_from_u64(21);
        for n in 1..=8 {
            let a = random_matrix(&mut rng, n, n);
            let inv = invert(&a).expect("random matrices are a.s. nonsingular");
            assert!(inv.mul_mat(&a).max_abs_diff(&Matrix::identity(n)) < 1e-9, "n = {n}");
            assert!(a.mul_mat(&inv).max_abs_diff(&Matrix::identity(n)) < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn solve_matches_mul() {
        let mut rng = StdRng::seed_from_u64(22);
        let a = random_matrix(&mut rng, 5, 5);
        let x: Vec<Complex> = (0..5)
            .map(|_| Complex::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)))
            .collect();
        let b = a.mul_vec(&x);
        let lu = lu_decompose(&a).unwrap();
        let x2 = lu.solve(&b);
        for (u, v) in x.iter().zip(&x2) {
            assert!((*u - *v).abs() < 1e-9);
        }
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(
            2,
            2,
            &[Complex::real(1.0), Complex::real(2.0), Complex::real(2.0), Complex::real(4.0)],
        );
        assert_eq!(invert(&a).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn not_square_detected() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(invert(&a).unwrap_err(), LinalgError::NotSquare);
    }

    #[test]
    fn det_of_diagonal() {
        let mut a = Matrix::identity(3);
        a[(0, 0)] = Complex::real(2.0);
        a[(1, 1)] = Complex::real(3.0);
        a[(2, 2)] = Complex::new(0.0, 1.0);
        let lu = lu_decompose(&a).unwrap();
        assert!((lu.det() - Complex::new(0.0, 6.0)).abs() < 1e-12);
    }

    #[test]
    fn det_sign_under_row_swap() {
        // A matrix needing pivoting: the permutation sign must be tracked.
        let a = Matrix::from_rows(
            2,
            2,
            &[Complex::ZERO, Complex::real(1.0), Complex::real(1.0), Complex::ZERO],
        );
        let lu = lu_decompose(&a).unwrap();
        assert!((lu.det() - Complex::real(-1.0)).abs() < 1e-12);
    }

    #[test]
    fn pseudo_inverse_is_left_inverse() {
        let mut rng = StdRng::seed_from_u64(23);
        let h = random_matrix(&mut rng, 6, 3);
        let pinv = pseudo_inverse(&h).unwrap();
        assert!(pinv.mul_mat(&h).max_abs_diff(&Matrix::identity(3)) < 1e-9);
    }

    #[test]
    fn regularized_pinv_approaches_pinv_as_lambda_to_zero() {
        let mut rng = StdRng::seed_from_u64(24);
        let h = random_matrix(&mut rng, 4, 4);
        let pinv = pseudo_inverse(&h).unwrap();
        let reg = regularized_pseudo_inverse(&h, 1e-12).unwrap();
        assert!(pinv.max_abs_diff(&reg) < 1e-6);
    }
}
