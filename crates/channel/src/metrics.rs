//! Channel-conditioning metrics (paper §5.1).
//!
//! Two figures of merit characterize how much throughput zero-forcing
//! leaves on the table:
//!
//! - `κ²(H)` in dB — the squared condition number, "a good upper-bound on
//!   the actual noise amplification due to zero-forcing" (Fig. 9);
//! - `λ_k = [H*H]_kk · [(H*H)⁻¹]_kk` — the SNR degradation of stream `k`
//!   under zero-forcing, and `Λ = max_k λ_k`, the worst degradation any
//!   user experiences (Fig. 10).

use gs_linalg::{condition_number_sqr_db, invert, Matrix};

/// `κ²(H)` in decibels (the x-axis of Fig. 9).
pub fn kappa_sqr_db(h: &Matrix) -> f64 {
    condition_number_sqr_db(h)
}

/// Per-stream zero-forcing SNR degradation `λ_k` (linear).
///
/// The SNR of stream `k` over the raw channel is `[H*H]_kk / 2σ²`; after
/// zero-forcing it is `1 / ([(H*H)⁻¹]_kk · 2σ²)`. The ratio is independent
/// of the noise power. Returns `f64::INFINITY` per stream when `H*H` is
/// singular.
pub fn zf_snr_degradation(h: &Matrix) -> Vec<f64> {
    let gram = h.gram();
    let nc = gram.rows();
    match invert(&gram) {
        Ok(inv) => (0..nc).map(|k| (gram[(k, k)].re * inv[(k, k)].re).max(1.0)).collect(),
        Err(_) => vec![f64::INFINITY; nc],
    }
}

/// `Λ` — the worst per-stream ZF SNR degradation, linear.
pub fn lambda_max(h: &Matrix) -> f64 {
    zf_snr_degradation(h).into_iter().fold(1.0, f64::max)
}

/// `Λ` in decibels (the x-axis of Fig. 10).
pub fn lambda_max_db(h: &Matrix) -> f64 {
    10.0 * lambda_max(h).log10()
}

/// An empirical CDF over a set of sample values.
#[derive(Clone, Debug)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds the CDF from raw samples (non-finite samples are clamped to
    /// a large sentinel so "singular channel" still counts as the worst
    /// case rather than vanishing).
    pub fn new(mut samples: Vec<f64>) -> Self {
        const SENTINEL: f64 = 1e9;
        for s in samples.iter_mut() {
            if !s.is_finite() {
                *s = SENTINEL;
            }
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X ≤ x)`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// `P(X > x)` — e.g. "fraction of links with κ² above 10 dB".
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_or_below(x)
    }

    /// The `p`-quantile (`0 ≤ p ≤ 1`), by linear interpolation.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile requires p in [0,1]");
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let pos = p * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Samples the CDF curve at `n` evenly spaced probabilities, returning
    /// `(value, probability)` pairs — ready to print as a figure series.
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|k| {
                let p = (k as f64 + 0.5) / n as f64;
                (self.quantile(p), p)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_linalg::Complex;

    #[test]
    fn nan_samples_build_a_cdf_without_panicking() {
        let cdf = Cdf::new(vec![2.0, f64::NAN, -1.0, f64::INFINITY]);
        assert_eq!(cdf.len(), 4);
    }

    #[test]
    fn identity_channel_has_no_degradation() {
        let h = Matrix::identity(4);
        assert!(kappa_sqr_db(&h).abs() < 1e-9);
        assert!((lambda_max(&h) - 1.0).abs() < 1e-9);
        assert!(lambda_max_db(&h).abs() < 1e-9);
    }

    #[test]
    fn orthogonal_columns_no_degradation() {
        // Unitary-scaled matrix: ZF is lossless.
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let h = Matrix::from_rows(
            2,
            2,
            &[Complex::real(s), Complex::real(s), Complex::real(s), Complex::real(-s)],
        );
        assert!((lambda_max(&h) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn correlated_columns_degrade() {
        // Nearly parallel columns: large kappa and Lambda.
        let h = Matrix::from_rows(
            2,
            2,
            &[Complex::real(1.0), Complex::real(0.99), Complex::real(1.0), Complex::real(1.0)],
        );
        assert!(kappa_sqr_db(&h) > 30.0);
        assert!(lambda_max_db(&h) > 20.0);
    }

    #[test]
    fn lambda_at_least_one() {
        // lambda_k >= 1 always (ZF cannot improve SNR).
        let h = Matrix::from_rows(
            2,
            2,
            &[
                Complex::new(0.3, -0.4),
                Complex::new(1.2, 0.1),
                Complex::new(-0.7, 0.9),
                Complex::new(0.2, 0.2),
            ],
        );
        for l in zf_snr_degradation(&h) {
            assert!(l >= 1.0);
        }
    }

    #[test]
    fn singular_channel_infinite_lambda() {
        let h = Matrix::from_rows(
            2,
            2,
            &[Complex::real(1.0), Complex::real(1.0), Complex::real(1.0), Complex::real(1.0)],
        );
        assert!(lambda_max(&h).is_infinite());
    }

    #[test]
    fn cdf_basics() {
        let cdf = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.len(), 4);
        assert!((cdf.fraction_at_or_below(2.0) - 0.5).abs() < 1e-12);
        assert!((cdf.fraction_above(3.5) - 0.25).abs() < 1e-12);
        assert!((cdf.quantile(0.0) - 1.0).abs() < 1e-12);
        assert!((cdf.quantile(1.0) - 4.0).abs() < 1e-12);
        assert!((cdf.quantile(0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_handles_non_finite() {
        let cdf = Cdf::new(vec![1.0, f64::INFINITY, 2.0]);
        assert_eq!(cdf.len(), 3);
        assert!(cdf.quantile(1.0) > 1e8);
    }

    #[test]
    fn cdf_curve_is_monotone() {
        let cdf = Cdf::new((0..100).map(|k| ((k * 37) % 100) as f64).collect());
        let curve = cdf.curve(20);
        for w in curve.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
    }
}
