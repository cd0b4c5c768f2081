//! Downlink vector-perturbation (sphere-encoder) precoding — §6.3.
//!
//! "In the downlink, sphere decoder-based techniques can be used at the
//! transmitter in lieu of zero-forcing based precoding; this is known as
//! sphere encoder precoding … since Geosphere's techniques are
//! receiver-based, Geosphere is complementary to precoding."
//!
//! The Hochwald–Peel–Swindlehurst scheme: instead of transmitting the
//! channel inversion `H⁺s` (whose power blows up on ill-conditioned
//! channels exactly like uplink ZF noise), the AP transmits
//! `x = H⁺(s + τ·l)` for the complex-integer perturbation `l` minimizing
//! `‖x‖²`. Finding `l` is a closest-lattice-point search — solved here by
//! the same depth-first, zigzag-ordered, radius-pruned machinery as the
//! uplink decoder. Each receiver simply reduces its scalar observation
//! modulo `τ` and slices.

use crate::stats::DetectorStats;
use gs_linalg::{qr_decompose, Complex, LinalgError, Matrix};
use gs_modulation::{Constellation, GridPoint};

/// Result of precoding one symbol vector.
#[derive(Clone, Debug)]
pub struct Precoded {
    /// The antenna-domain transmit vector `x = H⁺(s + τ·l)`.
    pub x: Vec<Complex>,
    /// Transmit power `γ = ‖x‖²` (receivers need `√γ` for scaling; in a
    /// real system it is signalled once per channel coherence interval).
    pub gamma: f64,
    /// The chosen perturbation vector.
    pub perturbation: Vec<Complex>,
    /// Search statistics.
    pub stats: DetectorStats,
}

/// The vector-perturbation precoder.
#[derive(Clone, Debug)]
pub struct VectorPerturbationPrecoder {
    /// The modulo base `τ = 2·m` (grid spacing 2, `m` levels per axis):
    /// the smallest shift that maps the constellation onto itself under
    /// mod-τ reduction.
    pub tau: f64,
    /// Maximum perturbation magnitude per axis (search window). ±2 covers
    /// everything that ever helps in practice.
    pub window: i32,
    pinv: Matrix,
}

impl VectorPerturbationPrecoder {
    /// Builds a precoder for a downlink channel `h` (`K users × M
    /// antennas` rows = users) and a constellation.
    pub fn new(h: &Matrix, c: Constellation) -> Result<Self, LinalgError> {
        // Right pseudo-inverse: x = H*(H H*)⁻¹ u satisfies H x = u.
        let hh = h.mul_mat(&h.hermitian());
        let inv = gs_linalg::invert(&hh)?;
        let pinv = h.hermitian().mul_mat(&inv);
        Ok(VectorPerturbationPrecoder { tau: 2.0 * c.side() as f64, window: 2, pinv })
    }

    /// Plain channel-inversion (zero-forcing) precoding, the baseline:
    /// `x = H⁺ s`, no perturbation.
    pub fn zf_precode(&self, s: &[GridPoint]) -> Precoded {
        let sv: Vec<Complex> = s.iter().map(|p| p.to_complex()).collect();
        let x = self.pinv.mul_vec(&sv);
        let gamma = gs_linalg::vec_norm_sqr(&x);
        Precoded {
            x,
            gamma,
            perturbation: vec![Complex::ZERO; s.len()],
            stats: DetectorStats::default(),
        }
    }

    /// Sphere-encoded precoding: searches the perturbation lattice for the
    /// minimum-power transmit vector.
    pub fn precode(&self, s: &[GridPoint]) -> Precoded {
        let k = self.pinv.cols();
        assert_eq!(s.len(), k, "one symbol per user");
        let mut stats = DetectorStats::default();

        // minimize ‖P·(s + τ l)‖² over l ∈ (Z+iZ)^K, |Re l|,|Im l| ≤ window.
        // With B = τP and t = −P·s: minimize ‖B l − t‖² — integer least
        // squares, depth-first with QR and per-level zigzag enumeration.
        let b = self.pinv.scale(self.tau);
        let sv: Vec<Complex> = s.iter().map(|p| p.to_complex()).collect();
        let t: Vec<Complex> = self.pinv.mul_vec(&sv).into_iter().map(|z| -z).collect();

        let qr = qr_decompose(&b);
        let that = qr.rotate(&t);
        let r = &qr.r;
        // The component of t orthogonal to range(B) is constant over l.
        let base = (gs_linalg::vec_norm_sqr(&t) - gs_linalg::vec_norm_sqr(&that[..k])).max(0.0);

        // DFS over levels k-1..0; per level enumerate integer pairs
        // (re, im) in a square window by nondecreasing axis distance.
        let mut best_l = vec![Complex::ZERO; k];
        let mut best_dist = f64::INFINITY;
        let mut chosen = vec![Complex::ZERO; k];

        fn zigzag_ints(center: f64, window: i32) -> Vec<i32> {
            let mut v: Vec<i32> = (-window..=window).collect();
            v.sort_by(|a, b| (*a as f64 - center).abs().total_cmp(&(*b as f64 - center).abs()));
            v
        }

        // Recursive search with radius pruning.
        #[allow(clippy::too_many_arguments)]
        fn search(
            level: usize,
            dist_above: f64,
            r: &Matrix,
            that: &[Complex],
            chosen: &mut Vec<Complex>,
            best_l: &mut Vec<Complex>,
            best_dist: &mut f64,
            window: i32,
            k: usize,
            stats: &mut DetectorStats,
        ) {
            let i = level;
            let mut acc = that[i];
            for j in (i + 1)..k {
                acc -= r[(i, j)] * chosen[j];
            }
            stats.complex_mults += (k - 1 - i) as u64;
            let rll = r[(i, i)].re;
            let center = if rll > f64::EPSILON { acc / rll } else { Complex::ZERO };
            let gain = rll * rll;

            let res = zigzag_ints(center.re, window);
            let ims = zigzag_ints(center.im, window);
            // Enumerate (re, im) pairs; the outer sorted orders let us break
            // early per axis once the axis cost alone busts the radius.
            for &re in &res {
                let dre = re as f64 - center.re;
                if dist_above + gain * dre * dre >= *best_dist {
                    break;
                }
                for &im in &ims {
                    let dim = im as f64 - center.im;
                    let cost = gain * (dre * dre + dim * dim);
                    stats.ped_calcs += 1;
                    let d = dist_above + cost;
                    if d >= *best_dist {
                        break;
                    }
                    stats.visited_nodes += 1;
                    chosen[i] = Complex::new(re as f64, im as f64);
                    if i == 0 {
                        *best_dist = d;
                        best_l.clone_from(chosen);
                    } else {
                        search(i - 1, d, r, that, chosen, best_l, best_dist, window, k, stats);
                    }
                }
            }
        }

        search(
            k - 1,
            base,
            r,
            &that[..k],
            &mut chosen,
            &mut best_l,
            &mut best_dist,
            self.window,
            k,
            &mut stats,
        );

        let perturbed: Vec<Complex> =
            sv.iter().zip(&best_l).map(|(&s, &l)| s + l * self.tau).collect();
        let x = self.pinv.mul_vec(&perturbed);
        let gamma = gs_linalg::vec_norm_sqr(&x);
        Precoded { x, gamma, perturbation: best_l, stats }
    }

    /// Receiver-side demodulation: scale by `√γ`, reduce modulo τ, slice.
    pub fn demodulate(&self, y_k: Complex, gamma: f64, c: Constellation) -> GridPoint {
        let scaled = y_k * gamma.sqrt();
        c.slice(Complex::new(mod_tau(scaled.re, self.tau), mod_tau(scaled.im, self.tau)))
    }
}

/// Symmetric modulo reduction into `[−τ/2, τ/2)`.
#[inline]
pub fn mod_tau(v: f64, tau: f64) -> f64 {
    v - tau * (v / tau).round()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_channel::{sample_cn, RayleighChannel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_symbols(rng: &mut StdRng, c: Constellation, n: usize) -> Vec<GridPoint> {
        let pts = c.points();
        (0..n).map(|_| pts[rng.gen_range(0..pts.len())]).collect()
    }

    #[test]
    fn mod_tau_reduction() {
        assert!((mod_tau(0.3, 8.0) - 0.3).abs() < 1e-12);
        assert!((mod_tau(8.3, 8.0) - 0.3).abs() < 1e-12);
        assert!((mod_tau(-8.3, 8.0) + 0.3).abs() < 1e-12);
        assert!((mod_tau(4.0, 8.0) + 4.0).abs() < 1e-12); // boundary folds down
    }

    #[test]
    fn noiseless_downlink_roundtrip() {
        let mut rng = StdRng::seed_from_u64(821);
        let c = Constellation::Qam16;
        for _ in 0..25 {
            let h = RayleighChannel::new(4, 4).sample_matrix(&mut rng).hermitian(); // 4 users x 4 ant
            let pre = VectorPerturbationPrecoder::new(&h, c).unwrap();
            let s = random_symbols(&mut rng, c, 4);
            let p = pre.precode(&s);
            // Each user hears h_k · x = s_k + τ l_k exactly.
            let rx = h.mul_vec(&p.x);
            for (k, &want) in s.iter().enumerate() {
                // Receivers scale by √γ over the normalized signal; here we
                // skip power normalization (γ scaling cancels).
                let got = pre.demodulate(rx[k] / p.gamma.sqrt(), p.gamma, c);
                assert_eq!(got, want, "user {k}");
            }
        }
    }

    #[test]
    fn perturbation_never_increases_power() {
        let mut rng = StdRng::seed_from_u64(822);
        let c = Constellation::Qam16;
        for _ in 0..40 {
            let h = RayleighChannel::new(3, 3).sample_matrix(&mut rng);
            let pre = VectorPerturbationPrecoder::new(&h, c).unwrap();
            let s = random_symbols(&mut rng, c, 3);
            let vp = pre.precode(&s);
            let zf = pre.zf_precode(&s);
            assert!(vp.gamma <= zf.gamma + 1e-9, "vp {} > zf {}", vp.gamma, zf.gamma);
        }
    }

    #[test]
    fn perturbation_slashes_power_on_ill_conditioned_channels() {
        // The reason VP exists: on near-singular channels the inversion
        // power explodes and the lattice offset absorbs most of it.
        let mut rng = StdRng::seed_from_u64(823);
        let c = Constellation::Qam16;
        let mut ratio_acc = 0.0;
        let trials = 30;
        for _ in 0..trials {
            let base: Vec<Complex> = (0..2).map(|_| sample_cn(&mut rng, 1.0)).collect();
            // rows = users; make the two users' channels nearly parallel.
            let h = Matrix::from_fn(2, 2, |r, col| {
                base[col] + sample_cn(&mut rng, if r == 0 { 0.0 } else { 0.02 })
            });
            let pre = VectorPerturbationPrecoder::new(&h, c).unwrap();
            let s = random_symbols(&mut rng, c, 2);
            let vp = pre.precode(&s);
            let zf = pre.zf_precode(&s);
            ratio_acc += vp.gamma / zf.gamma;
        }
        let avg_ratio = ratio_acc / trials as f64;
        assert!(
            avg_ratio < 0.7,
            "VP should cut ill-conditioned TX power substantially, got ratio {avg_ratio:.2}"
        );
    }

    #[test]
    fn noisy_downlink_vp_beats_zf_precoding() {
        // Same total TX power budget: VP's lower gamma means less effective
        // noise after receiver scaling ⇒ fewer symbol errors.
        let mut rng = StdRng::seed_from_u64(824);
        let c = Constellation::Qam16;
        let sigma2 = 0.02;
        let mut zf_errs = 0usize;
        let mut vp_errs = 0usize;
        for _ in 0..150 {
            let base: Vec<Complex> = (0..2).map(|_| sample_cn(&mut rng, 1.0)).collect();
            let h = Matrix::from_fn(2, 2, |r, col| {
                base[col] + sample_cn(&mut rng, if r == 0 { 0.0 } else { 0.1 })
            });
            let Ok(pre) = VectorPerturbationPrecoder::new(&h, c) else { continue };
            let s = random_symbols(&mut rng, c, 2);
            for vp_mode in [false, true] {
                let p = if vp_mode { pre.precode(&s) } else { pre.zf_precode(&s) };
                // Transmit x/√γ (unit power); receiver k hears
                // h_k x /√γ + w and scales by √γ.
                let rx = h.mul_vec(&p.x);
                for (k, &want) in s.iter().enumerate() {
                    let y = rx[k] / p.gamma.sqrt() + sample_cn(&mut rng, sigma2);
                    let got = pre.demodulate(y, p.gamma, c);
                    if got != want {
                        if vp_mode {
                            vp_errs += 1;
                        } else {
                            zf_errs += 1;
                        }
                    }
                }
            }
        }
        assert!(
            vp_errs < zf_errs,
            "VP ({vp_errs} errors) must beat ZF precoding ({zf_errs} errors)"
        );
    }
}
