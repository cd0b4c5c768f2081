//! Per-channel cached filter state for the non-sphere detectors.
//!
//! The linear (ZF/MMSE) and MMSE-SIC detectors spend most of their time
//! *constructing* filters — pseudo-inverses and per-stage SIC rows — that
//! depend only on the channel, not on the received vector. An OFDM frame
//! reuses each subcarrier's channel across every OFDM symbol, so a batch
//! of `n_sym × n_subcarriers` detections needs only `n_subcarriers`
//! distinct filter sets. [`FilterCache`] holds them, keyed by the batch's
//! channel index, exactly as the sphere decoders cache QR factorizations
//! in their [`SearchWorkspace`](crate::SearchWorkspace).
//!
//! **Invalidation.** Every lookup compares the cached channel snapshot
//! (and regularizer) against the caller's matrix entry-by-entry; any CSI
//! change — a new channel realization, an updated estimate mid-run —
//! triggers recomputation automatically. [`FilterCache::invalidate`] drops
//! everything explicitly. The comparison is exact (`f64` equality), so a
//! cached filter is only ever used for bit-for-bit the channel it was
//! built from; cached and uncached detection are therefore bit-identical
//! (`tests/filter_cache_conformance.rs` enforces this).

use gs_linalg::{pseudo_inverse, regularized_pseudo_inverse, Complex, Matrix};

/// Precomputed MMSE-SIC stage state for one channel: the SNR detection
/// order and, per stage, the filter row that estimates the strongest
/// remaining stream.
#[derive(Clone, Debug)]
pub struct SicFilters {
    /// Stream indices in detection order (descending column norm).
    pub order: Vec<usize>,
    /// `rows[stage]` is row 0 of the stage's regularized pseudo-inverse
    /// (matched-filter row on singular sub-channels): the estimate of the
    /// stage's stream is `rows[stage] · residual`.
    pub rows: Vec<Vec<Complex>>,
}

/// Precomputed per-stream column outer products for soft-PIC MMSE
/// covariance assembly: `outer[cl][(r1, r2)] = h[(r1, cl)] · h[(r2, cl)]*`.
///
/// The iterative MMSE-PIC receiver rebuilds a residual covariance from
/// these per resource element; caching them amortizes the products across
/// a frame's OFDM symbols and turbo iterations.
#[derive(Clone, Debug)]
pub struct PicGram {
    /// One `na × na` outer-product matrix per transmit stream.
    pub outer: Vec<Matrix>,
}

/// One cached entry: the channel snapshot the filters were built from,
/// the regularizer used, and the filter state itself.
struct FilterEntry {
    snapshot: Matrix,
    lambda: Option<f64>,
    kind: FilterKind,
}

enum FilterKind {
    Linear(Matrix),
    Sic(SicFilters),
    Pic(PicGram),
}

/// Builds the linear filter `W` for one channel: the pseudo-inverse
/// (`lambda = None`, zero-forcing) or the regularized pseudo-inverse
/// (`lambda = Some(λ)`, MMSE), with the matched-filter `H*` fallback on
/// singular channels. Shared by the cache and the one-shot `detect` paths
/// so there is exactly one implementation of the seed math.
pub(crate) fn compute_linear_filter(h: &Matrix, lambda: Option<f64>) -> Matrix {
    let filt = match lambda {
        None => pseudo_inverse(h),
        Some(l) => regularized_pseudo_inverse(h, l),
    };
    filt.unwrap_or_else(|_| h.hermitian())
}

/// Builds the MMSE-SIC stage filters for one channel, in the seed
/// implementation's exact order: streams sorted by descending column
/// norm, one regularized pseudo-inverse per remaining-stream sub-channel
/// (matched-filter fallback when singular).
pub(crate) fn compute_sic_filters(h: &Matrix, lambda: f64) -> SicFilters {
    let nc = h.cols();
    let mut order: Vec<usize> = (0..nc).collect();
    let norms: Vec<f64> = (0..nc).map(|k| h.col(k).iter().map(|z| z.norm_sqr()).sum()).collect();
    order.sort_by(|&a, &b| norms[b].total_cmp(&norms[a]));

    let mut rows = Vec::with_capacity(nc);
    let mut remaining = order.clone();
    while !remaining.is_empty() {
        let sub = Matrix::from_fn(h.rows(), remaining.len(), |r, k| h[(r, remaining[k])]);
        let filt = match regularized_pseudo_inverse(&sub, lambda) {
            Ok(w) => w,
            Err(_) => sub.hermitian(),
        };
        rows.push(filt.row(0).to_vec());
        remaining.remove(0);
    }
    SicFilters { order, rows }
}

/// Per-channel cached filters, keyed by a batch's channel index and
/// invalidated automatically when the channel's contents (or the
/// regularizer) change. See the module docs.
#[derive(Default)]
pub struct FilterCache {
    entries: Vec<Option<FilterEntry>>,
}

impl FilterCache {
    /// Creates an empty cache; entries are built on first lookup.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every cached entry, forcing recomputation on next lookup.
    /// Lookups also self-invalidate on any CSI change; this is for callers
    /// that want to release the memory or be explicit.
    pub fn invalidate(&mut self) {
        self.entries.clear();
    }

    /// Whether the entry for `idx` currently holds filters built from
    /// exactly `h` with regularizer `lambda` (testing/introspection hook).
    pub fn is_fresh(&self, idx: usize, h: &Matrix, lambda: Option<f64>) -> bool {
        matches!(
            self.entries.get(idx),
            Some(Some(e)) if e.snapshot == *h && e.lambda == lambda
        )
    }

    fn entry(
        &mut self,
        idx: usize,
        h: &Matrix,
        lambda: Option<f64>,
        build: impl FnOnce() -> FilterKind,
        matches_kind: impl Fn(&FilterKind) -> bool,
    ) -> &FilterEntry {
        if self.entries.len() <= idx {
            self.entries.resize_with(idx + 1, || None);
        }
        let slot = &mut self.entries[idx];
        let stale = !matches!(
            slot,
            Some(e) if e.lambda == lambda && e.snapshot == *h && matches_kind(&e.kind)
        );
        if stale {
            let _prof = gs_prof::scope(gs_prof::Stage::Filter);
            *slot = Some(FilterEntry { snapshot: h.clone(), lambda, kind: build() });
        }
        slot.as_ref().expect("entry just ensured")
    }

    /// The linear filter `W` for channel `idx`: the pseudo-inverse
    /// (`lambda = None`, zero-forcing) or the regularized pseudo-inverse
    /// (`lambda = Some(λ)`, MMSE), with the matched-filter `H*` fallback on
    /// singular channels — exactly the per-call computation the linear
    /// detectors used to repeat per detection.
    pub fn linear_filter(&mut self, idx: usize, h: &Matrix, lambda: Option<f64>) -> &Matrix {
        let entry = self.entry(
            idx,
            h,
            lambda,
            || FilterKind::Linear(compute_linear_filter(h, lambda)),
            |k| matches!(k, FilterKind::Linear(_)),
        );
        match &entry.kind {
            FilterKind::Linear(w) => w,
            _ => unreachable!("entry built as Linear"),
        }
    }

    /// The MMSE-SIC stage filters for channel `idx` (see [`SicFilters`]),
    /// built with regularizer `lambda` in the seed implementation's exact
    /// order: streams sorted by descending column norm, one regularized
    /// pseudo-inverse per remaining-stream sub-channel.
    pub fn sic_filters(&mut self, idx: usize, h: &Matrix, lambda: f64) -> &SicFilters {
        let entry = self.entry(
            idx,
            h,
            Some(lambda),
            || FilterKind::Sic(compute_sic_filters(h, lambda)),
            |k| matches!(k, FilterKind::Sic(_)),
        );
        match &entry.kind {
            FilterKind::Sic(s) => s,
            _ => unreachable!("entry built as Sic"),
        }
    }

    /// The per-stream column outer products for channel `idx` (see
    /// [`PicGram`]).
    pub fn pic_gram(&mut self, idx: usize, h: &Matrix) -> &PicGram {
        let entry = self.entry(
            idx,
            h,
            None,
            || {
                let outer = (0..h.cols())
                    .map(|cl| {
                        Matrix::from_fn(h.rows(), h.rows(), |r1, r2| {
                            h[(r1, cl)] * h[(r2, cl)].conj()
                        })
                    })
                    .collect();
                FilterKind::Pic(PicGram { outer })
            },
            |k| matches!(k, FilterKind::Pic(_)),
        );
        match &entry.kind {
            FilterKind::Pic(g) => g,
            _ => unreachable!("entry built as Pic"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_channel::RayleighChannel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nan_channel_entry_returns_without_panicking() {
        // One non-finite CSI entry used to panic the stream sort and the
        // pivot search behind every linear and SIC filter.
        let c = gs_modulation::Constellation::Qam16;
        let mut h = RayleighChannel::new(4, 2).sample_matrix(&mut StdRng::seed_from_u64(803));
        h[(1, 0)] = gs_linalg::Complex::new(f64::NAN, 0.0);
        let y = vec![gs_linalg::Complex::ZERO; 4];
        let _ = compute_sic_filters(&h, 0.1);
        let detectors: [&dyn crate::MimoDetector; 3] =
            [&crate::ZfDetector, &crate::MmseDetector::new(0.1), &crate::MmseSicDetector::new(0.1)];
        for det in detectors {
            assert_eq!(det.detect(&h, &y, c).symbols.len(), 2, "{}", det.name());
        }
    }

    #[test]
    fn linear_entry_rebuilt_on_csi_change() {
        let mut rng = StdRng::seed_from_u64(801);
        let h1 = RayleighChannel::new(4, 2).sample_matrix(&mut rng);
        let h2 = RayleighChannel::new(4, 2).sample_matrix(&mut rng);
        let mut cache = FilterCache::new();
        let w1 = cache.linear_filter(0, &h1, None).clone();
        assert!(cache.is_fresh(0, &h1, None));
        let w2 = cache.linear_filter(0, &h2, None).clone();
        assert!(cache.is_fresh(0, &h2, None));
        assert!(!cache.is_fresh(0, &h1, None));
        assert!(w1.max_abs_diff(&w2) > 1e-9, "different channels must give different filters");
        // Back to h1: recomputed, identical to the first build.
        let w1b = cache.linear_filter(0, &h1, None);
        assert_eq!(w1.max_abs_diff(w1b), 0.0);
    }

    #[test]
    fn lambda_change_invalidates() {
        let mut rng = StdRng::seed_from_u64(802);
        let h = RayleighChannel::new(3, 3).sample_matrix(&mut rng);
        let mut cache = FilterCache::new();
        cache.linear_filter(0, &h, Some(0.1));
        assert!(cache.is_fresh(0, &h, Some(0.1)));
        cache.linear_filter(0, &h, Some(0.2));
        assert!(!cache.is_fresh(0, &h, Some(0.1)));
        assert!(cache.is_fresh(0, &h, Some(0.2)));
    }

    #[test]
    fn invalidate_clears_everything() {
        let mut rng = StdRng::seed_from_u64(803);
        let h = RayleighChannel::new(2, 2).sample_matrix(&mut rng);
        let mut cache = FilterCache::new();
        cache.linear_filter(3, &h, None);
        assert!(cache.is_fresh(3, &h, None));
        cache.invalidate();
        assert!(!cache.is_fresh(3, &h, None));
    }

    #[test]
    fn pic_gram_matches_direct_products() {
        let mut rng = StdRng::seed_from_u64(804);
        let h = RayleighChannel::new(4, 3).sample_matrix(&mut rng);
        let mut cache = FilterCache::new();
        let gram = cache.pic_gram(0, &h);
        for cl in 0..3 {
            for r1 in 0..4 {
                for r2 in 0..4 {
                    assert_eq!(gram.outer[cl][(r1, r2)], h[(r1, cl)] * h[(r2, cl)].conj());
                }
            }
        }
    }
}
