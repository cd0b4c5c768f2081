//! Batched MIMO detection — the workspace's scaling layer.
//!
//! An OFDM frame is an embarrassingly parallel batch of per-subcarrier
//! sphere searches (paper §4: one independent detection per OFDM symbol ×
//! subcarrier), and those searches share a tiny set of distinct channel
//! matrices — one per subcarrier, reused across every OFDM symbol of the
//! frame. This module exploits both properties:
//!
//! * [`DetectionBatch`] describes a batch as a shared channel table plus
//!   jobs that reference channels by index, so per-channel preprocessing
//!   (QR factorization) is computed once per *channel*, not once per
//!   *detection* — [`SphereDecoder`](crate::SphereDecoder) overrides
//!   [`MimoDetector::detect_batch_with`] to do exactly that.
//! * [`channel_grouped_chunks`] splits a batch into contiguous,
//!   channel-grouped index chunks — the dispatch order every multi-worker
//!   caller hands to [`ShardedDetectionPool`](crate::ShardedDetectionPool)
//!   workers, each detecting its chunk through
//!   [`MimoDetector::detect_batch_indexed_with`]. Results are bit-identical
//!   to detecting each job serially, for any chunk count: detection
//!   consumes no shared mutable state and QR factorization is
//!   deterministic.
//!
//! Workspace ownership: every chunk is detected through a long-lived
//! [`DetectorWorkspace`](crate::DetectorWorkspace) (a pool worker's own,
//! or one owned by the chunk itself), so per-node enumerators, per-level
//! search state, and per-channel QR factors are reused across every job —
//! zero heap allocations per symbol after warmup.

use crate::detector::{Detection, MimoDetector};
use gs_linalg::{Complex, Matrix};
use gs_modulation::Constellation;
use std::ops::Range;

/// One detection problem inside a batch: an index into the batch's shared
/// channel table plus the received vector.
#[derive(Clone, Debug)]
pub struct DetectionJob {
    /// Index into [`DetectionBatch::channels`].
    pub channel: usize,
    /// Received vector (one entry per AP antenna).
    pub y: Vec<Complex>,
}

/// A batch of detection problems sharing a table of grid-domain channels.
///
/// The channel table is the unit of preprocessing reuse: every job whose
/// `channel` index matches shares one QR factorization in detectors that
/// support it.
#[derive(Clone, Copy, Debug)]
pub struct DetectionBatch<'a> {
    /// Distinct grid-domain channel matrices (constellation scale folded
    /// in), typically one per OFDM subcarrier.
    pub channels: &'a [Matrix],
    /// The detection problems, each referencing a channel by index.
    pub jobs: &'a [DetectionJob],
    /// The constellation every stream uses.
    pub c: Constellation,
}

impl DetectionBatch<'_> {
    /// Detects every job serially through plain [`MimoDetector::detect`],
    /// with no preprocessing reuse — the reference the batched paths are
    /// checked against.
    pub fn detect_serial<D: MimoDetector + ?Sized>(&self, detector: &D) -> Vec<Detection> {
        self.jobs
            .iter()
            .map(|job| detector.detect(&self.channels[job.channel], &job.y, self.c))
            .collect()
    }
}

/// Resolves a requested detection worker count: `0` selects the
/// machine's available parallelism, any other count is used as given —
/// never clamped, so an explicit count may oversubscribe a small machine
/// (correctness and the zero-allocation contract hold at any count).
pub fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        workers
    }
}

/// Writes the channel-grouped dispatch order of `jobs` into `order` and
/// returns its split into `parts` contiguous chunks, in chunk order (the
/// trailing chunks are empty when `parts` exceeds the job count).
///
/// The order is the job indices sorted by `(channel, index)`: a
/// deterministic permutation, so each chunk spans whole channel groups and
/// a detector that amortizes per-channel preprocessing re-factorizes each
/// channel at most once per chunk (at most `parts − 1` groups straddle a
/// chunk boundary). An OFDM frame's jobs arrive symbol-major — the channel
/// cycles every subcarrier — so without the grouping every chunk would
/// touch, and re-factorize, every channel. When the jobs already arrive
/// grouped (the flat-channel case with a single table entry) the sort is
/// skipped. Allocation-free once `order` has grown to the job count.
///
/// Detection is a pure per-job function, so callers that scatter each
/// chunk's results back by job index get output bit-identical to serial
/// detection at any chunk count.
pub fn channel_grouped_chunks(
    jobs: &[DetectionJob],
    parts: usize,
    order: &mut Vec<usize>,
) -> impl Iterator<Item = Range<usize>> {
    let n = jobs.len();
    order.clear();
    order.extend(0..n);
    if !jobs.windows(2).all(|w| w[0].channel <= w[1].channel) {
        order.sort_unstable_by_key(|&i| (jobs[i].channel, i));
    }
    let chunk = n.div_ceil(parts.max(1)).max(1);
    (0..parts).map(move |p| (p * chunk).min(n)..((p + 1) * chunk).min(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::apply_channel;
    use crate::{ethsd_decoder, geosphere_decoder, MmseSicDetector, ZfDetector};
    use gs_channel::{sample_cn, RayleighChannel};
    use gs_modulation::GridPoint;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_batch(
        seed: u64,
        c: Constellation,
        na: usize,
        nc: usize,
        n_channels: usize,
        n_jobs: usize,
        noise: f64,
    ) -> (Vec<Matrix>, Vec<DetectionJob>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let channels: Vec<Matrix> = (0..n_channels)
            .map(|_| RayleighChannel::new(na, nc).sample_matrix(&mut rng).scale(c.scale()))
            .collect();
        let pts = c.points();
        let jobs: Vec<DetectionJob> = (0..n_jobs)
            .map(|j| {
                let channel = j % n_channels;
                let s: Vec<GridPoint> = (0..nc).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
                let mut y = apply_channel(&channels[channel], &s);
                for v in y.iter_mut() {
                    *v += sample_cn(&mut rng, noise);
                }
                DetectionJob { channel, y }
            })
            .collect();
        (channels, jobs)
    }

    /// Detects `batch` chunk by chunk in [`channel_grouped_chunks`] order,
    /// one reused workspace per chunk, scattering back to job order — what
    /// a multi-worker caller does across its pool.
    fn detect_chunked(
        det: &dyn MimoDetector,
        batch: &DetectionBatch,
        parts: usize,
    ) -> Vec<Detection> {
        let mut order = Vec::new();
        let mut slots: Vec<Option<Detection>> = vec![None; batch.jobs.len()];
        let mut out = Vec::new();
        for range in channel_grouped_chunks(batch.jobs, parts, &mut order) {
            let mut ws = det.make_batch_workspace();
            det.detect_batch_indexed_with(batch, &order[range.clone()], &mut ws, &mut out);
            assert_eq!(out.len(), range.len());
            for (&idx, d) in order[range].iter().zip(out.drain(..)) {
                assert!(slots[idx].replace(d).is_none(), "job {idx} detected twice");
            }
        }
        slots.into_iter().map(|d| d.expect("every job detected")).collect()
    }

    #[test]
    fn batched_matches_serial_reference_all_detectors() {
        let c = Constellation::Qam16;
        let (channels, jobs) = random_batch(301, c, 4, 4, 6, 48, 0.05);
        let batch = DetectionBatch { channels: &channels, jobs: &jobs, c };
        let detectors: Vec<Box<dyn MimoDetector>> = vec![
            Box::new(geosphere_decoder()),
            Box::new(ethsd_decoder()),
            Box::new(geosphere_decoder().with_sorted_qr()),
            Box::new(ZfDetector),
            Box::new(MmseSicDetector::new(0.05)),
        ];
        for det in &detectors {
            let reference = batch.detect_serial(det.as_ref());
            let amortized = det.detect_batch(&batch);
            for (k, (a, r)) in amortized.iter().zip(&reference).enumerate() {
                assert_eq!(a.symbols, r.symbols, "{} amortized job {k}", det.name());
                assert_eq!(a.stats, r.stats, "{} amortized job {k}", det.name());
            }
            for parts in [1, 2, 4, 7] {
                let chunked = detect_chunked(det.as_ref(), &batch, parts);
                for (k, (p, r)) in chunked.iter().zip(&reference).enumerate() {
                    assert_eq!(p.symbols, r.symbols, "{} job {k} parts {parts}", det.name());
                    assert_eq!(p.stats, r.stats, "{} job {k} parts {parts}", det.name());
                }
            }
        }
    }

    #[test]
    fn zero_workers_selects_parallelism() {
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(resolve_workers(0), hw);
        assert_eq!(resolve_workers(16), 16, "an explicit count is not clamped");
    }

    #[test]
    fn empty_batch_is_empty() {
        let det = geosphere_decoder();
        let channels: Vec<Matrix> = vec![];
        let jobs: Vec<DetectionJob> = vec![];
        let batch = DetectionBatch { channels: &channels, jobs: &jobs, c: Constellation::Qpsk };
        assert!(det.detect_batch(&batch).is_empty());
        let mut order = vec![7];
        let ranges: Vec<Range<usize>> = channel_grouped_chunks(&jobs, 4, &mut order).collect();
        assert!(order.is_empty());
        assert_eq!(ranges.len(), 4);
        assert!(ranges.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn more_workers_than_jobs() {
        let c = Constellation::Qpsk;
        let (channels, jobs) = random_batch(302, c, 2, 2, 1, 3, 0.01);
        let batch = DetectionBatch { channels: &channels, jobs: &jobs, c };
        let det = geosphere_decoder();
        let mut order = Vec::new();
        let ranges: Vec<Range<usize>> = channel_grouped_chunks(&jobs, 16, &mut order).collect();
        assert_eq!(ranges.len(), 16, "one chunk per part, surplus parts empty");
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 3);
        let out = detect_chunked(&det, &batch, 16);
        assert_eq!(out.len(), 3);
        let reference = batch.detect_serial(&det);
        for (p, r) in out.iter().zip(&reference) {
            assert_eq!(p.symbols, r.symbols);
        }
    }

    #[test]
    fn grouped_order_is_a_stable_channel_sort() {
        // Symbol-major jobs (channel cycles every job) are regrouped by
        // channel, ties in submission order; already-grouped jobs keep the
        // identity order.
        let c = Constellation::Qpsk;
        let (_, jobs) = random_batch(303, c, 2, 2, 3, 7, 0.01);
        let mut order = Vec::new();
        let ranges: Vec<Range<usize>> = channel_grouped_chunks(&jobs, 2, &mut order).collect();
        assert_eq!(order, vec![0, 3, 6, 1, 4, 2, 5]);
        assert_eq!(ranges, vec![0..4, 4..7]);
        let mut grouped = jobs.clone();
        grouped.sort_by_key(|j| j.channel);
        channel_grouped_chunks(&grouped, 3, &mut order).for_each(drop);
        assert_eq!(order, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn detectors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::GeosphereDecoder>();
        assert_send_sync::<crate::EthSdDecoder>();
        assert_send_sync::<ZfDetector>();
        assert_send_sync::<MmseSicDetector>();
        assert_send_sync::<Box<dyn MimoDetector>>();
    }
}
