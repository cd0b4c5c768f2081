//! Frame-level reusable workspace: the allocation-free receive loop.
//!
//! PR 2 made the per-symbol detection hot path zero-alloc behind
//! `SearchWorkspace`; this module extends the same ownership discipline one
//! layer up, to whole frames. [`FrameWorkspace`] owns every buffer an
//! uplink frame exchange touches — the transmit-chain scratch, the planned
//! per-client symbol grids, the pooled [`DetectionJob`] `y` buffers, the
//! detection outputs, the per-client LLR streams of the soft path, and the
//! receive-chain (deinterleave/depuncture/Viterbi) scratch — plus, for
//! multi-worker decoding, a one-shard
//! [`ShardedDetectionPool`] (geosphere-core's one detection executor,
//! the same engine `gs-runtime`'s streaming runtime runs on).
//!
//! ## Ownership model
//!
//! **One `FrameWorkspace` per receive loop, one
//! [`SearchWorkspace`](geosphere_core::SearchWorkspace) per worker.** A
//! long-lived receiver holds one `FrameWorkspace` across frames and drives
//! [`decode_frame_batched_into`](crate::txrx::decode_frame_batched_into)
//! (hard path) or
//! [`uplink_frame_soft_into`](crate::soft_rx::uplink_frame_soft_into)
//! (soft path): after one warmup frame of a given shape, a frame performs
//! **zero heap allocations** end to end — planning, detection (at any
//! worker count: each chunk of the frame keeps its own search state and
//! output slot frame after frame), and payload recovery.
//! `tests/alloc_regression.rs` enforces this with a counting global
//! allocator; `tests/frame_workspace_reuse.rs` proves reuse is
//! bit-identical to fresh-workspace decoding, shrinking and growing frame
//! shapes included.
//!
//! ## Multi-worker frames
//!
//! With `workers > 1` the workspace builds a
//! `ShardedDetectionPool::new(1, workers, workers)` on first use (and
//! rebuilds it only when the worker count changes). Each frame lends its
//! channel table and job buffers to the workspace's one [`ShardedJob`]
//! (swapped in and back out, never copied), submits `workers` contiguous
//! chunks of the channel-grouped order ([`channel_grouped_chunks`]) with
//! [`NO_DEADLINE`] in one batch
//! ([`ShardedDetectionPool::submit_all`]), and blocks until every chunk
//! is detected. A detector panic poisons the pool: the frame
//! panics instead of returning partial results, and the workspace refuses
//! every later multi-worker frame.
//!
//! Buffers only ever grow: a smaller frame reuses the prefix of a larger
//! frame's buffers, so alternating shapes stay allocation-free once the
//! largest has been seen.

use crate::config::PhyConfig;
use crate::iterative::IterScratch;
use crate::txrx::UplinkOutcome;
use geosphere_core::{
    channel_grouped_chunks, Detection, DetectionBatch, DetectionJob, DetectorStats, DetectorTier,
    DetectorWorkspace, MimoDetector, ShardedDetectionPool, ShardedJob, SoftDetection,
    SoftWorkspace, NO_DEADLINE,
};
use gs_channel::MimoChannel;
use gs_coding::{CodedBit, ViterbiWorkspace};
use gs_linalg::{Complex, Matrix};
use gs_modulation::{Constellation, GridPoint};
use rand::Rng;
use std::any::Any;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Duration;

/// Transmit-chain scratch shared by all clients of a frame (each client's
/// chain runs start-to-finish before the next client's).
#[derive(Default)]
pub(crate) struct TxScratch {
    /// Payload + CRC + pad (scrambled in place).
    pub(crate) info: Vec<bool>,
    /// Mother-code output.
    pub(crate) mother: Vec<bool>,
    /// Punctured stream.
    pub(crate) coded: Vec<bool>,
    /// Interleaved stream.
    pub(crate) interleaved: Vec<bool>,
}

/// Receive-chain scratch shared by all clients of a frame.
#[derive(Default)]
pub(crate) struct RxScratch {
    /// Hard demapped bits (transmitted order).
    pub(crate) bits: Vec<bool>,
    /// Deinterleaved hard bits.
    pub(crate) deint: Vec<bool>,
    /// Depunctured mother stream.
    pub(crate) mother_cb: Vec<CodedBit>,
    /// Deinterleaved LLRs (soft path).
    pub(crate) llr_deint: Vec<f64>,
    /// Depunctured soft mother stream.
    pub(crate) mother_soft: Vec<f64>,
    /// Decoded information bits (truncated to payload + CRC).
    pub(crate) info: Vec<bool>,
    /// Viterbi trellis scratch (hard and soft paths).
    pub(crate) vit: ViterbiWorkspace,
    /// Flat client-major mother streams for the lockstep multi-stream
    /// Viterbi pass (client `cl` at `cl·mother_len..`).
    pub(crate) mother_multi: Vec<CodedBit>,
    /// Flat client-major decoded info bits from the lockstep pass.
    pub(crate) info_multi: Vec<bool>,
}

/// The detector identity installed into the worker pool: the caller's
/// concrete detector value (for change detection) plus the type-erased
/// `Arc` the pool workers hold.
pub(crate) struct PoolDetector {
    src: Box<dyn Any + Send + Sync>,
    arc: Arc<dyn MimoDetector>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The multi-worker detect stage: a one-shard [`ShardedDetectionPool`]
/// and the one [`ShardedJob`] every frame is lent to.
pub(crate) struct FramePool {
    pool: ShardedDetectionPool,
    job: Arc<FrameJob>,
}

/// One frame's detection as the pool workers see it. Chunk `i` (the task
/// token) detects `order[ranges[i]]` into `slots[i]`.
struct FrameJob {
    /// The lent frame: written by the coordinator between frames, read by
    /// the workers during one.
    frame: RwLock<LentFrame>,
    /// Per-chunk state, reused frame after frame.
    slots: Vec<Mutex<ChunkSlot>>,
    /// Chunks of the current frame still being detected.
    remaining: Mutex<usize>,
    done: Condvar,
}

/// One chunk's detector workspace and outputs. The workspace belongs to
/// the chunk, not to the worker that happens to pop it: any worker may run
/// any chunk, and a chunk's search state, QR slabs and recycled `Detection`
/// symbol vectors must be warm whichever worker that is for a frame to
/// stay allocation-free.
#[derive(Default)]
struct ChunkSlot {
    ws: DetectorWorkspace,
    out: Vec<Detection>,
}

#[derive(Default)]
struct LentFrame {
    /// The frame's detector and constellation; the detector `Arc` is
    /// installed per frame (a refcount bump) and released after it.
    installed: Option<(Arc<dyn MimoDetector>, Constellation)>,
    channels: Vec<Matrix>,
    jobs: Vec<DetectionJob>,
    n_jobs: usize,
    /// Channel-grouped dispatch order over `0..n_jobs`.
    order: Vec<usize>,
    /// Per-chunk ranges into `order`.
    ranges: Vec<Range<usize>>,
}

impl ShardedJob for FrameJob {
    fn run_shard(&self, _shard: usize, chunk: usize, _worker_ws: &mut DetectorWorkspace) {
        {
            let frame = self.frame.read().unwrap_or_else(PoisonError::into_inner);
            let range = frame.ranges[chunk].clone();
            if !range.is_empty() {
                let (detector, c) = frame.installed.as_ref().expect("detector installed");
                let batch = DetectionBatch {
                    channels: &frame.channels,
                    jobs: &frame.jobs[..frame.n_jobs],
                    c: *c,
                };
                let mut slot = lock(&self.slots[chunk]);
                let ChunkSlot { ws, out } = &mut *slot;
                detector.detect_batch_indexed_with(&batch, &frame.order[range], ws, out);
            }
        }
        let mut remaining = lock(&self.remaining);
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_one();
        }
    }
}

impl FramePool {
    /// A pool of `workers` threads on one shard, pinned per `GS_NO_PIN`.
    fn new(workers: usize) -> Self {
        Self::on(ShardedDetectionPool::new(1, workers, workers))
    }

    /// Wraps a one-shard pool whose queue holds one frame's chunks.
    fn on(pool: ShardedDetectionPool) -> Self {
        let workers = pool.workers();
        FramePool {
            pool,
            job: Arc::new(FrameJob {
                frame: RwLock::default(),
                slots: (0..workers).map(|_| Mutex::default()).collect(),
                remaining: Mutex::new(0),
                done: Condvar::new(),
            }),
        }
    }

    /// The pool's worker count (= chunks per frame).
    pub(crate) fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Detects `jobs[..n_jobs]` against `channels` across the pool and
    /// blocks until every chunk is done. `channels` and `jobs` are lent for
    /// the call (swapped in and back out; contents untouched); read the
    /// detections with [`FramePool::for_each_result`].
    ///
    /// # Panics
    /// Panics when a worker panicked, during this frame or an earlier one.
    pub(crate) fn run(
        &self,
        detector: &Arc<dyn MimoDetector>,
        channels: &mut Vec<Matrix>,
        jobs: &mut Vec<DetectionJob>,
        n_jobs: usize,
        c: Constellation,
    ) {
        assert!(
            !self.pool.is_poisoned(),
            "frame detection pool is dead: a worker panicked earlier"
        );
        let workers = self.workers();
        {
            let mut frame = self.job.frame.write().unwrap_or_else(PoisonError::into_inner);
            let f = &mut *frame;
            f.installed = Some((Arc::clone(detector), c));
            std::mem::swap(&mut f.channels, channels);
            std::mem::swap(&mut f.jobs, jobs);
            f.n_jobs = n_jobs;
            f.ranges.clear();
            f.ranges.extend(channel_grouped_chunks(&f.jobs[..n_jobs], workers, &mut f.order));
        }
        *lock(&self.job.remaining) = workers;
        let job: Arc<dyn ShardedJob> = self.job.clone();
        // Poisoned since the check above: the wait below reports it.
        let _ = self.pool.submit_all(0, NO_DEADLINE, 0..workers, &job);
        // Wait on the remaining-chunks count, polling the poison flag: a
        // panicked worker's chunk never completes.
        let mut remaining = lock(&self.job.remaining);
        while *remaining > 0 {
            assert!(!self.pool.is_poisoned(), "frame detection pool worker panicked");
            remaining = self
                .job
                .done
                .wait_timeout(remaining, Duration::from_millis(100))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        drop(remaining);
        let mut frame = self.job.frame.write().unwrap_or_else(PoisonError::into_inner);
        std::mem::swap(&mut frame.channels, channels);
        std::mem::swap(&mut frame.jobs, jobs);
        frame.installed = None;
    }

    /// Visits every detection of the last [`FramePool::run`] as
    /// `(job_index, &Detection)`, chunk by chunk. Job indices cover
    /// `0..n_jobs` exactly once; callers scatter by index.
    pub(crate) fn for_each_result(&self, mut f: impl FnMut(usize, &Detection)) {
        let frame = self.job.frame.read().unwrap_or_else(PoisonError::into_inner);
        for (range, slot) in frame.ranges.iter().zip(&self.job.slots) {
            for (&idx, det) in frame.order[range.clone()].iter().zip(&lock(slot).out) {
                f(idx, det);
            }
        }
    }
}

/// Reusable whole-frame state for the uplink receive loop. See the module
/// docs for the ownership model; create with [`FrameWorkspace::new`] and
/// pass to the `_into` frame entry points in [`crate::txrx`],
/// [`crate::soft_rx`], [`crate::iterative`], and [`mod@crate::measure`].
#[derive(Default)]
pub struct FrameWorkspace {
    // --- frame plan (filled by `plan_uplink_frame_into`) ---
    /// Per-client payload bits.
    pub(crate) payloads: Vec<Vec<bool>>,
    /// Per-client planned grid symbols, flattened `[t * n_subcarriers + k]`.
    pub(crate) symbols: Vec<Vec<GridPoint>>,
    pub(crate) tx: TxScratch,
    /// Grid-domain air channels (constellation scale folded in).
    pub(crate) grid_channels: Vec<Matrix>,
    /// The detector's channel view (genie or CSI), same scaling.
    pub(crate) rx_channels: Vec<Matrix>,
    /// Valid prefix lengths of the two channel tables (the buffers only
    /// grow; stale entries beyond these lengths are ignored).
    pub(crate) n_grid_channels: usize,
    pub(crate) n_rx_channels: usize,
    /// Pooled detection jobs; entry `y` buffers are refilled in place.
    pub(crate) jobs: Vec<DetectionJob>,
    pub(crate) n_jobs: usize,
    pub(crate) n_sym: usize,
    pub(crate) n_clients: usize,
    /// Per-job stacked symbol scratch.
    pub(crate) s_buf: Vec<GridPoint>,
    /// Per-resource-element receive scratch (soft/iterative paths).
    pub(crate) y_buf: Vec<Complex>,

    // --- detection ---
    /// Detector workspace for the single-worker inline path.
    pub(crate) det_ws: DetectorWorkspace,
    /// Detection outputs of the single-worker inline path (recycled).
    pub(crate) det_out: Vec<Detection>,
    /// Persistent multi-worker pool, built on first multi-worker decode.
    pub(crate) pool: Option<FramePool>,
    /// The detector currently installed for the pool.
    pub(crate) pool_detector: Option<PoolDetector>,

    // --- soft path ---
    pub(crate) soft_ws: SoftWorkspace,
    pub(crate) soft_out: SoftDetection,
    /// Per-client LLR streams (frame order).
    pub(crate) llrs: Vec<Vec<f64>>,

    // --- iterative (turbo) path ---
    pub(crate) iter: IterScratch,

    // --- assembly ---
    /// Per-client detected symbols, flattened like `symbols`.
    pub(crate) detected: Vec<Vec<GridPoint>>,
    pub(crate) rx: RxScratch,
    /// Diagnostic/bench knob: decode each client's Viterbi trellis
    /// separately instead of through the lockstep multi-stream pass.
    /// Default `false` (batched). Outputs are bit-identical either way —
    /// this exists so `bench_gate` can time the single-stream path.
    pub(crate) per_client_viterbi: bool,
    /// The control-plane tier stamp copied into [`UplinkOutcome::tier`] by
    /// `finish_uplink`. Sticky until set again ([`FrameWorkspace::set_detector_tier`]);
    /// defaults to [`DetectorTier::Sphere`].
    pub(crate) tier: DetectorTier,
    /// The frame outcome, rebuilt in place every frame.
    pub(crate) out: UplinkOutcome,
}

impl FrameWorkspace {
    /// Creates an empty workspace; every buffer grows on first use and is
    /// reused forever after.
    pub fn new() -> Self {
        Self::default()
    }

    /// The outcome of the last frame decoded through this workspace.
    pub fn outcome(&self) -> &UplinkOutcome {
        &self.out
    }

    /// Stamps the detector tier a control plane chose for the frame being
    /// staged; [`FrameWorkspace::finish_uplink`] copies it into
    /// [`UplinkOutcome::tier`]. Purely a label — it does not change which
    /// detector runs (the caller dispatches detection) or any decoded bit.
    /// Sticky across frames until set again; entry points that never stamp
    /// a tier report the default, [`DetectorTier::Sphere`].
    pub fn set_detector_tier(&mut self, tier: DetectorTier) {
        self.tier = tier;
    }

    /// The tier stamp the next [`FrameWorkspace::finish_uplink`] will
    /// report.
    pub fn detector_tier(&self) -> DetectorTier {
        self.tier
    }

    /// Forces per-client (single-stream) Viterbi decoding instead of the
    /// default lockstep multi-stream pass. Bit-identical output either
    /// way; a measurement knob for the bench harness, not a tuning one.
    pub fn set_per_client_viterbi(&mut self, on: bool) {
        self.per_client_viterbi = on;
    }

    /// The `Arc` handle for `detector`, rebuilding it only when the
    /// detector value (or type) changed since the pool last saw it — a
    /// refcount bump per frame in steady state, never an allocation.
    pub(crate) fn pool_detector_for<D>(&mut self, detector: &D) -> Arc<dyn MimoDetector>
    where
        D: MimoDetector + Clone + PartialEq + 'static,
    {
        let fresh = matches!(
            &self.pool_detector,
            Some(pd) if pd.src.downcast_ref::<D>() == Some(detector)
        );
        if !fresh {
            let arc: Arc<dyn MimoDetector> = Arc::new(detector.clone());
            self.pool_detector =
                Some(PoolDetector { src: Box::new(detector.clone()), arc: Arc::clone(&arc) });
        }
        Arc::clone(&self.pool_detector.as_ref().expect("detector just installed").arc)
    }

    /// Sizes the persistent pool to `workers`, (re)building it only when
    /// the worker count changes.
    pub(crate) fn ensure_pool(&mut self, workers: usize) {
        if !matches!(&self.pool, Some(p) if p.workers() == workers) {
            self.pool = Some(FramePool::new(workers));
        }
    }
}

/// The **staged** frame API: the three pipeline stages of
/// [`decode_frame_batched_into`](crate::txrx::decode_frame_batched_into),
/// exposed individually so an external scheduler (the `gs-runtime`
/// streaming engine) can run *plan*, *detect*, and *recover* on different
/// threads and overlap them across frames.
///
/// Contract (all stages allocation-free once the workspace has warmed up
/// to the frame shape, and bit-identical to the one-call entry points):
///
/// 1. [`FrameWorkspace::plan_uplink`] draws the frame's randomness and
///    fills the pooled detection jobs;
/// 2. the caller detects [`FrameWorkspace::planned_jobs`] against
///    [`FrameWorkspace::planned_channels`] however it likes (inline,
///    pooled, sharded) — detection is a pure per-job function;
/// 3. [`FrameWorkspace::begin_detection_assembly`], one
///    [`FrameWorkspace::absorb_detection`] per job index (any order, each
///    exactly once), then [`FrameWorkspace::finish_uplink`] runs the
///    receive chains and leaves the result in
///    [`FrameWorkspace::outcome`].
impl FrameWorkspace {
    /// Stage 1 — plans one uplink frame into this workspace: draws every
    /// client payload and the per-resource-element noise from `rng` (the
    /// draw order all receive paths share), runs the transmit chains, and
    /// packages the detection jobs. Genie CSI; `channel` must have one
    /// subcarrier (flat) or exactly `cfg.n_subcarriers`.
    pub fn plan_uplink<R: Rng + ?Sized>(
        &mut self,
        cfg: &PhyConfig,
        channel: &MimoChannel,
        snr_db: f64,
        rng: &mut R,
    ) {
        crate::txrx::plan_uplink_frame_into(cfg, channel, None, snr_db, rng, self);
    }

    /// The detection jobs of the last planned frame (one per OFDM symbol ×
    /// subcarrier; `channel` fields index [`FrameWorkspace::planned_channels`]).
    pub fn planned_jobs(&self) -> &[DetectionJob] {
        &self.jobs[..self.n_jobs]
    }

    /// The channel table of the last planned frame (the detector's view,
    /// constellation scale folded in).
    pub fn planned_channels(&self) -> &[Matrix] {
        &self.rx_channels[..self.n_rx_channels]
    }

    /// Stage 3 prologue — sizes the per-client detected-symbol buffers for
    /// the planned frame. Call once before the
    /// [`FrameWorkspace::absorb_detection`] sweep.
    pub fn begin_detection_assembly(&mut self) {
        crate::txrx::begin_assemble(self);
    }

    /// Stage 3 — scatters the detection for job `idx` into the per-client
    /// symbol buffers and accumulates its operation counts into `stats`.
    /// Every job index of the planned frame must be absorbed exactly once,
    /// in any order (results are index-scattered, so internal reordering
    /// cannot change the outcome).
    pub fn absorb_detection(&mut self, stats: &mut DetectorStats, idx: usize, det: &Detection) {
        crate::txrx::absorb_detection(&mut self.detected, stats, idx, det);
    }

    /// Stage 3 epilogue — inverts the per-client receive chains over the
    /// absorbed detections and writes the frame outcome (also returned by
    /// [`FrameWorkspace::outcome`] until the next frame).
    pub fn finish_uplink(&mut self, cfg: &PhyConfig, stats: DetectorStats) -> &UplinkOutcome {
        crate::txrx::finish_outcome(cfg, self, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txrx::{decode_frame_batched_into, uplink_frame};
    use geosphere_core::{ethsd_decoder, geosphere_decoder, Detection, ZfDetector};
    use gs_channel::{ChannelModel, SelectiveRayleighChannel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(payload_bits: usize) -> PhyConfig {
        PhyConfig { payload_bits, ..PhyConfig::new(Constellation::Qam16) }
    }

    fn selective_channel(seed: u64) -> MimoChannel {
        SelectiveRayleighChannel::indoor(4, 4).realize(&mut StdRng::seed_from_u64(seed))
    }

    /// Decodes one seeded frame through `ws` at `workers` and checks it
    /// against the serial reference receive path.
    fn assert_matches_serial<D>(
        cfg: &PhyConfig,
        ch: &MimoChannel,
        det: &D,
        workers: usize,
        ws: &mut FrameWorkspace,
        label: &str,
    ) where
        D: MimoDetector + Clone + PartialEq + 'static,
    {
        let reference = uplink_frame(cfg, ch, det, 18.0, &mut StdRng::seed_from_u64(303));
        let mut rng = StdRng::seed_from_u64(303);
        let out = decode_frame_batched_into(cfg, ch, det, 18.0, &mut rng, workers, ws);
        assert_eq!(out.client_ok, reference.client_ok, "{label}");
        assert_eq!(out.stats, reference.stats, "{label}");
        assert_eq!(out.detections, reference.detections, "{label}");
    }

    #[test]
    fn pool_matches_serial_reference_across_frames() {
        let ch = selective_channel(303);
        let det = geosphere_decoder();
        for workers in [3usize, 5] {
            let mut ws = FrameWorkspace::new();
            // Reuse one pool for several frames, including a shorter one
            // (fewer OFDM symbols, so fewer jobs than the buffers hold).
            for payload_bits in [1024, 256, 1024] {
                let label = format!("workers {workers} payload {payload_bits}");
                assert_matches_serial(&cfg(payload_bits), &ch, &det, workers, &mut ws, &label);
                assert_eq!(ws.pool.as_ref().map(FramePool::workers), Some(workers));
            }
        }
    }

    #[test]
    fn pool_serves_changing_detectors() {
        let ch = selective_channel(304);
        let cfg = cfg(512);
        let mut ws = FrameWorkspace::new();
        assert_matches_serial(&cfg, &ch, &geosphere_decoder(), 2, &mut ws, "geosphere");
        assert_matches_serial(&cfg, &ch, &ZfDetector, 2, &mut ws, "zf");
        assert_matches_serial(&cfg, &ch, &ethsd_decoder(), 2, &mut ws, "ethsd");
        assert_matches_serial(&cfg, &ch, &geosphere_decoder(), 2, &mut ws, "geosphere again");
    }

    #[test]
    fn pool_detects_identically_pinned_and_unpinned() {
        // Affinity is a placement hint; detection results must not depend
        // on it (and pinning must not wedge the pool on any machine size).
        let ch = selective_channel(306);
        let det = geosphere_decoder();
        for pin in [true, false] {
            let mut ws = FrameWorkspace::new();
            ws.pool = Some(FramePool::on(ShardedDetectionPool::new_with_pinning(1, 3, 3, pin)));
            assert_matches_serial(&cfg(512), &ch, &det, 3, &mut ws, &format!("pin {pin}"));
        }
    }

    #[test]
    fn pool_propagates_worker_panic_instead_of_hanging() {
        /// A detector whose every detection panics.
        #[derive(Clone, Copy, Debug, PartialEq)]
        struct PanickyDetector;
        impl MimoDetector for PanickyDetector {
            fn detect(&self, _: &Matrix, _: &[Complex], _: Constellation) -> Detection {
                panic!("intentional test panic");
            }
            fn name(&self) -> &'static str {
                "panicky"
            }
        }

        let ch = selective_channel(305);
        let cfg = cfg(256);
        let mut ws = FrameWorkspace::new();
        let panics = |f: &mut dyn FnMut()| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
        };
        let mut rng = StdRng::seed_from_u64(305);
        assert!(
            panics(&mut || {
                decode_frame_batched_into(&cfg, &ch, &PanickyDetector, 18.0, &mut rng, 2, &mut ws);
            }),
            "a worker panic must surface as a coordinator panic, not a hang"
        );
        // The pool is dead; the next frame — even with a sound detector —
        // must fail fast, and dropping the workspace (joining the pool's
        // workers, dead or alive) must not hang either.
        let det = geosphere_decoder();
        assert!(
            panics(&mut || {
                decode_frame_batched_into(&cfg, &ch, &det, 18.0, &mut rng, 2, &mut ws);
            }),
            "a dead pool must refuse further frames"
        );
        drop(ws);
    }

    #[test]
    fn zero_workers_sizes_the_pool_to_the_machine() {
        let hw = geosphere_core::resolve_workers(0);
        let mut ws = FrameWorkspace::new();
        assert_matches_serial(&cfg(256), &selective_channel(307), &ZfDetector, 0, &mut ws, "0w");
        // One hardware thread decodes inline; more get a pool of that size.
        assert_eq!(ws.pool.as_ref().map_or(1, FramePool::workers), hw);
    }
}
