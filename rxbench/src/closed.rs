//! The closed-loop workloads: one frame at a time on the calling thread,
//! the next frame only after the previous one is decoded.
//!
//! `dense_4x4` and `pair_2x2` drive gs-phy's staged `FrameWorkspace` API
//! and geosphere-core's `detect_batch_with`: plan (the simulated
//! transmitter and channel, harness work) is untimed, detect and recover
//! are timed. Before every frame the reference kernel is timed, and each
//! frame's time is calibrated by it (see [`crate::refkernel`]).
//!
//! Their traced runs also decode a few hundred frames through
//! `decode_frame_batched_into` with two workers ([`pool_probe`]), the one
//! path onto geosphere-core's persistent `DetectionPool`.

use crate::refkernel::{self, calibrated_ms};
use crate::report::{median, process_cpu_ns, quantile, thread_cpu_ns, CpuTimes, Metric};
use crate::trace::Trace;
use crate::workload::{
    channel_pool, check_sample, derive, frame_seed, Stream, Workload, CHANNEL_POOL, COUNTED_FRAMES,
};
use crate::{ns_since, timed_setups, ExactCounts, Options, RunOutput};
use geosphere_core::{
    geosphere_decoder, Detection, DetectionBatch, DetectorStats, DetectorWorkspace,
    GeosphereDecoder, MimoDetector,
};
use gs_channel::MimoChannel;
use gs_phy::{decode_frame_batched_into, uplink_frame_with_csi_into, FrameWorkspace, PhyConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untimed frames each receiver object decodes during set-up, so every
/// workspace reaches its allocation-free steady state before timing.
const WARMUP_FRAMES: usize = 4;
/// Frames the output check re-decodes through the serial reference path.
pub(crate) const CHECK_FRAMES: usize = 32;
/// Frames a traced run also sends down the path its timed part does not
/// take: through the staged API on `stream_window`, whose timed path
/// hides the layers, and through a `FrameStream` on the closed loops.
pub(crate) const PROBE_FRAMES: usize = 128;
/// Frames a traced run decodes through the `DetectionPool` path.
const POOL_FRAMES: usize = 256;
/// `DetectionPool` workers: `nproc` on the 2-vCPU machines this
/// benchmark was built on.
const POOL_WORKERS: usize = 2;

/// One frame's timestamps (ns from the run epoch) and outcome.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FrameRec {
    /// Plan start, plan end, timed start, detect→recover split, timed end.
    pub marks: [u64; 5],
    /// Reference-kernel time measured just before the timed part.
    pub ref_ns: u64,
    /// CPU time of the calling thread over the timed part, ns.
    pub cpu_ns: u64,
    /// Bit `c` set when client `c`'s CRC verified.
    pub ok_mask: u32,
    /// Detector counts over the frame.
    pub stats: DetectorStats,
    /// Detector invocations in the frame.
    pub detections: u64,
}

impl FrameRec {
    fn plan_ns(&self) -> u64 {
        self.marks[1] - self.marks[0]
    }
    fn detect_ns(&self) -> u64 {
        self.marks[3] - self.marks[2]
    }
    fn recover_ns(&self) -> u64 {
        self.marks[4] - self.marks[3]
    }
    fn rx_ns(&self) -> u64 {
        self.marks[4] - self.marks[2]
    }
    fn n_ok(&self) -> u64 {
        u64::from(self.ok_mask.count_ones())
    }
}

/// Bit `c` set when client `c`'s CRC verified.
pub(crate) fn ok_mask(client_ok: &[bool]) -> u32 {
    client_ok.iter().enumerate().fold(0, |m, (c, &ok)| m | (u32::from(ok) << c))
}

/// Receiver state for the staged API: the frame workspace plus the
/// detector's batch scratch and output buffer.
#[derive(Default)]
pub(crate) struct Staged {
    ws: FrameWorkspace,
    det_ws: DetectorWorkspace,
    det_out: Vec<Detection>,
}

impl Staged {
    /// Decodes one frame stage by stage: `plan_uplink` (untimed harness
    /// work), the reference kernel, `detect_batch_with`, then
    /// `begin_detection_assembly`/`absorb_detection`/`finish_uplink`.
    pub(crate) fn frame(
        &mut self,
        cfg: &PhyConfig,
        det: &GeosphereDecoder,
        ch: &MimoChannel,
        snr_db: f64,
        seed: u64,
        epoch: Instant,
    ) -> FrameRec {
        let Staged { ws, det_ws, det_out } = self;
        let mut rng = StdRng::seed_from_u64(seed);
        let m0 = ns_since(epoch);
        ws.plan_uplink(cfg, ch, snr_db, &mut rng);
        let m1 = ns_since(epoch);
        let ref_ns = refkernel::sample_ns();
        let c0 = thread_cpu_ns();
        let m2 = ns_since(epoch);
        let batch = DetectionBatch {
            channels: ws.planned_channels(),
            jobs: ws.planned_jobs(),
            c: cfg.constellation,
        };
        det.detect_batch_with(&batch, det_ws, det_out);
        let m3 = ns_since(epoch);
        ws.begin_detection_assembly();
        let mut stats = DetectorStats::default();
        for (idx, d) in det_out.iter().enumerate() {
            ws.absorb_detection(&mut stats, idx, d);
        }
        let out = ws.finish_uplink(cfg, stats);
        let m4 = ns_since(epoch);
        let cpu_ns = thread_cpu_ns() - c0;
        FrameRec {
            marks: [m0, m1, m2, m3, m4],
            ref_ns,
            cpu_ns,
            ok_mask: ok_mask(&out.client_ok),
            stats: out.stats,
            detections: out.detections,
        }
    }
}

/// The receiver objects one closed-loop run decodes with.
struct Rig {
    det: GeosphereDecoder,
    staged: Staged,
}

impl Rig {
    /// Builds the receiver objects and warms them up on `pool`.
    fn build(w: Workload, pool: &[Arc<MimoChannel>], seed: u64) -> Rig {
        let mut rig = Rig { det: geosphere_decoder(), staged: Staged::default() };
        let epoch = Instant::now();
        for i in 0..WARMUP_FRAMES {
            rig.frame(w, pool, i, derive(seed, Stream::Warmup, i as u64), epoch);
        }
        rig
    }

    /// Decodes frame `k` (channel `k mod CHANNEL_POOL`) through the staged
    /// API.
    fn frame(
        &mut self,
        w: Workload,
        pool: &[Arc<MimoChannel>],
        k: usize,
        seed: u64,
        epoch: Instant,
    ) -> FrameRec {
        let ch = &pool[k % CHANNEL_POOL];
        self.staged.frame(&w.phy(), &self.det, ch, w.shape().snr_db, seed, epoch)
    }
}

/// The serial reference decode of one frame (`uplink_frame_with_csi_into`,
/// genie CSI): its CRC mask and detector counts.
fn reference_frame(
    cfg: &PhyConfig,
    det: &GeosphereDecoder,
    ch: &MimoChannel,
    snr_db: f64,
    seed: u64,
    ws: &mut FrameWorkspace,
) -> (u32, DetectorStats) {
    let mut rng = StdRng::seed_from_u64(seed);
    let out = uplink_frame_with_csi_into(cfg, ch, None, det, snr_db, &mut rng, ws);
    (ok_mask(&out.client_ok), out.stats)
}

/// Decodes frames `0..POOL_FRAMES` of workload `w` through
/// `decode_frame_batched_into(.., POOL_WORKERS, ..)`, whose detect stage
/// runs on geosphere-core's persistent `DetectionPool`, each call
/// calibrated by a reference-kernel sample taken just before it. Returns
/// the pool's layer metrics and the number of frames whose CRC verdicts or
/// detector counts differ from `expect(k)`, the timed run's outcome of the
/// same frame (`None`: not delivered, already counted as failed).
pub(crate) fn pool_probe(
    w: Workload,
    seed: u64,
    pool: &[Arc<MimoChannel>],
    expect: impl Fn(usize) -> Option<(u32, DetectorStats)>,
) -> (Vec<Metric>, u64) {
    let cfg = w.phy();
    let snr_db = w.shape().snr_db;
    let det = geosphere_decoder();
    let mut ws = FrameWorkspace::new();
    // Warm-up: the first call starts the pool's threads.
    for i in 0..WARMUP_FRAMES {
        let mut rng = StdRng::seed_from_u64(derive(seed, Stream::Warmup, i as u64));
        let ch = &pool[i % CHANNEL_POOL];
        decode_frame_batched_into(&cfg, ch, &det, snr_db, &mut rng, POOL_WORKERS, &mut ws);
    }
    let mut call_ms = Vec::with_capacity(POOL_FRAMES);
    let mut cpu_ms = 0.0;
    let mut mismatches = 0;
    for k in 0..POOL_FRAMES {
        let mut rng = StdRng::seed_from_u64(frame_seed(seed, k));
        let ch = &pool[k % CHANNEL_POOL];
        let ref_ns = refkernel::sample_ns();
        let c0 = process_cpu_ns();
        let t = Instant::now();
        let out =
            decode_frame_batched_into(&cfg, ch, &det, snr_db, &mut rng, POOL_WORKERS, &mut ws);
        let wall_ns = t.elapsed().as_nanos() as u64;
        let cpu_ns = process_cpu_ns() - c0;
        call_ms.push(calibrated_ms(wall_ns, ref_ns));
        cpu_ms += calibrated_ms(cpu_ns, ref_ns);
        if expect(k).is_some_and(|e| e != (ok_mask(&out.client_ok), out.stats)) {
            mismatches += 1;
        }
    }
    let metrics = vec![
        Metric::new("core.pool_call_ms", median(&mut call_ms), "ms"),
        Metric::new("core.pool_cpu_ms", cpu_ms / POOL_FRAMES as f64, "ms"),
    ];
    (metrics, mismatches)
}

/// Calibrated per-frame-time quantiles and how `on_time_ratio` would read
/// if every frame were 10% slower: the limit's sensitivity.
pub(crate) fn deadline_note(w: Workload, times_ms: &[f64], attempted: usize) -> String {
    let limit = w.deadline_ms();
    let mut v = times_ms.to_vec();
    let q = |v: &mut [f64], p| quantile(v, p);
    let slower = times_ms.iter().filter(|&&t| t * 1.1 <= limit).count();
    format!(
        "calibrated per-frame ms: p50={:.3} p90={:.3} p95={:.3} p99={:.3}; deadline {limit} ms; on_time_ratio if 10% slower {:.4}",
        q(&mut v, 0.5),
        q(&mut v, 0.9),
        q(&mut v, 0.95),
        q(&mut v, 0.99),
        slower as f64 / attempted.max(1) as f64,
    )
}

/// Per-layer timing metrics from staged-API records: calibrated medians
/// of plan, detect and recover, and the detect/recover shares of their
/// summed time.
pub(crate) fn layer_timings(recs: &[FrameRec]) -> Vec<Metric> {
    let cal = |f: &dyn Fn(&FrameRec) -> u64| -> Vec<f64> {
        recs.iter().map(|r| calibrated_ms(f(r), r.ref_ns)).collect()
    };
    let detect: u64 = recs.iter().map(FrameRec::detect_ns).sum();
    let recover: u64 = recs.iter().map(FrameRec::recover_ns).sum();
    let rx = (detect + recover).max(1) as f64;
    vec![
        Metric::new("phy.plan_ms", median(&mut cal(&FrameRec::plan_ns)), "ms"),
        Metric::new("core.detect_ms", median(&mut cal(&FrameRec::detect_ns)), "ms"),
        Metric::new("core.detect_share", detect as f64 / rx, "ratio"),
        Metric::new("phy.recover_ms", median(&mut cal(&FrameRec::recover_ns)), "ms"),
        Metric::new("phy.recover_share", recover as f64 / rx, "ratio"),
    ]
}

/// The paper's per-subcarrier work counters.
pub(crate) fn counter_metrics(e: &ExactCounts) -> Vec<Metric> {
    let per_sc = |v: u64| v as f64 / e.detections.max(1) as f64;
    vec![
        Metric::new("core.peds_per_sc", per_sc(e.stats.ped_calcs), "count"),
        Metric::new("core.visited_per_sc", per_sc(e.stats.visited_nodes), "count"),
        Metric::new("core.bound_prunes_per_sc", per_sc(e.stats.bound_prunes), "count"),
    ]
}

/// Runs one closed-loop workload.
pub(crate) fn run(opts: &Options) -> RunOutput {
    let w = opts.workload;
    let shape = w.shape();
    let cfg = w.phy();

    let (pool, mut rig, setup) =
        timed_setups(|| channel_pool(shape, opts.seed), |pool| Rig::build(w, pool, opts.seed));

    let epoch = Instant::now();
    let cpu0 = CpuTimes::now();
    let end = epoch + Duration::from_secs_f64(opts.seconds);
    let mut recs: Vec<FrameRec> = Vec::with_capacity(16_384);
    while recs.len() < COUNTED_FRAMES || Instant::now() < end {
        let k = recs.len();
        recs.push(rig.frame(w, &pool, k, frame_seed(opts.seed, k), epoch));
    }
    let cpu = cpu0.since();

    // Output checks, outside the timed region: a seeded sample of frames
    // re-decoded through the serial reference path must match exactly.
    let mut failed = 0;
    let mut ref_ws = FrameWorkspace::new();
    for k in check_sample(opts.seed, recs.len(), CHECK_FRAMES) {
        let ch = &pool[k % CHANNEL_POOL];
        let seed = frame_seed(opts.seed, k);
        let (mask, stats) = reference_frame(&cfg, &rig.det, ch, shape.snr_db, seed, &mut ref_ws);
        if mask != recs[k].ok_mask || stats != recs[k].stats {
            failed += 1;
        }
    }

    let mut exact = ExactCounts::default();
    for r in &recs[..COUNTED_FRAMES] {
        exact.add(shape.clients, r.ok_mask, r.stats, r.detections);
    }
    let n = recs.len();
    let mut cal: Vec<f64> = recs.iter().map(|r| calibrated_ms(r.rx_ns(), r.ref_ns)).collect();
    let cal_total_s: f64 = cal.iter().sum::<f64>() * 1e-3;
    let ok_bits: u64 = recs.iter().map(|r| r.n_ok() * cfg.payload_bits as u64).sum();
    let on_time = cal.iter().filter(|&&ms| ms <= w.deadline_ms()).count();
    let cpu_ms: f64 = recs.iter().map(|r| calibrated_ms(r.cpu_ns, r.ref_ns)).sum();
    let ref_med_ns = median(&mut recs.iter().map(|r| r.ref_ns as f64).collect::<Vec<_>>());
    let mut raw_rx: Vec<f64> = recs.iter().map(|r| r.rx_ns() as f64 * 1e-6).collect();

    let mut out = RunOutput::new(n as u64, failed, exact);
    out.cpu = cpu;
    out.setup = setup;
    out.notes = vec![deadline_note(w, &cal, n)];
    out.e2e = vec![
        Metric::new("latency_p50_ms", median(&mut cal.clone()), "ms"),
        // Time the host stole from the guest is removed from the sum.
        Metric::new(
            "goodput_mbps",
            ok_bits as f64 / (cal_total_s * cpu.kept_share()) / 1e6,
            "Mbit/s",
        ),
        Metric::new("on_time_ratio", on_time as f64 / n as f64, "ratio"),
        // The receiving thread's CPU time over the timed part alone.
        Metric::new("cpu_ms_per_frame", cpu_ms / n as f64, "ms"),
    ];
    out.p99_ms = quantile(&mut cal, 0.99);
    out.ref_kernel_us = ref_med_ns * 1e-3;
    out.raw_p50_ms = median(&mut raw_rx);

    if opts.trace {
        // Every per-layer metric is reported on every workload, so the
        // traced run also takes the two paths this loop does not: the
        // `DetectionPool` and a `FrameStream`.
        out.layer.extend(layer_timings(&recs));
        let (pool_metrics, mismatches) =
            pool_probe(w, opts.seed, &pool, |k| Some((recs[k].ok_mask, recs[k].stats)));
        out.layer.extend(pool_metrics);
        out.failed += mismatches;
        let (runtime, undelivered) = crate::stream::runtime_probe(w, &pool, opts.seed);
        out.runtime = runtime;
        out.failed += undelivered;
        out.trace = frame_spans(&recs);
    }
    out
}

/// One root span per frame, one child per public call.
fn frame_spans(recs: &[FrameRec]) -> Trace {
    let mut t = Trace::default();
    for (k, r) in recs.iter().enumerate() {
        let m = r.marks;
        let counts = vec![
            ("ped_calcs", r.stats.ped_calcs as f64),
            ("visited_nodes", r.stats.visited_nodes as f64),
            ("bound_prunes", r.stats.bound_prunes as f64),
            ("detections", r.detections as f64),
        ];
        let root = t.root(k as u64, m[0], m[4]);
        t.child(root, "plan_uplink", m[0], m[1], Vec::new());
        t.child(root, "detect_batch_with", m[2], m[3], counts);
        t.child(root, "recover", m[3], m[4], vec![("crc_ok", r.n_ok() as f64)]);
    }
    t
}
