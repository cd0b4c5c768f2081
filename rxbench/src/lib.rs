//! # rxbench
//!
//! The Geosphere receiver's benchmark. It drives the receiver from
//! outside, only through public calls — gs-phy's staged `FrameWorkspace`
//! API and `decode_frame_batched_into`, geosphere-core's
//! `MimoDetector::detect_batch_with`, and gs-runtime's `FrameStream` —
//! on inputs it generates from a workload seed, checks the outputs against
//! the serial reference decoder, and reports end-to-end metrics (untraced
//! run) or per-layer metrics and spans (traced run). See `README.md` for
//! the workloads, the metrics, and why timings are calibrated.

pub mod closed;
pub mod refkernel;
pub mod report;
pub mod stream;
pub mod trace;
pub mod workload;

use geosphere_core::DetectorStats;
use report::{median, peak_rss_mb, CpuTimes, Metric};
use std::time::Instant;
use trace::Trace;
use workload::Workload;

/// Times a run builds its receiver objects; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;
/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// Measured seconds (closed loops run at least `COUNTED_FRAMES`
    /// frames whatever this says).
    pub seconds: f64,
    /// Traced run: per-layer metrics and spans instead of end-to-end
    /// metrics.
    pub trace: bool,
}

/// Counts over the first `COUNTED_FRAMES` frames: a pure function of the
/// workload seed, so they must repeat exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExactCounts {
    /// Frames counted.
    pub frames: u64,
    /// Client frames counted (frames × clients).
    pub client_frames: u64,
    /// Client frames whose CRC verified.
    pub crc_ok: u64,
    /// Detector counts summed over the counted frames.
    pub stats: DetectorStats,
    /// Detector invocations over the counted frames.
    pub detections: u64,
}

impl ExactCounts {
    /// Adds one frame of `clients` client frames.
    fn add(&mut self, clients: usize, ok_mask: u32, stats: DetectorStats, detections: u64) {
        self.frames += 1;
        self.client_frames += clients as u64;
        self.crc_ok += u64::from(ok_mask.count_ones());
        self.stats += stats;
        self.detections += detections;
    }
}

/// One set-up: the channel pool, then the receiver objects on it.
#[derive(Clone, Copy, Debug)]
pub struct SetupSample {
    /// Wall time building the seeded channel pool, ns.
    pub pool_ns: u64,
    /// Wall time building and warming up the receiver objects, ns.
    pub rx_ns: u64,
    /// Mean of the kernel times measured just before and just after.
    pub ref_ns: u64,
}

impl SetupSample {
    /// The whole set-up at reference speed, s.
    fn calibrated_s(&self) -> f64 {
        refkernel::calibrated_ms(self.pool_ns + self.rx_ns, self.ref_ns) * 1e-3
    }
}

/// Sets the workload up [`SETUP_REPS`] times, timing each part and the
/// reference kernel around them: the seeded channel pool (the simulated
/// radio environment), then the receiver objects built and warmed up on
/// it. Keeps the last set-up.
fn timed_setups<P, T>(
    mut pool: impl FnMut() -> P,
    mut build: impl FnMut(&P) -> T,
) -> (P, T, Vec<SetupSample>) {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let r0 = refkernel::sample_ns();
        let t = Instant::now();
        let p = pool();
        let pool_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let built = build(&p);
        let rx_ns = t.elapsed().as_nanos() as u64;
        let r1 = refkernel::sample_ns();
        samples.push(SetupSample { pool_ns, rx_ns, ref_ns: (r0 + r1) / 2 });
        kept = Some((p, built));
    }
    let (p, built) = kept.expect("SETUP_REPS is positive");
    (p, built, samples)
}

/// Nanoseconds since `epoch`.
fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// What a workload runner measured.
#[derive(Default)]
pub struct RunOutput {
    /// Frames offered or decoded.
    pub attempted: u64,
    /// Frames that failed: output-check mismatches, refused or undelivered
    /// frames.
    pub failed: u64,
    /// The exact counters.
    pub exact: ExactCounts,
    /// Every set-up of the run.
    pub setup: Vec<SetupSample>,
    /// Timing end-to-end metrics (the rest are added by [`run`]).
    pub e2e: Vec<Metric>,
    /// Layer timing metrics (traced run).
    pub layer: Vec<Metric>,
    /// gs-runtime metrics (traced run).
    pub runtime: Vec<Metric>,
    /// Median reference-kernel time, µs.
    pub ref_kernel_us: f64,
    /// Uncalibrated median of the workload's headline per-frame time, ms.
    pub raw_p50_ms: f64,
    /// Calibrated p99 of the per-frame time, ms (traced run only: its
    /// seed-to-seed spread is too wide to gate on).
    pub p99_ms: f64,
    /// CPU accounting over the timed part.
    pub cpu: CpuTimes,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub trace: Trace,
}

impl RunOutput {
    fn new(attempted: u64, failed: u64, exact: ExactCounts) -> Self {
        RunOutput { attempted, failed, exact, ..Default::default() }
    }
}

/// A finished run: the result line's fields plus what goes around it.
pub struct Report {
    /// No output check failed.
    pub correct: bool,
    /// Frames attempted.
    pub attempted: u64,
    /// Frames failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The exact counters.
    pub exact: ExactCounts,
    /// Lines printed ahead of the result.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub trace: Trace,
}

/// Runs one workload and assembles its metrics.
pub fn run(opts: &Options) -> Report {
    let out = match opts.workload {
        Workload::StreamWindow => stream::run(opts),
        _ => closed::run(opts),
    };
    let e = out.exact;
    let mut cal_setup: Vec<f64> = out.setup.iter().map(SetupSample::calibrated_s).collect();
    let mut raw_setup: Vec<f64> =
        out.setup.iter().map(|s| (s.pool_ns + s.rx_ns) as f64 * 1e-9).collect();
    let cal_part = |f: fn(&SetupSample) -> u64| {
        median(
            &mut out
                .setup
                .iter()
                .map(|s| refkernel::calibrated_ms(f(s), s.ref_ns))
                .collect::<Vec<_>>(),
        )
    };
    let pool_setup_ms = cal_part(|s| s.pool_ns);
    let rx_setup_ms = cal_part(|s| s.rx_ns);

    let mut notes = vec![
        format!(
            "workload={} seed={} seconds={} trace={} simd={} nproc={} frames={}",
            opts.workload.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            gs_linalg::simd::active_tier().name(),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            out.attempted,
        ),
        format!(
            "raw: ref_kernel_us={:.3} p50_ms={:.4} setup_s={:.5} (calibrated to R0={} us); cpu_s={:.2} stolen_s={:.2}",
            out.ref_kernel_us,
            out.raw_p50_ms,
            median(&mut raw_setup),
            refkernel::R0_US,
            out.cpu.process_s,
            out.cpu.steal_s,
        ),
        format!(
            "exact: frames={} client_frames={} crc_ok={} detections={} peds={} visited={} bound_prunes={}",
            e.frames,
            e.client_frames,
            e.crc_ok,
            e.detections,
            e.stats.ped_calcs,
            e.stats.visited_nodes,
            e.stats.bound_prunes
        ),
    ];
    notes.push(format!(
        "set-up (calibrated medians): channel pool {pool_setup_ms:.2} ms, receiver objects and warm-up {rx_setup_ms:.2} ms"
    ));
    for var in ["GS_SIMD", "GS_NO_PIN"] {
        if let Some(v) = std::env::var_os(var) {
            notes.push(format!(
                "WARNING: {var}={} is set; do not compare this run with runs made without it",
                v.to_string_lossy()
            ));
        }
    }
    notes.extend(out.notes);

    let metrics = if opts.trace {
        let mut m = out.layer;
        m.push(Metric::new("rx.setup_ms", rx_setup_ms, "ms"));
        m.extend(closed::counter_metrics(&e));
        m.extend(out.runtime);
        m.extend([
            Metric::new("bench.ref_kernel_us", out.ref_kernel_us, "us"),
            Metric::new("bench.rx_ms_raw", out.raw_p50_ms, "ms"),
            Metric::new("bench.latency_p99_ms", out.p99_ms, "ms"),
        ]);
        m
    } else {
        let mut m = vec![Metric::new("setup_s", median(&mut cal_setup), "s")];
        m.extend(out.e2e);
        m.push(Metric::new(
            "crc_ok_ratio",
            e.crc_ok as f64 / e.client_frames.max(1) as f64,
            "ratio",
        ));
        m.push(Metric::new("rss_mb", peak_rss_mb(), "MiB"));
        m
    };

    Report {
        correct: out.failed == 0,
        attempted: out.attempted.max(1),
        failed: out.failed,
        metrics,
        exact: e,
        notes,
        trace: out.trace,
    }
}
