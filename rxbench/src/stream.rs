//! The streaming workload: `dense_4x4` frames through one gs-runtime
//! `FrameStream`, with a fixed window of [`WINDOW`] frames in flight.
//!
//! One thread offers frames with `try_submit` and takes completions with
//! `recv`; every completion lets the next frame in, so the stream runs
//! saturated at its sustained rate and every stage thread stays busy.
//! Latency runs from the `try_submit` call to the `recv` that returns the
//! frame. Before each submission the reference kernel is timed, and the
//! frame's latency is calibrated by it.
//!
//! An open loop at a fixed offered rate (the natural way to load a
//! stream) is not used: on a 2-vCPU guest its latency depends on how fast
//! the host wakes idle vCPUs, which no in-process reference sees, and its
//! run-to-run spread was several times any usable bound (see `README.md`).

use crate::closed::{
    deadline_note, layer_timings, ok_mask, pool_probe, Staged, CHECK_FRAMES, PROBE_FRAMES,
};
use crate::refkernel::{self, calibrated_ms, R0_US};
use crate::report::{median, process_cpu_ns, quantile, CpuTimes, Metric};
use crate::trace::Trace;
use crate::workload::{
    channel_pool, check_sample, derive, frame_seed, Stream, Workload, CHANNEL_POOL, COUNTED_FRAMES,
};
use crate::{ns_since, timed_setups, ExactCounts, Options, RunOutput};
use geosphere_core::{geosphere_decoder, DetectorStats};
use gs_channel::MimoChannel;
use gs_phy::{decode_frame_batched_into, FrameWorkspace};
use gs_runtime::{FrameStream, RuntimeStats, StreamConfig, TrySubmitError, UplinkFrame};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Source lanes (ordering domains); frame `k` goes to lane `k mod LANES`.
const LANES: usize = 4;
/// Frames in flight. Completions arrive in any lane order, so lanes hold
/// zero to `WINDOW` frames each and per-lane ordering is exercised.
const WINDOW: usize = 4;
/// Slot-pool bound. At least [`WINDOW`], so `try_submit` never refuses.
const CAPACITY: usize = 8;
/// Submissions per accounting window: goodput and CPU time per frame are
/// medians over windows, and each window's steal is measured apart.
const ACCOUNT_FRAMES: usize = 256;
/// Share of a traced run, at its start, that does no trace work: the
/// baseline for the trace-overhead note.
const UNTRACED_SHARE: f64 = 0.3;

/// Every `StreamConfig` field, fixed: one detection worker in one shard,
/// one planner, a fixed slot pool, and no pinning (so `GS_NO_PIN` cannot
/// change the run).
fn stream_config() -> StreamConfig {
    StreamConfig {
        clients: LANES,
        workers: 1,
        shards: 1,
        capacity: CAPACITY,
        planners: 1,
        pin: false,
    }
}

/// One frame's life as the driving thread saw it (ns from the epoch).
#[derive(Clone, Copy, Default)]
struct FrameLog {
    ref_ns: u64,
    /// Process CPU time just before and just after the kernel sample.
    cpu_pre_ns: u64,
    cpu_post_ns: u64,
    /// Process CPU and guest steal, read at the first submission of each
    /// accounting window.
    window_mark: Option<CpuTimes>,
    submit_start_ns: u64,
    submit_end_ns: u64,
    recv_start_ns: u64,
    recv_end_ns: u64,
    delivered: bool,
    ok_mask: u32,
    stats: DetectorStats,
    detections: u64,
    missed: bool,
    /// Detection tasks queued in the shards right after the submission
    /// (traced part only).
    queued: Option<usize>,
}

impl FrameLog {
    fn latency_ms(&self) -> f64 {
        calibrated_ms(self.recv_end_ns - self.submit_start_ns, self.ref_ns)
    }
}

/// Warm-up frames per lane: every slot decodes one frame during set-up.
fn warm_per_lane(lane: usize) -> u64 {
    (0..CAPACITY).filter(|i| i % LANES == lane).count() as u64
}

/// A stream for workload `w`'s frames over `pool`, warmed up.
fn build(w: Workload, pool: &[Arc<MimoChannel>], seed: u64) -> FrameStream {
    let stream = FrameStream::new(w.phy(), geosphere_decoder(), stream_config());
    // One warm-up frame per slot, all in flight at once, so every slot's
    // workspace reaches its allocation-free steady state.
    for i in 0..CAPACITY {
        let frame = UplinkFrame::new(
            i % LANES,
            Arc::clone(&pool[i % CHANNEL_POOL]),
            w.shape().snr_db,
            derive(seed, Stream::Warmup, i as u64),
        );
        stream.submit(frame).expect("stream died during warm-up");
    }
    for _ in 0..CAPACITY {
        drop(stream.recv().expect("stream died during warm-up"));
    }
    stream
}

/// How long [`drive`] runs, and from when it samples the detect queue.
struct DrivePlan {
    /// Zero of the log's timestamps.
    epoch: Instant,
    /// No frame is offered after this...
    end: Instant,
    /// ...once this many have been offered.
    min_frames: usize,
    /// Offers from this instant on sample the detect queue (trace work).
    sample_from: Option<Instant>,
}

/// Offers frames `0, 1, ...` of workload `w` to `stream`, [`WINDOW`] in
/// flight, and logs each frame's life.
fn drive(
    stream: &FrameStream,
    pool: &[Arc<MimoChannel>],
    w: Workload,
    seed: u64,
    plan: &DrivePlan,
) -> Vec<FrameLog> {
    let epoch = plan.epoch;
    let mut log: Vec<FrameLog> = Vec::with_capacity(16_384);
    let mut lane_ks: Vec<Vec<usize>> = vec![Vec::new(); LANES];

    // Offers the next frame; false once the stream is dead.
    let submit = |log: &mut Vec<FrameLog>, lane_ks: &mut Vec<Vec<usize>>| -> bool {
        let k = log.len();
        let window_mark = k.is_multiple_of(ACCOUNT_FRAMES).then(CpuTimes::now);
        let cpu_pre_ns = process_cpu_ns();
        let ref_ns = refkernel::sample_ns();
        let cpu_post_ns = process_cpu_ns();
        let lane = k % LANES;
        // The runtime's deadline is `stream_window`'s calibrated deadline
        // (also on the closed loops' probe) in raw time at this frame's
        // measured speed, so the runtime's miss count and the benchmark's
        // late count agree up to the time between delivery and `recv`
        // returning.
        let deadline_ms = Workload::StreamWindow.deadline_ms();
        let raw_deadline_ns = deadline_ms * 1e3 / R0_US * ref_ns as f64;
        let t0 = Instant::now();
        let frame = UplinkFrame {
            client: lane,
            channel: Arc::clone(&pool[k % CHANNEL_POOL]),
            snr_db: w.shape().snr_db,
            seed: frame_seed(seed, k),
            payload_bits: None,
            deadline: Some(t0 + Duration::from_nanos(raw_deadline_ns as u64)),
        };
        let s0 = (t0 - epoch).as_nanos() as u64;
        let r = stream.try_submit(frame);
        let s1 = ns_since(epoch);
        let queued = plan
            .sample_from
            .is_some_and(|t| Instant::now() >= t)
            .then(|| stream.stats().shard_queue_depths.iter().sum());
        log.push(FrameLog {
            ref_ns,
            cpu_pre_ns,
            cpu_post_ns,
            window_mark,
            submit_start_ns: s0,
            submit_end_ns: s1,
            queued,
            ..Default::default()
        });
        // A refusal cannot happen with `WINDOW <= CAPACITY`; a refused
        // frame stays undelivered and counts as failed.
        if r.is_ok() {
            lane_ks[lane].push(k);
        }
        !matches!(r, Err(TrySubmitError::Dead(_)))
    };

    let mut alive = (0..WINDOW).all(|_| submit(&mut log, &mut lane_ks));
    let mut received = 0;
    while alive && received < lane_ks.iter().map(Vec::len).sum::<usize>() {
        let r0 = ns_since(epoch);
        // A dead stream leaves frames undelivered: they count as failed.
        let Ok(c) = stream.recv() else { break };
        let r1 = ns_since(epoch);
        let k = lane_ks[c.client()][(c.seq() - warm_per_lane(c.client())) as usize];
        let o = c.outcome();
        let f = &mut log[k];
        f.recv_start_ns = r0;
        f.recv_end_ns = r1;
        f.delivered = true;
        f.ok_mask = ok_mask(&o.client_ok);
        f.stats = o.stats;
        f.detections = o.detections;
        f.missed = c.missed_deadline();
        drop(c);
        received += 1;
        if log.len() < plan.min_frames || Instant::now() < plan.end {
            alive = submit(&mut log, &mut lane_ks);
        }
    }
    log
}

/// One accounting window of [`ACCOUNT_FRAMES`] submissions. Within it,
/// the wall and CPU time from one submission to the next are calibrated by
/// the kernel sample taken at that submission, so each stretch is scaled
/// by the speed measured alongside it; the kernel's own CPU time is left
/// out.
struct Window {
    /// CRC-verified payload Mbit/s over the calibrated wall time.
    goodput_mbps: f64,
    /// Calibrated process CPU time per frame, ms.
    cpu_ms: f64,
    /// Share of the CPU time the process wanted that the host gave it.
    kept: f64,
}

/// The complete accounting windows of a log.
fn windows(log: &[FrameLog], payload_bits: usize) -> Vec<Window> {
    let mut out = Vec::new();
    // A window needs the next window's first submission to close it.
    for start in (0..log.len()).step_by(ACCOUNT_FRAMES) {
        let end = start + ACCOUNT_FRAMES;
        let (Some(a), Some(b)) = (log[start].window_mark, log.get(end).and_then(|f| f.window_mark))
        else {
            break;
        };
        let (mut wall_ms, mut cpu_ms, mut ok_bits) = (0.0, 0.0, 0);
        for k in start..end {
            let (f, next) = (&log[k], &log[k + 1]);
            wall_ms += calibrated_ms(next.submit_start_ns - f.submit_start_ns, f.ref_ns);
            cpu_ms += calibrated_ms(next.cpu_pre_ns - f.cpu_post_ns, f.ref_ns);
            ok_bits += u64::from(f.ok_mask.count_ones()) * payload_bits as u64;
        }
        out.push(Window {
            goodput_mbps: ok_bits as f64 / (wall_ms * 1e3),
            cpu_ms: cpu_ms / ACCOUNT_FRAMES as f64,
            kept: a.until(b).kept_share(),
        });
    }
    out
}

/// gs-runtime's layer metrics over a driven log.
fn runtime_metrics(log: &[FrameLog], rt: &RuntimeStats) -> Vec<Metric> {
    let mut submit_us: Vec<f64> =
        log.iter().map(|f| (f.submit_end_ns - f.submit_start_ns) as f64 * 1e-3).collect();
    let (wait_ns, waits) =
        rt.queue_wait_per_shard.iter().fold((0, 0), |(s, c), h| (s + h.sum(), c + h.count()));
    let sampled: Vec<f64> = log.iter().filter_map(|f| f.queued.map(|v| v as f64)).collect();
    vec![
        Metric::new("runtime.submit_us", median(&mut submit_us), "us"),
        Metric::new("runtime.queue_wait_ms", wait_ns as f64 * 1e-6 / waits.max(1) as f64, "ms"),
        Metric::new(
            "runtime.detect_queue_mean",
            sampled.iter().sum::<f64>() / sampled.len().max(1) as f64,
            "count",
        ),
        Metric::new("runtime.deadline_misses", rt.deadline_misses as f64, "count"),
    ]
}

/// The traced run of a closed loop, whose timed path has no runtime,
/// streams [`PROBE_FRAMES`] of its frames through a stream configured
/// like `stream_window`'s: gs-runtime's layer metrics on that workload's
/// frames, and the number of frames the stream failed to deliver.
pub(crate) fn runtime_probe(
    w: Workload,
    pool: &[Arc<MimoChannel>],
    seed: u64,
) -> (Vec<Metric>, u64) {
    let stream = build(w, pool, seed);
    let epoch = Instant::now();
    let plan = DrivePlan { epoch, end: epoch, min_frames: PROBE_FRAMES, sample_from: Some(epoch) };
    let log = drive(&stream, pool, w, seed, &plan);
    let undelivered = log.iter().filter(|f| !f.delivered).count() as u64;
    (runtime_metrics(&log, &stream.stats()), undelivered)
}

/// Runs the streaming workload.
pub(crate) fn run(opts: &Options) -> RunOutput {
    let w = opts.workload;
    let shape = w.shape();
    let cfg = w.phy();

    let (pool, stream, setup) =
        timed_setups(|| channel_pool(shape, opts.seed), |pool| build(w, pool, opts.seed));

    let epoch = Instant::now();
    let plan = DrivePlan {
        epoch,
        end: epoch + Duration::from_secs_f64(opts.seconds),
        min_frames: COUNTED_FRAMES,
        sample_from: opts
            .trace
            .then(|| epoch + Duration::from_secs_f64(opts.seconds * UNTRACED_SHARE)),
    };
    let cpu0 = CpuTimes::now();
    let log = drive(&stream, &pool, w, opts.seed, &plan);
    let cpu = cpu0.since();
    let rt = stream.stats();
    drop(stream);
    let n = log.len();
    let mut failed = log.iter().filter(|f| !f.delivered).count() as u64;

    // Output checks: a seeded sample of frames re-decoded through
    // `decode_frame_batched_into` with the frame's seed must match the
    // stream's outcome exactly.
    let det = geosphere_decoder();
    let mut ws = FrameWorkspace::new();
    let mut probe = Vec::new();
    let mut probe_ws = Staged::default();
    let n_check = if opts.trace { PROBE_FRAMES } else { CHECK_FRAMES };
    for k in check_sample(opts.seed, n, n_check) {
        let ch = &pool[k % CHANNEL_POOL];
        let seed = frame_seed(opts.seed, k);
        let f = &log[k];
        if f.delivered {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = decode_frame_batched_into(&cfg, ch, &det, shape.snr_db, &mut rng, 1, &mut ws);
            if ok_mask(&out.client_ok) != f.ok_mask || out.stats != f.stats {
                failed += 1;
            }
        }
        if opts.trace {
            probe.push(probe_ws.frame(&cfg, &det, ch, shape.snr_db, seed, epoch));
        }
    }

    let mut exact = ExactCounts::default();
    for f in &log[..COUNTED_FRAMES.min(n)] {
        exact.add(shape.clients, f.ok_mask, f.stats, f.detections);
    }

    let windows = windows(&log, cfg.payload_bits);
    let delivered: Vec<&FrameLog> = log.iter().filter(|f| f.delivered).collect();
    // Time the host stole from the guest is removed from latency and
    // goodput. With a fixed number of frames in flight, latency is that
    // number over throughput (Little's law), and throughput scales with
    // the CPU time the host gives, so each frame's latency is scaled by
    // the kept share of its window.
    let kept_at = |k: usize| windows.get(k / ACCOUNT_FRAMES).map_or(cpu.kept_share(), |w| w.kept);
    let lat: Vec<f64> =
        (0..n).filter(|&k| log[k].delivered).map(|k| log[k].latency_ms() * kept_at(k)).collect();
    let on_time = lat.iter().filter(|&&l| l <= w.deadline_ms()).count();
    let goodput_mbps =
        median(&mut windows.iter().map(|w| w.goodput_mbps / w.kept).collect::<Vec<_>>());
    let cpu_ms_per_frame = median(&mut windows.iter().map(|w| w.cpu_ms).collect::<Vec<_>>());
    let wall_s = (log.iter().map(|f| f.recv_end_ns).max().unwrap_or(0) as f64 * 1e-9).max(1e-9);

    let mut out = RunOutput::new(n as u64, failed, exact);
    out.cpu = cpu;
    out.setup = setup;
    out.p99_ms = quantile(&mut lat.clone(), 0.99);
    out.ref_kernel_us = median(&mut log.iter().map(|f| f.ref_ns as f64 * 1e-3).collect::<Vec<_>>());
    out.raw_p50_ms = median(
        &mut delivered
            .iter()
            .map(|f| (f.recv_end_ns - f.submit_start_ns) as f64 * 1e-6)
            .collect::<Vec<_>>(),
    );
    out.e2e = vec![
        Metric::new("latency_p50_ms", median(&mut lat.clone()), "ms"),
        Metric::new("goodput_mbps", goodput_mbps, "Mbit/s"),
        Metric::new("on_time_ratio", on_time as f64 / n.max(1) as f64, "ratio"),
        Metric::new("cpu_ms_per_frame", cpu_ms_per_frame, "ms"),
    ];
    out.notes = vec![
        deadline_note(w, &lat, n),
        format!(
            "stream: {:.1} frames/s raw; late frames (benchmark) {}; deadline misses (runtime) {}",
            n as f64 / wall_s,
            n - on_time,
            rt.deadline_misses
        ),
    ];

    if opts.trace {
        // Every per-layer metric is reported on every workload, so the
        // traced run also decodes some of this workload's frames through
        // the staged API (above) and the `DetectionPool`.
        out.layer.extend(layer_timings(&probe));
        let (pool_metrics, mismatches) = pool_probe(w, opts.seed, &pool, |k| {
            log[k].delivered.then_some((log[k].ok_mask, log[k].stats))
        });
        out.layer.extend(pool_metrics);
        out.failed += mismatches;
        out.runtime = runtime_metrics(&log, &rt);
        // The traced part samples the detect queue after each submission;
        // the first `UNTRACED_SHARE` of the run does not.
        let split = log.iter().position(|f| f.queued.is_some()).unwrap_or(n);
        let p50 = |fs: &[FrameLog]| {
            median(
                &mut fs
                    .iter()
                    .filter(|f| f.delivered)
                    .map(FrameLog::latency_ms)
                    .collect::<Vec<_>>(),
            )
        };
        out.notes.push(format!(
            "trace overhead (traced over untraced median latency): {:.4}",
            p50(&log[split..]) / p50(&log[..split])
        ));
        out.trace = frame_spans(&log);
    }
    out
}

/// Per delivered frame: a root span from `try_submit` to the return of
/// the `recv` that delivered it, with both calls as children.
fn frame_spans(log: &[FrameLog]) -> Trace {
    let mut t = Trace::default();
    for (k, f) in log.iter().enumerate().filter(|(_, f)| f.delivered) {
        let root = t.root(k as u64, f.submit_start_ns, f.recv_end_ns);
        let submit_args = f.queued.map(|v| vec![("detect_queue", v as f64)]).unwrap_or_default();
        t.child(root, "try_submit", f.submit_start_ns, f.submit_end_ns, submit_args);
        t.child(
            root,
            "recv",
            f.recv_start_ns.max(f.submit_end_ns),
            f.recv_end_ns,
            vec![
                ("ped_calcs", f.stats.ped_calcs as f64),
                ("visited_nodes", f.stats.visited_nodes as f64),
                ("bound_prunes", f.stats.bound_prunes as f64),
                ("detections", f.detections as f64),
                ("crc_ok", f64::from(f.ok_mask.count_ones())),
                ("missed_deadline", f64::from(u8::from(f.missed))),
            ],
        );
    }
    t
}
