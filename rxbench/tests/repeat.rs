//! The exact counters and `crc_ok_ratio` are a pure function of the
//! workload seed: two runs of the same seed must report them bit for bit,
//! on every workload, whatever the timing did. Each run decodes the
//! counted frames (about 1000), so run these with `--release`.

use rxbench::workload::Workload;
use rxbench::{run, Options, Report};

fn short_run(workload: Workload, seed: u64) -> Report {
    // The closed loops and the stream decode at least the counted frames
    // however short the timed part is.
    run(&Options { workload, seed, seconds: 0.05, trace: false })
}

fn crc_ok_ratio(r: &Report) -> f64 {
    r.metrics.iter().find(|m| m.name == "crc_ok_ratio").expect("crc_ok_ratio reported").value
}

#[test]
fn exact_counters_repeat_on_every_workload() {
    for w in Workload::ALL {
        let a = short_run(w, 7);
        let b = short_run(w, 7);
        assert!(a.correct && b.correct, "{}: output checks failed", w.name());
        assert_eq!(a.failed, 0, "{}", w.name());
        assert!(a.exact.frames > 0 && a.exact.stats.ped_calcs > 0, "{}", w.name());
        assert_eq!(a.exact, b.exact, "{}: exact counters differ between runs", w.name());
        assert_eq!(
            crc_ok_ratio(&a).to_bits(),
            crc_ok_ratio(&b).to_bits(),
            "{}: crc_ok_ratio differs between runs",
            w.name()
        );
    }
}

#[test]
fn the_seed_changes_the_inputs() {
    let a = short_run(Workload::Pair2x2, 7);
    let b = short_run(Workload::Pair2x2, 8);
    assert_ne!(a.exact.stats, b.exact.stats);
}

#[test]
fn the_stream_counts_the_same_work_as_the_staged_api() {
    // stream_window decodes the dense_4x4 frames through the runtime.
    let dense = short_run(Workload::Dense4x4, 3);
    assert_eq!(short_run(Workload::StreamWindow, 3).exact, dense.exact);
}

#[test]
fn every_end_to_end_metric_is_reported_and_positive() {
    for w in Workload::ALL {
        let r = short_run(w, 5);
        let names: Vec<_> = r.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "latency_p50_ms",
                "goodput_mbps",
                "on_time_ratio",
                "cpu_ms_per_frame",
                "crc_ok_ratio",
                "rss_mb"
            ],
            "{}",
            w.name()
        );
        for m in &r.metrics {
            assert!(m.value > 0.0 && m.value.is_finite(), "{} {}: {}", w.name(), m.name, m.value);
        }
    }
}

#[test]
fn the_traced_run_reports_every_per_layer_metric() {
    for w in Workload::ALL {
        let r = run(&Options { workload: w, seed: 5, seconds: 0.05, trace: true });
        assert!(r.correct && r.failed == 0, "{}: output checks failed", w.name());
        let names: Vec<_> = r.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "phy.plan_ms",
                "core.detect_ms",
                "core.detect_share",
                "phy.recover_ms",
                "phy.recover_share",
                "core.pool_call_ms",
                "core.pool_cpu_ms",
                "rx.setup_ms",
                "core.peds_per_sc",
                "core.visited_per_sc",
                "core.bound_prunes_per_sc",
                "runtime.submit_us",
                "runtime.queue_wait_ms",
                "runtime.detect_queue_mean",
                "runtime.deadline_misses",
                "bench.ref_kernel_us",
                "bench.rx_ms_raw",
                "bench.latency_p99_ms"
            ],
            "{}",
            w.name()
        );
        assert!(!r.trace.spans.is_empty(), "{}", w.name());
    }
}
