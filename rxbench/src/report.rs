//! Order statistics, process probes, and the result line.

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values (an empty sample) read as 0.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit }
    }
}

/// The value at quantile `q` of `v` by the nearest-rank rule (`0` for an
/// empty sample). Sorts `v`.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `v` (mean of the middle pair for even lengths). Sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// CPU accounting over an interval: this process's CPU time, and the
/// time the hypervisor stole from the guest's vCPUs while they had work.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    /// CPU time of the whole process (all threads, live and exited), s.
    pub process_s: f64,
    /// `steal` of `/proc/stat` over all CPUs, s.
    pub steal_s: f64,
}

impl CpuTimes {
    /// The counters now; zero steal where `/proc` is missing.
    pub fn now() -> Self {
        CpuTimes { process_s: process_cpu_ns() as f64 * 1e-9, steal_s: guest_steal_s() }
    }

    /// The counters' growth since `self`.
    pub fn since(self) -> Self {
        self.until(CpuTimes::now())
    }

    /// The counters' growth from `self` to `later`.
    pub fn until(self, later: CpuTimes) -> Self {
        CpuTimes {
            process_s: later.process_s - self.process_s,
            steal_s: later.steal_s - self.steal_s,
        }
    }

    /// Share of the CPU time the process wanted that it got. The guest
    /// runs nothing else, so the steal is taken from this process.
    pub fn kept_share(self) -> f64 {
        let wanted = self.process_s + self.steal_s;
        if wanted > 0.0 {
            self.process_s / wanted
        } else {
            1.0
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// A CPU-time clock in ns, by its Linux clock id (`0` if the call fails).
fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the layout matches the C struct on 64-bit Linux.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the whole process, all threads (`CLOCK_PROCESS_CPUTIME_ID`), ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(2)
}

/// CPU time of the calling thread (`CLOCK_THREAD_CPUTIME_ID`), ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(3)
}

fn guest_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.strip_prefix("cpu ")?;
            cpu.split_whitespace().nth(7)?.parse::<u64>().ok()
        })
        .map_or(0.0, |ticks| ticks as f64 / 100.0)
}

/// Peak resident set (`VmHWM`) in MiB; `0` where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`. Values print with
/// every digit Rust's shortest round-trip formatting gives.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(median(&mut v), 50.5);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[Metric::new("a_ms", 1.5, "ms")]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"a_ms": {"value": 1.5, "unit": "ms"}}}"#
        );
    }

    #[test]
    fn proc_probes_read_something_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (t0, p0) = (thread_cpu_ns(), process_cpu_ns());
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        assert!(thread_cpu_ns() > t0 && process_cpu_ns() > p0, "{x}");
    }
}
