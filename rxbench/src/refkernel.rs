//! The frozen reference kernel that calibrates the benchmark's timings.
//!
//! The machines this benchmark runs on change speed under it: on a 2-vCPU
//! KVM guest, a frame's receive time moved by ±25% from one second to the
//! next while nothing in the process changed, because whatever shares the
//! physical core competes for its execution ports and its L1/L2 caches.
//! Dividing each frame's time by the time of a fixed kernel measured just
//! before that frame cancels most of that, and multiplying by [`R0_US`]
//! turns the ratio back into milliseconds "at reference speed".
//!
//! The kernel mixes the two things the receiver's speed was seen to depend
//! on, each about half of its nominal time: a chain of complex rotations
//! with a data-dependent branch per lane (port contention) and a pointer
//! chase through a 32 KiB table (L1 contention). On that guest the mix
//! tracked frame time with a correlation of 0.94–0.99 over 0.5 s windows,
//! where either part alone tracked it at 0.65–0.89 and a dependent
//! floating-point chain (clock speed alone) at 0.29–0.66.
//!
//! **Frozen.** The kernel body, its constants, the table, and [`R0_US`]
//! must never change: every calibrated number is relative to them. The
//! kernel's state is sixteen `f64`s, a few integers, and the L1-sized
//! table, which the first of the back-to-back runs of a sample reloads, so
//! the receiver's own cache footprint cannot slow the sample and hide a
//! regression. Running it never allocates.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Nominal kernel time in µs that calibrated timings are scaled to.
pub const R0_US: f64 = 20.0;

const LANES: usize = 8;
const ROUNDS: usize = 384;
const TABLE: usize = 8192;
const CHASE_STEPS: usize = 4000;
/// Back-to-back runs per sample; the sample is their minimum, which
/// drops an interrupt that lands inside one run.
const REPS: usize = 2;

/// The pointer-chase table: one random cycle through all entries.
fn table() -> &'static [u32] {
    static T: OnceLock<Vec<u32>> = OnceLock::new();
    T.get_or_init(|| {
        let mut order: Vec<u32> = (0..TABLE as u32).collect();
        let mut x = 0x1234_5678_9abc_def1u64;
        for i in (1..TABLE).rev() {
            x = xorshift(x);
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; TABLE];
        for i in 0..TABLE {
            next[order[i] as usize] = order[(i + 1) % TABLE];
        }
        next
    })
}

/// One run of the kernel over `table`.
#[inline(never)]
fn kernel(seed: u64, table: &[u32]) -> u64 {
    // Part 1: rotations with a data-dependent branch per lane.
    let mut re = [0.0f64; LANES];
    let mut im = [0.0f64; LANES];
    let mut x = seed | 1;
    for j in 0..LANES {
        x = xorshift(x);
        re[j] = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64) - 0.5;
        x = xorshift(x);
        im[j] = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64) - 0.5;
    }
    // Rotation by 0.1 rad.
    let (c, s) = (0.995_004_165_278_025_8, 0.099_833_416_646_828_15);
    let mut acc = 0u64;
    for _ in 0..ROUNDS {
        for j in 0..LANES {
            let (a, b) = (re[j], im[j]);
            re[j] = a * c - b * s + 1e-4 * im[(j + 1) % LANES];
            im[j] = a * s + b * c;
            if re[j] > im[j] {
                acc = acc.wrapping_add(x);
                x = xorshift(x);
            } else {
                acc ^= acc >> 7;
            }
        }
    }
    // Part 2: pointer chase through the table.
    let mut i = (acc % table.len() as u64) as usize;
    for _ in 0..CHASE_STEPS {
        i = table[i] as usize;
    }
    acc ^ i as u64
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Times the kernel: the minimum of [`REPS`] back-to-back runs, in ns.
pub fn sample_ns() -> u64 {
    let t = table();
    let mut best = u64::MAX;
    for r in 0..REPS {
        let start = Instant::now();
        black_box(kernel(black_box(0x5eed + r as u64), black_box(t)));
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best.max(1)
}

/// Scales a raw duration in ns to ms at reference speed, given the kernel
/// time `ref_ns` measured alongside it.
pub fn calibrated_ms(raw_ns: u64, ref_ns: u64) -> f64 {
    raw_ns as f64 / ref_ns as f64 * R0_US * 1e-3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_a_pure_function_of_its_seed() {
        assert_eq!(kernel(7, table()), kernel(7, table()));
        assert_ne!(kernel(7, table()), kernel(8, table()));
    }

    #[test]
    fn table_is_one_cycle() {
        let t = table();
        let (mut i, mut steps) = (0usize, 0);
        loop {
            i = t[i] as usize;
            steps += 1;
            if i == 0 {
                break;
            }
        }
        assert_eq!(steps, TABLE);
    }

    #[test]
    fn calibration_is_a_plain_ratio() {
        // A frame that takes 100 kernel times reads 100 · R0 µs.
        let ms = calibrated_ms(100 * 25_000, 25_000);
        assert!((ms - 100.0 * R0_US * 1e-3).abs() < 1e-12);
    }
}
