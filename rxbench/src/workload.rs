//! The four workloads and every input they draw from the workload seed.
//!
//! All workloads share the paper's 802.11 shape (rate-1/2 code, 48
//! subcarriers, 2048-bit payloads). Frame `k` flies through channel
//! `k mod CHANNEL_POOL` of a seeded pool of indoor frequency-selective
//! Rayleigh realizations, and draws its payloads and noise from
//! [`frame_seed`]`(seed, k)`. The receiver only ever sees these generated
//! inputs.

use gs_channel::{ChannelModel, MimoChannel, SelectiveRayleighChannel};
use gs_modulation::Constellation;
use gs_phy::PhyConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Distinct channel realizations per run. Large enough that the median
/// frame cost moves little from one seed's pool to the next.
pub const CHANNEL_POOL: usize = 4096;

/// Frames whose exact counters (`crc_ok_ratio`, PEDs, visited nodes) a
/// closed-loop run reports. Every run decodes at least this many, so the
/// counters are a pure function of the seed.
pub const COUNTED_FRAMES: usize = 1024;

/// The workloads, in the order the documentation lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 4 clients × 4 antennas, 64-QAM, 24 dB, staged API on one thread.
    Dense4x4,
    /// 2 × 2, 16-QAM, 20 dB, staged API on one thread.
    Pair2x2,
    /// `Dense4x4` frames through a `FrameStream`, a fixed window in flight.
    StreamWindow,
}

/// The radio shape of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// AP antennas.
    pub antennas: usize,
    /// Simultaneous clients (spatial streams).
    pub clients: usize,
    /// Constellation on every subcarrier.
    pub constellation: Constellation,
    /// Operating SNR in dB.
    pub snr_db: f64,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Dense4x4, Workload::Pair2x2, Workload::StreamWindow];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Dense4x4 => "dense_4x4",
            Workload::Pair2x2 => "pair_2x2",
            Workload::StreamWindow => "stream_window",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The radio shape.
    pub fn shape(self) -> Shape {
        match self {
            Workload::Pair2x2 => {
                Shape { antennas: 2, clients: 2, constellation: Constellation::Qam16, snr_db: 20.0 }
            }
            _ => {
                Shape { antennas: 4, clients: 4, constellation: Constellation::Qam64, snr_db: 24.0 }
            }
        }
    }

    /// The workload's frozen per-frame deadline in calibrated ms: the
    /// limit `on_time_ratio` counts against, and (converted to raw time at
    /// each frame's measured speed) the deadline `stream_window` hands the
    /// runtime. Each sits in the workload's tail as first measured (about
    /// p94 on `dense_4x4`, p96 on `stream_window`, p99 on `pair_2x2`, whose
    /// narrow tail is mostly machine noise): far enough out that the
    /// ratio's run-to-run spread stays well inside its bound, near enough
    /// that a slowdown moves it. Never change it: `on_time_ratio` is
    /// comparable across changes only against a fixed limit.
    pub fn deadline_ms(self) -> f64 {
        match self {
            Workload::Dense4x4 => 3.8,
            Workload::Pair2x2 => 3.2,
            Workload::StreamWindow => 13.5,
        }
    }

    /// The PHY configuration (the paper's §4 defaults for the shape's
    /// constellation).
    pub fn phy(self) -> PhyConfig {
        PhyConfig::new(self.shape().constellation)
    }
}

/// SplitMix64 finalizer: decorrelates derived seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derived-seed streams, so that channels, frames, warm-up frames and the
/// check sample never share random numbers.
#[derive(Clone, Copy)]
pub enum Stream {
    /// The channel pool.
    Channels = 1,
    /// Timed frames.
    Frames = 2,
    /// Warm-up frames.
    Warmup = 3,
    /// Which frames the output check re-decodes.
    Check = 4,
}

/// A seed for item `k` of `stream` under the workload seed.
pub fn derive(seed: u64, stream: Stream, k: u64) -> u64 {
    mix(mix(seed ^ mix(stream as u64)) ^ k)
}

/// The payload-and-noise seed of timed frame `k`.
pub fn frame_seed(seed: u64, k: usize) -> u64 {
    derive(seed, Stream::Frames, k as u64)
}

/// The seeded channel pool for a shape.
pub fn channel_pool(shape: Shape, seed: u64) -> Vec<Arc<MimoChannel>> {
    let model = SelectiveRayleighChannel::indoor(shape.antennas, shape.clients);
    let mut rng = StdRng::seed_from_u64(derive(seed, Stream::Channels, 0));
    (0..CHANNEL_POOL).map(|_| Arc::new(model.realize(&mut rng))).collect()
}

/// A seeded sample of `n` distinct indices below `upto` (all of them when
/// `upto <= n`), ascending.
pub fn check_sample(seed: u64, upto: usize, n: usize) -> Vec<usize> {
    if upto <= n {
        return (0..upto).collect();
    }
    let mut rng = StdRng::seed_from_u64(derive(seed, Stream::Check, 0));
    let mut picked = Vec::with_capacity(n);
    while picked.len() < n {
        let k = rng.gen_range(0..upto);
        if !picked.contains(&k) {
            picked.push(k);
        }
    }
    picked.sort_unstable();
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_sample_is_distinct_and_in_range() {
        let s = check_sample(9, 1000, 32);
        assert_eq!(s.len(), 32);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(*s.last().unwrap() < 1000);
        assert_eq!(check_sample(9, 5, 32), vec![0, 1, 2, 3, 4]);
    }
}
