//! Host facts and seed derivation.

use camelot_ff::{RngLike, SplitMix64};
use std::sync::OnceLock;
use std::time::Instant;

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Marks the process start (call first thing in `main`); later calls
/// keep the first mark.
pub fn mark_process_start() -> Instant {
    *PROCESS_START.get_or_init(Instant::now)
}

/// Logical cores the host offers this process.
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process (`VmHWM`) in MiB; 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A derived seed for stream `stream`, item `index` of the run seeded
/// `seed`: every input of a run is a pure function of its seed.
#[must_use]
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut rng = SplitMix64::new(
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ index.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    );
    rng.next_u64()
}

/// A seeded generator for stream `stream`, item `index`.
#[must_use]
pub fn rng(seed: u64, stream: u64, index: u64) -> SplitMix64 {
    SplitMix64::new(derive(seed, stream, index))
}
