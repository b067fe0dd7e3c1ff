//! Host-speed calibration for the single-threaded CPU-bound workloads.
//!
//! The reference host is shared: its speed drifts by 10–30% between
//! processes and over minutes (see README.md), far more than the bounds
//! a regression check needs. A fixed kernel owned by the benchmark — no
//! code of the program under test — is timed between the workload's
//! operations, and the workload's times are scaled by how much slower
//! or faster the kernel ran than on the reference host. A change to the
//! program moves only the workload's side of the ratio.

use crate::stats::{median, ms_since};
use std::time::{Duration, Instant};

/// The kernel's median time on the reference host (ms).
pub const KERNEL_REF_MS: f64 = 0.6;

/// Entries of the kernel's table: 64 KB, on the stack, so the kernel
/// neither allocates nor depends on the heap the program left behind.
const TABLE: usize = 16 * 1024;

/// Dependent loads through a random cycle of a cache-resident table,
/// mixed with integer arithmetic: the shape of the prover's and the
/// engine's inner loops, without their code.
fn kernel() -> u64 {
    let mut next = [0u32; TABLE];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    // Sattolo's algorithm: one cycle through every entry.
    for (i, slot) in next.iter_mut().enumerate() {
        *slot = i as u32;
    }
    for i in (1..TABLE).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    let (mut at, mut acc) = (0usize, 0u64);
    for _ in 0..8 * TABLE {
        at = next[at] as usize;
        acc = acc.wrapping_mul(31).wrapping_add(at as u64);
    }
    acc
}

/// Times the kernel, run twice so that the timed run starts warm
/// whatever the workload did before it.
pub fn kernel_ms() -> f64 {
    std::hint::black_box(kernel());
    let t = Instant::now();
    std::hint::black_box(kernel());
    ms_since(t)
}

/// Least time between two kernel runs inside a timed window: the
/// kernel evicts the workload's cache lines, so it must run rarely
/// enough not to slow the rounds it sits between.
const SAMPLE_EVERY: Duration = Duration::from_millis(250);

/// Kernel timings taken through one run.
#[derive(Debug, Default)]
pub struct Calibration {
    samples_ms: Vec<f64>,
    last: Option<Instant>,
}

impl Calibration {
    pub fn sample(&mut self) {
        self.samples_ms.push(kernel_ms());
        self.last = Some(Instant::now());
    }

    /// Samples unless the last sample is recent.
    pub fn sample_now_and_then(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= SAMPLE_EVERY) {
            self.sample();
        }
    }

    /// How much faster than the reference host this run's host was:
    /// multiply a measured time by this to get reference-host time.
    pub fn factor(&self) -> f64 {
        if self.samples_ms.is_empty() {
            return 1.0;
        }
        KERNEL_REF_MS / median(&self.samples_ms)
    }

    pub fn median_ms(&self) -> f64 {
        median(&self.samples_ms)
    }
}
