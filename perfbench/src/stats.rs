//! Samples, quantiles and the result line.

use crate::alloc;
use crate::calib::{self, Calibration};
use std::time::Instant;

/// The latency recorded for an operation that failed or was shed: it
/// misses every latency limit.
pub const FAILED_MS: f64 = 1e9;

/// The value at quantile `q` (nearest rank) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
}

/// The median over rounds of each round's median. A round repeats the
/// same operations, so a pooled median of an even number of operation
/// classes would fall in the gap between two classes and take its
/// value from the extremes of one; the per-round median takes the
/// midpoint of the gap instead.
pub fn median_of_rounds(ops: &[(u64, f64)]) -> f64 {
    let mut rounds: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(round, ms) in ops {
        rounds.entry(round).or_default().push(ms);
    }
    let medians: Vec<f64> = rounds.values().map(|v| median(v)).collect();
    median(&medians)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What one end-to-end run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds taken by each repetition of the set-up.
    pub setup_s: Vec<f64>,
    /// Round and latency (ms) of every attempted operation.
    pub lat_ms: Vec<(u64, f64)>,
    /// Those of the workload's costly class.
    pub hard_ms: Vec<(u64, f64)>,
    /// Units of work done (obligations, statements, requests).
    pub work: f64,
    /// Seconds the work took.
    pub busy_s: f64,
    pub failed: u64,
    /// The largest live heap of each round (MB), the benchmark's own
    /// sample buffers left out.
    pub round_peaks_mb: Vec<f64>,
    /// Wrong answers; any makes the run incorrect.
    pub errors: Vec<String>,
    /// Host-speed calibration, for the single-threaded CPU-bound
    /// workloads; its factor scales every time (`peak_heap_mb` aside).
    pub calibration: Option<Calibration>,
    /// Operations in the last round, the room reserved for the next.
    round_ops: usize,
}

impl Measured {
    /// A run whose times are scaled to the reference host.
    pub fn calibrated() -> Measured {
        Measured {
            calibration: Some(Calibration::default()),
            ..Measured::default()
        }
    }

    /// Records the latency (or the failure) of one operation of round
    /// `round`.
    pub fn op(&mut self, round: u64, ms: Option<f64>, hard: bool) {
        let ms = ms.unwrap_or_else(|| {
            self.failed += 1;
            FAILED_MS
        });
        self.lat_ms.push((round, ms));
        if hard {
            self.hard_ms.push((round, ms));
        }
    }

    /// Bytes the sample buffers hold; reserved between rounds, so they
    /// stay put within one.
    fn own_bytes(&self) -> usize {
        (self.lat_ms.capacity() + self.hard_ms.capacity()) * std::mem::size_of::<(u64, f64)>()
            + self.round_peaks_mb.capacity() * std::mem::size_of::<f64>()
    }

    fn reserve(&mut self, ops: usize) {
        self.lat_ms.reserve(ops);
        self.hard_ms.reserve(ops);
        self.round_peaks_mb.reserve(1);
        alloc::reset_peak();
    }

    /// Opens the timed window, whose rounds have up to `ops` operations.
    pub fn start_window(&mut self, ops: usize) {
        self.round_ops = ops;
        self.reserve(ops);
    }

    /// Closes a round: records its heap high-water mark, times the
    /// calibration kernel, and makes room for the next round's samples,
    /// all before the next mark starts.
    pub fn end_round(&mut self) {
        let peak = alloc::peak_bytes().saturating_sub(self.own_bytes());
        self.round_peaks_mb.push(peak as f64 / (1024.0 * 1024.0));
        if let Some(c) = &mut self.calibration {
            c.sample_now_and_then();
        }
        self.reserve(self.round_ops);
    }

    /// The end-to-end metrics, with the tail taken at quantile `tail_q`.
    pub fn finish(self, tail_q: f64) -> RunResult {
        let f = self.calibration.as_ref().map_or(1.0, Calibration::factor);
        let all: Vec<f64> = self.lat_ms.iter().map(|op| op.1).collect();
        let raw = [
            median(&self.setup_s),
            self.work / self.busy_s,
            median_of_rounds(&self.lat_ms),
            quantile(&all, tail_q),
            median_of_rounds(&self.hard_ms),
        ];
        let metrics = vec![
            Metric::new("setup_s", raw[0] * f, "s"),
            Metric::new("work_per_s", raw[1] / f, "1/s"),
            Metric::new("p50_ms", raw[2] * f, "ms"),
            Metric::new("tail_ms", raw[3] * f, "ms"),
            Metric::new("hard_p50_ms", raw[4] * f, "ms"),
            Metric::new("peak_heap_mb", median(&self.round_peaks_mb), "MB"),
        ];
        let q = |q: f64| quantile(&all, q);
        eprintln!(
            "perfbench: {} operations ({} hard, {} failed), tail = p{}; \
             latency ms p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} p95 {:.3} p99 {:.3}",
            self.lat_ms.len(),
            self.hard_ms.len(),
            self.failed,
            tail_q * 100.0,
            q(0.1),
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.9),
            q(0.95),
            q(0.99)
        );
        if let Some(c) = &self.calibration {
            eprintln!(
                "perfbench: calibration kernel {:.4} ms (reference {} ms), factor {f:.4}; \
                 uncalibrated setup_s {:.6} work_per_s {:.3} p50_ms {:.4} tail_ms {:.4} hard_p50_ms {:.4}",
                c.median_ms(),
                calib::KERNEL_REF_MS,
                raw[0],
                raw[1],
                raw[2],
                raw[3],
                raw[4]
            );
        }
        RunResult {
            errors: self.errors,
            attempted: self.lat_ms.len() as u64,
            failed: self.failed,
            metrics,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// One run's result line.
#[derive(Debug, Default)]
pub struct RunResult {
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; JSON has no infinities, so a non-finite value is clamped.
fn json_number(v: f64) -> String {
    let v = if v.is_finite() { v } else { FAILED_MS };
    let s = format!("{v:?}");
    s.strip_suffix(".0").map_or(s.clone(), str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(median(&v), 50.5);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn failures_count_and_miss_every_limit() {
        let mut m = Measured::default();
        m.op(0, Some(1.0), false);
        m.op(0, None, true);
        assert_eq!(m.lat_ms.len(), 2);
        assert_eq!(m.failed, 1);
        assert_eq!(m.hard_ms, vec![(0, FAILED_MS)]);
    }

    #[test]
    fn round_medians_take_the_middle_of_a_gap() {
        // Two classes per round, far apart: the pooled lower median
        // would be the slowest sample of the fast class.
        let ops: Vec<(u64, f64)> = (0..10)
            .flat_map(|r| [(r, 1.0 + r as f64 / 100.0), (r, 9.0)])
            .collect();
        assert!((median_of_rounds(&ops) - 5.0225).abs() < 1e-9);
    }

    #[test]
    fn result_line_is_json() {
        let r = RunResult {
            attempted: 3,
            metrics: vec![
                Metric::new("p50_ms", 1.25, "ms"),
                Metric::new("n", 4.0, "count"),
            ],
            ..RunResult::default()
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"n\": {\"value\": 4, \"unit\": \"count\"}}}"
        );
    }
}
