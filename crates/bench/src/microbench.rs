//! A tiny std-only microbenchmark helper for the `cargo bench` targets.
//!
//! Each target is a plain `harness = false` binary; the helper
//! auto-calibrates an iteration count so every sample runs long enough
//! to measure, takes a handful of samples, and reports the median —
//! robust against one-off scheduling noise without any external
//! dependency.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples collected per benchmark.
const SAMPLES: usize = 11;

/// Target wall time per sample during calibration.
const TARGET_SAMPLE: Duration = Duration::from_millis(20);

/// Measurement outcome of one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Median wall time of one call.
    pub median: Duration,
    /// Fastest observed per-call time.
    pub min: Duration,
    /// Calls per sample after calibration.
    pub iters: u64,
}

/// Runs `f` under the calibrate/sample/median procedure and prints a
/// one-line summary (`name ... median min iters`).
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> Measurement {
    // Calibration: time a single call, then pick an iteration count that
    // fills the target sample duration (at least one call per sample).
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let iters = (TARGET_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        samples.push(t0.elapsed() / u32::try_from(iters).expect("iters fits in u32"));
    }
    samples.sort();
    let m = Measurement {
        median: samples[SAMPLES / 2],
        min: samples[0],
        iters,
    };
    println!(
        "{name:<48} {:>12}  (min {}, {} iters/sample)",
        fmt_duration(m.median),
        fmt_duration(m.min),
        m.iters
    );
    m
}

/// Formats a duration with an adaptive unit.
#[must_use]
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        let m = bench("noop", || 1 + 1);
        assert!(m.iters >= 1);
        assert!(m.min <= m.median);
    }

    #[test]
    fn durations_format_with_adaptive_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert!(fmt_duration(Duration::from_micros(123)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(123)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(123)).ends_with("s"));
    }
}
