//! Output checks against the committed results. Every mismatch is one
//! failed cell; the benchmark's `failed / attempted` is the error rate.

use bsched_verify::{SAMPLING_CPI_TOL, SAMPLING_FLOOR_FRAC, SAMPLING_MISS_TOL, SAMPLING_STALL_TOL};
use std::collections::BTreeMap;

/// Extra slack on the miss-rate check: both sides are read from hit
/// rates printed to four decimals, each off by at most 0.00005, against
/// a denominator of at least [`SAMPLING_FLOOR_FRAC`].
const RATE_ROUNDING_SLACK: f64 = 2.0 * 0.000_05 / SAMPLING_FLOOR_FRAC;

/// Rows of `produced` that differ from `reference`, line by line, with
/// missing or extra lines counted as mismatches. The header is a row.
#[must_use]
pub fn line_mismatches(produced: &str, reference: &str) -> u64 {
    let p: Vec<&str> = produced.lines().collect();
    let r: Vec<&str> = reference.lines().collect();
    let differing = p.iter().zip(&r).filter(|(a, b)| a != b).count();
    (differing + p.len().abs_diff(r.len())) as u64
}

/// One parsed `all_experiments.csv` row.
#[derive(Debug, Clone, PartialEq)]
pub struct GridRow {
    /// The row exactly as printed.
    pub line: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Load-interlock stall cycles.
    pub load_interlock: u64,
    /// Dynamic instruction counts: total, loads, stores, branches, spills.
    pub counts: [u64; 5],
    /// L1 data-cache hit rate.
    pub l1d_hit_rate: f64,
}

/// Parses `all_experiments.csv` into rows keyed by
/// `(kernel, config, scheduler)`.
///
/// # Errors
///
/// A message naming the first malformed line.
pub fn parse_grid_csv(text: &str) -> Result<BTreeMap<(String, String, String), GridRow>, String> {
    let mut rows = BTreeMap::new();
    for line in text.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        let num = |i: usize| -> Result<u64, String> {
            f.get(i)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("malformed grid row {line:?}"))
        };
        if f.len() != 15 {
            return Err(format!("malformed grid row {line:?}"));
        }
        let row = GridRow {
            line: line.to_string(),
            cycles: num(3)?,
            load_interlock: num(4)?,
            counts: [num(9)?, num(10)?, num(11)?, num(12)?, num(13)?],
            l1d_hit_rate: f[14]
                .parse()
                .map_err(|_| format!("malformed grid row {line:?}"))?,
        };
        rows.insert((f[0].to_string(), f[1].to_string(), f[2].to_string()), row);
    }
    Ok(rows)
}

/// Parses `machines.csv` into `(ts, bs, ex)` cycles keyed by
/// `(machine, kernel)`.
///
/// # Errors
///
/// A message naming the first malformed line.
pub fn parse_zoo_csv(text: &str) -> Result<BTreeMap<(String, String), [u64; 3]>, String> {
    let mut rows = BTreeMap::new();
    for line in text.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        let num = |i: usize| -> Result<u64, String> {
            f.get(i)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("malformed machines row {line:?}"))
        };
        if f.len() != 7 {
            return Err(format!("malformed machines row {line:?}"));
        }
        rows.insert(
            (f[0].to_string(), f[1].to_string()),
            [num(2)?, num(3)?, num(4)?],
        );
    }
    Ok(rows)
}

/// The outcome of checking a sampled grid against the exact one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledCheck {
    /// Rows outside a tolerance, with inexact counts, or missing.
    pub failures: u64,
    /// Largest per-row CPI error, in percent. Instruction counts are
    /// exact, so this is the relative cycle error.
    pub cpi_err_max_pct: f64,
}

fn rel_err(estimate: f64, exact: f64, floor: f64) -> f64 {
    (estimate - exact).abs() / exact.max(floor).max(f64::MIN_POSITIVE)
}

/// Checks a sampled grid CSV against the exact committed one:
/// instruction counts must match exactly, and cycles, load interlocks
/// and L1D misses must stay within the `bsched_verify::SAMPLING_*`
/// tolerances (with the same denominator floors).
///
/// # Errors
///
/// Either CSV is malformed.
pub fn check_sampled(produced: &str, reference: &str) -> Result<SampledCheck, String> {
    let exact = parse_grid_csv(reference)?;
    let sampled = parse_grid_csv(produced)?;
    let mut failures = exact.keys().filter(|k| !sampled.contains_key(*k)).count() as u64;
    let mut cpi_err_max = 0.0f64;
    for (key, s) in &sampled {
        let Some(e) = exact.get(key) else {
            failures += 1;
            continue;
        };
        let cpi = rel_err(s.cycles as f64, e.cycles as f64, 0.0);
        cpi_err_max = cpi_err_max.max(cpi);
        let stall = rel_err(
            s.load_interlock as f64,
            e.load_interlock as f64,
            e.cycles as f64 * SAMPLING_FLOOR_FRAC,
        );
        let miss = rel_err(
            1.0 - s.l1d_hit_rate,
            1.0 - e.l1d_hit_rate,
            SAMPLING_FLOOR_FRAC,
        );
        if s.counts != e.counts
            || cpi > SAMPLING_CPI_TOL
            || stall > SAMPLING_STALL_TOL
            || miss > SAMPLING_MISS_TOL + RATE_ROUNDING_SLACK
        {
            failures += 1;
        }
    }
    Ok(SampledCheck {
        failures,
        cpi_err_max_pct: 100.0 * cpi_err_max,
    })
}
