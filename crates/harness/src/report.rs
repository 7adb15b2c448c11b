//! Structured run reports: what the engine did and where the time went.

use bsched_core::ExactStats;
use std::time::Duration;

/// Writes `text` to stderr as one `write_all` on the locked handle, so
/// a multi-line report cannot interleave with lines written by other
/// threads. The binaries render everything first (run report, trace
/// summary, diagnostics) and emit the buffer through here — under high
/// `BSCHED_JOBS` the per-line `eprintln!` path produced torn reports.
pub fn emit_stderr(text: &str) {
    use std::io::Write as _;
    let stderr = std::io::stderr();
    let mut locked = stderr.lock();
    let _ = locked.write_all(text.as_bytes());
    let _ = locked.flush();
}

/// One executed (cache-missing) cell's timing.
#[derive(Debug, Clone)]
pub struct CellTiming {
    /// `kernel/label` of the cell.
    pub cell: String,
    /// Wall time of the compile+simulate for this cell.
    pub wall: Duration,
}

/// Aggregate observability data for every `Engine::run` so far.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Cells requested across all `run` calls (before deduplication).
    pub requested: u64,
    /// Duplicates removed within request batches.
    pub deduplicated: u64,
    /// Cells answered from the in-memory store.
    pub memory_hits: u64,
    /// Cells answered from the on-disk cache.
    pub disk_hits: u64,
    /// Cells actually executed (cache misses).
    pub executed: u64,
    /// Compiles run for the executed cells: one per group of cells that
    /// differ only in the simulated machine.
    pub compiles: u64,
    /// Cells whose conformance suite passed (executed under `--verify`,
    /// or served from a cache entry that was verified when computed).
    pub verified: u64,
    /// Conformance violations found (a nonzero count always accompanies
    /// a run failure — violations are errors, not warnings).
    pub violations: u64,
    /// Iterations completed by the pipeline fuzzer, when one ran.
    pub fuzz_iterations: u64,
    /// Worker count used for parallel batches.
    pub workers: usize,
    /// Label of the simulation engine executing cells (empty when the
    /// engine was never configured, e.g. in unit tests).
    pub sim_engine: String,
    /// Label of the simulation mode (`exact`, or `sampled(<spec>)`;
    /// empty when the engine was never configured).
    pub sim_mode: String,
    /// Intervals profiled across executed sampled cells.
    pub sample_intervals: u64,
    /// Clusters (phases) found across executed sampled cells.
    pub sample_clusters: u64,
    /// Retired instructions cycle-simulated across executed sampled
    /// cells.
    pub sampled_insts: u64,
    /// Total retired instructions across executed sampled cells (the
    /// coverage denominator).
    pub sample_total_insts: u64,
    /// Exact-search statistics aggregated over the exact-arm compiles
    /// actually run (regions searched, optima proven, budget fallbacks,
    /// nodes, and the heuristic-vs-exact issue-span costs behind "% of
    /// optimal"). Cells sharing one compile count its search once.
    pub exact: ExactStats,
    /// Busy time per worker, summed over batches.
    pub worker_busy: Vec<Duration>,
    /// Wall time spent inside parallel batches.
    pub pool_wall: Duration,
    /// Per-cell wall time of every executed cell.
    pub cell_timings: Vec<CellTiming>,
}

impl RunReport {
    /// Cache hit count (memory + disk).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }

    /// Hit fraction over unique requested cells in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let unique = self.hits() + self.executed;
        if unique == 0 {
            0.0
        } else {
            self.hits() as f64 / unique as f64
        }
    }

    /// Mean worker utilization over pool wall time.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.workers == 0 || self.pool_wall.is_zero() {
            return 0.0;
        }
        let busy: f64 = self.worker_busy.iter().map(Duration::as_secs_f64).sum();
        (busy / (self.pool_wall.as_secs_f64() * self.workers as f64)).min(1.0)
    }

    /// The `n` slowest executed cells, most expensive first.
    #[must_use]
    pub fn slowest(&self, n: usize) -> Vec<&CellTiming> {
        let mut sorted: Vec<&CellTiming> = self.cell_timings.iter().collect();
        sorted.sort_by(|a, b| b.wall.cmp(&a.wall).then_with(|| a.cell.cmp(&b.cell)));
        sorted.truncate(n);
        sorted
    }

    /// Renders the report as human-readable text (the binaries print
    /// this to stderr so stdout stays byte-deterministic). The `cells:`
    /// line names the compiles behind the executed cells (`306 executed
    /// from 51 compiles`); the `exact:` line counts each search once per
    /// compile that ran it.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "── bsched-harness run report ──");
        let _ = writeln!(
            s,
            "cells: {} requested, {} deduplicated, {} memory hits, {} disk hits, {} executed{} ({:.0}% cache hits)",
            self.requested,
            self.deduplicated,
            self.memory_hits,
            self.disk_hits,
            self.executed,
            match (self.executed, self.compiles) {
                (0, _) => String::new(),
                (_, 1) => " from 1 compile".to_string(),
                (_, n) => format!(" from {n} compiles"),
            },
            self.hit_rate() * 100.0
        );
        if self.verified > 0 || self.violations > 0 || self.fuzz_iterations > 0 {
            let _ = writeln!(
                s,
                "verification: {} cells verified, {} violations, {} fuzz iterations",
                self.verified, self.violations, self.fuzz_iterations
            );
        }
        if self.sample_total_insts > 0 {
            let _ = writeln!(
                s,
                "sampling: {} intervals, {} clusters, {}/{} insts cycle-simulated ({:.0}% coverage)",
                self.sample_intervals,
                self.sample_clusters,
                self.sampled_insts,
                self.sample_total_insts,
                self.sampled_insts as f64 / self.sample_total_insts as f64 * 100.0
            );
        }
        if self.exact.regions > 0 {
            let _ = writeln!(
                s,
                "exact: {} regions searched, {} proven, {} fallbacks, {} nodes, \
                 {:.1}% of optimal (heuristic seed {} vs exact {} issue cycles)",
                self.exact.regions,
                self.exact.proven,
                self.exact.fallbacks,
                self.exact.nodes,
                self.exact.pct_of_optimal(),
                self.exact.heuristic_cost,
                self.exact.exact_cost,
            );
        }
        if self.executed > 0 {
            if !self.sim_engine.is_empty() {
                let _ = writeln!(s, "engine: {}", self.sim_engine);
            }
            if !self.sim_mode.is_empty() && self.sim_mode != "exact" {
                let _ = writeln!(s, "mode: {}", self.sim_mode);
            }
            let total_busy: Duration = self.worker_busy.iter().sum();
            let _ = writeln!(
                s,
                "pool: {} workers, {:.3}s wall, {:.3}s busy ({:.0}% utilization)",
                self.workers,
                self.pool_wall.as_secs_f64(),
                total_busy.as_secs_f64(),
                self.utilization() * 100.0
            );
            let (hits, misses, entries) = bsched_ir::analysis::cache_stats();
            if hits + misses > 0 {
                let _ = writeln!(
                    s,
                    "dag-analysis cache: {hits} hits, {misses} misses, {entries} entries ({:.0}% shared)",
                    hits as f64 / (hits + misses) as f64 * 100.0
                );
            }
            let _ = writeln!(s, "slowest cells:");
            for t in self.slowest(5) {
                let _ = writeln!(s, "  {:>9.3}s  {}", t.wall.as_secs_f64(), t.cell);
            }
        }
        s
    }

    /// Renders and writes the report to stderr atomically (see
    /// [`emit_stderr`]).
    pub fn emit(&self) {
        emit_stderr(&self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(cell: &str, ms: u64) -> CellTiming {
        CellTiming {
            cell: cell.to_string(),
            wall: Duration::from_millis(ms),
        }
    }

    #[test]
    fn hit_rate_counts_both_cache_layers() {
        let r = RunReport {
            requested: 20,
            memory_hits: 6,
            disk_hits: 3,
            executed: 1,
            ..RunReport::default()
        };
        assert_eq!(r.hits(), 9);
        assert!((r.hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(RunReport::default().hit_rate(), 0.0);
    }

    #[test]
    fn slowest_sorts_descending_and_truncates() {
        let r = RunReport {
            cell_timings: vec![timing("a", 5), timing("b", 50), timing("c", 20)],
            ..RunReport::default()
        };
        let top: Vec<&str> = r.slowest(2).iter().map(|t| t.cell.as_str()).collect();
        assert_eq!(top, vec!["b", "c"]);
    }

    #[test]
    fn render_mentions_the_essentials() {
        let r = RunReport {
            requested: 4,
            executed: 2,
            compiles: 2,
            workers: 2,
            worker_busy: vec![Duration::from_millis(10); 2],
            pool_wall: Duration::from_millis(12),
            cell_timings: vec![timing("k/BS", 7), timing("k/TS", 3)],
            ..RunReport::default()
        };
        let text = r.render();
        assert!(
            text.contains("2 executed from 2 compiles (0% cache hits)"),
            "{text}"
        );
        let shared = RunReport {
            compiles: 1,
            ..r.clone()
        };
        assert!(shared
            .render()
            .contains("2 executed from 1 compile (0% cache hits)"));
        let warm = RunReport {
            requested: 4,
            memory_hits: 4,
            ..RunReport::default()
        };
        assert!(warm.render().contains(" 0 executed (100% cache hits)"));
        assert!(text.contains("slowest cells"));
        assert!(text.contains("k/BS"));
    }
}
