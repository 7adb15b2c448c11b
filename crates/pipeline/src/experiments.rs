//! The experiment grid of the paper's evaluation.

use crate::options::CompileOptions;
use bsched_core::SchedulerKind;

/// The optimization combinations evaluated in the paper (Tables 4–9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConfigKind {
    /// No ILP-increasing optimization.
    #[default]
    Base,
    /// Loop unrolling by the factor.
    Lu(u32),
    /// Trace scheduling plus loop unrolling by the factor (§5.2: trace
    /// scheduling is always paired with unrolling).
    TrsLu(u32),
    /// Locality analysis alone.
    La,
    /// Locality analysis plus loop unrolling.
    LaLu(u32),
    /// Locality analysis plus trace scheduling plus loop unrolling.
    LaTrsLu(u32),
}

impl ConfigKind {
    /// Builds the compile options for this configuration under a
    /// scheduler.
    #[must_use]
    pub fn options(self, scheduler: SchedulerKind) -> CompileOptions {
        let base = CompileOptions::new(scheduler);
        match self {
            ConfigKind::Base => base,
            ConfigKind::Lu(f) => base.with_unroll(f),
            ConfigKind::TrsLu(f) => base.with_unroll(f).with_trace(),
            ConfigKind::La => base.with_locality(),
            ConfigKind::LaLu(f) => base.with_unroll(f).with_locality(),
            ConfigKind::LaTrsLu(f) => base.with_unroll(f).with_trace().with_locality(),
        }
    }

    /// Short label (`LU 4`, `TrS+LU 8`, …) as the paper's tables use.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            ConfigKind::Base => "none".to_string(),
            ConfigKind::Lu(f) => format!("LU {f}"),
            ConfigKind::TrsLu(f) => format!("TrS+LU {f}"),
            ConfigKind::La => "LA".to_string(),
            ConfigKind::LaLu(f) => format!("LA+LU {f}"),
            ConfigKind::LaTrsLu(f) => format!("LA+TrS+LU {f}"),
        }
    }
}

/// A (scheduler, optimization set) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExperimentConfig {
    /// The scheduler under test.
    pub scheduler: SchedulerKind,
    /// The optimization combination.
    pub kind: ConfigKind,
}

impl ExperimentConfig {
    /// The compile options for this experiment.
    #[must_use]
    pub fn options(&self) -> CompileOptions {
        self.kind.options(self.scheduler)
    }
}

/// The full standard grid: {TS, BS} × {none, LU4, LU8, TrS+LU4, TrS+LU8}
/// plus BS × {LA, LA+LU4, LA+LU8, LA+TrS+LU4, LA+TrS+LU8}.
/// (Locality analysis has no traditional-scheduling counterpart, §5.4.)
#[must_use]
pub fn standard_grid() -> Vec<ExperimentConfig> {
    let mut grid = Vec::new();
    for scheduler in [SchedulerKind::Traditional, SchedulerKind::Balanced] {
        for kind in [
            ConfigKind::Base,
            ConfigKind::Lu(4),
            ConfigKind::Lu(8),
            ConfigKind::TrsLu(4),
            ConfigKind::TrsLu(8),
        ] {
            grid.push(ExperimentConfig { scheduler, kind });
        }
    }
    for kind in [
        ConfigKind::La,
        ConfigKind::LaLu(4),
        ConfigKind::LaLu(8),
        ConfigKind::LaTrsLu(4),
        ConfigKind::LaTrsLu(8),
    ] {
        grid.push(ExperimentConfig {
            scheduler: SchedulerKind::Balanced,
            kind,
        });
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_fifteen_configs() {
        let g = standard_grid();
        assert_eq!(g.len(), 15);
        assert_eq!(
            g.iter()
                .filter(|c| c.scheduler == SchedulerKind::Traditional)
                .count(),
            5
        );
        // No TS+LA combination exists.
        assert!(!g.iter().any(|c| c.scheduler == SchedulerKind::Traditional
            && matches!(
                c.kind,
                ConfigKind::La | ConfigKind::LaLu(_) | ConfigKind::LaTrsLu(_)
            )));
    }

    #[test]
    fn labels_are_unique() {
        let g = standard_grid();
        let labels: std::collections::HashSet<String> =
            g.iter().map(|c| c.options().label()).collect();
        assert_eq!(labels.len(), g.len());
    }
}
