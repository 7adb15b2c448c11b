//! The in-memory result store: one process-wide memo of executed cells.
//!
//! A single `RwLock<HashMap>` keyed by the cell's canonical key. Only
//! the thread that calls [`crate::Engine::run_where`] or
//! [`crate::Engine::result`] touches it — the caller in the batch
//! binaries, the single dispatcher in `bsched-serve` — while pool
//! workers return their results by index and never see the store. So
//! there is no contention to spread; the read lock still lets
//! concurrent readers share a warm lookup.
//!
//! Hit/miss counters are relaxed atomics so the serving layer can report
//! warm-cache effectiveness without taking the lock.

use crate::cell::ExperimentCell;
use crate::engine::CellResult;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// A thread-safe map from canonical cell key to result.
#[derive(Debug, Default)]
pub struct ResultStore {
    map: RwLock<HashMap<String, CellResult>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        ResultStore::default()
    }

    /// Looks up a cell (read lock only).
    #[must_use]
    pub fn get(&self, cell: &ExperimentCell) -> Option<CellResult> {
        let found = self
            .map
            .read()
            .expect("store poisoned")
            .get(cell.canonical_key())
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Whether the cell is present (does not touch the hit counters).
    #[must_use]
    pub fn contains(&self, cell: &ExperimentCell) -> bool {
        self.map
            .read()
            .expect("store poisoned")
            .contains_key(cell.canonical_key())
    }

    /// Inserts (or overwrites — results are deterministic, so a race
    /// between equal cells is harmless) a result.
    pub fn insert(&self, cell: &ExperimentCell, result: CellResult) {
        self.map
            .write()
            .expect("store poisoned")
            .insert(cell.canonical_key().to_string(), result);
    }

    /// Number of memoized cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.read().expect("store poisoned").len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from memory since construction.
    #[must_use]
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed since construction.
    #[must_use]
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_pipeline::{CompileOptions, SchedulerKind};
    use bsched_sim::SimMetrics;

    fn cell(kernel: &str, unroll: Option<u32>) -> ExperimentCell {
        let mut o = CompileOptions::new(SchedulerKind::Balanced);
        o.unroll = unroll;
        ExperimentCell::new(kernel, o)
    }

    fn result(cycles: u64) -> CellResult {
        CellResult {
            metrics: SimMetrics {
                cycles,
                ..SimMetrics::default()
            },
            checksum_ok: true,
            verified: false,
        }
    }

    #[test]
    fn round_trips_and_counts() {
        let store = ResultStore::new();
        let a = cell("a", None);
        assert!(store.get(&a).is_none());
        store.insert(&a, result(7));
        assert_eq!(store.get(&a).unwrap().metrics.cycles, 7);
        assert_eq!(store.len(), 1);
        assert_eq!(store.hit_count(), 1);
        assert_eq!(store.miss_count(), 1);
    }

    #[test]
    fn concurrent_readers_and_writers_agree() {
        let store = std::sync::Arc::new(ResultStore::new());
        let cells: Vec<ExperimentCell> = (0..64).map(|i| cell(&format!("c{i}"), None)).collect();
        std::thread::scope(|scope| {
            for chunk in cells.chunks(16) {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move || {
                    for (i, c) in chunk.iter().enumerate() {
                        store.insert(c, result(i as u64));
                        assert!(store.get(c).is_some());
                    }
                });
            }
        });
        assert_eq!(store.len(), 64);
        for c in &cells {
            assert!(store.contains(c));
        }
    }
}
