//! The per-run block cache: one lazily built [`Skeleton`] per basic
//! block, keyed by **block identity** (`BlockId` index).
//!
//! Identity keying is deliberate:
//!
//! * Programs are immutable for the lifetime of a run (there is no
//!   self-modifying code in the IR), so a skeleton can never go stale —
//!   the cache has no invalidation path at all, only lazy fills.
//! * Two blocks with identical instruction content still get separate
//!   skeletons ("cross-region reuse" is off): load sites and fetch
//!   addresses are absolute, so sharing a skeleton across addresses
//!   would corrupt per-site attribution and icache behaviour.

use super::skeleton::Skeleton;

/// The timing loop's work counts for one run, derived at exit from the
/// skeletons and the run's visit counts (the loop keeps no counters).
/// The unit tests pin them exactly, so redoing skipped work shows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CacheStats {
    /// Skeletons built (one per distinct block visited).
    pub builds: u64,
    /// Block visits replayed.
    pub visits: u64,
    /// `inst_fetch` probes issued: Σ visits × the skeleton's fetch
    /// points (terminator included).
    pub fetches: u64,
    /// Operand-interlock scans: Σ visits × the skeleton's micro-ops
    /// with `MicroOp::chk` set.
    pub scans: u64,
}

/// The cache itself: a dense slot per block of the function.
#[derive(Debug)]
pub(crate) struct BlockCache {
    skeletons: Vec<Option<Skeleton>>,
    builds: u64,
}

impl BlockCache {
    pub fn new(num_blocks: usize) -> Self {
        BlockCache {
            skeletons: vec![None; num_blocks],
            builds: 0,
        }
    }

    /// The work counts of a run that made `visits` (by block index).
    pub fn stats(&self, visits: &[u64]) -> CacheStats {
        let mut stats = CacheStats {
            builds: self.builds,
            ..CacheStats::default()
        };
        for (sk, n) in self.entries(visits) {
            let fetches = sk.micros.iter().filter(|mo| mo.fetch).count() as u64;
            let scans = sk.micros.iter().filter(|mo| mo.chk).count() as u64;
            stats.visits += n;
            stats.fetches += n * (fetches + u64::from(sk.term_fetch));
            stats.scans += n * scans;
        }
        stats
    }

    /// Returns the skeleton for block `index`, building it on first
    /// visit. Re-entry replays the cached skeleton; the caller is
    /// expected to debug-assert the block's size against
    /// [`Skeleton::n_insts`] per visit to enforce the
    /// no-self-modifying-code invariant the cache relies on.
    pub fn get_or_build(&mut self, index: usize, build: impl FnOnce() -> Skeleton) -> &Skeleton {
        if self.skeletons[index].is_none() {
            self.skeletons[index] = Some(build());
            self.builds += 1;
        }
        self.skeletons[index]
            .as_ref()
            .expect("skeleton filled above")
    }

    /// Built skeletons with their counts in `visits` (by block index).
    /// Skeletons are built on first visit, so every visited block has
    /// one.
    pub fn entries<'a>(&'a self, visits: &'a [u64]) -> impl Iterator<Item = (&'a Skeleton, u64)> {
        self.skeletons
            .iter()
            .zip(visits)
            .filter_map(|(sk, &n)| sk.as_ref().map(|sk| (sk, n)))
    }
}
