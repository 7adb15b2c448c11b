//! Branch predictors: bimodal, gshare, and a small TAGE.
//!
//! One [`BranchPredictor`] type dispatches internally on
//! [`PredictorKind`], so every consumer (exact runs under either engine,
//! and sampled fast-forward and replay) picks up new predictors
//! with bit-identical behaviour automatically. All predictors are
//! deterministic — no randomized allocation — which is what makes the
//! cross-engine equivalence guarantee free.

use crate::config::{BranchConfig, PredictorKind};

/// A branch predictor with the machine-configured algorithm.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    algo: Algo,
    predictions: u64,
    mispredictions: u64,
}

#[derive(Debug, Clone)]
enum Algo {
    Bimodal(Bimodal),
    Gshare(Gshare),
    TageLite(TageLite),
}

impl BranchPredictor {
    /// Creates a predictor in its deterministic initial state (all
    /// counters weakly not-taken, empty history, empty tagged tables).
    ///
    /// # Panics
    ///
    /// Panics if `config.entries` is not a power of two.
    #[must_use]
    pub fn new(config: &BranchConfig) -> Self {
        assert!(config.entries.is_power_of_two());
        let algo = match config.kind {
            PredictorKind::Bimodal => Algo::Bimodal(Bimodal::new(config.entries)),
            PredictorKind::Gshare => Algo::Gshare(Gshare::new(config.entries)),
            PredictorKind::TageLite => Algo::TageLite(TageLite::new(config.entries)),
        };
        BranchPredictor {
            algo,
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// Predicts and updates for the branch at `pc` with actual outcome
    /// `taken`. Returns `true` if the prediction was correct.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let predicted_taken = match &mut self.algo {
            Algo::Bimodal(p) => p.predict_and_update(pc, taken),
            Algo::Gshare(p) => p.predict_and_update(pc, taken),
            Algo::TageLite(p) => p.predict_and_update(pc, taken),
        };
        self.predictions += 1;
        let correct = predicted_taken == taken;
        if !correct {
            self.mispredictions += 1;
        }
        correct
    }

    /// Number of predictions made.
    #[must_use]
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Number of mispredictions.
    #[must_use]
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }
}

/// Saturating 2-bit counter update (0..=3, taken when >= 2).
fn bump2(c: &mut u8, taken: bool) {
    if taken {
        if *c < 3 {
            *c += 1;
        }
    } else if *c > 0 {
        *c -= 1;
    }
}

/// Per-PC 2-bit saturating counters, all initialised weakly not-taken.
#[derive(Debug, Clone)]
struct Bimodal {
    counters: Vec<u8>,
    mask: usize,
}

impl Bimodal {
    fn new(entries: usize) -> Self {
        Bimodal {
            counters: vec![1; entries], // weakly not-taken
            mask: entries - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & self.mask
    }

    fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let i = self.index(pc);
        let predicted = self.counters[i] >= 2;
        bump2(&mut self.counters[i], taken);
        predicted
    }
}

/// Global-history XOR PC indexed counters (McFarling). History length
/// equals the table's index width, so one table exactly covers the
/// history space.
#[derive(Debug, Clone)]
struct Gshare {
    counters: Vec<u8>,
    mask: usize,
    history: usize,
}

impl Gshare {
    fn new(entries: usize) -> Self {
        Gshare {
            counters: vec![1; entries],
            mask: entries - 1,
            history: 0,
        }
    }

    fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let i = (((pc >> 2) as usize) ^ self.history) & self.mask;
        let predicted = self.counters[i] >= 2;
        bump2(&mut self.counters[i], taken);
        self.history = ((self.history << 1) | usize::from(taken)) & self.mask;
        predicted
    }
}

/// One tagged-table entry: partial tag, 3-bit prediction counter
/// (taken when >= 4), 2-bit usefulness counter.
#[derive(Debug, Clone, Copy)]
struct TageEntry {
    tag: u16,
    ctr: u8,
    useful: u8,
    valid: bool,
}

const TAGE_EMPTY: TageEntry = TageEntry {
    tag: 0,
    ctr: 3,
    useful: 0,
    valid: false,
};

/// A partially tagged table with a fixed global-history length.
#[derive(Debug, Clone)]
struct TageTable {
    entries: Vec<TageEntry>,
    mask: usize,
    hist_len: u32,
}

impl TageTable {
    fn new(entries: usize, hist_len: u32) -> Self {
        TageTable {
            entries: vec![TAGE_EMPTY; entries],
            mask: entries - 1,
            hist_len,
        }
    }

    /// XOR-folds the low `self.hist_len` bits of `history` down to
    /// `width` bits.
    fn fold(&self, history: u64, width: u32) -> u64 {
        let mut h = if self.hist_len >= 64 {
            history
        } else {
            history & ((1u64 << self.hist_len) - 1)
        };
        let mut out = 0u64;
        while h != 0 {
            out ^= h & ((1u64 << width) - 1);
            h >>= width;
        }
        out
    }

    fn index(&self, pc: u64, history: u64) -> usize {
        let width = (self.mask as u64 + 1).trailing_zeros().max(1);
        (((pc >> 2) ^ self.fold(history, width)) as usize) & self.mask
    }

    fn tag(&self, pc: u64, history: u64) -> u16 {
        // A different fold width decorrelates the tag from the index.
        (((pc >> 2) ^ (pc >> 9) ^ self.fold(history, 9)) & 0x1ff) as u16
    }
}

/// A small deterministic TAGE: bimodal base plus two tagged tables with
/// geometric history lengths (8 and 16). The longest-history tag match
/// provides the prediction; mispredictions allocate into a longer table
/// whose victim entry is no longer useful.
#[derive(Debug, Clone)]
struct TageLite {
    base: Bimodal,
    tables: [TageTable; 2],
    history: u64,
}

impl TageLite {
    fn new(entries: usize) -> Self {
        let tagged = (entries / 4).max(16);
        TageLite {
            base: Bimodal::new(entries),
            tables: [TageTable::new(tagged, 8), TageTable::new(tagged, 16)],
            history: 0,
        }
    }

    fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        // Find the provider: the longest-history table with a tag hit.
        let mut provider: Option<usize> = None;
        let mut slots = [0usize; 2];
        let mut tags = [0u16; 2];
        for (t, table) in self.tables.iter().enumerate() {
            slots[t] = table.index(pc, self.history);
            tags[t] = table.tag(pc, self.history);
            let e = &table.entries[slots[t]];
            if e.valid && e.tag == tags[t] {
                provider = Some(t);
            }
        }

        let base_pred = {
            let i = self.base.index(pc);
            self.base.counters[i] >= 2
        };
        let predicted = match provider {
            Some(t) => self.tables[t].entries[slots[t]].ctr >= 4,
            None => base_pred,
        };

        // Update the provider (or the base when no table hit).
        match provider {
            Some(t) => {
                let e = &mut self.tables[t].entries[slots[t]];
                if taken {
                    if e.ctr < 7 {
                        e.ctr += 1;
                    }
                } else if e.ctr > 0 {
                    e.ctr -= 1;
                }
                // Usefulness: the tagged entry earned its keep iff it
                // disagreed with the base and was right.
                if predicted != base_pred {
                    if predicted == taken {
                        if e.useful < 3 {
                            e.useful += 1;
                        }
                    } else if e.useful > 0 {
                        e.useful -= 1;
                    }
                }
            }
            None => {
                let i = self.base.index(pc);
                bump2(&mut self.base.counters[i], taken);
            }
        }

        // On a misprediction, allocate in a longer-history table.
        if predicted != taken {
            let first_longer = provider.map_or(0, |t| t + 1);
            let mut allocated = false;
            for t in first_longer..self.tables.len() {
                let e = &mut self.tables[t].entries[slots[t]];
                if !e.valid || e.useful == 0 {
                    *e = TageEntry {
                        tag: tags[t],
                        ctr: if taken { 4 } else { 3 },
                        useful: 0,
                        valid: true,
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                // Everybody was useful: age them so a later allocation
                // can succeed.
                for (table, &slot) in self.tables.iter_mut().zip(&slots).skip(first_longer) {
                    let e = &mut table.entries[slot];
                    if e.useful > 0 {
                        e.useful -= 1;
                    }
                }
            }
        }

        self.history = (self.history << 1) | u64::from(taken);
        predicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PredictorKind;

    fn config(kind: PredictorKind) -> BranchConfig {
        BranchConfig {
            kind,
            ..BranchConfig::default()
        }
    }

    #[test]
    fn learns_a_biased_branch() {
        for kind in [
            PredictorKind::Bimodal,
            PredictorKind::Gshare,
            PredictorKind::TageLite,
        ] {
            let mut p = BranchPredictor::new(&config(kind));
            // Loop-style branch: taken 100 times.
            let mut wrong = 0;
            for _ in 0..100 {
                if !p.predict_and_update(0x40, true) {
                    wrong += 1;
                }
            }
            // Gshare pays one cold miss per distinct history prefix
            // until its 10-bit history register saturates.
            assert!(wrong <= 12, "{kind}: should converge quickly, got {wrong}");
            assert_eq!(p.predictions(), 100);
            assert_eq!(p.mispredictions(), wrong);
        }
    }

    #[test]
    fn alternating_branch_hurts() {
        let mut p = BranchPredictor::new(&BranchConfig::default());
        let mut wrong = 0;
        for k in 0..100 {
            if !p.predict_and_update(0x80, k % 2 == 0) {
                wrong += 1;
            }
        }
        assert!(wrong >= 40, "alternation defeats a bimodal predictor");
    }

    #[test]
    fn history_predictors_learn_an_alternating_branch() {
        for kind in [PredictorKind::Gshare, PredictorKind::TageLite] {
            let mut p = BranchPredictor::new(&config(kind));
            let mut late_wrong = 0;
            for k in 0..400 {
                let correct = p.predict_and_update(0x80, k % 2 == 0);
                if k >= 200 && !correct {
                    late_wrong += 1;
                }
            }
            assert!(
                late_wrong <= 10,
                "{kind}: history should capture alternation, {late_wrong} late misses"
            );
        }
    }

    #[test]
    fn distinct_pcs_use_distinct_counters() {
        let mut p = BranchPredictor::new(&BranchConfig::default());
        for _ in 0..10 {
            p.predict_and_update(0x100, true);
        }
        // A different branch starts from the initial state.
        assert!(
            !p.predict_and_update(0x104, true),
            "fresh counter predicts not-taken"
        );
    }

    #[test]
    fn bimodal_matches_legacy_counter_semantics() {
        // Pin the exact counter trajectory the original single-table
        // predictor had: init 1, not-taken until the counter crosses 2.
        let mut p = BranchPredictor::new(&BranchConfig::default());
        assert!(!p.predict_and_update(0x40, true)); // ctr 1 -> predicts NT, now 2
        assert!(p.predict_and_update(0x40, true)); // ctr 2 -> predicts T, now 3
        assert!(p.predict_and_update(0x40, true)); // saturates at 3
        assert!(!p.predict_and_update(0x40, false)); // predicts T, wrong, now 2
        assert_eq!(p.predictions(), 4);
        assert_eq!(p.mispredictions(), 2);
    }

    #[test]
    fn predictors_are_deterministic() {
        for kind in [
            PredictorKind::Bimodal,
            PredictorKind::Gshare,
            PredictorKind::TageLite,
        ] {
            let mut a = BranchPredictor::new(&config(kind));
            let mut b = BranchPredictor::new(&config(kind));
            let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
            for _ in 0..2000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let pc = 0x40 + 4 * (x >> 60);
                let taken = (x >> 17) & 1 == 1;
                assert_eq!(
                    a.predict_and_update(pc, taken),
                    b.predict_and_update(pc, taken),
                    "{kind}: diverged"
                );
            }
            assert_eq!(a.mispredictions(), b.mispredictions());
        }
    }
}
