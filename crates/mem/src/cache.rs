//! A set-associative cache with true-LRU replacement.

use crate::config::CacheConfig;

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    /// Monotonic counter value at last touch (true LRU).
    stamp: u64,
}

/// A single cache level.
///
/// Power-of-two geometry is resolved to shifts and masks once at
/// construction, so an access never divides (a line size that is not a
/// power of two falls back to exact division).
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    ways: Vec<Way>, // sets * assoc, row-major by set
    assoc: usize,
    /// `log2(line)`; meaningful only when `line_pow2`.
    line_shift: u32,
    line_pow2: bool,
    sets: u64,
    set_mask: u64,
    tag_shift: u32,
    clock: u64,
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two set count.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let line_shift = config.line.trailing_zeros();
        Cache {
            ways: vec![
                Way {
                    tag: 0,
                    valid: false,
                    stamp: 0
                };
                (sets * u64::from(config.assoc)) as usize
            ],
            assoc: config.assoc as usize,
            line_shift,
            line_pow2: config.line.is_power_of_two(),
            sets,
            set_mask: sets - 1,
            tag_shift: line_shift + sets.trailing_zeros(),
            clock: 0,
            config,
        }
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The line number of `addr` (`addr / line`).
    #[inline]
    pub(crate) fn line_of(&self, addr: u64) -> u64 {
        if self.line_pow2 {
            addr >> self.line_shift
        } else {
            addr / self.config.line
        }
    }

    /// `(set, tag)` of `addr`: `(addr / line) % sets` and
    /// `addr / line / sets`.
    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        if self.line_pow2 {
            (
                ((addr >> self.line_shift) & self.set_mask) as usize,
                addr >> self.tag_shift,
            )
        } else {
            let l = addr / self.config.line;
            ((l % self.sets) as usize, l / self.sets)
        }
    }

    /// Looks up `addr`, allocating the line on a miss. Returns `true` on a
    /// hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_inner(addr, true)
    }

    /// Looks up `addr` without allocating on a miss (write-through,
    /// no-write-allocate stores). Returns `true` on a hit.
    #[inline]
    pub fn probe_update(&mut self, addr: u64) -> bool {
        self.access_inner(addr, false)
    }

    #[inline]
    fn access_inner(&mut self, addr: u64, allocate: bool) -> bool {
        self.clock += 1;
        let (set, tag) = self.index(addr);
        let clock = self.clock;
        let fill = allocate.then_some(Way {
            tag,
            valid: true,
            stamp: clock,
        });
        // Fixed-size sets for the 21164's direct-mapped L1s and 3-way
        // L2, so the probe and the victim scan fully unroll.
        if self.assoc == 1 {
            let w = &mut self.ways[set];
            if w.valid && w.tag == tag {
                w.stamp = clock;
                return true;
            }
            if let Some(fill) = fill {
                *w = fill;
            }
            return false;
        }
        if self.assoc == 3 {
            let ways: &mut [Way; 3] = (&mut self.ways[set * 3..set * 3 + 3])
                .try_into()
                .expect("slice of length 3");
            return probe(ways, tag, clock, fill);
        }
        let n = self.assoc;
        probe(&mut self.ways[set * n..(set + 1) * n], tag, clock, fill)
    }

    /// `true` if `addr`'s line is currently resident (no state change).
    #[must_use]
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.ways[set * self.assoc..(set + 1) * self.assoc]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }
}

/// Probes one set for `tag`, refreshing its stamp on a hit; on a miss,
/// writes `fill` (if any) over the least recently used way, invalid
/// ways first.
#[inline(always)]
fn probe(ways: &mut [Way], tag: u64, clock: u64, fill: Option<Way>) -> bool {
    if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
        w.stamp = clock;
        return true;
    }
    if let Some(fill) = fill {
        let victim = ways
            .iter_mut()
            .min_by_key(|w| if w.valid { w.stamp } else { 0 })
            .expect("cache has at least one way");
        *victim = fill;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16B lines = 128 B.
        Cache::new(CacheConfig {
            size: 128,
            line: 16,
            assoc: 2,
            latency: 2,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        // One miss, then two hits (the second on the same 16-byte line).
        let hits = [0x40, 0x40, 0x48].map(|a| c.access(a));
        assert_eq!(hits, [false, true, true]);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Three lines mapping to set 0 (line 16, 4 sets => set stride 64).
        let (a, b, d) = (0x000, 0x040, 0x080);
        c.access(a);
        c.access(b);
        c.access(a); // refresh a; b is now LRU
        assert!(!c.access(d)); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn probe_update_does_not_allocate() {
        let mut c = tiny();
        assert!(!c.probe_update(0x100));
        assert!(!c.contains(0x100));
        c.access(0x100);
        assert!(c.probe_update(0x100));
    }

    #[test]
    fn direct_mapped_conflicts() {
        // 2 sets x 1 way x 16B = 32B direct-mapped.
        let mut c = Cache::new(CacheConfig {
            size: 32,
            line: 16,
            assoc: 1,
            latency: 2,
        });
        c.access(0x00);
        c.access(0x20); // same set, evicts
        assert!(!c.contains(0x00));
        assert!(c.contains(0x20));
        assert!(c.contains(0x2f), "whole line resident");
    }
}
