//! Fully associative translation lookaside buffers with LRU replacement.

/// A fully associative TLB with a direct-mapped **hint table** in front
/// of the linear scan.
///
/// `hints[page % TLB_HINTS]` remembers where that page was last seen in
/// `entries`. A hint is only trusted after checking
/// `entries[idx].0 == page`, so a stale hint (the page was evicted, or
/// `swap_remove` moved another entry into its slot) falls through to
/// the scan. Pages are distinct, so the matching entry is unique and
/// the hint changes only how fast it is found, never the answer or the
/// LRU order.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<(u64, u64)>, // (page number, last-use stamp)
    /// `(page, index into entries)`. `u64::MAX` is an impossible page
    /// number, so an empty slot never matches.
    hints: Box<[(u64, u32)]>,
    capacity: usize,
    page_shift: u32,
    clock: u64,
}

/// Hint-table slots: a power of two several times the largest TLB, so
/// distinct hot pages rarely collide.
const TLB_HINTS: usize = 512;

impl Tlb {
    /// Creates an empty TLB with `capacity` entries over `page_size`-byte
    /// pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `page_size` is not a power of two.
    #[must_use]
    pub fn new(capacity: usize, page_size: u64) -> Self {
        assert!(capacity > 0);
        assert!(page_size.is_power_of_two());
        Tlb {
            entries: Vec::with_capacity(capacity),
            hints: vec![(u64::MAX, 0); TLB_HINTS].into_boxed_slice(),
            capacity,
            page_shift: page_size.trailing_zeros(),
            clock: 0,
        }
    }

    /// Translates `addr`; returns `true` on a TLB hit. Misses install the
    /// page, evicting the least recently used entry when full.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let page = addr >> self.page_shift;
        let h = (page as usize) & (TLB_HINTS - 1);
        let (hint_page, hint_idx) = self.hints[h];
        if hint_page == page {
            if let Some(e) = self.entries.get_mut(hint_idx as usize) {
                if e.0 == page {
                    e.1 = self.clock;
                    return true;
                }
            }
        }
        self.access_slow(page, h)
    }

    fn access_slow(&mut self, page: u64, h: usize) -> bool {
        if let Some(i) = self.entries.iter().position(|(p, _)| *p == page) {
            self.entries[i].1 = self.clock;
            self.hints[h] = (page, i as u32);
            return true;
        }
        if self.entries.len() == self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, s))| *s)
                .map(|(i, _)| i)
                .expect("TLB is non-empty when full");
            self.entries.swap_remove(lru);
        }
        self.hints[h] = (page, self.entries.len() as u32);
        self.entries.push((page, self.clock));
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(2, 8192);
        // Two misses and one hit.
        let hits = [0, 8191, 8192].map(|a| t.access(a));
        assert_eq!(hits, [false, true, false]);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2, 4096);
        t.access(0); // page 0
        t.access(4096); // page 1
        t.access(0); // refresh page 0; page 1 LRU
        t.access(8192); // page 2 evicts page 1
        assert!(t.access(0));
        assert!(!t.access(4096), "page 1 was evicted");
    }
}
