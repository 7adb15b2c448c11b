//! The full memory hierarchy: L1D (lockup-free) → L2 → L3 → memory, plus
//! I-cache and TLBs.

use crate::cache::Cache;
use crate::config::{MemConfig, MshrPolicy, PrefetchKind};
use crate::stats::MemStats;
use crate::tlb::Tlb;
use std::ops::Range;

/// Which level satisfied an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// First-level cache hit.
    L1,
    /// Second-level cache hit.
    L2,
    /// Board-cache hit.
    L3,
    /// Main memory.
    Memory,
}

impl Level {
    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Level::L1 => "L1",
            Level::L2 => "L2",
            Level::L3 => "L3",
            Level::Memory => "mem",
        }
    }
}

/// Timing answer for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Cycle the access could actually begin. It exceeds `now` by the
    /// TLB refill penalty on a TLB miss plus [`Access::stall`].
    pub issue_at: u64,
    /// Cycle the result is available to consumers.
    pub ready_at: u64,
    /// Level that served the data.
    pub level: Level,
    /// Structural stall cycles charged before the access could issue:
    /// waiting for a free MSHR (or an outstanding fill, under a blocking
    /// or no-merge policy) on a read, for a free write-buffer entry on a
    /// store; always 0 for instruction fetches. `issue_at - now - stall`
    /// is the TLB refill.
    pub stall: u64,
}

#[derive(Debug, Clone, Copy)]
struct MshrEntry {
    line: u64,
    fill_at: u64,
    level: Level,
    /// The entry was allocated by the prefetcher, not a demand miss.
    prefetch: bool,
}

/// The demand-miss stride tracker feeding the L1D prefetcher.
#[derive(Debug, Clone, Copy, Default)]
struct StrideTracker {
    last_line: u64,
    last_delta: i64,
    /// 0 = cold, 1 = one miss seen, 2 = a delta established.
    seen: u8,
}

impl StrideTracker {
    /// Observes a demand-miss line and predicts the next line's delta
    /// when two consecutive misses repeat the same non-zero stride.
    fn observe(&mut self, line: u64) -> Option<i64> {
        let mut predicted = None;
        if self.seen >= 1 {
            let delta = line.wrapping_sub(self.last_line) as i64;
            if self.seen == 2 && delta == self.last_delta && delta != 0 {
                predicted = Some(delta);
            }
            self.last_delta = delta;
            self.seen = 2;
        } else {
            self.seen = 1;
        }
        self.last_line = line;
        predicted
    }
}

/// The memory hierarchy state machine.
///
/// Instruction fetches inside the code segment given to [`Hierarchy::new`]
/// can be *proven static*: when the segment's lines fit the I-cache
/// without conflict (lines ≤ sets × assoc) and it spans at most
/// `itb_entries` pages, nothing can evict a code line or page (only
/// fetches touch the I-cache and ITB), so a fetch of an already-fetched
/// line is a hit that changes no statistic and costs one bit test. A
/// fetch outside the segment voids the proof, and every fetch from then
/// on is modelled per access. (After that, LRU order among the code
/// lines hit on the fast path is their order of first fetch.)
#[derive(Debug, Clone)]
pub struct Hierarchy {
    config: MemConfig,
    l1d: Cache,
    icache: Cache,
    l2: Cache,
    l3: Option<Cache>,
    dtb: Tlb,
    itb: Tlb,
    mshrs: Vec<MshrEntry>,
    /// Earliest `fill_at` among `mshrs` (`u64::MAX` when empty): the
    /// retire scan runs only once an entry has actually expired.
    mshr_earliest: u64,
    stride: StrideTracker,
    /// Drain-completion times of buffered stores (finite write buffer).
    write_buffer: Vec<u64>,
    stats: MemStats,
    /// The static-fetch proof holds: touched code lines stay resident.
    skip_ifetch: bool,
    code: Range<u64>,
    /// I-cache line number of `code.start`.
    first_code_line: u64,
    /// One bit per code line, set once the line has been fetched.
    line_touched: Vec<u64>,
}

impl Hierarchy {
    /// Builds a cold hierarchy for a program whose instructions occupy
    /// the addresses `code` (`0..0` declares none). The segment selects
    /// the fast path for fetches inside it and changes no answer while
    /// every fetch falls inside it.
    #[must_use]
    pub fn new(config: MemConfig, code: Range<u64>) -> Self {
        let icache = Cache::new(config.icache);
        let last = code.end.saturating_sub(1).max(code.start);
        let page_shift = config.page_size.trailing_zeros();
        let itb_pages = (last >> page_shift) - (code.start >> page_shift) + 1;
        let first_code_line = icache.line_of(code.start);
        let code_lines = icache.line_of(last) - first_code_line + 1;
        // Contiguous lines spread round-robin over the sets, so
        // `lines ≤ sets × assoc` bounds every set's code lines by its
        // associativity.
        let skip_ifetch = !code.is_empty()
            && config.icache.line.is_power_of_two()
            && code_lines <= config.icache.sets() * u64::from(config.icache.assoc)
            && itb_pages <= config.itb_entries as u64;
        Hierarchy {
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: config.l3.map(Cache::new),
            dtb: Tlb::new(config.dtb_entries, config.page_size),
            itb: Tlb::new(config.itb_entries, config.page_size),
            mshrs: Vec::with_capacity(config.mshrs),
            mshr_earliest: u64::MAX,
            stride: StrideTracker::default(),
            write_buffer: Vec::new(),
            stats: MemStats::default(),
            skip_ifetch,
            code,
            first_code_line,
            line_touched: if skip_ifetch {
                vec![0; (code_lines as usize).div_ceil(64)]
            } else {
                Vec::new()
            },
            icache,
            config,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Statistics gathered so far.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Restarts every statistics counter from zero, leaving the cache,
    /// TLB, MSHR and write-buffer state — and so all future timing —
    /// untouched. Lets a caller measure one interval on a warm
    /// hierarchy.
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }

    /// Drops entries whose fill time has passed (`fill_at <= now`) and
    /// recomputes the earliest remaining fill.
    fn retire_mshrs(&mut self, now: u64) {
        self.mshrs.retain(|e| e.fill_at > now);
        self.mshr_earliest = self
            .mshrs
            .iter()
            .map(|e| e.fill_at)
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Walks the lower levels (L2 → L3 → memory) for a line fill and
    /// returns the total load-use latency.
    fn lower_levels(&mut self, addr: u64) -> (u32, Level) {
        if self.l2.access(addr) {
            return (self.config.l2.latency, Level::L2);
        }
        if let Some(l3) = &mut self.l3 {
            if l3.access(addr) {
                return (
                    self.config.l3.expect("l3 cache has config").latency,
                    Level::L3,
                );
            }
        }
        (self.config.mem_latency, Level::Memory)
    }

    /// A data read of the 8 bytes at `addr`, issued at cycle `now`.
    #[inline]
    pub fn data_read(&mut self, addr: u64, now: u64) -> Access {
        let mut issue_at = now;
        if !self.dtb.access(addr) {
            self.stats.dtb_misses += 1;
            issue_at += u64::from(self.config.tlb_miss_penalty);
        }
        let line = self.l1d.line_of(addr);
        let mut stall = 0;
        // An empty miss-address file has nothing to retire, block on or
        // merge with.
        if !self.mshrs.is_empty() {
            if issue_at >= self.mshr_earliest {
                self.retire_mshrs(issue_at);
            }
            // A blocking cache serialises: any read issued under an
            // outstanding miss waits for every outstanding fill.
            if self.config.mshr_policy == MshrPolicy::Blocking && !self.mshrs.is_empty() {
                let free_at = self
                    .mshrs
                    .iter()
                    .map(|e| e.fill_at)
                    .max()
                    .expect("mshrs non-empty");
                stall += free_at - issue_at;
                self.stats.mshr_stall_cycles += free_at - issue_at;
                issue_at = free_at;
                self.mshrs.clear();
                self.mshr_earliest = u64::MAX;
            }
            // A line whose fill is still in flight: the L1 tag matches
            // (it was allocated at miss time) but the data arrives only
            // at fill time. Under `Merge` the read joins the entry;
            // under `NoMerge` it stalls until the fill lands and then
            // reads L1.
            if let Some(e) = self.mshrs.iter_mut().find(|e| e.line == line) {
                let (fill_at, level, was_prefetch) = (e.fill_at, e.level, e.prefetch);
                // A prefetch earns its keep at most once, however many
                // demand reads merge into its in-flight fill.
                e.prefetch = false;
                if was_prefetch {
                    self.stats.prefetch_useful += 1;
                }
                if self.config.mshr_policy == MshrPolicy::Merge {
                    self.stats.mshr_merges += 1;
                    self.l1d.access(addr); // touch for LRU
                    let ready_at = fill_at.max(issue_at + u64::from(self.config.l1d.latency));
                    return Access {
                        issue_at,
                        ready_at,
                        level,
                        stall,
                    };
                }
                // NoMerge: structural stall until the outstanding fill
                // frees the line, then fall through to the L1 lookup.
                stall += fill_at - issue_at;
                self.stats.mshr_stall_cycles += fill_at - issue_at;
                issue_at = fill_at;
                self.retire_mshrs(issue_at);
            }
        }
        if self.l1d.access(addr) {
            self.stats.record_read(Level::L1);
            return Access {
                issue_at,
                ready_at: issue_at + u64::from(self.config.l1d.latency),
                level: Level::L1,
                stall,
            };
        }
        // L1 miss: lockup-free path through the miss-address file. A
        // full file is a structural stall until the earliest fill.
        if self.mshrs.len() >= self.config.mshrs {
            let free_at = self.mshr_earliest;
            stall += free_at - issue_at;
            self.stats.mshr_stall_cycles += free_at - issue_at;
            issue_at = free_at;
            self.retire_mshrs(issue_at);
        }
        let (latency, level) = self.lower_levels(addr);
        self.stats.record_read(level);
        let ready_at = issue_at + u64::from(latency);
        self.mshrs.push(MshrEntry {
            line,
            fill_at: ready_at,
            level,
            prefetch: false,
        });
        self.mshr_earliest = self.mshr_earliest.min(ready_at);
        self.maybe_prefetch(addr, line, issue_at);
        Access {
            issue_at,
            ready_at,
            level,
            stall,
        }
    }

    /// The demand-miss hook of the L1D prefetcher: predicts the next
    /// line and, when the prediction is safe and free, fills it.
    ///
    /// A prefetch never perturbs demand behaviour beyond its fill: it
    /// stays within the missing page (no TLB traffic), uses only spare
    /// MSHR capacity, and is skipped when the line is already resident
    /// or already in flight.
    #[inline]
    fn maybe_prefetch(&mut self, addr: u64, line: u64, issue_at: u64) {
        let delta = match self.config.prefetch {
            PrefetchKind::None => return,
            PrefetchKind::NextLine => 1,
            PrefetchKind::Stride => match self.stride.observe(line) {
                Some(d) => d,
                None => return,
            },
        };
        let pf_line = line.wrapping_add(delta as u64);
        let pf_addr = pf_line.wrapping_mul(self.config.l1d.line);
        if pf_addr / self.config.page_size != addr / self.config.page_size {
            return;
        }
        if self.mshrs.len() >= self.config.mshrs
            || self.mshrs.iter().any(|e| e.line == pf_line)
            || self.l1d.contains(pf_addr)
        {
            return;
        }
        let (latency, level) = self.lower_levels(pf_addr);
        self.l1d.access(pf_addr); // allocate, exactly like a demand miss
        self.stats.prefetches += 1;
        let fill_at = issue_at + u64::from(latency);
        self.mshrs.push(MshrEntry {
            line: pf_line,
            fill_at,
            level,
            prefetch: true,
        });
        self.mshr_earliest = self.mshr_earliest.min(fill_at);
    }

    /// A data write of the 8 bytes at `addr`, issued at cycle `now`
    /// (write-through, no-write-allocate). With the default infinite
    /// write buffer a store never stalls; a finite one
    /// ([`MemConfig::with_write_buffer`]) stalls it while full.
    #[inline]
    pub fn data_write(&mut self, addr: u64, now: u64) -> Access {
        self.stats.stores += 1;
        let mut issue_at = now;
        if !self.dtb.access(addr) {
            self.stats.dtb_misses += 1;
            issue_at += u64::from(self.config.tlb_miss_penalty);
        }
        let mut stall = 0;
        // Finite write buffer: a full buffer stalls the store until the
        // oldest entry drains.
        if let Some(capacity) = self.config.write_buffer {
            self.write_buffer.retain(|&d| d > issue_at);
            if self.write_buffer.len() >= capacity as usize {
                let free_at = *self
                    .write_buffer
                    .iter()
                    .min()
                    .expect("write buffer non-empty");
                stall = free_at - issue_at;
                self.stats.wb_stall_cycles += stall;
                issue_at = free_at;
                self.write_buffer.retain(|&d| d > issue_at);
            }
            // The write-through channel drains one store at a time.
            let start = self.write_buffer.iter().max().copied().unwrap_or(issue_at);
            self.write_buffer
                .push(start.max(issue_at) + u64::from(self.config.write_drain_cycles));
        }
        let hit = self.l1d.probe_update(addr);
        self.l2.probe_update(addr);
        if let Some(l3) = &mut self.l3 {
            l3.probe_update(addr);
        }
        let level = if hit { Level::L1 } else { Level::Memory };
        Access {
            issue_at,
            ready_at: issue_at + 1,
            level,
            stall,
        }
    }

    /// An instruction fetch at code address `addr` (blocking).
    #[inline]
    pub fn inst_fetch(&mut self, addr: u64, now: u64) -> Access {
        if self.skip_ifetch {
            if self.code.contains(&addr) {
                let idx = (self.icache.line_of(addr) - self.first_code_line) as usize;
                let (word, bit) = (idx / 64, 1 << (idx % 64));
                if self.line_touched[word] & bit != 0 {
                    // Proven resident: an I-cache and ITB hit.
                    return Access {
                        issue_at: now,
                        ready_at: now,
                        level: Level::L1,
                        stall: 0,
                    };
                }
                self.line_touched[word] |= bit;
            } else {
                // This fetch may evict a code line or page.
                self.skip_ifetch = false;
            }
        }
        let mut issue_at = now;
        if !self.itb.access(addr) {
            self.stats.itb_misses += 1;
            issue_at += u64::from(self.config.tlb_miss_penalty);
        }
        if self.icache.access(addr) {
            // Fetch overlaps the pipeline; a hit costs nothing extra.
            return Access {
                issue_at,
                ready_at: issue_at,
                level: Level::L1,
                stall: 0,
            };
        }
        self.stats.icache_misses += 1;
        let (latency, level) = self.lower_levels(addr);
        Access {
            issue_at,
            ready_at: issue_at + u64::from(latency),
            level,
            stall: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hierarchy {
        Hierarchy::new(MemConfig::alpha21164(), 0..0)
    }

    #[test]
    fn cold_miss_then_hit_latencies() {
        let mut h = small();
        let a = h.data_read(0x10000, 0);
        assert_eq!(a.level, Level::Memory);
        assert_eq!(a.ready_at, (50 + a.issue_at));
        let b = h.data_read(0x10000, a.ready_at);
        assert_eq!(b.level, Level::L1);
        assert_eq!(b.ready_at - b.issue_at, 2);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = small();
        let addr = 0x4000;
        let first = h.data_read(addr, 0);
        assert_eq!(first.level, Level::Memory);
        // Evict from L1 (8 KB direct-mapped: +8 KB conflicts), keep in L2.
        let _ = h.data_read(addr + 8 * 1024, 100);
        let again = h.data_read(addr, 300);
        assert_eq!(again.level, Level::L2);
        assert_eq!(again.ready_at - again.issue_at, 8);
    }

    #[test]
    fn mshr_merge_same_line() {
        let mut h = small();
        let a = h.data_read(0x8000, 0);
        let b = h.data_read(0x8008, 1); // same 32-byte line, outstanding
        assert_eq!(h.stats().mshr_merges, 1);
        assert_eq!(
            b.ready_at, a.ready_at,
            "merged access waits for the same fill"
        );
        assert_eq!(b.issue_at, 1, "merge does not stall");
        assert_eq!(b.level, a.level);
    }

    #[test]
    fn mshr_structural_stall_when_full() {
        let mut h = Hierarchy::new(MemConfig::alpha21164().with_mshrs(2), 0..0);
        // Three distinct-line misses back-to-back.
        let _a = h.data_read(0x0000_0000, 0);
        let b = h.data_read(0x0000_1000, 1);
        let c = h.data_read(0x0000_2000, 2);
        // The third miss waits until the earliest outstanding fill frees
        // its MSHR.
        assert_eq!(c.issue_at, b.ready_at.min(_a.ready_at));
        assert!(h.stats().mshr_stall_cycles > 0);
    }

    #[test]
    fn blocking_cache_with_one_mshr() {
        let mut h = Hierarchy::new(MemConfig::alpha21164().with_mshrs(1), 0..0);
        let a = h.data_read(0x0000, 0);
        let b = h.data_read(0x4000_0000, 1);
        assert_eq!(
            b.issue_at, a.ready_at,
            "one MSHR means fully serialised misses"
        );
    }

    #[test]
    fn tlb_miss_penalty_applies() {
        let mut h = small();
        let a = h.data_read(0, 0);
        assert_eq!(a.issue_at, u64::from(h.config().tlb_miss_penalty));
        let b = h.data_read(8, a.ready_at);
        assert_eq!(b.issue_at, a.ready_at, "same page: no second penalty");
        assert_eq!(h.stats().dtb_misses, 1);
    }

    #[test]
    fn icache_behaviour() {
        let mut h = small();
        let a = h.inst_fetch(0x100, 5);
        assert!(a.ready_at > 5, "cold I-fetch misses");
        let b = h.inst_fetch(0x104, a.ready_at);
        assert_eq!(b.ready_at, b.issue_at, "same line hits for free");
        assert_eq!(h.stats().icache_misses, 1);
    }

    #[test]
    fn writes_never_stall_and_stay_write_through() {
        let mut h = small();
        let w = h.data_write(0x9000, 40); // TLB cold
        assert_eq!(w.ready_at, w.issue_at + 1);
        // No allocation on write miss: a subsequent read still misses L1.
        let r = h.data_read(0x9000, 100);
        assert_ne!(r.level, Level::L1);
        assert_eq!(h.stats().stores, 1);
    }
}

#[cfg(test)]
mod prefetch_and_policy_tests {
    use super::*;

    #[test]
    fn nextline_prefetch_covers_sequential_misses() {
        let mut h = Hierarchy::new(
            MemConfig::alpha21164().with_prefetch(PrefetchKind::NextLine),
            0..0,
        );
        // Warm the TLB page, then a cold miss to a fresh line.
        let _ = h.data_read(0x10_0000, 0);
        let a = h.data_read(0x10_1000, 1000);
        assert_ne!(a.level, Level::L1);
        assert!(h.stats().prefetches >= 1, "miss must trigger a prefetch");
        // The next line is in flight: a prompt demand read merges with
        // the prefetch instead of missing all the way to memory.
        let b = h.data_read(0x10_1000 + 32, a.issue_at + 1);
        assert_eq!(h.stats().prefetch_useful, 1, "{:?}", h.stats());
        assert!(
            b.ready_at < a.issue_at + 1 + u64::from(h.config().mem_latency),
            "covered miss must beat a full memory round trip"
        );
        // After the fill lands, the line is simply resident.
        let c = h.data_read(0x10_1000 + 40, b.ready_at + 100);
        assert_eq!(c.level, Level::L1);
    }

    #[test]
    fn prefetch_counts_useful_at_most_once() {
        let mut h = Hierarchy::new(
            MemConfig::alpha21164().with_prefetch(PrefetchKind::NextLine),
            0..0,
        );
        let _ = h.data_read(0x10_0000, 0);
        let a = h.data_read(0x10_1000, 1000); // prefetches the next line
        assert!(h.stats().prefetches >= 1, "{:?}", h.stats());
        // Two demand reads merge into the same in-flight prefetch: the
        // prefetch covered one miss, so it was useful once, not twice.
        let _ = h.data_read(0x10_1000 + 32, a.issue_at + 1);
        let _ = h.data_read(0x10_1000 + 40, a.issue_at + 2);
        assert_eq!(h.stats().prefetch_useful, 1, "{:?}", h.stats());
    }

    #[test]
    fn stride_prefetch_needs_a_repeated_delta() {
        let mut h = Hierarchy::new(
            MemConfig::alpha21164().with_prefetch(PrefetchKind::Stride),
            0..0,
        );
        let _ = h.data_read(0x10_0000, 0); // warm page; first miss
        let _ = h.data_read(0x10_0040, 100); // delta established (2 lines)
        assert_eq!(h.stats().prefetches, 0, "no prediction yet");
        let _ = h.data_read(0x10_0080, 200); // delta repeats -> prefetch 0x10_00C0
        assert_eq!(h.stats().prefetches, 1, "{:?}", h.stats());
        let d = h.data_read(0x10_00C0, 201);
        assert_eq!(h.stats().prefetch_useful, 1);
        assert!(d.ready_at <= 201 + u64::from(h.config().mem_latency));
    }

    #[test]
    fn prefetch_stays_inside_the_page_and_spare_capacity() {
        let cfg = MemConfig::alpha21164()
            .with_prefetch(PrefetchKind::NextLine)
            .with_mshrs(1);
        let mut h = Hierarchy::new(cfg, 0..0);
        let _ = h.data_read(0x10_0000, 0);
        assert_eq!(
            h.stats().prefetches,
            0,
            "a full miss-address file leaves no room for prefetches"
        );
        // Last line of a page: the next line crosses, so no prefetch.
        let mut h = Hierarchy::new(
            MemConfig::alpha21164().with_prefetch(PrefetchKind::NextLine),
            0..0,
        );
        let last_line = 0x10_0000 + 8 * 1024 - 32;
        let _ = h.data_read(last_line, 0);
        assert_eq!(h.stats().prefetches, 0, "prefetches never cross a page");
    }

    #[test]
    fn nomerge_stalls_secondary_misses_until_the_fill() {
        let mut h = Hierarchy::new(
            MemConfig::alpha21164().with_mshr_policy(MshrPolicy::NoMerge),
            0..0,
        );
        let a = h.data_read(0x8000, 0);
        let b = h.data_read(0x8008, a.issue_at + 1); // same line, in flight
        assert_eq!(h.stats().mshr_merges, 0, "no merging under NoMerge");
        assert_eq!(b.issue_at, a.ready_at, "stalls until the fill lands");
        assert_eq!(b.level, Level::L1, "then reads the just-filled line");
        assert!(h.stats().mshr_stall_cycles > 0);
    }

    #[test]
    fn blocking_policy_serialises_all_misses() {
        let mut h = Hierarchy::new(
            MemConfig::alpha21164().with_mshr_policy(MshrPolicy::Blocking),
            0..0,
        );
        let a = h.data_read(0x0000_0000, 0);
        // Different line (and a different L1 set, so nothing is
        // evicted), plenty of MSHRs — still waits for the fill.
        let b = h.data_read(0x0000_1000, a.issue_at + 1);
        assert_eq!(b.issue_at, a.ready_at, "blocking cache: no overlap");
        assert!(h.stats().mshr_stall_cycles > 0);
        // And even a would-be L1 hit waits while a miss is outstanding.
        let c = h.data_read(0x0000_0000, b.issue_at + 1);
        assert_eq!(c.issue_at, b.ready_at);
        assert_eq!(c.level, Level::L1);
    }

    #[test]
    fn default_machine_has_no_new_axis_traffic() {
        // The paper's machine must be byte-identical to before the axes
        // existed: no prefetches, merging semantics.
        let mut h = Hierarchy::new(MemConfig::alpha21164(), 0..0);
        for k in 0..64 {
            let _ = h.data_read(0x10_0000 + k * 32, k * 200);
        }
        assert_eq!(h.stats().prefetches, 0);
        assert_eq!(h.stats().prefetch_useful, 0);
    }
}

#[cfg(test)]
mod write_buffer_tests {
    use super::*;

    #[test]
    fn store_bursts_stall_on_a_finite_buffer() {
        let mut h = Hierarchy::new(MemConfig::alpha21164().with_write_buffer(2), 0..0);
        // Warm the TLB page first.
        let _ = h.data_write(0x1000, 0);
        let mut now = 100;
        let mut stalled = false;
        for k in 0..8 {
            let a = h.data_write(0x1000 + k * 8, now);
            if a.issue_at > now {
                stalled = true;
            }
            now = a.issue_at + 1;
        }
        assert!(stalled, "a burst of 8 stores must fill a 2-entry buffer");
        assert!(h.stats().wb_stall_cycles > 0);
    }

    #[test]
    fn infinite_buffer_never_stalls() {
        let mut h = Hierarchy::new(MemConfig::alpha21164(), 0..0);
        let _ = h.data_write(0x1000, 0);
        for (now, k) in (100..).zip(0..32) {
            let a = h.data_write(0x1000 + k * 8, now);
            assert_eq!(a.issue_at, now);
        }
        assert_eq!(h.stats().wb_stall_cycles, 0);
    }

    #[test]
    fn spaced_stores_do_not_stall() {
        let mut h = Hierarchy::new(MemConfig::alpha21164().with_write_buffer(2), 0..0);
        let _ = h.data_write(0x1000, 0);
        let mut now = 100;
        for k in 0..8 {
            let a = h.data_write(0x1000 + k * 8, now);
            assert_eq!(a.issue_at, now, "a drained buffer never stalls");
            now = a.issue_at + 10; // far apart
        }
    }
}

#[cfg(test)]
mod recorded_answers {
    //! The hierarchy's answers pinned as data: one FNV-1a digest per
    //! stream over every `Access` and the running `MemStats`, recorded
    //! from the readable reference model this one replaced, which
    //! answered these streams identically.

    use super::*;
    use bsched_util::{Fnv1a, Prng};

    fn absorb(h: &mut Fnv1a, a: Access, s: &MemStats) {
        let words = [
            a.issue_at,
            a.ready_at,
            a.level as u64,
            a.stall,
            s.l1d_hits,
            s.l2_hits,
            s.l3_hits,
            s.mem_reads,
            s.mshr_merges,
            s.mshr_stall_cycles,
            s.dtb_misses,
            s.itb_misses,
            s.icache_misses,
            s.stores,
            s.wb_stall_cycles,
            s.prefetches,
            s.prefetch_useful,
        ];
        for w in words {
            h.write(&w.to_le_bytes());
        }
    }

    /// A random interleaved stream of 20,000 reads (mostly a hot set,
    /// sometimes far), writes and instruction fetches across
    /// representative configurations: a finite write buffer, blocking
    /// caches, every prefetcher and MSHR policy, and a code segment too
    /// large for the static-fetch proof.
    #[test]
    fn random_streams_reproduce_the_recorded_digests() {
        let base = MemConfig::alpha21164();
        let code_base = 0x4000u64;
        // 8 KB of code exactly fills the 8 KB direct-mapped I-cache:
        // the proof's boundary case.
        let fits = code_base + 8 * 1024;
        let configs = [
            ("alpha", base, fits, 0xb231_ac23_c0f9_f8ca_u64),
            ("blocking", base.with_mshrs(1), fits, 0x36b3_c9eb_66d3_57b6),
            (
                "wb2",
                base.with_write_buffer(2),
                fits,
                0x4570_8777_19f5_1317,
            ),
            // 64 KB of code on an 8 KB I-cache can conflict, so every
            // fetch is modelled per access.
            (
                "big-code",
                base,
                code_base + 64 * 1024,
                0xd4c1_c22a_bc38_dbc7,
            ),
            (
                "nextline",
                base.with_prefetch(PrefetchKind::NextLine),
                fits,
                0x11f0_183c_1f17_0f3b,
            ),
            (
                "stride",
                base.with_prefetch(PrefetchKind::Stride),
                fits,
                0xdba8_ee73_43d6_ad34,
            ),
            (
                "nomerge",
                base.with_mshr_policy(MshrPolicy::NoMerge),
                fits,
                0x27b5_3491_b8cf_d2fc,
            ),
            (
                "blocking-policy",
                base.with_mshr_policy(MshrPolicy::Blocking),
                fits,
                0xa35a_63d2_3958_32ff,
            ),
            (
                "stride-nomerge-wb",
                base.with_prefetch(PrefetchKind::Stride)
                    .with_mshr_policy(MshrPolicy::NoMerge)
                    .with_mshrs(2)
                    .with_write_buffer(2),
                fits,
                0x680d_139a_f691_be6c,
            ),
        ];
        for (name, config, code_end, recorded) in configs {
            let mut h = Hierarchy::new(config, code_base..code_end);
            assert_eq!(h.skip_ifetch, name != "big-code", "{name}");
            let mut rng = Prng::new(0xFA57_0001 + code_end);
            let mut digest = Fnv1a::new();
            let mut now = 0u64;
            for _ in 0..20_000 {
                let a = match rng.index(8) {
                    0..=3 => h.data_read(0x10_0000 + rng.range_u64(0, 4096) * 8, now),
                    4 => h.data_read(rng.range_u64(0, 1 << 22), now),
                    5..=6 => h.data_write(0x10_0000 + rng.range_u64(0, 4096) * 8, now),
                    _ => {
                        let pc = code_base + rng.range_u64(0, (code_end - code_base) / 4) * 4;
                        h.inst_fetch(pc, now)
                    }
                };
                absorb(&mut digest, a, h.stats());
                now += rng.range_u64(0, 4);
            }
            assert_eq!(digest.finish(), recorded, "{name}: answers moved");
        }
    }

    /// The sequential code walk the engines produce: three front-to-back
    /// sweeps, one fetch per line (the first sweep misses, later sweeps
    /// take the proven-static path).
    #[test]
    fn code_sweeps_reproduce_the_recorded_digest() {
        let (code_base, code_end) = (0x4000u64, 0x4000 + 2048);
        let mut h = Hierarchy::new(MemConfig::alpha21164(), code_base..code_end);
        let mut digest = Fnv1a::new();
        let mut now = 7;
        for _sweep in 0..3 {
            for pc in (code_base..code_end).step_by(32) {
                let a = h.inst_fetch(pc, now);
                absorb(&mut digest, a, h.stats());
                now = a.ready_at + 1;
            }
        }
        assert_eq!(digest.finish(), 0x78b2_9d86_9455_de24);
    }

    /// Fetches below the code segment and at or past its end take the
    /// per-access path, and so does every fetch after them: a fetch
    /// at `code_base + 8 KB` evicts the segment's first line from the
    /// direct-mapped I-cache, and the refetch must miss. The answers
    /// equal those of a hierarchy that declares no code segment.
    #[test]
    fn fetches_outside_the_code_segment_are_modelled_per_access() {
        let (code_base, code_end) = (0x4000u64, 0x4800);
        let mut h = Hierarchy::new(MemConfig::alpha21164(), code_base..code_end);
        let mut plain = Hierarchy::new(MemConfig::alpha21164(), 0..0);
        let stream = [
            code_base,
            code_base + 4,
            code_base - 4,
            code_end,
            code_end + 64,
            code_base + 8 * 1024,
            code_base,
            code_end - 4,
            0,
        ];
        let mut now = 0;
        let mut levels = Vec::new();
        for pc in stream {
            let a = h.inst_fetch(pc, now);
            assert_eq!(a, plain.inst_fetch(pc, now), "fetch at {pc:#x}");
            assert_eq!(h.stats(), plain.stats());
            levels.push(a.level);
            now = a.ready_at + 1;
        }
        assert!(!h.skip_ifetch);
        assert_eq!(levels[1], Level::L1, "same line as the first fetch");
        assert_ne!(levels[6], Level::L1, "the evicted first line must miss");
        assert_eq!(h.stats().icache_misses, 8);
    }
}
