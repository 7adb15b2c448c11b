//! The full memory hierarchy: L1D (lockup-free) → L2 → L3 → memory, plus
//! I-cache and TLBs.

use crate::cache::Cache;
use crate::config::{MemConfig, MshrPolicy, PrefetchKind};
use crate::stats::MemStats;
use crate::tlb::Tlb;

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
    /// Cycle the access could actually begin (`> now` only when the
    /// lockup-free cache ran out of MSHRs and the pipeline had to stall).
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
    stride: StrideTracker,
    /// Drain-completion times of buffered stores (finite write buffer).
    write_buffer: Vec<u64>,
    stats: MemStats,
}

impl Hierarchy {
    /// Builds a cold hierarchy.
    #[must_use]
    pub fn new(config: MemConfig) -> Self {
        Hierarchy {
            l1d: Cache::new(config.l1d),
            icache: Cache::new(config.icache),
            l2: Cache::new(config.l2),
            l3: config.l3.map(Cache::new),
            dtb: Tlb::new(config.dtb_entries, config.page_size),
            itb: Tlb::new(config.itb_entries, config.page_size),
            mshrs: Vec::with_capacity(config.mshrs),
            stride: StrideTracker::default(),
            write_buffer: Vec::new(),
            stats: MemStats::default(),
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
    pub fn data_read(&mut self, addr: u64, now: u64) -> Access {
        let mut issue_at = now;
        if !self.dtb.access(addr) {
            self.stats.dtb_misses += 1;
            issue_at += u64::from(self.config.tlb_miss_penalty);
        }
        let line = addr / self.config.l1d.line;
        let mut stall = 0;
        self.mshrs.retain(|e| e.fill_at > issue_at);
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
        }
        // A line whose fill is still in flight: the L1 tag matches (it
        // was allocated at miss time) but the data arrives only at fill
        // time. Under `Merge` the read joins the entry; under `NoMerge`
        // it stalls until the fill lands and then reads L1.
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
            self.mshrs.retain(|e| e.fill_at > issue_at);
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
        // L1 miss: lockup-free path through the miss-address file.
        if self.mshrs.len() >= self.config.mshrs {
            // Structural stall: wait for the earliest fill.
            let free_at = self
                .mshrs
                .iter()
                .map(|e| e.fill_at)
                .min()
                .expect("mshrs non-empty");
            stall += free_at - issue_at;
            self.stats.mshr_stall_cycles += free_at - issue_at;
            issue_at = free_at;
            self.mshrs.retain(|e| e.fill_at > issue_at);
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
        self.mshrs.push(MshrEntry {
            line: pf_line,
            fill_at: issue_at + u64::from(latency),
            level,
            prefetch: true,
        });
    }

    /// A data write of the 8 bytes at `addr` (write-through,
    /// no-write-allocate; stores never stall the pipeline — the 21164's
    /// write buffer absorbs them).
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
    pub fn inst_fetch(&mut self, addr: u64, now: u64) -> Access {
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
        Hierarchy::new(MemConfig::alpha21164())
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
        let mut h = Hierarchy::new(MemConfig::alpha21164().with_mshrs(2));
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
        let mut h = Hierarchy::new(MemConfig::alpha21164().with_mshrs(1));
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
        let mut h = Hierarchy::new(MemConfig::alpha21164().with_prefetch(PrefetchKind::NextLine));
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
        let mut h = Hierarchy::new(MemConfig::alpha21164().with_prefetch(PrefetchKind::NextLine));
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
        let mut h = Hierarchy::new(MemConfig::alpha21164().with_prefetch(PrefetchKind::Stride));
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
        let mut h = Hierarchy::new(cfg);
        let _ = h.data_read(0x10_0000, 0);
        assert_eq!(
            h.stats().prefetches,
            0,
            "a full miss-address file leaves no room for prefetches"
        );
        // Last line of a page: the next line crosses, so no prefetch.
        let mut h = Hierarchy::new(MemConfig::alpha21164().with_prefetch(PrefetchKind::NextLine));
        let last_line = 0x10_0000 + 8 * 1024 - 32;
        let _ = h.data_read(last_line, 0);
        assert_eq!(h.stats().prefetches, 0, "prefetches never cross a page");
    }

    #[test]
    fn nomerge_stalls_secondary_misses_until_the_fill() {
        let mut h = Hierarchy::new(MemConfig::alpha21164().with_mshr_policy(MshrPolicy::NoMerge));
        let a = h.data_read(0x8000, 0);
        let b = h.data_read(0x8008, a.issue_at + 1); // same line, in flight
        assert_eq!(h.stats().mshr_merges, 0, "no merging under NoMerge");
        assert_eq!(b.issue_at, a.ready_at, "stalls until the fill lands");
        assert_eq!(b.level, Level::L1, "then reads the just-filled line");
        assert!(h.stats().mshr_stall_cycles > 0);
    }

    #[test]
    fn blocking_policy_serialises_all_misses() {
        let mut h = Hierarchy::new(MemConfig::alpha21164().with_mshr_policy(MshrPolicy::Blocking));
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
        let mut h = Hierarchy::new(MemConfig::alpha21164());
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
        let mut h = Hierarchy::new(MemConfig::alpha21164().with_write_buffer(2));
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
        let mut h = Hierarchy::new(MemConfig::alpha21164());
        let _ = h.data_write(0x1000, 0);
        for (now, k) in (100..).zip(0..32) {
            let a = h.data_write(0x1000 + k * 8, now);
            assert_eq!(a.issue_at, now);
        }
        assert_eq!(h.stats().wb_stall_cycles, 0);
    }

    #[test]
    fn spaced_stores_do_not_stall() {
        let mut h = Hierarchy::new(MemConfig::alpha21164().with_write_buffer(2));
        let _ = h.data_write(0x1000, 0);
        let mut now = 100;
        for k in 0..8 {
            let a = h.data_write(0x1000 + k * 8, now);
            assert_eq!(a.issue_at, now, "a drained buffer never stalls");
            now = a.issue_at + 10; // far apart
        }
    }
}
