//! The block-compiled engine's private memory-model implementation.
//!
//! [`FastHier`] reproduces `bsched_mem::Hierarchy` **bit for bit** —
//! identical `Access` answers, identical `MemStats`, identical cache,
//! TLB, MSHR, and write-buffer state evolution — but is written for
//! replay speed where the shared hierarchy is written as a readable
//! reference model:
//!
//! * power-of-two geometry is resolved to shifts and masks once at
//!   construction instead of dividing on every access (with an exact
//!   division fallback for non-power-of-two line sizes);
//! * the fully associative TLBs remember their most-recent hit and
//!   probe it before the linear scan (same entries, same LRU stamps —
//!   only the search order for the *matching* entry changes, and the
//!   match is unique);
//! * the MSHR file skips its retire/merge scans while empty (scanning
//!   an empty file is a no-op in the reference model too);
//! * instruction fetches are *proven static* where possible: when the
//!   whole code segment fits the I-cache without conflict (contiguous
//!   lines ≤ sets × assoc) and spans at most `itb_entries` pages,
//!   neither structure can ever evict a code entry, so once a line has
//!   been fetched every later fetch of it is a guaranteed hit that
//!   returns `ready_at == issue_at` and changes no observable state —
//!   those probes collapse to one bit test. Programs too large for the
//!   proof fall back to exact per-fetch modelling.
//!
//! The equivalence suite (`tests/engine_equiv.rs`, the verify grid, and
//! the pipeline fuzzer) pins this module against the reference
//! hierarchy on every metric of every cell.

use bsched_mem::{Access, CacheConfig, Level, MemConfig, MemStats, MshrPolicy, PrefetchKind};

/// One cache way: tag + valid + true-LRU stamp (same replacement state
/// as `bsched_mem::cache::Cache`).
#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    stamp: u64,
}

/// A set-associative cache with shift/mask indexing.
#[derive(Debug, Clone)]
struct FastCache {
    ways: Vec<Way>,
    assoc: usize,
    /// `log2(line)`, or the raw line size when it is not a power of
    /// two (then `set_mask`/`tag_shift` are unused).
    line_shift: u32,
    line: u64,
    line_pow2: bool,
    sets: u64,
    set_mask: u64,
    tag_shift: u32,
    clock: u64,
}

impl FastCache {
    fn new(config: CacheConfig) -> Self {
        let sets = config.sets(); // asserts power-of-two set count
        let line_pow2 = config.line.is_power_of_two();
        let line_shift = config.line.trailing_zeros();
        FastCache {
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
            line: config.line,
            line_pow2,
            sets,
            set_mask: sets - 1,
            tag_shift: line_shift + sets.trailing_zeros(),
            clock: 0,
        }
    }

    /// `(set, tag)` of `addr` — identical to the reference model's
    /// `(addr / line) % sets` and `addr / line / sets`.
    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        if self.line_pow2 {
            (
                ((addr >> self.line_shift) & self.set_mask) as usize,
                addr >> self.tag_shift,
            )
        } else {
            let l = addr / self.line;
            ((l % self.sets) as usize, l / self.sets)
        }
    }

    /// Lookup with allocate-on-miss (reads / instruction fetches).
    #[inline]
    fn access(&mut self, addr: u64) -> bool {
        self.access_inner(addr, true)
    }

    /// Lookup without allocation (write-through stores).
    #[inline]
    fn probe_update(&mut self, addr: u64) -> bool {
        self.access_inner(addr, false)
    }

    #[inline]
    fn access_inner(&mut self, addr: u64, allocate: bool) -> bool {
        self.clock += 1;
        let (set, tag) = self.index(addr);
        if self.assoc == 1 {
            // Direct-mapped fast path (the 21164 L1s): one way, no scan,
            // and the victim is always that way.
            let w = &mut self.ways[set];
            if w.valid && w.tag == tag {
                w.stamp = self.clock;
                return true;
            }
            if allocate {
                *w = Way {
                    tag,
                    valid: true,
                    stamp: self.clock,
                };
            }
            return false;
        }
        if self.assoc == 3 {
            // Three-way fast path (the 21164 L2): a fixed-size array
            // reference so the probe and the LRU victim scan fully
            // unroll.
            let ways: &mut [Way; 3] = (&mut self.ways[set * 3..set * 3 + 3])
                .try_into()
                .expect("slice of length 3");
            for w in ways.iter_mut() {
                if w.valid && w.tag == tag {
                    w.stamp = self.clock;
                    return true;
                }
            }
            if allocate {
                let victim = ways
                    .iter_mut()
                    .min_by_key(|w| if w.valid { w.stamp } else { 0 })
                    .expect("cache has at least one way");
                *victim = Way {
                    tag,
                    valid: true,
                    stamp: self.clock,
                };
            }
            return false;
        }
        let ways = &mut self.ways[set * self.assoc..(set + 1) * self.assoc];
        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            w.stamp = self.clock;
            return true;
        }
        if allocate {
            let victim = ways
                .iter_mut()
                .min_by_key(|w| if w.valid { w.stamp } else { 0 })
                .expect("cache has at least one way");
            *victim = Way {
                tag,
                valid: true,
                stamp: self.clock,
            };
        }
        false
    }

    /// `true` if `addr`'s line is resident — no clock bump, no LRU
    /// touch (mirrors `bsched_mem::cache::Cache::contains`).
    #[inline]
    fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.ways[set * self.assoc..(set + 1) * self.assoc]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }
}

/// A fully associative TLB with a direct-mapped **hint table** in front
/// of the linear scan.
///
/// `hints[page % HINTS]` remembers where that page was last seen in
/// `entries`. A hint is only ever trusted after verifying
/// `entries[idx].0 == page`, so stale hints (the page was evicted, or
/// `swap_remove` moved another entry into its slot) simply fall through
/// to the exact scan — the hit/miss answers and the LRU stamp evolution
/// are identical to scanning alone, the scan just rarely runs. The
/// match is unique (pages are distinct), so probe order cannot change
/// which entry matches.
#[derive(Debug, Clone)]
struct FastTlb {
    entries: Vec<(u64, u64)>, // (page number, last-use stamp)
    /// `(page, index into entries)`, indexed by `page % HINTS`.
    /// `u64::MAX` is an impossible page number (no sentinel aliasing:
    /// a real page fits well below 2^52).
    hints: Box<[(u64, u32)]>,
    capacity: usize,
    page_shift: u32,
    clock: u64,
}

/// Hint-table slots: a power of two several times the largest TLB so
/// distinct hot pages rarely collide.
const TLB_HINTS: usize = 512;

impl FastTlb {
    fn new(capacity: usize, page_size: u64) -> Self {
        assert!(capacity > 0);
        assert!(page_size.is_power_of_two());
        FastTlb {
            entries: Vec::with_capacity(capacity),
            hints: vec![(u64::MAX, 0); TLB_HINTS].into_boxed_slice(),
            capacity,
            page_shift: page_size.trailing_zeros(),
            clock: 0,
        }
    }

    #[inline]
    fn access(&mut self, addr: u64) -> bool {
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

#[derive(Debug, Clone, Copy)]
struct MshrEntry {
    line: u64,
    fill_at: u64,
    level: Level,
    /// The entry was allocated by the prefetcher, not a demand miss.
    prefetch: bool,
}

/// The demand-miss stride tracker feeding the L1D prefetcher — same
/// state evolution as the reference model's.
#[derive(Debug, Clone, Copy, Default)]
struct StrideTracker {
    last_line: u64,
    last_delta: i64,
    /// 0 = cold, 1 = one miss seen, 2 = a delta established.
    seen: u8,
}

impl StrideTracker {
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

/// The engine-private hierarchy. Constructed per run with the code
/// segment bounds so the instruction-fetch fast path can be proven.
#[derive(Debug)]
pub(crate) struct FastHier {
    config: MemConfig,
    l1d: FastCache,
    icache: FastCache,
    l2: FastCache,
    l3: Option<FastCache>,
    dtb: FastTlb,
    itb: FastTlb,
    mshrs: Vec<MshrEntry>,
    /// Earliest `fill_at` among `mshrs` (`u64::MAX` when empty): the
    /// retire scan runs only when an entry has actually expired, which
    /// is at most once per miss instead of once per access.
    mshr_earliest: u64,
    stride: StrideTracker,
    write_buffer: Vec<u64>,
    stats: MemStats,
    /// The static no-eviction proof held, so touched code lines are
    /// resident forever.
    skip_ifetch: bool,
    code_base: u64,
    /// One bit per code line: set once the line has been fetched
    /// through the exact path.
    line_touched: Vec<u64>,
}

impl FastHier {
    /// Builds a cold hierarchy for a code segment spanning
    /// `[code_base, code_end)`.
    pub fn new(config: MemConfig, code_base: u64, code_end: u64) -> Self {
        let icache = FastCache::new(config.icache);
        let itb_pages = ((code_end.max(code_base + 1) - 1) >> config.page_size.trailing_zeros())
            - (code_base >> config.page_size.trailing_zeros())
            + 1;
        let code_lines = if icache.line_pow2 {
            ((code_end.max(code_base + 1) - 1 - code_base) >> icache.line_shift) + 1
        } else {
            (code_end.max(code_base + 1) - 1 - code_base) / icache.line + 1
        };
        // The proof: contiguous lines spread round-robin over the sets,
        // so `lines ≤ sets × assoc` bounds every set's distinct code
        // lines by the associativity — no code line can ever be evicted
        // (only instruction fetches touch the I-cache). Likewise at
        // most `itb_entries` code pages means the fully associative ITB
        // never evicts a code page.
        let skip_ifetch = config.page_size.is_power_of_two()
            && icache.line_pow2
            && code_lines <= icache.sets * icache.assoc as u64
            && itb_pages <= config.itb_entries as u64;
        FastHier {
            l1d: FastCache::new(config.l1d),
            l2: FastCache::new(config.l2),
            l3: config.l3.map(FastCache::new),
            dtb: FastTlb::new(config.dtb_entries, config.page_size),
            itb: FastTlb::new(config.itb_entries, config.page_size),
            mshrs: Vec::with_capacity(config.mshrs),
            mshr_earliest: u64::MAX,
            stride: StrideTracker::default(),
            write_buffer: Vec::new(),
            stats: MemStats::default(),
            skip_ifetch,
            code_base,
            line_touched: vec![0u64; (code_lines as usize).div_ceil(64)],
            icache,
            config,
        }
    }

    /// Statistics gathered so far (same `MemStats` the reference model
    /// reports).
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Drops entries whose fill time has passed (`fill_at <= now`) and
    /// recomputes the earliest remaining fill — exactly the reference
    /// model's `retain(|e| e.fill_at > now)`.
    fn retire_mshrs(&mut self, now: u64) {
        self.mshrs.retain(|e| e.fill_at > now);
        self.mshr_earliest = self
            .mshrs
            .iter()
            .map(|e| e.fill_at)
            .min()
            .unwrap_or(u64::MAX);
    }

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

    /// A data read of the 8 bytes at `addr` issued at `now`.
    #[inline]
    pub fn data_read(&mut self, addr: u64, now: u64) -> Access {
        let mut issue_at = now;
        if !self.dtb.access(addr) {
            self.stats.dtb_misses += 1;
            issue_at += u64::from(self.config.tlb_miss_penalty);
        }
        let line = if self.l1d.line_pow2 {
            addr >> self.l1d.line_shift
        } else {
            addr / self.config.l1d.line
        };
        let mut stall = 0;
        if !self.mshrs.is_empty() {
            // Expired entries exist only when the earliest fill time has
            // passed; the reference model's per-access retain is a no-op
            // otherwise.
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
            self.stats.l1d_hits += 1;
            return Access {
                issue_at,
                ready_at: issue_at + u64::from(self.config.l1d.latency),
                level: Level::L1,
                stall,
            };
        }
        if self.mshrs.len() >= self.config.mshrs {
            let free_at = self.mshr_earliest;
            stall += free_at - issue_at;
            self.stats.mshr_stall_cycles += free_at - issue_at;
            issue_at = free_at;
            self.retire_mshrs(issue_at);
        }
        let (latency, level) = self.lower_levels(addr);
        match level {
            Level::L1 => self.stats.l1d_hits += 1,
            Level::L2 => self.stats.l2_hits += 1,
            Level::L3 => self.stats.l3_hits += 1,
            Level::Memory => self.stats.mem_reads += 1,
        }
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

    /// The demand-miss hook of the L1D prefetcher — same decisions as
    /// the reference model's `maybe_prefetch`, line arithmetic done
    /// with the resolved shift.
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

    /// A data write of the 8 bytes at `addr` issued at `now`.
    #[inline]
    pub fn data_write(&mut self, addr: u64, now: u64) -> Access {
        self.stats.stores += 1;
        let mut issue_at = now;
        if !self.dtb.access(addr) {
            self.stats.dtb_misses += 1;
            issue_at += u64::from(self.config.tlb_miss_penalty);
        }
        let mut stall = 0;
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

    /// An instruction fetch at code address `addr` issued at `now`.
    #[inline]
    pub fn inst_fetch(&mut self, addr: u64, now: u64) -> Access {
        if self.skip_ifetch {
            let idx = ((addr - self.code_base) >> self.icache.line_shift) as usize;
            if self.line_touched[idx / 64] & (1 << (idx % 64)) != 0 {
                // Proven resident: a guaranteed I-cache + ITB hit. The
                // reference model's hit path returns `ready_at ==
                // issue_at` and records nothing in `MemStats`; LRU
                // stamps are irrelevant because nothing can evict.
                return Access {
                    issue_at: now,
                    ready_at: now,
                    level: Level::L1,
                    stall: 0,
                };
            }
            self.line_touched[idx / 64] |= 1 << (idx % 64);
        }
        let mut issue_at = now;
        if !self.itb.access(addr) {
            self.stats.itb_misses += 1;
            issue_at += u64::from(self.config.tlb_miss_penalty);
        }
        if self.icache.access(addr) {
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
    use bsched_mem::Hierarchy;
    use bsched_util::Prng;

    /// Replays a random interleaved access stream through both the
    /// reference hierarchy and `FastHier`, comparing every `Access`
    /// answer (stall included) and the running `MemStats` — across
    /// representative configurations (including a finite write buffer,
    /// a blocking cache, and a code segment too large for the fetch
    /// proof, which forces the exact fallback path).
    #[test]
    fn fast_hier_matches_reference_on_random_streams() {
        let base = MemConfig::alpha21164();
        let configs = [
            // 8 KB of code: exactly fills the 8 KB direct-mapped
            // I-cache, the proof's boundary case.
            ("alpha", base, 0x4000u64 + 8 * 1024),
            ("blocking", base.with_mshrs(1), 0x4000 + 8 * 1024),
            ("wb2", base.with_write_buffer(2), 0x4000 + 8 * 1024),
            // 64 KB of code on an 8 KB I-cache: conflict misses are
            // possible, so the static proof must reject the skip.
            ("big-code", base, 0x4000 + 64 * 1024),
            // The machine-zoo axes: prefetchers and MSHR policies.
            (
                "nextline",
                base.with_prefetch(PrefetchKind::NextLine),
                0x4000 + 8 * 1024,
            ),
            (
                "stride",
                base.with_prefetch(PrefetchKind::Stride),
                0x4000 + 8 * 1024,
            ),
            (
                "nomerge",
                base.with_mshr_policy(MshrPolicy::NoMerge),
                0x4000 + 8 * 1024,
            ),
            (
                "blocking-policy",
                base.with_mshr_policy(MshrPolicy::Blocking),
                0x4000 + 8 * 1024,
            ),
            // Everything at once: stride prefetch under a no-merge file
            // with a finite write buffer and 2 MSHRs.
            (
                "stride-nomerge-wb",
                base.with_prefetch(PrefetchKind::Stride)
                    .with_mshr_policy(MshrPolicy::NoMerge)
                    .with_mshrs(2)
                    .with_write_buffer(2),
                0x4000 + 8 * 1024,
            ),
        ];
        for (name, config, code_end) in configs {
            let code_base = 0x4000u64;
            let mut reference = Hierarchy::new(config);
            let mut fast = FastHier::new(config, code_base, code_end);
            if name == "big-code" {
                assert!(!fast.skip_ifetch, "64 KB of code cannot be conflict-free");
            } else {
                assert!(fast.skip_ifetch);
            }
            let mut rng = Prng::new(0xFA57_0001 + code_end);
            let mut now = 0u64;
            for step in 0..20_000 {
                match rng.index(8) {
                    // Reads: mostly a small hot set, sometimes far.
                    0..=3 => {
                        let addr = 0x10_0000 + rng.range_u64(0, 4096) * 8;
                        let want = reference.data_read(addr, now);
                        let got = fast.data_read(addr, now);
                        assert_eq!(got, want, "{name}: read step {step}");
                    }
                    4 => {
                        let addr = rng.range_u64(0, 1 << 22);
                        let want = reference.data_read(addr, now);
                        let got = fast.data_read(addr, now);
                        assert_eq!(got, want, "{name}: far read step {step}");
                    }
                    5..=6 => {
                        let addr = 0x10_0000 + rng.range_u64(0, 4096) * 8;
                        let want = reference.data_write(addr, now);
                        let got = fast.data_write(addr, now);
                        assert_eq!(got, want, "{name}: write step {step}");
                    }
                    _ => {
                        let addr = code_base + (rng.range_u64(0, (code_end - code_base) / 4)) * 4;
                        let want = reference.inst_fetch(addr, now);
                        let got = fast.inst_fetch(addr, now);
                        assert_eq!(got, want, "{name}: fetch step {step}");
                    }
                }
                now += rng.range_u64(0, 4);
                assert_eq!(fast.stats(), reference.stats(), "{name}: stats step {step}");
            }
        }
    }

    /// The sequential code-walk pattern the replay loop actually
    /// produces: repeated front-to-back sweeps must agree exactly
    /// (first sweep exercises the exact path, later sweeps the proven
    /// skip).
    #[test]
    fn fast_hier_matches_reference_on_code_sweeps() {
        let config = MemConfig::alpha21164();
        let (code_base, code_end) = (0x4000u64, 0x4000 + 2048);
        let mut reference = Hierarchy::new(config);
        let mut fast = FastHier::new(config, code_base, code_end);
        let mut now = 7;
        for _sweep in 0..3 {
            let mut pc = code_base;
            while pc < code_end {
                let want = reference.inst_fetch(pc, now);
                let got = fast.inst_fetch(pc, now);
                assert_eq!(got, want, "pc {pc:#x}");
                now = want.ready_at + 1;
                pc += 32; // one probe per line, as the skeleton batches
            }
        }
        assert_eq!(fast.stats(), reference.stats());
    }
}
