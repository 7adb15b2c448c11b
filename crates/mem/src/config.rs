//! Memory-system configuration (the paper's Table 2, plus the machine
//! zoo's prefetch and MSHR-policy axes).

use std::fmt;
use std::str::FromStr;

/// Hardware L1 data prefetcher (demand-miss triggered).
///
/// Prefetches are issued only on true L1D read misses, only within the
/// missing page, and only into *free* MSHR capacity — they never stall
/// or displace a demand miss. A prefetch fills the L1 line and occupies
/// an MSHR entry until its fill lands, so demand reads that arrive
/// while it is in flight merge with it exactly like secondary demand
/// misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrefetchKind {
    /// No prefetching (the paper's machine).
    #[default]
    None,
    /// Fetch line `n + 1` on a demand miss to line `n`.
    NextLine,
    /// Fetch line `n + d` when two consecutive demand misses repeat the
    /// same non-zero line stride `d`.
    Stride,
}

impl PrefetchKind {
    /// Short stable name, used by machine specs and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PrefetchKind::None => "none",
            PrefetchKind::NextLine => "nextline",
            PrefetchKind::Stride => "stride",
        }
    }

    /// The valid spellings, for error messages.
    #[must_use]
    pub fn valid_choices() -> &'static str {
        "none, nextline, stride"
    }
}

impl fmt::Display for PrefetchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for PrefetchKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" | "off" => Ok(PrefetchKind::None),
            "nextline" | "next-line" => Ok(PrefetchKind::NextLine),
            "stride" => Ok(PrefetchKind::Stride),
            other => Err(bsched_util::spec::unknown(
                "prefetcher",
                other,
                &format!("valid prefetchers: {}", PrefetchKind::valid_choices()),
            )),
        }
    }
}

/// What the L1D miss-address file does with a read whose line already
/// has an outstanding miss, and whether misses overlap at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MshrPolicy {
    /// Lockup-free with merging (the paper's machine): secondary misses
    /// join the outstanding entry and wait for its fill.
    #[default]
    Merge,
    /// Lockup-free without merging: a secondary miss stalls the
    /// pipeline until the outstanding fill lands, then reads the
    /// just-filled line from L1.
    NoMerge,
    /// A blocking cache: any read issued while *any* miss is
    /// outstanding stalls until every outstanding fill lands
    /// (independent of `mshrs`, which only matters for overlap).
    Blocking,
}

impl MshrPolicy {
    /// Short stable name, used by machine specs and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MshrPolicy::Merge => "merge",
            MshrPolicy::NoMerge => "nomerge",
            MshrPolicy::Blocking => "blocking",
        }
    }

    /// The valid spellings, for error messages.
    #[must_use]
    pub fn valid_choices() -> &'static str {
        "merge, nomerge, blocking"
    }
}

impl fmt::Display for MshrPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for MshrPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "merge" => Ok(MshrPolicy::Merge),
            "nomerge" | "no-merge" => Ok(MshrPolicy::NoMerge),
            "blocking" => Ok(MshrPolicy::Blocking),
            other => Err(bsched_util::spec::unknown(
                "MSHR policy",
                other,
                &format!("valid MSHR policies: {}", MshrPolicy::valid_choices()),
            )),
        }
    }
}

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Associativity (1 = direct-mapped).
    pub assoc: u32,
    /// Total load-use latency in cycles when a load is satisfied at this
    /// level.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two set count.
    #[must_use]
    pub fn sets(&self) -> u64 {
        let sets = self.size / (self.line * u64::from(self.assoc));
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Full memory-system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemConfig {
    /// First-level data cache (lockup-free).
    pub l1d: CacheConfig,
    /// First-level instruction cache.
    pub icache: CacheConfig,
    /// Second-level unified on-chip cache.
    pub l2: CacheConfig,
    /// Third-level off-chip (board) cache; `None` disables the level.
    pub l3: Option<CacheConfig>,
    /// Main-memory total load-use latency in cycles.
    pub mem_latency: u32,
    /// Miss-address-file entries (outstanding load misses the lockup-free
    /// L1 supports). `1` degenerates to a blocking cache — the ablation
    /// the `mshr_sweep` bench runs.
    pub mshrs: usize,
    /// Data TLB entries (fully associative).
    pub dtb_entries: usize,
    /// Instruction TLB entries (fully associative).
    pub itb_entries: usize,
    /// Page size in bytes.
    pub page_size: u64,
    /// Extra cycles charged on a TLB miss (software PAL-code refill).
    pub tlb_miss_penalty: u32,
    /// Write-buffer entries between the pipeline and the write-through
    /// path. `None` models an infinite buffer (stores never stall — the
    /// default, matching the paper's store-latency-1 accounting);
    /// `Some(n)` stalls stores when `n` writes are already draining.
    pub write_buffer: Option<u32>,
    /// Cycles the write-through channel needs per buffered store.
    pub write_drain_cycles: u32,
    /// Hardware L1D prefetcher ([`PrefetchKind::None`] is the paper's
    /// machine).
    pub prefetch: PrefetchKind,
    /// Secondary-miss handling in the L1D miss-address file
    /// ([`MshrPolicy::Merge`] is the paper's machine).
    pub mshr_policy: MshrPolicy,
}

impl MemConfig {
    /// The Alpha 21164-like configuration the paper simulates: 8 KB
    /// direct-mapped L1 data and instruction caches with 32-byte lines and
    /// a 2-cycle hit; 96 KB 3-way second-level cache at 8 cycles; 2 MB
    /// direct-mapped board cache at 20 cycles; 50-cycle memory; 6 MSHRs;
    /// 64-entry fully associative TLBs with 8 KB pages.
    #[must_use]
    pub fn alpha21164() -> Self {
        MemConfig {
            l1d: CacheConfig {
                size: 8 * 1024,
                line: 32,
                assoc: 1,
                latency: 2,
            },
            icache: CacheConfig {
                size: 8 * 1024,
                line: 32,
                assoc: 1,
                latency: 2,
            },
            l2: CacheConfig {
                size: 96 * 1024,
                line: 64,
                assoc: 3,
                latency: 8,
            },
            l3: Some(CacheConfig {
                size: 2 * 1024 * 1024,
                line: 64,
                assoc: 1,
                latency: 20,
            }),
            mem_latency: 50,
            mshrs: 6,
            dtb_entries: 64,
            itb_entries: 48,
            page_size: 8 * 1024,
            tlb_miss_penalty: 30,
            write_buffer: None,
            write_drain_cycles: 2,
            prefetch: PrefetchKind::None,
            mshr_policy: MshrPolicy::Merge,
        }
    }

    /// Returns the configuration with a finite `n`-entry write buffer
    /// (the 21164 has six; the ablation benches sweep it).
    #[must_use]
    pub fn with_write_buffer(mut self, n: u32) -> Self {
        self.write_buffer = Some(n.max(1));
        self
    }

    /// A configuration with `n` MSHRs (for the blocking-vs-non-blocking
    /// ablation).
    #[must_use]
    pub fn with_mshrs(mut self, n: usize) -> Self {
        self.mshrs = n.max(1);
        self
    }

    /// A configuration with the given L1D prefetcher.
    #[must_use]
    pub fn with_prefetch(mut self, kind: PrefetchKind) -> Self {
        self.prefetch = kind;
        self
    }

    /// A configuration with the given MSHR secondary-miss policy.
    #[must_use]
    pub fn with_mshr_policy(mut self, policy: MshrPolicy) -> Self {
        self.mshr_policy = policy;
        self
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::alpha21164()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_config_geometry() {
        let c = MemConfig::alpha21164();
        assert_eq!(c.l1d.sets(), 256);
        assert_eq!(c.icache.sets(), 256);
        assert_eq!(c.l2.sets(), 512);
        assert_eq!(c.l3.unwrap().sets(), 32 * 1024);
        assert_eq!(c.mshrs, 6);
    }

    #[test]
    fn latencies_span_2_to_50() {
        let c = MemConfig::alpha21164();
        assert_eq!(c.l1d.latency, 2);
        assert_eq!(c.mem_latency, 50);
        assert!(c.l2.latency > c.l1d.latency);
        assert!(c.l3.unwrap().latency > c.l2.latency);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let c = CacheConfig {
            size: 96 * 1024,
            line: 64,
            assoc: 1,
            latency: 8,
        };
        let _ = c.sets();
    }
}
