//! The on-disk content-addressed result cache.
//!
//! Layout: one JSON document per cell at
//!
//! ```text
//! <cache_dir>/v<CACHE_SCHEMA_VERSION>/<16-hex-digit FNV-1a hash>.json
//! ```
//!
//! The schema version appears twice by design: in the directory name
//! (so a bumped format never even reads old files) and inside each
//! document (defence in depth). Each document also stores the full
//! canonical key; a hash collision — astronomically unlikely but free to
//! check — is detected by key mismatch and treated as a miss. The key
//! names the kernel, not its content, so each document also records the
//! kernel program's [`Source::digest`]: after an edit to a kernel, its
//! old documents are misses.
//!
//! Writes go through a temp file + rename so a crashed run can never
//! leave a torn document behind; a rename that loses a race with a
//! concurrent run of the same cell writes identical bytes anyway.

use crate::cell::{ExperimentCell, CACHE_SCHEMA_VERSION};
use crate::engine::CellResult;
use bsched_mem::MemStats;
use bsched_pipeline::Source;
use bsched_sim::{InstCounts, SimMetrics};
use bsched_util::Json;
use std::path::{Path, PathBuf};

/// Handle to the cache directory.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
    enabled: bool,
}

impl DiskCache {
    /// A cache rooted at `dir` (the version subdirectory is appended
    /// internally). Nothing is created until the first store.
    #[must_use]
    pub fn new(dir: &Path, enabled: bool) -> Self {
        DiskCache {
            dir: dir.join(format!("v{CACHE_SCHEMA_VERSION}")),
            enabled,
        }
    }

    /// Whether the disk layer is active (`BSCHED_NO_CACHE=1` disables
    /// it).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The file a cell would be stored at.
    #[must_use]
    pub fn path_for(&self, cell: &ExperimentCell) -> PathBuf {
        self.dir.join(format!("{:016x}.json", cell.content_hash()))
    }

    /// Attempts to load a cell's result, computed from `source` (the
    /// cell's kernel program). Any failure — missing file, parse error,
    /// schema, key or program mismatch — is a cache miss, never an
    /// error: the cache is an accelerator, not a source of truth.
    #[must_use]
    pub fn load(&self, cell: &ExperimentCell, source: &Source) -> Option<CellResult> {
        if !self.enabled {
            return None;
        }
        let text = std::fs::read_to_string(self.path_for(cell)).ok()?;
        let doc = Json::parse(&text).ok()?;
        if doc.get("schema")?.as_u64()? != u64::from(CACHE_SCHEMA_VERSION) {
            return None;
        }
        if doc.get("key")?.as_str()? != cell.canonical_key() {
            return None; // hash collision or stale generation
        }
        if doc.get("program")?.as_str()? != program_digest(source) {
            return None; // the kernel changed since the result was stored
        }
        let checksum_ok = doc.get("checksum_ok")?.as_bool()?;
        let verified = doc.get("verified")?.as_bool()?;
        let metrics = decode_metrics(doc.get("metrics")?)?;
        Some(CellResult {
            metrics,
            checksum_ok,
            verified,
        })
    }

    /// Stores a cell's result, computed from `source`. I/O failures are
    /// reported to stderr and otherwise ignored — a read-only checkout
    /// must not break runs.
    pub fn store(&self, cell: &ExperimentCell, source: &Source, result: &CellResult) {
        if !self.enabled {
            return;
        }
        let path = self.path_for(cell);
        let doc = Json::obj(vec![
            ("schema", Json::u64(u64::from(CACHE_SCHEMA_VERSION))),
            ("key", Json::Str(cell.canonical_key().to_string())),
            ("program", Json::Str(program_digest(source))),
            ("checksum_ok", Json::Bool(result.checksum_ok)),
            ("verified", Json::Bool(result.verified)),
            ("metrics", encode_metrics(&result.metrics)),
        ]);
        let text = doc.to_string_compact();
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(&self.dir)?;
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            std::fs::write(&tmp, text.as_bytes())?;
            std::fs::rename(&tmp, &path)
        };
        if let Err(e) = write() {
            eprintln!(
                "bsched-harness: cache write to {} failed: {e}",
                path.display()
            );
        }
    }
}

/// A source's digest as the document stores it: 16 hex digits, since a
/// JSON number holds only 53 bits exactly.
fn program_digest(source: &Source) -> String {
    format!("{:016x}", source.digest())
}

/// Encodes simulator metrics as the flat JSON document both the disk
/// cache and the `bsched-serve` wire protocol use — one codec, so a
/// served result and a cached result are byte-identical by
/// construction.
#[must_use]
pub fn encode_metrics(m: &SimMetrics) -> Json {
    Json::obj(vec![
        ("cycles", Json::u64(m.cycles)),
        ("load_interlock", Json::u64(m.load_interlock)),
        ("fixed_interlock", Json::u64(m.fixed_interlock)),
        ("branch_penalty", Json::u64(m.branch_penalty)),
        ("store_stall", Json::u64(m.store_stall)),
        ("fetch_stall", Json::u64(m.fetch_stall)),
        ("tlb_stall", Json::u64(m.tlb_stall)),
        ("insts", encode_insts(&m.insts)),
        ("mem", encode_mem(&m.mem)),
    ])
}

fn encode_insts(i: &InstCounts) -> Json {
    Json::obj(vec![
        ("short_int", Json::u64(i.short_int)),
        ("long_int", Json::u64(i.long_int)),
        ("loads", Json::u64(i.loads)),
        ("stores", Json::u64(i.stores)),
        ("short_fp", Json::u64(i.short_fp)),
        ("long_fp", Json::u64(i.long_fp)),
        ("branches", Json::u64(i.branches)),
        ("jumps", Json::u64(i.jumps)),
        ("spills", Json::u64(i.spills)),
    ])
}

fn encode_mem(s: &MemStats) -> Json {
    Json::obj(vec![
        ("l1d_hits", Json::u64(s.l1d_hits)),
        ("l2_hits", Json::u64(s.l2_hits)),
        ("l3_hits", Json::u64(s.l3_hits)),
        ("mem_reads", Json::u64(s.mem_reads)),
        ("mshr_merges", Json::u64(s.mshr_merges)),
        ("mshr_stall_cycles", Json::u64(s.mshr_stall_cycles)),
        ("dtb_misses", Json::u64(s.dtb_misses)),
        ("itb_misses", Json::u64(s.itb_misses)),
        ("icache_misses", Json::u64(s.icache_misses)),
        ("stores", Json::u64(s.stores)),
        ("wb_stall_cycles", Json::u64(s.wb_stall_cycles)),
        ("prefetches", Json::u64(s.prefetches)),
        ("prefetch_useful", Json::u64(s.prefetch_useful)),
    ])
}

/// Decodes a document produced by [`encode_metrics`]. `None` on any
/// missing or mistyped field.
#[must_use]
pub fn decode_metrics(doc: &Json) -> Option<SimMetrics> {
    let u = |key: &str| doc.get(key).and_then(Json::as_u64);
    let insts_doc = doc.get("insts")?;
    let iu = |key: &str| insts_doc.get(key).and_then(Json::as_u64);
    let mem_doc = doc.get("mem")?;
    let mu = |key: &str| mem_doc.get(key).and_then(Json::as_u64);
    Some(SimMetrics {
        cycles: u("cycles")?,
        load_interlock: u("load_interlock")?,
        fixed_interlock: u("fixed_interlock")?,
        branch_penalty: u("branch_penalty")?,
        store_stall: u("store_stall")?,
        fetch_stall: u("fetch_stall")?,
        tlb_stall: u("tlb_stall")?,
        insts: InstCounts {
            short_int: iu("short_int")?,
            long_int: iu("long_int")?,
            loads: iu("loads")?,
            stores: iu("stores")?,
            short_fp: iu("short_fp")?,
            long_fp: iu("long_fp")?,
            branches: iu("branches")?,
            jumps: iu("jumps")?,
            spills: iu("spills")?,
        },
        mem: MemStats {
            l1d_hits: mu("l1d_hits")?,
            l2_hits: mu("l2_hits")?,
            l3_hits: mu("l3_hits")?,
            mem_reads: mu("mem_reads")?,
            mshr_merges: mu("mshr_merges")?,
            mshr_stall_cycles: mu("mshr_stall_cycles")?,
            dtb_misses: mu("dtb_misses")?,
            itb_misses: mu("itb_misses")?,
            icache_misses: mu("icache_misses")?,
            stores: mu("stores")?,
            wb_stall_cycles: mu("wb_stall_cycles")?,
            prefetches: mu("prefetches")?,
            prefetch_useful: mu("prefetch_useful")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::Program;
    use bsched_pipeline::{CompileOptions, SchedulerKind};

    fn source() -> Source {
        Source::new(Program::new("k"))
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bsched-harness-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_result() -> CellResult {
        let mut m = SimMetrics {
            cycles: 123_456,
            load_interlock: 789,
            ..SimMetrics::default()
        };
        m.insts.loads = 42;
        m.mem.l1d_hits = 40;
        CellResult {
            metrics: m,
            checksum_ok: true,
            verified: false,
        }
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = tmp_dir("roundtrip");
        let cache = DiskCache::new(&dir, true);
        let cell = ExperimentCell::new("tomcatv", CompileOptions::new(SchedulerKind::Balanced));
        assert!(cache.load(&cell, &source()).is_none());
        let result = sample_result();
        cache.store(&cell, &source(), &result);
        let back = cache.load(&cell, &source()).expect("stored result loads");
        assert_eq!(back.metrics.cycles, result.metrics.cycles);
        assert_eq!(back.metrics.insts.loads, 42);
        assert_eq!(back.metrics.mem.l1d_hits, 40);
        assert!(back.checksum_ok);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let dir = tmp_dir("disabled");
        let cache = DiskCache::new(&dir, false);
        let cell = ExperimentCell::new("k", CompileOptions::new(SchedulerKind::Balanced));
        cache.store(&cell, &source(), &sample_result());
        assert!(cache.load(&cell, &source()).is_none());
        assert!(!dir.exists(), "disabled cache must not touch the disk");
    }

    #[test]
    fn corrupt_or_mismatched_documents_are_misses() {
        let dir = tmp_dir("corrupt");
        let cache = DiskCache::new(&dir, true);
        let cell = ExperimentCell::new("k", CompileOptions::new(SchedulerKind::Balanced));
        cache.store(&cell, &source(), &sample_result());
        let path = cache.path_for(&cell);

        // Torn/garbage file.
        std::fs::write(&path, b"{not json").unwrap();
        assert!(cache.load(&cell, &source()).is_none());

        // Valid JSON, wrong key (as after a hash collision).
        let other = ExperimentCell::new("other", CompileOptions::new(SchedulerKind::Balanced));
        cache.store(&other, &source(), &sample_result());
        std::fs::copy(cache.path_for(&other), &path).unwrap();
        assert!(
            cache.load(&cell, &source()).is_none(),
            "key mismatch must be a miss"
        );

        // Right key, another program under the kernel's name.
        cache.store(&cell, &source(), &sample_result());
        let edited = Source::new(Program::new("k2"));
        assert!(cache.load(&cell, &source()).is_some());
        assert!(
            cache.load(&cell, &edited).is_none(),
            "program mismatch must be a miss"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn directory_is_version_stamped() {
        let dir = tmp_dir("version");
        let cache = DiskCache::new(&dir, true);
        let cell = ExperimentCell::new("k", CompileOptions::new(SchedulerKind::Balanced));
        cache.store(&cell, &source(), &sample_result());
        assert!(dir.join(format!("v{CACHE_SCHEMA_VERSION}")).is_dir());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
