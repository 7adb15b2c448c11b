//! The JSON codec for simulator metrics: the document a served cell's
//! result travels in over the `bsched-serve` wire.

use bsched_mem::MemStats;
use bsched_sim::{InstCounts, SimMetrics};
use bsched_util::Json;

/// Encodes simulator metrics as the flat JSON document the
/// `bsched-serve` wire protocol carries.
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
