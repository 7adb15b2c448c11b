//! Pass 1 and pass 2 of sampled-plan construction.
//!
//! **Pass 1** ([`profile`]) executes the compiled kernel functionally
//! ([`block::execute_block`]) and slices the dynamic block stream into
//! intervals of at least `interval_len` retired instructions (intervals
//! close only at block boundaries, so an interval is always a whole
//! number of block executions). It emits one normalized basic-block vector per interval
//! plus the *exact* dynamic instruction counts and final-memory checksum
//! — the sampled result reports those exactly; only cycle-level metrics
//! are estimated.
//!
//! **Pass 2** ([`warm_replay`]) re-runs the same execution as one
//! warm-and-replay sweep: skipped intervals run functionally while
//! keeping the cache hierarchy, TLBs, MSHRs, and branch predictor warm
//! under a retired-instruction proxy clock, and each representative
//! interval is cycle-simulated in place on that exact warm state as
//! execution reaches it, by the simulator's one timing loop
//! (`crate::block::run_interval`; see DESIGN.md §13). Both passes run
//! over the same decoded block skeletons as exact runs. The
//! per-representative timing deltas are stored in the plan; sampled
//! runs extrapolate from them without re-simulating.

use crate::block::{self, Code, MachineState};
use crate::config::SimConfig;
use crate::engine::SimEngine;
use crate::metrics::{InstCounts, SimMetrics};
use bsched_ir::{BlockId, ExecError, Program};

/// Everything pass 1 learns about one program under one interval length.
#[derive(Debug)]
pub(crate) struct IntervalProfile {
    /// One normalized BBV per interval: per-block executed-instruction
    /// shares (terminator counted as one so empty blocks still register).
    pub bbvs: Vec<Vec<f64>>,
    /// Retired (non-terminator) instructions per interval.
    pub insts_per: Vec<u64>,
    /// Block-visit ordinal at which each interval starts.
    pub start_ord: Vec<u64>,
    /// First block of each interval.
    pub start_block: Vec<BlockId>,
    /// Number of block executions in each interval.
    pub n_blocks: Vec<u64>,
    /// Exact dynamic instruction counts (terminators included), equal to
    /// what the exact engines report.
    pub counts: InstCounts,
    /// Exact FNV-1a checksum of the final memory image.
    pub checksum: u64,
    /// Total retired (non-terminator) instructions.
    pub total_insts: u64,
}

/// Executes `program` functionally and profiles per-interval BBVs.
///
/// # Errors
///
/// [`ExecError::OutOfFuel`] past `config.fuel` retired instructions,
/// [`ExecError::WildStore`] on a store outside the memory image — the
/// same failures the exact engines report for the same program.
pub(crate) fn profile(
    program: &Program,
    config: &SimConfig,
    interval_len: u64,
) -> Result<IntervalProfile, ExecError> {
    let func = program.main();
    let nb = func.blocks().len();
    let block_insts: Vec<u64> = func.blocks().iter().map(|b| b.insts.len() as u64).collect();
    let mut code = Code::new(program, *config, SimEngine::default());
    let mut st = MachineState::cold(program, &code);
    let mut fuel = config.fuel;
    let mut visits = vec![0u64; nb];

    let mut out = IntervalProfile {
        bbvs: Vec::new(),
        insts_per: Vec::new(),
        start_ord: Vec::new(),
        start_block: Vec::new(),
        n_blocks: Vec::new(),
        counts: InstCounts::default(),
        checksum: 0,
        total_insts: 0,
    };

    // Current-interval accumulators.
    let mut cur_bbv = vec![0u64; nb];
    let mut cur_insts = 0u64;
    let mut cur_blocks = 0u64;
    let mut cur_start_ord = 0u64;
    let mut cur_start_block = func.entry();

    let mut ord = 0u64;
    let mut cur = func.entry();
    loop {
        if cur_blocks == 0 {
            cur_start_ord = ord;
            cur_start_block = cur;
        }
        visits[cur.index()] += 1;
        cur_bbv[cur.index()] += 1;
        let next = block::execute_block(&mut code, &mut st, cur, false, &mut fuel)?;
        ord += 1;
        cur_blocks += 1;
        cur_insts += block_insts[cur.index()];

        if next.is_none() || cur_insts >= interval_len {
            // Close the interval: BBV dimensions weighted by executed
            // instructions (+1 for the terminator), L1-normalized.
            let mut v: Vec<f64> = cur_bbv
                .iter()
                .enumerate()
                .map(|(b, &n)| (n * (block_insts[b] + 1)) as f64)
                .collect();
            let total: f64 = v.iter().sum();
            if total > 0.0 {
                for x in &mut v {
                    *x /= total;
                }
            }
            out.bbvs.push(v);
            out.insts_per.push(cur_insts);
            out.start_ord.push(cur_start_ord);
            out.start_block.push(cur_start_block);
            out.n_blocks.push(cur_blocks);
            cur_bbv.iter_mut().for_each(|x| *x = 0);
            cur_insts = 0;
            cur_blocks = 0;
        }
        match next {
            Some(b) => cur = b,
            None => break,
        }
    }

    out.counts = code.counts(&visits);
    out.checksum = st.mem.checksum();
    out.total_insts = config.fuel - fuel;
    Ok(out)
}

/// Pass 2: one warm-and-replay sweep. Fast-forwards functionally from a
/// cold start ([`block::execute_block`] with `warm`), keeping the cache
/// hierarchy, TLBs, MSHRs, and branch predictor warm under a
/// one-cycle-per-instruction proxy clock through every *skipped*
/// interval, and cycle-simulating each representative interval in place
/// the moment execution reaches its boundary — with the simulator's one
/// timing loop ([`block::run_interval`], bounded by the interval's
/// block count, site attribution off). Every representative therefore
/// replays against exactly the architectural and micro-architectural
/// state the full execution would have produced — no checkpoint
/// snapshots, no stitching bias from skipped warm-up — and is timed by
/// exactly the code that defines exact timing.
///
/// Returns the interval-local timing metrics per representative, in
/// `rep_intervals` order. `rep_intervals` must be sorted ascending;
/// execution stops as soon as the last representative is replayed.
///
/// # Errors
///
/// Propagates execution errors; pass 1 already succeeded, so in
/// practice this cannot fail.
pub(crate) fn warm_replay(
    program: &Program,
    config: &SimConfig,
    prof: &IntervalProfile,
    rep_intervals: &[usize],
) -> Result<Vec<SimMetrics>, ExecError> {
    let mut code = Code::new(program, *config, SimEngine::default());
    let mut st = MachineState::cold(program, &code);
    let mut deltas = Vec::with_capacity(rep_intervals.len());
    let mut fuel = u64::MAX;
    let mut ord = 0u64;
    let mut cur = program.main().entry();
    for &iv in rep_intervals {
        for _ in ord..prof.start_ord[iv] {
            cur = block::execute_block(&mut code, &mut st, cur, true, &mut fuel)?
                .expect("every representative starts before the final Ret");
        }
        debug_assert_eq!(cur, prof.start_block[iv]);
        let replayed = block::run_interval(&mut code, &mut st, cur, prof.n_blocks[iv], &mut [])?;
        deltas.push(replayed.metrics);
        ord = prof.start_ord[iv] + prof.n_blocks[iv];
        match replayed.next {
            Some(b) => cur = b,
            None => break, // the interval ended at Ret
        }
    }
    debug_assert_eq!(deltas.len(), rep_intervals.len());
    Ok(deltas)
}
