//! Pass 1 and pass 2 of sampled-plan construction.
//!
//! **Pass 1** ([`profile`]) runs the functional interpreter over the
//! compiled kernel and slices the dynamic block stream into intervals of
//! at least `interval_len` retired instructions (intervals close only at
//! block boundaries, so an interval is always a whole number of block
//! executions). It emits one normalized basic-block vector per interval
//! plus the *exact* dynamic instruction counts and final-memory checksum
//! — the sampled result reports those exactly; only cycle-level metrics
//! are estimated.
//!
//! **Pass 2** ([`warm_replay`]) re-runs the same execution as one
//! warm-and-replay sweep: skipped intervals run functionally while
//! keeping the cache hierarchy, TLBs, MSHRs, and branch predictor warm
//! under a retired-instruction proxy clock, and each representative
//! interval is cycle-simulated in place on that exact warm state as
//! execution reaches it, by the interpreting engine's own timing loop
//! (`crate::machine::interpret`; see DESIGN.md §13). The
//! per-representative timing deltas are stored in the plan; sampled
//! runs extrapolate from them without re-simulating.

use crate::config::SimConfig;
use crate::machine::{self, MachineState};
use crate::metrics::{InstCounts, SimMetrics};
use bsched_ir::{
    interp::{step, MemImage, RegFile},
    BlockId, ExecError, Program, Terminator,
};

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

/// Runs the functional interpreter and profiles per-interval BBVs.
///
/// # Errors
///
/// [`ExecError::OutOfFuel`] past `fuel` retired instructions,
/// [`ExecError::WildStore`] on a store outside the memory image — the
/// same failures the exact engines report for the same program.
pub(crate) fn profile(
    program: &Program,
    interval_len: u64,
    fuel: u64,
) -> Result<IntervalProfile, ExecError> {
    let func = program.main();
    let nb = func.blocks().len();

    // Static per-block counts; one `scaled_add` per block at the end
    // reproduces the exact engines' per-instruction accumulation.
    let mut static_counts = vec![InstCounts::default(); nb];
    let mut block_insts = vec![0u64; nb];
    for (id, b) in func.iter_blocks() {
        for inst in &b.insts {
            static_counts[id.index()].record(inst);
        }
        block_insts[id.index()] = b.insts.len() as u64;
    }

    let mut regs = RegFile::new(func);
    let mut mem = MemImage::new(program);
    let bases = mem.region_bases.clone();

    let mut visits = vec![0u64; nb];
    let mut branches = 0u64;
    let mut jumps = 0u64;
    let mut executed = 0u64;

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
        let block = func.block(cur);
        for inst in &block.insts {
            executed += 1;
            if executed > fuel {
                return Err(ExecError::OutOfFuel { fuel });
            }
            step(inst, &mut regs, &mut mem, &bases)?;
        }
        ord += 1;
        cur_blocks += 1;
        cur_insts += block_insts[cur.index()];

        let mut done = false;
        let next = match &block.term {
            Terminator::Jmp(t) => {
                jumps += 1;
                *t
            }
            Terminator::Br {
                cond,
                when,
                taken,
                fall,
            } => {
                branches += 1;
                if when.holds(regs.get(*cond).as_int()) {
                    *taken
                } else {
                    *fall
                }
            }
            Terminator::Ret => {
                done = true;
                cur
            }
        };

        if done || cur_insts >= interval_len {
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
        if done {
            break;
        }
        cur = next;
    }

    for (b, &n) in visits.iter().enumerate() {
        out.counts.scaled_add(&static_counts[b], n);
    }
    out.counts.branches += branches;
    out.counts.jumps += jumps;
    out.checksum = mem.checksum();
    out.total_insts = executed;
    Ok(out)
}

/// Pass 2: one warm-and-replay sweep. Fast-forwards functionally from a
/// cold start, keeping the cache hierarchy, TLBs, MSHRs, and branch
/// predictor warm under a one-cycle-per-instruction proxy clock through
/// every *skipped* interval, and cycle-simulating each representative
/// interval in place the moment execution reaches its boundary — with
/// the interpreting engine's own loop ([`machine::interpret`],
/// bounded by the interval's block count, site attribution off). Every
/// representative therefore replays against exactly the architectural
/// and micro-architectural state the full execution would have
/// produced — no checkpoint snapshots, no stitching bias from skipped
/// warm-up — and is timed by exactly the code that defines exact
/// interpreted timing.
///
/// Returns the interval-local timing metrics per representative, in
/// `rep_intervals` order. `rep_intervals` must be sorted ascending;
/// execution stops as soon as the last representative is replayed.
///
/// # Errors
///
/// Propagates the functional interpreter's errors; pass 1 already
/// succeeded, so in practice this cannot fail.
pub(crate) fn warm_replay(
    program: &Program,
    config: &SimConfig,
    prof: &IntervalProfile,
    rep_intervals: &[usize],
) -> Result<Vec<SimMetrics>, ExecError> {
    let func = program.main();
    let (block_addr, code_end) = machine::code_layout(func);
    let mut st = MachineState::cold(program, config, code_end);
    let bases = st.mem.region_bases.clone();

    let mut deltas = Vec::with_capacity(rep_intervals.len());
    let mut next_rep = 0usize;

    let mut ord = 0u64;
    let mut cur = func.entry();
    while next_rep < rep_intervals.len() {
        let iv = rep_intervals[next_rep];
        if ord == prof.start_ord[iv] {
            debug_assert_eq!(cur, prof.start_block[iv]);
            let (dm, next) = machine::interpret(
                func,
                config,
                &block_addr,
                &mut st,
                cur,
                prof.n_blocks[iv],
                &mut [],
            )?;
            deltas.push(dm);
            ord += prof.n_blocks[iv];
            next_rep += 1;
            match next {
                Some(b) => cur = b,
                None => break, // the interval ended at Ret
            }
            continue;
        }

        // A skipped block: execute functionally, warming hierarchy and
        // predictor under the proxy clock.
        let block = func.block(cur);
        let base_pc = block_addr[cur.index()];
        for (k, inst) in block.insts.iter().enumerate() {
            if config.model_ifetch {
                st.hier.inst_fetch(base_pc + 4 * k as u64, st.now);
            }
            match inst.op {
                bsched_ir::Op::Ld => {
                    let base = st.regs.get(inst.mem_base()).as_int();
                    let addr = base.wrapping_add(inst.mem_disp()) as u64;
                    st.hier.data_read(addr, st.now);
                }
                bsched_ir::Op::St => {
                    let base = st.regs.get(inst.mem_base()).as_int();
                    let addr = base.wrapping_add(inst.mem_disp()) as u64;
                    st.hier.data_write(addr, st.now);
                }
                _ => {}
            }
            st.now += 1;
            step(inst, &mut st.regs, &mut st.mem, &bases)?;
        }
        ord += 1;

        let term_pc = base_pc + 4 * block.len() as u64;
        if config.model_ifetch {
            st.hier.inst_fetch(term_pc, st.now);
        }
        st.now += 1;
        cur = match &block.term {
            Terminator::Jmp(t) => *t,
            Terminator::Br {
                cond,
                when,
                taken,
                fall,
            } => {
                let is_taken = when.holds(st.regs.get(*cond).as_int());
                st.pred.predict_and_update(term_pc, is_taken);
                if is_taken {
                    *taken
                } else {
                    *fall
                }
            }
            Terminator::Ret => {
                unreachable!("all representatives start before the final Ret")
            }
        };
    }
    debug_assert_eq!(deltas.len(), rep_intervals.len());
    Ok(deltas)
}
