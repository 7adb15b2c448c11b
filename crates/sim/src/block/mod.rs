//! The machine model's one timing loop, over one pre-decoded program
//! form.
//!
//! Every simulation executes [`skeleton::Skeleton`]s: each basic block
//! is translated once into a static cost skeleton (operand slots,
//! latencies, load sites, fetch points, instruction-count deltas),
//! cached by block identity in a [`cache::BlockCache`], and replayed
//! per visit by [`run_interval`], which carries only the dynamic parts
//! of the model: cache/TLB lookups and MSHR occupancy (through
//! `bsched_mem::Hierarchy`), branch outcomes, and the scoreboard. That
//! one loop is the exact run under either [`SimEngine`] and the
//! cycle-level replay of every representative interval of a sampled
//! plan (`crate::sample`), so timing is defined in exactly one place.
//!
//! The engines differ only in how much the decode proves:
//!
//! * [`SimEngine::BlockCompiled`] decodes with every proof on: one
//!   `inst_fetch` per icache-line run instead of per instruction,
//!   operand scans elided where single issue makes a stall impossible,
//!   a single-issue specialisation of the issue-group bookkeeping, and
//!   fuel charged per block where the block cannot exhaust it.
//! * [`SimEngine::Interpret`] decodes with every proof off: a fetch on
//!   every slot, every operand scanned, the full issue-group path at
//!   any width, fuel per instruction. It is the differential reference
//!   for exactly what the proofs elide, and the conformance suite
//!   (`bsched-verify`) requires the two to agree bit for bit — same
//!   `SimMetrics`, per-load-site trace attribution, and memory checksum.
//!
//! The engine's speed is pinned by the work counts the block cache
//! reports ([`cache::CacheStats`]), not by wall clock.

mod cache;
mod skeleton;

use crate::branch::BranchPredictor;
use crate::config::SimConfig;
use crate::engine::SimEngine;
use crate::machine::SimResult;
use crate::metrics::{InstCounts, SimMetrics};
use bsched_ir::{BlockId, ExecError, Function, MemImage, Op, Program, Reg, RegClass};
use bsched_mem::Hierarchy;
use cache::{BlockCache, CacheStats};
use skeleton::{Skeleton, Slot, TermKind};

/// Sentinel "not produced by a load" site id.
const NO_SITE: u32 = u32::MAX;

/// Base address of the code region: 4 bytes per instruction, terminator
/// included. Code lives far above data so instruction fetches and data
/// accesses never share cache lines.
const CODE_BASE: u64 = 1 << 32;

/// Computes the code layout: the base address of every block (in
/// [`BlockId`] index order) and the end-of-code address. The static
/// *site id* of the instruction at `pc` is `(pc - CODE_BASE) / 4`.
fn code_layout(func: &Function) -> (Vec<u64>, u64) {
    let mut block_addr = Vec::with_capacity(func.blocks().len());
    let mut pc = CODE_BASE;
    for (_, b) in func.iter_blocks() {
        block_addr.push(pc);
        pc += 4 * (b.len() as u64 + 1);
    }
    (block_addr, pc)
}

/// Tracing-only per-static-load-site attribution, allocated only when
/// `bsched_trace::enabled()`. The interlock and MSHR columns are
/// incremented at exactly the three points that bump the aggregate
/// `load_interlock` counter, so their sum reproduces it exactly — the
/// conservation property the test suite pins.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SiteStat {
    issued: u64,
    interlock: u64,
    mshr: u64,
    hits: [u64; 4], // L1, L2, L3, memory
}

/// Emits one `sim.load_site` event per static site with any load
/// activity: where it lives (block), how often it issued, which memory
/// levels answered, and how many load-interlock cycles it was blamed
/// for (operand interlocks + MSHR stalls).
fn flush_site_events(program_name: &str, sites: &[SiteStat], block_addr: &[u64]) {
    for (site, st) in sites.iter().enumerate() {
        if st.issued == 0 && st.interlock == 0 && st.mshr == 0 {
            continue;
        }
        let addr = CODE_BASE + 4 * site as u64;
        let block = block_addr.partition_point(|&b| b <= addr).saturating_sub(1);
        bsched_trace::instant(
            bsched_trace::points::SIM_LOAD_SITE,
            program_name,
            &[
                ("site", site as u64),
                ("block", block as u64),
                ("issued", st.issued),
                ("interlock", st.interlock),
                ("mshr_stall", st.mshr),
                ("l1", st.hits[0]),
                ("l2", st.hits[1]),
                ("l3", st.hits[2]),
                ("mem", st.hits[3]),
            ],
        );
    }
}

/// One register's full dynamic state, kept together so each operand
/// costs a single indexed access (and a single cache line) in the
/// replay loop: the raw 64-bit value image, the scoreboard ready time,
/// and the load site to blame for interlocks on it.
#[derive(Debug, Clone, Copy)]
struct RegSlot {
    val: u64,
    ready: u64,
    site: u32,
}

/// A program decoded for one simulation: the code layout, the unified
/// register-slot geometry, and one lazily built skeleton per block.
#[derive(Debug)]
pub(crate) struct Code<'p> {
    func: &'p Function,
    pub(crate) config: SimConfig,
    /// Decode with the block engine's proofs (see the module docs).
    proofs: bool,
    block_addr: Vec<u64>,
    code_end: u64,
    /// Integer register slots (the float-slot offset).
    ni: u32,
    sentinel: Slot,
    /// The run's region base addresses, folded into `LdAddr` at decode.
    bases: Vec<u64>,
    cache: BlockCache,
}

impl<'p> Code<'p> {
    /// Lays out `program`'s code for `config`, decoding blocks the way
    /// `engine` does as they are first reached.
    pub(crate) fn new(program: &'p Program, config: SimConfig, engine: SimEngine) -> Self {
        let func = program.main();
        let (block_addr, code_end) = code_layout(func);
        let ni = Reg::NUM_PHYS + func.vreg_count(RegClass::Int);
        let nf = Reg::NUM_PHYS + func.vreg_count(RegClass::Float);
        Code {
            func,
            config,
            proofs: engine == SimEngine::BlockCompiled,
            block_addr,
            code_end,
            ni,
            sentinel: skeleton::sentinel_slot(ni, nf),
            bases: program.region_bases(),
            cache: BlockCache::new(func.blocks().len()),
        }
    }

    /// The dynamic instruction counts of a run that made `visits` (by
    /// block index), folded once: Σ over blocks of (visits × static
    /// counts) equals the per-visit accumulation.
    pub(crate) fn counts(&self, visits: &[u64]) -> InstCounts {
        let mut counts = InstCounts::default();
        for (sk, n) in self.cache.entries(visits) {
            counts.scaled_add(&sk.counts, n);
        }
        counts
    }

    /// The skeleton of block `b`, decoded on first use.
    fn skeleton(&mut self, b: BlockId) -> &Skeleton {
        let Code {
            func,
            config,
            proofs,
            block_addr,
            ni,
            sentinel,
            bases,
            cache,
            ..
        } = self;
        let sk = cache.get_or_build(b.index(), || {
            skeleton::build(
                func.block(b),
                block_addr[b.index()],
                config,
                *proofs,
                bases,
                *ni,
                *sentinel,
            )
        });
        debug_assert_eq!(
            sk.n_insts,
            func.block(b).insts.len() as u64,
            "block {b} changed size under a cached skeleton — \
             the IR must not be mutated during a run"
        );
        sk
    }
}

/// The caller-owned state the timing loop runs on: the architectural
/// state (the unified register/scoreboard file, the memory image), the
/// micro-architectural state that stays warm across calls (hierarchy,
/// branch predictor), and the clock.
#[derive(Debug)]
pub(crate) struct MachineState {
    /// Integer slots first, floats after, then one always-ready
    /// sentinel slot (operand padding — see `skeleton::sentinel_slot`).
    /// Values are raw 64-bit images (`Value::to_bits` form), so loads,
    /// stores, moves, and selects copy bits without class dispatch.
    /// Padded to a power of two so `slot & mask` is the identity on
    /// every valid slot and the optimizer can drop the bounds checks.
    rf: Vec<RegSlot>,
    pub(crate) mem: MemImage,
    hier: Hierarchy,
    pred: BranchPredictor,
    now: u64,
}

impl MachineState {
    /// A cold machine at cycle 0 holding `program`'s initial memory and
    /// zeroed registers, for `code` decoded from the same program.
    pub(crate) fn cold(program: &Program, code: &Code<'_>) -> Self {
        let empty = RegSlot {
            val: 0,
            ready: 0,
            site: NO_SITE,
        };
        MachineState {
            rf: vec![empty; (code.sentinel as usize + 1).next_power_of_two()],
            mem: MemImage::new(program),
            hier: Hierarchy::new(code.config.mem, CODE_BASE..code.code_end),
            pred: BranchPredictor::new(&code.config.branch),
            now: 0,
        }
    }
}

/// What one [`run_interval`] call retired.
#[derive(Debug)]
pub(crate) struct Interval {
    /// Interval-local metrics: cycles since entry, the stall counters,
    /// instruction counts, and the hierarchy's statistics (whose
    /// counters restart at entry).
    pub(crate) metrics: SimMetrics,
    /// The block at which execution continues; `None` after `Ret`.
    pub(crate) next: Option<BlockId>,
    /// Visits per block in this call, by block index.
    visits: Vec<u64>,
}

/// Runs `program` to completion from a cold machine under `engine`.
pub(crate) fn run(
    program: &Program,
    config: SimConfig,
    engine: SimEngine,
) -> Result<SimResult, ExecError> {
    run_with_stats(program, config, engine).map(|(result, _)| result)
}

/// [`run`], also returning the block cache's work counts (pinned by the
/// unit tests below). An exact run adds to [`run_interval`] the
/// `sim.run` span, per-site attribution, and the checksum.
fn run_with_stats(
    program: &Program,
    config: SimConfig,
    engine: SimEngine,
) -> Result<(SimResult, CacheStats), ExecError> {
    let mut code = Code::new(program, config, engine);
    let mut st = MachineState::cold(program, &code);
    // Load-interlock attribution (tracing only): one row per static
    // code slot, flushed as `sim.load_site` events at `Ret`.
    let tracing = bsched_trace::enabled();
    let mut sites = if tracing {
        vec![SiteStat::default(); ((code.code_end - CODE_BASE) / 4) as usize]
    } else {
        Vec::new()
    };
    let run_span =
        bsched_trace::span(bsched_trace::points::SIM_RUN).label_with(|| program.name().to_string());
    let entry = program.main().entry();
    let iv = run_interval(&mut code, &mut st, entry, u64::MAX, &mut sites)?;
    if tracing {
        flush_site_events(program.name(), &sites, &code.block_addr);
        run_span.finish(&[
            ("cycles", iv.metrics.cycles),
            ("load_interlock", iv.metrics.load_interlock),
        ]);
    }
    let result = SimResult {
        metrics: iv.metrics,
        checksum: st.mem.checksum(),
        sample: None,
    };
    Ok((result, code.cache.stats(&iv.visits)))
}

/// The timing loop — the one definition of the model's fetch,
/// issue-group, interlock, memory, and branch timing. Runs `code` on
/// `st` from block `start` until `Ret` or until `max_blocks` block
/// executions have retired, whichever comes first. `st` is advanced in
/// place: an exact run passes a cold machine and `u64::MAX`,
/// sampled-plan construction passes its warm fast-forward state and one
/// interval's block count. The scoreboard and the issue group start
/// empty.
///
/// `sites` is the per-static-site attribution table; pass an empty
/// slice to turn attribution off.
///
/// Single-issue machines under the proven decode replay through a
/// specialised body: with `issue_width == 1` the slot counter is
/// provably 1 at the top of every instruction after the first of a
/// group, so the structural-limit check collapses to an unconditional
/// `now += 1` (suppressed only right after a fetch stall or a control
/// transfer, where the group is already fresh) and the memory-port
/// limit can never bind. Every other run keeps the full group
/// bookkeeping. Both monomorphise from the same body, so the timing
/// semantics cannot drift apart.
///
/// # Errors
///
/// [`ExecError::OutOfFuel`] past `config.fuel` instructions retired in
/// this call, [`ExecError::WildStore`] on a store outside the memory
/// image.
pub(crate) fn run_interval(
    code: &mut Code<'_>,
    st: &mut MachineState,
    start: BlockId,
    max_blocks: u64,
    sites: &mut [SiteStat],
) -> Result<Interval, ExecError> {
    if code.proofs && code.config.issue_width.max(1) == 1 {
        replay::<false>(code, st, start, max_blocks, sites)
    } else {
        replay::<true>(code, st, start, max_blocks, sites)
    }
}

fn replay<const WIDE: bool>(
    code: &mut Code<'_>,
    st: &mut MachineState,
    start: BlockId,
    max_blocks: u64,
    sites: &mut [SiteStat],
) -> Result<Interval, ExecError> {
    let config = code.config;
    let batch_fuel = code.proofs;
    let tracing = !sites.is_empty();
    let MachineState {
        rf,
        mem,
        hier,
        pred,
        now: clock,
    } = st;
    let rf: &mut [RegSlot] = rf;
    let mask = rf.len() - 1;
    for s in rf.iter_mut() {
        s.ready = 0;
        s.site = NO_SITE;
    }
    hier.reset_stats();
    let mut m = SimMetrics::default();
    let mut visits = vec![0u64; code.func.blocks().len()];
    let mut visited: u64 = 0;

    let start_now = *clock;
    let mut now = start_now;
    let mut executed: u64 = 0;
    let mut cur = start;
    // Issue-group state. Any stall advances `now`, opening a fresh
    // group.
    let width = config.issue_width.max(1);
    let ports = config.mem_ports.max(1);
    let mut slot: u32 = 0;
    let mut mem_slot: u32 = 0;
    // Single-issue fast path: the pending group increment (0 exactly
    // when the current instruction starts a fresh group).
    let mut inc: u64 = 0;

    let next = loop {
        visits[cur.index()] += 1;
        let sk = code.skeleton(cur);

        // Fuel is charged per instruction, but the check only needs per
        // instruction precision when this block could actually trip it:
        // the per-inst check fires at the smallest k with
        // `executed + k > fuel`, which exists within the block iff
        // `executed + n_insts > fuel`. The proven decode charges the
        // whole block at once otherwise. Precise mode walks instruction
        // by instruction so an earlier in-block error (e.g. a wild
        // store) wins over fuel exhaustion in program order.
        let precise_fuel = !batch_fuel || executed + sk.n_insts > config.fuel;
        if !precise_fuel {
            executed += sk.n_insts;
        }
        for mo in &sk.micros {
            if precise_fuel {
                executed += 1;
                if executed > config.fuel {
                    return Err(ExecError::OutOfFuel { fuel: config.fuel });
                }
            }
            // 1. Fetch — on every slot, or under the proven decode only
            // at icache-line boundaries: every skipped fetch is a
            // guaranteed icache+ITB hit whose access returns
            // `ready_at == issue_at` and touches no observable state.
            if mo.fetch {
                let f = hier.inst_fetch(mo.pc, now);
                if f.ready_at > now {
                    m.fetch_stall += f.ready_at - now;
                    now = f.ready_at;
                    if WIDE {
                        slot = 0;
                        mem_slot = 0;
                    } else {
                        inc = 0;
                    }
                }
            }
            // 2. Structural issue limits: group full, or out of memory
            // ports — advance to the next cycle first so the operand
            // check below sees the true issue cycle (single issue: every
            // instruction past the first of a group takes a cycle).
            if WIDE {
                if slot >= width || (mo.is_memory && mem_slot >= ports) {
                    now += 1;
                    slot = 0;
                    mem_slot = 0;
                }
            } else {
                now += inc;
                inc = 1;
            }
            // 2b. Operand interlock, unless the decode proved every
            // source ready (`MicroOp::chk`). The blame rule is
            // order-sensitive; the scan is fixed-width: missing operands
            // are the sentinel slot, which is always ready at 0 with no
            // site and so can never win. The stall bookkeeping is
            // branchless: a zero stall adds zero to whichever counter is
            // selected.
            let s0 = rf[mo.srcs[0] as usize & mask];
            let s1 = rf[mo.srcs[1] as usize & mask];
            let s2 = rf[mo.srcs[2] as usize & mask];
            if mo.chk {
                let mut op_ready = now;
                let mut blame_site = NO_SITE;
                for s in [&s0, &s1, &s2] {
                    let win = (s.ready > op_ready)
                        | ((s.ready == op_ready) & (s.site != NO_SITE) & (s.ready > now));
                    if win {
                        op_ready = s.ready;
                        blame_site = s.site;
                    }
                }
                // A blamed site implies a strictly positive stall (the
                // blame rule only fires for `ready > now`), so the zero
                // case always lands on `fixed_interlock += 0`.
                let stall = op_ready - now;
                let load_blame = blame_site != NO_SITE;
                m.load_interlock += if load_blame { stall } else { 0 };
                m.fixed_interlock += if load_blame { 0 } else { stall };
                if tracing && load_blame {
                    sites[blame_site as usize].interlock += stall;
                }
                now = op_ready;
                if WIDE && stall > 0 {
                    slot = 0;
                    mem_slot = 0;
                }
            }
            // 3. Execute the dynamic part.
            match mo.code {
                Op::Ld => {
                    let addr = (s0.val as i64).wrapping_add(mo.imm as i64) as u64;
                    let a = hier.data_read(addr, now);
                    m.load_interlock += a.stall;
                    m.tlb_stall += (a.issue_at - now) - a.stall;
                    if tracing {
                        let st = &mut sites[mo.aux as usize];
                        st.issued += 1;
                        st.mshr += a.stall;
                        st.hits[a.level as usize] += 1;
                    }
                    // `issue_at >= now` always (stalls only push it
                    // forward), so the assignment needs no guard.
                    if WIDE && a.issue_at > now {
                        slot = 0;
                        mem_slot = 0;
                    }
                    now = a.issue_at;
                    rf[mo.dst as usize & mask] = RegSlot {
                        val: mem.load(addr),
                        ready: a.ready_at,
                        site: mo.aux,
                    };
                }
                Op::St => {
                    let addr = (s1.val as i64).wrapping_add(mo.imm as i64) as u64;
                    let a = hier.data_write(addr, now);
                    m.store_stall += a.stall;
                    m.tlb_stall += (a.issue_at - now) - a.stall;
                    if WIDE && a.issue_at > now {
                        slot = 0;
                        mem_slot = 0;
                    }
                    now = a.issue_at;
                    mem.store(addr, s0.val)?;
                }
                code => {
                    rf[mo.dst as usize & mask] = RegSlot {
                        val: eval_code(code, s0.val, s1.val, s2.val, mo.imm),
                        ready: now + u64::from(mo.aux),
                        site: NO_SITE,
                    };
                }
            }
            // 4. The instruction occupies one slot of the group.
            if WIDE {
                slot += 1;
                if mo.is_memory {
                    mem_slot += 1;
                }
            }
        }

        // Terminator: fetch, then control flow. Every path below ends
        // the issue group.
        if sk.term_fetch {
            let f = hier.inst_fetch(sk.term_pc, now);
            if f.ready_at > now {
                m.fetch_stall += f.ready_at - now;
                now = f.ready_at;
            }
        }
        visited += 1;
        let next = match sk.term {
            TermKind::Jmp { target } => target,
            TermKind::Br {
                cond,
                when,
                taken,
                fall,
            } => {
                let c = rf[cond as usize & mask];
                if sk.br_chk && c.ready > now {
                    let stall = c.ready - now;
                    if c.site != NO_SITE {
                        m.load_interlock += stall;
                        if tracing {
                            sites[c.site as usize].interlock += stall;
                        }
                    } else {
                        m.fixed_interlock += stall;
                    }
                    now = c.ready;
                }
                let is_taken = when.holds(c.val as i64);
                if !pred.predict_and_update(sk.term_pc, is_taken) {
                    m.branch_penalty += u64::from(config.branch.mispredict_penalty);
                    now += u64::from(config.branch.mispredict_penalty);
                }
                if is_taken {
                    taken
                } else {
                    fall
                }
            }
            TermKind::Ret => break None,
        };
        // A control transfer ends the issue group.
        now += 1;
        if WIDE {
            slot = 0;
            mem_slot = 0;
        } else {
            inc = 0;
        }
        if visited == max_blocks {
            break Some(next);
        }
        cur = next;
    };

    *clock = now;
    m.cycles = now - start_now;
    m.mem = *hier.stats();
    m.insts = code.counts(&visits);
    Ok(Interval {
        metrics: m,
        next,
        visits,
    })
}

/// Executes block `b` functionally on `st` — values and memory, no
/// timing charged — and returns its successor, `None` at `Ret`. Each
/// instruction draws one unit from `fuel`. With `warm`, it also keeps
/// the hierarchy, TLBs, MSHRs, and branch predictor warm under a
/// one-cycle-per-instruction proxy clock: every slot is fetched (when
/// `model_ifetch` is on) and every memory access issued, whatever the
/// decode elides. The scoreboard is left to the next [`run_interval`],
/// which starts it empty.
///
/// # Errors
///
/// [`ExecError::OutOfFuel`] (naming `config.fuel`) when an instruction
/// finds `fuel` spent, [`ExecError::WildStore`] on a store outside the
/// memory image — whichever comes first in program order.
pub(crate) fn execute_block(
    code: &mut Code<'_>,
    st: &mut MachineState,
    b: BlockId,
    warm: bool,
    fuel: &mut u64,
) -> Result<Option<BlockId>, ExecError> {
    let config = code.config;
    let ifetch = warm && config.model_ifetch;
    let MachineState {
        rf,
        mem,
        hier,
        pred,
        now,
    } = st;
    let mask = rf.len() - 1;
    let sk = code.skeleton(b);
    for mo in &sk.micros {
        *fuel = fuel
            .checked_sub(1)
            .ok_or(ExecError::OutOfFuel { fuel: config.fuel })?;
        if ifetch {
            hier.inst_fetch(mo.pc, *now);
        }
        let v0 = rf[mo.srcs[0] as usize & mask].val;
        let v1 = rf[mo.srcs[1] as usize & mask].val;
        match mo.code {
            Op::Ld => {
                let addr = (v0 as i64).wrapping_add(mo.imm as i64) as u64;
                if warm {
                    hier.data_read(addr, *now);
                }
                rf[mo.dst as usize & mask].val = mem.load(addr);
            }
            Op::St => {
                let addr = (v1 as i64).wrapping_add(mo.imm as i64) as u64;
                if warm {
                    hier.data_write(addr, *now);
                }
                mem.store(addr, v0)?;
            }
            code => {
                let v2 = rf[mo.srcs[2] as usize & mask].val;
                rf[mo.dst as usize & mask].val = eval_code(code, v0, v1, v2, mo.imm);
            }
        }
        *now += u64::from(warm);
    }
    if ifetch {
        hier.inst_fetch(sk.term_pc, *now);
    }
    *now += u64::from(warm);
    Ok(match sk.term {
        TermKind::Jmp { target } => Some(target),
        TermKind::Br {
            cond,
            when,
            taken,
            fall,
        } => {
            let is_taken = when.holds(rf[cond as usize & mask].val as i64);
            if warm {
                pred.predict_and_update(sk.term_pc, is_taken);
            }
            Some(if is_taken { taken } else { fall })
        }
        TermKind::Ret => None,
    })
}

/// Evaluates a pure operation directly on raw 64-bit register images.
///
/// This mirrors [`bsched_ir::value::eval`] exactly — same wrapping
/// arithmetic, same shift masking, same truncating conversions — but
/// skips the `Value` enum entirely: integer slots hold `i64 as u64`,
/// float slots hold `f64::to_bits`, and `from_bits`/`to_bits` round-trip
/// bit-exactly, so operating on images is operating on values. A drift
/// test below replays every opcode against `value::eval` on shared
/// inputs.
///
/// `imm` is the decode-time OR-fold described on
/// [`skeleton::MicroOp::imm`]: immediate-carrying integer ops keep
/// `v1 == 0` (the sentinel slot), so `v1 | imm` selects the immediate
/// without a branch; `Li`/`FLi`/`LdAddr` read their pre-resolved
/// constant bits straight from it.
#[inline(always)]
fn eval_code(op: Op, v0: u64, v1: u64, v2: u64, imm: u64) -> u64 {
    use Op::*;
    let a = v0 as i64;
    let b = (v1 | imm) as i64;
    let fa = f64::from_bits(v0);
    let fb = f64::from_bits(v1);
    match op {
        Add => a.wrapping_add(b) as u64,
        Sub => a.wrapping_sub(b) as u64,
        And => (a & b) as u64,
        Or => (a | b) as u64,
        Xor => (a ^ b) as u64,
        Shl => a.wrapping_shl(b as u32 & 63) as u64,
        Shr => a.wrapping_shr(b as u32 & 63) as u64,
        CmpEq => i64::from(a == b) as u64,
        CmpLt => i64::from(a < b) as u64,
        CmpLe => i64::from(a <= b) as u64,
        Mul => a.wrapping_mul(b) as u64,
        Mov | FMov => v0,
        Li | FLi | LdAddr => imm,
        Cmov | FCmov => {
            if a != 0 {
                v1
            } else {
                v2
            }
        }
        FAdd => (fa + fb).to_bits(),
        FSub => (fa - fb).to_bits(),
        FMul => (fa * fb).to_bits(),
        FDivS | FDivD => (fa / fb).to_bits(),
        FCmpEq => i64::from(fa == fb) as u64,
        FCmpLt => i64::from(fa < fb) as u64,
        FCmpLe => i64::from(fa <= fb) as u64,
        CvtIF => (a as f64).to_bits(),
        CvtFI => (fa as i64) as u64,
        FNeg => (-fa).to_bits(),
        FSqrt => fa.abs().sqrt().to_bits(),
        Ld | St => unreachable!("memory opcode {op} dispatched as pure"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::{value, Value};

    /// Every pure opcode, evaluated both ways on shared inputs, must
    /// agree bit for bit — the guard against `eval_bits` drifting from
    /// `value::eval`.
    #[test]
    fn eval_bits_matches_value_eval_on_every_pure_op() {
        use Op::*;
        let int_pairs: [(i64, i64); 6] = [
            (0, 0),
            (6, 7),
            (-3, 5),
            (i64::MAX, 1),
            (i64::MIN, -1),
            (123_456_789, -987),
        ];
        let fp_pairs: [(f64, f64); 6] = [
            (0.0, 0.0),
            (1.5, 0.5),
            (-3.25, 2.0),
            (f64::INFINITY, 1.0),
            (1.0, 0.0),
            (-0.0, 4.0),
        ];
        let check = |op: Op, vals: &[Value], imm: Option<i64>, fimm: f64| {
            // Pad to three register images the way the skeleton pads
            // operands with the sentinel slot (whose value is always 0 —
            // the invariant the OR-folded immediate relies on), and
            // encode the immediate exactly the way `skeleton::build`
            // does.
            let mut v: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
            v.resize(3, 0);
            let imm_bits = match op {
                Op::FLi => fimm.to_bits(),
                _ => imm.unwrap_or(0) as u64,
            };
            let got = eval_code(op, v[0], v[1], v[2], imm_bits);
            let want = value::eval(op, vals, imm, fimm).to_bits();
            assert_eq!(got, want, "{op:?} vals={vals:?} imm={imm:?}");
        };

        for &(a, b) in &int_pairs {
            for op in [Add, Sub, And, Or, Xor, Shl, Shr, CmpEq, CmpLt, CmpLe, Mul] {
                check(op, &[Value::Int(a), Value::Int(b)], None, 0.0);
                check(op, &[Value::Int(a)], Some(b), 0.0);
            }
            check(Mov, &[Value::Int(a)], None, 0.0);
            check(Li, &[], Some(a), 0.0);
            for cond in [0, 1, -5] {
                check(
                    Cmov,
                    &[Value::Int(cond), Value::Int(a), Value::Int(b)],
                    None,
                    0.0,
                );
            }
            check(CvtIF, &[Value::Int(a)], None, 0.0);
        }
        for &(a, b) in &fp_pairs {
            for op in [FAdd, FSub, FMul, FDivS, FDivD, FCmpEq, FCmpLt, FCmpLe] {
                check(op, &[Value::Float(a), Value::Float(b)], None, 0.0);
            }
            check(FMov, &[Value::Float(a)], None, 0.0);
            check(FLi, &[], None, a);
            check(FNeg, &[Value::Float(a)], None, 0.0);
            check(FSqrt, &[Value::Float(a)], None, 0.0);
            check(CvtFI, &[Value::Float(3.9)], None, 0.0);
            for cond in [0, 7] {
                check(
                    FCmov,
                    &[Value::Int(cond), Value::Float(a), Value::Float(b)],
                    None,
                    0.0,
                );
            }
        }
    }

    mod block_cache {
        use crate::block::{run_with_stats, CacheStats};
        use crate::{SimConfig, SimEngine, SimResult};
        use bsched_ir::{BrCond, FuncBuilder, Op, Program};

        /// A block-engine run on the default machine.
        fn run(p: &Program) -> (SimResult, CacheStats) {
            run_with_stats(p, SimConfig::default(), SimEngine::BlockCompiled).unwrap()
        }

        /// for i in 0..n { sum += i } over four blocks (entry, header,
        /// body, exit).
        fn loop_program(n: i64) -> Program {
            let mut p = Program::new("loop");
            let out = p.add_region("out", 8);
            let mut b = FuncBuilder::new("main");
            let header = b.add_block();
            let body = b.add_block();
            let exit = b.add_block();
            let i = b.iconst(0);
            let sum = b.iconst(0);
            let bound = b.iconst(n);
            let base = b.load_region_addr(out);
            b.jmp(header);
            b.switch_to(header);
            let c = b.binop(Op::CmpLt, i, bound);
            b.br(c, BrCond::Zero, exit, body);
            b.switch_to(body);
            b.push(bsched_ir::Inst::op(Op::Add, sum, &[sum, i]));
            b.push(bsched_ir::Inst::op_imm(Op::Add, i, i, 1));
            b.jmp(header);
            b.switch_to(exit);
            b.store(sum, base, 0).with_region(out).emit(&mut b);
            b.ret();
            p.set_main(b.finish());
            p
        }

        #[test]
        fn re_entry_replays_the_cached_skeleton() {
            let p = loop_program(50);
            let (_, stats) = run(&p);
            // Four distinct blocks, each built exactly once...
            assert_eq!(stats.builds, 4, "{stats:?}");
            // ...but the header and body are visited ~50 times each.
            assert_eq!(stats.visits, 1 + 51 + 50 + 1, "{stats:?}");
        }

        #[test]
        fn cached_replay_is_deterministic_across_visits_and_runs() {
            // The self-modifying-free invariant: the program is immutable
            // during a run, so a skeleton never goes stale — 50 replays
            // of the cached body must leave the machine in exactly the
            // state a fresh run reaches, visit after visit, run after
            // run.
            let p = loop_program(50);
            let (a, sa) = run(&p);
            let (b, sb) = run(&p);
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.checksum, b.checksum);
            assert_eq!(sa, sb);
        }

        #[test]
        fn cross_region_reuse_is_off_by_default() {
            // Two byte-identical single-block bodies at different code
            // addresses: identity keying must build two skeletons, never
            // share one (sites and fetch addresses are absolute).
            let mut p = Program::new("twins");
            let r = p.add_region("a", 4096);
            let mut b = FuncBuilder::new("main");
            let second = b.add_block();
            let exit = b.add_block();
            let base = b.load_region_addr(r);
            let x = b.load_f(base, 0).with_region(r).emit(&mut b);
            let y = b.binop(Op::FAdd, x, x);
            b.store(y, base, 8).with_region(r).emit(&mut b);
            b.jmp(second);
            b.switch_to(second);
            let base2 = b.load_region_addr(r);
            let x2 = b.load_f(base2, 0).with_region(r).emit(&mut b);
            let y2 = b.binop(Op::FAdd, x2, x2);
            b.store(y2, base2, 8).with_region(r).emit(&mut b);
            b.jmp(exit);
            b.switch_to(exit);
            b.ret();
            p.set_main(b.finish());

            let (_, stats) = run(&p);
            assert_eq!(stats.builds, 3, "identical blocks must not share skeletons");
        }
    }

    /// The block engine's deterministic performance gate: the timing
    /// loop's work
    /// counts on every lowered suite kernel under the default machine,
    /// pinned by exact equality. Each count guards one thing the
    /// engine exists to skip — rebuilding a block's skeleton on
    /// re-entry (`builds`), probing the I-cache on every instruction
    /// instead of once per line run (`fetches`), and scanning operands
    /// whose readiness the skeleton proved (`scans`) — and `visits`
    /// pins the control flow the others are counted over. A change
    /// that means to move them re-records the table.
    #[test]
    fn work_counts_match_the_recorded_table() {
        // (kernel, builds, visits, fetches, scans)
        const RECORDED: [(&str, u64, u64, u64, u64); 17] = [
            ("ARC2D", 17, 14863, 39033, 147404),
            ("BDNA", 5, 4503, 33003, 165001),
            ("DYFESM", 16, 9853, 15511, 42002),
            ("MDG", 5, 6603, 15404, 57202),
            ("QCD2", 17, 14853, 26054, 61052),
            ("TRFD", 9, 7155, 21075, 83473),
            ("alvinn", 17, 37109, 67904, 153842),
            ("dnasa7", 21, 23109, 47238, 113602),
            ("doduc", 11, 7703, 12866, 26546),
            ("ear", 5, 12003, 20003, 64001),
            ("hydro2d", 17, 26961, 62430, 225494),
            ("mdljdp2", 11, 16803, 26792, 48559),
            ("ora", 5, 1053, 7003, 33951),
            ("spice2g6", 5, 15003, 25003, 50002),
            ("su2cor", 13, 13507, 24009, 72003),
            ("swm256", 17, 11825, 29137, 105782),
            ("tomcatv", 9, 36569, 145046, 529691),
        ];
        let kernels = bsched_workloads::suite::all_kernels();
        assert_eq!(kernels.len(), RECORDED.len());
        for (k, (name, builds, visits, fetches, scans)) in kernels.iter().zip(RECORDED) {
            assert_eq!(k.name, name);
            let (_, got) =
                run_with_stats(&k.program(), SimConfig::default(), SimEngine::BlockCompiled)
                    .unwrap();
            let want = CacheStats {
                builds,
                visits,
                fetches,
                scans,
            };
            assert_eq!(got, want, "{name}: block-engine work counts moved");
        }
    }

    /// The reference decode elides nothing: over the same kernels,
    /// [`SimEngine::Interpret`] probes the I-cache on every slot
    /// (Σ visits × (insts + 1), terminators included) and scans the
    /// operands of every instruction (Σ visits × insts), while building
    /// and visiting exactly what the block engine does. If it quietly
    /// started eliding, `check_engines` would compare the block engine
    /// against itself.
    #[test]
    fn the_reference_decode_elides_nothing() {
        for k in bsched_workloads::suite::all_kernels() {
            let program = k.program();
            let (proven, block) =
                run_with_stats(&program, SimConfig::default(), SimEngine::BlockCompiled).unwrap();
            let (reference, got) =
                run_with_stats(&program, SimConfig::default(), SimEngine::Interpret).unwrap();
            assert_eq!(reference.metrics, proven.metrics, "{}", k.name);
            let counts = reference.metrics.insts;
            let insts = counts.total() - counts.branches - counts.jumps;
            let want = CacheStats {
                builds: block.builds,
                visits: block.visits,
                fetches: insts + block.visits,
                scans: insts,
            };
            assert_eq!(got, want, "{}: the reference decode elided work", k.name);
        }
    }
}
