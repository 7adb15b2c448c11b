//! The execution-driven timing machine.
//!
//! This module holds the engine-agnostic [`Simulator`] front end, the
//! machine-model state shared by both engines (scoreboard, per-site
//! trace attribution, code layout), and the one-instruction-at-a-time
//! *interpreting* engine, `interpret`. That one loop is both the exact
//! [`SimEngine::Interpret`] run and the cycle-level replay of every
//! representative interval when sampled plans are built
//! (`crate::sample`), so interpreted timing is defined in exactly one
//! place. The block-compiled engine lives in `crate::block` and must
//! reproduce the interpreter bit for bit.

use crate::branch::BranchPredictor;
use crate::config::SimConfig;
use crate::engine::SimEngine;
use crate::metrics::SimMetrics;
use bsched_ir::{
    interp::RegFile, BlockId, ExecError, Function, MemImage, Op, Program, Terminator, Value,
};
use bsched_mem::Hierarchy;

/// Result of a simulated run: timing metrics plus the functional outcome
/// (memory checksum) used to cross-check against the reference
/// interpreter.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Timing and instruction-count metrics.
    pub metrics: SimMetrics,
    /// FNV-1a hash of the final memory image.
    pub checksum: u64,
    /// Sampling summary when the run was estimated under
    /// [`crate::SimMode::Sampled`]; `None` for exact runs.
    pub sample: Option<crate::sample::SampleStats>,
}

/// Sentinel "not produced by a load" site id.
pub(crate) const NO_SITE: u32 = u32::MAX;

/// Base address of the code region: 4 bytes per instruction, terminator
/// included. Code lives far above data so instruction fetches and data
/// accesses never share cache lines.
pub(crate) const CODE_BASE: u64 = 1 << 32;

/// Computes the code layout shared by both engines: the base address of
/// every block (in [`BlockId`] index order) and the end-of-code address.
/// The static *site id* of the instruction at `pc` is
/// `(pc - CODE_BASE) / 4`.
pub(crate) fn code_layout(func: &Function) -> (Vec<u64>, u64) {
    let mut block_addr = Vec::with_capacity(func.blocks().len());
    let mut pc = CODE_BASE;
    for (_, b) in func.iter_blocks() {
        block_addr.push(pc);
        pc += 4 * (b.len() as u64 + 1);
    }
    (block_addr, pc)
}

/// Per-register scoreboard: when each register's value becomes
/// available, and — for interlock attribution — the static code site
/// (`(pc - CODE_BASE) / 4`) of its most recent producing load, or
/// [`NO_SITE`] for non-load producers.
#[derive(Debug)]
pub(crate) struct Scoreboard {
    ready_int: Vec<u64>,
    ready_float: Vec<u64>,
    load_site_int: Vec<u32>,
    load_site_float: Vec<u32>,
}

impl Scoreboard {
    pub(crate) fn new(func: &Function) -> Self {
        use bsched_ir::RegClass;
        let ni = bsched_ir::Reg::NUM_PHYS as usize + func.vreg_count(RegClass::Int) as usize;
        let nf = bsched_ir::Reg::NUM_PHYS as usize + func.vreg_count(RegClass::Float) as usize;
        Scoreboard {
            ready_int: vec![0; ni],
            ready_float: vec![0; nf],
            load_site_int: vec![NO_SITE; ni],
            load_site_float: vec![NO_SITE; nf],
        }
    }

    pub(crate) fn ready(&self, r: bsched_ir::Reg) -> (u64, u32) {
        let s = RegFile::slot(r);
        match r.class() {
            bsched_ir::RegClass::Int => (self.ready_int[s], self.load_site_int[s]),
            bsched_ir::RegClass::Float => (self.ready_float[s], self.load_site_float[s]),
        }
    }

    pub(crate) fn set(&mut self, r: bsched_ir::Reg, at: u64, load_site: u32) {
        let s = RegFile::slot(r);
        match r.class() {
            bsched_ir::RegClass::Int => {
                self.ready_int[s] = at;
                self.load_site_int[s] = load_site;
            }
            bsched_ir::RegClass::Float => {
                self.ready_float[s] = at;
                self.load_site_float[s] = load_site;
            }
        }
    }
}

/// Tracing-only per-static-load-site attribution, allocated only when
/// `bsched_trace::enabled()`. The interlock and MSHR columns are
/// incremented at exactly the three points that bump the aggregate
/// `load_interlock` counter, so their sum reproduces it exactly — the
/// conservation property the test suite pins.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SiteStat {
    pub(crate) issued: u64,
    pub(crate) interlock: u64,
    pub(crate) mshr: u64,
    pub(crate) hits: [u64; 4], // L1, L2, L3, memory
}

impl SiteStat {
    fn any(&self) -> bool {
        self.issued > 0 || self.interlock > 0 || self.mshr > 0
    }
}

/// Emits one `sim.load_site` event per static site with any load
/// activity: where it lives (block), how often it issued, which memory
/// levels answered, and how many load-interlock cycles it was blamed
/// for (operand interlocks + MSHR stalls). Shared by both engines so
/// per-site attribution is byte-identical across them.
pub(crate) fn flush_site_events(program_name: &str, sites: &[SiteStat], block_addr: &[u64]) {
    for (site, st) in sites.iter().enumerate() {
        if !st.any() {
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

/// The simulator. Build with [`Simulator::for_machine`], pick an engine
/// with [`Simulator::with_engine`], consume with [`Simulator::run`].
#[derive(Debug)]
pub struct Simulator<'p> {
    program: &'p Program,
    config: SimConfig,
    engine: SimEngine,
    mode: crate::sample::SimMode,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator for `program` on the given machine, running
    /// on the default engine ([`SimEngine::default`]) in exact mode.
    #[must_use]
    pub fn for_machine(program: &'p Program, machine: &crate::machines::MachineSpec) -> Self {
        Simulator {
            program,
            config: machine.config(),
            engine: SimEngine::default(),
            mode: crate::sample::SimMode::default(),
        }
    }

    /// Selects the execution engine. Metrics-invariant: both engines
    /// produce bit-identical [`SimResult`]s.
    #[must_use]
    pub fn with_engine(mut self, engine: SimEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The engine this simulator will run on.
    #[must_use]
    pub fn engine(&self) -> SimEngine {
        self.engine
    }

    /// Selects exact or sampled execution. Unlike the engine axis,
    /// sampled mode is *not* metrics-invariant: it estimates timing
    /// metrics from representative intervals (the functional outcome —
    /// instruction counts and checksum — stays exact).
    #[must_use]
    pub fn with_mode(mut self, mode: crate::sample::SimMode) -> Self {
        self.mode = mode;
        self
    }

    /// The execution mode this simulator will run in.
    #[must_use]
    pub fn mode(&self) -> crate::sample::SimMode {
        self.mode
    }

    /// Runs the program to completion on the timing model.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::OutOfFuel`] if the configured instruction
    /// budget is exhausted and [`ExecError::WildStore`] on a store outside
    /// the memory image.
    pub fn run(&self) -> Result<SimResult, ExecError> {
        match self.mode {
            crate::sample::SimMode::Exact => match self.engine {
                SimEngine::Interpret => self.run_interpret(),
                SimEngine::BlockCompiled => crate::block::run(self.program, self.config),
            },
            crate::sample::SimMode::Sampled(sample) => {
                crate::sample::run_sampled(self.program, self.config, sample)
            }
        }
    }

    /// The interpreting engine: decode, evaluate, and charge every
    /// instruction on every visit, via [`interpret`] from a cold
    /// machine to `Ret`. This wrapper owns what an exact run adds on
    /// top: the `sim.run` span, per-site attribution, and the checksum.
    fn run_interpret(&self) -> Result<SimResult, ExecError> {
        let func = self.program.main();
        let (block_addr, code_end) = code_layout(func);

        // Load-interlock attribution (tracing only): one row per static
        // code slot, flushed as `sim.load_site` events at `Ret`.
        let tracing = bsched_trace::enabled();
        let mut sites: Vec<SiteStat> = if tracing {
            vec![SiteStat::default(); ((code_end - CODE_BASE) / 4) as usize]
        } else {
            Vec::new()
        };
        let mut st = MachineState::cold(self.program, &self.config);
        let run_span = bsched_trace::span(bsched_trace::points::SIM_RUN)
            .label_with(|| self.program.name().to_string());
        let (metrics, _) = interpret(
            func,
            &self.config,
            &block_addr,
            &mut st,
            func.entry(),
            u64::MAX,
            &mut sites,
        )?;
        if tracing {
            flush_site_events(self.program.name(), &sites, &block_addr);
            run_span.finish(&[
                ("cycles", metrics.cycles),
                ("load_interlock", metrics.load_interlock),
            ]);
        }
        Ok(SimResult {
            metrics,
            checksum: st.mem.checksum(),
            sample: None,
        })
    }
}

/// The caller-owned state [`interpret`] runs on: the architectural
/// state (register file, memory image), the micro-architectural state
/// that stays warm across calls (hierarchy, branch predictor), and the
/// clock.
#[derive(Debug)]
pub(crate) struct MachineState {
    pub(crate) regs: RegFile,
    pub(crate) mem: MemImage,
    pub(crate) hier: Hierarchy,
    pub(crate) pred: BranchPredictor,
    pub(crate) now: u64,
}

impl MachineState {
    /// A cold machine at cycle 0 holding `program`'s initial memory.
    pub(crate) fn cold(program: &Program, config: &SimConfig) -> Self {
        MachineState {
            regs: RegFile::new(program.main()),
            mem: MemImage::new(program),
            hier: Hierarchy::new(config.mem),
            pred: BranchPredictor::new(&config.branch),
            now: 0,
        }
    }
}

/// The interpreting engine's timing loop — the one definition of its
/// fetch, issue-group, interlock, memory, and branch timing. Runs `func`
/// on `st` from block `start` until `Ret` or until `max_blocks` block
/// executions have retired, whichever comes first.
///
/// Returns *interval-local* metrics — cycles since entry, the stall
/// counters, instruction counts, and the hierarchy's statistics (whose
/// counters restart at entry) — plus the block at which execution
/// continues (`None` when the run reached `Ret`). `st` is advanced in place: an
/// exact run passes a cold machine and `u64::MAX`, sampled-plan
/// construction passes its warm fast-forward state and one interval's
/// block count. The scoreboard and issue group start empty.
///
/// `sites` is the per-static-site attribution table; pass an empty
/// slice to turn attribution off.
///
/// # Errors
///
/// [`ExecError::OutOfFuel`] past `config.fuel` instructions retired in
/// this call, [`ExecError::WildStore`] on a store outside the memory
/// image.
pub(crate) fn interpret(
    func: &Function,
    config: &SimConfig,
    block_addr: &[u64],
    st: &mut MachineState,
    start: BlockId,
    max_blocks: u64,
    sites: &mut [SiteStat],
) -> Result<(SimMetrics, Option<BlockId>), ExecError> {
    let MachineState {
        regs,
        mem,
        hier,
        pred,
        now: clock,
    } = st;
    let tracing = !sites.is_empty();
    let mut board = Scoreboard::new(func);
    let mut m = SimMetrics::default();
    let start_now = *clock;
    let mut now = start_now;
    hier.reset_stats();

    let mut executed: u64 = 0;
    let mut visited: u64 = 0;
    let mut cur = start;
    // Issue-group state for multi-issue configurations. Any stall
    // advances `now`, opening a fresh group.
    let width = config.issue_width.max(1);
    let ports = config.mem_ports.max(1);
    let mut slot: u32 = 0;
    let mut mem_slot: u32 = 0;
    let fixed_latency = |op: Op| -> u32 {
        if config.uniform_fixed_latency {
            1
        } else {
            op.latency()
        }
    };

    let next_block = loop {
        let block = func.block(cur);
        let base_pc = block_addr[cur.index()];
        for (k, inst) in block.insts.iter().enumerate() {
            executed += 1;
            if executed > config.fuel {
                return Err(ExecError::OutOfFuel { fuel: config.fuel });
            }
            // 1. Fetch.
            if config.model_ifetch {
                let f = hier.inst_fetch(base_pc + 4 * k as u64, now);
                if f.ready_at > now {
                    m.fetch_stall += f.ready_at - now;
                    now = f.ready_at;
                    slot = 0;
                    mem_slot = 0;
                }
            }
            // 2. Structural issue limits: group full, or out of
            // memory ports — advance to the next cycle first so the
            // operand check below sees the true issue cycle.
            if slot >= width || (inst.op.is_memory() && mem_slot >= ports) {
                now += 1;
                slot = 0;
                mem_slot = 0;
            }
            // 2b. Operand interlock.
            let mut op_ready = now;
            let mut blame_site = NO_SITE;
            for &s in inst.srcs() {
                let (t, site) = board.ready(s);
                if t > op_ready || (t == op_ready && site != NO_SITE && t > now) {
                    op_ready = t;
                    blame_site = site;
                }
            }
            if op_ready > now {
                let stall = op_ready - now;
                if blame_site != NO_SITE {
                    m.load_interlock += stall;
                    if tracing {
                        sites[blame_site as usize].interlock += stall;
                    }
                } else {
                    m.fixed_interlock += stall;
                }
                now = op_ready;
                slot = 0;
                mem_slot = 0;
            }
            // 3. Execute.
            m.insts.record(inst);
            match inst.op {
                Op::Ld => {
                    let site = ((base_pc - CODE_BASE) / 4) as u32 + k as u32;
                    let base = regs.get(inst.mem_base()).as_int();
                    let addr = base.wrapping_add(inst.mem_disp()) as u64;
                    let a = hier.data_read(addr, now);
                    m.load_interlock += a.stall;
                    m.tlb_stall += (a.issue_at - now) - a.stall;
                    if tracing {
                        let row = &mut sites[site as usize];
                        row.issued += 1;
                        row.mshr += a.stall;
                        row.hits[a.level as usize] += 1;
                    }
                    if a.issue_at > now {
                        now = a.issue_at;
                        slot = 0;
                        mem_slot = 0;
                    }
                    let dst = inst.dst.expect("load has a destination");
                    regs.set(dst, Value::from_bits(dst.class(), mem.load(addr)));
                    board.set(dst, a.ready_at, site);
                }
                Op::St => {
                    let base = regs.get(inst.mem_base()).as_int();
                    let addr = base.wrapping_add(inst.mem_disp()) as u64;
                    let a = hier.data_write(addr, now);
                    m.store_stall += a.stall;
                    m.tlb_stall += (a.issue_at - now) - a.stall;
                    if a.issue_at > now {
                        now = a.issue_at;
                        slot = 0;
                        mem_slot = 0;
                    }
                    mem.store(addr, regs.get(inst.srcs()[0]).to_bits())?;
                }
                Op::LdAddr => {
                    let region = inst
                        .mem
                        .and_then(|mm| mm.region)
                        .expect("ldaddr has a region");
                    let dst = inst.dst.expect("ldaddr has a destination");
                    let base = mem.region_bases[region.index() as usize];
                    regs.set(dst, Value::Int(base as i64));
                    board.set(dst, now + u64::from(fixed_latency(inst.op)), NO_SITE);
                }
                _ => {
                    let mut vals = [Value::Int(0); 3];
                    for (slot, &s) in vals.iter_mut().zip(inst.srcs()) {
                        *slot = regs.get(s);
                    }
                    let v = bsched_ir::value::eval(
                        inst.op,
                        &vals[..inst.srcs().len()],
                        inst.imm,
                        inst.fimm,
                    );
                    let dst = inst.dst.expect("pure op has a destination");
                    regs.set(dst, v);
                    board.set(dst, now + u64::from(fixed_latency(inst.op)), NO_SITE);
                }
            }
            // 4. The instruction occupies one slot of the group.
            slot += 1;
            if inst.op.is_memory() {
                mem_slot += 1;
            }
        }

        // Terminator.
        let term_pc = base_pc + 4 * block.len() as u64;
        if config.model_ifetch {
            let f = hier.inst_fetch(term_pc, now);
            if f.ready_at > now {
                m.fetch_stall += f.ready_at - now;
                now = f.ready_at;
            }
        }
        visited += 1;
        // Every terminator path below ends the issue group itself.
        let next: BlockId = match &block.term {
            Terminator::Jmp(t) => {
                m.insts.jumps += 1;
                // A control transfer ends the issue group.
                now += 1;
                slot = 0;
                mem_slot = 0;
                *t
            }
            Terminator::Br {
                cond,
                when,
                taken,
                fall,
            } => {
                let (t, site) = board.ready(*cond);
                if t > now {
                    let stall = t - now;
                    if site != NO_SITE {
                        m.load_interlock += stall;
                        if tracing {
                            sites[site as usize].interlock += stall;
                        }
                    } else {
                        m.fixed_interlock += stall;
                    }
                    now = t;
                }
                m.insts.branches += 1;
                let is_taken = when.holds(regs.get(*cond).as_int());
                if !pred.predict_and_update(term_pc, is_taken) {
                    m.branch_penalty += u64::from(config.branch.mispredict_penalty);
                    now += u64::from(config.branch.mispredict_penalty);
                }
                // A control transfer ends the issue group.
                now += 1;
                slot = 0;
                mem_slot = 0;
                if is_taken {
                    *taken
                } else {
                    *fall
                }
            }
            Terminator::Ret => break None,
        };
        if visited == max_blocks {
            break Some(next);
        }
        cur = next;
    };

    *clock = now;
    m.cycles = now - start_now;
    m.mem = *hier.stats();
    Ok((m, next_block))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::{BrCond, FuncBuilder, Interp, Op, Program};

    /// Shorthand: a simulator for an ad-hoc machine description.
    fn sim<'p>(p: &'p Program, config: SimConfig) -> Simulator<'p> {
        Simulator::for_machine(p, &crate::machines::MachineSpec::custom(config))
    }

    /// load; dependent fadd; store — on a cold cache the fadd interlocks.
    fn load_use_program(gap_ops: usize) -> Program {
        let mut p = Program::new("lu");
        let r = p.add_region("a", 4096);
        let mut b = FuncBuilder::new("main");
        let base = b.load_region_addr(r);
        let x = b.load_f(base, 0).with_region(r).emit(&mut b);
        // Independent work between the load and its consumer.
        let mut acc = b.fconst(1.0);
        for _ in 0..gap_ops {
            acc = b.binop(Op::FMul, acc, acc);
        }
        let y = b.binop(Op::FAdd, x, x);
        b.store(y, base, 8).with_region(r).emit(&mut b);
        b.store(acc, base, 16).with_region(r).emit(&mut b);
        b.ret();
        p.set_main(b.finish());
        p
    }

    #[test]
    fn cold_load_interlocks_consumer() {
        let p = load_use_program(0);
        let res = sim(&p, SimConfig::default()).run().unwrap();
        assert!(res.metrics.load_interlock >= 40, "{:?}", res.metrics);
    }

    #[test]
    fn independent_work_hides_load_latency() {
        let near = sim(&load_use_program(0), SimConfig::default())
            .run()
            .unwrap();
        let far = sim(&load_use_program(12), SimConfig::default())
            .run()
            .unwrap();
        assert!(
            far.metrics.load_interlock < near.metrics.load_interlock,
            "independent instructions must absorb load latency: {} vs {}",
            far.metrics.load_interlock,
            near.metrics.load_interlock
        );
    }

    #[test]
    fn checksum_matches_functional_interpreter() {
        for gap in [0, 5] {
            let p = load_use_program(gap);
            let sim = sim(&p, SimConfig::default()).run().unwrap();
            let reference = Interp::new(&p).run().unwrap();
            assert_eq!(sim.checksum, reference.checksum);
        }
    }

    /// Eight loads from distinct lines on one page; all are cold misses.
    fn many_miss_program() -> Program {
        let mut p = Program::new("8m");
        let r = p.add_region("a", 4096);
        let mut b = FuncBuilder::new("main");
        let base = b.load_region_addr(r);
        let mut acc = b.fconst(0.0);
        // All eight loads issue back-to-back (a balanced-style schedule),
        // then the consumers run.
        let loads: Vec<_> = (0..8)
            .map(|k| b.load_f(base, k * 64).with_region(r).emit(&mut b))
            .collect();
        for x in loads {
            acc = b.binop(Op::FAdd, acc, x);
        }
        b.store(acc, base, 8).with_region(r).emit(&mut b);
        b.ret();
        p.set_main(b.finish());
        p
    }

    #[test]
    fn non_blocking_overlaps_misses_blocking_serialises() {
        let p = many_miss_program();
        let cfg = SimConfig::default().with_ifetch(false);
        let nb = sim(&p, cfg).run().unwrap();
        let blk = sim(&p, cfg.with_mshrs(1)).run().unwrap();
        // 8 cold misses at 50 cycles: blocking pays nearly all of them in
        // sequence; non-blocking overlaps several.
        assert!(
            blk.metrics.cycles > nb.metrics.cycles + 100,
            "blocking cache must serialise memory misses: {} vs {}",
            blk.metrics.cycles,
            nb.metrics.cycles
        );
        assert!(blk.metrics.load_interlock > nb.metrics.load_interlock);
        assert_eq!(nb.checksum, blk.checksum);
    }

    #[test]
    fn loop_with_predictable_branch() {
        // for i in 0..50 { sum += i } — branch predicts well after warmup.
        let mut p = Program::new("loop");
        let out = p.add_region("out", 8);
        let mut b = FuncBuilder::new("main");
        let header = b.add_block();
        let body = b.add_block();
        let exit = b.add_block();
        let i = b.iconst(0);
        let sum = b.iconst(0);
        let n = b.iconst(50);
        let base = b.load_region_addr(out);
        b.jmp(header);
        b.switch_to(header);
        let c = b.binop(Op::CmpLt, i, n);
        b.br(c, BrCond::Zero, exit, body);
        b.switch_to(body);
        b.push(bsched_ir::Inst::op(Op::Add, sum, &[sum, i]));
        b.push(bsched_ir::Inst::op_imm(Op::Add, i, i, 1));
        b.jmp(header);
        b.switch_to(exit);
        b.store(sum, base, 0).with_region(out).emit(&mut b);
        b.ret();
        p.set_main(b.finish());

        let res = sim(&p, SimConfig::default()).run().unwrap();
        assert_eq!(res.metrics.insts.branches, 51);
        assert_eq!(res.metrics.insts.jumps, 51); // entry jmp + 50 latch jmps
                                                 // Mispredicts only at warmup and the final not-taken: small penalty.
        assert!(res.metrics.branch_penalty <= 4 * 5 + 5);
        let reference = Interp::new(&p).run().unwrap();
        assert_eq!(res.checksum, reference.checksum);
        assert!(res.metrics.cycles > res.metrics.insts.total());
    }

    #[test]
    fn fixed_latency_interlock_attribution() {
        // fdiv feeding a store: the stall is a fixed interlock, not load.
        let mut p = Program::new("div");
        let r = p.add_region("a", 64);
        let mut b = FuncBuilder::new("main");
        let base = b.load_region_addr(r);
        let x = b.fconst(10.0);
        let y = b.fconst(4.0);
        let q = b.binop(Op::FDivD, x, y);
        b.store(q, base, 0).with_region(r).emit(&mut b);
        b.ret();
        p.set_main(b.finish());
        let res = sim(&p, SimConfig::default().with_ifetch(false))
            .run()
            .unwrap();
        assert!(res.metrics.fixed_interlock >= 25, "{:?}", res.metrics);
        assert_eq!(res.metrics.load_interlock, 0);
    }

    #[test]
    fn ifetch_off_removes_fetch_stalls() {
        let p = load_use_program(3);
        let on = sim(&p, SimConfig::default()).run().unwrap();
        let off = sim(&p, SimConfig::default().with_ifetch(false))
            .run()
            .unwrap();
        assert!(on.metrics.fetch_stall > 0);
        assert_eq!(off.metrics.fetch_stall, 0);
        assert!(off.metrics.cycles < on.metrics.cycles);
    }

    #[test]
    fn fuel_guard() {
        let mut p = Program::new("spin");
        let mut b = FuncBuilder::new("main");
        let e = b.current_block();
        let _ = b.iconst(0);
        b.jmp(e);
        p.set_main(b.finish());
        let cfg = SimConfig {
            fuel: 10,
            ..Default::default()
        };
        assert!(matches!(
            sim(&p, cfg).run(),
            Err(ExecError::OutOfFuel { fuel: 10 })
        ));
    }
}

#[cfg(test)]
mod multi_issue_tests {
    use super::*;
    use bsched_ir::{FuncBuilder, Op, Program};

    /// Shorthand: a simulator for an ad-hoc machine description.
    fn sim<'p>(p: &'p Program, config: SimConfig) -> Simulator<'p> {
        Simulator::for_machine(p, &crate::machines::MachineSpec::custom(config))
    }


    /// Many independent integer ops: wider issue must shrink cycles.
    fn ilp_program() -> Program {
        let mut p = Program::new("ilp");
        let r = p.add_region("a", 512);
        let mut b = FuncBuilder::new("main");
        let base = b.load_region_addr(r);
        let mut accs = Vec::new();
        for k in 0..8 {
            let x = b.iconst(k);
            let y = b.binop_imm(Op::Add, x, 1);
            let z = b.binop_imm(Op::Add, y, 2);
            accs.push(z);
        }
        let mut total = accs[0];
        for &a in &accs[1..] {
            total = b.binop(Op::Add, total, a);
        }
        b.store(total, base, 0).with_region(r).emit(&mut b);
        b.ret();
        p.set_main(b.finish());
        p
    }

    #[test]
    fn wider_issue_is_faster_and_identical_functionally() {
        let p = ilp_program();
        let w1 = sim(&p, SimConfig::default().with_ifetch(false))
            .run()
            .unwrap();
        let w2 = sim(
            &p,
            SimConfig::default().with_ifetch(false).with_issue(2, 1),
        )
        .run()
        .unwrap();
        let w4 = sim(
            &p,
            SimConfig::default().with_ifetch(false).with_issue(4, 2),
        )
        .run()
        .unwrap();
        assert!(w2.metrics.cycles < w1.metrics.cycles);
        assert!(w4.metrics.cycles <= w2.metrics.cycles);
        assert_eq!(w1.checksum, w4.checksum);
        assert_eq!(w1.metrics.insts.total(), w4.metrics.insts.total());
    }

    #[test]
    fn mem_ports_limit_memory_issue() {
        // Sixteen independent stores: with one memory port they take a
        // cycle each; with four ports they pack four to a group.
        let mut p = Program::new("stports");
        let r = p.add_region("a", 4096);
        let mut b = FuncBuilder::new("main");
        let base = b.load_region_addr(r);
        let v = b.fconst(1.0);
        for k in 0..16 {
            b.store(v, base, k * 8).with_region(r).emit(&mut b);
        }
        b.ret();
        p.set_main(b.finish());

        let mut one_port = SimConfig::default().with_ifetch(false).with_issue(4, 2);
        one_port.mem_ports = 1;
        let mut four_ports = one_port;
        four_ports.mem_ports = 4;
        let a = sim(&p, one_port).run().unwrap();
        let b_ = sim(&p, four_ports).run().unwrap();
        assert!(
            b_.metrics.cycles + 8 <= a.metrics.cycles,
            "{} vs {}",
            b_.metrics.cycles,
            a.metrics.cycles
        );
        assert_eq!(a.checksum, b_.checksum);
    }

    #[test]
    fn uniform_latency_removes_fixed_interlocks() {
        // An fdiv chain: with uniform latency there is nothing to wait on.
        let mut p = Program::new("u");
        let r = p.add_region("a", 64);
        let mut b = FuncBuilder::new("main");
        let base = b.load_region_addr(r);
        let x = b.fconst(8.0);
        let y = b.fconst(2.0);
        let q1 = b.binop(Op::FDivD, x, y);
        let q2 = b.binop(Op::FDivD, q1, y);
        b.store(q2, base, 0).with_region(r).emit(&mut b);
        b.ret();
        p.set_main(b.finish());
        let real = sim(&p, SimConfig::default().with_ifetch(false))
            .run()
            .unwrap();
        let mut simple_cfg = SimConfig::default();
        simple_cfg = simple_cfg.simple_model_1993();
        let simple = sim(&p, simple_cfg).run().unwrap();
        assert!(real.metrics.fixed_interlock >= 29, "{:?}", real.metrics);
        assert_eq!(simple.metrics.fixed_interlock, 0, "{:?}", simple.metrics);
        assert_eq!(real.checksum, simple.checksum);
    }
}
