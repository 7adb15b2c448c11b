//! The simulator front end: [`Simulator`] and its [`SimResult`].
//!
//! A simulator picks a machine, an engine ([`SimEngine`]) and a mode
//! ([`crate::SimMode`]); every exact run, under either engine, executes
//! in the one timing loop of `crate::block`, and sampled runs replay
//! their representative intervals through that same loop
//! (`crate::sample`).

use crate::config::SimConfig;
use crate::engine::SimEngine;
use bsched_ir::{ExecError, Program};

/// Result of a simulated run: timing metrics plus the functional outcome
/// (memory checksum) used to cross-check against the reference
/// interpreter.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Timing and instruction-count metrics.
    pub metrics: crate::metrics::SimMetrics,
    /// FNV-1a hash of the final memory image.
    pub checksum: u64,
    /// Sampling summary when the run was estimated under
    /// [`crate::SimMode::Sampled`]; `None` for exact runs.
    pub sample: Option<crate::sample::SampleStats>,
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
            crate::sample::SimMode::Exact => {
                crate::block::run(self.program, self.config, self.engine)
            }
            crate::sample::SimMode::Sampled(sample) => {
                crate::sample::run_sampled(self.program, self.config, sample)
            }
        }
    }
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
        let w2 = sim(&p, SimConfig::default().with_ifetch(false).with_issue(2, 1))
            .run()
            .unwrap();
        let w4 = sim(&p, SimConfig::default().with_ifetch(false).with_issue(4, 2))
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
