//! The block-compiled execution engine.
//!
//! Where the interpreting engine decodes, evaluates, and charges every
//! instruction on every visit, this engine translates each basic block
//! once into a static cost [`skeleton::Skeleton`] (cached by block
//! identity in a [`cache::BlockCache`]) and per visit replays only the
//! dynamic parts of the machine model: cache/TLB lookups, MSHR
//! occupancy (through the same `bsched_mem::Hierarchy` the interpreter
//! calls), branch outcomes, and the scoreboard. The replay loop
//! reproduces `Simulator`'s interpreting engine **bit for bit** — same
//! `SimMetrics`, same per-load-site trace attribution, same memory
//! checksum — which the conformance suite (`bsched-verify`) enforces on
//! every verified cell. Its speed is pinned by the work counts the
//! block cache reports ([`cache::CacheStats`]), not by wall clock.

mod cache;
mod skeleton;

use crate::branch::BranchPredictor;
use crate::config::SimConfig;
use crate::machine::{code_layout, flush_site_events, SimResult, SiteStat, CODE_BASE, NO_SITE};
use crate::metrics::SimMetrics;
use bsched_ir::{ExecError, MemImage, Op, Program, Reg, RegClass};
use bsched_mem::Hierarchy;
use cache::{BlockCache, CacheStats};
use skeleton::TermKind;

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

/// Runs `program` to completion on the block-compiled engine.
pub(crate) fn run(program: &Program, config: SimConfig) -> Result<SimResult, ExecError> {
    run_with_stats(program, config).map(|(result, _)| result)
}

/// [`run`], also returning the block-cache build/visit counters (used
/// by the unit tests below to pin the caching behaviour).
///
/// Single-issue machines (the paper's default grid) replay through a
/// specialised loop: with `issue_width == 1` the slot counter is
/// provably 1 at the top of every instruction after the first of a
/// group, so the structural-limit check collapses to an unconditional
/// `now += 1` (suppressed only right after a fetch stall or a control
/// transfer, where the group is already fresh) and the memory-port
/// limit can never bind. The wide path keeps the full group
/// bookkeeping. Both monomorphise from the same body, so the timing
/// semantics cannot drift apart.
pub(crate) fn run_with_stats(
    program: &Program,
    config: SimConfig,
) -> Result<(SimResult, CacheStats), ExecError> {
    if config.issue_width.max(1) == 1 {
        run_impl::<false>(program, config)
    } else {
        run_impl::<true>(program, config)
    }
}

fn run_impl<const WIDE: bool>(
    program: &Program,
    config: SimConfig,
) -> Result<(SimResult, CacheStats), ExecError> {
    let func = program.main();
    let mut mem = MemImage::new(program);
    let bases = mem.region_bases.clone();
    let mut pred = BranchPredictor::new(&config.branch);
    let mut m = SimMetrics::default();

    // Unified register/scoreboard arrays: integer slots first, floats
    // after, then one extra always-ready sentinel slot (operand padding
    // — see `skeleton::sentinel_slot`). Values are raw 64-bit images
    // (`Value::to_bits` form), so loads, stores, moves, and selects
    // copy bits without class dispatch.
    let ni = Reg::NUM_PHYS as usize + func.vreg_count(RegClass::Int) as usize;
    let nf = Reg::NUM_PHYS as usize + func.vreg_count(RegClass::Float) as usize;
    let sentinel = skeleton::sentinel_slot(ni as u32, nf as u32);
    // Padded to a power of two so `slot & mask` is the identity on every
    // valid slot and the optimizer can drop the bounds checks (`i & mask`
    // is provably `< len`).
    let mut rf: Vec<RegSlot> = vec![
        RegSlot {
            val: 0,
            ready: 0,
            site: NO_SITE,
        };
        (ni + nf + 1).next_power_of_two()
    ];
    let rf: &mut [RegSlot] = &mut rf;
    let mask = rf.len() - 1;

    let (block_addr, code_end) = code_layout(func);
    let mut hier = Hierarchy::new(config.mem, CODE_BASE..code_end);
    let tracing = bsched_trace::enabled();
    let mut sites: Vec<SiteStat> = if tracing {
        vec![SiteStat::default(); ((code_end - CODE_BASE) / 4) as usize]
    } else {
        Vec::new()
    };
    let mut run_span = Some(
        bsched_trace::span(bsched_trace::points::SIM_RUN)
            .label_with(|| program.name().to_string()),
    );

    let mut block_cache = BlockCache::new(func.blocks().len());

    let mut now: u64 = 0;
    let mut executed: u64 = 0;
    let mut cur = func.entry();
    let width = config.issue_width.max(1);
    let ports = config.mem_ports.max(1);
    let mut slot: u32 = 0;
    let mut mem_slot: u32 = 0;
    // Single-issue fast path: the pending group increment (0 exactly
    // when the current instruction starts a fresh group).
    let mut inc: u64 = 0;

    loop {
        let index = cur.index();
        let sk = block_cache.get_or_build(index, || {
            skeleton::build(
                func.block(cur),
                block_addr[index],
                &config,
                &bases,
                ni as u32,
                sentinel,
            )
        });
        debug_assert_eq!(
            sk.n_insts,
            func.block(cur).insts.len() as u64,
            "block {index} changed size under a cached skeleton — \
             the IR must not be mutated during a run"
        );

        // Fuel is charged per instruction, but the check only needs per
        // instruction precision when this block could actually trip it:
        // the per-inst check fires at the smallest k with
        // `executed + k > fuel`, which exists within the block iff
        // `executed + n_insts > fuel`. Otherwise the whole block is
        // charged at once. Precise mode still walks instruction by
        // instruction so an earlier in-block error (e.g. a wild store)
        // wins over fuel exhaustion in exactly the interpreter's order.
        let precise_fuel = executed + sk.n_insts > config.fuel;
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
            // 1. Fetch — only at icache-line boundaries. Every skipped
            // fetch is a guaranteed icache+ITB hit whose access returns
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
            // 2. Structural issue limits (single-issue: every
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
            // 2b. Operand interlock (order-sensitive blame rule,
            // identical to the interpreter's). The scan is fixed-width:
            // missing operands are the sentinel slot, which is always
            // ready at 0 with no site and so can never win. On
            // single-issue machines the skeleton statically elides the
            // scan where no source can possibly stall (`MicroOp::chk`);
            // the proof does not hold for wide issue, so `WIDE` always
            // scans. The stall bookkeeping is branchless: a zero stall
            // adds zero to whichever counter is selected.
            let s0 = rf[mo.srcs[0] as usize & mask];
            let s1 = rf[mo.srcs[1] as usize & mask];
            let s2 = rf[mo.srcs[2] as usize & mask];
            if WIDE || mo.chk {
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

        // Terminator: fetch (batched into the block's line runs), then
        // the whole-block instruction-count delta, then control flow.
        if sk.term_fetch {
            let f = hier.inst_fetch(sk.term_pc, now);
            if f.ready_at > now {
                m.fetch_stall += f.ready_at - now;
                now = f.ready_at;
            }
        }
        let next = match sk.term {
            TermKind::Jmp { target } => {
                // A control transfer ends the issue group.
                now += 1;
                if WIDE {
                    slot = 0;
                    mem_slot = 0;
                } else {
                    inc = 0;
                }
                target
            }
            TermKind::Br {
                cond,
                when,
                taken,
                fall,
            } => {
                let c = rf[cond as usize & mask];
                if (WIDE || sk.br_chk) && c.ready > now {
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
                // A control transfer ends the issue group.
                now += 1;
                if WIDE {
                    slot = 0;
                    mem_slot = 0;
                } else {
                    inc = 0;
                }
                if is_taken {
                    taken
                } else {
                    fall
                }
            }
            TermKind::Ret => {
                m.cycles = now;
                m.mem = *hier.stats();
                // Fold the per-block instruction counts once: Σ over
                // blocks of (visits × static counts) equals the
                // per-visit accumulation exactly.
                for (sk, n) in block_cache.entries() {
                    m.insts.scaled_add(&sk.counts, n);
                }
                if tracing {
                    flush_site_events(program.name(), &sites, &block_addr);
                    if let Some(span) = run_span.take() {
                        span.finish(&[("cycles", m.cycles), ("load_interlock", m.load_interlock)]);
                    }
                }
                let result = SimResult {
                    metrics: m,
                    checksum: mem.checksum(),
                    sample: None,
                };
                return Ok((result, block_cache.stats()));
            }
        };
        cur = next;
    }
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
        use crate::block::run_with_stats;
        use crate::SimConfig;
        use bsched_ir::{BrCond, FuncBuilder, Op, Program};

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
            let (_, stats) = run_with_stats(&p, SimConfig::default()).unwrap();
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
            let (a, sa) = run_with_stats(&p, SimConfig::default()).unwrap();
            let (b, sb) = run_with_stats(&p, SimConfig::default()).unwrap();
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

            let (_, stats) = run_with_stats(&p, SimConfig::default()).unwrap();
            assert_eq!(stats.builds, 3, "identical blocks must not share skeletons");
        }
    }

    /// The block engine's deterministic performance gate: its work
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
            let (_, got) = run_with_stats(&k.program(), SimConfig::default()).unwrap();
            let want = CacheStats {
                builds,
                visits,
                fetches,
                scans,
            };
            assert_eq!(got, want, "{name}: block-engine work counts moved");
        }
    }
}
