//! Static per-block cost skeletons.
//!
//! A [`Skeleton`] captures everything about a block that is a pure
//! function of its code, the code layout, and the simulator
//! configuration, so the timing loop never re-decodes an instruction:
//!
//! * operand and destination register **slots**, resolved into one
//!   unified index space (integer registers first, then floats), so the
//!   replay loop reads flat arrays instead of matching on register
//!   class;
//! * fixed **latencies**, with `uniform_fixed_latency` already folded
//!   in;
//! * static **load sites** (`(pc - CODE_BASE) / 4`) for interlock
//!   attribution;
//! * **fetch points** — under the proven decode, the instruction slots
//!   that start a new icache line, so each visit issues one `inst_fetch`
//!   per line run instead of one per instruction (every skipped fetch is
//!   a guaranteed icache+ITB hit with `ready_at == issue_at`, so metrics
//!   are unchanged — see DESIGN.md §12);
//! * **interlock proofs** — under the proven decode on a single-issue
//!   machine, the operand scans that can never find a stall
//!   ([`MicroOp::chk`]);
//! * the whole-block dynamic **instruction-count delta**, terminator
//!   included;
//! * region base addresses for `LdAddr`, resolved to constants.

use super::CODE_BASE;
use crate::config::SimConfig;
use crate::metrics::InstCounts;
use bsched_ir::{Block, BlockId, BrCond, Op, Reg, RegClass, Terminator};

/// A register slot in the unified register/scoreboard arrays: integer
/// slots occupy `[0, ni)`, float slots `[ni, ni + nf)`.
pub(crate) type Slot = u32;

/// Resolves a register into its unified slot.
fn slot_of(r: Reg, ni: u32) -> Slot {
    let s = r.slot();
    match r.class() {
        RegClass::Int => s,
        RegClass::Float => ni + s,
    }
}

/// Slot index of the always-ready **sentinel register**: one extra
/// slot past the real registers, permanently `ready_at == 0`, value 0,
/// and never blamed. Padding every `srcs` array to exactly three slots
/// with the sentinel lets the replay loop scan a fixed-width array
/// instead of a variable-length slice — the sentinel can never win the
/// order-sensitive blame rule (`0 > op_ready` is false, and its site is
/// `NO_SITE`).
pub(crate) fn sentinel_slot(ni: u32, nf: u32) -> Slot {
    ni + nf
}

/// One pre-decoded instruction, flattened so the replay loop does a
/// single dispatch on [`MicroOp::code`] and reads fixed-offset fields.
/// The multi-purpose fields keep the struct at 40 bytes:
///
/// * `imm` — for pure ops, the immediate operand **OR-folded** against
///   the second source: immediate-carrying ops leave `srcs[1]` at the
///   sentinel slot (whose value is permanently 0), so
///   `b = srcs[1].val | imm` selects the immediate branchlessly and the
///   plain-register case reads `imm == 0`. For `Ld`/`St` it is the
///   displacement; for `Li`/`FLi`/`LdAddr` the pre-resolved constant
///   bits (float immediates and region bases fold at decode time).
/// * `aux` — the fixed latency for pure ops and constants, the static
///   load site for `Ld`, unused for `St`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MicroOp {
    /// Unified slots of the source operands, in operand order (the
    /// interlock blame rule is order-sensitive), padded to three with
    /// the [`sentinel_slot`]. `Ld` reads its base from `srcs[0]`, `St`
    /// its value from `srcs[0]` and base from `srcs[1]` (the IR operand
    /// order).
    pub srcs: [Slot; 3],
    /// Destination slot (the sentinel for `St`, which has none).
    pub dst: Slot,
    /// OR-folded immediate / displacement / resolved constant bits.
    pub imm: u64,
    /// Code address of this instruction slot.
    pub pc: u64,
    /// Latency (pure/constant) or load site (`Ld`).
    pub aux: u32,
    /// Dispatch code: the IR opcode, with `LdAddr` repurposed as
    /// "write constant `imm`" (the region base resolves at decode).
    pub code: Op,
    /// Occupies a memory port in its issue group.
    pub is_memory: bool,
    /// Issue an `inst_fetch` at `pc` before this op: on every slot
    /// without proofs, only where a new icache line starts with them.
    /// Always false when `model_ifetch` is off.
    pub fetch: bool,
    /// Operand interlock **must be checked**. Always true without
    /// proofs; with them, false only when every source is statically
    /// proven ready on a single-issue machine:
    /// each is the sentinel or was defined *earlier in this block* by a
    /// pure op of latency ≤ 1. Single-issue replay issues every
    /// instruction at least one cycle after its predecessor (fetch
    /// stalls and interlocks only push `now` further forward), so such
    /// a source's `ready = def_now + 1 ≤ use_now` — the scan can never
    /// find a stall and is skipped. Wide machines issue several
    /// instructions in one cycle, breaking the `+1` argument, so the
    /// replay loop honours this flag **only** at `issue_width == 1`.
    pub chk: bool,
}

/// A decoded terminator.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TermKind {
    Jmp {
        target: BlockId,
    },
    Br {
        cond: Slot,
        when: BrCond,
        taken: BlockId,
        fall: BlockId,
    },
    Ret,
}

/// The static cost skeleton of one basic block.
#[derive(Debug, Clone)]
pub(crate) struct Skeleton {
    pub micros: Vec<MicroOp>,
    /// Instruction count of the block body (fuel units; terminator
    /// excluded, matching the interpreter).
    pub n_insts: u64,
    /// Whole-block dynamic instruction-count delta, terminator included.
    pub counts: InstCounts,
    pub term: TermKind,
    /// Code address of the terminator slot.
    pub term_pc: u64,
    /// Fetch the terminator slot: always without proofs, with them only
    /// when it starts a new icache line relative to the last
    /// instruction of the block (or the block is empty). Always false
    /// when `model_ifetch` is off.
    pub term_fetch: bool,
    /// The branch condition's interlock must be checked (see
    /// [`MicroOp::chk`]). The branch reads its condition at the *last
    /// instruction's* issue cycle — before the group-ending `+1` — so
    /// the proof additionally requires the condition **not** to be
    /// defined by the last instruction of the block (whose result is
    /// ready one cycle later). Meaningless for `Jmp`/`Ret`.
    pub br_chk: bool,
}

/// Decodes `block` (based at `base_pc`) into its skeleton, with the
/// block engine's fetch and interlock proofs when `proofs` is set and
/// none otherwise.
///
/// `region_bases` are the run's resolved region base addresses (fixed
/// for the lifetime of the run, so `LdAddr` folds to a constant); `ni`
/// is the number of integer register slots (the float-slot offset).
pub(crate) fn build(
    block: &Block,
    base_pc: u64,
    config: &SimConfig,
    proofs: bool,
    region_bases: &[u64],
    ni: u32,
    sentinel: Slot,
) -> Skeleton {
    let line = config.mem.icache.line.max(1);
    let elide = proofs && config.issue_width.max(1) == 1;
    let fixed_latency = |op: Op| -> u32 {
        if config.uniform_fixed_latency {
            1
        } else {
            op.latency()
        }
    };

    let mut counts = InstCounts::default();
    let mut micros = Vec::with_capacity(block.insts.len());
    let mut prev_line = u64::MAX; // sentinel: the first slot always fetches
                                  // Per-slot "proven ready" state for the interlock-elision proof
                                  // (`MicroOp::chk`): a slot is fast once this block redefines it with
                                  // a pure op of latency ≤ 1. Live-ins are conservatively slow (their
                                  // ready time is unknown at decode); the sentinel is permanently
                                  // ready.
    let mut fast = vec![false; sentinel as usize + 1];
    fast[sentinel as usize] = true;
    for (k, inst) in block.insts.iter().enumerate() {
        counts.record(inst);
        let pc = base_pc + 4 * k as u64;
        let fetch = config.model_ifetch && (!proofs || pc / line != prev_line);
        if fetch {
            prev_line = pc / line;
        }
        let mut srcs = [sentinel; 3];
        for (s, &r) in srcs.iter_mut().zip(inst.srcs()) {
            *s = slot_of(r, ni);
        }
        let (dst, imm, aux) = match inst.op {
            Op::Ld => (
                slot_of(inst.dst.expect("load has a destination"), ni),
                inst.mem_disp() as u64,
                ((pc - CODE_BASE) / 4) as u32,
            ),
            Op::St => (sentinel, inst.mem_disp() as u64, 0),
            Op::LdAddr => {
                let region = inst
                    .mem
                    .and_then(|mm| mm.region)
                    .expect("ldaddr has a region");
                (
                    slot_of(inst.dst.expect("ldaddr has a destination"), ni),
                    region_bases[region.index() as usize],
                    fixed_latency(inst.op),
                )
            }
            Op::FLi => (
                slot_of(inst.dst.expect("fli has a destination"), ni),
                inst.fimm.to_bits(),
                fixed_latency(inst.op),
            ),
            op => {
                // The OR-fold below requires the immediate's slot to be
                // the always-zero sentinel.
                debug_assert!(
                    inst.imm.is_none() || inst.srcs().len() <= 1,
                    "immediate with a second register operand: {inst}"
                );
                (
                    slot_of(inst.dst.expect("pure op has a destination"), ni),
                    inst.imm.unwrap_or(0) as u64,
                    fixed_latency(op),
                )
            }
        };
        let chk = !elide || srcs.iter().any(|&s| !fast[s as usize]);
        match inst.op {
            Op::St => {} // no destination (dst is the sentinel slot)
            Op::Ld => fast[dst as usize] = false,
            _ => fast[dst as usize] = aux <= 1,
        }
        micros.push(MicroOp {
            srcs,
            dst,
            imm,
            pc,
            aux,
            code: inst.op,
            is_memory: inst.op.is_memory(),
            fetch,
            chk,
        });
    }

    let term_pc = base_pc + 4 * block.len() as u64;
    let mut br_chk = false;
    let term = match &block.term {
        Terminator::Jmp(t) => {
            counts.jumps += 1;
            TermKind::Jmp { target: *t }
        }
        Terminator::Br {
            cond,
            when,
            taken,
            fall,
        } => {
            counts.branches += 1;
            let cond = slot_of(*cond, ni);
            // The branch reads `cond` at the last instruction's issue
            // cycle, so a definition *by the last instruction* is ready
            // one cycle too late even at latency 1 — the elision proof
            // needs the definition at distance ≥ 1.
            br_chk =
                !elide || !fast[cond as usize] || micros.last().is_some_and(|mo| mo.dst == cond);
            TermKind::Br {
                cond,
                when: *when,
                taken: *taken,
                fall: *fall,
            }
        }
        Terminator::Ret => TermKind::Ret,
    };

    Skeleton {
        n_insts: block.insts.len() as u64,
        counts,
        micros,
        term,
        term_pc,
        term_fetch: config.model_ifetch && (!proofs || term_pc / line != prev_line),
        br_chk,
    }
}
