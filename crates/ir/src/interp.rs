//! Functional (untimed) reference interpreter.
//!
//! Two roles in the reproduction:
//!
//! * **Correctness oracle**: every optimization and scheduling pass must
//!   leave the program's observable behaviour — the final memory image —
//!   unchanged. The pipeline runs each configuration through this
//!   interpreter and compares [`Outcome::checksum`] with the baseline.
//! * **Profiler**: basic-block and edge execution counts feed trace
//!   selection, mirroring the paper's use of profiling to guide the
//!   Multiflow trace picker (§4.2).
//!
//! Each [`Interp::run`] first decodes `main` into a private flat array
//! of compact instructions, then executes that array (translate once,
//! run the translated form):
//!
//! * registers become dense slots in one `u64` bit file, integer slots
//!   first, then float slots; integers are stored as their two's
//!   complement bits and floats as their IEEE bits, so loads and stores
//!   move bits without looking at the class;
//! * immediates and load/store displacements are folded into the
//!   instruction, `LdAddr` becomes its region's base address and `FLi`
//!   its bits;
//! * each block becomes a `[start, end)` range of the array plus a
//!   decoded terminator.
//!
//! A register-class mismatch (an integer operand where a float is
//! required, or the reverse) panics at decode, whether or not the
//! instruction would execute; verified programs have none.
//!
//! The budget is charged per block: a block that fits in what is left
//! is executed with one count. For the block that would exhaust it,
//! only the instructions that fit execute before [`ExecError::OutOfFuel`]
//! is returned, so a wild store among them is still reported first —
//! the same errors, in the same order, as counting every instruction.
//!
//! The interpreter shares no code with the timing simulator: it is the
//! independent reference that the simulator's memory is checked against.

use crate::block::{BlockId, BrCond, Terminator};
use crate::func::Function;
use crate::inst::Inst;
use crate::opcode::Op;
use crate::program::Program;
use crate::reg::{Reg, RegClass};
use std::fmt;

/// Execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The instruction budget was exhausted (runaway loop or miscompile).
    OutOfFuel {
        /// The budget that was exceeded.
        fuel: u64,
    },
    /// A store targeted an address outside the program's memory image.
    WildStore {
        /// The faulting address.
        addr: u64,
    },
    /// A sampled-simulation estimator produced a non-finite value for a
    /// metric. Surfaced as an error (rather than silently rounded) so
    /// the fuzzer can report estimator bugs.
    NonFiniteEstimate {
        /// Which metric went non-finite.
        metric: &'static str,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfFuel { fuel } => write!(f, "instruction budget of {fuel} exhausted"),
            ExecError::WildStore { addr } => write!(f, "store outside memory image at {addr:#x}"),
            ExecError::NonFiniteEstimate { metric } => {
                write!(f, "sampled estimator produced a non-finite {metric}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Block and edge execution counts gathered during a run, as dense
/// per-block counters.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Executions of each block, by block index.
    block_counts: Vec<u64>,
    /// Per block, its terminator's `[taken, fall-through]` targets (a
    /// jump's target is its taken target; `None` where there is none).
    targets: Vec<[Option<BlockId>; 2]>,
    /// Per block, how often control left it for each of `targets`.
    edge_counts: Vec<[u64; 2]>,
}

impl Profile {
    /// Execution count of `b` (0 if never reached).
    #[must_use]
    pub fn block(&self, b: BlockId) -> u64 {
        self.block_counts.get(b.index()).copied().unwrap_or(0)
    }

    /// Execution count of the edge `from -> to` (a branch whose two
    /// targets coincide counts both ways).
    #[must_use]
    pub fn edge(&self, from: BlockId, to: BlockId) -> u64 {
        let (Some(targets), Some(counts)) = (
            self.targets.get(from.index()),
            self.edge_counts.get(from.index()),
        ) else {
            return 0;
        };
        targets
            .iter()
            .zip(counts)
            .filter(|(t, _)| **t == Some(to))
            .map(|(_, c)| c)
            .sum()
    }
}

/// The result of a successful run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// FNV-1a hash of the final memory image — the observable behaviour.
    pub checksum: u64,
    /// Number of instructions executed (terminators excluded).
    pub inst_count: u64,
    /// Number of branches executed.
    pub branch_count: u64,
    /// Execution profile.
    pub profile: Profile,
}

/// Linear memory image with the program's regions laid out and
/// initialised. Shared with the timing simulator in `bsched-sim`.
#[derive(Debug, Clone)]
pub struct MemImage {
    /// The raw bytes of the laid-out address space.
    pub bytes: Vec<u8>,
    /// Base address of each region, by region index.
    pub region_bases: Vec<u64>,
    /// `(base, size)` of each *observable* region; only these bytes enter
    /// the checksum (scratch regions like the spill area are excluded).
    observable: Vec<(u64, u64)>,
}

impl MemImage {
    /// Lays out and initialises the program's regions.
    #[must_use]
    pub fn new(program: &Program) -> Self {
        let region_bases = program.region_bases();
        let mut bytes = vec![0u8; program.memory_size() as usize];
        let mut observable = Vec::new();
        for (region, &base) in program.regions().iter().zip(&region_bases) {
            let init = region.init();
            bytes[base as usize..base as usize + init.len()].copy_from_slice(init);
            if region.is_observable() {
                observable.push((base, region.size()));
            }
        }
        MemImage {
            bytes,
            region_bases,
            observable,
        }
    }

    /// Loads 8 bytes; addresses outside the image read as zero (this keeps
    /// speculative loads hoisted above their guards by trace scheduling
    /// well-defined — see DESIGN.md).
    #[must_use]
    pub fn load(&self, addr: u64) -> u64 {
        let a = addr as usize;
        match self.bytes.get(a..a + 8) {
            Some(s) => u64::from_le_bytes(s.try_into().unwrap()),
            None => 0,
        }
    }

    /// Stores 8 bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::WildStore`] outside the image.
    pub fn store(&mut self, addr: u64, bits: u64) -> Result<(), ExecError> {
        let a = addr as usize;
        match self.bytes.get_mut(a..a + 8) {
            Some(s) => {
                s.copy_from_slice(&bits.to_le_bytes());
                Ok(())
            }
            None => Err(ExecError::WildStore { addr }),
        }
    }

    /// FNV-1a hash of the observable regions of the memory image, fed
    /// byte by byte in region order.
    ///
    /// A zero byte only multiplies the state by the FNV prime `P`, so
    /// each all-zero 8-byte word is folded into one multiply by `P⁸`
    /// (mod 2⁶⁴); the value is the byte-serial hash's exactly.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        const PRIME_POW8: u64 = PRIME.wrapping_pow(8);
        fn absorb(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
            h
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &(base, size) in &self.observable {
            let region = &self.bytes[base as usize..(base + size) as usize];
            // Words start at image addresses that are multiples of 8,
            // the width loads and stores use, so a zeroed word folds
            // even in a region whose base is not.
            let head = region.len().min((base as usize).wrapping_neg() % 8);
            h = absorb(h, &region[..head]);
            let mut words = region[head..].chunks_exact(8);
            for word in &mut words {
                h = if word == [0; 8] {
                    h.wrapping_mul(PRIME_POW8)
                } else {
                    absorb(h, word)
                };
            }
            h = absorb(h, words.remainder());
        }
        h
    }
}

/// The interpreter. Construct once per program, then [`Interp::run`].
#[derive(Debug)]
pub struct Interp<'p> {
    program: &'p Program,
    fuel: u64,
}

impl<'p> Interp<'p> {
    /// Default instruction budget (generous for the scaled-down kernels).
    pub const DEFAULT_FUEL: u64 = 500_000_000;

    /// Creates an interpreter for `program` with the default budget.
    #[must_use]
    pub fn new(program: &'p Program) -> Self {
        Interp {
            program,
            fuel: Self::DEFAULT_FUEL,
        }
    }

    /// Overrides the instruction budget.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Runs the program's main function to completion.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::OutOfFuel`] if the budget is exhausted and
    /// [`ExecError::WildStore`] on a store outside the memory image.
    ///
    /// # Panics
    ///
    /// Panics on malformed instructions (run the verifier first).
    pub fn run(&self) -> Result<Outcome, ExecError> {
        let func = self.program.main();
        let mut mem = MemImage::new(self.program);
        let code = Code::decode(func, &mem.region_bases);
        let mut regs = vec![0u64; code.nregs];
        let n = code.blocks.len();
        let mut block_counts = vec![0u64; n];
        let mut edge_counts = vec![[0u64; 2]; n];
        let mut inst_count: u64 = 0;
        let mut branch_count: u64 = 0;
        let mut cur = func.entry().index();

        loop {
            block_counts[cur] += 1;
            let block = &code.blocks[cur];
            let body = &code.insts[block.start as usize..block.end as usize];
            // `inst_count <= fuel` holds on entry to every block.
            let left = self.fuel - inst_count;
            if body.len() as u64 > left {
                execute(&body[..left as usize], &mut regs, &mut mem)?;
                return Err(ExecError::OutOfFuel { fuel: self.fuel });
            }
            execute(body, &mut regs, &mut mem)?;
            inst_count += body.len() as u64;
            let (next, edge) = match block.term {
                Term::Jmp(t) => (t, 0),
                Term::Br {
                    cond,
                    nonzero,
                    taken,
                    fall,
                } => {
                    branch_count += 1;
                    if (regs[cond as usize] != 0) == nonzero {
                        (taken, 0)
                    } else {
                        (fall, 1)
                    }
                }
                Term::Ret => {
                    return Ok(Outcome {
                        checksum: mem.checksum(),
                        inst_count,
                        branch_count,
                        profile: Profile {
                            block_counts,
                            targets: code.targets,
                            edge_counts,
                        },
                    });
                }
            };
            edge_counts[cur][edge] += 1;
            cur = next as usize;
        }
    }
}

/// What a decoded instruction does. Integer ALU operations come in a
/// register form (`b` is a slot) and an immediate form (`imm` is the
/// second operand).
#[derive(Debug, Clone, Copy)]
enum Kind {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    CmpEq,
    CmpLt,
    CmpLe,
    Mul,
    AddI,
    SubI,
    AndI,
    OrI,
    XorI,
    ShlI,
    ShrI,
    CmpEqI,
    CmpLtI,
    CmpLeI,
    MulI,
    /// Copy `a` (either class).
    Mov,
    /// `if a != 0 { b } else { c }` (either class).
    Select,
    /// The constant bits `imm`: `Li`, `FLi` and `LdAddr`.
    Const,
    /// `d = mem[a + imm]`.
    Ld,
    /// `mem[b + imm] = a`.
    St,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FCmpEq,
    FCmpLt,
    FCmpLe,
    CvtIF,
    CvtFI,
    FNeg,
    FSqrt,
}

/// A decoded instruction: slots into the bit file plus the folded
/// immediate, displacement or constant bits.
#[derive(Debug, Clone, Copy)]
struct DInst {
    kind: Kind,
    d: u32,
    a: u32,
    b: u32,
    c: u32,
    imm: u64,
}

/// A decoded terminator; block targets are block indices.
#[derive(Debug, Clone, Copy)]
enum Term {
    Jmp(u32),
    Br {
        cond: u32,
        nonzero: bool,
        taken: u32,
        fall: u32,
    },
    Ret,
}

/// A decoded block: its instructions are `insts[start..end]`.
#[derive(Debug)]
struct DBlock {
    start: u32,
    end: u32,
    term: Term,
}

/// `main`, decoded for one run.
#[derive(Debug)]
struct Code {
    insts: Vec<DInst>,
    blocks: Vec<DBlock>,
    /// Per block, the profile's `[taken, fall-through]` targets.
    targets: Vec<[Option<BlockId>; 2]>,
    /// Size of the bit file: integer slots, then float slots.
    nregs: usize,
}

impl Code {
    fn decode(func: &Function, region_bases: &[u64]) -> Self {
        let nint = Reg::NUM_PHYS + func.vreg_count(RegClass::Int);
        let nfloat = Reg::NUM_PHYS + func.vreg_count(RegClass::Float);
        let slots = Slots { nint };
        let mut insts = Vec::with_capacity(func.inst_count());
        let mut blocks = Vec::with_capacity(func.blocks().len());
        let mut targets = Vec::with_capacity(func.blocks().len());
        for block in func.blocks() {
            let start = insts.len() as u32;
            insts.extend(block.insts.iter().map(|i| slots.inst(i, region_bases)));
            let (term, succs) = match block.term {
                Terminator::Jmp(t) => (Term::Jmp(t.index() as u32), [Some(t), None]),
                Terminator::Br {
                    cond,
                    when,
                    taken,
                    fall,
                } => (
                    Term::Br {
                        cond: slots.of(cond, RegClass::Int),
                        nonzero: when == BrCond::NonZero,
                        taken: taken.index() as u32,
                        fall: fall.index() as u32,
                    },
                    [Some(taken), Some(fall)],
                ),
                Terminator::Ret => (Term::Ret, [None, None]),
            };
            blocks.push(DBlock {
                start,
                end: insts.len() as u32,
                term,
            });
            targets.push(succs);
        }
        Code {
            insts,
            blocks,
            targets,
            nregs: (nint + nfloat) as usize,
        }
    }
}

/// The bit-file layout of one function.
struct Slots {
    nint: u32,
}

impl Slots {
    /// The slot of `r`, which must be of class `class`.
    fn of(&self, r: Reg, class: RegClass) -> u32 {
        assert_eq!(r.class(), class, "operand {r} is not {class}");
        match class {
            RegClass::Int => r.slot(),
            RegClass::Float => self.nint + r.slot(),
        }
    }

    /// Decodes one instruction.
    fn inst(&self, inst: &Inst, region_bases: &[u64]) -> DInst {
        use RegClass::{Float, Int};
        // The class that copies, selects and loads move: their
        // destination's.
        let v = inst.dst.map_or(Int, Reg::class);
        let int2 = |rr, ri| match inst.imm {
            Some(_) => (ri, Some(Int), 1, [Int; 3]),
            None => (rr, Some(Int), 2, [Int; 3]),
        };
        let fp = |kind, dst, n| (kind, Some(dst), n, [Float; 3]);
        let (kind, dst, n, classes) = match inst.op {
            Op::Add => int2(Kind::Add, Kind::AddI),
            Op::Sub => int2(Kind::Sub, Kind::SubI),
            Op::And => int2(Kind::And, Kind::AndI),
            Op::Or => int2(Kind::Or, Kind::OrI),
            Op::Xor => int2(Kind::Xor, Kind::XorI),
            Op::Shl => int2(Kind::Shl, Kind::ShlI),
            Op::Shr => int2(Kind::Shr, Kind::ShrI),
            Op::CmpEq => int2(Kind::CmpEq, Kind::CmpEqI),
            Op::CmpLt => int2(Kind::CmpLt, Kind::CmpLtI),
            Op::CmpLe => int2(Kind::CmpLe, Kind::CmpLeI),
            Op::Mul => int2(Kind::Mul, Kind::MulI),
            Op::Mov | Op::FMov => (Kind::Mov, Some(v), 1, [v; 3]),
            Op::Cmov | Op::FCmov => (Kind::Select, Some(v), 3, [Int, v, v]),
            Op::Li | Op::LdAddr => (Kind::Const, Some(Int), 0, [Int; 3]),
            Op::FLi => (Kind::Const, Some(Float), 0, [Int; 3]),
            Op::Ld => (Kind::Ld, Some(v), 1, [Int; 3]),
            Op::St => (Kind::St, None, 2, [inst.srcs()[0].class(), Int, Int]),
            Op::FAdd => fp(Kind::FAdd, Float, 2),
            Op::FSub => fp(Kind::FSub, Float, 2),
            Op::FMul => fp(Kind::FMul, Float, 2),
            Op::FDivS | Op::FDivD => fp(Kind::FDiv, Float, 2),
            Op::FCmpEq => fp(Kind::FCmpEq, Int, 2),
            Op::FCmpLt => fp(Kind::FCmpLt, Int, 2),
            Op::FCmpLe => fp(Kind::FCmpLe, Int, 2),
            Op::CvtIF => (Kind::CvtIF, Some(Float), 1, [Int; 3]),
            Op::CvtFI => fp(Kind::CvtFI, Int, 1),
            Op::FNeg => fp(Kind::FNeg, Float, 1),
            Op::FSqrt => fp(Kind::FSqrt, Float, 1),
        };
        let imm = match inst.op {
            Op::Li => inst.imm.expect("li without immediate") as u64,
            Op::FLi => inst.fimm.to_bits(),
            Op::LdAddr => {
                let region = inst
                    .mem
                    .and_then(|m| m.region)
                    .expect("ldaddr without region");
                region_bases[region.index() as usize]
            }
            _ => inst.imm.unwrap_or(0) as u64,
        };
        let mut s = [0; 3];
        for (k, slot) in s.iter_mut().enumerate().take(n) {
            *slot = self.of(inst.srcs()[k], classes[k]);
        }
        let d = dst.map_or(0, |c| {
            self.of(inst.dst.expect("instruction without destination"), c)
        });
        DInst {
            kind,
            d,
            a: s[0],
            b: s[1],
            c: s[2],
            imm,
        }
    }
}

/// The float whose IEEE bits a slot holds.
fn f(bits: u64) -> f64 {
    f64::from_bits(bits)
}

/// Executes a run of decoded instructions against the bit file and
/// memory.
fn execute(code: &[DInst], r: &mut [u64], mem: &mut MemImage) -> Result<(), ExecError> {
    for i in code {
        let (a, b) = (r[i.a as usize], r[i.b as usize]);
        let (x, y) = (a as i64, i.imm as i64);
        let v = match i.kind {
            Kind::Add => x.wrapping_add(b as i64) as u64,
            Kind::Sub => x.wrapping_sub(b as i64) as u64,
            Kind::And => a & b,
            Kind::Or => a | b,
            Kind::Xor => a ^ b,
            Kind::Shl => x.wrapping_shl(b as u32 & 63) as u64,
            Kind::Shr => x.wrapping_shr(b as u32 & 63) as u64,
            Kind::CmpEq => u64::from(a == b),
            Kind::CmpLt => u64::from(x < b as i64),
            Kind::CmpLe => u64::from(x <= b as i64),
            Kind::Mul => x.wrapping_mul(b as i64) as u64,
            Kind::AddI => x.wrapping_add(y) as u64,
            Kind::SubI => x.wrapping_sub(y) as u64,
            Kind::AndI => a & i.imm,
            Kind::OrI => a | i.imm,
            Kind::XorI => a ^ i.imm,
            Kind::ShlI => x.wrapping_shl(y as u32 & 63) as u64,
            Kind::ShrI => x.wrapping_shr(y as u32 & 63) as u64,
            Kind::CmpEqI => u64::from(x == y),
            Kind::CmpLtI => u64::from(x < y),
            Kind::CmpLeI => u64::from(x <= y),
            Kind::MulI => x.wrapping_mul(y) as u64,
            Kind::Mov => a,
            Kind::Select => {
                if a != 0 {
                    b
                } else {
                    r[i.c as usize]
                }
            }
            Kind::Const => i.imm,
            Kind::Ld => mem.load(a.wrapping_add(i.imm)),
            Kind::St => {
                mem.store(b.wrapping_add(i.imm), a)?;
                continue;
            }
            Kind::FAdd => (f(a) + f(b)).to_bits(),
            Kind::FSub => (f(a) - f(b)).to_bits(),
            Kind::FMul => (f(a) * f(b)).to_bits(),
            Kind::FDiv => (f(a) / f(b)).to_bits(),
            Kind::FCmpEq => u64::from(f(a) == f(b)),
            Kind::FCmpLt => u64::from(f(a) < f(b)),
            Kind::FCmpLe => u64::from(f(a) <= f(b)),
            Kind::CvtIF => (x as f64).to_bits(),
            Kind::CvtFI => f(a) as i64 as u64,
            Kind::FNeg => (-f(a)).to_bits(),
            Kind::FSqrt => f(a).abs().sqrt().to_bits(),
        };
        r[i.d as usize] = v;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::value::{self, Value};

    /// The checksum's zero-word folding equals the byte-serial FNV-1a
    /// definition on zero runs, non-zero words, and regions whose base
    /// or size is not a multiple of 8.
    #[test]
    fn checksum_matches_the_byte_serial_fnv() {
        // Zero runs of every length up to 16 between non-zero bytes, then
        // 64 zero bytes.
        let mut bytes = vec![0u8; 224];
        for (i, b) in bytes.iter_mut().enumerate().take(160) {
            if i % 17 == 0 || i % 23 == 5 || (96..104).contains(&i) {
                *b = i as u8 | 1;
            }
        }
        let layouts: &[&[(u64, u64)]] = &[
            &[],
            &[(0, 160)],
            &[(0, 0)],
            &[(3, 5)],
            &[(5, 3), (8, 8)],
            &[(1, 63), (64, 32), (104, 56)],
            &[(7, 90), (97, 13), (150, 10)],
            &[(40, 24), (16, 8)],
            &[(160, 64), (161, 62), (0, 224)],
        ];
        for &observable in layouts {
            let image = MemImage {
                bytes: bytes.clone(),
                region_bases: Vec::new(),
                observable: observable.to_vec(),
            };
            let mut serial = bsched_util::Fnv1a::new();
            for &(base, size) in observable {
                serial.write(&bytes[base as usize..(base + size) as usize]);
            }
            assert_eq!(image.checksum(), serial.finish(), "{observable:?}");
        }
    }

    /// sum the integers 0..10 into region "out".
    fn sum_program() -> Program {
        let mut p = Program::new("sum");
        let out = p.add_region("out", 8);
        let mut f = Function::new("main");
        let i = f.new_reg(RegClass::Int);
        let n = f.new_reg(RegClass::Int);
        let s = f.new_reg(RegClass::Int);
        let c = f.new_reg(RegClass::Int);
        let base = f.new_reg(RegClass::Int);

        let header = f.add_block(Block::new(Terminator::Ret));
        let body = f.add_block(Block::new(Terminator::Jmp(header)));
        let exit = f.add_block(Block::new(Terminator::Ret));

        let e = f.entry();
        f.block_mut(e).insts.extend([
            Inst::li(i, 0),
            Inst::li(n, 10),
            Inst::li(s, 0),
            Inst::ldaddr(base, out),
        ]);
        f.block_mut(e).term = Terminator::Jmp(header);
        f.block_mut(header)
            .insts
            .push(Inst::op(Op::CmpLt, c, &[i, n]));
        f.block_mut(header).term = Terminator::Br {
            cond: c,
            when: BrCond::Zero,
            taken: exit,
            fall: body,
        };
        f.block_mut(body).insts.extend([
            Inst::op(Op::Add, s, &[s, i]),
            Inst::op_imm(Op::Add, i, i, 1),
        ]);
        f.block_mut(exit)
            .insts
            .push(Inst::store(s, base, 0).with_region(out));
        p.set_main(f);
        p
    }

    #[test]
    fn sums_correctly_and_profiles() {
        let p = sum_program();
        let out = Interp::new(&p).run().unwrap();
        // 0+1+..+9 = 45; read it back out of a fresh image? Use checksum
        // equality with a hand-built expected image.
        let mut expected = MemImage::new(&p);
        expected.store(p.region_bases()[0], 45).unwrap();
        assert_eq!(out.checksum, expected.checksum());
        // header runs 11 times, body 10.
        assert_eq!(out.profile.block(BlockId::new(1)), 11);
        assert_eq!(out.profile.block(BlockId::new(2)), 10);
        assert_eq!(out.profile.edge(BlockId::new(1), BlockId::new(2)), 10);
        assert_eq!(out.branch_count, 11);
        assert!(out.inst_count > 20);
    }

    #[test]
    fn fuel_limit_detects_runaway() {
        let mut p = Program::new("spin");
        let mut f = Function::new("main");
        let e = f.entry();
        let r0 = f.new_reg(RegClass::Int);
        f.block_mut(e).insts.push(Inst::li(r0, 0));
        f.block_mut(e).term = Terminator::Jmp(e);
        p.set_main(f);
        let err = Interp::new(&p).with_fuel(100).run().unwrap_err();
        assert_eq!(err, ExecError::OutOfFuel { fuel: 100 });
    }

    #[test]
    fn wild_load_reads_zero_wild_store_errors() {
        let mut p = Program::new("wild");
        let out = p.add_region("out", 8);
        let mut f = Function::new("main");
        let a = f.new_reg(RegClass::Int);
        let v = f.new_reg(RegClass::Int);
        let base = f.new_reg(RegClass::Int);
        let e = f.entry();
        f.block_mut(e).insts.extend([
            Inst::li(a, 1 << 40),
            Inst::load(v, a, 0), // wild load: reads 0
            Inst::ldaddr(base, out),
            Inst::store(v, base, 0).with_region(out),
        ]);
        p.set_main(f);
        let outcm = Interp::new(&p).run().unwrap();
        let expected = MemImage::new(&p);
        assert_eq!(outcm.checksum, expected.checksum(), "wild load read zero");

        // Now a wild store.
        let mut p2 = Program::new("wild2");
        let _ = p2.add_region("out", 8);
        let mut f2 = Function::new("main");
        let a2 = f2.new_reg(RegClass::Int);
        let e2 = f2.entry();
        f2.block_mut(e2)
            .insts
            .extend([Inst::li(a2, 1 << 40), Inst::store(a2, a2, 0)]);
        p2.set_main(f2);
        assert!(matches!(
            Interp::new(&p2).run(),
            Err(ExecError::WildStore { .. })
        ));
    }

    #[test]
    fn float_round_trip_through_memory() {
        let mut p = Program::new("f");
        let r = p.push_region(crate::program::Region::from_f64s("a", &[2.5, 4.0]));
        let mut f = Function::new("main");
        let base = f.new_reg(RegClass::Int);
        let x = f.new_reg(RegClass::Float);
        let y = f.new_reg(RegClass::Float);
        let z = f.new_reg(RegClass::Float);
        let e = f.entry();
        f.block_mut(e).insts.extend([
            Inst::ldaddr(base, r),
            Inst::load(x, base, 0).with_region(r),
            Inst::load(y, base, 8).with_region(r),
            Inst::op(Op::FMul, z, &[x, y]),
            Inst::store(z, base, 0).with_region(r),
        ]);
        p.set_main(f);
        let out = Interp::new(&p).run().unwrap();
        let mut expected = MemImage::new(&p);
        expected
            .store(p.region_bases()[0], (10.0f64).to_bits())
            .unwrap();
        assert_eq!(out.checksum, expected.checksum());
    }

    /// Runs `dst = op(srcs, imm)` through the decoded loop, with each
    /// operand materialised by `li`/`fli` and the result stored, and
    /// checks the stored bits against [`value::eval`].
    fn check_op(op: Op, dst_class: RegClass, vals: &[Value], imm: Option<i64>) {
        let mut p = Program::new("op");
        let out = p.add_region("out", 8);
        let mut f = Function::new("main");
        let base = f.new_reg(RegClass::Int);
        let mut insts = vec![Inst::ldaddr(base, out)];
        let mut srcs = Vec::new();
        for v in vals {
            let (r, i) = match *v {
                Value::Int(x) => {
                    let r = f.new_reg(RegClass::Int);
                    (r, Inst::li(r, x))
                }
                Value::Float(x) => {
                    let r = f.new_reg(RegClass::Float);
                    (r, Inst::fli(r, x))
                }
            };
            srcs.push(r);
            insts.push(i);
        }
        let dst = f.new_reg(dst_class);
        insts.push(match (op, imm) {
            (Op::Li, Some(v)) => Inst::li(dst, v),
            (_, Some(v)) => Inst::op_imm(op, dst, srcs[0], v),
            (_, None) => Inst::op(op, dst, &srcs),
        });
        insts.push(Inst::store(dst, base, 0).with_region(out));
        let e = f.entry();
        f.block_mut(e).insts = insts;
        p.set_main(f);
        let got = Interp::new(&p).run().unwrap().checksum;
        let mut want = MemImage::new(&p);
        let bits = value::eval(op, vals, imm, 0.0).to_bits();
        want.store(p.region_bases()[0], bits).unwrap();
        assert_eq!(got, want.checksum(), "{op:?} {vals:?} imm={imm:?}");
    }

    #[test]
    fn decoded_ops_match_value_eval_on_edge_operands() {
        use Op::*;
        let ints = [0, 1, -1, 63, 64, 65, -64, 1 << 40, i64::MIN, i64::MAX];
        let floats = [
            0.0,
            -0.0,
            1.5,
            -2.25,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            1e300,
        ];
        for &a in &ints {
            for &b in &ints {
                for op in [Add, Sub, And, Or, Xor, Shl, Shr, CmpEq, CmpLt, CmpLe, Mul] {
                    check_op(op, RegClass::Int, &[Value::Int(a), Value::Int(b)], None);
                    check_op(op, RegClass::Int, &[Value::Int(a)], Some(b));
                }
                check_op(
                    Cmov,
                    RegClass::Int,
                    &[Value::Int(a), Value::Int(a), Value::Int(b)],
                    None,
                );
            }
            check_op(Mov, RegClass::Int, &[Value::Int(a)], None);
            check_op(Li, RegClass::Int, &[], Some(a));
            check_op(CvtIF, RegClass::Float, &[Value::Int(a)], None);
        }
        for &a in &floats {
            for &b in &floats {
                let ab = [Value::Float(a), Value::Float(b)];
                for op in [FAdd, FSub, FMul, FDivS, FDivD] {
                    check_op(op, RegClass::Float, &ab, None);
                }
                for op in [FCmpEq, FCmpLt, FCmpLe] {
                    check_op(op, RegClass::Int, &ab, None);
                }
                for cond in [0, -7] {
                    let vals = [Value::Int(cond), Value::Float(a), Value::Float(b)];
                    check_op(FCmov, RegClass::Float, &vals, None);
                }
            }
            for op in [FMov, FNeg, FSqrt] {
                check_op(op, RegClass::Float, &[Value::Float(a)], None);
            }
            check_op(CvtFI, RegClass::Int, &[Value::Float(a)], None);
        }
    }

    /// One block: `li a, 1<<40; st a, [a]; li a, 1; li a, 2`: a wild
    /// store as the second of four instructions.
    fn wild_store_second() -> Program {
        let mut p = Program::new("wild");
        let _ = p.add_region("out", 8);
        let mut f = Function::new("main");
        let a = f.new_reg(RegClass::Int);
        let e = f.entry();
        f.block_mut(e).insts.extend([
            Inst::li(a, 1 << 40),
            Inst::store(a, a, 0),
            Inst::li(a, 1),
            Inst::li(a, 2),
        ]);
        p.set_main(f);
        p
    }

    #[test]
    fn fuel_equal_to_the_instruction_count_suffices() {
        let p = sum_program();
        let full = Interp::new(&p).run().unwrap();
        let exact = Interp::new(&p).with_fuel(full.inst_count).run().unwrap();
        assert_eq!(exact.checksum, full.checksum);
        assert_eq!(exact.inst_count, full.inst_count);
        let fuel = full.inst_count - 1;
        let err = Interp::new(&p).with_fuel(fuel).run().unwrap_err();
        assert_eq!(err, ExecError::OutOfFuel { fuel });
    }

    #[test]
    fn wild_store_before_the_fuel_boundary_is_reported() {
        // The budget runs out inside the block, after the store.
        let err = Interp::new(&wild_store_second())
            .with_fuel(3)
            .run()
            .unwrap_err();
        assert_eq!(err, ExecError::WildStore { addr: 1 << 40 });
    }

    #[test]
    fn fuel_boundary_before_a_wild_store_is_reported() {
        let err = Interp::new(&wild_store_second())
            .with_fuel(1)
            .run()
            .unwrap_err();
        assert_eq!(err, ExecError::OutOfFuel { fuel: 1 });
    }

    #[test]
    #[should_panic(expected = "is not float")]
    fn class_mismatch_panics_at_decode_even_when_unreachable() {
        let mut p = Program::new("mismatch");
        let mut f = Function::new("main");
        let a = f.new_reg(RegClass::Int);
        let x = f.new_reg(RegClass::Float);
        let dead = f.add_block(Block::new(Terminator::Ret));
        f.block_mut(dead).insts.push(Inst::op(Op::FAdd, x, &[a, a]));
        p.set_main(f);
        let _ = Interp::new(&p).run();
    }
}
