//! Simulation metrics — the quantities the paper's tables report.

use bsched_ir::{Inst, OpClass};
use bsched_mem::MemStats;

/// Dynamic instruction counts by class (paper §4.3: "long and short
/// integers, long and short floating point operations, loads, stores,
/// branches, and spill and restore instructions").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstCounts {
    /// Single-cycle integer operations.
    pub short_int: u64,
    /// Integer multiplies.
    pub long_int: u64,
    /// Loads (excluding spills' restores).
    pub loads: u64,
    /// Stores (excluding spill stores).
    pub stores: u64,
    /// Pipelined floating-point operations.
    pub short_fp: u64,
    /// Floating-point divides.
    pub long_fp: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Unconditional jumps.
    pub jumps: u64,
    /// Allocator-inserted spill stores and restore loads.
    pub spills: u64,
}

impl InstCounts {
    /// Records one executed instruction.
    pub fn record(&mut self, inst: &Inst) {
        if inst.spill {
            self.spills += 1;
            return;
        }
        match inst.op.class() {
            OpClass::IntAlu => self.short_int += 1,
            OpClass::IntMul => self.long_int += 1,
            OpClass::Load => self.loads += 1,
            OpClass::Store => self.stores += 1,
            OpClass::FpOp => self.short_fp += 1,
            OpClass::FpDiv => self.long_fp += 1,
        }
    }

    /// Accumulates another count set. The block-compiled engine adds a
    /// whole-block delta per visit instead of recording instructions one
    /// at a time.
    pub fn add(&mut self, other: &InstCounts) {
        self.scaled_add(other, 1);
    }

    /// Accumulates `k` copies of another count set: the block-compiled
    /// engine folds each block's static counts times its visit count
    /// once at run exit, which is exactly the per-visit sum (integer
    /// addition is associative and commutative).
    pub fn scaled_add(&mut self, other: &InstCounts, k: u64) {
        self.short_int += k * other.short_int;
        self.long_int += k * other.long_int;
        self.loads += k * other.loads;
        self.stores += k * other.stores;
        self.short_fp += k * other.short_fp;
        self.long_fp += k * other.long_fp;
        self.branches += k * other.branches;
        self.jumps += k * other.jumps;
        self.spills += k * other.spills;
    }

    /// Total dynamic instructions, control transfers included.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.short_int
            + self.long_int
            + self.loads
            + self.stores
            + self.short_fp
            + self.long_fp
            + self.branches
            + self.jumps
            + self.spills
    }
}

/// The full metric set of one simulated run.
///
/// `PartialEq`/`Eq` compare every field bit for bit — the conformance
/// suite uses this to prove the block-compiled engine reproduces the
/// proof-free reference decode ([`crate::SimEngine::Interpret`])
/// exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimMetrics {
    /// Total execution cycles.
    pub cycles: u64,
    /// Dynamic instruction counts.
    pub insts: InstCounts,
    /// Cycles stalled waiting for load results, including structural
    /// stalls for a free MSHR — the paper's *load interlock cycles*.
    pub load_interlock: u64,
    /// Cycles stalled waiting for fixed-latency (non-load) results —
    /// multiplies, FP operations, divides.
    pub fixed_interlock: u64,
    /// Branch misprediction penalty cycles.
    pub branch_penalty: u64,
    /// Cycles stalled for a free write-buffer entry (zero with the
    /// default infinite buffer).
    pub store_stall: u64,
    /// I-cache / ITB fetch stall cycles.
    pub fetch_stall: u64,
    /// Data-TLB refill cycles.
    pub tlb_stall: u64,
    /// Memory-hierarchy statistics.
    pub mem: MemStats,
}

impl SimMetrics {
    /// Load interlock cycles as a fraction of total cycles (the paper's
    /// Table 5 right-hand columns).
    #[must_use]
    pub fn load_interlock_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.load_interlock as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        let n = self.insts.total();
        if n == 0 {
            0.0
        } else {
            self.cycles as f64 / n as f64
        }
    }

    /// Speedup of this run relative to `other` (in total cycles):
    /// `other.cycles / self.cycles`.
    #[must_use]
    pub fn speedup_over(&self, other: &SimMetrics) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            other.cycles as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::{Op, Reg, RegClass};

    #[test]
    fn counts_by_class() {
        let r0 = Reg::virt(RegClass::Int, 0);
        let f0 = Reg::virt(RegClass::Float, 0);
        let mut c = InstCounts::default();
        c.record(&Inst::li(r0, 1));
        c.record(&Inst::op_imm(Op::Mul, r0, r0, 3));
        c.record(&Inst::load(f0, r0, 0));
        c.record(&Inst::store(f0, r0, 0));
        c.record(&Inst::op(Op::FAdd, f0, &[f0, f0]));
        c.record(&Inst::op(Op::FDivD, f0, &[f0, f0]));
        c.record(&Inst::load(f0, r0, 0).as_spill());
        assert_eq!(c.short_int, 1);
        assert_eq!(c.long_int, 1);
        assert_eq!(c.loads, 1);
        assert_eq!(c.stores, 1);
        assert_eq!(c.short_fp, 1);
        assert_eq!(c.long_fp, 1);
        assert_eq!(c.spills, 1);
        assert_eq!(c.total(), 7);
    }

    #[test]
    fn derived_ratios() {
        let mut m = SimMetrics {
            cycles: 200,
            load_interlock: 30,
            ..Default::default()
        };
        m.insts.short_int = 100;
        assert!((m.load_interlock_fraction() - 0.15).abs() < 1e-12);
        assert!((m.cpi() - 2.0).abs() < 1e-12);
        let faster = SimMetrics {
            cycles: 100,
            ..Default::default()
        };
        assert!((faster.speedup_over(&m) - 2.0).abs() < 1e-12);
    }
}
