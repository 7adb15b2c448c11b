//! The 17-kernel workload: one synthetic kernel per benchmark of the
//! paper's Table 1, with the loop/branch/array structure the paper's
//! analysis attributes to each program (see DESIGN.md §2 for the
//! substitution argument and EXPERIMENTS.md for the shape comparison).
//!
//! Problem sizes are scaled so the whole suite simulates in seconds;
//! array footprints are chosen relative to the 8 KB L1 / 96 KB L2 / 2 MB
//! board cache so each kernel reproduces its paper counterpart's memory
//! character (e.g. `ora` lives in registers, `tomcatv` streams far beyond
//! the L2).

mod perfect;
mod spec92;

use crate::lang::ast::{Index, VarId};
use crate::lang::Kernel;
use bsched_ir::Program;

/// Which suite a benchmark came from in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Perfect Club.
    PerfectClub,
    /// SPEC92.
    Spec92,
}

/// A named kernel of the workload.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// Benchmark name as in the paper's Table 1.
    pub name: &'static str,
    /// Source suite.
    pub suite: Suite,
    /// Source language in the paper (`Fortran`/`C`).
    pub lang: &'static str,
    /// The paper's one-line description.
    pub description: &'static str,
    /// The structural property our synthetic kernel reproduces.
    pub shape: &'static str,
    kernel: fn() -> Kernel,
}

impl KernelSpec {
    /// Builds the kernel's un-lowered source (deterministic): what the
    /// pretty-printer writes and the textual round-trip tests reparse.
    #[must_use]
    pub fn source(&self) -> Kernel {
        (self.kernel)()
    }

    /// Builds and lowers the kernel's program (deterministic).
    #[must_use]
    pub fn program(&self) -> Program {
        self.source().lower()
    }
}

/// All 17 kernels, in the paper's Table 1 order.
#[must_use]
pub fn all_kernels() -> Vec<KernelSpec> {
    let mut v = perfect::kernels();
    v.extend(spec92::kernels());
    v
}

/// Looks a kernel up by its paper name.
#[must_use]
pub fn kernel_by_name(name: &str) -> Option<KernelSpec> {
    all_kernels().into_iter().find(|k| k.name == name)
}

/// Row-major 2-D element index `A[i][j]` for an array with `ncols`
/// columns. Keep `ncols` a multiple of 4 so rows stay cache-line aligned
/// (the alignment precondition of locality analysis, §3.3).
#[must_use]
pub(crate) fn idx2(i: VarId, ncols: i64, j: VarId) -> Index {
    Index::two(i, ncols, j, 1, 0)
}

/// `A[i][j + off]`.
#[must_use]
pub(crate) fn idx2_off(i: VarId, ncols: i64, j: VarId, off: i64) -> Index {
    Index::two(i, ncols, j, 1, off)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::Interp;

    #[test]
    fn seventeen_kernels_in_paper_order() {
        let ks = all_kernels();
        assert_eq!(ks.len(), 17);
        let names: Vec<&str> = ks.iter().map(|k| k.name).collect();
        assert_eq!(
            names,
            vec![
                "ARC2D", "BDNA", "DYFESM", "MDG", "QCD2", "TRFD", "alvinn", "dnasa7", "doduc",
                "ear", "hydro2d", "mdljdp2", "ora", "spice2g6", "su2cor", "swm256", "tomcatv"
            ]
        );
        assert!(kernel_by_name("tomcatv").is_some());
        assert!(kernel_by_name("nope").is_none());
    }

    #[test]
    fn every_kernel_lowers_verifies_and_executes() {
        for k in all_kernels() {
            let p = k.program();
            assert!(
                bsched_ir::verify_program(&p).is_ok(),
                "{} fails verification",
                k.name
            );
            let out = Interp::new(&p)
                .with_fuel(50_000_000)
                .run()
                .unwrap_or_else(|e| panic!("{} failed to execute: {e}", k.name));
            assert!(
                (10_000..5_000_000).contains(&out.inst_count),
                "{}: {} dynamic instructions is out of the scaled range",
                k.name,
                out.inst_count
            );
        }
    }

    #[test]
    fn kernels_are_deterministic() {
        for k in all_kernels() {
            let a = Interp::new(&k.program()).run().unwrap().checksum;
            let b = Interp::new(&k.program()).run().unwrap().checksum;
            assert_eq!(a, b, "{} is non-deterministic", k.name);
        }
    }

    #[test]
    fn kernels_do_meaningful_work() {
        // The final observable memory must differ from the initial image
        // (otherwise DCE-style accidents could hollow a kernel out).
        for k in all_kernels() {
            let p = k.program();
            let initial = bsched_ir::MemImage::new(&p).checksum();
            let final_ = Interp::new(&p).run().unwrap().checksum;
            assert_ne!(initial, final_, "{} leaves memory untouched", k.name);
        }
    }
}

#[cfg(test)]
mod shape_tests {
    use super::*;

    /// Memory-footprint guards: each kernel's cache character is part of
    /// its paper shape (DESIGN.md §2) and must not drift.
    #[test]
    fn kernel_footprints_match_their_cache_character() {
        let l1 = 8 * 1024_u64;
        let l2 = 96 * 1024_u64;
        let footprint = |name: &str| -> u64 {
            let p = kernel_by_name(name).expect("kernel exists").program();
            p.regions().iter().map(|r| r.size()).sum()
        };
        // ora: registers + a tiny parameter table; fits the L1 easily.
        assert!(footprint("ora") < l1, "ora must be L1-resident");
        // spice2g6: the chase table alone overflows the L2.
        assert!(footprint("spice2g6") > l2, "spice2g6 must overflow the L2");
        // tomcatv: read-only arrays beyond the L2.
        assert!(footprint("tomcatv") > l2, "tomcatv must stream past the L2");
        // ARC2D: beyond L1, within a few L2s.
        let arc = footprint("ARC2D");
        assert!(arc > l1 && arc < 4 * l2);
    }

    /// doduc, mdljdp2 and DYFESM keep conditionals whose arms store —
    /// the structural property that blocks predication and therefore
    /// unrolling (paper §5.1). Check the actual diamond shape the
    /// predication pass looks for: both arms single-predecessor blocks
    /// jumping to a common join.
    #[test]
    fn multiconditional_kernels_have_storing_arms() {
        use bsched_ir::{Cfg, Terminator};
        for name in ["doduc", "mdljdp2", "DYFESM"] {
            let p = kernel_by_name(name).expect("kernel exists").program();
            let f = p.main();
            let cfg = Cfg::new(f);
            let mut diamonds = 0;
            for (_, b) in f.iter_blocks() {
                let Terminator::Br { taken, fall, .. } = b.term else {
                    continue;
                };
                let join_of = |arm: bsched_ir::BlockId| match f.block(arm).term {
                    Terminator::Jmp(j) => Some(j),
                    _ => None,
                };
                let (Some(tj), Some(fj)) = (join_of(taken), join_of(fall)) else {
                    continue;
                };
                if tj != fj || cfg.preds(taken).len() != 1 || cfg.preds(fall).len() != 1 {
                    continue;
                }
                diamonds += 1;
                // At least one arm of every real diamond must store, or
                // predication would linearise it.
                let stores = [taken, fall]
                    .iter()
                    .any(|&a| f.block(a).insts.iter().any(|i| i.op.is_store()));
                assert!(stores, "{name}: predicable diamond found at {taken}/{fall}");
            }
            assert!(diamonds >= 1, "{name}: expected conditional diamonds");
        }
    }

    /// BDNA's body must exceed the factor-4 unroll budget (the paper:
    /// "the iteration instruction limit ... disabled the optimization").
    #[test]
    fn bdna_body_exceeds_unroll_budget() {
        let p = kernel_by_name("BDNA").expect("kernel exists").program();
        let f = p.main();
        let body_insts: usize = f.loops[0].body.iter().map(|b| f.block(*b).len()).sum();
        assert!(body_insts > 40, "BDNA body is only {body_insts} instructions");
    }
}
