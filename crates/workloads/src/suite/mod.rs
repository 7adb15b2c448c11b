//! The 17-kernel workload: one synthetic kernel per benchmark of the
//! paper's Table 1, with the loop/branch/array structure the paper's
//! analysis attributes to each program (see DESIGN.md §2 for the
//! substitution argument and EXPERIMENTS.md for the shape comparison).
//!
//! Each kernel is defined once, as DSL text in the repository's
//! `kernels/<name>.bsk` (see [`crate::lang::parse`]), embedded here at
//! build time; its comments carry the rationale for its shape.
//! [`KernelSpec::source`] parses that text and [`KernelSpec::program`]
//! lowers it.
//!
//! Problem sizes are scaled so the whole suite simulates in seconds;
//! array footprints are chosen relative to the 8 KB L1 / 96 KB L2 / 2 MB
//! board cache so each kernel reproduces its paper counterpart's memory
//! character (e.g. `ora` lives in registers, `tomcatv` streams far beyond
//! the L2). 2-D arrays are row-major with a column count that is a
//! multiple of 4, so rows stay cache-line aligned (the alignment
//! precondition of locality analysis, §3.3).

use crate::lang::{parse_kernel, Kernel};
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
    /// The kernel's DSL text, `kernels/<name>.bsk`.
    text: &'static str,
}

impl KernelSpec {
    /// Parses the kernel's DSL text into its un-lowered source
    /// (deterministic).
    ///
    /// # Panics
    ///
    /// Panics if the embedded text does not parse; the suite's tests
    /// parse every kernel.
    #[must_use]
    pub fn source(&self) -> Kernel {
        parse_kernel(self.text)
            .unwrap_or_else(|e| panic!("kernels/{}.bsk: {e}", self.name.to_lowercase()))
    }

    /// Parses and lowers the kernel's program (deterministic).
    #[must_use]
    pub fn program(&self) -> Program {
        self.source().lower()
    }
}

/// The suite, in the paper's Table 1 order.
const SUITE: [KernelSpec; 17] = [
    KernelSpec {
        name: "ARC2D",
        suite: Suite::PerfectClub,
        lang: "Fortran",
        description: "Two-dimensional fluid flow problem solver using Euler equations",
        shape: "unrollable 2-D stencil sweeps with abundant independent loads",
        text: include_str!("../../../../kernels/arc2d.bsk"),
    },
    KernelSpec {
        name: "BDNA",
        suite: Suite::PerfectClub,
        lang: "Fortran",
        description: "Simulation of hydration structure and dynamics of nucleic acids",
        shape: "very large basic blocks; unrolling disabled by the size limit",
        text: include_str!("../../../../kernels/bdna.bsk"),
    },
    KernelSpec {
        name: "DYFESM",
        suite: Suite::PerfectClub,
        lang: "Fortran",
        description: "Structural dynamics benchmark to solve displacements and stresses",
        shape: "50/50 data-dependent branch with stores in both arms (few dominant paths)",
        text: include_str!("../../../../kernels/dyfesm.bsk"),
    },
    KernelSpec {
        name: "MDG",
        suite: Suite::PerfectClub,
        lang: "Fortran",
        description: "Molecular dynamic simulation of flexible water molecules",
        shape: "sqrt/divide chains plus a predicable cutoff",
        text: include_str!("../../../../kernels/mdg.bsk"),
    },
    KernelSpec {
        name: "QCD2",
        suite: Suite::PerfectClub,
        lang: "Fortran",
        description: "Lattice-gauge QCD simulation",
        shape: "many short loops with small basic blocks",
        text: include_str!("../../../../kernels/qcd2.bsk"),
    },
    KernelSpec {
        name: "TRFD",
        suite: Suite::PerfectClub,
        lang: "Fortran",
        description: "Two-electron integral transformation",
        shape: "multi-accumulator inner products; unroll-by-8 spills",
        text: include_str!("../../../../kernels/trfd.bsk"),
    },
    KernelSpec {
        name: "alvinn",
        suite: Suite::Spec92,
        lang: "C",
        description: "Trains a neural network using back propagation",
        shape: "serial dot-product accumulator chains",
        text: include_str!("../../../../kernels/alvinn.bsk"),
    },
    KernelSpec {
        name: "dnasa7",
        suite: Suite::Spec92,
        lang: "Fortran",
        description: "Matrix manipulation routines",
        shape: "matrix multiply + wide independent element-wise streams",
        text: include_str!("../../../../kernels/dnasa7.bsk"),
    },
    KernelSpec {
        name: "doduc",
        suite: Suite::Spec92,
        lang: "Fortran",
        description: "Monte Carlo simulation of the time evolution of a nuclear reactor component",
        shape: "multiple un-predicable conditionals per loop; divide heavy",
        text: include_str!("../../../../kernels/doduc.bsk"),
    },
    KernelSpec {
        name: "ear",
        suite: Suite::Spec92,
        lang: "C",
        description: "Simulates the propagation of sound in the human cochlea",
        shape: "serial IIR filter recurrences (fixed-latency bound)",
        text: include_str!("../../../../kernels/ear.bsk"),
    },
    KernelSpec {
        name: "hydro2d",
        suite: Suite::Spec92,
        lang: "Fortran",
        description: "Solves hydrodynamical Navier Stokes equations to compute galactical jets",
        shape: "2-D sweeps over arrays larger than the L2",
        text: include_str!("../../../../kernels/hydro2d.bsk"),
    },
    KernelSpec {
        name: "mdljdp2",
        suite: Suite::Spec92,
        lang: "Fortran",
        description: "Chemical application program that solves equations of motion for atoms",
        shape: "cutoff conditionals with stores; never unrolled",
        text: include_str!("../../../../kernels/mdljdp2.bsk"),
    },
    KernelSpec {
        name: "ora",
        suite: Suite::Spec92,
        lang: "Fortran",
        description:
            "Traces rays through an optical system composed of spherical and planar surfaces",
        shape: "one large loop-free scalar body; ~zero load interlocks",
        text: include_str!("../../../../kernels/ora.bsk"),
    },
    KernelSpec {
        name: "spice2g6",
        suite: Suite::Spec92,
        lang: "Fortran",
        description: "Circuit simulation package",
        shape: "serially dependent dynamic-index loads through a 96 KB table",
        text: include_str!("../../../../kernels/spice2g6.bsk"),
    },
    KernelSpec {
        name: "su2cor",
        suite: Suite::Spec92,
        lang: "Fortran",
        description:
            "Computes masses of elementary particles in the framework of the Quark-Gluon theory",
        shape: "unit-stride SoA matrix-vector sweeps",
        text: include_str!("../../../../kernels/su2cor.bsk"),
    },
    KernelSpec {
        name: "swm256",
        suite: Suite::Spec92,
        lang: "Fortran",
        description: "Solves shallow water equations using finite difference equations",
        shape: "stencil body just over the factor-4 unroll budget",
        text: include_str!("../../../../kernels/swm256.bsk"),
    },
    KernelSpec {
        name: "tomcatv",
        suite: Suite::Spec92,
        lang: "Fortran",
        description: "Vectorized mesh generation program",
        shape: "sequential sweeps over large read-only arrays (LA best case)",
        text: include_str!("../../../../kernels/tomcatv.bsk"),
    },
];

/// All 17 kernels, in the paper's Table 1 order.
#[must_use]
pub fn all_kernels() -> Vec<KernelSpec> {
    SUITE.to_vec()
}

/// Looks a kernel up by its paper name.
#[must_use]
pub fn kernel_by_name(name: &str) -> Option<KernelSpec> {
    SUITE.iter().find(|k| k.name == name).cloned()
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
