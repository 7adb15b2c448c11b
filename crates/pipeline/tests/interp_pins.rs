//! Pins what the reference interpreter computes on every suite kernel
//! and on every program the standard grid compiles from it.
//!
//! Per kernel, one digest covers the interpreter's full [`Outcome`] on
//! the unoptimized source and one covers it on the 15 compiled grid
//! programs, in grid order: the checksum, the instruction and branch
//! counts, every block count, and `edge(from, to)` for every ordered
//! pair of blocks. The digests were recorded from the interpreter that
//! walked the IR directly, before it decoded `main` into a flat array,
//! so a decode or execute change that moves any count fails here.

use bsched_ir::{BlockId, Interp, Outcome, Program};
use bsched_pipeline::{standard_grid, Experiment};
use bsched_util::Fnv1a;

/// `(kernel, source-run digest, compiled-grid digest)`, Table 1 order.
const PINNED: [(&str, u64, u64); 17] = [
    ("ARC2D", 0xfaac_4a12_aba1_933b, 0xaf71_57c6_81e3_7df4),
    ("BDNA", 0xd7a8_a8a4_9022_b12c, 0x44a8_86da_9341_575f),
    ("DYFESM", 0xed73_94fe_0bfe_6901, 0xf32a_f3bf_971d_52ed),
    ("MDG", 0x01e9_22bc_6b44_7ee0, 0xb583_d195_3508_1c35),
    ("QCD2", 0x82f8_433d_54f1_5da3, 0x65be_39a1_83bd_3b51),
    ("TRFD", 0xd436_1d4b_f81d_d8c7, 0x6d09_13ed_52a3_7274),
    ("alvinn", 0xff45_6c53_5c4a_8e1b, 0xc3ad_aad7_ac96_30da),
    ("dnasa7", 0x1728_ebc7_d498_1461, 0x5481_c263_5315_6d98),
    ("doduc", 0x6cf2_fc7b_9833_cbb4, 0xacb8_0f13_c376_e4b5),
    ("ear", 0x1926_ddc2_cad7_5400, 0xedc6_3afb_713c_e5c5),
    ("hydro2d", 0x9cd8_cbdf_7352_1d47, 0xce9d_be7f_385c_35ff),
    ("mdljdp2", 0xdfc6_17e4_37fa_3c57, 0xdcc6_10ac_dbcd_5afb),
    ("ora", 0xfd43_d38b_bf3b_32e6, 0x1c99_6205_ea0b_0dc2),
    ("spice2g6", 0x5f98_fffc_226f_d845, 0x1421_5013_de82_2a2a),
    ("su2cor", 0xe0c9_2a9a_f130_b608, 0xf3e7_d279_f260_6eb2),
    ("swm256", 0xf1bb_a364_bcb1_ae00, 0x7b44_9433_1621_657b),
    ("tomcatv", 0x303f_d93d_b901_eca7, 0xd691_072e_6578_5f28),
];

fn absorb(h: &mut Fnv1a, program: &Program, out: &Outcome) {
    for v in [out.checksum, out.inst_count, out.branch_count] {
        h.write(&v.to_le_bytes());
    }
    let n = program.main().blocks().len();
    for from in (0..n).map(BlockId::new) {
        h.write(&out.profile.block(from).to_le_bytes());
        for to in (0..n).map(BlockId::new) {
            h.write(&out.profile.edge(from, to).to_le_bytes());
        }
    }
}

fn run(program: &Program) -> Outcome {
    Interp::new(program).run().expect("interpreter runs")
}

#[test]
fn interpreter_outcomes_match_their_pins() {
    let kernels = bsched_workloads::all_kernels();
    let mut got = Vec::new();
    for spec in &kernels {
        let program = spec.program();
        let mut source = Fnv1a::new();
        absorb(&mut source, &program, &run(&program));
        let mut compiled = Fnv1a::new();
        for config in standard_grid() {
            let c = Experiment::builder()
                .program(spec.name, program.clone())
                .compile_options(config.options())
                .build()
                .expect("kernel builds")
                .compile()
                .expect("kernel compiles");
            absorb(&mut compiled, &c.program, &run(&c.program));
        }
        got.push((spec.name, source.finish(), compiled.finish()));
    }
    assert_eq!(got.len(), PINNED.len());
    for (&(name, s, c), &(pname, ps, pc)) in got.iter().zip(&PINNED) {
        assert_eq!(name, pname, "suite order changed");
        assert_eq!(s, ps, "{name}: source run changed");
        assert_eq!(c, pc, "{name}: a compiled grid program's run changed");
    }
}
