//! Pins the suite: `kernels/` holds exactly one `.bsk` per suite kernel,
//! each naming its spec, and every kernel lowers to the program it has
//! always lowered to.
//!
//! The digests were recorded from the Rust builder functions that defined
//! the suite before `kernels/*.bsk` became its only definition: FNV-1a of
//! the lowered `Program`'s `Display` text, plus the checksum of its
//! initial memory image (array sizes and contents). A kernel edit that
//! changes any lowered instruction, region or initial value fails here.

use bsched_ir::MemImage;
use bsched_util::Fnv1a;
use bsched_workloads::all_kernels;
use std::collections::BTreeSet;
use std::path::Path;

/// `(kernel, program-text digest, initial-memory checksum)`, Table 1 order.
const PINNED: [(&str, u64, u64); 17] = [
    ("ARC2D", 0x64e2_45b4_5672_c79c, 0xa89e_2ca9_a62e_14e7),
    ("BDNA", 0x1a15_0fef_a8d8_157c, 0x8a5d_bd67_529d_4b59),
    ("DYFESM", 0xf79f_2d18_d861_fd5a, 0xcdc4_703c_463b_d384),
    ("MDG", 0xf67e_080f_741b_5bee, 0x3225_6377_ee7e_5cc5),
    ("QCD2", 0x9686_46c3_779b_fe3e, 0xa504_6138_b5f4_3b32),
    ("TRFD", 0x3a58_ab3b_b0b8_2439, 0xcae4_fd3b_e9dc_7b1a),
    ("alvinn", 0x23f4_78fd_7dd8_9c2d, 0x2554_cf6d_78b9_315c),
    ("dnasa7", 0x02bc_cbb4_8b2c_570f, 0x7edc_c8d1_c712_73ac),
    ("doduc", 0xb9a0_c251_c82a_70d0, 0x3a43_6701_d0c2_35b9),
    ("ear", 0x121e_71cd_5c66_5d3c, 0x6a3b_7aff_8bf0_4dd0),
    ("hydro2d", 0x652a_f2fd_e49b_8520, 0x5041_76e0_f786_7729),
    ("mdljdp2", 0xc134_56fb_290c_d106, 0xdddc_fde6_c33d_8f2f),
    ("ora", 0x696b_9daa_4cda_8aaa, 0xb5c6_2de7_a1c0_0d6f),
    ("spice2g6", 0xe72c_c9c4_a269_49e1, 0x2488_738a_13ef_a301),
    ("su2cor", 0x8e64_3aea_0637_2fc8, 0xd22e_3a17_bcdd_560e),
    ("swm256", 0x7f1e_0643_0209_7586, 0x8ff5_62c7_8b52_0de4),
    ("tomcatv", 0x226f_8960_a2a3_126b, 0xe0b8_dff6_84f1_a78b),
];

#[test]
fn every_kernel_lowers_to_its_pinned_program() {
    let kernels = all_kernels();
    assert_eq!(kernels.len(), PINNED.len());
    for (spec, &(name, text_digest, mem_checksum)) in kernels.iter().zip(&PINNED) {
        assert_eq!(spec.name, name, "suite order changed");
        let program = spec.program();
        assert_eq!(
            Fnv1a::hash(program.to_string().as_bytes()),
            text_digest,
            "{name}: lowered program text changed"
        );
        assert_eq!(
            MemImage::new(&program).checksum(),
            mem_checksum,
            "{name}: initial memory changed"
        );
    }
}

#[test]
fn kernels_dir_holds_exactly_the_suite() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
    let on_disk: BTreeSet<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| {
            entry
                .expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.ends_with(".bsk"))
        .collect();
    let expected: BTreeSet<String> = all_kernels()
        .iter()
        .map(|spec| format!("{}.bsk", spec.name.to_lowercase()))
        .collect();
    assert_eq!(
        on_disk, expected,
        "kernels/ must hold one .bsk per suite kernel"
    );
    for spec in all_kernels() {
        assert_eq!(
            spec.source().name(),
            spec.name,
            "kernels/{}.bsk declares the wrong kernel name",
            spec.name.to_lowercase()
        );
    }
}
