//! The committed `kernels/*.bsk` exports must be current: exactly one
//! file per suite kernel, each byte-equal to what `export_kernels` would
//! write today. A kernel edited without a re-export fails here.
//!
//! Re-export with
//! `cargo run --release -p bsched-bench --bin export_kernels -- kernels/`.

use bsched_workloads::all_kernels;
use bsched_workloads::lang::print_kernel;
use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn committed_kernel_exports_are_current() {
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
        let file = format!("{}.bsk", spec.name.to_lowercase());
        let committed = std::fs::read_to_string(dir.join(&file)).expect("read export");
        assert!(
            committed == print_kernel(&spec.source()),
            "kernels/{file} is stale: re-run export_kernels"
        );
    }
}
