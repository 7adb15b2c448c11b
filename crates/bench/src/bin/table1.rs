//! Regenerates the paper's Table 1: the workload.

use bsched_pipeline::Table;
use bsched_workloads::all_kernels;

fn main() {
    bsched_bench::cli::no_flags();
    let mut t = Table::new(
        "Table 1: The workload (synthetic kernels shaped after the paper's benchmarks)",
        &[
            "Program",
            "Lang.",
            "Suite",
            "Description / reproduced structure",
        ],
    );
    for k in all_kernels() {
        t.row(vec![
            k.name.to_string(),
            k.lang.to_string(),
            format!("{:?}", k.suite),
            format!("{} — {}", k.description, k.shape),
        ]);
    }
    println!("{t}");
}
