//! Exports every workload kernel in the textual DSL (one `.bsk` file per
//! kernel), so the exact programs behind the tables can be read, edited
//! and re-run through `examples/dsl_kernel.rs`.
//!
//! ```sh
//! cargo run --release -p bsched-bench --bin export_kernels -- kernels/
//! ```

use bsched_workloads::all_kernels;
use bsched_workloads::lang::print_kernel;

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "kernels".to_string());
    std::fs::create_dir_all(&dir).expect("create output directory");
    for spec in all_kernels() {
        let path = format!("{dir}/{}.bsk", spec.name.to_lowercase());
        std::fs::write(&path, print_kernel(&spec.source())).expect("write kernel");
        println!("wrote {path}");
    }
}
