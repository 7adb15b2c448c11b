//! Regenerates the paper's Table 3: processor latencies.

use bsched_ir::opcode::latency;
use bsched_pipeline::Table;

fn main() {
    bsched_bench::cli::no_flags();
    let mut t = Table::new(
        "Table 3: Processor latencies",
        &["Instruction type", "Latency (cycles)"],
    );
    t.row(vec!["integer op".into(), latency::INT_OP.to_string()]);
    t.row(vec![
        "integer multiply".into(),
        latency::INT_MUL.to_string(),
    ]);
    t.row(vec!["load (L1 hit)".into(), latency::LOAD_HIT.to_string()]);
    t.row(vec!["store".into(), latency::STORE.to_string()]);
    t.row(vec![
        "FP op (excluding divide)".into(),
        latency::FP_OP.to_string(),
    ]);
    t.row(vec![
        "FP div (23 bit fraction)".into(),
        latency::FP_DIV_SINGLE.to_string(),
    ]);
    t.row(vec![
        "FP div (53 bit fraction)".into(),
        latency::FP_DIV_DOUBLE.to_string(),
    ]);
    t.row(vec!["branch".into(), latency::BRANCH.to_string()]);
    t.row(vec![
        "max load (memory)".into(),
        latency::MAX_LOAD.to_string(),
    ]);
    println!("{t}");
}
