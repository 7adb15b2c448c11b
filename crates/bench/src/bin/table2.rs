//! Regenerates the paper's Table 2: memory hierarchy parameters.

use bsched_mem::MemConfig;
use bsched_pipeline::Table;

fn main() {
    bsched_bench::cli::no_flags();
    let c = MemConfig::alpha21164();
    let mut t = Table::new(
        "Table 2: Memory hierarchy parameters (Alpha 21164-like)",
        &[
            "Level",
            "Size",
            "Line",
            "Assoc",
            "Load-use latency (cycles)",
        ],
    );
    let row = |name: &str, cc: bsched_mem::CacheConfig| {
        vec![
            name.to_string(),
            format!("{} KB", cc.size / 1024),
            format!("{} B", cc.line),
            format!("{}-way", cc.assoc),
            cc.latency.to_string(),
        ]
    };
    t.row(row("L1 data (lockup-free)", c.l1d));
    t.row(row("L1 instruction", c.icache));
    t.row(row("L2 unified", c.l2));
    if let Some(l3) = c.l3 {
        t.row(row("L3 board", l3));
    }
    t.row(vec![
        "Main memory".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        c.mem_latency.to_string(),
    ]);
    println!("{t}");
    println!("MSHRs (MAF entries): {}", c.mshrs);
    println!(
        "Data TLB: {} entries, {} B pages, {}-cycle refill",
        c.dtb_entries, c.page_size, c.tlb_miss_penalty
    );
    println!("Instruction TLB: {} entries", c.itb_entries);
}
