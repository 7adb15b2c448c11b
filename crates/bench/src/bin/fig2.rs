//! Regenerates the paper's Figure 2: trace formation over a five-block
//! CFG. Blocks 1, 2, 4, 5 form the hot trace (A); block 3 is the cold
//! off-trace path (B). Compaction moves code across the split/join with
//! compensation.

use bsched_ir::{BrCond, FuncBuilder, Interp, Op, Program};
use bsched_opt::{trace_schedule, EdgeProfile, TraceOptions};

fn main() {
    bsched_bench::cli::no_flags();
    // b1: split; b2 hot arm; b3 cold arm; b4 join; b5 tail.
    let mut p = Program::new("fig2");
    let data = p.add_region("data", 256);
    let out = p.add_region("out", 64);
    let mut b = FuncBuilder::new("main");
    let hot = b.add_block();
    let cold = b.add_block();
    let join = b.add_block();

    let base = b.load_region_addr(data);
    let obase = b.load_region_addr(out);
    let x = b.load_f(base, 0).with_region(data).emit(&mut b);
    let c = b.iconst(1); // always taken: block 2 is the hot arm
    b.br(c, BrCond::NonZero, hot, cold);

    b.switch_to(hot);
    let h = b.binop(Op::FMul, x, x);
    b.store(h, obase, 0).with_region(out).emit(&mut b);
    b.jmp(join);

    b.switch_to(cold);
    let cl = b.binop(Op::FAdd, x, x);
    b.store(cl, obase, 8).with_region(out).emit(&mut b);
    b.jmp(join);

    b.switch_to(join);
    let y = b.load_f(base, 8).with_region(data).emit(&mut b);
    let z = b.binop(Op::FAdd, y, x);
    b.store(z, obase, 16).with_region(out).emit(&mut b);
    b.ret();
    p.set_main(b.finish());

    println!("Figure 2: CFG before trace scheduling\n\n{}", p.main());
    let before = Interp::new(&p).run().unwrap();
    let profile = EdgeProfile::collect(&p).unwrap();
    let stats = trace_schedule(p.main_mut(), &profile, &TraceOptions::default());
    let after = Interp::new(&p).run().unwrap();
    println!("After trace scheduling ({stats:?}):\n\n{}", p.main());
    assert_eq!(before.checksum, after.checksum, "semantics preserved");
    println!(
        "observable memory unchanged: checksum {:#x}",
        after.checksum
    );
}
