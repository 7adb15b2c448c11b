//! A shared `Source` whose reference run fails keeps the failure: every
//! session sharing it gets the same `PipelineError`, on any thread, and
//! none of them succeeds.

use bsched_ir::{ExecError, Function, Inst, Interp, Op, Program, RegClass, Terminator};
use bsched_pipeline::{Experiment, PipelineError, Source};
use std::sync::Arc;

/// An `add` that writes a float register: rejected by the IR verifier.
fn malformed() -> Program {
    let mut p = Program::new("malformed");
    let mut f = Function::new("main");
    let i = f.new_reg(RegClass::Int);
    let x = f.new_reg(RegClass::Float);
    let e = f.entry();
    let mut bad = Inst::op(Op::Add, i, &[i, i]);
    bad.dst = Some(x);
    f.block_mut(e).insts.push(bad);
    p.set_main(f);
    p
}

/// A block that loops on itself forever: the reference interpreter
/// exhausts its default instruction budget. The block is long, and its
/// instruction the interpreter's cheapest, so the test stays quick in
/// unoptimized builds.
fn spinning() -> Program {
    let mut p = Program::new("spin");
    let region = p.add_region("a", 8);
    let mut f = Function::new("main");
    let r = f.new_reg(RegClass::Int);
    let e = f.entry();
    for _ in 0..4096 {
        f.block_mut(e).insts.push(Inst::ldaddr(r, region));
    }
    f.block_mut(e).term = Terminator::Jmp(e);
    p.set_main(f);
    p
}

/// Runs one session per thread over the same source — the first
/// simulates, the second compiles only — and returns both errors.
fn fail_on_two_threads(source: &Arc<Source>) -> [PipelineError; 2] {
    let [a, b] = std::thread::scope(|s| {
        let run = s.spawn(|| {
            let session = Experiment::builder()
                .source("shared", Arc::clone(source))
                .build()
                .expect("source supplied");
            session.run().map(drop)
        });
        let compile = s.spawn(|| {
            let session = Experiment::builder()
                .source("shared", Arc::clone(source))
                .build()
                .expect("source supplied");
            session.compile().map(drop)
        });
        [
            run.join().expect("no panic"),
            compile.join().expect("no panic"),
        ]
    });
    [
        a.expect_err("a run over a failing source must fail"),
        b.expect_err("a compile over a failing source must fail"),
    ]
}

fn assert_same(a: &PipelineError, b: &PipelineError) {
    assert_eq!(std::mem::discriminant(a), std::mem::discriminant(b));
    assert_eq!(a.to_string(), b.to_string());
}

#[test]
fn a_source_that_fails_verification_fails_every_session_alike() {
    let source = Arc::new(Source::new(malformed()));
    let [a, b] = fail_on_two_threads(&source);
    assert!(matches!(a, PipelineError::Verify(_)), "{a:?}");
    assert_same(&a, &b);
    // The memo holds the error, not a success.
    assert_same(&source.reference_checksum().unwrap_err(), &a);
}

#[test]
fn a_source_that_exhausts_its_fuel_fails_every_session_alike() {
    let source = Arc::new(Source::new(spinning()));
    let [a, b] = fail_on_two_threads(&source);
    assert!(
        matches!(
            a,
            PipelineError::Exec(ExecError::OutOfFuel {
                fuel: Interp::DEFAULT_FUEL
            })
        ),
        "{a:?}"
    );
    assert_same(&a, &b);
    assert_same(&source.reference_checksum().unwrap_err(), &a);
}
