//! A seeded pipeline fuzzer.
//!
//! Each iteration generates a random loop-language kernel, picks a random
//! (optimization level × scheduler × sampling config × exact budget ×
//! machine) point, and pushes the program through the whole stack: one
//! compile with a schedule audit and one simulation, judged by the
//! conformance suite ([`verify_cell`]) with the interpreter replays
//! under a fuel budget ([`FUZZ_FUEL`]). A case that drew a sampling
//! config also simulates the same compiled program sampled.
//!
//! Failures shrink greedily — statements are dropped and loop bounds
//! halved while the failure persists — and the minimal reproducer is
//! rendered with [`print_kernel`] so it can be replayed by hand. The
//! whole process is driven by a [`bsched_util::Prng`] stream: the same
//! seed always generates the same kernels, the same grid points, and the
//! same reproducer.

use crate::differential::{sampling_violations, DiffViolation};
use crate::{sim_result, verify_cell};
use bsched_core::SchedulerKind;
use bsched_pipeline::{CompileOptions, ConfigKind, Experiment, MachineSpec, SampleConfig, SimMode};
use bsched_util::Prng;
use bsched_workloads::lang::{
    print_kernel, ArrId, ArrayInit, CmpOp, Expr, Index, Kernel, Stmt, VarId,
};
use std::time::{Duration, Instant};

/// Interpreter fuel for fuzz replays: generated kernels run a few
/// thousand instructions, so this bounds runaway cases tightly without
/// ever tripping on a healthy one.
pub const FUZZ_FUEL: u64 = 2_000_000;

/// Cap on shrink-predicate evaluations per failure, so a pathological
/// case cannot eat the whole fuzz budget.
const SHRINK_BUDGET: usize = 128;

/// The optimization configurations a case draws from: the paper's ten,
/// in table order. The order is part of every seed's case stream.
const CONFIGS: [ConfigKind; 10] = [
    ConfigKind::Base,
    ConfigKind::Lu(4),
    ConfigKind::Lu(8),
    ConfigKind::TrsLu(4),
    ConfigKind::TrsLu(8),
    ConfigKind::La,
    ConfigKind::LaLu(4),
    ConfigKind::LaLu(8),
    ConfigKind::LaTrsLu(4),
    ConfigKind::LaTrsLu(8),
];

/// Fuzzer configuration.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Seed of the whole run; equal seeds give equal runs.
    pub seed: u64,
    /// Iterations to attempt.
    pub iterations: u64,
    /// Optional wall-clock budget; the run stops early (reporting the
    /// iterations actually finished) once it is exceeded.
    pub time_budget: Option<Duration>,
}

impl FuzzConfig {
    /// A config with the default iteration count (256) and no time
    /// budget.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FuzzConfig {
            seed,
            iterations: 256,
            time_budget: None,
        }
    }

    /// Sets the iteration count.
    #[must_use]
    pub fn with_iterations(mut self, iterations: u64) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets a wall-clock budget.
    #[must_use]
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }
}

/// One shrunk failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzFailure {
    /// Iteration (within the run) that produced the failure.
    pub iteration: u64,
    /// The configuration label (`BS+LU4`, …) of the failing cell.
    pub label: String,
    /// Every check message the shrunk case still triggers.
    pub messages: Vec<String>,
    /// The minimal reproducer: a header naming seed/config/scheduler,
    /// followed by the kernel in loop-language syntax.
    pub reproducer: String,
}

/// The outcome of a fuzz run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// Iterations actually executed (≤ the configured count when a time
    /// budget intervenes).
    pub iterations: u64,
    /// Shrunk failures, in discovery order.
    pub failures: Vec<FuzzFailure>,
}

/// A generated case: immutable declarations plus pinned initializer
/// statements, a shrinkable statement tail, and the grid point to
/// compile it at. Shrinking edits only `stmts`; the pinned prefix keeps
/// every float variable initialized before use.
struct Case {
    decls: Kernel,
    pinned: Vec<Stmt>,
    stmts: Vec<Stmt>,
    config: ConfigKind,
    scheduler: SchedulerKind,
    sample: Option<SampleConfig>,
    /// When set, the cell runs the exact branch-and-bound scheduler arm
    /// with this node budget instead of the drawn heuristic. Budget 0
    /// is deliberately in the pool: it must reproduce the balanced
    /// schedule exactly, so any failure it triggers is a reporting bug.
    exact: Option<u64>,
    /// The machine the cell simulates, drawn uniformly from the
    /// registered zoo so every predictor, prefetcher, MSHR policy and
    /// issue width sees fuzz traffic.
    machine: MachineSpec,
}

impl Case {
    fn kernel(&self) -> Kernel {
        self.kernel_with(&self.stmts)
    }

    fn kernel_with(&self, stmts: &[Stmt]) -> Kernel {
        let mut k = self.decls.clone();
        for s in self.pinned.iter().chain(stmts) {
            k.push(s.clone());
        }
        k
    }

    /// The cell's complete compile options. When the exact axis was
    /// drawn, the branch-and-bound arm with the drawn node budget
    /// replaces the heuristic scheduler (which still seeded every
    /// earlier draw).
    fn options(&self) -> CompileOptions {
        let options = match self.exact {
            Some(budget) => self
                .config
                .options(SchedulerKind::Exact)
                .with_exact_budget(budget),
            None => self.config.options(self.scheduler),
        };
        options.with_sim(self.machine.config())
    }
}

/// Everything the expression generator may reference.
struct Scope {
    arrays: Vec<(ArrId, u64)>,
    floats: Vec<VarId>,
}

/// A random in-bounds index over `arr` (size ≥ 16): affine in the
/// innermost loop variable with a small offset, occasionally wrapped in
/// `Dyn` to defeat static reuse classification. Loop bounds never exceed
/// 12 and offsets 2, so every index stays inside the array.
fn gen_index(rng: &mut Prng, loop_vars: &[VarId]) -> Index {
    match loop_vars.last() {
        None => Index::constant(rng.range_i64(0, 8)),
        Some(&v) => {
            if rng.index(4) == 0 {
                Index::Dyn(Box::new(Expr::Var(v)))
            } else {
                Index::of_plus(v, rng.range_i64(0, 3))
            }
        }
    }
}

/// A random float expression of bounded depth.
fn gen_expr(rng: &mut Prng, scope: &Scope, loop_vars: &[VarId], depth: u32) -> Expr {
    if depth == 0 || rng.index(3) == 0 {
        return match rng.index(4) {
            0 => Expr::Float(rng.range_f64(-4.0, 4.0)),
            1 if !scope.floats.is_empty() => Expr::Var(scope.floats[rng.index(scope.floats.len())]),
            2 if !loop_vars.is_empty() => {
                Expr::IntToFloat(Box::new(Expr::Var(loop_vars[rng.index(loop_vars.len())])))
            }
            _ => {
                let (arr, _) = scope.arrays[rng.index(scope.arrays.len())];
                Expr::load(arr, gen_index(rng, loop_vars))
            }
        };
    }
    let a = gen_expr(rng, scope, loop_vars, depth - 1);
    let b = gen_expr(rng, scope, loop_vars, depth - 1);
    match rng.index(6) {
        0 => a + b,
        1 => a - b,
        2 => a * b,
        // Constant positive divisor: no poles, no NaNs.
        3 => Expr::div(a, Expr::Float(rng.range_f64(1.0, 4.0))),
        // sqrt of a square is always defined.
        4 => Expr::sqrt(a.clone() * a),
        _ => Expr::select(
            Expr::cmp(
                CmpOp::Lt,
                Expr::Float(0.5),
                Expr::Float(rng.range_f64(0.0, 1.0)),
            ),
            a,
            b,
        ),
    }
}

/// A random statement list for one loop body (or the top level when
/// `loop_vars` is empty).
fn gen_stmts(rng: &mut Prng, scope: &Scope, loop_vars: &[VarId], len: usize) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let (arr, _) = scope.arrays[rng.index(scope.arrays.len())];
        match rng.index(4) {
            0 if !scope.floats.is_empty() => {
                let var = scope.floats[rng.index(scope.floats.len())];
                out.push(Stmt::AssignVar {
                    var,
                    value: gen_expr(rng, scope, loop_vars, 2),
                });
            }
            1 if !scope.floats.is_empty() && !loop_vars.is_empty() => {
                let var = scope.floats[rng.index(scope.floats.len())];
                let lv = *loop_vars.last().expect("nonempty");
                out.push(Stmt::If {
                    cond: Expr::cmp(CmpOp::Lt, Expr::Var(lv), Expr::Int(rng.range_i64(1, 8))),
                    then_: vec![Stmt::AssignVar {
                        var,
                        value: gen_expr(rng, scope, loop_vars, 1),
                    }],
                    else_: if rng.coin() {
                        vec![Stmt::AssignVar {
                            var,
                            value: gen_expr(rng, scope, loop_vars, 1),
                        }]
                    } else {
                        vec![]
                    },
                });
            }
            _ => out.push(Stmt::Store {
                arr,
                index: gen_index(rng, loop_vars),
                value: gen_expr(rng, scope, loop_vars, 2),
            }),
        }
    }
    out
}

/// Generates one random case.
fn gen_case(rng: &mut Prng, iteration: u64) -> Case {
    let mut decls = Kernel::new(format!("fuzz_{iteration}"));
    let mut scope = Scope {
        arrays: Vec::new(),
        floats: Vec::new(),
    };
    for ai in 0..rng.range_u64(1, 4) {
        let elems = rng.range_u64(16, 64);
        let init = if rng.coin() {
            ArrayInit::Ramp(rng.range_f64(0.0, 2.0), rng.range_f64(0.1, 1.0))
        } else {
            ArrayInit::Random(rng.next_u64())
        };
        let id = decls.array(format!("a{ai}"), elems, init);
        scope.arrays.push((id, elems));
    }
    let mut pinned = Vec::new();
    for fi in 0..rng.range_u64(1, 3) {
        let id = decls.float_var(format!("s{fi}"));
        scope.floats.push(id);
        pinned.push(Stmt::AssignVar {
            var: id,
            value: Expr::Float(rng.range_f64(-1.0, 1.0)),
        });
    }
    // Loop variables are declared up front so the declaration order (and
    // hence every VarId) is independent of how many loops the generator
    // ends up emitting.
    let loop_vars: Vec<VarId> = (0..6).map(|i| decls.int_var(format!("i{i}"))).collect();
    let mut stmts = Vec::new();
    for li in 0..rng.index(3) + 1 {
        let outer = loop_vars[2 * li];
        let body_len = rng.index(3) + 1;
        let mut body = gen_stmts(rng, &scope, &[outer], body_len);
        if rng.coin() {
            let inner = loop_vars[2 * li + 1];
            let hi = rng.range_i64(2, 13);
            let inner_len = rng.index(3) + 1;
            body.push(Stmt::For {
                var: inner,
                lo: Expr::Int(0),
                hi: Expr::Int(hi),
                step: 1,
                body: gen_stmts(rng, &scope, &[outer, inner], inner_len),
            });
        }
        stmts.push(Stmt::For {
            var: outer,
            lo: Expr::Int(0),
            hi: Expr::Int(rng.range_i64(2, 13)),
            step: 1,
            body,
        });
    }
    let config = CONFIGS[rng.index(CONFIGS.len())];
    let scheduler = SchedulerKind::ALL[rng.index(SchedulerKind::ALL.len())];
    // This draw once picked the simulation engine. Every run now
    // simulates on the default decode, but the draw stays so every later
    // draw — and hence every case a given seed generates — is unchanged.
    let _ = rng.index(2);
    // The sampling axis is likewise drawn after everything that came
    // before it. Intervals are kept small so generated kernels (a few
    // thousand dynamic instructions) still produce several of them.
    let sample = if rng.coin() {
        Some(SampleConfig {
            interval: [64, 256, 1024][rng.index(3)],
            k: [1, 2, 4, 8][rng.index(4)],
            reps: [1, 2, 4][rng.index(3)],
            seed: rng.next_u64(),
        })
    } else {
        None
    };
    // The exact-scheduler axis is drawn last (after `sample`) so its
    // addition left every earlier draw — and hence every kernel, grid
    // point, and sampling config a given seed generates — unchanged.
    // Small budgets keep generated-kernel searches cheap while still
    // exercising both the proven and the budget-fallback paths.
    let exact = if rng.index(4) == 0 {
        Some([0u64, 64, 4096][rng.index(3)])
    } else {
        None
    };
    // The machine axis is drawn last (after `exact`) for the same seed-
    // stability reason: adding the zoo left every earlier draw — and
    // hence every kernel and grid point a given seed generates —
    // unchanged. Uniform over the registry, so the default alpha21164
    // and every zoo machine all see traffic.
    let registry = MachineSpec::registry();
    let machine =
        MachineSpec::named(registry[rng.index(registry.len())].name).expect("registry names parse");
    Case {
        decls,
        pinned,
        stmts,
        config,
        scheduler,
        sample,
        exact,
        machine,
    }
}

/// Compiles one kernel once at one grid point, simulates it, and runs
/// the conformance suite ([`verify_cell`]) on that compile and run,
/// returning human-readable messages for whatever fails. When the case
/// drew a sampling config, the same compiled program is also simulated
/// sampled.
fn check_kernel(
    kernel: &Kernel,
    options: &CompileOptions,
    sample: Option<SampleConfig>,
) -> Vec<String> {
    let builder = Experiment::builder()
        .program(kernel.name(), kernel.lower())
        .compile_options(*options);
    let session = builder.clone().build().expect("the program is supplied");
    let (compiled, audit) = match session.compile_audited() {
        Ok(compiled) => compiled,
        Err(e) => return vec![format!("compile failed: {e}")],
    };
    let sim = options.sim;
    let run = match session.simulate(&compiled, sim) {
        Ok(run) => run,
        Err(e) => return vec![format!("simulated run failed: {e}")],
    };
    let mut messages =
        verify_cell(session.source(), &compiled, &audit, &run, sim, FUZZ_FUEL).violations;
    if let Some(sample) = sample {
        // The sampled mode must run wherever the exact mode did, and its
        // functional outcome (instruction counts, checksum) is exact by
        // construction — any divergence is a sampling bug, as is a
        // non-finite estimate (`NonFiniteEstimate`) or nonsensical
        // coverage. Timing *estimates* are not judged here: tolerance
        // bounds belong to the grid regression suite, not to arbitrary
        // generated kernels.
        let sampled = builder
            .sim_mode(SimMode::Sampled(sample))
            .build()
            .expect("the program is supplied")
            .simulate(&compiled, sim);
        match sampled {
            Ok(sampled) => {
                messages.extend(
                    sampling_violations(&sim_result(&run), &sim_result(&sampled))
                        .iter()
                        .filter(|v| !matches!(v, DiffViolation::SamplingOutOfTolerance { .. }))
                        .map(ToString::to_string),
                );
                let sane = sampled.sample.is_some_and(|s| {
                    (1..=s.intervals).contains(&s.clusters) && s.sampled_insts <= s.total_insts
                });
                if !sane {
                    messages.push(format!("nonsensical sample stats: {:?}", sampled.sample));
                }
            }
            Err(e) => messages.push(format!("sampled run failed: {e}")),
        }
    }
    messages
}

/// Every one-edit shrink of a statement list: drop one statement
/// (anywhere in the tree) or halve one loop's constant trip count.
fn shrink_candidates(stmts: &[Stmt]) -> Vec<Vec<Stmt>> {
    let mut out = Vec::new();
    for i in 0..stmts.len() {
        let mut dropped = stmts.to_vec();
        dropped.remove(i);
        out.push(dropped);
        if let Stmt::For {
            var,
            lo,
            hi,
            step,
            body,
        } = &stmts[i]
        {
            if let Expr::Int(n) = hi {
                if *n > 1 {
                    let mut halved = stmts.to_vec();
                    halved[i] = Stmt::For {
                        var: *var,
                        lo: lo.clone(),
                        hi: Expr::Int(*n / 2),
                        step: *step,
                        body: body.clone(),
                    };
                    out.push(halved);
                }
            }
            for inner in shrink_candidates(body) {
                let mut edited = stmts.to_vec();
                edited[i] = Stmt::For {
                    var: *var,
                    lo: lo.clone(),
                    hi: hi.clone(),
                    step: *step,
                    body: inner,
                };
                out.push(edited);
            }
        }
    }
    out
}

/// Greedy shrink to a local minimum: keep applying the first one-edit
/// candidate that still fails, within `SHRINK_BUDGET` predicate calls.
fn shrink_stmts(stmts: Vec<Stmt>, still_fails: &mut dyn FnMut(&[Stmt]) -> bool) -> Vec<Stmt> {
    let mut current = stmts;
    let mut budget = SHRINK_BUDGET;
    'outer: loop {
        for candidate in shrink_candidates(&current) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if still_fails(&candidate) {
                current = candidate;
                continue 'outer;
            }
        }
        break;
    }
    current
}

/// Runs the fuzzer.
#[must_use]
pub fn fuzz(config: &FuzzConfig) -> FuzzReport {
    let start = Instant::now();
    let mut rng = Prng::new(config.seed);
    let mut report = FuzzReport {
        iterations: 0,
        failures: Vec::new(),
    };
    for iteration in 0..config.iterations {
        if let Some(budget) = config.time_budget {
            if start.elapsed() >= budget {
                break;
            }
        }
        // Each case forks the stream so shrinking (which consumes no
        // randomness) can never desynchronize later iterations.
        let mut case_rng = rng.fork();
        let case = gen_case(&mut case_rng, iteration);
        let options = case.options();
        let messages = check_kernel(&case.kernel(), &options, case.sample);
        if !messages.is_empty() {
            // Shrinking replays the checks under the case's own options
            // and sampling config, so an axis-specific failure stays
            // reproducible while it shrinks.
            let minimal = shrink_stmts(case.stmts.clone(), &mut |stmts| {
                !check_kernel(&case.kernel_with(stmts), &options, case.sample).is_empty()
            });
            let kernel = case.kernel_with(&minimal);
            let messages = check_kernel(&kernel, &options, case.sample);
            report.failures.push(FuzzFailure {
                iteration,
                label: options.label(),
                messages,
                reproducer: format!(
                    "// seed {:#x} iteration {iteration}: {:?} x {:?}{}{} x machine {}\n{}",
                    config.seed,
                    case.config,
                    case.scheduler,
                    match case.sample {
                        Some(s) => format!(" x sample {s}"),
                        None => String::new(),
                    },
                    match case.exact {
                        Some(b) => format!(" x exact budget {b}"),
                        None => String::new(),
                    },
                    case.machine.spec(),
                    print_kernel(&kernel)
                ),
            });
        }
        report.iterations = iteration + 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let k1 = gen_case(&mut Prng::new(42), 7);
        let k2 = gen_case(&mut Prng::new(42), 7);
        assert_eq!(print_kernel(&k1.kernel()), print_kernel(&k2.kernel()));
        assert_eq!(k1.config, k2.config);
        assert_eq!(k1.scheduler, k2.scheduler);
        assert_eq!(k1.sample, k2.sample);
        assert_eq!(k1.exact, k2.exact);
        assert_eq!(k1.machine, k2.machine);
        let k3 = gen_case(&mut Prng::new(43), 7);
        assert_ne!(print_kernel(&k1.kernel()), print_kernel(&k3.kernel()));
    }

    /// The first 2,000 cases of seed `0xB5ED`, the seed of `ci.sh`'s
    /// fuzz smoke, hash to a recorded digest of every draw: kernel
    /// text, configuration, scheduler, sampling, exact budget, machine.
    #[test]
    fn the_ci_seed_generates_the_recorded_cases() {
        let mut rng = Prng::new(0xB5ED);
        let mut h = bsched_util::fnv::Fnv1a::new();
        for i in 0..2000 {
            let c = gen_case(&mut rng.fork(), i);
            let (kernel, machine) = (print_kernel(&c.kernel()), c.machine.spec());
            let draws = (c.config, c.scheduler, c.sample, c.exact);
            h.write(format!("{kernel}|{draws:?}|{machine}\n").as_bytes());
        }
        assert_eq!(h.finish(), 0xeb2c_8dac_78e5_6789);
    }

    #[test]
    fn machine_axis_covers_the_zoo() {
        let mut rng = Prng::new(0xB5ED_2026);
        let mut names = std::collections::BTreeSet::new();
        for i in 0..32 {
            let mut fork = rng.fork();
            names.insert(gen_case(&mut fork, i).machine.spec().to_string());
        }
        assert!(
            names.len() >= 3,
            "32 draws should cover several zoo machines: {names:?}"
        );
    }

    #[test]
    fn fuzz_runs_are_deterministic_per_seed() {
        let cfg = FuzzConfig::new(0xB5ED).with_iterations(6);
        assert_eq!(fuzz(&cfg), fuzz(&cfg));
    }

    #[test]
    fn healthy_pipeline_survives_a_fuzz_burst() {
        let report = fuzz(&FuzzConfig::new(0xB5ED_0001).with_iterations(12));
        assert_eq!(report.iterations, 12);
        assert!(
            report.failures.is_empty(),
            "unexpected failures: {:#?}",
            report.failures
        );
    }

    /// A case compiles once, with or without the sampling axis: the
    /// suite and the sampled check both take the one compiled program.
    /// Compile spans are matched on the case's own kernel name, because
    /// tests beside this one may compile while the recorder is on.
    #[test]
    fn a_case_compiles_once() {
        let mut drew = [false; 2];
        for seed in 0.. {
            let iteration = 90_000 + seed;
            let case = gen_case(&mut Prng::new(seed), iteration);
            let name = format!("fuzz_{iteration}");
            let options = case.options();
            let (messages, events) =
                bsched_trace::capture(|| check_kernel(&case.kernel(), &options, case.sample));
            assert!(messages.is_empty(), "seed {seed}: {messages:#?}");
            let compiles = events
                .iter()
                .filter(|e| e.id == bsched_trace::points::PIPELINE_COMPILE && e.label == name)
                .count();
            assert_eq!(compiles, 1, "seed {seed}, sample {:?}", case.sample);
            drew[usize::from(case.sample.is_some())] = true;
            if drew == [true; 2] {
                break;
            }
        }
    }

    #[test]
    fn time_budget_stops_early() {
        let cfg = FuzzConfig::new(1)
            .with_iterations(u64::MAX)
            .with_time_budget(Duration::ZERO);
        let report = fuzz(&cfg);
        assert_eq!(report.iterations, 0);
        assert!(report.failures.is_empty());
    }

    #[test]
    fn shrinking_reaches_a_local_minimum() {
        let mut rng = Prng::new(99);
        let case = gen_case(&mut rng, 0);
        let contains_store = |stmts: &[Stmt]| -> bool {
            fn walk(stmts: &[Stmt]) -> bool {
                stmts.iter().any(|s| match s {
                    Stmt::Store { .. } => true,
                    Stmt::For { body, .. } => walk(body),
                    Stmt::If { then_, else_, .. } => walk(then_) || walk(else_),
                    Stmt::AssignVar { .. } => false,
                })
            }
            walk(stmts)
        };
        // Synthetic oracle: "fails" while any store remains. The shrunk
        // case must still fail and be one-edit minimal.
        if !contains_store(&case.stmts) {
            return; // this seed generated no store; nothing to shrink
        }
        let minimal = shrink_stmts(case.stmts.clone(), &mut |s| contains_store(s));
        assert!(contains_store(&minimal));
        for candidate in shrink_candidates(&minimal) {
            assert!(
                !contains_store(&candidate),
                "a further one-edit shrink still fails: not minimal"
            );
        }
    }
}
