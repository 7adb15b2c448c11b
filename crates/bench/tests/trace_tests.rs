//! Test-first contract for `bsched-trace` observability:
//!
//! * **Heisenberg property** — tracing on vs off produces byte-identical
//!   compiled schedules, simulator metrics, and table stdout (seeded
//!   config sampling, per the `weight_props` idiom).
//! * **Conservation** — the simulator's per-load-site stall attribution
//!   sums exactly to the aggregate `load_interlock` metric on every cell
//!   of the 2-kernel verify-gate grid.
//! * **Schema** — the `--trace-json` export matches a golden snapshot
//!   (`tests/golden/trace_trfd.txt`, refresh with `UPDATE_GOLDEN=1`), and
//!   a schema-version bump makes old readers fail loudly, not silently.
//! * **Atomic reports** — under high `BSCHED_JOBS` the stderr run report
//!   is one untorn block.

use bsched_pipeline::{resolve_kernel, standard_grid, Experiment};
use bsched_trace::{points, ParsedTrace, TraceReadError, TraceReport, TRACE_SCHEMA_VERSION};
use bsched_util::Prng;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;

/// Serializes tests that toggle the process-global trace enable flag
/// (in-process `capture` / `Experiment::trace` users). Subprocess tests
/// don't need it.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn all_experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsched-trace-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    dir.join(name)
}

/// Tracing is observability, not an optimization axis: with the trace
/// recorder on, every sampled grid cell must produce the byte-identical
/// compiled program and simulator metrics it produces with tracing off.
#[test]
fn tracing_on_vs_off_schedules_and_metrics_are_byte_identical() {
    let _serial = TEST_LOCK.lock().unwrap();
    let grid = standard_grid();
    let mut rng = Prng::new(0xB5ED_7ACE);
    for kernel in ["TRFD", "ARC2D"] {
        let program = resolve_kernel(kernel).expect("kernel resolves");
        // Seeded sample keeps the debug-profile runtime modest while
        // still crossing schedulers and optimization combinations.
        for _ in 0..4 {
            let cfg = grid[rng.index(grid.len())];
            let build = |traced: bool| {
                Experiment::builder()
                    .program(kernel, program.clone())
                    .compile_options(cfg.options())
                    .trace(traced)
                    .build()
                    .expect("session builds")
            };
            let off = build(false).run().expect("untraced run");
            let on = build(true).run().expect("traced run");
            assert_eq!(
                format!("{:?}", off.metrics),
                format!("{:?}", on.metrics),
                "{kernel}/{:?} {}: tracing changed simulator metrics",
                cfg.scheduler,
                cfg.kind.label()
            );
            let off_prog = format!("{:?}", build(false).compile().expect("compiles").program);
            let on_prog = format!("{:?}", build(true).compile().expect("compiles").program);
            assert_eq!(
                off_prog,
                on_prog,
                "{kernel}/{:?} {}: tracing changed the compiled schedule",
                cfg.scheduler,
                cfg.kind.label()
            );
        }
    }
    bsched_trace::clear();
}

/// The attribution conservation law: per-site `interlock + mshr_stall`
/// summed over every `sim.load_site` event equals the simulator's
/// aggregate `load_interlock` — on every cell of the ARC2D,TRFD ×
/// 15-config verify-gate grid, exactly, in u64 arithmetic.
#[test]
fn load_interlock_attribution_is_conserved_across_the_grid() {
    let _serial = TEST_LOCK.lock().unwrap();
    for kernel in ["ARC2D", "TRFD"] {
        let program = resolve_kernel(kernel).expect("kernel resolves");
        for cfg in standard_grid() {
            let session = Experiment::builder()
                .program(kernel, program.clone())
                .compile_options(cfg.options())
                .build()
                .expect("session builds");
            let (run, events) = bsched_trace::capture(|| session.run().expect("cell runs"));
            let cell = format!("{kernel}/{:?} {}", cfg.scheduler, cfg.kind.label());
            let attributed: u64 = events
                .iter()
                .filter(|e| e.id == points::SIM_LOAD_SITE)
                .map(|e| {
                    e.arg("interlock").expect("interlock arg")
                        + e.arg("mshr_stall").expect("mshr_stall arg")
                })
                .sum();
            assert_eq!(
                attributed, run.metrics.load_interlock,
                "{cell}: per-site attribution does not sum to the aggregate"
            );
            // The sim.run span must report the same aggregate the
            // metrics carry — one simulated run per cell.
            let runs: Vec<_> = events.iter().filter(|e| e.id == points::SIM_RUN).collect();
            assert_eq!(runs.len(), 1, "{cell}: expected exactly one sim.run span");
            assert_eq!(
                runs[0].arg("load_interlock"),
                Some(run.metrics.load_interlock),
                "{cell}: sim.run span disagrees with metrics"
            );
        }
    }
}

/// `--trace-json` is a stable, versioned contract: the normalized event
/// stream for the single-threaded TRFD grid matches a golden snapshot.
#[test]
fn trace_json_export_matches_golden_snapshot() {
    let root = workspace_root();
    let trace_path = temp_path("golden_probe.json");
    let out = all_experiments()
        .args(["--kernels", "TRFD", "--trace-json"])
        .arg(&trace_path)
        .env("BSCHED_JOBS", "1")
        .current_dir(&root)
        .output()
        .expect("all_experiments spawns");
    assert!(
        out.status.success(),
        "traced run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let parsed = ParsedTrace::parse(&text).expect("current reader parses current schema");
    let lines = parsed.normalized().to_lines();

    let golden = root.join("tests/golden/trace_trfd.txt");
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&golden, &lines).expect("golden refreshes");
        return;
    }
    let want = std::fs::read_to_string(&golden).unwrap_or_else(|_| {
        panic!(
            "missing golden file {}; capture it with UPDATE_GOLDEN=1 \
             cargo test -p bsched-bench --test trace_tests",
            golden.display()
        )
    });
    assert_eq!(
        lines, want,
        "normalized --trace-json stream diverged from tests/golden/trace_trfd.txt; \
         if the schema or instrumentation change is intentional, refresh with UPDATE_GOLDEN=1"
    );
}

/// Bumping the schema version must make old readers fail loudly: a
/// reader built for version N refuses version N+1 with an explicit
/// mismatch error, never a silently misread trace.
#[test]
fn schema_version_bump_fails_loudly_for_old_readers() {
    let current = TraceReport::new(Vec::new()).to_json_string();
    assert!(ParsedTrace::parse(&current).is_ok());
    let needle = format!("\"schema\":{TRACE_SCHEMA_VERSION}");
    assert!(current.contains(&needle), "export carries its version");
    let bumped = current.replace(&needle, &format!("\"schema\":{}", TRACE_SCHEMA_VERSION + 1));
    match ParsedTrace::parse(&bumped) {
        Err(TraceReadError::SchemaMismatch { found, expected }) => {
            assert_eq!(found, u64::from(TRACE_SCHEMA_VERSION) + 1);
            assert_eq!(expected, TRACE_SCHEMA_VERSION);
            let msg = TraceReadError::SchemaMismatch { found, expected }.to_string();
            assert!(
                msg.contains("refusing to parse"),
                "mismatch must be loud: {msg}"
            );
        }
        other => panic!("bumped schema must be rejected, got {other:?}"),
    }
}

/// Tracing must not perturb the deliverable: stdout of a traced run is
/// byte-identical to an untraced one.
#[test]
fn tracing_flags_leave_table_stdout_byte_identical() {
    let root = workspace_root();
    let run = |extra: &[&str]| {
        let out = all_experiments()
            .args(["--kernels", "TRFD"])
            .args(extra)
            .env("BSCHED_JOBS", "2")
            .current_dir(&root)
            .output()
            .expect("all_experiments spawns");
        assert!(
            out.status.success(),
            "run {extra:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let plain = run(&[]);
    let json_path = temp_path("stdout_probe.json");
    let traced = run(&[
        "--trace-summary",
        "--trace-json",
        json_path.to_str().unwrap(),
    ]);
    assert_eq!(
        plain, traced,
        "tracing flags changed table stdout — observability must be stdout-invisible"
    );
}

/// The run report (and trace summary) reach stderr as one atomic write:
/// under high `BSCHED_JOBS` every stderr line still starts with a known
/// report prefix — no torn or interleaved lines.
#[test]
fn run_report_is_not_torn_under_parallel_jobs() {
    let root = workspace_root();
    let out = all_experiments()
        .args(["--kernels", "ARC2D,TRFD", "--trace-summary"])
        .env("BSCHED_JOBS", "8")
        .current_dir(&root)
        .output()
        .expect("all_experiments spawns");
    assert!(out.status.success());
    let err = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    let cells_lines = err.lines().filter(|l| l.starts_with("cells: ")).count();
    assert_eq!(cells_lines, 1, "exactly one untorn cells: line\n{err}");
    let report_headers = err
        .lines()
        .filter(|l| *l == "── bsched-harness run report ──")
        .count();
    assert_eq!(report_headers, 1, "exactly one report header\n{err}");
    // Every line must match a known report/summary shape — a torn write
    // would leave a fragment matching none of these.
    let known = |l: &str| {
        l.is_empty()
            || l.starts_with("── ")
            || l.starts_with("cells: ")
            || l.starts_with("verification: ")
            || l.starts_with("pool: ")
            || l.starts_with("dag-analysis cache: ")
            || l == "slowest cells:"
            || l.starts_with("  ")
            || l.starts_with("wrote ")
            || l.starts_with("passes ")
            || l.starts_with("scheduler: ")
            || l.starts_with("load sites: ")
            || l.starts_with("cells traced: ")
            || l.starts_with("violations traced: ")
    };
    for line in err.lines() {
        assert!(
            known(line),
            "unrecognized (torn?) stderr line: {line:?}\n{err}"
        );
    }
}
