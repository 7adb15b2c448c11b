//! Golden-snapshot tests over the table/figure binaries' stdout.
//!
//! The binaries' stdout is the paper reproduction's deliverable and is
//! deterministic by construction (run reports and diagnostics go to
//! stderr). These tests pin the exact bytes: any change — an intended
//! formatting tweak or an accidental numeric drift — shows up as a
//! diff.
//!
//! The paper-table binaries are checked against their committed output
//! under `results/<binary>.txt`, run once each; every process starts
//! cold, so every cell genuinely executes. `scripts/regen.sh` is the
//! one way to refresh those files.
//!
//! The subset runs below (two kernels, a small search budget) have no
//! file under `results/`; they are pinned by
//! `tests/golden/<name>.txt` at the workspace root. To refresh those
//! after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p bsched-bench --test golden_stdout
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

/// Checks a binary's default stdout against `results/{name}.txt`.
fn check_results(name: &str, exe: &str) {
    let root = workspace_root();
    let committed = root.join("results").join(format!("{name}.txt"));
    let want = std::fs::read_to_string(&committed)
        .unwrap_or_else(|e| panic!("{}: {e}; run scripts/regen.sh", committed.display()));
    let stdout = run_with(name, exe, &root, &[], &[]);
    assert_eq!(
        stdout, want,
        "{name} stdout diverged from results/{name}.txt; \
         if the change is intentional, rewrite results/ with scripts/regen.sh"
    );
}

macro_rules! golden {
    ($name:ident) => {
        #[test]
        fn $name() {
            check_results(
                stringify!($name),
                env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
            );
        }
    };
}

golden!(table4);
golden!(table5);
golden!(table6);
golden!(table7);
golden!(table8);
golden!(table9);
golden!(sec55);
golden!(superscalar);

/// Runs a binary with extra args and env; its stdout.
fn run_with(name: &str, exe: &str, root: &PathBuf, args: &[&str], envs: &[(&str, &str)]) -> String {
    let mut cmd = Command::new(exe);
    cmd.current_dir(root).args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("{name} failed to spawn: {e}"));
    assert!(
        out.status.success(),
        "{name} exited with {:?}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn check_against(name: &str, root: &Path, stdout: &str) -> String {
    let golden = root.join("tests/golden").join(format!("{name}.txt"));
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
        std::fs::write(&golden, stdout).unwrap();
        return stdout.to_string();
    }
    let want = std::fs::read_to_string(&golden).unwrap_or_else(|_| {
        panic!(
            "missing golden file {}; capture it with UPDATE_GOLDEN=1 \
             cargo test -p bsched-bench --test golden_stdout",
            golden.display()
        )
    });
    assert_eq!(
        stdout, &want,
        "{name} stdout diverged from tests/golden/{name}.txt; if the \
         change is intentional, refresh with UPDATE_GOLDEN=1"
    );
    want
}

/// Sampled estimates are deterministic (seeded clustering, deterministic
/// replay), so sampled stdout is snapshot-able like everything else —
/// and must not depend on whether the mode came from the flag or the
/// environment.
#[test]
fn all_experiments_sampled() {
    let root = workspace_root();
    let exe = env!("CARGO_BIN_EXE_all_experiments");
    let args = ["--sample", "--kernels", "TRFD,ARC2D"];
    let flagged = run_with("all_experiments_sampled", exe, &root, &args, &[]);
    let want = check_against("all_experiments_sampled", &root, &flagged);
    let from_env = run_with(
        "all_experiments_sampled (env)",
        exe,
        &root,
        &["--kernels", "TRFD,ARC2D"],
        &[("BSCHED_SAMPLE", "1")],
    );
    assert_eq!(
        from_env, want,
        "BSCHED_SAMPLE=1 must match --sample byte for byte"
    );
}

/// The optimality table never simulates — its numbers come from the
/// compiler's audited schedules and the node-budgeted exact search, so
/// stdout is deterministic across machines and build profiles. A small
/// kernel and budget keep the debug-build search fast while still
/// exercising both the proven and the budget-fallback paths.
#[test]
fn optimality() {
    let root = workspace_root();
    let exe = env!("CARGO_BIN_EXE_optimality");
    let args = ["--kernels", "TRFD", "--budget", "500"];
    let stdout = run_with("optimality", exe, &root, &args, &[]);
    check_against("optimality", &root, &stdout);
    // The scheduler filter subsets the same bytes: every BS-arm row of
    // the full table, and nothing else.
    let bs_only = run_with(
        "optimality (BS only)",
        exe,
        &root,
        &["--kernels", "TRFD", "--budget", "500", "--schedulers", "BS"],
        &[],
    );
    for line in bs_only.lines().skip(1) {
        assert!(
            stdout.contains(line),
            "filtered row missing from the full table: {line}"
        );
        assert!(
            line.contains(" BS "),
            "non-BS row under --schedulers BS: {line}"
        );
    }
}

/// With sampling compiled in but *disabled*, exact stdout is pinned: the
/// mode axis must be invisible until asked for, in any spelling of
/// "off".
#[test]
fn all_experiments_exact_stdout_is_unchanged_with_sampling_disabled() {
    let root = workspace_root();
    let exe = env!("CARGO_BIN_EXE_all_experiments");
    let args = ["--kernels", "TRFD,ARC2D"];
    let plain = run_with("all_experiments_exact", exe, &root, &args, &[]);
    let want = check_against("all_experiments_exact", &root, &plain);
    for off in ["0", "off", "false", ""] {
        let disabled = run_with(
            "all_experiments_exact (disabled)",
            exe,
            &root,
            &args,
            &[("BSCHED_SAMPLE", off)],
        );
        assert_eq!(
            disabled, want,
            "BSCHED_SAMPLE={off:?} must leave exact stdout byte-identical"
        );
    }
}
