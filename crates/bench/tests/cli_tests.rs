//! CLI-contract tests for `all_experiments`, `optimality`, `machines`,
//! `bsched-client` and the flagless table binaries: argument validation
//! must fail fast (exit code 2) with actionable messages, before any
//! cell executes.

use std::process::Command;

fn all_experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
}

fn optimality() -> Command {
    Command::new(env!("CARGO_BIN_EXE_optimality"))
}

fn machines() -> Command {
    Command::new(env!("CARGO_BIN_EXE_machines"))
}

/// `bsched-client` aimed at a socket that does not exist: a connection
/// attempt would fail with exit 1 and `cannot connect`.
fn client_grid() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bsched-client"));
    cmd.args([
        "--connect",
        "unix:/nonexistent-bsched-dir/serve.sock",
        "grid",
    ]);
    cmd
}

#[test]
fn empty_kernels_value_is_rejected_with_the_valid_choices() {
    for arg in ["--kernels=", "--kernels= "] {
        let out = all_experiments().arg(arg).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{arg:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("at least one kernel name"), "{arg:?}: {err}");
        assert!(
            err.contains("TRFD"),
            "{arg:?} must list valid kernels: {err}"
        );
        assert!(out.stdout.is_empty(), "{arg:?} must not start the grid");
    }
    // Space-separated form with an empty value.
    let out = all_experiments().args(["--kernels", ""]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least one kernel name"));
}

#[test]
fn missing_kernels_value_is_rejected() {
    let out = all_experiments().arg("--kernels").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--kernels"));
}

#[test]
fn unknown_kernel_names_are_rejected() {
    for args in [
        vec!["--kernels", "nonesuch"],
        vec!["--kernels=TRFD,nonesuch"],
    ] {
        let out = all_experiments().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("nonesuch"), "{args:?}: {err}");
        assert!(
            err.contains("TRFD"),
            "{args:?} must list valid kernels: {err}"
        );
    }
}

#[test]
fn bad_fuzz_values_are_rejected() {
    for args in [vec!["--fuzz", "banana"], vec!["--fuzz-seed=xyz"]] {
        let out = all_experiments().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn unwritable_trace_paths_are_rejected_before_any_cell_runs() {
    for flag in ["--trace-json", "--trace-chrome"] {
        let bad = "/nonexistent-bsched-dir/trace.json";
        for args in [vec![flag, bad], vec![&format!("{flag}={bad}")[..]]] {
            let out = all_experiments().args(&args).output().unwrap();
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains("cannot write"), "{args:?}: {err}");
            assert!(err.contains(flag), "{args:?} must name the flag: {err}");
            assert!(out.stdout.is_empty(), "{args:?} must not start the grid");
        }
    }
}

#[test]
fn missing_trace_path_values_are_rejected() {
    for flag in ["--trace-json", "--trace-chrome"] {
        let out = all_experiments().arg(flag).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(flag));
    }
}

#[test]
fn invalid_bsched_jobs_fails_loudly_instead_of_degrading() {
    for bad in ["32x", "abc", "0", "-3", ""] {
        let out = all_experiments()
            .args(["--kernels", "TRFD"])
            .env("BSCHED_JOBS", bad)
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "BSCHED_JOBS={bad:?} must exit 2, not fall back silently"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("invalid BSCHED_JOBS"), "{bad:?}: {err}");
        assert!(
            err.contains("positive integer"),
            "{bad:?} must say what a valid value is: {err}"
        );
        assert!(out.stdout.is_empty(), "{bad:?} must not start the grid");
    }
    // A valid value still works end to end.
    let out = all_experiments()
        .args(["--kernels", "TRFD"])
        .env("BSCHED_JOBS", "2")
        .env("BSCHED_NO_CACHE", "1")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "BSCHED_JOBS=2 must run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn empty_bsched_cache_dir_fails_loudly_instead_of_caching_nowhere() {
    for bad in ["", "   "] {
        let out = all_experiments()
            .args(["--kernels", "TRFD"])
            .env("BSCHED_CACHE_DIR", bad)
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "BSCHED_CACHE_DIR={bad:?} must exit 2, not fall back silently"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("invalid BSCHED_CACHE_DIR"), "{bad:?}: {err}");
        assert!(
            err.contains("unset the variable"),
            "{bad:?} must tell the user the remedy: {err}"
        );
        assert!(out.stdout.is_empty(), "{bad:?} must not start the grid");
    }
}

#[test]
fn unknown_engine_names_are_rejected_with_the_valid_choices() {
    for args in [vec!["--engine", "bogus"], vec!["--engine=bogus"]] {
        let out = all_experiments().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("bogus"), "{args:?}: {err}");
        assert!(
            err.contains("interpret") && err.contains("block"),
            "{args:?} must list valid engines: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not start the grid");
    }
    let out = all_experiments().arg("--engine").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--engine"));
}

#[test]
fn invalid_bsched_sim_engine_fails_loudly_instead_of_degrading() {
    for bad in ["bogus", "interpreter9000", ""] {
        let out = all_experiments()
            .args(["--kernels", "TRFD"])
            .env("BSCHED_SIM_ENGINE", bad)
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "BSCHED_SIM_ENGINE={bad:?} must exit 2, not fall back silently"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("invalid BSCHED_SIM_ENGINE"), "{bad:?}: {err}");
        assert!(
            err.contains("interpret") && err.contains("block"),
            "{bad:?} must list valid engines: {err}"
        );
        assert!(out.stdout.is_empty(), "{bad:?} must not start the grid");
    }
}

#[test]
fn invalid_sample_specs_are_rejected_with_the_valid_format() {
    for arg in [
        "--sample=bogus",
        "--sample=k=0",
        "--sample=interval=0",
        "--sample=",
    ] {
        let out = all_experiments().arg(arg).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{arg:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--sample"),
            "{arg:?} must name the flag: {err}"
        );
        assert!(
            err.contains("comma-separated k=") && err.contains("interval="),
            "{arg:?} must list the valid spec: {err}"
        );
        assert!(out.stdout.is_empty(), "{arg:?} must not start the grid");
    }
}

#[test]
fn invalid_bsched_sample_fails_loudly_instead_of_degrading() {
    for bad in ["nope", "k=0", "reps=0", "k=banana"] {
        let out = all_experiments()
            .args(["--kernels", "TRFD"])
            .env("BSCHED_SAMPLE", bad)
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "BSCHED_SAMPLE={bad:?} must exit 2, not fall back to exact mode silently"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("invalid BSCHED_SAMPLE"), "{bad:?}: {err}");
        assert!(
            err.contains("comma-separated k=") && err.contains("interval="),
            "{bad:?} must list the valid spec: {err}"
        );
        assert!(out.stdout.is_empty(), "{bad:?} must not start the grid");
    }
}

/// The mode axis is execution-only and *not* metrics-invariant, so
/// sampled runs must live entirely outside the exact-result cache: a
/// warm exact cache must not answer a sampled run, and a sampled run
/// must not poison the cache for the exact run that follows it.
#[test]
fn sampled_runs_never_touch_the_exact_result_cache() {
    let cache = std::env::temp_dir().join(format!("bsched-sample-cache-{}", std::process::id()));
    let run = |extra: &[&str]| {
        let mut cmd = all_experiments();
        cmd.args(["--kernels", "TRFD"])
            .args(extra)
            .env("BSCHED_JOBS", "2")
            .env("BSCHED_CACHE_DIR", &cache);
        cmd.output().unwrap()
    };
    let warm = run(&[]);
    let sampled = run(&["--sample"]);
    let exact_again = run(&[]);
    std::fs::remove_dir_all(&cache).ok();
    for (name, out) in [
        ("warm", &warm),
        ("sampled", &sampled),
        ("exact-again", &exact_again),
    ] {
        assert!(
            out.status.success(),
            "{name} run failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let err = String::from_utf8_lossy(&sampled.stderr);
    assert!(
        err.contains("0 memory hits, 0 disk hits, 15 executed from 15 compiles (0% cache hits)"),
        "the sampled run must not be answered from the exact-warmed cache: {err}"
    );
    assert!(
        err.contains("sampling: "),
        "sampled report section missing: {err}"
    );
    assert!(
        err.contains("mode: sampled("),
        "sampled mode line missing: {err}"
    );
    // The sampled run left no droppings: the follow-up exact run is
    // answered entirely from the original warm entries and prints the
    // same bytes.
    let err = String::from_utf8_lossy(&exact_again.stderr);
    assert!(
        err.contains(" 0 executed (100% cache hits)"),
        "the exact re-run must still fully hit the warm cache: {err}"
    );
    assert_eq!(
        warm.stdout, exact_again.stdout,
        "the sampled run must not alter cached exact results"
    );
    assert_ne!(
        sampled.stdout, warm.stdout,
        "sanity: the sampled table is an estimate, not a cache readback"
    );
}

/// `--csv` writes its table under `results/` in the working directory.
/// A sampled table holds estimates, so it must land in its own file and
/// never overwrite the committed exact `results/all_experiments.csv`.
#[test]
fn sampled_csv_never_overwrites_the_exact_table() {
    let cwd = std::env::temp_dir().join(format!("bsched-sampled-csv-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    let out = all_experiments()
        .args(["--sample", "--csv", "--kernels", "TRFD"])
        .current_dir(&cwd)
        .env("BSCHED_JOBS", "2")
        .env("BSCHED_NO_CACHE", "1")
        .env_remove("BSCHED_CACHE_DIR")
        .output()
        .unwrap();
    let exact = cwd.join("results/all_experiments.csv").exists();
    let sampled = std::fs::read(cwd.join("results/all_experiments_sampled.csv"));
    std::fs::remove_dir_all(&cwd).ok();
    assert!(
        out.status.success(),
        "sampled --csv run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !exact,
        "a sampled run must not write results/all_experiments.csv"
    );
    assert_eq!(
        sampled.expect("the sampled table lands in all_experiments_sampled.csv"),
        out.stdout,
        "the sampled CSV file holds the printed table"
    );
}

/// The engine axis is execution-only: it is not part of any cache key,
/// so a cache warmed under one engine must be answered entirely from
/// disk under the other — and print the same bytes.
#[test]
fn cache_warmed_under_one_engine_fully_hits_under_the_other() {
    let cache = std::env::temp_dir().join(format!("bsched-engine-cache-{}", std::process::id()));
    let run = |engine: &str| {
        all_experiments()
            .args(["--kernels", "TRFD", "--engine", engine])
            .env("BSCHED_JOBS", "2")
            .env("BSCHED_CACHE_DIR", &cache)
            .output()
            .unwrap()
    };
    let warm = run("interpret");
    let reuse = run("block");
    std::fs::remove_dir_all(&cache).ok();
    assert!(
        warm.status.success(),
        "{}",
        String::from_utf8_lossy(&warm.stderr)
    );
    assert!(
        reuse.status.success(),
        "{}",
        String::from_utf8_lossy(&reuse.stderr)
    );
    assert_eq!(
        warm.stdout, reuse.stdout,
        "engines must print byte-identical tables"
    );
    let err = String::from_utf8_lossy(&reuse.stderr);
    assert!(
        err.contains(" 0 executed (100% cache hits)"),
        "the block run must be answered entirely from the interpret-warmed cache: {err}"
    );
}

#[test]
fn trace_summary_composes_with_verify_and_kernels() {
    let out = all_experiments()
        .args(["--kernels", "TRFD", "--verify", "--trace-summary"])
        .env("BSCHED_JOBS", "2")
        .env("BSCHED_NO_CACHE", "1")
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "verified traced run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("verification:") && err.contains("0 violations"),
        "--verify report missing: {err}"
    );
    assert!(
        err.contains("── bsched-trace summary"),
        "--trace-summary section missing: {err}"
    );
}

/// `--verify` recompiles every cell from the kernel's shared source, so
/// the unoptimized source is verified and interpreted for its
/// reference checksum once per process, not once more per verified
/// cell: an uncached traced run records exactly one
/// `pipeline.reference` span.
#[test]
fn verified_cells_share_their_kernels_reference_run() {
    let trace = std::env::temp_dir().join(format!(
        "bsched-verify-reference-{}.json",
        std::process::id()
    ));
    let out = all_experiments()
        .args(["--kernels", "TRFD", "--verify", "--trace-json"])
        .arg(&trace)
        .env("BSCHED_JOBS", "2")
        .env("BSCHED_NO_CACHE", "1")
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .unwrap();
    let json = std::fs::read_to_string(&trace).unwrap_or_default();
    std::fs::remove_file(&trace).ok();
    assert!(
        out.status.success(),
        "verified traced run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let references = json
        .split("},{")
        .filter(|e| e.contains("\"cat\":\"pipeline\"") && e.contains("\"name\":\"reference\""))
        .count();
    assert_eq!(
        references, 1,
        "one reference run for TRFD's 15 verified cells"
    );
}

#[test]
fn unknown_machine_specs_are_rejected_with_the_valid_choices() {
    for args in [vec!["--machine", "nonesuch"], vec!["--machine=nonesuch"]] {
        let out = all_experiments().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--machine"),
            "{args:?} must name the flag: {err}"
        );
        assert!(err.contains("nonesuch"), "{args:?}: {err}");
        assert!(
            err.contains("alpha21164") && err.contains("wide4"),
            "{args:?} must list valid machines: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not start the grid");
    }
    let out = all_experiments().arg("--machine").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--machine"));
}

#[test]
fn malformed_machine_modifiers_are_rejected_with_the_valid_grammar() {
    for (arg, needle) in [
        ("--machine=alpha21164+bp=bogus", "valid predictors"),
        ("--machine=alpha21164+iw=0", "issue width"),
        ("--machine=alpha21164+mshrs=0", "at least one MSHR"),
        ("--machine=alpha21164+ports=9", "memory ports"),
        ("--machine=alpha21164+frob=1", "unknown key \"frob\""),
    ] {
        let out = all_experiments().arg(arg).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{arg:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{arg:?}: {err}");
        assert!(
            err.contains("NAME[+bp="),
            "{arg:?} must show the spec grammar: {err}"
        );
        assert!(out.stdout.is_empty(), "{arg:?} must not start the grid");
    }
}

#[test]
fn invalid_bsched_machine_fails_loudly_instead_of_degrading() {
    for bad in ["nonesuch", "alpha21164+ports=9", "alpha21164+mshrs=0"] {
        let out = all_experiments()
            .args(["--kernels", "TRFD"])
            .env("BSCHED_MACHINE", bad)
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "BSCHED_MACHINE={bad:?} must exit 2, not fall back to the default machine"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("BSCHED_MACHINE"), "{bad:?}: {err}");
        assert!(out.stdout.is_empty(), "{bad:?} must not start the grid");
    }
}

/// `--machine` beats `BSCHED_MACHINE`, and both re-target the grid to
/// the same bytes; a valid override runs end to end.
#[test]
fn machine_flag_beats_the_environment_and_retargets_the_grid() {
    let run = |args: &[&str], env_machine: Option<&str>| {
        let mut cmd = all_experiments();
        cmd.args(["--kernels", "TRFD"])
            .args(args)
            .env("BSCHED_JOBS", "2")
            .env("BSCHED_NO_CACHE", "1");
        if let Some(m) = env_machine {
            cmd.env("BSCHED_MACHINE", m);
        }
        cmd.output().unwrap()
    };
    let default = run(&[], None);
    let flagged = run(&["--machine", "wide4"], None);
    let enved = run(&[], Some("wide4"));
    // The flag wins even over an invalid environment value.
    let beats = run(&["--machine", "wide4"], Some("nonesuch"));
    for (name, out) in [
        ("default", &default),
        ("flagged", &flagged),
        ("enved", &enved),
        ("beats", &beats),
    ] {
        assert!(
            out.status.success(),
            "{name} run failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(flagged.stdout, enved.stdout, "flag and env must agree");
    assert_eq!(flagged.stdout, beats.stdout, "the flag must beat the env");
    assert_ne!(
        default.stdout, flagged.stdout,
        "wide4 must actually change the table"
    );
    let err = String::from_utf8_lossy(&flagged.stderr);
    assert!(
        err.contains("machine: wide4"),
        "stderr must name the machine: {err}"
    );
}

#[test]
fn machines_binary_rejects_bad_specs_kernels_and_flags() {
    for (args, needle) in [
        (vec!["--machines", "nonesuch"], "valid machines"),
        (vec!["--machines=alpha21164+bp=bogus"], "valid predictors"),
        (vec!["--machines="], "at least one machine spec"),
        (vec!["--kernels", "nonesuch"], "TRFD"),
        (vec!["--engine", "bogus"], "interpret"),
        (vec!["--frobnicate"], "--frobnicate"),
        (vec!["--check", "BENCH_pr10.json"], "--check"),
    ] {
        let out = machines().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} must not start the grid");
    }
}

#[test]
fn optimality_rejects_invalid_budgets_before_searching() {
    for args in [
        vec!["--budget", "banana"],
        vec!["--budget=-5"],
        vec!["--budget=1.5"],
    ] {
        let out = optimality().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--budget"),
            "{args:?} must name the flag: {err}"
        );
        assert!(
            err.contains("search nodes"),
            "{args:?} must say what a valid value is: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not start compiling");
    }
    let out = optimality().arg("--budget").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--budget"));
}

#[test]
fn optimality_rejects_unknown_schedulers_with_the_valid_choices() {
    for args in [
        vec!["--schedulers", "bogus"],
        vec!["--schedulers=TS,bogus"],
        vec!["--schedulers="],
    ] {
        let out = optimality().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("TS") && err.contains("BS") && err.contains("BS+LA"),
            "{args:?} must list the valid schedulers: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not start compiling");
    }
}

#[test]
fn optimality_rejects_unknown_kernels_and_flags() {
    let out = optimality()
        .args(["--kernels", "nonesuch"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("nonesuch"), "{err}");
    assert!(err.contains("TRFD"), "must list valid kernels: {err}");

    for flag in ["--frobnicate", "--check", "--json"] {
        let out = optimality()
            .args([flag, "BENCH_pr9.json"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(flag));
    }
}

#[test]
fn client_grid_rejects_bad_flags_and_kernels_before_connecting() {
    for args in [
        vec!["--bogus"],
        vec!["--verify=1"],
        vec!["--kernels"],
        vec!["--kernels", "nonesuch"],
        vec!["--kernels=TRFD,nonesuch"],
    ] {
        let out = client_grid().args(&args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            !err.contains("cannot connect"),
            "{args:?} connected first: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    let out = client_grid()
        .args(["--kernels", "nonesuch"])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("nonesuch") && err.contains("TRFD"), "{err}");
}

#[test]
fn flagless_binaries_reject_every_argument() {
    for bin in [
        env!("CARGO_BIN_EXE_table1"),
        env!("CARGO_BIN_EXE_ablations"),
    ] {
        for args in [vec!["--csv", "--bogus"], vec!["foo"], vec!["--csv=1"]] {
            let out = Command::new(bin).args(&args).output().unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {err}");
            assert!(err.contains("unknown flag"), "{bin} {args:?}: {err}");
            assert!(out.stdout.is_empty(), "{bin} {args:?} printed a table");
        }
    }
}

#[test]
fn superscalar_rejects_mistyped_flags_instead_of_running_the_default_sweep() {
    for args in [vec!["--port"], vec!["--ports=1"], vec!["--ports", "4"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_superscalar"))
            .args(&args)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} started the sweep");
    }
}
