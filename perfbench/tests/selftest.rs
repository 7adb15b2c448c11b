//! The benchmark's self-tests: metric names, output checks, the seeded
//! request stream, order independence, and the layer replay.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use bsched_harness::{Engine, EngineConfig, ExperimentCell};
use bsched_pipeline::{
    ConfigKind, Experiment, ExperimentConfig, MachineSpec, SchedulerKind, SimMode,
};
use bsched_trace::{points, Event, EventKind};
use bsched_util::Json;
use perfbench::cells::{grid_cells, grid_csv, zoo_options, GRID_HEADER};
use perfbench::check::{check_sampled, line_mismatches, parse_grid_csv, parse_zoo_csv};
use perfbench::metrics::{valid_name, Metric, END_TO_END, PER_LAYER};
use perfbench::mix::{Expect, Mix, References, SERVE_MIX};
use perfbench::pass::{combine, lower_kernels, run_ordered};
use perfbench::replay::{replay_cell, Layers};
use perfbench::spans;
use std::path::PathBuf;

fn repo_file(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `text` with the cycles column (index `col`) of data row `row` bumped.
fn corrupt_cycles(text: &str, row: usize, col: usize, by: u64) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let mut f: Vec<String> = lines[row].split(',').map(str::to_string).collect();
    f[col] = (f[col].parse::<u64>().unwrap() + by).to_string();
    lines[row] = f.join(",");
    lines.join("\n") + "\n"
}

fn references() -> References {
    References {
        grid: parse_grid_csv(&repo_file("results/all_experiments.csv")).unwrap(),
        zoo: parse_zoo_csv(&repo_file("results/machines.csv")).unwrap(),
    }
}

#[test]
fn metric_names_are_valid_unique_and_match_benchmark_json() {
    let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
    for m in &all {
        assert!(valid_name(m.name), "bad metric name {:?}", m.name);
        assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
    }
    let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names repeat");
    assert!(!valid_name("") && !valid_name("a b") && !valid_name("x/y"));

    let doc = Json::parse(&repo_file("BENCHMARK.json")).unwrap();
    for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json lacks {key}")
        };
        let listed: Vec<(&str, &str, &str)> = items
            .iter()
            .map(|i| {
                let s = |k: &str| i.get(k).and_then(Json::as_str).unwrap();
                (s("name"), s("unit"), s("better"))
            })
            .collect();
        let ours: Vec<(&str, &str, &str)> =
            list.iter().map(|m| (m.name, m.unit, m.better)).collect();
        assert_eq!(
            listed, ours,
            "BENCHMARK.json {key} differs from the benchmark's metrics"
        );
    }
}

#[test]
fn grid_check_rejects_one_corrupted_cycle_count() {
    let reference = repo_file("results/all_experiments.csv");
    assert!(reference.starts_with(GRID_HEADER));
    assert_eq!(line_mismatches(&reference, &reference), 0);
    assert_eq!(
        line_mismatches(&corrupt_cycles(&reference, 100, 3, 1), &reference),
        1
    );
    let truncated: String = reference
        .lines()
        .take(200)
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(line_mismatches(&truncated, &reference), 56);
}

#[test]
fn zoo_check_rejects_one_corrupted_cycle_count() {
    let reference = repo_file("results/machines.csv");
    assert_eq!(line_mismatches(&reference, &reference), 0);
    for col in [2, 3, 4] {
        assert_eq!(
            line_mismatches(&corrupt_cycles(&reference, 40, col, 1), &reference),
            1
        );
    }
}

#[test]
fn sampled_check_rejects_one_corrupted_cycle_count() {
    let reference = repo_file("results/all_experiments.csv");
    let clean = check_sampled(&reference, &reference).unwrap();
    assert_eq!((clean.failures, clean.cpi_err_max_pct), (0, 0.0));
    // Sampled cycles are estimates: a small error passes and is
    // reported, one beyond the CPI tolerance fails.
    let row: Vec<&str> = reference.lines().nth(7).unwrap().split(',').collect();
    let cycles: u64 = row[3].parse().unwrap();
    let near = check_sampled(&corrupt_cycles(&reference, 7, 3, cycles / 100), &reference).unwrap();
    assert_eq!(near.failures, 0);
    assert!(
        (near.cpi_err_max_pct - 1.0).abs() < 0.01,
        "{}",
        near.cpi_err_max_pct
    );
    let far = check_sampled(&corrupt_cycles(&reference, 7, 3, cycles / 10), &reference).unwrap();
    assert_eq!(far.failures, 1);
    // Instruction counts must be exact.
    let counts = check_sampled(&corrupt_cycles(&reference, 7, 9, 1), &reference).unwrap();
    assert_eq!(counts.failures, 1);
}

#[test]
fn serve_check_rejects_one_corrupted_cycle_count() {
    let refs = references();
    let cfg = ExperimentConfig {
        scheduler: SchedulerKind::Balanced,
        kind: ConfigKind::Lu(4),
    };
    let run = Experiment::builder()
        .kernel("TRFD")
        .compile_options(cfg.options())
        .build()
        .unwrap()
        .run()
        .unwrap();
    let grid = Expect::Grid {
        kernel: "TRFD".to_string(),
        cfg,
    };
    let mut m = run.metrics;
    assert!(grid.matches(&m, &refs));
    m.cycles += 1;
    assert!(!grid.matches(&m, &refs));

    let wide: MachineSpec = "wide4".parse().unwrap();
    let run = Experiment::builder()
        .kernel("TRFD")
        .compile_options(zoo_options(SchedulerKind::Traditional, &wide))
        .build()
        .unwrap()
        .run()
        .unwrap();
    let zoo = Expect::Zoo {
        machine: wide.spec().to_string(),
        kernel: "TRFD".to_string(),
        arm: 0,
    };
    let mut m = run.metrics;
    assert!(zoo.matches(&m, &refs));
    m.cycles -= 1;
    assert!(!zoo.matches(&m, &refs));
}

fn fingerprint(mix: &Mix, seed: u64, pass: u64) -> Vec<(Vec<String>, bool)> {
    mix.stream(seed, pass)
        .iter()
        .map(|r| {
            let keys = r
                .cells
                .iter()
                .map(|s| s.cell.canonical_key().to_string())
                .collect();
            (keys, r.verify)
        })
        .collect()
}

#[test]
fn serve_stream_is_a_pure_function_of_its_seed() {
    let mix = Mix::parse(SERVE_MIX).unwrap();
    let a = fingerprint(&mix, 7, 1);
    assert_eq!(a.len(), mix.requests);
    assert!(mix.requests >= 2000 && mix.clients == 2);
    assert_eq!(a, fingerprint(&Mix::parse(SERVE_MIX).unwrap(), 7, 1));
    assert_ne!(a, fingerprint(&mix, 8, 1));
    assert_ne!(a, fingerprint(&mix, 7, 2));
    // Every headline pair is requested, so `bs_speedup_geo` covers the
    // same pairs on every seed.
    let pairs = mix.headline_pairs();
    assert!(!pairs.is_empty());
    for (ts, bs) in &pairs {
        for cell in [ts, bs] {
            let key = cell.canonical_key().to_string();
            assert!(
                a.iter().any(|(keys, _)| keys.contains(&key)),
                "{cell} never requested"
            );
        }
    }
}

#[test]
fn permuting_cell_order_by_seed_leaves_output_byte_identical() {
    let subset: Vec<(ExperimentCell, ExperimentConfig)> = grid_cells()
        .into_iter()
        .filter(|(c, _)| matches!(c.kernel(), "TRFD" | "ARC2D"))
        .collect();
    let cells: Vec<ExperimentCell> = subset.iter().map(|(c, _)| c.clone()).collect();
    let output = |seed: u64| {
        let config = EngineConfig::default().with_jobs(2).with_disk_cache(false);
        let engine = Engine::new(lower_kernels(), config);
        grid_csv(&subset, &run_ordered(&engine, &cells, seed).unwrap())
    };
    let first = output(1);
    assert_eq!(first, output(2));
    let refs = references();
    for line in first.lines().skip(1) {
        assert!(
            refs.grid.values().any(|r| r.line == line),
            "{line} is not a committed row"
        );
    }
}

#[test]
fn replay_reproduces_session_run() {
    let wide: MachineSpec = "wide4".parse().unwrap();
    let cases = [
        (
            "tomcatv",
            ConfigKind::LaTrsLu(8).options(SchedulerKind::Balanced),
        ),
        (
            "ora",
            ConfigKind::TrsLu(4).options(SchedulerKind::Traditional),
        ),
        ("TRFD", zoo_options(SchedulerKind::Exact, &wide)),
    ];
    for (kernel, options) in cases {
        let session = Experiment::builder()
            .kernel(kernel)
            .compile_options(options)
            .build()
            .unwrap();
        let run = session.run().unwrap();
        let mut acc = Layers::default();
        let r = replay_cell(session.source(), &options, SimMode::Exact, &mut acc).unwrap();
        assert!(r.checksum_ok);
        assert_eq!(r.metrics, run.metrics, "{kernel}");
        assert_eq!(acc.interp_ref_calls, 2);
    }
}

fn span(tid: u64, ts_ns: u64, dur_ns: u64) -> Event {
    Event {
        id: points::PIPELINE_PASS,
        kind: EventKind::Span,
        ts_ns,
        dur_ns,
        tid,
        label: String::new(),
        args: Vec::new(),
    }
}

#[test]
fn spans_fold_into_self_times_by_containment_per_thread() {
    let mut outer = span(1, 0, 100);
    outer.id = points::HARNESS_CELL;
    let mut other_thread = span(2, 10, 50);
    other_thread.id = points::HARNESS_CELL;
    // Two children of `outer`, one grandchild; the span on thread 2
    // overlaps in time but is nobody's child.
    let events = vec![
        span(1, 10, 30),
        span(1, 15, 5),
        span(1, 50, 20),
        outer,
        other_thread,
    ];
    let folded = spans::fold(&events);
    let cell = folded["harness.cell"];
    assert_eq!((cell.count, cell.total_ns, cell.self_ns), (2, 150, 50 + 50));
    let pass = folded["pipeline.pass"];
    assert_eq!(
        (pass.count, pass.total_ns, pass.self_ns),
        (3, 55, 25 + 5 + 20)
    );
}

#[test]
fn section_results_combine_by_sum_ratio_parts_and_max() {
    let obj = |text: &str| Json::parse(text).unwrap();
    let sections = [
        obj(
            r#"{"wall_s": 1.5, "peak_rss_mb": 12, "x#num": 1, "x#den": 4,
                "bs_ln_sum": 0.3, "bs_pairs": 3, "cell_ms": [1, 2]}"#,
        ),
        obj(r#"{"wall_s": 2.5, "peak_rss_mb": 10, "x#num": 3, "x#den": 4}"#),
    ];
    let n = combine(&sections);
    let keys: Vec<&str> = n.keys().map(String::as_str).collect();
    assert_eq!(keys, ["bs_speedup_geo", "peak_rss_mb", "wall_s", "x"]);
    assert_eq!((n["wall_s"], n["peak_rss_mb"], n["x"]), (4.0, 12.0, 0.5));
    assert!((n["bs_speedup_geo"] - 0.1f64.exp()).abs() < 1e-12);
}
