//! The benchmark entry point.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!           --repo DIR --serve-bin PATH --work DIR
//! ```
//!
//! Repeats cold passes of the workload, each in a fresh process and a
//! fresh directory, while another iteration still fits in `--seconds`,
//! then prints one JSON line: the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`). `perfbench/run.sh` builds the
//! program and supplies the paths. `perfbench pass SECTION SEED MODE
//! REPO` is one pass of a `grids` section, run by the parent in a child
//! process.

use bsched_util::Json;
use perfbench::cells::{Section, Workload};
use perfbench::check::{parse_grid_csv, parse_zoo_csv};
use perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use perfbench::mix::{Mix, References, SERVE_MIX};
use perfbench::pass::{self, combine, Mode, JOBS, READY};
use perfbench::serve::{run_pass, ServePass};
use perfbench::stats::{geomean, median, percentile, ratio};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set-up-only child processes before each section's plain pass:
/// `setup_s` is a few milliseconds and depends on what ran just before,
/// so a run takes its median over many fresh processes spread over the
/// iteration.
const SETUP_PROBES: usize = 3;

struct Cli {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    repo: PathBuf,
    serve_bin: PathBuf,
    work: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |flag: &str| {
        flags
            .get(flag)
            .copied()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let cli = Cli {
        workload: Workload::parse(get("--workload")?)?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        repo: cwd.join(get("--repo")?),
        serve_bin: cwd.join(get("--serve-bin")?),
        work: cwd.join(get("--work")?),
    };
    if flags.len() != 7 {
        return Err("unknown flag".to_string());
    }
    Ok(cli)
}

/// Named samples gathered over a run's passes, plus the pass counts.
#[derive(Default)]
struct Tally {
    samples: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn push(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    /// Adds an iteration's numbers; `attempted` and `failed` are
    /// summed, the rest kept as samples.
    fn absorb(&mut self, numbers: &BTreeMap<String, f64>) {
        for (k, &v) in numbers {
            match k.as_str() {
                "attempted" => self.attempted += v as u64,
                "failed" => self.failed += v as u64,
                _ => self.push(k, v),
            }
        }
    }

    fn fail(&mut self, what: &str, e: &str) {
        eprintln!("perfbench: {what}: {e}");
        self.attempted += 1;
        self.failed += 1;
    }

    fn median(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|v| median(v))
    }

    /// Counts a failure when a value that must repeat exactly differs
    /// between passes.
    fn require_repeat(&mut self, name: &str) {
        let differs = self
            .samples
            .get(name)
            .is_some_and(|v| v.iter().any(|x| x.to_bits() != v[0].to_bits()));
        if differs {
            self.fail(name, "differs between passes of the same seed");
        }
    }
}

/// Runs one pass of `section` in a child process from `dir` and returns
/// its JSON result. A set-up probe's result is `setup_s`: spawn until
/// the pass printed [`READY`].
fn spawn_pass(cli: &Cli, section: Section, mode: Mode, dir: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .arg("pass")
        .arg(section.name())
        .arg(cli.seed.to_string())
        .arg(mode.name())
        .arg(&cli.repo)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| e.to_string())?;
    let mut setup_s = None;
    let mut last = String::new();
    let stdout = child.stdout.take().expect("stdout is piped");
    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
        if line == READY && setup_s.is_none() {
            setup_s = Some(t0.elapsed().as_secs_f64());
        } else {
            last = line;
        }
    }
    let what = format!("{} {} pass", section.name(), mode.name());
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("{what} exited with {status}"));
    }
    let mut obj = Json::parse(&last).map_err(|e| format!("{what} printed bad JSON: {e}"))?;
    if let (Json::Obj(fields), Some(s), Mode::Setup) = (&mut obj, setup_s, mode) {
        fields.insert("setup_s".to_string(), Json::Num(s));
    }
    Ok(obj)
}

/// Calls `iteration` with 1, 2, ... while another iteration as long as
/// the longest so far still ends within `seconds`; at least once.
fn repeat_within(seconds: u64, mut iteration: impl FnMut(u64)) {
    let (start, budget) = (Instant::now(), Duration::from_secs(seconds));
    let mut longest = Duration::ZERO;
    for n in 1.. {
        let t = Instant::now();
        iteration(n);
        longest = longest.max(t.elapsed());
        if start.elapsed() + longest > budget {
            break;
        }
    }
}

/// Runs `modes`, in order, for every section of iteration `n`, each
/// section in a fresh directory and after `probes` set-up probes, whose
/// `setup_s` goes into `tally`. Returns every pass's object, or `None`
/// after counting the failure in `tally`.
fn run_sections(
    cli: &Cli,
    modes: &[Mode],
    probes: usize,
    n: u64,
    tally: &mut Tally,
) -> Option<Vec<Json>> {
    let mut objs = Vec::new();
    for section in Section::ALL {
        let dir = PathBuf::from(format!("pass-{n}-{}", section.name()));
        for _ in 0..probes {
            match spawn_pass(cli, section, Mode::Setup, &dir) {
                Ok(obj) => tally.absorb(&combine(&[obj])),
                Err(e) => tally.fail("set-up probe", &e),
            }
        }
        let passes: Result<Vec<Json>, String> = modes
            .iter()
            .map(|&mode| spawn_pass(cli, section, mode, &dir))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        match passes {
            Ok(p) => objs.extend(p),
            Err(e) => {
                tally.fail(section.name(), &e);
                return None;
            }
        }
    }
    Some(objs)
}

fn grid_run(cli: &Cli) -> String {
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let mut cell_ms: Vec<f64> = Vec::new();
    repeat_within(cli.seconds, |n| {
        let probes = if cli.trace { 0 } else { SETUP_PROBES };
        if let Some(objs) = run_sections(cli, &[Mode::Plain], probes, n, &mut plain) {
            for obj in &objs {
                if let Some(Json::Arr(cells)) = obj.get("cell_ms") {
                    cell_ms.extend(cells.iter().filter_map(Json::as_f64));
                }
            }
            let mut numbers = combine(&objs);
            let get = |k: &str| numbers.get(k).copied().unwrap_or(0.0);
            let per_s = ratio(get("attempted"), get("wall_s"));
            numbers.insert("req_per_s".to_string(), per_s);
            plain.absorb(&numbers);
        }
        if cli.trace {
            // Each section's replay reads its traced pass's results from
            // the directory they share.
            if let Some(objs) = run_sections(cli, &[Mode::Traced, Mode::Replay], 0, n, &mut traced)
            {
                let mut numbers = combine(&objs);
                let get = |k: &str| numbers.get(k).copied().unwrap_or(0.0);
                // Thread time of the traced passes (their wall time on
                // each worker) that the replayed layers do not account for.
                let unattributed = JOBS as f64 * get("wall_s") * 1e3 - get("layers_ms");
                numbers.insert("unattributed_ms".to_string(), unattributed);
                traced.absorb(&numbers);
            }
        }
    });
    plain.require_repeat("bs_speedup_geo");
    plain.require_repeat("sim.cpi_err_max_pct");
    if cli.trace {
        let overhead = ratio(
            traced.median("wall_s").unwrap_or(0.0),
            plain.median("wall_s").unwrap_or(0.0),
        );
        let value = |name: &str| match name {
            "trace.overhead_pct" => Some(100.0 * (overhead - 1.0)),
            "sim.cpi_err_max_pct" => plain.median(name),
            _ => traced.median(name),
        };
        let (attempted, failed) = (
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
        );
        result_line(failed == 0, attempted, failed, PER_LAYER, value)
    } else {
        let value = |name: &str| match name {
            "req_p50_ms" => Some(percentile(&cell_ms, 50.0)),
            "req_p99_ms" => Some(percentile(&cell_ms, 99.0)),
            _ => plain.median(name),
        };
        result_line(
            plain.failed == 0,
            plain.attempted,
            plain.failed,
            END_TO_END,
            value,
        )
    }
}

fn serve_run(cli: &Cli) -> Result<String, String> {
    let read = |rel: &str| {
        let path = cli.repo.join(rel);
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let refs = References {
        grid: parse_grid_csv(&read("results/all_experiments.csv")?)?,
        zoo: parse_zoo_csv(&read("results/machines.csv")?)?,
    };
    let mix = Mix::parse(SERVE_MIX)?;
    let pairs = mix.headline_pairs();

    let (mut plain, mut probed) = (Tally::default(), Tally::default());
    let mut latencies: Vec<f64> = Vec::new();
    let (mut ping, mut warm, mut cold) = (Vec::new(), Vec::new(), Vec::new());
    let record = |t: &mut Tally, p: &ServePass| {
        t.attempted += p.attempted;
        t.failed += p.failed;
        t.push("setup_s", p.setup_s);
        t.push("wall_s", p.wall_s);
        t.push("req_per_s", ratio(p.attempted as f64, p.wall_s));
        t.push("peak_rss_mb", p.rss_mb);
        let ratios: Option<Vec<f64>> = pairs
            .iter()
            .map(|(ts, bs)| {
                let ts = p.cycles.get(ts.canonical_key())?;
                let bs = p.cycles.get(bs.canonical_key())?;
                Some(*ts as f64 / *bs as f64)
            })
            .collect();
        match ratios {
            Some(r) => t.push("bs_speedup_geo", geomean(&r)),
            None => t.fail("bs_speedup_geo", "a headline pair was not served"),
        }
        let busy: f64 = p.latencies_ms.iter().sum::<f64>() / mix.clients as f64;
        t.push("unattributed_ms", p.wall_s * 1e3 - busy);
    };
    repeat_within(cli.seconds, |n| {
        let stream = mix.stream(cli.seed, n);
        let dir = PathBuf::from(format!("pass-{n}"));
        match run_pass(&cli.serve_bin, &dir, &mix, &stream, &refs, false) {
            Ok(p) => {
                record(&mut plain, &p);
                latencies.extend(&p.latencies_ms);
            }
            Err(e) => plain.fail("serve pass", &e),
        }
        let _ = std::fs::remove_dir_all(&dir);
        if cli.trace {
            // The server lowers the kernels at start-up; time the same
            // call here, where it can be seen.
            let t = Instant::now();
            std::hint::black_box(pass::lower_kernels());
            probed.push("workloads.lower_ms", t.elapsed().as_secs_f64() * 1e3);
            let dir = PathBuf::from(format!("pass-{n}p"));
            match run_pass(&cli.serve_bin, &dir, &mix, &stream, &refs, true) {
                Ok(p) => {
                    record(&mut probed, &p);
                    ping.extend(&p.ping_ms);
                    warm.extend(&p.warm_ms);
                    cold.extend(&p.cold_ms);
                    let s = p.stats.clone().unwrap_or_default();
                    probed.push("serve.joined_inflight", s.joined_inflight as f64);
                    probed.push("serve.rejected", s.rejected_submits as f64);
                    probed.push("serve.verified_cells", s.verified as f64);
                    probed.push("harness.executed", s.executed as f64);
                    probed.push(
                        "harness.hit_rate",
                        ratio((s.memory_hits + s.disk_hits) as f64, s.requested as f64),
                    );
                }
                Err(e) => probed.fail("probed serve pass", &e),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    });
    plain.require_repeat("bs_speedup_geo");
    Ok(if cli.trace {
        let overhead = ratio(
            probed.median("wall_s").unwrap_or(0.0),
            plain.median("wall_s").unwrap_or(0.0),
        );
        let value = |name: &str| match name {
            "serve.ping_p50_ms" => Some(percentile(&ping, 50.0)),
            "serve.warm_p50_ms" => Some(percentile(&warm, 50.0)),
            "serve.cold_p50_ms" => Some(percentile(&cold, 50.0)),
            "trace.overhead_pct" => Some(100.0 * (overhead - 1.0)),
            _ => probed.median(name),
        };
        let (attempted, failed) = (
            plain.attempted + probed.attempted,
            plain.failed + probed.failed,
        );
        result_line(failed == 0, attempted, failed, PER_LAYER, value)
    } else {
        let value = |name: &str| match name {
            "req_p50_ms" => Some(percentile(&latencies, 50.0)),
            "req_p99_ms" => Some(percentile(&latencies, 99.0)),
            _ => plain.median(name),
        };
        result_line(
            plain.failed == 0,
            plain.attempted,
            plain.failed,
            END_TO_END,
            value,
        )
    })
}

fn pass_main(args: &[String]) -> Result<Json, String> {
    let [workload, seed, mode, repo] = args else {
        return Err("usage: perfbench pass WORKLOAD SEED MODE REPO".to_string());
    };
    let seed = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    pass::run(
        Section::parse(workload)?,
        seed,
        Mode::parse(mode)?,
        Path::new(repo),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("pass") {
        match pass_main(&args[1..]) {
            Ok(json) => println!("{}", json.to_string_compact()),
            Err(e) => {
                eprintln!("perfbench pass: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let cli = parse_cli(&args).unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
             --repo DIR --serve-bin PATH --work DIR"
        );
        std::process::exit(2);
    });
    let work = cli.work.join(format!("run-{}", std::process::id()));
    let entered = std::fs::create_dir_all(&work).and_then(|()| std::env::set_current_dir(&work));
    if let Err(e) = entered {
        eprintln!(
            "perfbench: cannot use work directory {}: {e}",
            work.display()
        );
        std::process::exit(1);
    }
    let line = match cli.workload {
        Workload::ServeMix => serve_run(&cli),
        Workload::Grids => Ok(grid_run(&cli)),
    };
    let _ = std::env::set_current_dir(&cli.work);
    let _ = std::fs::remove_dir_all(&work);
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
