//! The `bsched-client` binary: a client and load generator for
//! `bsched-serve`.
//!
//! ```text
//! bsched-client --connect unix:/tmp/bsched.sock grid [--kernels A,B] [--verify]
//! bsched-client --connect tcp:127.0.0.1:7421 loadgen --mix crates/bench/mixes/serving_default.json \
//!     --requests 200 --clients 4 [--seed HEX] [--json BENCH_pr6.json]
//! bsched-client --connect ... stats | ping | shutdown
//! ```
//!
//! `grid` submits the experiment grid and prints the **same table, byte
//! for byte**, as a direct `all_experiments` run — the equivalence the
//! serve smoke test in `scripts/ci.sh` checks with `diff`.
//!
//! `loadgen` replays a recorded weighted request mix (JSON; see
//! `crates/bench/mixes/`) from N concurrent client connections with a
//! seeded deterministic request stream, retries `overloaded` rejections
//! with backoff, and reports throughput, latency percentiles, and the
//! server's cache hit rates. `--json` writes the report for the
//! `BENCH_pr6.json` record.

use bsched_bench::cli::{self, Args};
use bsched_bench::render_grid;
use bsched_harness::ExperimentCell;
use bsched_pipeline::standard_grid;
use bsched_serve::protocol::cell_from_json;
use bsched_serve::{Client, Endpoint, SubmitReply};
use bsched_util::{Json, Prng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: bsched-client --connect (unix:PATH | tcp:ADDR) COMMAND [options]\n\
         \n\
         commands:\n\
         \x20 grid      submit the experiment grid, print the all_experiments table\n\
         \x20           [--kernels A,B,...] [--verify] [--trace]\n\
         \x20 loadgen   replay a weighted request mix and measure serving\n\
         \x20           --mix PATH [--requests N] [--clients N] [--seed HEX] [--json PATH]\n\
         \x20 stats     print the server's counter snapshot\n\
         \x20 ping      round-trip a liveness probe\n\
         \x20 shutdown  ask the server to drain and exit"
    );
    std::process::exit(2);
}

fn bail(msg: &str) -> ! {
    eprintln!("bsched-client: {msg}");
    std::process::exit(2);
}

fn run_fail(msg: &str) -> ! {
    eprintln!("bsched-client: {msg}");
    std::process::exit(1);
}

const CONNECT_TIMEOUT: Duration = Duration::from_secs(300);

fn connect(endpoint: &Endpoint) -> Client {
    match Client::connect(endpoint, CONNECT_TIMEOUT) {
        Ok(c) => c,
        Err(e) => run_fail(&format!("cannot connect to {endpoint}: {e}")),
    }
}

/// Builds a shorthand cell the same way the wire protocol parses one,
/// so a mix entry and a direct submit agree on the exact options.
fn shorthand_cell(kernel: &str, scheduler: &str, config: &str) -> Result<ExperimentCell, String> {
    let doc = Json::obj(vec![
        ("kernel", Json::Str(kernel.to_string())),
        ("scheduler", Json::Str(scheduler.to_string())),
        ("config", Json::Str(config.to_string())),
    ]);
    cell_from_json(&doc).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------- grid

fn cmd_grid(endpoint: &Endpoint, args: &[String]) {
    let mut kernels = cli::all_kernel_names();
    let mut verify = false;
    let mut trace = false;
    let mut args = Args::new(args.iter().cloned());
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--verify" => verify = true,
            "--trace" => trace = true,
            "--kernels" => kernels = cli::parse_kernel_list(&args.value()),
            _ => args.unknown(),
        }
    }
    let configs = standard_grid();
    let cells: Vec<ExperimentCell> = kernels
        .iter()
        .flat_map(|k| configs.iter().map(|c| ExperimentCell::new(k, c.options())))
        .collect();

    let mut client = connect(endpoint);
    let reply = match client.submit(&cells, verify, trace) {
        Ok(r) => r,
        Err(e) => run_fail(&format!("submit failed: {e}")),
    };
    let received = match reply {
        SubmitReply::Completed { cells, .. } => cells,
        SubmitReply::Overloaded { queued, limit } => run_fail(&format!(
            "server overloaded (queue {queued}/{limit}); retry later"
        )),
    };
    debug_assert_eq!(received.len(), cells.len());

    // The all_experiments renderer, so `diff` proves the serve path
    // reproduces the direct path byte for byte.
    let mut served = received.iter();
    let table = render_grid(&kernels, &configs, false, |_, _| {
        let rc = served.next().expect("one result per cell");
        match &rc.outcome {
            Ok(result) => result.metrics.clone(),
            Err(msg) => run_fail(&format!("cell {} failed: {msg}", rc.cell)),
        }
    });
    print!("{table}");
    let trace_events: usize = received.iter().map(|rc| rc.trace.len()).sum();
    eprintln!(
        "bsched-client: {} cells served by {}{}",
        received.len(),
        client.server,
        if trace {
            format!(", {trace_events} trace events")
        } else {
            String::new()
        }
    );
}

// ------------------------------------------------------------- loadgen

struct MixEntry {
    weight: u64,
    verify: bool,
    cells: Vec<ExperimentCell>,
}

struct Mix {
    name: String,
    entries: Vec<MixEntry>,
    total_weight: u64,
}

fn load_mix(path: &str) -> Mix {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| bail(&format!("cannot read mix {path}: {e}")));
    let doc = Json::parse(&text).unwrap_or_else(|e| bail(&format!("mix {path}: {e}")));
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("unnamed")
        .to_string();
    let Some(Json::Arr(raw_entries)) = doc.get("entries") else {
        bail(&format!("mix {path}: missing \"entries\" array"));
    };
    let mut entries = Vec::new();
    for (n, e) in raw_entries.iter().enumerate() {
        let weight = e.get("weight").and_then(Json::as_u64).unwrap_or(1).max(1);
        let verify = e.get("verify").and_then(Json::as_bool).unwrap_or(false);
        let strings = |key: &str| -> Vec<String> {
            match e.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect(),
                _ => Vec::new(),
            }
        };
        let kernels = strings("kernels");
        let configs = strings("configs");
        let schedulers = strings("schedulers");
        if kernels.is_empty() || configs.is_empty() || schedulers.is_empty() {
            bail(&format!(
                "mix {path}: entry {n} needs kernels, configs, and schedulers"
            ));
        }
        let mut cells = Vec::new();
        for k in &kernels {
            for c in &configs {
                for s in &schedulers {
                    match shorthand_cell(k, s, c) {
                        Ok(cell) => cells.push(cell),
                        Err(msg) => bail(&format!("mix {path}: entry {n}: {msg}")),
                    }
                }
            }
        }
        entries.push(MixEntry {
            weight,
            verify,
            cells,
        });
    }
    if entries.is_empty() {
        bail(&format!("mix {path}: no entries"));
    }
    let total_weight = entries.iter().map(|e| e.weight).sum();
    Mix {
        name,
        entries,
        total_weight,
    }
}

fn pick_entry<'m>(mix: &'m Mix, rng: &mut Prng) -> &'m MixEntry {
    let mut ticket = rng.range_u64(0, mix.total_weight);
    for entry in &mix.entries {
        if ticket < entry.weight {
            return entry;
        }
        ticket -= entry.weight;
    }
    mix.entries.last().expect("nonempty mix")
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[allow(clippy::too_many_lines)]
fn cmd_loadgen(endpoint: &Endpoint, args: &[String]) {
    let mut mix_path: Option<String> = None;
    let mut requests: u64 = 100;
    let mut clients: u64 = 2;
    let mut seed: u64 = 0xB5ED_5E1F;
    let mut json_out: Option<String> = None;
    let number = |flag: &str, v: &str| cli::parse_u64(flag, v, "a number");
    let mut args = Args::new(args.iter().cloned());
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--mix" => mix_path = Some(args.value()),
            "--requests" => requests = number(&flag, &args.value()).max(1),
            "--clients" => clients = number(&flag, &args.value()).max(1),
            "--seed" => seed = number(&flag, &args.value()),
            "--json" => json_out = Some(args.value()),
            _ => args.unknown(),
        }
    }
    let mix_path = mix_path.unwrap_or_else(|| bail("loadgen needs --mix PATH"));
    let mix = load_mix(&mix_path);

    // Pre-run server snapshot, so hit rates cover only this run.
    let before = match connect(endpoint).stats() {
        Ok(s) => s,
        Err(e) => run_fail(&format!("stats failed: {e}")),
    };

    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let cells_served = AtomicU64::new(0);
    let overloads = AtomicU64::new(0);
    let failures = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let mine = requests / clients + u64::from(c < requests % clients);
            let mix = &mix;
            let latencies = &latencies;
            let cells_served = &cells_served;
            let overloads = &overloads;
            let failures = &failures;
            scope.spawn(move || {
                let mut rng = Prng::new(seed ^ (c.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
                let mut client = connect(endpoint);
                for _ in 0..mine {
                    let entry = pick_entry(mix, &mut rng);
                    let t = Instant::now();
                    let mut attempts = 0u32;
                    loop {
                        match client.submit(&entry.cells, entry.verify, false) {
                            Ok(SubmitReply::Completed { cells, .. }) => {
                                let lat = t.elapsed().as_secs_f64() * 1e3;
                                cells_served.fetch_add(cells.len() as u64, Ordering::Relaxed);
                                if cells.iter().any(|c| c.outcome.is_err()) {
                                    failures.fetch_add(1, Ordering::Relaxed);
                                }
                                latencies.lock().expect("latencies").push(lat);
                                break;
                            }
                            Ok(SubmitReply::Overloaded { .. }) => {
                                // Backpressure: back off and retry — the
                                // server queued nothing for us.
                                overloads.fetch_add(1, Ordering::Relaxed);
                                attempts += 1;
                                if attempts > 1000 {
                                    failures.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                std::thread::sleep(Duration::from_millis(
                                    5 * u64::from(attempts.min(20)),
                                ));
                            }
                            Err(e) => {
                                failures.fetch_add(1, Ordering::Relaxed);
                                eprintln!("bsched-client: request failed: {e}");
                                break;
                            }
                        }
                    }
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();

    let after = match connect(endpoint).stats() {
        Ok(s) => s,
        Err(e) => run_fail(&format!("stats failed: {e}")),
    };

    let mut lats = latencies.into_inner().expect("latencies");
    lats.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    let served = cells_served.load(Ordering::Relaxed);
    let overloaded = overloads.load(Ordering::Relaxed);
    let failed = failures.load(Ordering::Relaxed);
    let hits = (after.memory_hits + after.disk_hits) - (before.memory_hits + before.disk_hits);
    let requested = after.requested - before.requested;
    let executed = after.executed - before.executed;
    let joined = after.joined_inflight - before.joined_inflight;
    let hit_rate = if requested == 0 {
        0.0
    } else {
        hits as f64 / requested as f64
    };
    let p50 = percentile(&lats, 50.0);
    let p90 = percentile(&lats, 90.0);
    let p99 = percentile(&lats, 99.0);
    let pmax = lats.last().copied().unwrap_or(0.0);
    let throughput_req = lats.len() as f64 / wall;
    let throughput_cells = served as f64 / wall;

    println!("mix            {}", mix.name);
    println!("clients        {clients}");
    println!(
        "requests       {} completed / {requests} issued",
        lats.len()
    );
    println!("cells served   {served}");
    println!("wall           {wall:.3} s");
    println!("throughput     {throughput_req:.1} req/s, {throughput_cells:.1} cells/s");
    println!("latency ms     p50 {p50:.2}  p90 {p90:.2}  p99 {p99:.2}  max {pmax:.2}");
    println!("overloaded     {overloaded} rejections (retried with backoff)");
    println!("failures       {failed}");
    println!("cache          {hits}/{requested} engine hits ({:.1}%), {executed} executed, {joined} joined in-flight", hit_rate * 100.0);

    if let Some(path) = json_out {
        let doc = Json::obj(vec![
            ("bench", Json::Str("pr6_serving".to_string())),
            ("mix", Json::Str(mix.name.clone())),
            ("clients", Json::u64(clients)),
            ("requests_issued", Json::u64(requests)),
            ("requests_completed", Json::u64(lats.len() as u64)),
            ("cells_served", Json::u64(served)),
            ("wall_seconds", Json::Num(wall)),
            ("throughput_requests_per_sec", Json::Num(throughput_req)),
            ("throughput_cells_per_sec", Json::Num(throughput_cells)),
            (
                "latency_ms",
                Json::obj(vec![
                    ("p50", Json::Num(p50)),
                    ("p90", Json::Num(p90)),
                    ("p99", Json::Num(p99)),
                    ("max", Json::Num(pmax)),
                ]),
            ),
            ("overloaded_rejections", Json::u64(overloaded)),
            ("failures", Json::u64(failed)),
            ("warm_hit_rate", Json::Num(hit_rate)),
            ("engine_hits", Json::u64(hits)),
            ("engine_requested", Json::u64(requested)),
            ("engine_executed", Json::u64(executed)),
            ("joined_inflight", Json::u64(joined)),
        ]);
        match std::fs::write(&path, doc.to_string_compact() + "\n") {
            Ok(()) => eprintln!("bsched-client: wrote {path}"),
            Err(e) => run_fail(&format!("cannot write {path}: {e}")),
        }
    }
    if failed > 0 {
        std::process::exit(1);
    }
}

// ------------------------------------------------------------- helpers

fn cmd_stats(endpoint: &Endpoint) {
    match connect(endpoint).stats() {
        Ok(s) => {
            println!("submits          {}", s.submits);
            println!("submitted_cells  {}", s.submitted_cells);
            println!("joined_inflight  {}", s.joined_inflight);
            println!("rejected_submits {}", s.rejected_submits);
            println!("completed_cells  {}", s.completed_cells);
            println!("failed_cells     {}", s.failed_cells);
            println!("queue            {}/{}", s.queue_depth, s.queue_limit);
            println!("engine executed  {}", s.executed);
            println!("engine requested {}", s.requested);
            println!("memory_hits      {}", s.memory_hits);
            println!("disk_hits        {}", s.disk_hits);
            println!("verified         {}", s.verified);
            println!("store hits/miss  {}/{}", s.store_hits, s.store_misses);
        }
        Err(e) => run_fail(&format!("stats failed: {e}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut endpoint: Option<Endpoint> = None;
    let mut rest_start = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--connect" => {
                i += 1;
                let v = args
                    .get(i)
                    .unwrap_or_else(|| bail("--connect needs a value"));
                endpoint = Some(Endpoint::parse(v).unwrap_or_else(|e| bail(&e)));
            }
            "--help" | "-h" => usage(),
            _ => {
                rest_start = Some(i);
                break;
            }
        }
        i += 1;
    }
    let Some(endpoint) = endpoint else {
        usage();
    };
    let Some(start) = rest_start else { usage() };
    let command = args[start].as_str();
    let rest = &args[start + 1..];
    match command {
        "grid" => cmd_grid(&endpoint, rest),
        "loadgen" => cmd_loadgen(&endpoint, rest),
        "stats" => cmd_stats(&endpoint),
        "ping" => match connect(&endpoint).ping() {
            Ok(()) => println!("pong"),
            Err(e) => run_fail(&format!("ping failed: {e}")),
        },
        "shutdown" => match connect(&endpoint).shutdown() {
            Ok(()) => eprintln!("bsched-client: server acknowledged shutdown"),
            Err(e) => run_fail(&format!("shutdown failed: {e}")),
        },
        other => bail(&format!("unknown command {other:?} (try --help)")),
    }
}
