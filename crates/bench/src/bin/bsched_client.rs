//! The `bsched-client` binary: a command-line client for
//! `bsched-serve`.
//!
//! ```text
//! bsched-client --connect unix:/tmp/bsched.sock grid [--kernels A,B] [--verify]
//! bsched-client --connect ... stats | ping | shutdown
//! ```
//!
//! `grid` submits the experiment grid and prints the **same table, byte
//! for byte**, as a direct `all_experiments` run — the equivalence the
//! serve smoke test in `scripts/ci.sh` checks with `diff`. Serving
//! performance is measured by `perfbench`'s `serve_mix` workload.

use bsched_bench::cli::{self, Args};
use bsched_bench::render_grid;
use bsched_harness::ExperimentCell;
use bsched_pipeline::standard_grid;
use bsched_serve::{Client, Endpoint, SubmitReply};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: bsched-client --connect (unix:PATH | tcp:ADDR) COMMAND [options]\n\
         \n\
         commands:\n\
         \x20 grid      submit the experiment grid, print the all_experiments table\n\
         \x20           [--kernels A,B,...] [--verify] [--trace]\n\
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
    if matches!(command, "stats" | "ping" | "shutdown") {
        // These take no arguments: reject any before connecting, as
        // grid rejects a bad flag.
        Args::new(rest.iter().cloned()).none();
    }
    match command {
        "grid" => cmd_grid(&endpoint, rest),
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
