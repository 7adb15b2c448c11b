//! One `serve_mix` pass: a fresh `bsched-serve` (two workers, Unix
//! socket, empty disk cache) driven by a closed loop of clients, each
//! sending its next request only after the previous reply.

use crate::mix::{Mix, References, Request, Served};
use crate::pass::{vm_hwm_mb, JOBS};
use bsched_harness::ExperimentCell;
use bsched_serve::protocol::StatsSnapshot;
use bsched_serve::{Client, Endpoint, SubmitReply};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(120);
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// Wire round trips timed by the probe before the stream starts.
const PINGS: usize = 200;

/// Kills and reaps a child process that was not waited for.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None)) {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct ServePass {
    /// Spawn until the server completes a handshake.
    pub setup_s: f64,
    /// First request sent until the last reply received.
    pub wall_s: f64,
    /// Latency of every completed request.
    pub latencies_ms: Vec<f64>,
    /// Latency of requests whose every cell was served earlier in the
    /// pass (answered from the server's memo store).
    pub warm_ms: Vec<f64>,
    /// Latency of the other requests (at least one cell executes or
    /// joins an in-flight execution).
    pub cold_ms: Vec<f64>,
    /// Wire round trips of the probe (probe passes only).
    pub ping_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed, were refused, or returned a cell that
    /// differs from its committed row.
    pub failed: u64,
    /// The server's peak resident set.
    pub rss_mb: f64,
    /// Cycles of every served cell by canonical key.
    pub cycles: BTreeMap<String, u64>,
    /// The server's counters after the stream (probe passes only).
    pub stats: Option<StatsSnapshot>,
}

#[derive(Default)]
struct ClientOut {
    latencies_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    cycles: BTreeMap<String, u64>,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A cell's identity in the server's caches: verified and unverified
/// results are distinct.
fn served_key(s: &Served, verify: bool) -> String {
    format!("{}#v{}", s.cell.canonical_key(), u8::from(verify))
}

/// Sends client `c`'s share of the stream (requests `c`, `c + n`, …).
/// A request is warm when every cell in it was served before it was
/// sent (`served` is shared by the clients of one pass).
fn drive(
    ep: &Endpoint,
    stream: &[Request],
    (c, n): (usize, usize),
    refs: &References,
    served: &Mutex<HashSet<String>>,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut client = Client::connect(ep, IO_TIMEOUT).ok();
    for req in stream.iter().skip(c).step_by(n) {
        out.attempted += 1;
        let cells: Vec<ExperimentCell> = req.cells.iter().map(|s| s.cell.clone()).collect();
        let keys: Vec<String> = req
            .cells
            .iter()
            .map(|s| served_key(s, req.verify))
            .collect();
        let warm = {
            let seen = served.lock().expect("served set poisoned");
            keys.iter().all(|k| seen.contains(k))
        };
        let Some(conn) = client.as_mut() else {
            out.failed += 1;
            continue;
        };
        let t = Instant::now();
        match conn.submit(&cells, req.verify, false) {
            Ok(SubmitReply::Completed { cells: got, .. }) => {
                let lat = ms(t);
                out.latencies_ms.push(lat);
                if warm {
                    out.warm_ms.push(lat);
                } else {
                    out.cold_ms.push(lat);
                    served.lock().expect("served set poisoned").extend(keys);
                }
                let mut ok = got.len() == req.cells.len();
                for g in &got {
                    let want = usize::try_from(g.index).ok().and_then(|i| req.cells.get(i));
                    match (&g.outcome, want) {
                        (Ok(r), Some(s))
                            if s.expect.matches(&r.metrics, refs)
                                && (r.verified || !req.verify) =>
                        {
                            out.cycles
                                .insert(s.cell.canonical_key().to_string(), r.metrics.cycles);
                        }
                        _ => ok = false,
                    }
                }
                if !ok {
                    out.failed += 1;
                }
            }
            Ok(SubmitReply::Overloaded { .. }) => out.failed += 1,
            Err(e) => {
                eprintln!("perfbench: request failed: {e}");
                out.failed += 1;
                client = Client::connect(ep, IO_TIMEOUT).ok();
            }
        }
    }
    out
}

/// Runs one pass in `dir` (a fresh directory relative to the cwd).
/// With `probe`, times wire round trips before the stream and reads
/// the server's counters after it.
///
/// # Errors
///
/// The server cannot be started, reached, or shut down.
pub fn run_pass(
    serve_bin: &Path,
    dir: &Path,
    mix: &Mix,
    stream: &[Request],
    refs: &References,
    probe: bool,
) -> Result<ServePass, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let log = std::fs::File::create(dir.join("serve.err")).map_err(|e| e.to_string())?;
    let ep = Endpoint::Unix(dir.join("s.sock"));
    let t0 = Instant::now();
    let mut cmd = Command::new(serve_bin);
    cmd.args(["--unix", "s.sock", "--cache-dir", "cache", "--jobs"])
        .arg(JOBS.to_string())
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log);
    for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("BSCHED_")) {
        cmd.env_remove(k);
    }
    let mut server = Reaper(
        cmd.spawn()
            .map_err(|e| format!("cannot start {}: {e}", serve_bin.display()))?,
    );
    let mut control = loop {
        match Client::connect(&ep, IO_TIMEOUT) {
            Ok(c) => break c,
            Err(e) => {
                if let Ok(Some(status)) = server.0.try_wait() {
                    return Err(format!("bsched-serve exited during start-up: {status}"));
                }
                if t0.elapsed() > START_TIMEOUT {
                    return Err(format!("bsched-serve did not accept connections: {e}"));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    };
    let mut pass = ServePass {
        setup_s: t0.elapsed().as_secs_f64(),
        ..ServePass::default()
    };
    if probe {
        for _ in 0..PINGS {
            let t = Instant::now();
            control.ping().map_err(|e| format!("ping: {e}"))?;
            pass.ping_ms.push(ms(t));
        }
    }

    let served = Mutex::new(HashSet::new());
    let t = Instant::now();
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..mix.clients)
            .map(|c| {
                let (ep, served) = (&ep, &served);
                s.spawn(move || drive(ep, stream, (c, mix.clients), refs, served))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    pass.wall_s = t.elapsed().as_secs_f64();

    let status =
        std::fs::read_to_string(format!("/proc/{}/status", server.0.id())).unwrap_or_default();
    pass.rss_mb = vm_hwm_mb(&status);
    for o in outs {
        pass.latencies_ms.extend(o.latencies_ms);
        pass.warm_ms.extend(o.warm_ms);
        pass.cold_ms.extend(o.cold_ms);
        pass.attempted += o.attempted;
        pass.failed += o.failed;
        pass.cycles.extend(o.cycles);
    }
    if probe {
        pass.stats = Some(control.stats().map_err(|e| format!("stats: {e}"))?);
    }
    control.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    while matches!(server.0.try_wait(), Ok(None)) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(server);
    Ok(pass)
}
