//! End-to-end serving tests over real Unix sockets: serve-vs-direct
//! equivalence, bounded backpressure with recovery, cross-client
//! in-flight deduplication, prompt shutdown with idle clients
//! connected, and a server that writes no file.

use bsched_harness::{encode_metrics, Engine, EngineConfig, ExperimentCell};
use bsched_pipeline::standard_grid;
use bsched_serve::{serve, Client, Endpoint, ServeConfig, ServeCore, ServerConfig, SubmitReply};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

static NEXT_SOCK: AtomicU64 = AtomicU64::new(0);

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "bsched-serve-{tag}-{}-{}.sock",
        std::process::id(),
        NEXT_SOCK.fetch_add(1, Ordering::Relaxed)
    ))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bsched-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A server running in-process on its own threads. `start_dispatcher`
/// false leaves the queue undrained so tests can observe a full queue
/// deterministically.
struct TestServer {
    core: Arc<ServeCore>,
    endpoint: Endpoint,
    serve_thread: Option<std::thread::JoinHandle<()>>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(engine: Engine, cfg: ServeConfig, tag: &str, start_dispatcher: bool) -> TestServer {
        TestServer::start_with(engine, cfg, &ServerConfig::default(), tag, start_dispatcher)
    }

    fn start_with(
        engine: Engine,
        cfg: ServeConfig,
        server_cfg: &ServerConfig,
        tag: &str,
        start_dispatcher: bool,
    ) -> TestServer {
        let core = Arc::new(ServeCore::new(engine, cfg));
        let endpoint = Endpoint::Unix(sock_path(tag));
        let dispatcher = start_dispatcher.then(|| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.run_dispatcher())
        });
        let serve_thread = {
            let core = Arc::clone(&core);
            let endpoint = endpoint.clone();
            let server_cfg = server_cfg.clone();
            std::thread::spawn(move || {
                serve(&core, &endpoint, &server_cfg).expect("serve");
            })
        };
        // Wait for the socket to exist before handing out the endpoint.
        let Endpoint::Unix(path) = &endpoint else {
            unreachable!()
        };
        for _ in 0..200 {
            if path.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        TestServer {
            core,
            endpoint,
            serve_thread: Some(serve_thread),
            dispatcher,
        }
    }

    fn start_dispatcher(&mut self) {
        assert!(self.dispatcher.is_none());
        let core = Arc::clone(&self.core);
        self.dispatcher = Some(std::thread::spawn(move || core.run_dispatcher()));
    }

    fn client(&self) -> Client {
        Client::connect(&self.endpoint, Duration::from_secs(120)).expect("connect")
    }

    fn shutdown(mut self) {
        self.client().shutdown().expect("shutdown");
        self.serve_thread
            .take()
            .expect("running")
            .join()
            .expect("serve thread");
        if let Some(d) = self.dispatcher.take() {
            d.join().expect("dispatcher");
        }
    }
}

fn small_grid(kernels: &[&str]) -> Vec<ExperimentCell> {
    let configs = standard_grid();
    kernels
        .iter()
        .flat_map(|k| configs.iter().map(|c| ExperimentCell::new(k, c.options())))
        .collect()
}

/// Distinct cheap cells (unoptimized TRFD with varied weight caps) for
/// tests that exercise queueing/dedup mechanics rather than grid
/// semantics — debug-build friendly.
fn cheap_cells(n: usize) -> Vec<ExperimentCell> {
    use bsched_pipeline::{CompileOptions, SchedulerKind};
    (0..n)
        .map(|i| {
            let mut o = CompileOptions::new(SchedulerKind::Balanced);
            o.weight_cap = 10 + i as u32;
            ExperimentCell::new("TRFD", o)
        })
        .collect()
}

#[test]
fn served_grid_matches_direct_run_cold_and_warm() {
    // A slice of the grid keeps the verified debug-build runtime sane;
    // the ci.sh serve smoke covers the full grid in release.
    let cells: Vec<ExperimentCell> = small_grid(&["TRFD"]).into_iter().take(4).collect();

    // Direct path: its own engine.
    let direct = Engine::with_standard_kernels(EngineConfig::default().with_jobs(2));
    for outcome in direct.run_where(&cells, true) {
        outcome.expect("direct run");
    }

    // Served path: a second engine behind the wire protocol.
    let engine = Engine::with_standard_kernels(EngineConfig::default().with_jobs(2));
    let server = TestServer::start(engine, ServeConfig::default(), "equiv", true);

    for round in ["cold", "warm"] {
        let mut client = server.client();
        let reply = client.submit(&cells, true, false).expect("submit");
        let SubmitReply::Completed {
            cells: received, ..
        } = reply
        else {
            panic!("{round}: unexpected overload");
        };
        assert_eq!(received.len(), cells.len());
        for (cell, rc) in cells.iter().zip(&received) {
            assert_eq!(rc.key, cell.canonical_key(), "{round}: key mismatch");
            let served = rc.outcome.as_ref().expect("cell ok");
            let direct_result = direct.result(cell).expect("direct result");
            // Byte-identical through the wire codec.
            assert_eq!(
                encode_metrics(&served.metrics).to_string_compact(),
                encode_metrics(&direct_result.metrics).to_string_compact(),
                "{round}: metrics diverge for {cell}"
            );
            assert!(served.verified, "{round}: served cell not verified");
        }
    }

    // Warm round was served from memory: no extra executions.
    let stats = server.client().stats().expect("stats");
    assert_eq!(stats.executed, cells.len() as u64);
    assert!(
        stats.memory_hits >= cells.len() as u64,
        "warm round must hit the memory layer, got {} hits",
        stats.memory_hits
    );
    server.shutdown();
}

/// A client that stays connected but idle leaves its handler blocked
/// in a read; shutdown must end that read rather than wait out the
/// server's read timeout.
#[test]
fn shutdown_ends_idle_connections_instead_of_waiting_out_the_read_timeout() {
    let engine = Engine::with_standard_kernels(EngineConfig::default().with_jobs(1));
    let server_cfg = ServerConfig {
        read_timeout: Duration::from_secs(3600),
        ..ServerConfig::default()
    };
    let server = TestServer::start_with(engine, ServeConfig::default(), &server_cfg, "idle", true);
    let mut idle = server.client();
    idle.ping().expect("ping");

    let (done, returned) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    returned
        .recv_timeout(Duration::from_secs(30))
        .expect("serve must return soon after a wire shutdown, not after the read timeout");
    stopper.join().expect("shutdown thread");
    drop(idle);
}

/// `--cache-dir` is accepted and ignored: a server given one computes
/// in memory, creates no such directory, and leaves its working
/// directory as it found it.
#[test]
fn a_server_given_a_cache_dir_never_creates_it() {
    let dir = tmp_dir("cache-dir");
    std::fs::create_dir_all(&dir).expect("create the working directory");
    let sock = dir.join("s.sock");
    let cache = dir.join("cache");
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_bsched-serve"));
    cmd.arg("--unix")
        .arg(&sock)
        .arg("--cache-dir")
        .arg(&cache)
        .args(["--jobs", "1"])
        .current_dir(&dir)
        .stderr(std::process::Stdio::null());
    for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("BSCHED_")) {
        cmd.env_remove(k);
    }
    let mut child = cmd.spawn().expect("start bsched-serve");
    for _ in 0..500 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut client = Client::connect(&Endpoint::Unix(sock), Duration::from_secs(120))
        .expect("connect to bsched-serve");
    let cells = cheap_cells(2);
    match client.submit(&cells, false, false).expect("submit") {
        SubmitReply::Completed { cells: got, .. } => {
            assert_eq!(got.len(), cells.len());
            assert!(got.iter().all(|c| c.outcome.is_ok()), "{got:?}");
        }
        SubmitReply::Overloaded { .. } => panic!("default queue must admit"),
    }
    client.shutdown().expect("shutdown");
    let status = child.wait().expect("bsched-serve exits");
    let created = cache.exists();
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("read the working directory")
        .map(|e| e.expect("directory entry").file_name())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(status.success(), "bsched-serve exited with {status}");
    assert!(!created, "--cache-dir created {}", cache.display());
    assert!(left.is_empty(), "the server left {left:?} behind");
}

#[test]
fn full_queue_rejects_with_overloaded_and_recovers_after_drain() {
    let engine = Engine::with_standard_kernels(EngineConfig::default().with_jobs(2));
    // Queue bounded at 4; dispatcher held back so the queue stays full.
    let mut server = TestServer::start(
        engine,
        ServeConfig {
            queue_limit: 4,
            ..ServeConfig::default()
        },
        "backpressure",
        false,
    );

    let grid = cheap_cells(15); // 15 cells > 4
    let four: Vec<ExperimentCell> = grid[..4].to_vec();
    let rest: Vec<ExperimentCell> = grid[4..].to_vec();

    // Fill the queue from a background client (its submit blocks until
    // results stream back, which needs the dispatcher).
    let filler = {
        let endpoint = server.endpoint.clone();
        let four = four.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint, Duration::from_secs(120)).expect("connect");
            match client.submit(&four, false, false).expect("fill submit") {
                SubmitReply::Completed { cells, .. } => cells.len(),
                SubmitReply::Overloaded { .. } => panic!("filler must be admitted"),
            }
        })
    };
    // Wait until the filler's jobs are queued.
    for _ in 0..200 {
        if server.core.stats().queue_depth == 4 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.core.stats().queue_depth, 4);

    // Queue is full: a distinct submit must bounce, whole, immediately.
    let mut client = server.client();
    match client.submit(&rest, false, false).expect("submit") {
        SubmitReply::Overloaded { queued, limit } => {
            assert_eq!((queued, limit), (4, 4));
        }
        SubmitReply::Completed { .. } => panic!("full queue must reject"),
    }
    assert_eq!(
        server.core.stats().queue_depth,
        4,
        "rejection queued nothing"
    );
    assert_eq!(server.core.stats().rejected_submits, 1);

    // Recovery: once the dispatcher drains the queue, submits that fit
    // the bound are admitted again and complete (the client's remedy
    // for overload is exactly this — retry within the limit).
    server.start_dispatcher();
    assert_eq!(filler.join().expect("filler"), 4);
    for chunk in rest.chunks(4) {
        let mut served = None;
        for _ in 0..200 {
            match client.submit(chunk, false, false).expect("retry") {
                SubmitReply::Completed { cells, .. } => {
                    served = Some(cells);
                    break;
                }
                // A previous chunk may still occupy the queue briefly.
                SubmitReply::Overloaded { .. } => {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        let served = served.expect("drained queue must admit within-limit submits");
        assert_eq!(served.len(), chunk.len());
        assert!(served.iter().all(|c| c.outcome.is_ok()));
    }
    server.shutdown();
}

#[test]
fn concurrent_clients_submitting_one_cold_grid_compute_each_cell_once() {
    let engine = Engine::with_standard_kernels(EngineConfig::default().with_jobs(2));
    // Dispatcher held back until every client's submit is admitted, so
    // the later submits demonstrably join in-flight jobs rather than
    // hitting the warm store.
    let mut server = TestServer::start(engine, ServeConfig::default(), "dedup", false);
    let grid = cheap_cells(12);

    const CLIENTS: usize = 3;
    let mut waiters = Vec::new();
    for _ in 0..CLIENTS {
        let endpoint = server.endpoint.clone();
        let grid = grid.clone();
        waiters.push(std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint, Duration::from_secs(120)).expect("connect");
            match client.submit(&grid, false, false).expect("submit") {
                SubmitReply::Completed { cells, .. } => {
                    assert!(cells.iter().all(|c| c.outcome.is_ok()));
                    cells.len()
                }
                SubmitReply::Overloaded { .. } => panic!("default queue must admit"),
            }
        }));
    }
    // All three submits admitted (queue holds the one unique copy).
    for _ in 0..500 {
        let s = server.core.stats();
        if s.submits == CLIENTS as u64 && s.queue_depth == grid.len() as u64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let before = server.core.stats();
    assert_eq!(before.queue_depth, grid.len() as u64, "one copy queued");
    assert_eq!(
        before.joined_inflight,
        (grid.len() * (CLIENTS - 1)) as u64,
        "later clients join every in-flight cell"
    );

    server.start_dispatcher();
    for w in waiters {
        assert_eq!(w.join().expect("client"), grid.len());
    }
    let stats = server.client().stats().expect("stats");
    assert_eq!(
        stats.executed,
        grid.len() as u64,
        "each cell computed exactly once for {CLIENTS} clients"
    );
    server.shutdown();
}

#[test]
fn streamed_traces_carry_each_cold_cells_own_events() {
    let engine = Engine::with_standard_kernels(EngineConfig::default().with_jobs(2));
    let cfg = ServeConfig {
        stream_traces: true,
        ..ServeConfig::default()
    };
    let server = TestServer::start(engine, cfg, "trace", true);
    // Cells with distinct labels: each stream is keyed by its cell's.
    let cells: Vec<ExperimentCell> = small_grid(&["TRFD"]).into_iter().take(3).collect();
    let submit = || match server.client().submit(&cells, false, true).expect("submit") {
        SubmitReply::Completed { cells, .. } => cells,
        SubmitReply::Overloaded { .. } => panic!("default queue must admit"),
    };

    // Each cold cell's compile and simulation are labelled with the
    // kernel or function, not the cell, yet they stream with the cell
    // whose span contains them.
    for rc in &submit() {
        for (cat, name) in [("harness", "cell"), ("pipeline", "compile"), ("sim", "run")] {
            let found = rc.trace.iter().any(|e| e.cat == cat && e.name == name);
            assert!(found, "{}: no {cat}.{name} event", rc.cell);
        }
    }
    // A warm cell executes nothing, so it streams nothing.
    let warm = submit();
    assert!(warm.iter().all(|rc| rc.trace.is_empty()), "{warm:?}");
    server.shutdown();
}

#[test]
fn client_disconnect_mid_stream_does_not_leak_queue_slots() {
    let engine = Engine::with_standard_kernels(EngineConfig::default().with_jobs(2));
    let server = TestServer::start(engine, ServeConfig::default(), "disconnect", true);
    let grid = cheap_cells(8);

    // Hand-roll a submit and hang up immediately, before reading any
    // result frame.
    {
        use bsched_serve::{Request, SubmitRequest};
        let Endpoint::Unix(path) = &server.endpoint else {
            unreachable!()
        };
        let mut stream = std::os::unix::net::UnixStream::connect(path).expect("connect");
        bsched_util::write_frame(
            &mut stream,
            &Request::Submit(SubmitRequest {
                id: 7,
                verify: false,
                trace: false,
                cells: grid.clone(),
            })
            .to_json(),
        )
        .expect("write");
        // Dropping the stream here closes the connection mid-stream.
    }

    // The work still completes into the shared memo store, and the queue
    // drains to empty — the abandoned submit leaked nothing.
    for _ in 0..1000 {
        let s = server.core.stats();
        if s.completed_cells >= grid.len() as u64 && s.queue_depth == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = server.core.stats();
    assert_eq!(stats.queue_depth, 0, "abandoned jobs must drain");
    assert_eq!(stats.completed_cells, grid.len() as u64);

    // A follow-up client gets the abandoned work from the warm store.
    let mut client = server.client();
    match client.submit(&grid, false, false).expect("submit") {
        SubmitReply::Completed { cells, .. } => assert_eq!(cells.len(), grid.len()),
        SubmitReply::Overloaded { .. } => panic!("must admit"),
    }
    let stats = server.client().stats().expect("stats");
    assert_eq!(
        stats.executed,
        grid.len() as u64,
        "no recompute after disconnect"
    );
    server.shutdown();
}
