//! End-to-end serving tests over real Unix sockets: serve-vs-direct
//! equivalence (results and cache entries), bounded backpressure with
//! recovery, and cross-client in-flight deduplication.

use bsched_harness::{encode_metrics, Engine, EngineConfig, ExperimentCell};
use bsched_pipeline::standard_grid;
use bsched_serve::{serve, Client, Endpoint, ServeConfig, ServeCore, ServerConfig, SubmitReply};
use std::path::{Path, PathBuf};
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
        let core = Arc::new(ServeCore::new(engine, cfg));
        let endpoint = Endpoint::Unix(sock_path(tag));
        let dispatcher = start_dispatcher.then(|| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.run_dispatcher())
        });
        let serve_thread = {
            let core = Arc::clone(&core);
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                serve(&core, &endpoint, &ServerConfig::default()).expect("serve");
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

fn cache_files(dir: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    let Ok(entries) =
        std::fs::read_dir(dir.join(format!("v{}", bsched_harness::CACHE_SCHEMA_VERSION)))
    else {
        return files;
    };
    for entry in entries {
        let entry = entry.expect("dir entry");
        files.push((
            entry.file_name().to_string_lossy().to_string(),
            std::fs::read_to_string(entry.path()).expect("cache file"),
        ));
    }
    files.sort();
    files
}

#[test]
fn served_grid_matches_direct_run_cold_and_warm_including_cache_entries() {
    // A slice of the grid keeps the verified debug-build runtime sane;
    // the ci.sh serve smoke covers the full grid in release.
    let cells: Vec<ExperimentCell> = small_grid(&["TRFD"]).into_iter().take(4).collect();

    // Direct path: its own engine, its own cache directory.
    let direct_dir = tmp_dir("direct");
    let direct = Engine::with_standard_kernels(
        EngineConfig::default()
            .with_jobs(2)
            .with_cache_dir(direct_dir.clone()),
    );
    for outcome in direct.run_where(&cells, true) {
        outcome.expect("direct run");
    }

    // Served path: a second engine behind the wire protocol.
    let served_dir = tmp_dir("served");
    let engine = Engine::with_standard_kernels(
        EngineConfig::default()
            .with_jobs(2)
            .with_cache_dir(served_dir.clone()),
    );
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
            // Byte-identical through the shared codec — the exact bytes
            // both the disk cache and the wire carry.
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

    // Identical cache entries: same file names, same bytes.
    let direct_files = cache_files(&direct_dir);
    let served_files = cache_files(&served_dir);
    assert_eq!(direct_files.len(), cells.len());
    assert_eq!(direct_files, served_files, "cache entries diverge");

    let _ = std::fs::remove_dir_all(&direct_dir);
    let _ = std::fs::remove_dir_all(&served_dir);
}

#[test]
fn full_queue_rejects_with_overloaded_and_recovers_after_drain() {
    let engine =
        Engine::with_standard_kernels(EngineConfig::default().with_jobs(2).with_disk_cache(false));
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
    let engine =
        Engine::with_standard_kernels(EngineConfig::default().with_jobs(2).with_disk_cache(false));
    // Dispatcher held back until every client's submit is admitted, so
    // the later submits demonstrably join in-flight jobs rather than
    // hitting a warm cache.
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
fn client_disconnect_mid_stream_does_not_leak_queue_slots() {
    let engine =
        Engine::with_standard_kernels(EngineConfig::default().with_jobs(2).with_disk_cache(false));
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

    // The work still completes into the shared cache, and the queue
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

    // A follow-up client gets the abandoned work from the warm cache.
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
