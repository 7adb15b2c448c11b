//! The `bsched-serve` server binary.
//!
//! ```text
//! bsched-serve --unix /tmp/bsched.sock [--queue-limit N] [--batch-max N]
//! bsched-serve --tcp 127.0.0.1:7421 [--trace-stream] [--jobs N]
//! ```
//!
//! Engine settings come from the usual environment (`BSCHED_JOBS`,
//! `BSCHED_NO_CACHE`, `BSCHED_CACHE_DIR`) with `--jobs`/`--no-cache`/
//! `--cache-dir` overrides. Exit codes: 0 after a graceful wire-level
//! shutdown, 2 on usage or configuration errors.

use bsched_harness::{Engine, EngineConfig};
use bsched_serve::{serve, Endpoint, ServeConfig, ServeCore, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: bsched-serve (--unix PATH | --tcp ADDR) [options]\n\
         \n\
         options:\n\
         \x20 --queue-limit N     admission queue bound (default 1024)\n\
         \x20 --batch-max N       max cells per engine batch (default 64)\n\
         \x20 --trace-stream      capture trace events for submits that ask\n\
         \x20 --jobs N            worker threads (overrides BSCHED_JOBS)\n\
         \x20 --cache-dir PATH    disk cache root (overrides BSCHED_CACHE_DIR)\n\
         \x20 --no-cache          disable the disk cache layer\n\
         \x20 --read-timeout-ms N per-connection read timeout (default 120000)"
    );
    std::process::exit(2);
}

fn bail(msg: &str) -> ! {
    eprintln!("bsched-serve: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut endpoint: Option<Endpoint> = None;
    let mut serve_cfg = ServeConfig::default();
    let mut server_cfg = ServerConfig::default();
    let mut engine_cfg = match EngineConfig::try_from_env() {
        Ok(cfg) => cfg,
        Err(msg) => bail(&msg),
    };

    let mut i = 0;
    let next_value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i)
            .unwrap_or_else(|| bail(&format!("{flag} needs a value")))
            .clone()
    };
    while i < args.len() {
        match args[i].as_str() {
            "--unix" => {
                let path = next_value(&mut i, "--unix");
                endpoint = Some(Endpoint::Unix(path.into()));
            }
            "--tcp" => {
                let addr = next_value(&mut i, "--tcp");
                endpoint = Some(Endpoint::Tcp(addr));
            }
            "--queue-limit" => {
                let v = next_value(&mut i, "--queue-limit");
                serve_cfg.queue_limit = v
                    .parse()
                    .unwrap_or_else(|_| bail(&format!("invalid --queue-limit {v:?}")));
            }
            "--batch-max" => {
                let v = next_value(&mut i, "--batch-max");
                match v.parse() {
                    Ok(n) if n >= 1 => serve_cfg.batch_max = n,
                    _ => bail(&format!("invalid --batch-max {v:?}")),
                }
            }
            "--trace-stream" => serve_cfg.stream_traces = true,
            "--jobs" => {
                let v = next_value(&mut i, "--jobs");
                match v.parse() {
                    Ok(n) if n >= 1 => engine_cfg.jobs = n,
                    _ => bail(&format!("invalid --jobs {v:?}")),
                }
            }
            "--cache-dir" => {
                engine_cfg.cache_dir = next_value(&mut i, "--cache-dir").into();
            }
            "--no-cache" => engine_cfg.disk_cache = false,
            "--read-timeout-ms" => {
                let v = next_value(&mut i, "--read-timeout-ms");
                let ms: u64 = v
                    .parse()
                    .unwrap_or_else(|_| bail(&format!("invalid --read-timeout-ms {v:?}")));
                server_cfg.read_timeout = Duration::from_millis(ms.max(1));
            }
            "--help" | "-h" => usage(),
            other => bail(&format!("unknown flag {other:?} (try --help)")),
        }
        i += 1;
    }
    let Some(endpoint) = endpoint else { usage() };

    let engine = Engine::with_standard_kernels(engine_cfg);
    eprintln!(
        "bsched-serve: engine ready ({} kernels, {} workers, disk cache {})",
        engine.kernel_names().len(),
        engine.jobs(),
        if engine.config().disk_cache {
            "on"
        } else {
            "off"
        }
    );
    let core = Arc::new(ServeCore::new(engine, serve_cfg));
    let dispatcher = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || core.run_dispatcher())
    };
    if let Err(e) = serve(&core, &endpoint, &server_cfg) {
        // serve() already drained on the graceful path; this is a bind
        // or listen failure.
        eprintln!("bsched-serve: {e}");
        std::process::exit(1);
    }
    dispatcher.join().expect("dispatcher thread panicked");
}
