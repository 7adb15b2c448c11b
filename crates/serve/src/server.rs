//! The network front end: socket listeners, per-connection handlers,
//! and the accept/shutdown loop.
//!
//! Each accepted connection gets a handler thread speaking the framed
//! protocol of [`crate::protocol`]. Handlers are deliberately
//! defensive: a malformed frame, an oversized length prefix, a wrong
//! schema version, or a read timeout kills *that connection* with a
//! best-effort `error` frame — never the server, and never a queue
//! slot (jobs leave the admission queue only by completing, and results
//! land in the shared memo store whether or not their submitter is still
//! around to read them).
//!
//! Shutdown is a wire request, not a signal: a `shutdown` frame flips a
//! flag the accept loop polls, the listener stops accepting, the core
//! drains (finishing queued and running work), every connection is shut
//! down for reading (so an idle handler's blocked read ends at once),
//! and `serve` returns once each handler has written its last reply.

use crate::core::{ServeCore, SubmitError};
use crate::protocol::{Request, Response, SubmitRequest};
use bsched_util::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where the server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at this path (removed before bind and
    /// after shutdown).
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7421`.
    Tcp(String),
}

impl Endpoint {
    /// Parses `unix:<path>` or `tcp:<addr>`.
    ///
    /// # Errors
    ///
    /// A message naming the expected forms.
    pub fn parse(s: &str) -> Result<Self, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty unix socket path (expected unix:<path>)".to_string());
            }
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        if let Some(addr) = s.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err("empty tcp address (expected tcp:<host>:<port>)".to_string());
            }
            return Ok(Endpoint::Tcp(addr.to_string()));
        }
        Err(format!(
            "unrecognized endpoint {s:?}: expected unix:<path> or tcp:<host>:<port>"
        ))
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Server front-end tunables (the serving core has its own
/// [`crate::core::ServeConfig`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-connection socket read timeout. A client that goes silent
    /// mid-frame is disconnected; its submitted work still completes
    /// into the shared memo store.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout (TCP only; Unix sockets
    /// block on a full peer buffer until the read timeout path fires).
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Duration::from_secs(120),
            write_timeout: Duration::from_secs(30),
        }
    }
}

enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn apply_timeouts(&self, cfg: &ServerConfig) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => {
                s.set_read_timeout(Some(cfg.read_timeout))?;
                s.set_write_timeout(Some(cfg.write_timeout))
            }
            Conn::Tcp(s) => {
                s.set_read_timeout(Some(cfg.read_timeout))?;
                s.set_write_timeout(Some(cfg.write_timeout))?;
                s.set_nodelay(true)
            }
        }
    }

    fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }

    /// Shuts the socket down for every handle on it, clones included:
    /// after `Read`, a read blocked on it returns EOF while writes still
    /// go through.
    fn shutdown(&self, how: Shutdown) {
        let _ = match self {
            Conn::Unix(s) => s.shutdown(how),
            Conn::Tcp(s) => s.shutdown(how),
        };
    }

    fn halves(&self) -> (Box<dyn Read + '_>, Box<dyn Write + '_>) {
        match self {
            Conn::Unix(s) => (Box::new(s), Box::new(s)),
            Conn::Tcp(s) => (Box::new(s), Box::new(s)),
        }
    }
}

/// Runs the server on `endpoint` until a client sends `shutdown`.
///
/// Owns the accept loop; the caller supplies a core whose dispatcher is
/// already running on its own thread. On return the core is drained and
/// the socket is closed (and unlinked, for Unix endpoints).
///
/// # Errors
///
/// Bind/listen failures. Per-connection I/O errors are handled by
/// dropping the connection, never returned.
pub fn serve(
    core: &Arc<ServeCore>,
    endpoint: &Endpoint,
    cfg: &ServerConfig,
) -> std::io::Result<()> {
    let listener = match endpoint {
        Endpoint::Unix(path) => {
            // A stale socket file from a crashed predecessor would make
            // bind fail; remove it (connect() to a dead socket errors
            // anyway, so this destroys nothing live we could talk to).
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            Listener::Unix(l, path.clone())
        }
        Endpoint::Tcp(addr) => {
            let l = TcpListener::bind(addr.as_str())?;
            l.set_nonblocking(true)?;
            Listener::Tcp(l)
        }
    };
    eprintln!("bsched-serve: listening on {endpoint}");

    // Each handler with a clone of its socket, so that draining can end
    // the handler's read.
    let mut handlers: Vec<(std::thread::JoinHandle<()>, Conn)> = Vec::new();
    let conn_ids = AtomicU64::new(0);
    while !core.shutdown_requested() {
        let conn = match &listener {
            Listener::Unix(l, _) => match l.accept() {
                Ok((s, _)) => Some(Conn::Unix(s)),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                Err(e) => {
                    eprintln!("bsched-serve: accept failed: {e}");
                    None
                }
            },
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => Some(Conn::Tcp(s)),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                Err(e) => {
                    eprintln!("bsched-serve: accept failed: {e}");
                    None
                }
            },
        };
        match conn.map(|c| c.try_clone().map(|closer| (c, closer))) {
            Some(Ok((conn, closer))) => {
                let core = Arc::clone(core);
                let cfg = cfg.clone();
                let id = conn_ids.fetch_add(1, Ordering::Relaxed);
                let handler = std::thread::spawn(move || {
                    if let Err(e) = handle_connection(&core, &conn, &cfg) {
                        eprintln!("bsched-serve: connection {id} closed: {e}");
                    }
                    // `closer` keeps the socket open: close it for the
                    // peer now.
                    conn.shutdown(Shutdown::Both);
                });
                handlers.push((handler, closer));
                handlers.retain(|(h, _)| !h.is_finished());
            }
            Some(Err(e)) => eprintln!("bsched-serve: cannot track connection: {e}"),
            None => std::thread::sleep(Duration::from_millis(15)),
        }
    }

    eprintln!("bsched-serve: draining for shutdown");
    core.drain();
    // Every job is done, so a handler is either writing its last reply
    // or waiting for a request that will never come: end that wait.
    for (h, closer) in handlers {
        closer.shutdown(Shutdown::Read);
        let _ = h.join();
    }
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
    eprintln!("bsched-serve: shutdown complete");
    Ok(())
}

/// One connection's request loop. Any error return closes the
/// connection; a best-effort `error` frame is attempted first for
/// protocol-level failures.
fn handle_connection(
    core: &Arc<ServeCore>,
    conn: &Conn,
    cfg: &ServerConfig,
) -> Result<(), FrameError> {
    conn.apply_timeouts(cfg)?;
    let (read_half, write_half) = conn.halves();
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(write_half);
    loop {
        let doc = match read_frame(&mut reader, MAX_FRAME_LEN) {
            Ok(Some(doc)) => doc,
            Ok(None) => return Ok(()), // clean EOF between frames
            Err(e) => {
                // Malformed/oversized/truncated input: tell the client
                // why (best effort — the socket may already be dead),
                // then drop the connection.
                let _ = write_frame(
                    &mut writer,
                    &Response::Error {
                        id: None,
                        msg: format!("protocol error: {e}"),
                    }
                    .to_json(),
                );
                return Err(e);
            }
        };
        let request = match Request::from_json(&doc) {
            Ok(r) => r,
            Err(e) => {
                let _ = write_frame(
                    &mut writer,
                    &Response::Error {
                        id: None,
                        msg: format!("bad request: {e}"),
                    }
                    .to_json(),
                );
                // A parseable frame with a bad request is a client bug,
                // not a stream desync: the connection stays usable.
                continue;
            }
        };
        match request {
            Request::Hello => {
                write_frame(&mut writer, &Response::hello_ok().to_json())?;
            }
            Request::Ping => {
                write_frame(&mut writer, &Response::Pong.to_json())?;
            }
            Request::Stats => {
                write_frame(&mut writer, &Response::Stats(core.stats()).to_json())?;
            }
            Request::Shutdown => {
                core.request_shutdown();
                write_frame(&mut writer, &Response::ShutdownOk.to_json())?;
                return Ok(());
            }
            Request::Submit(submit) => {
                handle_submit(core, &mut writer, &submit)?;
            }
        }
    }
}

/// Admits a submit and streams its result frames in request order.
fn handle_submit(
    core: &Arc<ServeCore>,
    writer: &mut impl Write,
    submit: &SubmitRequest,
) -> Result<(), FrameError> {
    let outcome = match core.submit(&submit.cells, submit.verify) {
        Ok(outcome) => outcome,
        Err(SubmitError::Overloaded { queued, limit }) => {
            write_frame(
                writer,
                &Response::Overloaded {
                    id: submit.id,
                    queued,
                    limit,
                }
                .to_json(),
            )?;
            return Ok(());
        }
        Err(SubmitError::Draining) => {
            write_frame(
                writer,
                &Response::Error {
                    id: Some(submit.id),
                    msg: "server is draining for shutdown".to_string(),
                }
                .to_json(),
            )?;
            return Ok(());
        }
    };
    write_frame(
        writer,
        &Response::Accepted {
            id: submit.id,
            cells: submit.cells.len() as u64,
            new_jobs: outcome.new_jobs,
            joined_inflight: outcome.joined_inflight,
        }
        .to_json(),
    )?;
    // Stream results in request order. Waiting in order (rather than
    // completion order) keeps the client trivially simple and matches
    // the direct `all_experiments` output contract; the dispatcher
    // computes out-of-order regardless.
    for (index, job) in outcome.jobs.iter().enumerate() {
        let (result, trace) = job.wait();
        let index = index as u64;
        match result {
            Ok(result) => {
                write_frame(
                    writer,
                    &Response::CellResult {
                        id: submit.id,
                        index,
                        result,
                        trace: if submit.trace { trace } else { Vec::new() },
                    }
                    .to_json(),
                )?;
            }
            Err(msg) => {
                write_frame(
                    writer,
                    &Response::CellError {
                        id: submit.id,
                        index,
                        msg,
                    }
                    .to_json(),
                )?;
            }
        }
    }
    write_frame(writer, &Response::Done { id: submit.id }.to_json())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_accepts_both_forms_and_rejects_garbage() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/x.sock"),
            Ok(Endpoint::Unix(PathBuf::from("/tmp/x.sock")))
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7421"),
            Ok(Endpoint::Tcp("127.0.0.1:7421".to_string()))
        );
        assert!(Endpoint::parse("unix:").is_err());
        assert!(Endpoint::parse("tcp:").is_err());
        assert!(Endpoint::parse("/tmp/bare-path").is_err());
        assert!(Endpoint::parse("http://x").is_err());
    }

    #[test]
    fn endpoint_display_round_trips() {
        for s in ["unix:/tmp/a.sock", "tcp:127.0.0.1:9"] {
            assert_eq!(Endpoint::parse(s).unwrap().to_string(), s);
        }
    }
}
