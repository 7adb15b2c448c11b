//! A blocking client for the `bsched-serve` protocol.
//!
//! Wraps one connection: handshake on connect, then synchronous
//! request/reply exchanges. [`Client::submit`] streams the server's
//! per-cell frames back in request order and returns them collected;
//! backpressure surfaces as [`SubmitReply::Overloaded`], which the
//! caller retries.

use crate::protocol::{Request, Response, StatsSnapshot, SubmitRequest, WIRE_SCHEMA_VERSION};
use crate::server::Endpoint;
use bsched_harness::{CellResult, ExperimentCell};
use bsched_trace::ParsedEvent;
use bsched_util::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket/framing failure.
    Frame(FrameError),
    /// The server replied with something the exchange didn't expect,
    /// or an `error` frame.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Protocol(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Frame(FrameError::Io(e))
    }
}

/// One cell's outcome as received over the wire.
#[derive(Debug, Clone)]
pub struct ReceivedCell {
    /// Index into the submitted cell list.
    pub index: u64,
    /// The result, or the server's error message.
    pub outcome: Result<CellResult, String>,
    /// Trace events the server attributed to this cell (empty unless
    /// the submit asked for tracing and the cell was a cold compute).
    pub trace: Vec<ParsedEvent>,
}

/// What a submit came back as.
#[derive(Debug)]
pub enum SubmitReply {
    /// The full reply stream, one entry per submitted cell in request
    /// order.
    Completed {
        /// New jobs the server queued for this submit.
        new_jobs: u64,
        /// Cells that joined an identical in-flight job.
        joined_inflight: u64,
        /// Per-cell outcomes.
        cells: Vec<ReceivedCell>,
    },
    /// The server's admission queue was full; nothing was queued.
    Overloaded {
        /// Server queue depth at rejection.
        queued: u64,
        /// Server queue limit.
        limit: u64,
    },
}

/// A connected client.
pub struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: BufWriter<Box<dyn Write + Send>>,
    next_id: u64,
    /// The server identity string from the handshake.
    pub server: String,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Client(server={:?})", self.server)
    }
}

impl Client {
    /// Connects and performs the hello handshake.
    ///
    /// # Errors
    ///
    /// Connection failures, or a server speaking a different schema
    /// version.
    pub fn connect(endpoint: &Endpoint, timeout: Duration) -> Result<Client, ClientError> {
        let (read_half, write_half): (Box<dyn Read + Send>, Box<dyn Write + Send>) = match endpoint
        {
            Endpoint::Unix(path) => {
                let s = UnixStream::connect(path)?;
                s.set_read_timeout(Some(timeout))?;
                s.set_write_timeout(Some(timeout))?;
                (Box::new(s.try_clone()?), Box::new(s))
            }
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                s.set_read_timeout(Some(timeout))?;
                s.set_write_timeout(Some(timeout))?;
                s.set_nodelay(true)?;
                (Box::new(s.try_clone()?), Box::new(s))
            }
        };
        let mut client = Client {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(write_half),
            next_id: 1,
            server: String::new(),
        };
        write_frame(&mut client.writer, &Request::Hello.to_json())?;
        match client.read_response()? {
            Response::HelloOk { server, schema } => {
                if schema != WIRE_SCHEMA_VERSION {
                    return Err(ClientError::Protocol(format!(
                        "server speaks wire schema {schema}, this client speaks {WIRE_SCHEMA_VERSION}"
                    )));
                }
                client.server = server;
                Ok(client)
            }
            other => Err(ClientError::Protocol(format!(
                "expected hello_ok, got {other:?}"
            ))),
        }
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        let doc = read_frame(&mut self.reader, MAX_FRAME_LEN)?
            .ok_or_else(|| ClientError::Protocol("server closed the connection".to_string()))?;
        Response::from_json(&doc).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Round-trips a ping.
    ///
    /// # Errors
    ///
    /// Socket failures or an unexpected reply.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        write_frame(&mut self.writer, &Request::Ping.to_json())?;
        match self.read_response()? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Fetches the server's counter snapshot.
    ///
    /// # Errors
    ///
    /// Socket failures or an unexpected reply.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        write_frame(&mut self.writer, &Request::Stats.to_json())?;
        match self.read_response()? {
            Response::Stats(s) => Ok(s),
            other => Err(ClientError::Protocol(format!(
                "expected stats, got {other:?}"
            ))),
        }
    }

    /// Asks the server to drain and exit. The connection is done after
    /// this.
    ///
    /// # Errors
    ///
    /// Socket failures or an unexpected reply.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        write_frame(&mut self.writer, &Request::Shutdown.to_json())?;
        match self.read_response()? {
            Response::ShutdownOk => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected shutdown_ok, got {other:?}"
            ))),
        }
    }

    /// Submits a batch of cells and collects the reply stream.
    ///
    /// # Errors
    ///
    /// Socket failures, or a protocol violation in the stream. A full
    /// queue is **not** an error — it comes back as
    /// [`SubmitReply::Overloaded`].
    pub fn submit(
        &mut self,
        cells: &[ExperimentCell],
        verify: bool,
        trace: bool,
    ) -> Result<SubmitReply, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request::Submit(SubmitRequest {
            id,
            verify,
            trace,
            cells: cells.to_vec(),
        });
        write_frame(&mut self.writer, &request.to_json())?;
        let (new_jobs, joined_inflight) = match self.read_response()? {
            Response::Accepted {
                id: rid,
                new_jobs,
                joined_inflight,
                ..
            } if rid == id => (new_jobs, joined_inflight),
            Response::Overloaded {
                id: rid,
                queued,
                limit,
            } if rid == id => return Ok(SubmitReply::Overloaded { queued, limit }),
            Response::Error { msg, .. } => return Err(ClientError::Protocol(msg)),
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected accepted/overloaded for submit {id}, got {other:?}"
                )))
            }
        };
        let mut received: Vec<ReceivedCell> = Vec::with_capacity(cells.len());
        loop {
            match self.read_response()? {
                Response::CellResult {
                    id: rid,
                    index,
                    result,
                    trace,
                } if rid == id => {
                    received.push(ReceivedCell {
                        index,
                        outcome: Ok(result),
                        trace,
                    });
                }
                Response::CellError {
                    id: rid,
                    index,
                    msg,
                } if rid == id => {
                    received.push(ReceivedCell {
                        index,
                        outcome: Err(msg),
                        trace: Vec::new(),
                    });
                }
                Response::Done { id: rid } if rid == id => {
                    return Ok(SubmitReply::Completed {
                        new_jobs,
                        joined_inflight,
                        cells: received,
                    });
                }
                Response::Error { msg, .. } => return Err(ClientError::Protocol(msg)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected frame in submit {id} stream: {other:?}"
                    )))
                }
            }
        }
    }
}
