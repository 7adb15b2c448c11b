//! `bsched-serve` — a long-running experiment service over the
//! `bsched-harness` engine.
//!
//! The table binaries are batch programs: cold-start the engine,
//! compute a grid, exit. That wastes the warm in-memory cache the
//! moment anything interactive wants results — a sweep driver, a
//! notebook, CI shards probing a handful of cells. This crate keeps one
//! engine resident and serves experiment-grid cells over a socket:
//!
//! * **wire protocol** ([`protocol`]) — versioned, length-prefixed JSON
//!   frames ([`bsched_util::frame`]) over TCP or Unix sockets; cells
//!   travel as exhaustive `CompileOptions` documents whose round-trip
//!   reproduces the exact canonical cell key;
//! * **serving core** ([`core`]) — bounded admission queue with
//!   explicit `overloaded` rejection (backpressure a client can see and
//!   retry, instead of unbounded buffering), deduplication of identical
//!   in-flight cells across connections (N clients submitting the same
//!   cold grid compute each cell once), and a dispatcher that batches
//!   admitted work into [`bsched_harness::Engine::run_where`] — the
//!   same self-scheduling pool and memo store every batch binary uses,
//!   so a served result and a locally computed one are byte-identical
//!   by construction;
//! * **front end** ([`server`]) — nonblocking accept loop, a handler
//!   thread per connection with read/write timeouts, malformed frames
//!   killing the connection (never the server, never a queue slot), and
//!   graceful drain on a wire-level `shutdown` request;
//! * **client** ([`client`]) — the blocking client used by the
//!   `bsched-client` binary and the equivalence tests.
//!
//! Per-request `verify` runs the `bsched-verify` conformance suite on
//! served cells; per-request `trace` streams `bsched-trace` events for
//! cold-computed cells back to the submitter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod core;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, ReceivedCell, SubmitReply};
pub use core::{CellJob, ServeConfig, ServeCore, SubmitError, SubmitOutcome};
pub use protocol::{
    cell_from_json, cell_to_json, Request, Response, StatsSnapshot, SubmitRequest, WireTraceEvent,
    WIRE_SCHEMA_VERSION,
};
pub use server::{serve, Endpoint, ServerConfig};
