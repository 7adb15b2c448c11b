//! The `bsched-serve` wire protocol: versioned, length-prefixed JSON
//! frames (see [`bsched_util::frame`] for the framing layer).
//!
//! # Schema
//!
//! Every frame is a JSON object carrying `"v": WIRE_SCHEMA_VERSION` and
//! a `"type"` discriminator. The server refuses any other version
//! loudly (an `error` frame, then connection close) rather than
//! misreading fields — the same policy as the trace export.
//!
//! Client → server frames: `hello`, `ping`, `stats`, `shutdown`, and
//! `submit` (a batch of experiment-grid cells plus `verify`/`trace`
//! flags). Server → client frames: `hello_ok`, `pong`, `stats`,
//! `shutdown_ok`, `accepted`, `overloaded`, `result`, `cell_error`,
//! `done`, and `error`.
//!
//! # Payloads
//!
//! A cell travels in [`bsched_harness::codec`]'s spelling, which
//! decodes to a cell equal to the one encoded. A `result` frame names
//! its cell by index into the submitted list and carries the metrics
//! document of [`bsched_harness::encode_metrics`] and the cell's trace
//! events, each in [`bsched_trace::ParsedEvent`]'s JSON spelling.

use bsched_harness::codec::{bool_field, opt_u64_field, str_field, u64_field};
use bsched_harness::{
    cell_from_json, cell_to_json, decode_metrics, encode_metrics, CellResult, CodecError,
    ExperimentCell,
};
use bsched_pipeline::ConfigKind;
use bsched_trace::ParsedEvent;
use bsched_util::Json;

/// Version of the wire schema. Bump whenever a frame's meaning changes;
/// both ends refuse other versions instead of guessing.
///
/// v2: `CompileOptions` gained the exact scheduler arm
/// (`"scheduler": "exact"`) and the required `exact_budget` field.
///
/// v3: the MachineSpec redesign — `branch` gained the required `kind`
/// field (predictor family) and `mem` the required `prefetch` and
/// `mshr_policy` fields.
///
/// v4: `CompileOptions` lost the `reference_weights` field.
///
/// v5: a cell must carry its full `options`; the shorthand spelling
/// (`scheduler` plus a paper-table `config` label) is gone.
///
/// v6: `result` and `cell_error` lost `key` and `cell` (the index
/// names the cell), and `result` carries its cell's trace events inline
/// (`trace`); the `trace_events` frame is gone.
pub const WIRE_SCHEMA_VERSION: u32 = 6;

fn err(msg: impl Into<String>) -> CodecError {
    CodecError(msg.into())
}

fn check_version(doc: &Json) -> Result<(), CodecError> {
    let v = u64_field(doc, "v")?;
    if v != u64::from(WIRE_SCHEMA_VERSION) {
        return Err(err(format!(
            "unsupported wire schema version {v} (this end speaks {WIRE_SCHEMA_VERSION})"
        )));
    }
    Ok(())
}

/// Parses a paper-table configuration label (`none`, `LU 4`,
/// `TrS+LU 8`, `LA`, `LA+LU 4`, `LA+TrS+LU 8`; spaces optional).
///
/// # Errors
///
/// [`CodecError`] naming the accepted spellings.
pub fn config_kind_from_label(label: &str) -> Result<ConfigKind, CodecError> {
    let compact: String = label.chars().filter(|c| !c.is_whitespace()).collect();
    let unroll_of = |rest: &str| -> Result<u32, CodecError> {
        rest.parse::<u32>()
            .map_err(|_| err(format!("bad unroll factor in config label {label:?}")))
    };
    if compact == "none" {
        Ok(ConfigKind::Base)
    } else if compact == "LA" {
        Ok(ConfigKind::La)
    } else if let Some(rest) = compact.strip_prefix("LA+TrS+LU") {
        Ok(ConfigKind::LaTrsLu(unroll_of(rest)?))
    } else if let Some(rest) = compact.strip_prefix("LA+LU") {
        Ok(ConfigKind::LaLu(unroll_of(rest)?))
    } else if let Some(rest) = compact.strip_prefix("TrS+LU") {
        Ok(ConfigKind::TrsLu(unroll_of(rest)?))
    } else if let Some(rest) = compact.strip_prefix("LU") {
        Ok(ConfigKind::Lu(unroll_of(rest)?))
    } else {
        Err(err(format!(
            "unknown config label {label:?} (expected none, LU n, TrS+LU n, LA, LA+LU n, or LA+TrS+LU n)"
        )))
    }
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// A `submit` request: one batch of cells to answer.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// Client-chosen id echoed in every frame of the reply stream.
    pub id: u64,
    /// Run the `bsched-verify` conformance suite on every executed
    /// cell (memoized-but-unverified results are recomputed).
    pub verify: bool,
    /// Stream per-cell `trace_events` frames (only meaningful when the
    /// server was started with trace streaming enabled).
    pub trace: bool,
    /// The cells, in reply order.
    pub cells: Vec<ExperimentCell>,
}

/// A client → server message.
#[derive(Debug, Clone)]
pub enum Request {
    /// Handshake; the server answers `hello_ok`.
    Hello,
    /// Liveness probe; the server answers `pong`.
    Ping,
    /// Server counters; the server answers a `stats` frame.
    Stats,
    /// Graceful drain: stop admitting, finish in-flight work, exit.
    Shutdown,
    /// A batch of cells.
    Submit(SubmitRequest),
}

impl Request {
    /// Serializes the request as one frame document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("v", Json::u64(u64::from(WIRE_SCHEMA_VERSION)))];
        match self {
            Request::Hello => pairs.push(("type", Json::Str("hello".into()))),
            Request::Ping => pairs.push(("type", Json::Str("ping".into()))),
            Request::Stats => pairs.push(("type", Json::Str("stats".into()))),
            Request::Shutdown => pairs.push(("type", Json::Str("shutdown".into()))),
            Request::Submit(s) => {
                pairs.push(("type", Json::Str("submit".into())));
                pairs.push(("id", Json::u64(s.id)));
                pairs.push(("verify", Json::Bool(s.verify)));
                pairs.push(("trace", Json::Bool(s.trace)));
                pairs.push((
                    "cells",
                    Json::Arr(s.cells.iter().map(cell_to_json).collect()),
                ));
            }
        }
        Json::obj(pairs)
    }

    /// Decodes one frame document into a request.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a version mismatch, unknown type, or malformed
    /// fields.
    pub fn from_json(doc: &Json) -> Result<Request, CodecError> {
        check_version(doc)?;
        match str_field(doc, "type")? {
            "hello" => Ok(Request::Hello),
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "submit" => {
                let Some(Json::Arr(items)) = doc.get("cells") else {
                    return Err(err("submit requires a \"cells\" array"));
                };
                let cells: Vec<ExperimentCell> =
                    items.iter().map(cell_from_json).collect::<Result<_, _>>()?;
                if cells.is_empty() {
                    return Err(err("submit requires at least one cell"));
                }
                Ok(Request::Submit(SubmitRequest {
                    id: u64_field(doc, "id")?,
                    verify: bool_field(doc, "verify")?,
                    trace: bool_field(doc, "trace")?,
                    cells,
                }))
            }
            other => Err(err(format!("unknown request type {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// A snapshot of server-side counters (the `stats` frame).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Submit requests admitted.
    pub submits: u64,
    /// Cells across admitted submits (before any dedup).
    pub submitted_cells: u64,
    /// Cells that joined an identical in-flight job instead of queueing
    /// a new one (concurrent-client dedup).
    pub joined_inflight: u64,
    /// Submit requests rejected with `overloaded`.
    pub rejected_submits: u64,
    /// Jobs completed (success or failure).
    pub completed_cells: u64,
    /// Jobs that failed.
    pub failed_cells: u64,
    /// Unique jobs currently queued (admission queue depth).
    pub queue_depth: u64,
    /// The admission queue limit.
    pub queue_limit: u64,
    /// Engine: cells executed (memo misses actually computed).
    pub executed: u64,
    /// Engine: in-memory store hits.
    pub memory_hits: u64,
    /// Always 0: the engine has no disk cache. The wire field stays so
    /// the schema is unchanged; ROADMAP item 9 deletes it.
    pub disk_hits: u64,
    /// Engine: cells requested across all batches.
    pub requested: u64,
    /// Engine: cells verified.
    pub verified: u64,
    /// Store: lookups answered from memory since server start.
    pub store_hits: u64,
    /// Store: lookups that missed since server start.
    pub store_misses: u64,
}

impl StatsSnapshot {
    fn to_json_pairs(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("submits", Json::u64(self.submits)),
            ("submitted_cells", Json::u64(self.submitted_cells)),
            ("joined_inflight", Json::u64(self.joined_inflight)),
            ("rejected_submits", Json::u64(self.rejected_submits)),
            ("completed_cells", Json::u64(self.completed_cells)),
            ("failed_cells", Json::u64(self.failed_cells)),
            ("queue_depth", Json::u64(self.queue_depth)),
            ("queue_limit", Json::u64(self.queue_limit)),
            ("executed", Json::u64(self.executed)),
            ("memory_hits", Json::u64(self.memory_hits)),
            ("disk_hits", Json::u64(self.disk_hits)),
            ("requested", Json::u64(self.requested)),
            ("verified", Json::u64(self.verified)),
            ("store_hits", Json::u64(self.store_hits)),
            ("store_misses", Json::u64(self.store_misses)),
        ]
    }

    fn from_json(doc: &Json) -> Result<Self, CodecError> {
        Ok(StatsSnapshot {
            submits: u64_field(doc, "submits")?,
            submitted_cells: u64_field(doc, "submitted_cells")?,
            joined_inflight: u64_field(doc, "joined_inflight")?,
            rejected_submits: u64_field(doc, "rejected_submits")?,
            completed_cells: u64_field(doc, "completed_cells")?,
            failed_cells: u64_field(doc, "failed_cells")?,
            queue_depth: u64_field(doc, "queue_depth")?,
            queue_limit: u64_field(doc, "queue_limit")?,
            executed: u64_field(doc, "executed")?,
            memory_hits: u64_field(doc, "memory_hits")?,
            disk_hits: u64_field(doc, "disk_hits")?,
            requested: u64_field(doc, "requested")?,
            verified: u64_field(doc, "verified")?,
            store_hits: u64_field(doc, "store_hits")?,
            store_misses: u64_field(doc, "store_misses")?,
        })
    }
}

/// A server → client message.
#[derive(Debug, Clone)]
pub enum Response {
    /// Handshake reply.
    HelloOk {
        /// Server identity string.
        server: String,
        /// Wire schema version the server speaks.
        schema: u32,
    },
    /// Liveness reply.
    Pong,
    /// Counter snapshot.
    Stats(StatsSnapshot),
    /// Drain acknowledged; the server exits once in-flight work ends.
    ShutdownOk,
    /// The submit was admitted; `result` frames follow in cell order.
    Accepted {
        /// Echo of the submit id.
        id: u64,
        /// Unique cells after in-request dedup.
        cells: u64,
        /// New jobs queued by this submit.
        new_jobs: u64,
        /// Cells that joined an identical in-flight job.
        joined_inflight: u64,
    },
    /// Backpressure: the admission queue is full. The submit was
    /// dropped in its entirety; nothing was queued. Retry later.
    Overloaded {
        /// Echo of the submit id.
        id: u64,
        /// Queue depth at rejection time.
        queued: u64,
        /// The admission limit.
        limit: u64,
    },
    /// One cell's result.
    CellResult {
        /// Echo of the submit id.
        id: u64,
        /// Index into the submitted cell list.
        index: u64,
        /// Metrics plus verification flags.
        result: CellResult,
        /// The cell's trace events: empty unless the submit asked for
        /// tracing and this request computed the cell.
        trace: Vec<ParsedEvent>,
    },
    /// One cell failed (the rest of the stream continues).
    CellError {
        /// Echo of the submit id.
        id: u64,
        /// Index into the submitted cell list.
        index: u64,
        /// What went wrong.
        msg: String,
    },
    /// The reply stream for a submit is complete.
    Done {
        /// Echo of the submit id.
        id: u64,
    },
    /// A request-level failure (unknown type, bad cell spec, draining).
    Error {
        /// The submit id when the failure belongs to one.
        id: Option<u64>,
        /// What went wrong.
        msg: String,
    },
}

impl Response {
    /// The handshake reply for this server build.
    #[must_use]
    pub fn hello_ok() -> Response {
        Response::HelloOk {
            server: format!("bsched-serve/{}", env!("CARGO_PKG_VERSION")),
            schema: WIRE_SCHEMA_VERSION,
        }
    }

    /// Serializes the response as one frame document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("v", Json::u64(u64::from(WIRE_SCHEMA_VERSION)))];
        match self {
            Response::HelloOk { server, schema } => {
                pairs.push(("type", Json::Str("hello_ok".into())));
                pairs.push(("server", Json::Str(server.clone())));
                pairs.push(("schema", Json::u64(u64::from(*schema))));
            }
            Response::Pong => pairs.push(("type", Json::Str("pong".into()))),
            Response::Stats(s) => {
                pairs.push(("type", Json::Str("stats".into())));
                pairs.extend(s.to_json_pairs());
            }
            Response::ShutdownOk => pairs.push(("type", Json::Str("shutdown_ok".into()))),
            Response::Accepted {
                id,
                cells,
                new_jobs,
                joined_inflight,
            } => {
                pairs.push(("type", Json::Str("accepted".into())));
                pairs.push(("id", Json::u64(*id)));
                pairs.push(("cells", Json::u64(*cells)));
                pairs.push(("new_jobs", Json::u64(*new_jobs)));
                pairs.push(("joined_inflight", Json::u64(*joined_inflight)));
            }
            Response::Overloaded { id, queued, limit } => {
                pairs.push(("type", Json::Str("overloaded".into())));
                pairs.push(("id", Json::u64(*id)));
                pairs.push(("queued", Json::u64(*queued)));
                pairs.push(("limit", Json::u64(*limit)));
            }
            Response::CellResult {
                id,
                index,
                result,
                trace,
            } => {
                pairs.push(("type", Json::Str("result".into())));
                pairs.push(("id", Json::u64(*id)));
                pairs.push(("index", Json::u64(*index)));
                pairs.push(("checksum_ok", Json::Bool(result.checksum_ok)));
                pairs.push(("verified", Json::Bool(result.verified)));
                pairs.push(("metrics", encode_metrics(&result.metrics)));
                pairs.push((
                    "trace",
                    Json::Arr(trace.iter().map(ParsedEvent::to_json).collect()),
                ));
            }
            Response::CellError { id, index, msg } => {
                pairs.push(("type", Json::Str("cell_error".into())));
                pairs.push(("id", Json::u64(*id)));
                pairs.push(("index", Json::u64(*index)));
                pairs.push(("msg", Json::Str(msg.clone())));
            }
            Response::Done { id } => {
                pairs.push(("type", Json::Str("done".into())));
                pairs.push(("id", Json::u64(*id)));
            }
            Response::Error { id, msg } => {
                pairs.push(("type", Json::Str("error".into())));
                pairs.push(("id", id.map_or(Json::Null, Json::u64)));
                pairs.push(("msg", Json::Str(msg.clone())));
            }
        }
        Json::obj(pairs)
    }

    /// Decodes one frame document into a response.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a version mismatch, unknown type, or malformed
    /// fields.
    pub fn from_json(doc: &Json) -> Result<Response, CodecError> {
        check_version(doc)?;
        match str_field(doc, "type")? {
            "hello_ok" => Ok(Response::HelloOk {
                server: str_field(doc, "server")?.to_string(),
                schema: u32::try_from(u64_field(doc, "schema")?)
                    .map_err(|_| err("schema out of range"))?,
            }),
            "pong" => Ok(Response::Pong),
            "stats" => Ok(Response::Stats(StatsSnapshot::from_json(doc)?)),
            "shutdown_ok" => Ok(Response::ShutdownOk),
            "accepted" => Ok(Response::Accepted {
                id: u64_field(doc, "id")?,
                cells: u64_field(doc, "cells")?,
                new_jobs: u64_field(doc, "new_jobs")?,
                joined_inflight: u64_field(doc, "joined_inflight")?,
            }),
            "overloaded" => Ok(Response::Overloaded {
                id: u64_field(doc, "id")?,
                queued: u64_field(doc, "queued")?,
                limit: u64_field(doc, "limit")?,
            }),
            "result" => {
                let metrics = doc
                    .get("metrics")
                    .and_then(decode_metrics)
                    .ok_or_else(|| err("missing or malformed metrics"))?;
                let Some(Json::Arr(events)) = doc.get("trace") else {
                    return Err(err("missing trace events array"));
                };
                let trace = events
                    .iter()
                    .map(ParsedEvent::from_json)
                    .collect::<Result<_, _>>()
                    .map_err(|e| err(e.to_string()))?;
                Ok(Response::CellResult {
                    id: u64_field(doc, "id")?,
                    index: u64_field(doc, "index")?,
                    result: CellResult {
                        metrics,
                        checksum_ok: bool_field(doc, "checksum_ok")?,
                        verified: bool_field(doc, "verified")?,
                    },
                    trace,
                })
            }
            "cell_error" => Ok(Response::CellError {
                id: u64_field(doc, "id")?,
                index: u64_field(doc, "index")?,
                msg: str_field(doc, "msg")?.to_string(),
            }),
            "done" => Ok(Response::Done {
                id: u64_field(doc, "id")?,
            }),
            "error" => Ok(Response::Error {
                id: opt_u64_field(doc, "id")?,
                msg: str_field(doc, "msg")?.to_string(),
            }),
            other => Err(err(format!("unknown response type {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_pipeline::{standard_grid, CompileOptions, SchedulerKind};
    use bsched_sim::SimMetrics;

    #[test]
    fn config_labels_parse_every_standard_grid_configuration() {
        for cfg in standard_grid() {
            let label = cfg.kind.label();
            for spelling in [label.clone(), label.replace(' ', "")] {
                assert_eq!(
                    config_kind_from_label(&spelling),
                    Ok(cfg.kind),
                    "{spelling:?}"
                );
            }
        }
        assert!(config_kind_from_label("LU banana").is_err());
    }

    #[test]
    fn requests_round_trip() {
        let cells = vec![
            ExperimentCell::new("TRFD", CompileOptions::new(SchedulerKind::Balanced)),
            ExperimentCell::new(
                "ARC2D",
                CompileOptions::new(SchedulerKind::Traditional).with_unroll(4),
            ),
        ];
        let req = Request::Submit(SubmitRequest {
            id: 42,
            verify: true,
            trace: false,
            cells: cells.clone(),
        });
        match Request::from_json(&req.to_json()).unwrap() {
            Request::Submit(s) => {
                assert_eq!(s.id, 42);
                assert!(s.verify);
                assert!(!s.trace);
                assert_eq!(s.cells, cells);
            }
            other => panic!("wrong request: {other:?}"),
        }
        for req in [
            Request::Hello,
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
        ] {
            let back = Request::from_json(&req.to_json()).unwrap();
            assert_eq!(std::mem::discriminant(&back), std::mem::discriminant(&req));
        }
    }

    #[test]
    fn responses_round_trip() {
        let result = CellResult {
            metrics: SimMetrics {
                cycles: 123,
                load_interlock: 9,
                ..SimMetrics::default()
            },
            checksum_ok: true,
            verified: true,
        };
        let frames = vec![
            Response::HelloOk {
                server: "bsched-serve".into(),
                schema: WIRE_SCHEMA_VERSION,
            },
            Response::Pong,
            Response::Stats(StatsSnapshot {
                submits: 3,
                queue_limit: 64,
                ..StatsSnapshot::default()
            }),
            Response::ShutdownOk,
            Response::Accepted {
                id: 7,
                cells: 30,
                new_jobs: 28,
                joined_inflight: 2,
            },
            Response::Overloaded {
                id: 7,
                queued: 64,
                limit: 64,
            },
            Response::CellResult {
                id: 7,
                index: 3,
                result: result.clone(),
                trace: vec![ParsedEvent {
                    cat: "harness".into(),
                    name: "cell".into(),
                    kind: "span".into(),
                    label: "TRFD/BS".into(),
                    args: [("cycles".to_string(), 5)].into(),
                    ts_ns: 10,
                    dur_ns: 1234,
                    tid: 2,
                }],
            },
            Response::CellError {
                id: 7,
                index: 4,
                msg: "boom".into(),
            },
            Response::Done { id: 7 },
            Response::Error {
                id: None,
                msg: "nope".into(),
            },
        ];
        for frame in frames {
            let doc = frame.to_json();
            let back = Response::from_json(&doc).expect("decodes");
            // Round-trip to JSON again: stable representation.
            assert_eq!(back.to_json().to_string_compact(), doc.to_string_compact());
        }
        // The metrics specifically must survive.
        match Response::from_json(
            &Response::CellResult {
                id: 1,
                index: 0,
                result,
                trace: Vec::new(),
            }
            .to_json(),
        )
        .unwrap()
        {
            Response::CellResult { result, .. } => {
                assert_eq!(result.metrics.cycles, 123);
                assert_eq!(result.metrics.load_interlock, 9);
                assert!(result.verified);
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_loud() {
        let mut doc = Request::Ping.to_json();
        if let Json::Obj(m) = &mut doc {
            m.insert("v".into(), Json::u64(99));
        }
        let e = Request::from_json(&doc).unwrap_err();
        assert!(e.0.contains("version 99"), "{e}");
        let e = Response::from_json(&doc).unwrap_err();
        assert!(e.0.contains("version 99"), "{e}");
    }
}
