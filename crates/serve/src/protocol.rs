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
//! `trace_events`, `done`, and `error`.
//!
//! # Cell encoding
//!
//! A cell is `kernel × CompileOptions` (the options embed the full
//! simulated machine), spelled `{"kernel": "TRFD", "options": {...}}`
//! with every `CompileOptions` and `SimConfig` field written out, as
//! produced by [`options_to_json`]. The codec is exhaustive: a
//! round-trip through JSON reproduces the exact canonical cell key,
//! which is what makes served results and locally computed results
//! interchangeable.
//!
//! Metrics travel as the flat document of
//! [`bsched_harness::encode_metrics`], which decodes to exactly the
//! metrics the engine computed.

use bsched_core::{SchedulerKind, TieBreak};
use bsched_harness::{decode_metrics, encode_metrics, CellResult, ExperimentCell};
use bsched_mem::{CacheConfig, MemConfig};
use bsched_pipeline::{CompileOptions, ConfigKind};
use bsched_sim::SimConfig;
use bsched_util::Json;
use std::fmt;

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
pub const WIRE_SCHEMA_VERSION: u32 = 5;

/// A protocol-level failure: the frame was valid JSON but not a valid
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

fn err(msg: impl Into<String>) -> ProtoError {
    ProtoError(msg.into())
}

// ---------------------------------------------------------------------
// Scalar helpers
// ---------------------------------------------------------------------

fn get_u64(doc: &Json, key: &str) -> Result<u64, ProtoError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| err(format!("missing or non-integer field {key:?}")))
}

fn get_bool(doc: &Json, key: &str) -> Result<bool, ProtoError> {
    doc.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| err(format!("missing or non-bool field {key:?}")))
}

fn get_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, ProtoError> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| err(format!("missing or non-string field {key:?}")))
}

fn opt_u64(doc: &Json, key: &str) -> Result<Option<u64>, ProtoError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| err(format!("field {key:?} must be an integer or null"))),
    }
}

fn u64_or_null(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::u64)
}

fn check_version(doc: &Json) -> Result<(), ProtoError> {
    let v = get_u64(doc, "v")?;
    if v != u64::from(WIRE_SCHEMA_VERSION) {
        return Err(err(format!(
            "unsupported wire schema version {v} (this end speaks {WIRE_SCHEMA_VERSION})"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// CompileOptions / SimConfig codec
// ---------------------------------------------------------------------

fn scheduler_to_str(k: SchedulerKind) -> &'static str {
    match k {
        SchedulerKind::Traditional => "trad",
        SchedulerKind::Balanced => "bal",
        SchedulerKind::SelectiveBalanced => "selbal",
        SchedulerKind::Exact => "exact",
    }
}

fn scheduler_from_str(s: &str) -> Result<SchedulerKind, ProtoError> {
    match s {
        "trad" | "traditional" | "TS" => Ok(SchedulerKind::Traditional),
        "bal" | "balanced" | "BS" => Ok(SchedulerKind::Balanced),
        "selbal" | "selective" => Ok(SchedulerKind::SelectiveBalanced),
        "exact" | "EX" => Ok(SchedulerKind::Exact),
        other => Err(err(format!(
            "unknown scheduler {other:?} (expected trad|bal|selbal|exact)"
        ))),
    }
}

fn tie_break_to_str(t: TieBreak) -> &'static str {
    match t {
        TieBreak::Standard => "std",
        TieBreak::ExposedFirst => "exposed",
        TieBreak::ProgramOrder => "order",
    }
}

fn tie_break_from_str(s: &str) -> Result<TieBreak, ProtoError> {
    match s {
        "std" => Ok(TieBreak::Standard),
        "exposed" => Ok(TieBreak::ExposedFirst),
        "order" => Ok(TieBreak::ProgramOrder),
        other => Err(err(format!(
            "unknown tie_break {other:?} (expected std|exposed|order)"
        ))),
    }
}

fn cache_to_json(c: &CacheConfig) -> Json {
    Json::obj(vec![
        ("size", Json::u64(c.size)),
        ("line", Json::u64(c.line)),
        ("assoc", Json::u64(u64::from(c.assoc))),
        ("latency", Json::u64(u64::from(c.latency))),
    ])
}

fn cache_from_json(doc: &Json) -> Result<CacheConfig, ProtoError> {
    Ok(CacheConfig {
        size: get_u64(doc, "size")?,
        line: get_u64(doc, "line")?,
        assoc: u32::try_from(get_u64(doc, "assoc")?).map_err(|_| err("assoc out of range"))?,
        latency: u32::try_from(get_u64(doc, "latency")?)
            .map_err(|_| err("latency out of range"))?,
    })
}

fn mem_to_json(m: &MemConfig) -> Json {
    Json::obj(vec![
        ("l1d", cache_to_json(&m.l1d)),
        ("icache", cache_to_json(&m.icache)),
        ("l2", cache_to_json(&m.l2)),
        ("l3", m.l3.as_ref().map_or(Json::Null, cache_to_json)),
        ("mem_latency", Json::u64(u64::from(m.mem_latency))),
        ("mshrs", Json::u64(m.mshrs as u64)),
        ("dtb_entries", Json::u64(m.dtb_entries as u64)),
        ("itb_entries", Json::u64(m.itb_entries as u64)),
        ("page_size", Json::u64(m.page_size)),
        ("tlb_miss_penalty", Json::u64(u64::from(m.tlb_miss_penalty))),
        (
            "write_buffer",
            m.write_buffer
                .map_or(Json::Null, |n| Json::u64(u64::from(n))),
        ),
        (
            "write_drain_cycles",
            Json::u64(u64::from(m.write_drain_cycles)),
        ),
        ("prefetch", Json::Str(m.prefetch.label().into())),
        ("mshr_policy", Json::Str(m.mshr_policy.label().into())),
    ])
}

fn mem_from_json(doc: &Json) -> Result<MemConfig, ProtoError> {
    let cache_at = |key: &str| -> Result<CacheConfig, ProtoError> {
        cache_from_json(
            doc.get(key)
                .ok_or_else(|| err(format!("missing cache level {key:?}")))?,
        )
    };
    let l3 = match doc.get("l3") {
        None | Some(Json::Null) => None,
        Some(v) => Some(cache_from_json(v)?),
    };
    let narrow = |v: u64, what: &str| -> Result<u32, ProtoError> {
        u32::try_from(v).map_err(|_| err(format!("{what} out of range")))
    };
    Ok(MemConfig {
        l1d: cache_at("l1d")?,
        icache: cache_at("icache")?,
        l2: cache_at("l2")?,
        l3,
        mem_latency: narrow(get_u64(doc, "mem_latency")?, "mem_latency")?,
        mshrs: get_u64(doc, "mshrs")? as usize,
        dtb_entries: get_u64(doc, "dtb_entries")? as usize,
        itb_entries: get_u64(doc, "itb_entries")? as usize,
        page_size: get_u64(doc, "page_size")?,
        tlb_miss_penalty: narrow(get_u64(doc, "tlb_miss_penalty")?, "tlb_miss_penalty")?,
        write_buffer: opt_u64(doc, "write_buffer")?
            .map(|n| narrow(n, "write_buffer"))
            .transpose()?,
        write_drain_cycles: narrow(get_u64(doc, "write_drain_cycles")?, "write_drain_cycles")?,
        prefetch: get_str(doc, "prefetch")?
            .parse()
            .map_err(|e: String| err(e))?,
        mshr_policy: get_str(doc, "mshr_policy")?
            .parse()
            .map_err(|e: String| err(e))?,
    })
}

fn sim_to_json(c: &SimConfig) -> Json {
    Json::obj(vec![
        ("mem", mem_to_json(&c.mem)),
        (
            "branch",
            Json::obj(vec![
                ("kind", Json::Str(c.branch.kind.label().into())),
                ("entries", Json::u64(c.branch.entries as u64)),
                (
                    "mispredict_penalty",
                    Json::u64(u64::from(c.branch.mispredict_penalty)),
                ),
            ]),
        ),
        ("fuel", Json::u64(c.fuel)),
        ("model_ifetch", Json::Bool(c.model_ifetch)),
        ("issue_width", Json::u64(u64::from(c.issue_width))),
        ("mem_ports", Json::u64(u64::from(c.mem_ports))),
        ("uniform_fixed_latency", Json::Bool(c.uniform_fixed_latency)),
    ])
}

fn sim_from_json(doc: &Json) -> Result<SimConfig, ProtoError> {
    let branch = doc
        .get("branch")
        .ok_or_else(|| err("missing field \"branch\""))?;
    Ok(SimConfig {
        mem: mem_from_json(doc.get("mem").ok_or_else(|| err("missing field \"mem\""))?)?,
        branch: bsched_sim::BranchConfig {
            kind: get_str(branch, "kind")?
                .parse()
                .map_err(|e: String| err(e))?,
            entries: get_u64(branch, "entries")? as usize,
            mispredict_penalty: u32::try_from(get_u64(branch, "mispredict_penalty")?)
                .map_err(|_| err("mispredict_penalty out of range"))?,
        },
        fuel: get_u64(doc, "fuel")?,
        model_ifetch: get_bool(doc, "model_ifetch")?,
        issue_width: u32::try_from(get_u64(doc, "issue_width")?)
            .map_err(|_| err("issue_width out of range"))?,
        mem_ports: u32::try_from(get_u64(doc, "mem_ports")?)
            .map_err(|_| err("mem_ports out of range"))?,
        uniform_fixed_latency: get_bool(doc, "uniform_fixed_latency")?,
    })
}

/// Serializes every field of [`CompileOptions`] (machine configuration
/// included). The inverse of [`options_from_json`].
#[must_use]
pub fn options_to_json(o: &CompileOptions) -> Json {
    Json::obj(vec![
        ("scheduler", Json::Str(scheduler_to_str(o.scheduler).into())),
        ("unroll", u64_or_null(o.unroll.map(u64::from))),
        ("trace", Json::Bool(o.trace)),
        ("locality", Json::Bool(o.locality)),
        ("predicate", Json::Bool(o.predicate)),
        ("weight_cap", Json::u64(u64::from(o.weight_cap))),
        ("tie_break", Json::Str(tie_break_to_str(o.tie_break).into())),
        (
            "unroll_budget",
            u64_or_null(o.unroll_budget.map(|b| b as u64)),
        ),
        ("selective", Json::Bool(o.selective)),
        ("exact_budget", Json::u64(o.exact_budget)),
        ("sim", sim_to_json(&o.sim)),
    ])
}

/// Rebuilds [`CompileOptions`] from [`options_to_json`] output.
///
/// # Errors
///
/// [`ProtoError`] on any missing, mistyped, or out-of-range field.
pub fn options_from_json(doc: &Json) -> Result<CompileOptions, ProtoError> {
    let mut o = CompileOptions::new(scheduler_from_str(get_str(doc, "scheduler")?)?);
    o.unroll = opt_u64(doc, "unroll")?
        .map(|f| u32::try_from(f).map_err(|_| err("unroll out of range")))
        .transpose()?;
    o.trace = get_bool(doc, "trace")?;
    o.locality = get_bool(doc, "locality")?;
    o.predicate = get_bool(doc, "predicate")?;
    o.weight_cap =
        u32::try_from(get_u64(doc, "weight_cap")?).map_err(|_| err("weight_cap out of range"))?;
    o.tie_break = tie_break_from_str(get_str(doc, "tie_break")?)?;
    o.unroll_budget = opt_u64(doc, "unroll_budget")?.map(|b| b as usize);
    o.selective = get_bool(doc, "selective")?;
    o.exact_budget = get_u64(doc, "exact_budget")?;
    o.sim = sim_from_json(doc.get("sim").ok_or_else(|| err("missing field \"sim\""))?)?;
    Ok(o)
}

/// Parses a paper-table configuration label (`none`, `LU 4`,
/// `TrS+LU 8`, `LA`, `LA+LU 4`, `LA+TrS+LU 8`; spaces optional).
///
/// # Errors
///
/// [`ProtoError`] naming the accepted spellings.
pub fn config_kind_from_label(label: &str) -> Result<ConfigKind, ProtoError> {
    let compact: String = label.chars().filter(|c| !c.is_whitespace()).collect();
    let unroll_of = |rest: &str| -> Result<u32, ProtoError> {
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

/// Serializes a cell in the full spelling.
#[must_use]
pub fn cell_to_json(cell: &ExperimentCell) -> Json {
    Json::obj(vec![
        ("kernel", Json::Str(cell.kernel().to_string())),
        ("options", options_to_json(cell.options())),
    ])
}

/// Decodes a cell from [`cell_to_json`]'s spelling. Kernel names are
/// validated against the workload suite so a typo is rejected at the
/// protocol layer, before anything is queued.
///
/// # Errors
///
/// [`ProtoError`] on unknown kernels or a missing or malformed options
/// object.
pub fn cell_from_json(doc: &Json) -> Result<ExperimentCell, ProtoError> {
    let kernel = get_str(doc, "kernel")?;
    if bsched_workloads::suite::kernel_by_name(kernel).is_none() {
        let valid: Vec<&str> = bsched_workloads::all_kernels()
            .iter()
            .map(|k| k.name)
            .collect();
        return Err(err(format!(
            "unknown kernel {kernel:?} (valid kernels: {})",
            valid.join(", ")
        )));
    }
    let options = doc
        .get("options")
        .ok_or_else(|| err("missing field \"options\""))?;
    Ok(ExperimentCell::new(kernel, options_from_json(options)?))
}

// ---------------------------------------------------------------------
// Trace events on the wire
// ---------------------------------------------------------------------

/// A trace event as it travels to a client: the owned mirror of
/// [`bsched_trace::Event`] (the in-process event interns its point
/// identity as `'static` strings, which a decoder cannot reconstruct).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireTraceEvent {
    /// Subsystem (`"harness"`, `"sim"`, …).
    pub cat: String,
    /// Point name within the subsystem.
    pub name: String,
    /// Span or instant (`"span"` / `"instant"`).
    pub kind: String,
    /// Span duration in nanoseconds; 0 for instants.
    pub dur_ns: u64,
    /// Dynamic context (cell label, kernel name); may be empty.
    pub label: String,
    /// Numeric payload in recording order.
    pub args: Vec<(String, u64)>,
}

impl WireTraceEvent {
    /// Converts an in-process event. The wall-clock timestamp is
    /// deliberately dropped: it is not deterministic and the client is
    /// on a different clock anyway.
    #[must_use]
    pub fn from_event(e: &bsched_trace::Event) -> Self {
        WireTraceEvent {
            cat: e.id.cat.to_string(),
            name: e.id.name.to_string(),
            kind: e.kind.label().to_string(),
            dur_ns: e.dur_ns,
            label: e.label.clone(),
            args: e.args.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cat", Json::Str(self.cat.clone())),
            ("name", Json::Str(self.name.clone())),
            ("kind", Json::Str(self.kind.clone())),
            ("dur_ns", Json::u64(self.dur_ns)),
            ("label", Json::Str(self.label.clone())),
            (
                "args",
                Json::Arr(
                    self.args
                        .iter()
                        .map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), Json::u64(*v)]))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, ProtoError> {
        let args = match doc.get("args") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|pair| match pair {
                    Json::Arr(kv) if kv.len() == 2 => {
                        let k = kv[0].as_str().ok_or_else(|| err("bad trace arg key"))?;
                        let v = kv[1].as_u64().ok_or_else(|| err("bad trace arg value"))?;
                        Ok((k.to_string(), v))
                    }
                    _ => Err(err("bad trace arg pair")),
                })
                .collect::<Result<Vec<_>, ProtoError>>()?,
            _ => return Err(err("missing trace args")),
        };
        Ok(WireTraceEvent {
            cat: get_str(doc, "cat")?.to_string(),
            name: get_str(doc, "name")?.to_string(),
            kind: get_str(doc, "kind")?.to_string(),
            dur_ns: get_u64(doc, "dur_ns")?,
            label: get_str(doc, "label")?.to_string(),
            args,
        })
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
    /// [`ProtoError`] on a version mismatch, unknown type, or malformed
    /// fields.
    pub fn from_json(doc: &Json) -> Result<Request, ProtoError> {
        check_version(doc)?;
        match get_str(doc, "type")? {
            "hello" => Ok(Request::Hello),
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "submit" => {
                let cells = match doc.get("cells") {
                    Some(Json::Arr(items)) => items.iter().map(cell_from_json).collect::<Result<
                        Vec<_>,
                        ProtoError,
                    >>(
                    )?,
                    _ => return Err(err("submit requires a \"cells\" array")),
                };
                if cells.is_empty() {
                    return Err(err("submit requires at least one cell"));
                }
                Ok(Request::Submit(SubmitRequest {
                    id: get_u64(doc, "id")?,
                    verify: get_bool(doc, "verify")?,
                    trace: get_bool(doc, "trace")?,
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

    fn from_json(doc: &Json) -> Result<Self, ProtoError> {
        Ok(StatsSnapshot {
            submits: get_u64(doc, "submits")?,
            submitted_cells: get_u64(doc, "submitted_cells")?,
            joined_inflight: get_u64(doc, "joined_inflight")?,
            rejected_submits: get_u64(doc, "rejected_submits")?,
            completed_cells: get_u64(doc, "completed_cells")?,
            failed_cells: get_u64(doc, "failed_cells")?,
            queue_depth: get_u64(doc, "queue_depth")?,
            queue_limit: get_u64(doc, "queue_limit")?,
            executed: get_u64(doc, "executed")?,
            memory_hits: get_u64(doc, "memory_hits")?,
            disk_hits: get_u64(doc, "disk_hits")?,
            requested: get_u64(doc, "requested")?,
            verified: get_u64(doc, "verified")?,
            store_hits: get_u64(doc, "store_hits")?,
            store_misses: get_u64(doc, "store_misses")?,
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
        /// Human-readable `kernel/label`.
        cell: String,
        /// The canonical cell key (clients use it to cross-check
        /// equivalence with local runs).
        key: String,
        /// Metrics plus verification flags.
        result: CellResult,
    },
    /// One cell failed (the rest of the stream continues).
    CellError {
        /// Echo of the submit id.
        id: u64,
        /// Index into the submitted cell list.
        index: u64,
        /// Human-readable `kernel/label`.
        cell: String,
        /// What went wrong.
        msg: String,
    },
    /// Trace events attributed to one cell (follows that cell's
    /// `result` frame when the submit asked for tracing).
    TraceEvents {
        /// Echo of the submit id.
        id: u64,
        /// Index into the submitted cell list.
        index: u64,
        /// The events.
        events: Vec<WireTraceEvent>,
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

    /// A result frame for `cell`, deriving the display string and the
    /// canonical cell key from the cell itself.
    #[must_use]
    pub fn cell_result(
        id: u64,
        index: u64,
        cell: &ExperimentCell,
        result: &CellResult,
    ) -> Response {
        Response::CellResult {
            id,
            index,
            cell: cell.to_string(),
            key: cell.canonical_key().to_string(),
            result: result.clone(),
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
                cell,
                key,
                result,
            } => {
                pairs.push(("type", Json::Str("result".into())));
                pairs.push(("id", Json::u64(*id)));
                pairs.push(("index", Json::u64(*index)));
                pairs.push(("cell", Json::Str(cell.clone())));
                pairs.push(("key", Json::Str(key.clone())));
                pairs.push(("checksum_ok", Json::Bool(result.checksum_ok)));
                pairs.push(("verified", Json::Bool(result.verified)));
                pairs.push(("metrics", encode_metrics(&result.metrics)));
            }
            Response::CellError {
                id,
                index,
                cell,
                msg,
            } => {
                pairs.push(("type", Json::Str("cell_error".into())));
                pairs.push(("id", Json::u64(*id)));
                pairs.push(("index", Json::u64(*index)));
                pairs.push(("cell", Json::Str(cell.clone())));
                pairs.push(("msg", Json::Str(msg.clone())));
            }
            Response::TraceEvents { id, index, events } => {
                pairs.push(("type", Json::Str("trace_events".into())));
                pairs.push(("id", Json::u64(*id)));
                pairs.push(("index", Json::u64(*index)));
                pairs.push((
                    "events",
                    Json::Arr(events.iter().map(WireTraceEvent::to_json).collect()),
                ));
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
    /// [`ProtoError`] on a version mismatch, unknown type, or malformed
    /// fields.
    pub fn from_json(doc: &Json) -> Result<Response, ProtoError> {
        check_version(doc)?;
        match get_str(doc, "type")? {
            "hello_ok" => Ok(Response::HelloOk {
                server: get_str(doc, "server")?.to_string(),
                schema: u32::try_from(get_u64(doc, "schema")?)
                    .map_err(|_| err("schema out of range"))?,
            }),
            "pong" => Ok(Response::Pong),
            "stats" => Ok(Response::Stats(StatsSnapshot::from_json(doc)?)),
            "shutdown_ok" => Ok(Response::ShutdownOk),
            "accepted" => Ok(Response::Accepted {
                id: get_u64(doc, "id")?,
                cells: get_u64(doc, "cells")?,
                new_jobs: get_u64(doc, "new_jobs")?,
                joined_inflight: get_u64(doc, "joined_inflight")?,
            }),
            "overloaded" => Ok(Response::Overloaded {
                id: get_u64(doc, "id")?,
                queued: get_u64(doc, "queued")?,
                limit: get_u64(doc, "limit")?,
            }),
            "result" => {
                let metrics = doc
                    .get("metrics")
                    .and_then(decode_metrics)
                    .ok_or_else(|| err("missing or malformed metrics"))?;
                Ok(Response::CellResult {
                    id: get_u64(doc, "id")?,
                    index: get_u64(doc, "index")?,
                    cell: get_str(doc, "cell")?.to_string(),
                    key: get_str(doc, "key")?.to_string(),
                    result: CellResult {
                        metrics,
                        checksum_ok: get_bool(doc, "checksum_ok")?,
                        verified: get_bool(doc, "verified")?,
                    },
                })
            }
            "cell_error" => Ok(Response::CellError {
                id: get_u64(doc, "id")?,
                index: get_u64(doc, "index")?,
                cell: get_str(doc, "cell")?.to_string(),
                msg: get_str(doc, "msg")?.to_string(),
            }),
            "trace_events" => {
                let events = match doc.get("events") {
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(WireTraceEvent::from_json)
                        .collect::<Result<Vec<_>, ProtoError>>()?,
                    _ => return Err(err("missing trace events array")),
                };
                Ok(Response::TraceEvents {
                    id: get_u64(doc, "id")?,
                    index: get_u64(doc, "index")?,
                    events,
                })
            }
            "done" => Ok(Response::Done {
                id: get_u64(doc, "id")?,
            }),
            "error" => Ok(Response::Error {
                id: opt_u64(doc, "id")?,
                msg: get_str(doc, "msg")?.to_string(),
            }),
            other => Err(err(format!("unknown response type {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_pipeline::standard_grid;
    use bsched_sim::SimMetrics;

    #[test]
    fn options_round_trip_preserves_canonical_keys() {
        // Every standard-grid configuration, plus ablation knobs, must
        // survive the wire codec with its cell key intact — that is
        // the whole equivalence story.
        let mut all: Vec<CompileOptions> = standard_grid().iter().map(|c| c.options()).collect();
        let mut exotic = CompileOptions::new(SchedulerKind::SelectiveBalanced)
            .with_unroll(8)
            .with_weight_cap(10)
            .with_tie_break(TieBreak::ProgramOrder)
            .with_unroll_budget(96);
        exotic.predicate = false;
        exotic.selective = false;
        exotic.sim = SimConfig::default().with_issue(4, 2).with_mshrs(1);
        exotic.sim.mem.l3 = None;
        exotic.sim.mem.write_buffer = Some(6);
        all.push(exotic);
        all.push({
            let mut o = CompileOptions::new(SchedulerKind::Balanced);
            o.sim = SimConfig::default().simple_model_1993();
            o
        });
        // The machine zoo's new axes must survive the wire too.
        for spec in [
            "alpha21264",
            "blocking21164",
            "alpha21164+bp=tage+pf=nextline+mshr=nomerge",
        ] {
            let mut o = CompileOptions::new(SchedulerKind::Balanced);
            o.sim = spec.parse::<bsched_sim::MachineSpec>().unwrap().config();
            all.push(o);
        }
        for o in &all {
            let back = options_from_json(&options_to_json(o)).expect("round-trip");
            let a = ExperimentCell::new("TRFD", *o);
            let b = ExperimentCell::new("TRFD", back);
            assert_eq!(a.canonical_key(), b.canonical_key());
        }
    }

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
    fn unknown_kernels_and_shorthand_cells_are_rejected() {
        let options = options_to_json(&CompileOptions::new(SchedulerKind::Balanced));
        let bad_kernel = Json::obj(vec![
            ("kernel", Json::Str("nonesuch".into())),
            ("options", options),
        ]);
        let e = cell_from_json(&bad_kernel).unwrap_err();
        assert!(e.0.contains("nonesuch") && e.0.contains("TRFD"), "{e}");

        let shorthand = Json::obj(vec![
            ("kernel", Json::Str("TRFD".into())),
            ("scheduler", Json::Str("bal".into())),
            ("config", Json::Str("none".into())),
        ]);
        let e = cell_from_json(&shorthand).unwrap_err();
        assert!(e.0.contains("options"), "{e}");
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
                assert_eq!(s.cells.len(), 2);
                for (a, b) in s.cells.iter().zip(&cells) {
                    assert_eq!(a.canonical_key(), b.canonical_key());
                }
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
                cell: "TRFD/BS".into(),
                key: "kernel=TRFD;...".into(),
                result: result.clone(),
            },
            Response::CellError {
                id: 7,
                index: 4,
                cell: "TRFD/BS".into(),
                msg: "boom".into(),
            },
            Response::TraceEvents {
                id: 7,
                index: 3,
                events: vec![WireTraceEvent {
                    cat: "harness".into(),
                    name: "cell".into(),
                    kind: "span".into(),
                    dur_ns: 1234,
                    label: "TRFD/BS".into(),
                    args: vec![("cycles".into(), 5)],
                }],
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
                cell: "c".into(),
                key: "k".into(),
                result,
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
