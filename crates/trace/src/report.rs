//! Sinks: versioned JSON export, chrome://tracing spans, a human
//! summary table, and the loudly-versioned reader used by tests.

use crate::event::{points, Event, EventKind};
use bsched_util::json::JsonError;
use bsched_util::Json;
use std::collections::BTreeMap;
use std::fmt;

/// Version of the JSON export schema. Bump on any incompatible change
/// to the document shape; [`ParsedTrace::parse`] refuses documents with
/// any other version instead of misreading them.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// A finalized set of events, deterministically ordered, ready for
/// export.
#[derive(Debug, Clone)]
pub struct TraceReport {
    events: Vec<Event>,
}

impl TraceReport {
    /// Builds a report, sorting events by static identity, label, and
    /// payload (wall-clock fields only break exact ties). Two runs of
    /// the same deterministic workload therefore export the same event
    /// sequence even though workers raced during recording.
    #[must_use]
    pub fn new(mut events: Vec<Event>) -> Self {
        events.sort_by(|a, b| {
            (a.id, &a.label, &a.args, a.kind, a.ts_ns, a.dur_ns, a.tid)
                .cmp(&(b.id, &b.label, &b.args, b.kind, b.ts_ns, b.dur_ns, b.tid))
        });
        TraceReport { events }
    }

    /// The ordered events.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The machine-readable export:
    /// `{"schema": N, "events": [{cat, name, kind, ts_ns, dur_ns, tid, label, args}]}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let events = self
            .events
            .iter()
            .map(|e| ParsedEvent::from(e).to_json())
            .collect();
        Json::obj(vec![
            ("schema", Json::u64(u64::from(TRACE_SCHEMA_VERSION))),
            ("events", Json::Arr(events)),
        ])
    }

    /// [`to_json`](Self::to_json) serialized compactly.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// A chrome://tracing / Perfetto `traceEvents` document: spans as
    /// complete (`"X"`) events, instants as `"i"`, timestamps in
    /// microseconds.
    #[must_use]
    pub fn to_chrome_json_string(&self) -> String {
        let events = self
            .events
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("cat", Json::Str(e.id.cat.to_string())),
                    ("name", Json::Str(format!("{}.{}", e.id.cat, e.id.name))),
                    ("pid", Json::u64(1)),
                    ("tid", Json::u64(e.tid)),
                    ("ts", Json::Num(e.ts_ns as f64 / 1000.0)),
                ];
                let mut args: Vec<(&str, Json)> =
                    e.args.iter().map(|&(k, v)| (k, Json::u64(v))).collect();
                if !e.label.is_empty() {
                    args.push(("label", Json::Str(e.label.clone())));
                }
                match e.kind {
                    EventKind::Span => {
                        fields.push(("ph", Json::Str("X".to_string())));
                        fields.push(("dur", Json::Num(e.dur_ns as f64 / 1000.0)));
                    }
                    EventKind::Instant => {
                        fields.push(("ph", Json::Str("i".to_string())));
                        fields.push(("s", Json::Str("t".to_string())));
                    }
                }
                fields.push(("args", Json::obj(args)));
                Json::obj(fields)
            })
            .collect();
        Json::obj(vec![("traceEvents", Json::Arr(events))]).to_string_compact()
    }

    /// The human summary folded into the harness run report on stderr:
    /// per-pass IR growth, scheduler region stats, the heaviest load
    /// sites by attributed interlock, and cell/violation counts.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "── bsched-trace summary ({} events) ──",
            self.events.len()
        );

        // Per-pass IR sizes, aggregated over compilations, in first-seen
        // order (phase order, since the report sorts ties by label).
        let mut passes: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
        for e in self.events.iter().filter(|e| e.id == points::PIPELINE_PASS) {
            let p = passes.entry(e.label.as_str()).or_default();
            p.0 += 1;
            p.1 += e.arg("before").unwrap_or(0);
            p.2 += e.arg("after").unwrap_or(0);
            p.3 += e.dur_ns;
        }
        if !passes.is_empty() {
            let _ = writeln!(s, "passes (aggregated over compilations):");
            for (name, (calls, before, after, dur)) in &passes {
                let _ = writeln!(
                    s,
                    "  {name:<16} {calls:>5} calls  insts {before:>7} -> {after:>7}  {:>9.3}ms",
                    *dur as f64 / 1e6
                );
            }
        }

        let regions: Vec<&Event> = self
            .events
            .iter()
            .filter(|e| e.id == points::SCHED_REGION)
            .collect();
        if !regions.is_empty() {
            let insts: u64 = regions.iter().filter_map(|e| e.arg("insts")).sum();
            let loads: u64 = regions.iter().filter_map(|e| e.arg("loads")).sum();
            let wmax = regions.iter().filter_map(|e| e.arg("weight_max")).max();
            let _ = writeln!(
                s,
                "scheduler: {} regions, {insts} insts, {loads} loads, max balanced weight {}",
                regions.len(),
                wmax.unwrap_or(0)
            );
        }

        let mut sites: Vec<&Event> = self
            .events
            .iter()
            .filter(|e| e.id == points::SIM_LOAD_SITE)
            .collect();
        if !sites.is_empty() {
            let attributed: u64 = sites
                .iter()
                .map(|e| e.arg("interlock").unwrap_or(0) + e.arg("mshr_stall").unwrap_or(0))
                .sum();
            sites.sort_by_key(|e| {
                std::cmp::Reverse(
                    e.arg("interlock").unwrap_or(0) + e.arg("mshr_stall").unwrap_or(0),
                )
            });
            let _ = writeln!(
                s,
                "load sites: {} issued, {attributed} load-interlock cycles attributed; heaviest:",
                sites.len()
            );
            for e in sites.iter().take(5) {
                let _ = writeln!(
                    s,
                    "  {:<24} site {:>4} block {:>3}: {:>7} interlock, {:>6} mshr, hits l1/l2/l3/mem {}/{}/{}/{}",
                    e.label,
                    e.arg("site").unwrap_or(0),
                    e.arg("block").unwrap_or(0),
                    e.arg("interlock").unwrap_or(0),
                    e.arg("mshr_stall").unwrap_or(0),
                    e.arg("l1").unwrap_or(0),
                    e.arg("l2").unwrap_or(0),
                    e.arg("l3").unwrap_or(0),
                    e.arg("mem").unwrap_or(0),
                )
                ;
            }
        }

        let cells: Vec<&Event> = self
            .events
            .iter()
            .filter(|e| e.id == points::HARNESS_CELL)
            .collect();
        if !cells.is_empty() {
            let dur: u64 = cells.iter().map(|e| e.dur_ns).sum();
            let _ = writeln!(
                s,
                "cells traced: {} spans, {:.3}s total",
                cells.len(),
                dur as f64 / 1e9
            );
        }

        let violations = self
            .events
            .iter()
            .filter(|e| e.id == points::VERIFY_VIOLATION)
            .count();
        if violations > 0 {
            let _ = writeln!(s, "violations traced: {violations}");
        }
        s
    }
}

/// Why a trace document could not be read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceReadError {
    /// The text is not valid JSON.
    Json(JsonError),
    /// The document declares a schema version this reader does not
    /// speak. Old readers fail here — loudly — instead of misparsing.
    SchemaMismatch {
        /// Version found in the document.
        found: u64,
        /// Version this reader supports.
        expected: u32,
    },
    /// Structurally valid JSON that is not a trace document.
    Malformed(&'static str),
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceReadError::Json(e) => {
                write!(f, "trace is not valid JSON: {} at byte {}", e.msg, e.at)
            }
            TraceReadError::SchemaMismatch { found, expected } => write!(
                f,
                "trace schema v{found} is not supported by this reader (expects v{expected}); \
                 refusing to parse"
            ),
            TraceReadError::Malformed(what) => write!(f, "malformed trace document: {what}"),
        }
    }
}

impl std::error::Error for TraceReadError {}

/// An event in owned form: the one per-event JSON codec, used by the
/// export, by [`ParsedTrace::parse`] and by the `bsched-serve` wire.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ParsedEvent {
    /// Subsystem category.
    pub cat: String,
    /// Point name.
    pub name: String,
    /// `"span"` or `"instant"`.
    pub kind: String,
    /// Label (may be empty).
    pub label: String,
    /// Payload, key-sorted.
    pub args: BTreeMap<String, u64>,
    /// Nanoseconds since the recording process's trace epoch.
    pub ts_ns: u64,
    /// Span duration.
    pub dur_ns: u64,
    /// Recording thread id.
    pub tid: u64,
}

impl From<&Event> for ParsedEvent {
    fn from(e: &Event) -> Self {
        ParsedEvent {
            cat: e.id.cat.to_string(),
            name: e.id.name.to_string(),
            kind: e.kind.label().to_string(),
            label: e.label.clone(),
            args: e.args.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            ts_ns: e.ts_ns,
            dur_ns: e.dur_ns,
            tid: e.tid,
        }
    }
}

impl ParsedEvent {
    /// `{cat, name, kind, ts_ns, dur_ns, tid, label, args}`, with `args`
    /// an object of integers.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cat", Json::Str(self.cat.clone())),
            ("name", Json::Str(self.name.clone())),
            ("kind", Json::Str(self.kind.clone())),
            ("ts_ns", Json::u64(self.ts_ns)),
            ("dur_ns", Json::u64(self.dur_ns)),
            ("tid", Json::u64(self.tid)),
            ("label", Json::Str(self.label.clone())),
            (
                "args",
                Json::Obj(
                    self.args
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::u64(v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Reads one [`ParsedEvent::to_json`] document.
    ///
    /// # Errors
    ///
    /// [`TraceReadError::Malformed`] on a missing or mistyped field or
    /// an unknown event kind.
    pub fn from_json(e: &Json) -> Result<Self, TraceReadError> {
        let field = |k: &'static str| -> Result<&Json, TraceReadError> {
            e.get(k)
                .ok_or(TraceReadError::Malformed("event missing a field"))
        };
        let str_field = |k: &'static str| -> Result<String, TraceReadError> {
            Ok(field(k)?
                .as_str()
                .ok_or(TraceReadError::Malformed("event field has the wrong type"))?
                .to_string())
        };
        let num_field = |k: &'static str| -> Result<u64, TraceReadError> {
            field(k)?
                .as_u64()
                .ok_or(TraceReadError::Malformed("event field has the wrong type"))
        };
        let kind = str_field("kind")?;
        if kind != "span" && kind != "instant" {
            return Err(TraceReadError::Malformed("unknown event kind"));
        }
        let Json::Obj(raw_args) = field("args")? else {
            return Err(TraceReadError::Malformed("event args is not an object"));
        };
        let mut args = BTreeMap::new();
        for (k, v) in raw_args {
            let v = v
                .as_u64()
                .ok_or(TraceReadError::Malformed("arg value is not a u64"))?;
            args.insert(k.clone(), v);
        }
        Ok(ParsedEvent {
            cat: str_field("cat")?,
            name: str_field("name")?,
            kind,
            label: str_field("label")?,
            args,
            ts_ns: num_field("ts_ns")?,
            dur_ns: num_field("dur_ns")?,
            tid: num_field("tid")?,
        })
    }
}

/// A trace document read back from its JSON export, schema-checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedTrace {
    events: Vec<ParsedEvent>,
}

impl ParsedTrace {
    /// Parses and validates a [`TraceReport::to_json_string`] document.
    ///
    /// # Errors
    ///
    /// [`TraceReadError::Json`] for invalid JSON,
    /// [`TraceReadError::SchemaMismatch`] for any schema version other
    /// than [`TRACE_SCHEMA_VERSION`], [`TraceReadError::Malformed`] for
    /// structural problems.
    pub fn parse(text: &str) -> Result<Self, TraceReadError> {
        let doc = Json::parse(text).map_err(TraceReadError::Json)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or(TraceReadError::Malformed("missing schema version"))?;
        if schema != u64::from(TRACE_SCHEMA_VERSION) {
            return Err(TraceReadError::SchemaMismatch {
                found: schema,
                expected: TRACE_SCHEMA_VERSION,
            });
        }
        let Some(Json::Arr(raw)) = doc.get("events") else {
            return Err(TraceReadError::Malformed("missing events array"));
        };
        let events = raw
            .iter()
            .map(ParsedEvent::from_json)
            .collect::<Result<_, _>>()?;
        Ok(ParsedTrace { events })
    }

    /// The events, in document order.
    #[must_use]
    pub fn events(&self) -> &[ParsedEvent] {
        &self.events
    }

    /// Zeroes every wall-clock-dependent field (`ts_ns`, `dur_ns`,
    /// `tid`) and re-sorts, leaving exactly the deterministic content —
    /// what the golden-snapshot test pins.
    #[must_use]
    pub fn normalized(mut self) -> Self {
        for e in &mut self.events {
            e.ts_ns = 0;
            e.dur_ns = 0;
            e.tid = 0;
        }
        self.events.sort();
        self
    }

    /// Renders one line per event (plus a schema header) — the
    /// reviewable golden-file format.
    #[must_use]
    pub fn to_lines(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("bsched-trace schema v{TRACE_SCHEMA_VERSION}\n");
        for e in &self.events {
            let args = e
                .args
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",");
            let _ = writeln!(
                s,
                "{}.{} {} label={:?} args{{{args}}}",
                e.cat, e.name, e.kind, e.label
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceId;

    fn ev(
        cat: &'static str,
        name: &'static str,
        label: &str,
        args: &[(&'static str, u64)],
    ) -> Event {
        Event {
            id: TraceId::new(cat, name),
            kind: EventKind::Instant,
            ts_ns: 5,
            dur_ns: 0,
            tid: 3,
            label: label.to_string(),
            args: args.to_vec(),
        }
    }

    #[test]
    fn report_orders_events_deterministically() {
        let forward = TraceReport::new(vec![
            ev("sim", "run", "b", &[]),
            ev("pipeline", "pass", "dce", &[]),
            ev("sim", "run", "a", &[]),
        ]);
        let backward = TraceReport::new(vec![
            ev("sim", "run", "a", &[]),
            ev("sim", "run", "b", &[]),
            ev("pipeline", "pass", "dce", &[]),
        ]);
        assert_eq!(forward.to_json_string(), backward.to_json_string());
        assert_eq!(forward.events()[0].id.cat, "pipeline");
    }

    #[test]
    fn json_round_trips_through_the_reader() {
        let report = TraceReport::new(vec![ev(
            "sim",
            "load_site",
            "TRFD",
            &[("site", 12), ("interlock", 40)],
        )]);
        let parsed = ParsedTrace::parse(&report.to_json_string()).unwrap();
        assert_eq!(parsed.events().len(), 1);
        let e = &parsed.events()[0];
        assert_eq!((e.cat.as_str(), e.name.as_str()), ("sim", "load_site"));
        assert_eq!(e.args["site"], 12);
        assert_eq!(e.args["interlock"], 40);
        assert_eq!(e.ts_ns, 5);
        assert_eq!(e.tid, 3);
    }

    #[test]
    fn schema_mismatch_fails_loudly_not_silently() {
        let mut doc = TraceReport::new(vec![ev("sim", "run", "", &[])]).to_json_string();
        let from = format!("\"schema\":{TRACE_SCHEMA_VERSION}");
        let bumped = doc.replace(&from, &format!("\"schema\":{}", TRACE_SCHEMA_VERSION + 1));
        assert_ne!(doc, bumped, "substitution must hit");
        doc = bumped;
        let err = ParsedTrace::parse(&doc).unwrap_err();
        assert_eq!(
            err,
            TraceReadError::SchemaMismatch {
                found: u64::from(TRACE_SCHEMA_VERSION) + 1,
                expected: TRACE_SCHEMA_VERSION,
            }
        );
        assert!(err.to_string().contains("refusing to parse"), "{err}");
    }

    #[test]
    fn missing_schema_and_garbage_are_rejected() {
        assert!(matches!(
            ParsedTrace::parse("{\"events\": []}"),
            Err(TraceReadError::Malformed(_))
        ));
        assert!(matches!(
            ParsedTrace::parse("not json"),
            Err(TraceReadError::Json(_))
        ));
    }

    #[test]
    fn normalized_zeroes_wall_clock_fields() {
        let report = TraceReport::new(vec![ev("a", "b", "x", &[("v", 1)])]);
        let parsed = ParsedTrace::parse(&report.to_json_string())
            .unwrap()
            .normalized();
        let e = &parsed.events()[0];
        assert_eq!((e.ts_ns, e.dur_ns, e.tid), (0, 0, 0));
        assert_eq!(e.args["v"], 1);
        let lines = parsed.to_lines();
        assert!(lines.starts_with("bsched-trace schema v"), "{lines}");
        assert!(
            lines.contains("a.b instant label=\"x\" args{v=1}"),
            "{lines}"
        );
    }

    #[test]
    fn chrome_export_emits_trace_events() {
        let mut span = ev("pipeline", "pass", "dce", &[("before", 4)]);
        span.kind = EventKind::Span;
        span.dur_ns = 1500;
        let text = TraceReport::new(vec![span, ev("sim", "run", "", &[])]).to_chrome_json_string();
        let doc = Json::parse(&text).unwrap();
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents: {text}");
        };
        assert_eq!(events.len(), 2);
        assert!(
            text.contains("\"ph\":\"X\"") && text.contains("\"ph\":\"i\""),
            "{text}"
        );
        assert!(text.contains("\"dur\":1.5"), "{text}");
    }

    #[test]
    fn summary_mentions_each_section() {
        let mut cell = ev("harness", "cell", "TRFD/BS", &[]);
        cell.kind = EventKind::Span;
        let events = vec![
            ev("pipeline", "pass", "dce", &[("before", 10), ("after", 8)]),
            ev(
                "sched",
                "region",
                "main",
                &[("insts", 6), ("loads", 2), ("weight_max", 3)],
            ),
            ev(
                "sim",
                "load_site",
                "TRFD",
                &[("site", 1), ("interlock", 9), ("mshr_stall", 1), ("l1", 4)],
            ),
            cell,
            ev("verify", "violation", "region 0: bad", &[]),
        ];
        let s = TraceReport::new(events).summary();
        assert!(s.contains("bsched-trace summary"), "{s}");
        assert!(s.contains("passes"), "{s}");
        assert!(s.contains("scheduler: 1 regions"), "{s}");
        assert!(s.contains("10 load-interlock cycles attributed"), "{s}");
        assert!(s.contains("cells traced: 1 spans"), "{s}");
        assert!(s.contains("violations traced: 1"), "{s}");
    }
}
