//! The JSON codec for experiment cells and simulator metrics: how a
//! cell and its result travel over the `bsched-serve` wire, and the
//! text of [`ExperimentCell::canonical_key`].
//!
//! A cell is spelled `{"kernel": "TRFD", "options": {...}}` with every
//! field of [`CompileOptions`] and of the machine it embeds written out.
//! Each encoder destructures its struct without `..`, so a new field
//! does not compile until it is encoded, and each decoder builds its
//! struct from every field, so decoding an encoding returns an equal
//! value.

use crate::cell::ExperimentCell;
use bsched_core::{SchedulerKind, TieBreak};
use bsched_mem::{CacheConfig, MemConfig, MemStats};
use bsched_pipeline::CompileOptions;
use bsched_sim::{BranchConfig, InstCounts, SimConfig, SimMetrics};
use bsched_util::Json;
use std::fmt;

/// A JSON document that is not a valid encoding: a missing, mistyped
/// or out-of-range field, or an unknown name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err(msg: impl Into<String>) -> CodecError {
    CodecError(msg.into())
}

/// Reads a required integer field: [`CodecError`] if missing or not a `u64`.
pub fn u64_field(doc: &Json, key: &str) -> Result<u64, CodecError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| err(format!("missing or non-integer field {key:?}")))
}

/// Reads a required boolean field: [`CodecError`] if missing or not a bool.
pub fn bool_field(doc: &Json, key: &str) -> Result<bool, CodecError> {
    doc.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| err(format!("missing or non-bool field {key:?}")))
}

/// Reads a required string field: [`CodecError`] if missing or not a string.
pub fn str_field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, CodecError> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| err(format!("missing or non-string field {key:?}")))
}

/// Reads an integer field that may be absent or `null`: [`CodecError`]
/// if present but not a `u64`.
pub fn opt_u64_field(doc: &Json, key: &str) -> Result<Option<u64>, CodecError> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| err(format!("field {key:?} must be an integer or null"))),
    }
}

fn object<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, CodecError> {
    doc.get(key)
        .ok_or_else(|| err(format!("missing field {key:?}")))
}

fn narrow<T: TryFrom<u64>>(v: u64, what: &str) -> Result<T, CodecError> {
    T::try_from(v).map_err(|_| err(format!("{what} out of range")))
}

fn int_field<T: TryFrom<u64>>(doc: &Json, key: &str) -> Result<T, CodecError> {
    narrow(u64_field(doc, key)?, key)
}

fn u64_or_null(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::u64)
}

// ---------------------------------------------------------------------
// Cells, options and machines
// ---------------------------------------------------------------------

/// The wire spelling of a scheduler.
pub(crate) fn scheduler_str(k: SchedulerKind) -> &'static str {
    match k {
        SchedulerKind::Traditional => "trad",
        SchedulerKind::Balanced => "bal",
        SchedulerKind::SelectiveBalanced => "selbal",
        SchedulerKind::Exact => "exact",
    }
}

fn scheduler_from_str(s: &str) -> Result<SchedulerKind, CodecError> {
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

/// The wire spelling of a tie-break order.
pub(crate) fn tie_break_str(t: TieBreak) -> &'static str {
    match t {
        TieBreak::Standard => "std",
        TieBreak::ExposedFirst => "exposed",
        TieBreak::ProgramOrder => "order",
    }
}

fn tie_break_from_str(s: &str) -> Result<TieBreak, CodecError> {
    match s {
        "std" => Ok(TieBreak::Standard),
        "exposed" => Ok(TieBreak::ExposedFirst),
        "order" => Ok(TieBreak::ProgramOrder),
        other => Err(err(format!(
            "unknown tie_break {other:?} (expected std|exposed|order)"
        ))),
    }
}

fn parsed<T: std::str::FromStr<Err = String>>(doc: &Json, key: &str) -> Result<T, CodecError> {
    str_field(doc, key)?.parse().map_err(CodecError)
}

fn cache_to_json(c: &CacheConfig) -> Json {
    let CacheConfig {
        size,
        line,
        assoc,
        latency,
    } = *c;
    Json::obj(vec![
        ("size", Json::u64(size)),
        ("line", Json::u64(line)),
        ("assoc", Json::u64(u64::from(assoc))),
        ("latency", Json::u64(u64::from(latency))),
    ])
}

fn cache_from_json(doc: &Json) -> Result<CacheConfig, CodecError> {
    Ok(CacheConfig {
        size: u64_field(doc, "size")?,
        line: u64_field(doc, "line")?,
        assoc: int_field(doc, "assoc")?,
        latency: int_field(doc, "latency")?,
    })
}

fn mem_to_json(m: &MemConfig) -> Json {
    let MemConfig {
        l1d,
        icache,
        l2,
        l3,
        mem_latency,
        mshrs,
        dtb_entries,
        itb_entries,
        page_size,
        tlb_miss_penalty,
        write_buffer,
        write_drain_cycles,
        prefetch,
        mshr_policy,
    } = *m;
    Json::obj(vec![
        ("l1d", cache_to_json(&l1d)),
        ("icache", cache_to_json(&icache)),
        ("l2", cache_to_json(&l2)),
        ("l3", l3.as_ref().map_or(Json::Null, cache_to_json)),
        ("mem_latency", Json::u64(u64::from(mem_latency))),
        ("mshrs", Json::u64(mshrs as u64)),
        ("dtb_entries", Json::u64(dtb_entries as u64)),
        ("itb_entries", Json::u64(itb_entries as u64)),
        ("page_size", Json::u64(page_size)),
        ("tlb_miss_penalty", Json::u64(u64::from(tlb_miss_penalty))),
        ("write_buffer", u64_or_null(write_buffer.map(u64::from))),
        (
            "write_drain_cycles",
            Json::u64(u64::from(write_drain_cycles)),
        ),
        ("prefetch", Json::Str(prefetch.label().into())),
        ("mshr_policy", Json::Str(mshr_policy.label().into())),
    ])
}

fn mem_from_json(doc: &Json) -> Result<MemConfig, CodecError> {
    let l3 = match doc.get("l3") {
        None | Some(Json::Null) => None,
        Some(v) => Some(cache_from_json(v)?),
    };
    Ok(MemConfig {
        l1d: cache_from_json(object(doc, "l1d")?)?,
        icache: cache_from_json(object(doc, "icache")?)?,
        l2: cache_from_json(object(doc, "l2")?)?,
        l3,
        mem_latency: int_field(doc, "mem_latency")?,
        mshrs: int_field(doc, "mshrs")?,
        dtb_entries: int_field(doc, "dtb_entries")?,
        itb_entries: int_field(doc, "itb_entries")?,
        page_size: u64_field(doc, "page_size")?,
        tlb_miss_penalty: int_field(doc, "tlb_miss_penalty")?,
        write_buffer: opt_u64_field(doc, "write_buffer")?
            .map(|n| narrow(n, "write_buffer"))
            .transpose()?,
        write_drain_cycles: int_field(doc, "write_drain_cycles")?,
        prefetch: parsed(doc, "prefetch")?,
        mshr_policy: parsed(doc, "mshr_policy")?,
    })
}

fn branch_to_json(b: &BranchConfig) -> Json {
    let BranchConfig {
        kind,
        entries,
        mispredict_penalty,
    } = *b;
    Json::obj(vec![
        ("kind", Json::Str(kind.label().into())),
        ("entries", Json::u64(entries as u64)),
        (
            "mispredict_penalty",
            Json::u64(u64::from(mispredict_penalty)),
        ),
    ])
}

fn branch_from_json(doc: &Json) -> Result<BranchConfig, CodecError> {
    Ok(BranchConfig {
        kind: parsed(doc, "kind")?,
        entries: int_field(doc, "entries")?,
        mispredict_penalty: int_field(doc, "mispredict_penalty")?,
    })
}

fn sim_to_json(c: &SimConfig) -> Json {
    let SimConfig {
        mem,
        branch,
        fuel,
        model_ifetch,
        issue_width,
        mem_ports,
        uniform_fixed_latency,
    } = *c;
    Json::obj(vec![
        ("mem", mem_to_json(&mem)),
        ("branch", branch_to_json(&branch)),
        ("fuel", Json::u64(fuel)),
        ("model_ifetch", Json::Bool(model_ifetch)),
        ("issue_width", Json::u64(u64::from(issue_width))),
        ("mem_ports", Json::u64(u64::from(mem_ports))),
        ("uniform_fixed_latency", Json::Bool(uniform_fixed_latency)),
    ])
}

fn sim_from_json(doc: &Json) -> Result<SimConfig, CodecError> {
    Ok(SimConfig {
        mem: mem_from_json(object(doc, "mem")?)?,
        branch: branch_from_json(object(doc, "branch")?)?,
        fuel: u64_field(doc, "fuel")?,
        model_ifetch: bool_field(doc, "model_ifetch")?,
        issue_width: int_field(doc, "issue_width")?,
        mem_ports: int_field(doc, "mem_ports")?,
        uniform_fixed_latency: bool_field(doc, "uniform_fixed_latency")?,
    })
}

/// Serializes every field of [`CompileOptions`], machine included. The
/// inverse of [`options_from_json`].
#[must_use]
pub fn options_to_json(o: &CompileOptions) -> Json {
    let CompileOptions {
        scheduler,
        unroll,
        trace,
        locality,
        predicate,
        weight_cap,
        tie_break,
        unroll_budget,
        selective,
        exact_budget,
        sim,
    } = *o;
    Json::obj(vec![
        ("scheduler", Json::Str(scheduler_str(scheduler).into())),
        ("unroll", u64_or_null(unroll.map(u64::from))),
        ("trace", Json::Bool(trace)),
        ("locality", Json::Bool(locality)),
        ("predicate", Json::Bool(predicate)),
        ("weight_cap", Json::u64(u64::from(weight_cap))),
        ("tie_break", Json::Str(tie_break_str(tie_break).into())),
        (
            "unroll_budget",
            u64_or_null(unroll_budget.map(|b| b as u64)),
        ),
        ("selective", Json::Bool(selective)),
        ("exact_budget", Json::u64(exact_budget)),
        ("sim", sim_to_json(&sim)),
    ])
}

/// Rebuilds [`CompileOptions`] from [`options_to_json`] output.
///
/// # Errors
///
/// [`CodecError`] on any missing, mistyped, or out-of-range field.
pub fn options_from_json(doc: &Json) -> Result<CompileOptions, CodecError> {
    Ok(CompileOptions {
        scheduler: scheduler_from_str(str_field(doc, "scheduler")?)?,
        unroll: opt_u64_field(doc, "unroll")?
            .map(|f| narrow(f, "unroll"))
            .transpose()?,
        trace: bool_field(doc, "trace")?,
        locality: bool_field(doc, "locality")?,
        predicate: bool_field(doc, "predicate")?,
        weight_cap: int_field(doc, "weight_cap")?,
        tie_break: tie_break_from_str(str_field(doc, "tie_break")?)?,
        unroll_budget: opt_u64_field(doc, "unroll_budget")?
            .map(|b| narrow(b, "unroll_budget"))
            .transpose()?,
        selective: bool_field(doc, "selective")?,
        exact_budget: u64_field(doc, "exact_budget")?,
        sim: sim_from_json(object(doc, "sim")?)?,
    })
}

/// Serializes a cell: its kernel name and its full options.
#[must_use]
pub fn cell_to_json(cell: &ExperimentCell) -> Json {
    Json::obj(vec![
        ("kernel", Json::Str(cell.kernel().to_string())),
        ("options", options_to_json(cell.options())),
    ])
}

/// Decodes a cell from [`cell_to_json`]'s spelling. Kernel names are
/// checked against the workload suite, so a typo is rejected here,
/// before anything is queued.
///
/// # Errors
///
/// [`CodecError`] on an unknown kernel or a missing or malformed
/// options object.
pub fn cell_from_json(doc: &Json) -> Result<ExperimentCell, CodecError> {
    let kernel = str_field(doc, "kernel")?;
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
    Ok(ExperimentCell::new(
        kernel,
        options_from_json(object(doc, "options")?)?,
    ))
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// Encodes simulator metrics as the flat JSON document the
/// `bsched-serve` wire protocol carries.
#[must_use]
pub fn encode_metrics(m: &SimMetrics) -> Json {
    Json::obj(vec![
        ("cycles", Json::u64(m.cycles)),
        ("load_interlock", Json::u64(m.load_interlock)),
        ("fixed_interlock", Json::u64(m.fixed_interlock)),
        ("branch_penalty", Json::u64(m.branch_penalty)),
        ("store_stall", Json::u64(m.store_stall)),
        ("fetch_stall", Json::u64(m.fetch_stall)),
        ("tlb_stall", Json::u64(m.tlb_stall)),
        ("insts", encode_insts(&m.insts)),
        ("mem", encode_mem(&m.mem)),
    ])
}

fn encode_insts(i: &InstCounts) -> Json {
    Json::obj(vec![
        ("short_int", Json::u64(i.short_int)),
        ("long_int", Json::u64(i.long_int)),
        ("loads", Json::u64(i.loads)),
        ("stores", Json::u64(i.stores)),
        ("short_fp", Json::u64(i.short_fp)),
        ("long_fp", Json::u64(i.long_fp)),
        ("branches", Json::u64(i.branches)),
        ("jumps", Json::u64(i.jumps)),
        ("spills", Json::u64(i.spills)),
    ])
}

fn encode_mem(s: &MemStats) -> Json {
    Json::obj(vec![
        ("l1d_hits", Json::u64(s.l1d_hits)),
        ("l2_hits", Json::u64(s.l2_hits)),
        ("l3_hits", Json::u64(s.l3_hits)),
        ("mem_reads", Json::u64(s.mem_reads)),
        ("mshr_merges", Json::u64(s.mshr_merges)),
        ("mshr_stall_cycles", Json::u64(s.mshr_stall_cycles)),
        ("dtb_misses", Json::u64(s.dtb_misses)),
        ("itb_misses", Json::u64(s.itb_misses)),
        ("icache_misses", Json::u64(s.icache_misses)),
        ("stores", Json::u64(s.stores)),
        ("wb_stall_cycles", Json::u64(s.wb_stall_cycles)),
        ("prefetches", Json::u64(s.prefetches)),
        ("prefetch_useful", Json::u64(s.prefetch_useful)),
    ])
}

/// Decodes a document produced by [`encode_metrics`]. `None` on any
/// missing or mistyped field.
#[must_use]
pub fn decode_metrics(doc: &Json) -> Option<SimMetrics> {
    let u = |key: &str| doc.get(key).and_then(Json::as_u64);
    let insts_doc = doc.get("insts")?;
    let iu = |key: &str| insts_doc.get(key).and_then(Json::as_u64);
    let mem_doc = doc.get("mem")?;
    let mu = |key: &str| mem_doc.get(key).and_then(Json::as_u64);
    Some(SimMetrics {
        cycles: u("cycles")?,
        load_interlock: u("load_interlock")?,
        fixed_interlock: u("fixed_interlock")?,
        branch_penalty: u("branch_penalty")?,
        store_stall: u("store_stall")?,
        fetch_stall: u("fetch_stall")?,
        tlb_stall: u("tlb_stall")?,
        insts: InstCounts {
            short_int: iu("short_int")?,
            long_int: iu("long_int")?,
            loads: iu("loads")?,
            stores: iu("stores")?,
            short_fp: iu("short_fp")?,
            long_fp: iu("long_fp")?,
            branches: iu("branches")?,
            jumps: iu("jumps")?,
            spills: iu("spills")?,
        },
        mem: MemStats {
            l1d_hits: mu("l1d_hits")?,
            l2_hits: mu("l2_hits")?,
            l3_hits: mu("l3_hits")?,
            mem_reads: mu("mem_reads")?,
            mshr_merges: mu("mshr_merges")?,
            mshr_stall_cycles: mu("mshr_stall_cycles")?,
            dtb_misses: mu("dtb_misses")?,
            itb_misses: mu("itb_misses")?,
            icache_misses: mu("icache_misses")?,
            stores: mu("stores")?,
            wb_stall_cycles: mu("wb_stall_cycles")?,
            prefetches: mu("prefetches")?,
            prefetch_useful: mu("prefetch_useful")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_pipeline::standard_grid;

    #[test]
    fn options_round_trip_to_an_equal_value() {
        // Every standard-grid configuration, plus ablation knobs and
        // zoo machines, must decode to exactly the options encoded.
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
        all.push(
            CompileOptions::new(SchedulerKind::Balanced)
                .with_sim(SimConfig::default().simple_model_1993()),
        );
        for spec in [
            "alpha21264",
            "blocking21164",
            "alpha21164+bp=tage+pf=nextline+mshr=nomerge",
        ] {
            let sim = spec.parse::<bsched_sim::MachineSpec>().unwrap().config();
            all.push(CompileOptions::new(SchedulerKind::Balanced).with_sim(sim));
        }
        for o in &all {
            assert_eq!(options_from_json(&options_to_json(o)), Ok(*o));
        }
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
}
