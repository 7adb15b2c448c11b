//! Experiment cells: the one identity of a unit of experimental work.

use crate::codec;
use bsched_core::{SchedulerKind, TieBreak};
use bsched_pipeline::{CompileOptions, MachineSpec};
use bsched_sim::SimConfig;
use bsched_util::Fnv1a;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// One deduplicated unit of experimental work: a kernel compiled under
/// one full option set (the options embed the simulated machine).
///
/// Equality and hashing compare the kernel name and every option
/// field, so two cells built independently from equal inputs are one
/// store entry, one in-flight job and one grid entry.
#[derive(Debug, Clone)]
pub struct ExperimentCell {
    kernel: String,
    opts: CompileOptions,
    canon: OnceLock<String>,
}

impl ExperimentCell {
    /// Builds a cell.
    #[must_use]
    pub fn new(kernel: &str, opts: CompileOptions) -> Self {
        ExperimentCell {
            kernel: kernel.to_string(),
            opts,
            canon: OnceLock::new(),
        }
    }

    /// The kernel name.
    #[must_use]
    pub fn kernel(&self) -> &str {
        &self.kernel
    }

    /// The compile options (machine configuration included).
    #[must_use]
    pub fn options(&self) -> &CompileOptions {
        &self.opts
    }

    /// The cell's wire spelling ([`codec::cell_to_json`]) as compact
    /// JSON text, computed on the first call. Equal cells have equal
    /// keys and unequal cells unequal ones. In-process maps key on the
    /// cell itself; this text names a cell outside the process.
    #[must_use]
    pub fn canonical_key(&self) -> &str {
        self.canon
            .get_or_init(|| codec::cell_to_json(self).to_string_compact())
    }
}

impl PartialEq for ExperimentCell {
    fn eq(&self, other: &Self) -> bool {
        self.kernel == other.kernel && self.opts == other.opts
    }
}
impl Eq for ExperimentCell {}

impl Hash for ExperimentCell {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.kernel.hash(state);
        self.opts.hash(state);
    }
}

/// `kernel/label`, then `[knob=value,...]` for each option off its
/// default that the label does not show, then `@machine` off the
/// default machine. Unequal cells print apart, so span labels, run
/// reports and errors name one cell each, while a cell with default
/// knobs prints exactly its table label.
impl std::fmt::Display for ExperimentCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.kernel, self.opts.label())?;
        // `label()` prints the scheduler family, `unroll`, `trace` and
        // `locality`; every other field must appear below.
        let CompileOptions {
            scheduler,
            unroll: _,
            trace: _,
            locality: _,
            predicate,
            weight_cap,
            tie_break,
            unroll_budget,
            selective,
            exact_budget,
            sim,
        } = self.opts;
        let default = CompileOptions::new(scheduler);
        let mut knobs = Vec::new();
        if scheduler == SchedulerKind::SelectiveBalanced {
            knobs.push(format!("scheduler={}", codec::scheduler_str(scheduler)));
        }
        if predicate != default.predicate {
            knobs.push(format!("predicate={predicate}"));
        }
        if weight_cap != default.weight_cap {
            knobs.push(format!("weight_cap={weight_cap}"));
        }
        if tie_break != TieBreak::Standard {
            knobs.push(format!("tie_break={}", codec::tie_break_str(tie_break)));
        }
        if let Some(budget) = unroll_budget {
            knobs.push(format!("unroll_budget={budget}"));
        }
        if selective != default.selective {
            knobs.push(format!("selective={selective}"));
        }
        if exact_budget != default.exact_budget {
            knobs.push(format!("exact_budget={exact_budget}"));
        }
        if !knobs.is_empty() {
            write!(f, "[{}]", knobs.join(","))?;
        }
        if sim == SimConfig::default() {
            return Ok(());
        }
        let registered = MachineSpec::registry()
            .iter()
            .find(|m| MachineSpec::named(m.name).is_ok_and(|spec| spec.config() == sim));
        match registered {
            Some(m) => write!(f, "@{}", m.name),
            None => write!(
                f,
                "@custom-{:08x}",
                Fnv1a::hash(format!("{sim:?}").as_bytes()) as u32
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_pipeline::standard_grid;
    use std::collections::HashSet;

    fn base() -> CompileOptions {
        CompileOptions::new(SchedulerKind::Balanced)
    }

    #[test]
    fn equal_inputs_collapse() {
        let a = ExperimentCell::new("tomcatv", base().with_unroll(4));
        let b = ExperimentCell::new("tomcatv", base().with_unroll(4));
        assert_eq!(a, b);
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn every_knob_changes_the_cell_its_key_and_its_label() {
        let sim = |s: SimConfig| base().with_sim(s);
        let cells: Vec<ExperimentCell> = [
            base(),
            CompileOptions::new(SchedulerKind::Traditional),
            CompileOptions::new(SchedulerKind::SelectiveBalanced),
            base().with_unroll(4),
            base().with_unroll(8),
            base().with_trace(),
            base().with_locality(),
            base().without_predication(),
            base().with_weight_cap(10),
            base().with_tie_break(TieBreak::ProgramOrder),
            base().with_tie_break(TieBreak::ExposedFirst),
            base().with_unroll_budget(32),
            base().without_selective(),
            CompileOptions::new(SchedulerKind::Exact),
            base().with_exact_budget(7),
            sim(SimConfig::default().with_issue(4, 2)),
            sim(SimConfig::default().with_issue(4, 4)),
            sim(SimConfig::default().with_mshrs(1)),
            sim(SimConfig::default().with_ifetch(false)),
            sim(SimConfig::default().simple_model_1993()),
            sim(SimConfig::default().with_predictor(bsched_sim::PredictorKind::Gshare)),
            sim(SimConfig::default().with_predictor(bsched_sim::PredictorKind::TageLite)),
            sim(SimConfig::default().with_prefetch(bsched_mem::PrefetchKind::NextLine)),
            sim(SimConfig::default().with_prefetch(bsched_mem::PrefetchKind::Stride)),
            sim(SimConfig::default().with_mshr_policy(bsched_mem::MshrPolicy::NoMerge)),
            sim(SimConfig::default().with_mshr_policy(bsched_mem::MshrPolicy::Blocking)),
        ]
        .into_iter()
        .map(|o| ExperimentCell::new("k", o))
        .collect();
        let n = cells.len();
        for (i, a) in cells.iter().enumerate() {
            assert!(
                !cells[..i].contains(a),
                "{a:?}: some knob did not reach equality"
            );
        }
        let keys: HashSet<&str> = cells.iter().map(ExperimentCell::canonical_key).collect();
        assert_eq!(keys.len(), n, "some knob did not reach the key");
        let labels: HashSet<String> = cells.iter().map(ToString::to_string).collect();
        assert_eq!(
            labels.len(),
            n,
            "some knob did not reach the label: {labels:?}"
        );
    }

    #[test]
    fn kernel_and_ablation_knobs_reach_the_label() {
        let a = ExperimentCell::new("tomcatv", base());
        let b = ExperimentCell::new("su2cor", base());
        assert_ne!(a, b);
        assert_ne!(a.to_string(), b.to_string());
        // Same table label, different ablation knob.
        let c = ExperimentCell::new("tomcatv", base().with_weight_cap(10));
        assert_eq!(a.options().label(), c.options().label());
        assert_ne!(a, c);
        assert_eq!(c.to_string(), "tomcatv/BS[weight_cap=10]");
        let sel = ExperimentCell::new(
            "tomcatv",
            CompileOptions::new(SchedulerKind::SelectiveBalanced)
                .with_unroll(4)
                .with_sim(SimConfig::default().with_mshrs(1))
                .with_tie_break(TieBreak::ProgramOrder),
        );
        assert!(
            sel.to_string()
                .starts_with("tomcatv/BS+LU4[scheduler=selbal,tie_break=order]@"),
            "{sel}"
        );
    }

    #[test]
    fn default_knob_labels_are_the_table_labels() {
        for cfg in standard_grid() {
            let cell = ExperimentCell::new("TRFD", cfg.options());
            assert_eq!(cell.to_string(), format!("TRFD/{}", cfg.options().label()));
        }
        let cell = ExperimentCell::new("MDG", base().with_unroll(4).with_trace().with_locality());
        assert_eq!(cell.to_string(), "MDG/BS+LU4+TrS+LA");
    }

    #[test]
    fn canonical_key_is_the_wire_spelling() {
        let cell = ExperimentCell::new("TRFD", base().with_unroll(8).with_weight_cap(4));
        let doc = bsched_util::Json::parse(cell.canonical_key()).expect("valid JSON");
        assert_eq!(codec::cell_from_json(&doc), Ok(cell));
    }

    #[test]
    fn labels_name_the_machine_off_the_default() {
        let on = |sim: SimConfig| ExperimentCell::new("MDG", base().with_sim(sim)).to_string();
        assert_eq!(on(SimConfig::default()), "MDG/BS");
        let mut labels = Vec::new();
        for m in MachineSpec::registry() {
            let sim = MachineSpec::named(m.name)
                .expect("registry names parse")
                .config();
            let label = on(sim);
            if sim == SimConfig::default() {
                assert_eq!(label, "MDG/BS", "{}", m.name);
            } else {
                assert_eq!(label, format!("MDG/BS@{}", m.name));
            }
            labels.push(label);
        }
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), MachineSpec::registry().len(), "{labels:?}");
        let custom = on(SimConfig::default().with_mshrs(3));
        assert!(custom.starts_with("MDG/BS@custom-"), "{custom}");
        assert_eq!(custom.len(), "MDG/BS@custom-".len() + 8, "{custom}");
        assert_eq!(custom, on(SimConfig::default().with_mshrs(3)), "stable");
    }
}
