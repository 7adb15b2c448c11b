//! Simulator configuration.

use bsched_mem::MemConfig;
use bsched_util::spec;
use std::fmt;
use std::str::FromStr;

/// Which branch-prediction algorithm the machine uses.
///
/// All kinds share the same table budget ([`BranchConfig::entries`]) and
/// the same misprediction penalty; only the indexing/learning scheme
/// differs. Every kind is deterministic, so both simulation engines
/// produce bit-identical outcomes for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PredictorKind {
    /// Per-PC 2-bit saturating counters (the paper's machine).
    #[default]
    Bimodal,
    /// Global-history XOR PC indexed 2-bit counters (McFarling 1993).
    Gshare,
    /// A small deterministic TAGE: bimodal base plus two
    /// partially-tagged tables with geometric history lengths.
    TageLite,
}

impl PredictorKind {
    /// Canonical lowercase label (spec-grammar token).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PredictorKind::Bimodal => "bimodal",
            PredictorKind::Gshare => "gshare",
            PredictorKind::TageLite => "tage",
        }
    }

    /// The accepted spec tokens, for error messages.
    #[must_use]
    pub fn valid_choices() -> &'static str {
        "bimodal, gshare, tage"
    }
}

impl fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for PredictorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "bimodal" => Ok(PredictorKind::Bimodal),
            "gshare" => Ok(PredictorKind::Gshare),
            "tage" | "tage-lite" | "tagelite" => Ok(PredictorKind::TageLite),
            other => Err(spec::unknown(
                "branch predictor",
                other,
                &format!("valid predictors: {}", PredictorKind::valid_choices()),
            )),
        }
    }
}

/// Branch predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchConfig {
    /// The prediction algorithm.
    pub kind: PredictorKind,
    /// Number of 2-bit counters in the main table (power of two). For
    /// TAGE-lite this sizes the bimodal base; the tagged tables each
    /// hold a quarter as many entries.
    pub entries: usize,
    /// Pipeline refill penalty in cycles on a mispredicted conditional
    /// branch (21164-like).
    pub mispredict_penalty: u32,
}

impl Default for BranchConfig {
    fn default() -> Self {
        BranchConfig {
            kind: PredictorKind::Bimodal,
            entries: 1024,
            mispredict_penalty: 5,
        }
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// The memory hierarchy.
    pub mem: MemConfig,
    /// The branch predictor.
    pub branch: BranchConfig,
    /// Instruction budget before aborting (guards against miscompiles).
    pub fuel: u64,
    /// Model instruction fetch through the I-cache/ITB. Disable to study
    /// data-side effects in isolation (the original Kerns–Eggers model
    /// assumed a perfect I-cache; the 1995 paper models it — both are
    /// reproducible with this switch).
    pub model_ifetch: bool,
    /// Instructions issued per cycle. The paper deliberately studies
    /// single issue (§4.3) and names wider-issue processors as future
    /// work (§6); widths 2/4 implement that extension. In-order: a stall
    /// drains the whole issue group.
    pub issue_width: u32,
    /// Memory operations (loads + stores) that may issue per cycle.
    pub mem_ports: u32,
    /// Kerns–Eggers 1993 simple-machine mode: every non-load instruction
    /// executes in a single cycle ("assumed single-cycle execution for
    /// all other multi-cycle instructions", §5.5). Loads keep their real
    /// hierarchy latencies.
    pub uniform_fixed_latency: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mem: MemConfig::alpha21164(),
            branch: BranchConfig::default(),
            fuel: 500_000_000,
            model_ifetch: true,
            issue_width: 1,
            mem_ports: 1,
            uniform_fixed_latency: false,
        }
    }
}

impl SimConfig {
    /// The paper's machine model: a single-issue Alpha 21164-like core
    /// with the Table 2 memory hierarchy, bimodal branch prediction, and
    /// I-fetch modeling. Identical to [`SimConfig::default`], named so
    /// experiment code can say which machine it means.
    #[must_use]
    pub fn alpha21164() -> Self {
        SimConfig::default()
    }

    /// Returns the configuration with a different MSHR count (blocking vs.
    /// non-blocking ablation).
    #[must_use]
    pub fn with_mshrs(mut self, n: usize) -> Self {
        self.mem = self.mem.with_mshrs(n);
        self
    }

    /// Returns the configuration with I-fetch modeling switched.
    #[must_use]
    pub fn with_ifetch(mut self, on: bool) -> Self {
        self.model_ifetch = on;
        self
    }

    /// Returns the configuration with a different branch-prediction
    /// algorithm (same table budget and penalty).
    #[must_use]
    pub fn with_predictor(mut self, kind: PredictorKind) -> Self {
        self.branch.kind = kind;
        self
    }

    /// Returns the configuration with an explicit issue width and
    /// memory-port count (the paper's future-work extension). Ports are
    /// an independent axis: `with_issue(4, 1)` and `with_issue(4, 4)`
    /// are both expressible.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `ports` is not in `1..=width`.
    #[must_use]
    pub fn with_issue(mut self, width: u32, ports: u32) -> Self {
        assert!(width > 0, "issue width must be positive");
        assert!(
            ports >= 1 && ports <= width,
            "memory ports ({ports}) must be between 1 and the issue width ({width})"
        );
        self.issue_width = width;
        self.mem_ports = ports;
        self
    }

    /// Returns the configuration with a different L1D prefetcher.
    #[must_use]
    pub fn with_prefetch(mut self, kind: bsched_mem::PrefetchKind) -> Self {
        self.mem = self.mem.with_prefetch(kind);
        self
    }

    /// Returns the configuration with a different MSHR policy.
    #[must_use]
    pub fn with_mshr_policy(mut self, policy: bsched_mem::MshrPolicy) -> Self {
        self.mem = self.mem.with_mshr_policy(policy);
        self
    }

    /// Returns the Kerns–Eggers 1993 simple-machine configuration:
    /// perfect I-cache and single-cycle non-load execution (§5.5).
    #[must_use]
    pub fn simple_model_1993(mut self) -> Self {
        self.model_ifetch = false;
        self.uniform_fixed_latency = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha21164_names_the_default_machine() {
        assert_eq!(SimConfig::alpha21164(), SimConfig::default());
    }

    #[test]
    fn defaults_match_paper_machine() {
        let c = SimConfig::default();
        assert_eq!(c.mem.mshrs, 6);
        assert_eq!(c.branch.mispredict_penalty, 5);
        assert!(c.model_ifetch);
        assert_eq!(c.issue_width, 1);
        assert_eq!(c.with_mshrs(1).mem.mshrs, 1);
        assert!(!c.with_ifetch(false).model_ifetch);
    }

    #[test]
    fn with_issue_decouples_ports_from_width() {
        let narrow = SimConfig::default().with_issue(4, 1);
        assert_eq!((narrow.issue_width, narrow.mem_ports), (4, 1));
        let full = SimConfig::default().with_issue(4, 4);
        assert_eq!((full.issue_width, full.mem_ports), (4, 4));
    }

    #[test]
    #[should_panic(expected = "memory ports")]
    fn with_issue_rejects_ports_beyond_width() {
        let _ = SimConfig::default().with_issue(2, 3);
    }

    #[test]
    fn predictor_kind_spec_tokens_round_trip() {
        for kind in [
            PredictorKind::Bimodal,
            PredictorKind::Gshare,
            PredictorKind::TageLite,
        ] {
            assert_eq!(kind.label().parse::<PredictorKind>().unwrap(), kind);
        }
        assert_eq!("TAGE-Lite".parse::<PredictorKind>().unwrap(), PredictorKind::TageLite);
        let err = "perceptron".parse::<PredictorKind>().unwrap_err();
        assert!(err.contains("bimodal") && err.contains("gshare") && err.contains("tage"));
    }

    #[test]
    fn with_predictor_changes_only_the_kind() {
        let c = SimConfig::default().with_predictor(PredictorKind::Gshare);
        assert_eq!(c.branch.kind, PredictorKind::Gshare);
        assert_eq!(c.branch.entries, SimConfig::default().branch.entries);
        assert_eq!(
            c.branch.mispredict_penalty,
            SimConfig::default().branch.mispredict_penalty
        );
    }

    #[test]
    fn simple_model_matches_ke93() {
        let c = SimConfig::default().simple_model_1993();
        assert!(!c.model_ifetch);
        assert!(c.uniform_fixed_latency);
    }
}
