//! `MachineSpec` — first-class machine descriptions and the machine zoo.
//!
//! The paper studies one machine (a single-issue Alpha 21164-like core,
//! §4.3) and names wider-issue processors as future work (§6). This
//! module generalises the simulator-configuration surface from a flat
//! knob struct into a *machine-description API*:
//!
//! * a **named-machine registry** ([`MachineSpec::named`],
//!   [`MachineSpec::registry`]): `alpha21164`, `simple1993`, `wide2`,
//!   `wide4`, `alpha21264`, `blocking21164`;
//! * a **parseable spec grammar** (`FromStr`):
//!   `NAME[+key=value]*`, e.g. `alpha21164+bp=gshare+pf=stride+iw=4`,
//!   shared by `--machine=` flags and the `BSCHED_MACHINE` environment
//!   knob ([`MachineSpec::from_env`]), with the workspace-wide
//!   [`bsched_util::spec`] error/exit-2 contract;
//! * **structural validation**: memory ports must fit inside the issue
//!   width, predictor tables must be powers of two, at least one MSHR.
//!
//! Every machine runs bit-identically on both simulation engines: the
//! predictor, prefetcher, and MSHR-policy axes live behind types both
//! engines share (or mirror under the equivalence suite).
//!
//! ```
//! use bsched_sim::{MachineSpec, Simulator};
//!
//! let m: MachineSpec = "alpha21164+bp=gshare+iw=2+ports=2".parse().unwrap();
//! assert_eq!(m.config().issue_width, 2);
//! assert_eq!(m.config().mem_ports, 2);
//! assert!("vax11".parse::<MachineSpec>().is_err());
//! ```

use crate::config::{PredictorKind, SimConfig};
use bsched_mem::{MshrPolicy, PrefetchKind};
use bsched_util::spec;
use std::fmt;
use std::str::FromStr;

/// One registry row: a machine name and what it models.
#[derive(Debug, Clone, Copy)]
pub struct MachineInfo {
    /// The registry name (the spec grammar's `NAME`).
    pub name: &'static str,
    /// One-line description for docs and `--machines` listings.
    pub summary: &'static str,
}

/// The named machines, in presentation order.
const REGISTRY: &[MachineInfo] = &[
    MachineInfo {
        name: "alpha21164",
        summary: "the paper's machine: single-issue, bimodal, lockup-free L1 (§4.3)",
    },
    MachineInfo {
        name: "simple1993",
        summary: "Kerns–Eggers 1993 simple model: perfect I-cache, single-cycle non-loads",
    },
    MachineInfo {
        name: "wide2",
        summary: "dual-issue 21164 variant, one memory port",
    },
    MachineInfo {
        name: "wide4",
        summary: "quad-issue 21164 variant, two memory ports",
    },
    MachineInfo {
        name: "alpha21264",
        summary: "out-of-order-era front end on the in-order core: gshare, stride prefetch, quad issue, 8 MSHRs",
    },
    MachineInfo {
        name: "blocking21164",
        summary: "21164 with a blocking L1: any miss stalls the memory system",
    },
];

/// The spec-grammar usage string for error messages.
const VALID_SPEC: &str = "NAME[+bp=bimodal|gshare|tage][+pf=none|nextline|stride]\
[+mshr=merge|nomerge|blocking][+iw=<n>][+ports=<n>][+mshrs=<n>]";

/// Builds the registry configuration for `name`, if registered.
fn base_config(name: &str) -> Option<SimConfig> {
    let c = SimConfig::alpha21164();
    Some(match name {
        "alpha21164" => c,
        "simple1993" => c.simple_model_1993(),
        "wide2" => c.with_issue(2, 1),
        "wide4" => c.with_issue(4, 2),
        "alpha21264" => c
            .with_issue(4, 2)
            .with_predictor(PredictorKind::Gshare)
            .with_prefetch(PrefetchKind::Stride)
            .with_mshrs(8),
        "blocking21164" => c.with_mshr_policy(MshrPolicy::Blocking),
        _ => return None,
    })
}

/// A validated machine description: a canonical spec string plus the
/// [`SimConfig`] it denotes.
///
/// Construct from the registry ([`MachineSpec::named`]), the spec
/// grammar ([`FromStr`]), the environment ([`MachineSpec::from_env`]),
/// or a raw configuration ([`MachineSpec::custom`]). All constructors
/// enforce the same structural validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSpec {
    spec: String,
    config: SimConfig,
}

impl MachineSpec {
    /// The registered machines, in presentation order.
    #[must_use]
    pub fn registry() -> &'static [MachineInfo] {
        REGISTRY
    }

    /// The registered machine names joined for error messages.
    #[must_use]
    pub fn valid_names() -> String {
        REGISTRY
            .iter()
            .map(|m| m.name)
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Looks up a registered machine by name (no modifiers).
    ///
    /// # Errors
    ///
    /// The shared unknown-name error listing every registered machine.
    pub fn named(name: &str) -> Result<MachineSpec, String> {
        let config = base_config(name).ok_or_else(|| {
            spec::unknown(
                "machine",
                name,
                &format!("valid machines: {}", MachineSpec::valid_names()),
            )
        })?;
        Ok(MachineSpec {
            spec: name.to_string(),
            config,
        })
    }

    /// The paper's machine — the default everywhere.
    #[must_use]
    pub fn alpha21164() -> MachineSpec {
        MachineSpec::named("alpha21164").expect("alpha21164 is registered")
    }

    /// Wraps a raw configuration (programmatic escape hatch; ablation
    /// sweeps that perturb single knobs). The spec string is `custom`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails structural validation — use
    /// [`MachineSpec::try_custom`] to handle that as an error.
    #[must_use]
    pub fn custom(config: SimConfig) -> MachineSpec {
        MachineSpec::try_custom(config).expect("structurally valid SimConfig")
    }

    /// Fallible [`MachineSpec::custom`].
    ///
    /// # Errors
    ///
    /// The structural-validation failure, as a displayable reason.
    pub fn try_custom(config: SimConfig) -> Result<MachineSpec, String> {
        validate(&config)?;
        Ok(MachineSpec {
            spec: "custom".to_string(),
            config,
        })
    }

    /// Reads the `BSCHED_MACHINE` environment knob. `Ok(None)` when the
    /// variable is unset or empty.
    ///
    /// # Errors
    ///
    /// The shared spec-grammar error for a malformed value; CLI front
    /// ends pass it to [`bsched_util::spec::exit2`].
    pub fn from_env() -> Result<Option<MachineSpec>, String> {
        match std::env::var("BSCHED_MACHINE") {
            Ok(v) if !v.trim().is_empty() => v.parse().map(Some),
            _ => Ok(None),
        }
    }

    /// The canonical spec string (`alpha21164+bp=gshare`, `custom`, …).
    #[must_use]
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// The base machine name (the spec up to the first modifier).
    #[must_use]
    pub fn name(&self) -> &str {
        self.spec.split('+').next().unwrap_or(&self.spec)
    }

    /// The validated simulator configuration this machine denotes.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        self.config
    }
}

impl fmt::Display for MachineSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec)
    }
}

impl FromStr for MachineSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        let (name, modifiers) = match t.split_once('+') {
            Some((n, rest)) => (n.trim(), Some(rest)),
            None => (t, None),
        };
        let mut config = base_config(name).ok_or_else(|| {
            spec::unknown(
                "machine",
                name,
                &format!("valid machines: {}", MachineSpec::valid_names()),
            )
        })?;
        if let Some(modifiers) = modifiers {
            let bad = |reason: &str| spec::invalid("machine", t, reason, VALID_SPEC);
            let int = |key: &str, v: &str| -> Result<u64, String> {
                spec::parse_u64(v).ok_or_else(|| bad(&format!("{key} wants an integer, got {v:?}")))
            };
            let mut width: Option<u32> = None;
            let mut ports: Option<u32> = None;
            for (k, v) in spec::pairs(modifiers, '+').map_err(|r| bad(&r))? {
                match k {
                    "bp" => config.branch.kind = v.parse().map_err(|e: String| bad(&e))?,
                    "pf" => {
                        let kind: PrefetchKind = v.parse().map_err(|e: String| bad(&e))?;
                        config.mem = config.mem.with_prefetch(kind);
                    }
                    "mshr" => {
                        let policy: MshrPolicy = v.parse().map_err(|e: String| bad(&e))?;
                        config.mem = config.mem.with_mshr_policy(policy);
                    }
                    "iw" => width = Some(int("iw", v)? as u32),
                    "ports" => ports = Some(int("ports", v)? as u32),
                    "mshrs" => {
                        let n = int("mshrs", v)? as usize;
                        if n == 0 {
                            return Err(bad("at least one MSHR is required"));
                        }
                        config.mem = config.mem.with_mshrs(n);
                    }
                    other => return Err(bad(&format!("unknown key {other:?}"))),
                }
            }
            // `iw` without `ports` keeps the documented historical
            // scaling; `ports` alone adjusts the base machine's width.
            match (width, ports) {
                (Some(w), Some(p)) => {
                    config.issue_width = w;
                    config.mem_ports = p;
                }
                (Some(w), None) => {
                    config.issue_width = w;
                    config.mem_ports = (w / 2).max(1);
                }
                (None, Some(p)) => config.mem_ports = p,
                (None, None) => {}
            }
        }
        validate(&config).map_err(|r| spec::invalid("machine", t, &r, VALID_SPEC))?;
        Ok(MachineSpec {
            spec: t.to_string(),
            config,
        })
    }
}

/// Structural validation shared by every [`MachineSpec`] constructor.
fn validate(config: &SimConfig) -> Result<(), String> {
    if config.issue_width == 0 {
        return Err("issue width must be >= 1".to_string());
    }
    if config.mem_ports == 0 || config.mem_ports > config.issue_width {
        return Err(format!(
            "memory ports ({}) must be between 1 and the issue width ({})",
            config.mem_ports, config.issue_width
        ));
    }
    if !config.branch.entries.is_power_of_two() {
        return Err(format!(
            "branch predictor entries ({}) must be a power of two",
            config.branch.entries
        ));
    }
    if config.mem.mshrs == 0 {
        return Err("at least one MSHR is required".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_machine_builds_and_validates() {
        for info in MachineSpec::registry() {
            let m = MachineSpec::named(info.name).unwrap();
            assert_eq!(m.spec(), info.name);
            assert_eq!(m.name(), info.name);
            let parsed: MachineSpec = info.name.parse().unwrap();
            assert_eq!(parsed, m);
        }
    }

    #[test]
    fn alpha21164_is_the_default_config() {
        assert_eq!(MachineSpec::alpha21164().config(), SimConfig::default());
    }

    #[test]
    fn modifiers_apply_on_top_of_the_base() {
        let m: MachineSpec = "alpha21164+bp=tage+pf=nextline+mshr=nomerge+iw=4+ports=3+mshrs=2"
            .parse()
            .unwrap();
        let c = m.config();
        assert_eq!(c.branch.kind, PredictorKind::TageLite);
        assert_eq!(c.mem.prefetch, PrefetchKind::NextLine);
        assert_eq!(c.mem.mshr_policy, MshrPolicy::NoMerge);
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.mem_ports, 3);
        assert_eq!(c.mem.mshrs, 2);
        assert_eq!(m.name(), "alpha21164");
    }

    #[test]
    fn iw_without_ports_keeps_the_historical_scaling() {
        let m: MachineSpec = "alpha21164+iw=4".parse().unwrap();
        assert_eq!(m.config().issue_width, 4);
        assert_eq!(m.config().mem_ports, 2);
        let one: MachineSpec = "alpha21164+iw=1".parse().unwrap();
        assert_eq!(one.config().mem_ports, 1);
    }

    #[test]
    fn unknown_machine_lists_the_registry() {
        let e = "vax11".parse::<MachineSpec>().unwrap_err();
        assert!(e.contains("unknown machine"), "{e}");
        assert!(
            e.contains("alpha21164") && e.contains("blocking21164"),
            "{e}"
        );
    }

    #[test]
    fn malformed_specs_report_the_shared_error_shape() {
        for (spec, needle) in [
            ("alpha21164+bp", "expected key=value"),
            ("alpha21164+bp=perceptron", "unknown branch predictor"),
            ("alpha21164+pf=psychic", "unknown prefetcher"),
            ("alpha21164+mshr=magic", "unknown MSHR policy"),
            ("alpha21164+iw=four", "iw wants an integer"),
            ("alpha21164+zoom=1", "unknown key"),
        ] {
            let e = spec.parse::<MachineSpec>().unwrap_err();
            assert!(e.contains("invalid machine spec"), "{spec}: {e}");
            assert!(e.contains(needle), "{spec}: {e}");
        }
    }

    #[test]
    fn structural_validation_rejects_bad_shapes() {
        let e = "alpha21164+ports=2".parse::<MachineSpec>().unwrap_err();
        assert!(
            e.contains("memory ports (2) must be between 1 and the issue width (1)"),
            "{e}"
        );
        let e = "wide4+iw=2+ports=3".parse::<MachineSpec>().unwrap_err();
        assert!(e.contains("memory ports (3)"), "{e}");
        let e = "alpha21164+mshrs=0".parse::<MachineSpec>().unwrap_err();
        assert!(e.contains("at least one MSHR"), "{e}");
        let mut c = SimConfig::default();
        c.branch.entries = 1000;
        assert!(MachineSpec::try_custom(c)
            .unwrap_err()
            .contains("power of two"));
    }

    #[test]
    fn custom_wraps_programmatic_configs() {
        let c = SimConfig::default().with_mshrs(3);
        let m = MachineSpec::custom(c);
        assert_eq!(m.spec(), "custom");
        assert_eq!(m.config(), c);
    }

    #[test]
    fn from_env_reads_bsched_machine() {
        // Env mutation: keep this test single-threaded over the knob by
        // doing set/unset inside one test.
        std::env::set_var("BSCHED_MACHINE", "wide2");
        let m = MachineSpec::from_env().unwrap().expect("set");
        assert_eq!(m.name(), "wide2");
        std::env::set_var("BSCHED_MACHINE", "not-a-machine");
        assert!(MachineSpec::from_env().is_err());
        std::env::remove_var("BSCHED_MACHINE");
        assert!(MachineSpec::from_env().unwrap().is_none());
    }

    #[test]
    fn zoo_machines_differ_from_the_paper_machine() {
        let base = MachineSpec::alpha21164().config();
        for name in [
            "simple1993",
            "wide2",
            "wide4",
            "alpha21264",
            "blocking21164",
        ] {
            assert_ne!(
                MachineSpec::named(name).unwrap().config(),
                base,
                "{name} should not alias the paper machine"
            );
        }
    }
}
