//! The engine axis of the simulator API.
//!
//! Both engines run the *same* timing loop over the same pre-decoded
//! block skeletons and produce bit-identical [`crate::SimMetrics`],
//! per-load-site trace attribution, and memory checksums; they differ
//! only in what the decode proves, and so in how fast they get there.
//! Because the choice is metrics-invariant it is deliberately **not**
//! part of `CompileOptions` or any result-cache key — like tracing, it
//! is an execution detail, not an experiment knob.

use std::fmt;
use std::str::FromStr;

/// Which execution engine [`crate::Simulator::run`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimEngine {
    /// The reference: the timing loop over skeletons decoded with every
    /// proof off — an I-cache fetch on every instruction slot, every
    /// operand's interlock scanned, the full issue-group bookkeeping at
    /// any width, fuel charged per instruction. It is the differential
    /// reference for exactly what [`SimEngine::BlockCompiled`] elides.
    Interpret,
    /// The block-compiled engine: the same loop over skeletons decoded
    /// with every proof on — one fetch per icache-line run, interlock
    /// scans elided where single issue proves them stall-free, a
    /// single-issue specialisation of the issue-group bookkeeping, and
    /// fuel charged per block.
    #[default]
    BlockCompiled,
}

impl SimEngine {
    /// Every engine, in a stable order.
    pub const ALL: [SimEngine; 2] = [SimEngine::Interpret, SimEngine::BlockCompiled];

    /// Short stable name, used by CLI flags, env knobs, and run reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SimEngine::Interpret => "interpret",
            SimEngine::BlockCompiled => "block",
        }
    }

    /// The valid spellings, for error messages.
    #[must_use]
    pub fn valid_choices() -> &'static str {
        "interpret, block"
    }
}

impl fmt::Display for SimEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for SimEngine {
    type Err = String;

    /// Parses an engine name as spelled by [`SimEngine::label`]
    /// (`block-compiled` is accepted as an alias for `block`). Error
    /// shape comes from [`bsched_util::spec`], the contract shared with
    /// `--sample=` and `--machine=`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interpret" => Ok(SimEngine::Interpret),
            "block" | "block-compiled" => Ok(SimEngine::BlockCompiled),
            other => Err(bsched_util::spec::unknown(
                "simulation engine",
                other,
                &format!("valid engines: {}", SimEngine::valid_choices()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_through_parse() {
        for engine in SimEngine::ALL {
            assert_eq!(engine.label().parse::<SimEngine>(), Ok(engine));
            assert_eq!(engine.to_string(), engine.label());
        }
        assert_eq!(
            "block-compiled".parse::<SimEngine>(),
            Ok(SimEngine::BlockCompiled)
        );
    }

    #[test]
    fn unknown_names_list_the_valid_choices() {
        let err = "banana".parse::<SimEngine>().unwrap_err();
        assert!(err.contains("banana"), "{err}");
        assert!(err.contains("interpret") && err.contains("block"), "{err}");
    }
}
