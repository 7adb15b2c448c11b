//! One key=value spec grammar for every CLI/env knob.
//!
//! Three knob families parse small textual specs: `--sample=` /
//! `BSCHED_SAMPLE` (comma-separated `k=8,interval=1000`), `--engine=` /
//! `BSCHED_SIM_ENGINE` (a bare name), and `--machine=` /
//! `BSCHED_MACHINE` (a named machine plus `+key=value` modifiers). They
//! share one contract, implemented here so it cannot drift:
//!
//! * integers accept decimal or `0x` hex ([`parse_u64`]),
//! * pair lists split on a separator with per-pair shape errors
//!   ([`pairs`]),
//! * malformed specs format as
//!   `invalid <what> spec <spec> (<reason>); valid: <choices>`
//!   ([`invalid`]) and unknown names as
//!   `unknown <what> <name>; <valid phrase>` ([`unknown`]),
//! * command-line front ends report the flag, print the error to
//!   stderr, and exit with status **2** ([`exit2`]).

use std::fmt;

/// Parses an integer written in decimal or `0x`/`0X` hex.
#[must_use]
pub fn parse_u64(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

/// Splits `body` on `sep` into trimmed `key=value` pairs.
///
/// # Errors
///
/// A reason string (suitable for [`invalid`]) when any part lacks the
/// `key=value` shape.
pub fn pairs(body: &str, sep: char) -> Result<Vec<(&str, &str)>, String> {
    body.split(sep)
        .map(|part| {
            let part = part.trim();
            part.split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| format!("expected key=value, got {part:?}"))
        })
        .collect()
}

/// Formats the shared malformed-spec error:
/// `invalid {what} spec {spec:?} ({reason}); valid: {valid}`.
#[must_use]
pub fn invalid(what: &str, spec: &str, reason: &str, valid: &str) -> String {
    format!("invalid {what} spec {spec:?} ({reason}); valid: {valid}")
}

/// Formats the shared unknown-name error:
/// `unknown {what} {name:?}; {valid_phrase}`.
#[must_use]
pub fn unknown(what: &str, name: &str, valid_phrase: &str) -> String {
    format!("unknown {what} {name:?}; {valid_phrase}")
}

/// The CLI half of the contract: report a bad flag or environment value
/// on stderr and exit with status 2 (usage error), never 1.
pub fn exit2(context: &str, err: &dyn fmt::Display) -> ! {
    eprintln!("{context}: {err}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_u64_accepts_decimal_and_hex() {
        assert_eq!(parse_u64("42"), Some(42));
        assert_eq!(parse_u64("0x2a"), Some(42));
        assert_eq!(parse_u64("0X2A"), Some(42));
        assert_eq!(parse_u64("0xb5ed"), Some(0xb5ed));
        assert_eq!(parse_u64(""), None);
        assert_eq!(parse_u64("0x"), None);
        assert_eq!(parse_u64("-3"), None);
        assert_eq!(parse_u64("4k"), None);
    }

    #[test]
    fn pairs_split_and_trim() {
        assert_eq!(
            pairs("k=8, interval = 1000", ',').unwrap(),
            vec![("k", "8"), ("interval", "1000")]
        );
        assert_eq!(
            pairs("bp=gshare+iw=4", '+').unwrap(),
            vec![("bp", "gshare"), ("iw", "4")]
        );
        let e = pairs("k=8,oops", ',').unwrap_err();
        assert!(
            e.contains("expected key=value") && e.contains("\"oops\""),
            "{e}"
        );
    }

    #[test]
    fn error_shapes_are_stable() {
        assert_eq!(
            invalid("sampling", "k=0", "k must be >= 1", "k=<n>"),
            "invalid sampling spec \"k=0\" (k must be >= 1); valid: k=<n>"
        );
        assert_eq!(
            unknown("machine", "vax", "valid machines: alpha21164"),
            "unknown machine \"vax\"; valid machines: alpha21164"
        );
    }
}
