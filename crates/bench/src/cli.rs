//! The one argv walker behind every experiment binary and microbench,
//! plus the flag validators they share.
//!
//! Every flag accepts both `--flag value` and `--flag=value`. A missing
//! value, a value given to a switch, and an unknown flag or stray
//! argument all report on stderr and exit with status **2** — the same
//! usage-error contract as the environment knobs
//! ([`bsched_util::spec::exit2`]).
//!
//! ```no_run
//! let mut csv = false;
//! let mut engine = None;
//! let mut args = bsched_bench::cli::Args::from_env();
//! while let Some(flag) = args.next_flag() {
//!     match flag.as_str() {
//!         "--csv" => csv = true,
//!         "--engine" => engine = Some(bsched_bench::cli::parse_engine(&args.value())),
//!         _ => args.unknown(),
//!     }
//! }
//! ```

use bsched_pipeline::{MachineSpec, SampleConfig, SimEngine};
use bsched_util::spec::exit2;

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// A pull-style walk over the command line: [`Args::next_flag`] yields
/// each flag name, and the caller takes the flag's value with
/// [`Args::value`] (or [`Args::optional_value`]) when it has one.
pub struct Args {
    rest: std::vec::IntoIter<String>,
    flag: String,
    inline: Option<String>,
}

impl Args {
    /// The process's arguments, program name excluded.
    #[must_use]
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1))
    }

    /// Walks an explicit argument list.
    #[must_use]
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Args {
            rest: args.into_iter().collect::<Vec<_>>().into_iter(),
            flag: String::new(),
            inline: None,
        }
    }

    /// The next flag's name (`--flag=value` yields `--flag` and keeps
    /// the value for [`Args::value`]), or `None` once the line is
    /// exhausted. Exits 2 on a stray non-flag argument and when the
    /// previous flag was a switch given an `=value`.
    pub fn next_flag(&mut self) -> Option<String> {
        if self.inline.is_some() {
            usage_error(&format!("{} takes no value", self.flag));
        }
        let arg = self.rest.next()?;
        if !arg.starts_with("--") {
            self.flag = arg;
            self.unknown();
        }
        match arg.split_once('=') {
            Some((flag, value)) => {
                self.flag = flag.to_string();
                self.inline = Some(value.to_string());
            }
            None => self.flag = arg,
        }
        Some(self.flag.clone())
    }

    /// The current flag's value: the `=value` part, else the next
    /// argument. Exits 2 when there is none.
    pub fn value(&mut self) -> String {
        self.inline
            .take()
            .or_else(|| self.rest.next())
            .unwrap_or_else(|| usage_error(&format!("{} requires a value", self.flag)))
    }

    /// The current flag's `=value` part, if any — for flags that are
    /// also valid bare (`--sample` vs `--sample=SPEC`). Never consumes
    /// the next argument.
    pub fn optional_value(&mut self) -> Option<String> {
        self.inline.take()
    }

    /// Rejects the current flag as unknown (exit 2).
    pub fn unknown(&self) -> ! {
        usage_error(&format!("unknown flag {:?}", self.flag))
    }
}

/// Walks the arguments of a binary that takes no flags: any argument
/// exits 2.
pub fn no_flags() {
    let mut args = Args::from_env();
    if args.next_flag().is_some() {
        args.unknown();
    }
}

/// Walks a microbench target's arguments: the `--bench` switch `cargo
/// bench` appends, then the target's own flags through `extra(flag,
/// args)`, which returns `false` for flags it does not know (exit 2).
pub fn bench_args(mut extra: impl FnMut(&str, &mut Args) -> bool) {
    let mut args = Args::from_env();
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--bench" => {}
            f if extra(f, &mut args) => {}
            _ => args.unknown(),
        }
    }
}

/// Every suite kernel name, in paper order.
#[must_use]
pub fn all_kernel_names() -> Vec<String> {
    bsched_workloads::all_kernels()
        .iter()
        .map(|k| k.name.to_string())
        .collect()
}

/// `--kernels NAME,...`: the named suite kernels, in paper order.
/// Exits 2 listing the valid choices on an empty list or an unknown
/// name.
#[must_use]
pub fn parse_kernel_list(raw: &str) -> Vec<String> {
    let all = all_kernel_names();
    if raw.trim().is_empty() {
        usage_error(&format!(
            "--kernels requires at least one kernel name; valid kernels: {}",
            all.join(", ")
        ));
    }
    let want: Vec<&str> = raw.split(',').collect();
    for w in &want {
        if let Err(e) = bsched_pipeline::resolve_kernel(w) {
            exit2("error", &e);
        }
    }
    all.into_iter()
        .filter(|k| want.contains(&k.as_str()))
        .collect()
}

/// `--engine NAME`: a simulation engine (exit 2 listing the valid
/// engines).
#[must_use]
pub fn parse_engine(raw: &str) -> SimEngine {
    raw.trim().parse().unwrap_or_else(|e| exit2("--engine", &e))
}

/// `--machine SPEC`: a machine description (exit 2 naming the valid
/// machines and spec grammar).
#[must_use]
pub fn parse_machine(raw: &str) -> MachineSpec {
    raw.trim()
        .parse()
        .unwrap_or_else(|e: String| exit2("--machine", &e))
}

/// `--sample=SPEC`: a sampling configuration (exit 2 naming the valid
/// spec grammar).
#[must_use]
pub fn parse_sample(raw: &str) -> SampleConfig {
    raw.trim().parse().unwrap_or_else(|e| exit2("--sample", &e))
}

/// A non-negative integer, decimal or `0x` hex. Exits 2 with
/// `{flag} requires {what}, got {raw:?}` otherwise.
#[must_use]
pub fn parse_u64(flag: &str, raw: &str, what: &str) -> u64 {
    bsched_util::spec::parse_u64(raw.trim())
        .unwrap_or_else(|| usage_error(&format!("{flag} requires {what}, got {raw:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(line: &[&str]) -> Vec<(String, Option<String>)> {
        let mut args = Args::new(line.iter().map(|s| (*s).to_string()));
        let mut seen = Vec::new();
        while let Some(flag) = args.next_flag() {
            let value = match flag.as_str() {
                "--csv" => None,
                "--sample" => args.optional_value(),
                _ => Some(args.value()),
            };
            seen.push((flag, value));
        }
        seen
    }

    #[test]
    fn both_value_spellings_and_optional_values_parse() {
        let s = |v: &str| Some(v.to_string());
        assert_eq!(
            walk(&[
                "--kernels",
                "TRFD",
                "--engine=block",
                "--csv",
                "--sample",
                "--trace-json=a=b"
            ]),
            vec![
                ("--kernels".into(), s("TRFD")),
                ("--engine".into(), s("block")),
                ("--csv".into(), None),
                ("--sample".into(), None),
                ("--trace-json".into(), s("a=b")),
            ]
        );
        assert_eq!(
            walk(&["--sample=k=4", "--kernels="]),
            vec![("--sample".into(), s("k=4")), ("--kernels".into(), s("")),]
        );
    }

    #[test]
    fn kernel_lists_come_back_in_paper_order() {
        let all = all_kernel_names();
        assert_eq!(all.len(), 17);
        let picked = parse_kernel_list("TRFD,ARC2D");
        let pos = |k: &str| all.iter().position(|n| n == k).unwrap();
        assert_eq!(picked.len(), 2);
        assert!(pos(&picked[0]) < pos(&picked[1]));
    }

    #[test]
    fn numbers_accept_decimal_and_hex() {
        assert_eq!(parse_u64("--fuzz", " 300 ", "a number"), 300);
        assert_eq!(parse_u64("--fuzz-seed", "0xB5ED", "a number"), 0xB5ED);
    }
}
