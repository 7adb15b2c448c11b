//! Baseline gates: the one reader and writer behind every `--check` and
//! `--json` flag (DESIGN.md, "Baseline gates").
//!
//! A baseline is a `{"bench": ..., "cases": [{"name": ..., ...}, ...]}`
//! document, parsed as JSON — so any formatting of it reads the same —
//! and matched to the current run case by case through `name`. A gate
//! fails when any rule fails on an overlapping case, when an
//! overlapping case lacks a field its rule reads, and when no case
//! overlaps at all (a check that compared nothing must not pass).

use bsched_util::Json;

/// A parsed baseline file: its cases in file order, keyed by name.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Baseline {
    /// `(name, case object)` per recorded case.
    pub(crate) cases: Vec<(String, Json)>,
}

impl Baseline {
    /// Parses a baseline document.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing `cases` array, or a case without a
    /// string `name`.
    pub(crate) fn parse(text: &str) -> Result<Baseline, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let Some(Json::Arr(cases)) = doc.get("cases") else {
            return Err("no \"cases\" array".to_string());
        };
        let cases = cases
            .iter()
            .map(|c| match c.get("name").and_then(Json::as_str) {
                Some(name) => Ok((name.to_string(), c.clone())),
                None => Err("a case has no string \"name\"".to_string()),
            })
            .collect::<Result<_, _>>()?;
        Ok(Baseline { cases })
    }

    /// Judges every recorded case. `judge(name, case)` returns `None`
    /// when the current run has no case of that name, else the rule's
    /// failure messages (empty when it holds). An overlapping case
    /// missing one of the numeric `required` fields fails too.
    ///
    /// # Errors
    ///
    /// Every failure as a `REGRESSION: {bench}/{name} ...` line, or one
    /// line saying nothing overlapped.
    pub(crate) fn gate(
        &self,
        bench: &str,
        required: &[&str],
        mut judge: impl FnMut(&str, &Json) -> Option<Vec<String>>,
    ) -> Result<usize, Vec<String>> {
        let mut checked = 0;
        let mut failures = Vec::new();
        for (name, case) in &self.cases {
            let Some(mut fails) = judge(name, case) else {
                continue;
            };
            checked += 1;
            let missing: Vec<&str> = required
                .iter()
                .copied()
                .filter(|k| case.get(k).and_then(Json::as_f64).is_none())
                .collect();
            if !missing.is_empty() {
                fails = vec![format!("baseline case has no numeric {missing:?}")];
            }
            failures.extend(
                fails
                    .into_iter()
                    .map(|f| format!("REGRESSION: {bench}/{name} {f}")),
            );
        }
        if checked == 0 {
            failures.push(format!(
                "{bench}: no baseline case overlaps this run — nothing was verified"
            ));
        }
        if failures.is_empty() {
            Ok(checked)
        } else {
            Err(failures)
        }
    }
}

/// A case's numeric field; `NaN` when absent, so every comparison
/// against it fails (gates list the fields they read as `required`).
#[must_use]
pub fn num(case: &Json, key: &str) -> f64 {
    case.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// The microbench rule: the run's min-based speedup must reach
/// `ratio ×` the recorded `speedup_min`, or — for baselines that
/// predate minimums — its median speedup `ratio ×` the recorded
/// `speedup`.
#[must_use]
pub fn speedup_floor(case: &Json, speedup: f64, speedup_min: f64, ratio: f64) -> Vec<String> {
    let (now, recorded) = match case.get("speedup_min").and_then(Json::as_f64) {
        Some(b) => (speedup_min, b),
        None => (speedup, num(case, "speedup")),
    };
    if now >= recorded * ratio {
        Vec::new()
    } else {
        vec![format!(
            "speedup {now:.1}x is more than {:.0}% below the recorded {recorded:.1}x",
            (1.0 - ratio) * 100.0
        )]
    }
}

/// Loads the baseline at `path` and runs `Baseline::gate` on it:
/// prints `check vs {path}: ok (N cases)` on success, else every
/// failure, and exits 1 on failure or an unreadable baseline.
pub fn check(
    path: &str,
    bench: &str,
    required: &[&str],
    judge: impl FnMut(&str, &Json) -> Option<Vec<String>>,
) {
    let fail = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(1)
    };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("could not read baseline {path}: {e}")));
    let baseline = Baseline::parse(&text)
        .unwrap_or_else(|e| fail(format!("could not parse baseline {path}: {e}")));
    match baseline.gate(bench, required, judge) {
        Ok(n) => eprintln!("check vs {path}: ok ({n} cases)"),
        Err(failures) => fail(failures.join("\n")),
    }
}

/// Writes `cases` (one JSON object each) as a baseline file, one case
/// per line, and reports the path on stderr; exits 1 if it cannot be
/// written.
pub fn write(path: &str, bench: &str, cases: &[String]) {
    let mut out = format!("{{\n  \"bench\": \"{bench}\",\n  \"cases\": [\n");
    for (i, case) in cases.iter().enumerate() {
        let comma = if i + 1 == cases.len() { "" } else { "," };
        out.push_str(&format!("    {case}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("could not write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(file: &str) -> String {
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// One key per line, nested two spaces per level.
    fn pretty(j: &Json, depth: usize) -> String {
        let pad = |d: usize| "  ".repeat(d);
        match j {
            Json::Arr(items) => {
                let body: Vec<String> = items
                    .iter()
                    .map(|v| format!("{}{}", pad(depth + 1), pretty(v, depth + 1)))
                    .collect();
                format!("[\n{}\n{}]", body.join(",\n"), pad(depth))
            }
            Json::Obj(map) => {
                let body: Vec<String> = map
                    .iter()
                    .map(|(k, v)| format!("{}{k:?}: {}", pad(depth + 1), pretty(v, depth + 1)))
                    .collect();
                format!("{{\n{}\n{}}}", body.join(",\n"), pad(depth))
            }
            leaf => leaf.to_string_compact(),
        }
    }

    #[test]
    fn committed_baselines_parse_the_same_in_any_formatting() {
        for (file, n) in [
            ("BENCH_pr2.json", 7),
            ("BENCH_pr7.json", 4),
            ("BENCH_pr8.json", 4),
            ("BENCH_pr9.json", 17),
            ("BENCH_pr10.json", 6),
        ] {
            let text = committed(file);
            let base = Baseline::parse(&text).unwrap();
            assert_eq!(base.cases.len(), n, "{file}");
            let doc = Json::parse(&text).unwrap();
            let pretty = pretty(&doc, 0);
            assert!(
                pretty.lines().count() > n * 4,
                "{file}: not one key per line"
            );
            for reformatted in [doc.to_string_compact(), pretty] {
                assert_eq!(Baseline::parse(&reformatted).unwrap(), base, "{file}");
            }
        }
    }

    #[test]
    fn written_files_read_back() {
        let path =
            std::env::temp_dir().join(format!("bsched-baseline-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        write(
            path,
            "demo",
            &[
                "{\"name\": \"a\", \"x\": 1}".into(),
                "{\"name\": \"b\"}".into(),
            ],
        );
        let base = Baseline::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        std::fs::remove_file(path).ok();
        let names: Vec<&str> = base.cases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert!((num(&base.cases[0].1, "x") - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn a_baseline_with_no_overlapping_case_fails() {
        let base = Baseline::parse(&committed("BENCH_pr10.json")).unwrap();
        let err = base.gate("machines", &[], |_, _| None).unwrap_err();
        assert!(err[0].contains("nothing was verified"), "{err:?}");
        let empty = Baseline::parse("{\"bench\": \"x\", \"cases\": []}").unwrap();
        assert!(empty.gate("x", &[], |_, _| Some(Vec::new())).is_err());
    }

    #[test]
    fn rules_and_required_fields_decide_each_overlapping_case() {
        let base = Baseline::parse(
            r#"{"cases": [{"name": "old", "speedup": 10.0},
                          {"name": "new", "speedup": 10.0, "speedup_min": 4.0},
                          {"name": "bare"}]}"#,
        )
        .unwrap();
        // Median vs `speedup` when no minimum is recorded, min-based otherwise.
        let judge = |now_median: f64, now_min: f64| {
            move |_: &str, c: &Json| Some(speedup_floor(c, now_median, now_min, 0.5))
        };
        assert!(
            base.gate("b", &["speedup"], judge(5.0, 2.0)).is_err(),
            "bare lacks speedup"
        );
        let two = Baseline {
            cases: base.cases[..2].to_vec(),
        };
        assert_eq!(two.gate("b", &["speedup"], judge(5.0, 2.0)), Ok(2));
        let err = two.gate("b", &["speedup"], judge(4.9, 1.9)).unwrap_err();
        assert_eq!(err.len(), 2);
        assert!(
            err[0].starts_with("REGRESSION: b/old speedup 4.9x"),
            "{err:?}"
        );
        assert!(
            err[1].starts_with("REGRESSION: b/new speedup 1.9x"),
            "{err:?}"
        );
    }

    #[test]
    fn malformed_baselines_are_errors() {
        for bad in ["", "{}", "{\"cases\": [{\"x\": 1}]}", "{\"cases\": 3}"] {
            assert!(Baseline::parse(bad).is_err(), "{bad:?}");
        }
    }
}
