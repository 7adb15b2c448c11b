//! The optimality headline in README.md and DESIGN.md is derived from
//! the committed `results/optimality.csv`: BS's lowest and highest
//! percent of the bound, and TS's lowest. Regenerating the CSV with
//! different numbers fails this test until the prose follows.

fn repo_file(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A percentage as the prose writes it: `100`, `87.6`.
fn pct(x: f64) -> String {
    if x.fract() == 0.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.1}")
    }
}

/// Whitespace-normalized text, so a sentence may wrap anywhere.
fn flat(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[test]
fn the_headline_carries_the_committed_csv_numbers() {
    let csv = repo_file("results/optimality.csv");
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap().split(',').collect();
    let col = |name: &str| header.iter().position(|h| *h == name).unwrap();
    let (sched, pct_col) = (col("scheduler"), col("pct_of_optimal"));
    let pcts = |arm: &str| -> Vec<f64> {
        csv.lines()
            .skip(1)
            .map(|l| l.split(',').collect::<Vec<_>>())
            .filter(|f| f[sched] == arm)
            .map(|f| f[pct_col].parse().unwrap())
            .collect()
    };
    let (bs, ts) = (pcts("BS"), pcts("TS"));
    assert_eq!(
        (bs.len(), ts.len()),
        (85, 85),
        "17 kernels x 5 combos per arm"
    );
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (bs_min, bs_max, ts_min) = (pct(min(&bs)), pct(max(&bs)), pct(min(&ts)));

    let readme = flat(&repo_file("README.md"));
    let headline = format!(
        "BS schedules within {bs_min}–{bs_max}% of the bound on every cell; \
         TS falls as low as {ts_min}%"
    );
    assert!(readme.contains(&headline), "README.md must say: {headline}");

    let design = flat(&repo_file("DESIGN.md"));
    let claim =
        format!("BS reaches {bs_min}–{bs_max}% of the bound while TS bottoms out at {ts_min}%");
    assert!(design.contains(&claim), "DESIGN.md must say: {claim}");
}
