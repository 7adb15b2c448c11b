//! The `serve_mix` request mix and its seeded request stream.
//!
//! A mix file (`perfbench/mixes/serve_mix.json`) lists weighted
//! entries. A fixed entry names kernels × configurations × schedulers
//! from the paper grid and submits all of them as one request; a `pick`
//! entry submits one seeded random cell of the grid or of the machine
//! zoo. Every served cell carries the committed row it must equal.

use crate::cells::{grid_cells, kernel_names, zoo_machines, zoo_options, ZOO_ARMS};
use crate::check::GridRow;
use bsched_harness::ExperimentCell;
use bsched_pipeline::{standard_grid, ExperimentConfig, SchedulerKind};
use bsched_serve::protocol::config_kind_from_label;
use bsched_sim::SimMetrics;
use bsched_util::{Json, Prng};
use std::collections::BTreeMap;

/// The `serve_mix` mix file, built into the benchmark.
pub const SERVE_MIX: &str = include_str!("../mixes/serve_mix.json");

/// The committed row a served cell must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A row of `results/all_experiments.csv`.
    Grid {
        /// Kernel name.
        kernel: String,
        /// Grid configuration.
        cfg: ExperimentConfig,
    },
    /// One arm's cycles in a row of `results/machines.csv`.
    Zoo {
        /// Machine spec string.
        machine: String,
        /// Kernel name.
        kernel: String,
        /// Index into [`ZOO_ARMS`].
        arm: usize,
    },
}

/// The committed results every served cell is checked against.
pub struct References {
    /// `all_experiments.csv` rows by `(kernel, config, scheduler)`.
    pub grid: BTreeMap<(String, String, String), GridRow>,
    /// `machines.csv` cycles by `(machine, kernel)`.
    pub zoo: BTreeMap<(String, String), [u64; 3]>,
}

impl Expect {
    /// Whether `m` equals the committed row.
    #[must_use]
    pub fn matches(&self, m: &SimMetrics, refs: &References) -> bool {
        match self {
            Expect::Grid { kernel, cfg } => {
                let line = crate::cells::grid_row(kernel, *cfg, m);
                let key = (
                    kernel.clone(),
                    cfg.kind.label().replace(' ', ""),
                    cfg.scheduler.label().to_string(),
                );
                refs.grid.get(&key).is_some_and(|r| r.line == line)
            }
            Expect::Zoo {
                machine,
                kernel,
                arm,
            } => refs
                .zoo
                .get(&(machine.clone(), kernel.clone()))
                .is_some_and(|r| r[*arm] == m.cycles),
        }
    }
}

/// One cell of a request, with its expected row.
#[derive(Debug, Clone)]
pub struct Served {
    /// The submitted cell.
    pub cell: ExperimentCell,
    /// What it must equal.
    pub expect: Expect,
}

/// One wire request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The cells submitted together.
    pub cells: Vec<Served>,
    /// Whether the server must run the conformance suite.
    pub verify: bool,
}

enum Pick {
    Fixed(Vec<Served>),
    Grid,
    Zoo,
}

struct Entry {
    weight: u64,
    verify: bool,
    pick: Pick,
}

/// A loaded mix.
pub struct Mix {
    /// Requests per pass.
    pub requests: usize,
    /// Closed-loop clients (connections).
    pub clients: usize,
    entries: Vec<Entry>,
    grid: Vec<Served>,
    zoo: Vec<Served>,
}

fn scheduler(name: &str) -> Result<SchedulerKind, String> {
    match name {
        "trad" => Ok(SchedulerKind::Traditional),
        "bal" => Ok(SchedulerKind::Balanced),
        other => Err(format!(
            "unknown scheduler {other:?} (expected trad or bal)"
        )),
    }
}

fn strings(entry: &Json, key: &str) -> Vec<String> {
    match entry.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect(),
        _ => Vec::new(),
    }
}

impl Mix {
    /// Parses a mix document.
    ///
    /// # Errors
    ///
    /// Malformed JSON, an unknown kernel, scheduler or configuration, or
    /// a (configuration, scheduler) pair the paper grid does not hold.
    pub fn parse(text: &str) -> Result<Mix, String> {
        let doc = Json::parse(text).map_err(|e| format!("mix: {e}"))?;
        let count = |key: &str| -> Result<usize, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .filter(|&n| n > 0)
                .map(|n| n as usize)
                .ok_or_else(|| format!("mix: missing positive {key:?}"))
        };
        let (requests, clients) = (count("requests")?, count("clients")?);
        let Some(Json::Arr(raw)) = doc.get("entries") else {
            return Err("mix: missing \"entries\" array".to_string());
        };
        let known = kernel_names();
        let grid_configs = standard_grid();
        let mut entries = Vec::new();
        for (n, e) in raw.iter().enumerate() {
            let weight = e.get("weight").and_then(Json::as_u64).unwrap_or(0);
            let verify = e.get("verify").and_then(Json::as_bool).unwrap_or(false);
            let pick = match e.get("pick").and_then(Json::as_str) {
                Some("grid") => Pick::Grid,
                Some("zoo") => Pick::Zoo,
                Some(other) => return Err(format!("mix entry {n}: unknown pick {other:?}")),
                None => {
                    let mut cells = Vec::new();
                    for k in strings(e, "kernels") {
                        if !known.contains(&k.as_str()) {
                            return Err(format!("mix entry {n}: unknown kernel {k:?}"));
                        }
                        for c in strings(e, "configs") {
                            let kind = config_kind_from_label(&c).map_err(|e| e.to_string())?;
                            for s in strings(e, "schedulers") {
                                let cfg = ExperimentConfig {
                                    scheduler: scheduler(&s)?,
                                    kind,
                                };
                                if !grid_configs.contains(&cfg) {
                                    return Err(format!(
                                        "mix entry {n}: {c} / {s} is not a paper-grid cell"
                                    ));
                                }
                                cells.push(Served {
                                    cell: ExperimentCell::new(&k, cfg.options()),
                                    expect: Expect::Grid {
                                        kernel: k.clone(),
                                        cfg,
                                    },
                                });
                            }
                        }
                    }
                    if cells.is_empty() {
                        return Err(format!("mix entry {n}: no cells"));
                    }
                    Pick::Fixed(cells)
                }
            };
            if weight == 0 {
                return Err(format!("mix entry {n}: needs a positive weight"));
            }
            entries.push(Entry {
                weight,
                verify,
                pick,
            });
        }
        if entries.is_empty() {
            return Err("mix: no entries".to_string());
        }
        let grid = grid_cells()
            .into_iter()
            .map(|(cell, cfg)| Served {
                expect: Expect::Grid {
                    kernel: cell.kernel().to_string(),
                    cfg,
                },
                cell,
            })
            .collect();
        let mut zoo = Vec::new();
        for m in zoo_machines() {
            for k in &known {
                for (arm, &kind) in ZOO_ARMS.iter().enumerate() {
                    zoo.push(Served {
                        cell: ExperimentCell::new(k, zoo_options(kind, &m)),
                        expect: Expect::Zoo {
                            machine: m.spec().to_string(),
                            kernel: (*k).to_string(),
                            arm,
                        },
                    });
                }
            }
        }
        Ok(Mix {
            requests,
            clients,
            entries,
            grid,
            zoo,
        })
    }

    /// The request stream of pass `pass`: a pure function of the mix,
    /// `seed` and `pass`. Each pass of a run draws its own cold cells,
    /// so a run's figures do not hinge on one draw. Request `i` is sent
    /// by client `i % clients`.
    #[must_use]
    pub fn stream(&self, seed: u64, pass: u64) -> Vec<Request> {
        let total: u64 = self.entries.iter().map(|e| e.weight).sum();
        let mut rng = Prng::new(seed ^ 0x5e47_e000 ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        (0..self.requests)
            .map(|_| {
                let mut ticket = rng.range_u64(0, total);
                let entry = self
                    .entries
                    .iter()
                    .find(|e| {
                        let hit = ticket < e.weight;
                        ticket = ticket.saturating_sub(e.weight);
                        hit
                    })
                    .expect("ticket below the total weight");
                let cells = match &entry.pick {
                    Pick::Fixed(cells) => cells.clone(),
                    Pick::Grid => vec![self.grid[rng.index(self.grid.len())].clone()],
                    Pick::Zoo => vec![self.zoo[rng.index(self.zoo.len())].clone()],
                };
                Request {
                    cells,
                    verify: entry.verify,
                }
            })
            .collect()
    }

    /// The TS/BS pairs of the fixed entries, as (TS cell, BS cell):
    /// the pairs `bs_speedup_geo` is taken over on this workload.
    #[must_use]
    pub fn headline_pairs(&self) -> Vec<(ExperimentCell, ExperimentCell)> {
        let fixed: Vec<&Served> = self
            .entries
            .iter()
            .filter_map(|e| match &e.pick {
                Pick::Fixed(cells) => Some(cells),
                _ => None,
            })
            .flatten()
            .collect();
        let mut pairs = Vec::new();
        for ts in &fixed {
            let Expect::Grid { kernel, cfg } = &ts.expect else {
                continue;
            };
            if cfg.scheduler != SchedulerKind::Traditional {
                continue;
            }
            let bs_cfg = ExperimentConfig {
                scheduler: SchedulerKind::Balanced,
                kind: cfg.kind,
            };
            let bs = ExperimentCell::new(kernel, bs_cfg.options());
            let pair = (ts.cell.clone(), bs);
            if fixed.iter().any(|s| s.cell == pair.1) && !pairs.contains(&pair) {
                pairs.push(pair);
            }
        }
        pairs
    }
}
