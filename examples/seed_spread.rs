//! Seed-to-seed spread of every golden cell's pinned metrics.
//!
//! ```text
//! cargo run --release --example seed_spread [seeds] [--against FILE]
//! ```
//!
//! Runs every cell of the golden corpus (`tests/common/golden_corpus.rs`)
//! at seeds `0..seeds` (default 10) and prints one tab-separated row per
//! cell and metric: table, cell, metric, the pinned value (seed 11), and the
//! minimum, median and maximum over the seeds. A mean latency is printed as
//! its `f64`, not its bits.
//!
//! With `--against FILE` (an earlier run's output, typically at the parent
//! of a change that moves pins) each row adds that run's range and a
//! verdict: `same` where the pin did not move, `inside` where it moved to a
//! value inside the earlier run's [min, max], `OUTSIDE` otherwise; a summary
//! line closes the table. This is the re-pin check for a change that alters
//! the simulated random streams but not their law: each moved pin should be
//! a value another seed of the old build could have given.

#[path = "../tests/common/golden_corpus.rs"]
#[allow(dead_code)]
mod golden_corpus;

use contention_dragonfly::prelude::*;
use golden_corpus::*;
use std::collections::HashMap;

/// How a cell's fingerprint is taken, and what its fields are called.
#[derive(Clone, Copy)]
enum Kind {
    Plain,
    Fault,
    Churn,
    Collective,
    Jobs,
}

impl Kind {
    fn metrics(self) -> &'static [&'static str] {
        match self {
            Kind::Plain => &["delivered", "final_cycle", "latency"],
            Kind::Fault => &[
                "delivered",
                "dropped",
                "in_flight",
                "final_cycle",
                "latency",
            ],
            Kind::Churn => &[
                "delivered",
                "dropped",
                "retargeted",
                "in_flight",
                "final_cycle",
                "latency",
            ],
            Kind::Collective => &["completion", "delivered", "rank_stalls", "latency"],
            Kind::Jobs => &[
                "makespan",
                "completion_sum",
                "delivered",
                "job_stalls",
                "latency",
            ],
        }
    }

    /// The fingerprint's fields, the last (a latency's bits) as its `f64`.
    fn run(self, cfg: SimulationConfig) -> Vec<f64> {
        let mut fields = match self {
            Kind::Plain => {
                let (a, b, c) = fingerprint(cfg);
                vec![a, b, c]
            }
            Kind::Fault => {
                let (a, b, c, d, e) = fault_fingerprint(cfg);
                vec![a, b, c, d, e]
            }
            Kind::Churn => {
                let (a, b, c, d, e, f) = churn_fingerprint(cfg);
                vec![a, b, c, d, e, f]
            }
            Kind::Collective => {
                let (a, b, c, d) = collective_fingerprint(cfg);
                vec![a, b, c, d]
            }
            Kind::Jobs => {
                let (a, b, c, d, e) = job_set_fingerprint(cfg);
                vec![a, b, c, d, e]
            }
        };
        let latency = fields.pop().expect("a latency closes every fingerprint");
        let mut values: Vec<f64> = fields.into_iter().map(|v| v as f64).collect();
        values.push(f64::from_bits(latency));
        values
    }
}

/// One golden cell: its table, label, configuration and pinned values.
struct Cell {
    table: &'static str,
    label: String,
    kind: Kind,
    cfg: SimulationConfig,
    pinned: Vec<f64>,
}

/// Pinned fields as the fingerprint's values (the latency bits last).
fn pinned(fields: &[u64]) -> Vec<f64> {
    let (latency, counts) = fields.split_last().expect("non-empty");
    let mut values: Vec<f64> = counts.iter().map(|&v| v as f64).collect();
    values.push(f64::from_bits(*latency));
    values
}

/// Every golden cell, in each table's order.
fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    let mut push = |table, label: String, kind, cfg, fields: &[u64]| {
        cells.push(Cell {
            table,
            label,
            kind,
            cfg,
            pinned: pinned(fields),
        })
    };
    let build = |b: df_sim::SimulationConfigBuilder| b.build().expect("valid configuration");
    let mut rows = GOLDEN_ROUTING_PATTERN.iter();
    for routing in RoutingKind::ALL {
        for pattern in all_patterns() {
            let &(r, p, d, c, l) = rows.next().expect("one row per cell");
            let cfg = build(base_builder().routing(routing).pattern(pattern));
            push(
                "routing_pattern",
                format!("{r} {p}"),
                Kind::Plain,
                cfg,
                &[d, c, l],
            );
        }
    }
    for &(routing, d, c, l) in GOLDEN_TRIGGER_TABLE {
        let cfg = build(trigger_table_builder(routing));
        push(
            "trigger",
            routing.label().into(),
            Kind::Plain,
            cfg,
            &[d, c, l],
        );
    }
    let mut rows = GOLDEN_SPECIAL.iter();
    for scenario in special_scenarios() {
        for routing in [RoutingKind::Base, RoutingKind::Ectn] {
            let &(s, r, d, c, l) = rows.next().expect("one row per cell");
            let cfg = build(base_builder().routing(routing).scenario(&scenario));
            push("special", format!("{s} {r}"), Kind::Plain, cfg, &[d, c, l]);
        }
    }
    let mut rows = GOLDEN_FAULTS.iter();
    for scenario in fault_scenarios() {
        for routing in fault_routings() {
            let &(s, r, d, drop, inf, c, l) = rows.next().expect("one row per cell");
            let cfg = build(base_builder().routing(routing).scenario(&scenario));
            let fields = [d, drop, inf, c, l];
            push("faults", format!("{s} {r}"), Kind::Fault, cfg, &fields);
        }
    }
    let mut rows = GOLDEN_CHURN.iter();
    for scenario in churn_scenarios() {
        for routing in churn_routings() {
            let &(s, r, d, drop, ret, inf, c, l) = rows.next().expect("one row per cell");
            let cfg = build(base_builder().routing(routing).scenario(&scenario));
            let fields = [d, drop, ret, inf, c, l];
            push("churn", format!("{s} {r}"), Kind::Churn, cfg, &fields);
        }
    }
    let mut rows = GOLDEN_COLLECTIVES.iter();
    for job in collective_workloads() {
        for routing in collective_routings() {
            let &(w, r, done, d, stall, l) = rows.next().expect("one row per cell");
            let cfg = collective_config(job.clone(), routing);
            let fields = [done, d, stall, l];
            push(
                "collectives",
                format!("{w} {r}"),
                Kind::Collective,
                cfg,
                &fields,
            );
        }
    }
    let mut rows = GOLDEN_MEGAFLY.iter();
    for routing in megafly_routings() {
        for pattern in megafly_patterns() {
            let &(r, p, d, c, l) = rows.next().expect("one row per cell");
            let cfg = build(megafly_base_builder().routing(routing).pattern(pattern));
            push("megafly", format!("{r} {p}"), Kind::Plain, cfg, &[d, c, l]);
        }
    }
    let mut rows = GOLDEN_MEGAFLY_FAULTS.iter();
    for scenario in megafly_fault_scenarios() {
        for routing in megafly_fault_routings() {
            let &(s, r, d, drop, inf, c, l) = rows.next().expect("one row per cell");
            let cfg = build(megafly_base_builder().routing(routing).scenario(&scenario));
            let fields = [d, drop, inf, c, l];
            push(
                "megafly_faults",
                format!("{s} {r}"),
                Kind::Fault,
                cfg,
                &fields,
            );
        }
    }
    let mut rows = GOLDEN_MEGAFLY_COLLECTIVES.iter();
    for job in megafly_collective_workloads() {
        for routing in [RoutingKind::Base, RoutingKind::Ectn] {
            let &(w, r, done, d, stall, l) = rows.next().expect("one row per cell");
            let cfg = megafly_collective_config(job.clone(), routing);
            let fields = [done, d, stall, l];
            push(
                "megafly_collectives",
                format!("{w} {r}"),
                Kind::Collective,
                cfg,
                &fields,
            );
        }
    }
    // the multi-job corpus, in `tests/multi_job.rs`'s cell order
    let mut jobs: Vec<(&str, String, RoutingKind, SimulationConfig)> = Vec::new();
    for (topology, config) in [
        ("dragonfly", job_set_config as fn(_, _) -> _),
        ("megafly", megafly_job_set_config),
    ] {
        for (mix, set) in job_mixes() {
            for routing in job_routings() {
                jobs.push((topology, mix.into(), routing, config(set.clone(), routing)));
            }
        }
    }
    for (topology, config) in [
        ("dragonfly", job_set_config as fn(_, _) -> _),
        ("megafly", megafly_job_set_config),
    ] {
        let base = RoutingKind::Base;
        jobs.push((
            topology,
            "interfere".into(),
            base,
            config(interference_jobs(), base),
        ));
    }
    for ((topology, mix, routing, cfg), row) in jobs.into_iter().zip(GOLDEN_JOBS) {
        let &(t, m, r, makespan, sum, d, stalls, l) = row;
        assert_eq!(
            (t, m, r),
            (topology, mix.as_str(), routing.label()),
            "job table order"
        );
        let fields = [makespan, sum, d, stalls, l];
        push("jobs", format!("{t} {m} {r}"), Kind::Jobs, cfg, &fields);
    }
    cells
}

/// An earlier run's `(min, max)` and pinned value per `(table, cell, metric)`.
type Against = HashMap<(String, String, String), (f64, f64, f64)>;

fn read_against(path: &str) -> Against {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    (text.lines().filter(|l| !l.starts_with('#')))
        .filter_map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            let num = |i: usize| f.get(i)?.parse::<f64>().ok();
            let key = (
                f[0].to_string(),
                f.get(1)?.to_string(),
                f.get(2)?.to_string(),
            );
            Some((key, (num(4)?, num(6)?, num(3)?)))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seeds: u64 = (args.first())
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.parse().expect("seeds: a count"))
        .unwrap_or(10);
    let against = (args.iter().position(|a| a == "--against"))
        .map(|at| read_against(args.get(at + 1).expect("--against FILE")));
    let mut header = "# table\tcell\tmetric\tpinned\tmin\tmedian\tmax".to_string();
    if against.is_some() {
        header += "\tagainst_min\tagainst_max\tverdict";
    }
    println!("# {seeds} seeds (0..{seeds}); pins at seed {SEED}");
    println!("{header}");
    let mut verdicts: HashMap<&str, usize> = HashMap::new();
    for cell in cells() {
        let runs: Vec<Vec<f64>> = (0..seeds)
            .map(|seed| {
                let mut cfg = cell.cfg.clone();
                cfg.seed = seed;
                cell.kind.run(cfg)
            })
            .collect();
        for (i, metric) in cell.kind.metrics().iter().enumerate() {
            let mut values: Vec<f64> = runs.iter().map(|r| r[i]).collect();
            values.sort_by(f64::total_cmp);
            let pin = cell.pinned[i];
            let (min, max) = (values[0], values[values.len() - 1]);
            let median = values[values.len() / 2];
            let mut row = format!(
                "{}\t{}\t{metric}\t{pin}\t{min}\t{median}\t{max}",
                cell.table, cell.label
            );
            if let Some(against) = &against {
                let key = (
                    cell.table.to_string(),
                    cell.label.clone(),
                    metric.to_string(),
                );
                let verdict = match against.get(&key) {
                    None => "new",
                    Some(&(_, _, old)) if old == pin => "same",
                    Some(&(lo, hi, _)) if (lo..=hi).contains(&pin) => "inside",
                    Some(_) => "OUTSIDE",
                };
                let (lo, hi, _) = against
                    .get(&key)
                    .copied()
                    .unwrap_or((f64::NAN, f64::NAN, 0.0));
                row += &format!("\t{lo}\t{hi}\t{verdict}");
                *verdicts.entry(verdict).or_default() += 1;
            }
            println!("{row}");
        }
    }
    if against.is_some() {
        let mut summary: Vec<_> = verdicts.into_iter().collect();
        summary.sort();
        println!("# verdicts: {summary:?}");
    }
}
