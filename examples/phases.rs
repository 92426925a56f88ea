//! Where the time goes inside `Network::step`: per-phase wall time and
//! exact work counts, from the phase clock (`Network::set_phase_clock`).
//!
//! ```text
//! cargo run --release --example phases [runs]
//! ```
//!
//! Two tables, the two "Where the time goes" tables of
//! `docs/ARCHITECTURE.md`, each cell configured as its benchmark workload
//! configures it (seed 1):
//!
//! * `lowload_paper` — the Table I Dragonfly (16,512 nodes) at UN 0.01,
//!   probed over the 300 cycles after a 100-cycle warm-up, and over cycle 0
//!   (every node due: a gap drawn per node) on its own line;
//! * `saturated_medium` — the medium Dragonfly restored at cycle 800 of
//!   UN 0.9 (Base, PB) and ADV+1 0.5 (ECtN, OLM), probed over 150 cycles;
//!
//! and one `jobs_medium` cell (Base: three 64-rank jobs over UN 0.001 on the
//! medium Dragonfly, probed from cycle 0 to the jobs' completion).
//!
//! Times are µs per step, the fastest of `runs` runs (default 9) per phase
//! and for the whole step; counts are exact and equal in every run.

use contention_dragonfly::prelude::*;
use contention_dragonfly::sim::probe::{Phase, PhaseTotals, StepCounts};
use contention_dragonfly::sim::Network;
use std::cell::Cell;

/// A configuration as the benchmark workloads build theirs.
fn config(
    topology: DragonflyParams,
    routing: RoutingKind,
    pattern: PatternKind,
    load: f64,
    cell: usize,
) -> SimulationConfig {
    SimulationConfig::builder()
        .topology(topology)
        .network(NetworkConfig::paper_table1())
        .routing(routing)
        .pattern(pattern)
        .offered_load(load)
        .seed(DeterministicRng::new(1).split(cell as u64).seed())
        .build()
        .expect("valid configuration")
}

/// Run `steps` steps of `net` under a phase clock and return its totals.
fn clocked(net: &mut Network, steps: u64) -> PhaseTotals {
    net.set_phase_clock(Some(PhaseTotals::default()));
    net.run_cycles(steps);
    let totals = *net.phase_clock().expect("a running clock");
    net.set_phase_clock(None);
    totals
}

/// Mean µs per step over every phase.
fn step_us(totals: &PhaseTotals) -> f64 {
    Phase::ALL.iter().map(|&p| totals.us_per_step(p)).sum()
}

/// Probe `steps` steps of the network `start` builds, `runs` times: per
/// phase (and for the whole step) the fastest run, counts from the first.
fn probe(runs: usize, steps: u64, start: impl Fn() -> Network) -> (PhaseTotals, f64) {
    let mut best: Option<PhaseTotals> = None;
    let mut best_step = f64::INFINITY;
    for _ in 0..runs {
        let totals = clocked(&mut start(), steps);
        best_step = best_step.min(step_us(&totals));
        let best = best.get_or_insert(totals);
        assert_eq!(best.counts, totals.counts, "counts are deterministic");
        for (kept, time) in best.time.iter_mut().zip(totals.time) {
            *kept = (*kept).min(time);
        }
    }
    (best.expect("at least one run"), best_step)
}

/// The count rows of a table: label and field.
type CountRow = (&'static str, fn(&StepCounts) -> u64);
const COUNTS: [CountRow; 11] = [
    ("link events delivered", |c| c.events),
    ("due ticks", |c| c.due_ticks),
    ("gap draws", |c| c.gap_draws),
    ("PB exchanges", |c| c.pb_exchanges),
    ("PB refreshes", |c| c.pb_refreshes),
    ("router-iterations (step 4)", |c| c.router_iterations),
    ("heads decided", |c| c.heads),
    ("requests filed → grants", |c| c.requests),
    ("routers visited (step 5)", |c| c.transmit_visits),
    ("routers that sent", |c| c.senders),
    ("routers holding traffic", |c| c.holding),
];

fn print_table(cells: &[(String, PhaseTotals, f64)]) {
    let labels: Vec<&str> = cells.iter().map(|(label, ..)| label.as_str()).collect();
    println!("| per step | {} |", labels.join(" | "));
    println!("|---|{}", "---:|".repeat(cells.len()));
    for phase in Phase::ALL {
        let row: Vec<String> = (cells.iter())
            .map(|(_, t, _)| format!("{:.1}", t.us_per_step(phase)))
            .collect();
        println!("| {} µs | {} |", phase.label(), row.join(" | "));
    }
    let row: Vec<String> = (cells.iter())
        .map(|(.., step)| format!("**{step:.1}**"))
        .collect();
    println!("| **step µs** | {} |", row.join(" | "));
    for (label, field) in COUNTS {
        let row: Vec<String> = (cells.iter())
            .map(|(cell, t, _)| match label {
                // a mechanism without PB state has no PB work to count
                "PB exchanges" | "PB refreshes" if !cell.starts_with("PB") => "–".into(),
                "requests filed → grants" => format!(
                    "{:.0} → {:.0}",
                    t.per_step(|c| c.requests),
                    t.per_step(|c| c.grants)
                ),
                _ => format!("{:.0}", t.per_step(field)),
            })
            .collect();
        println!("| {label} | {} |", row.join(" | "));
    }
}

fn main() {
    let runs: usize = match std::env::args().nth(1) {
        Some(arg) => arg.parse().expect("usage: phases [runs]"),
        None => 9,
    };

    println!("lowload_paper: Table I Dragonfly, UN @ 0.01, cycles 100–400, fastest of {runs}\n");
    let routings = [
        RoutingKind::Base,
        RoutingKind::PiggyBacking,
        RoutingKind::Ectn,
    ];
    let (mut cells, mut first_steps) = (Vec::new(), Vec::new());
    for (i, routing) in routings.into_iter().enumerate() {
        let cfg = config(
            DragonflyParams::paper_table1(),
            routing,
            PatternKind::Uniform,
            0.01,
            i,
        );
        let first_step = Cell::new(f64::INFINITY);
        let (totals, step) = probe(runs, 300, || {
            let mut net = Network::new(cfg.clone());
            let first = clocked(&mut net, 1);
            first_step.set(first_step.get().min(step_us(&first)));
            net.run_cycles(99);
            net
        });
        cells.push((routing.label().to_string(), totals, step));
        first_steps.push(format!("{} {:.0}", routing.label(), first_step.get()));
    }
    print_table(&cells);
    println!("\ncycle 0 (all due) step µs: {}", first_steps.join(" | "));
    println!("\n`cargo run --release --example phases`\n");

    println!(
        "saturated_medium: medium Dragonfly restored at cycle 800, 150 cycles, fastest of {runs}\n"
    );
    let adv = PatternKind::Adversarial { offset: 1 };
    let grid = [
        (PatternKind::Uniform, "UN@0.9", 0.9, RoutingKind::Base),
        (
            PatternKind::Uniform,
            "UN@0.9",
            0.9,
            RoutingKind::PiggyBacking,
        ),
        (adv, "ADV+1@0.5", 0.5, RoutingKind::Ectn),
        (adv, "ADV+1@0.5", 0.5, RoutingKind::Olm),
    ];
    let mut cells = Vec::new();
    for (i, (pattern, name, load, routing)) in grid.into_iter().enumerate() {
        let cfg = config(DragonflyParams::medium(), routing, pattern, load, i);
        let mut warm = Network::new(cfg.clone());
        warm.run_cycles(800);
        let bytes = warm.snapshot();
        let (totals, step) = probe(runs, 150, || {
            Network::restore(cfg.clone(), &bytes).expect("a snapshot restores")
        });
        cells.push((format!("{} {name}", routing.label()), totals, step));
    }
    print_table(&cells);
    println!("\n`cargo run --release --example phases`\n");

    println!(
        "jobs_medium: medium Dragonfly, 3 jobs over UN @ 0.001, to completion, fastest of {runs}\n"
    );
    let cfg = jobs_medium_base();
    let cycles =
        (Network::new(cfg.clone()).run_until_jobs_complete(2_000_000)).expect("the jobs complete");
    let (totals, step) = probe(runs, cycles, || Network::new(cfg.clone()));
    print_table(&[(format!("Base, {cycles} cycles"), totals, step)]);
    println!("\n`cargo run --release --example phases`");
}

/// The first `jobs_medium` cell as the benchmark workload configures it.
fn jobs_medium_base() -> SimulationConfig {
    let rd = AllReduceAlgorithm::RecursiveDoubling;
    let ring = CollectiveKind::AllReduce(AllReduceAlgorithm::Ring);
    let jobs = vec![
        JobSpec::new(
            TaskWorkload::single(CollectiveKind::AllToAll, 64, 2),
            JobPlacement::group_spread(0),
        ),
        JobSpec::new(
            TaskWorkload::single(ring, 64, 2),
            JobPlacement::group_spread(8),
        ),
        JobSpec::new(
            TaskWorkload::mini_app(64, 8, rd, 1),
            JobPlacement::group_spread(16),
        )
        .starting_at(500)
        .with_compute_delay(20),
    ];
    SimulationConfig::builder()
        .topology(DragonflyParams::medium())
        .network(NetworkConfig::paper_table1())
        .routing(RoutingKind::Base)
        .pattern(PatternKind::Uniform)
        .offered_load(0.001)
        .seed(DeterministicRng::new(1).split(0).seed())
        .jobs(jobs)
        .build()
        .expect("valid configuration")
}
