//! The parallel scenario-matrix runner: execute a `scenarios × loads ×
//! routings` cross product across OS threads with deterministic per-cell
//! seeding and print the structured results table.
//!
//! Usage:
//! ```text
//! cargo run --release -p df-bench --bin scenario_matrix -- [small|medium|paper] [smoke] [csv] [--topology=dragonfly|megafly]
//! ```
//!
//! * scale name — machine under test and measurement windows (default
//!   `small`),
//! * `--topology=` — topology family (default `dragonfly`; `megafly` runs
//!   the matrix on the Dragonfly+ instance of the same sizing),
//! * `smoke` — short windows for CI (a few seconds end to end),
//! * `csv` — emit CSV instead of the aligned text table.
//!
//! Every cell's seed is derived from `(base seed, scenario, load, routing)`
//! alone, so the table is bit-for-bit identical across reruns and across
//! thread counts — rerun the command and diff the output to check.

use df_routing::RoutingKind;
use df_sim::{
    matrix_table, num_threads, run_matrix, FaultPlan, Scenario, ScenarioMatrix, SimulationConfig,
};
use df_topology::{GroupId, RouterId};
use df_traffic::{InjectionKind, PatternKind};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = df_bench::Scale::from_args_with_flags(df_bench::Scale::small(), &["smoke", "csv"]);
    let smoke = args.iter().any(|a| a == "smoke");
    let csv = args.iter().any(|a| a == "csv");

    let (warmup, measure, seeds) = if smoke {
        (300, 600, 1)
    } else {
        (scale.warmup, scale.measure, scale.seeds)
    };

    let base = SimulationConfig::builder()
        .topology(scale.topology_params())
        .network(scale.network)
        .warmup_cycles(warmup)
        .measurement_cycles(measure)
        .seed(1)
        .build()
        .expect("valid base configuration");

    // The faults family: deterministic failures layered over steady
    // traffic — a global-link outage window on the busiest ADV+1 link and
    // a graceful router drain/restore, scaled to the run's windows.
    let topo = scale.topology_params().build();
    let (gw, gport) = FaultPlan::global_link_between(&topo, GroupId(0), GroupId(1));
    let fault_scenarios = vec![
        Scenario::named("ADV-linkloss")
            .hold(PatternKind::Adversarial { offset: 1 })
            .link_down(warmup / 2, gw, gport)
            .link_up(warmup + measure / 2, gw, gport),
        Scenario::named("UN-drain")
            .hold(PatternKind::Uniform)
            .router_drain(warmup / 2, RouterId(1))
            .router_restore(warmup + measure / 2, RouterId(1)),
    ];

    // The workload axis: steady patterns spanning benign, adversarial,
    // locality-skewed and permutation-style traffic, one bursty variant and
    // one phased transient.
    let mut scenarios = vec![
        Scenario::steady(PatternKind::Uniform),
        Scenario::steady(PatternKind::Adversarial { offset: 1 }),
        Scenario::steady(PatternKind::Hotspot {
            hotspots: 4,
            fraction: 0.5,
        }),
        Scenario::steady(PatternKind::BitReversal),
        Scenario::steady(PatternKind::GroupLocal {
            local_fraction: 0.6,
        }),
        Scenario::named("UN-bursty")
            .injection(InjectionKind::Bursty {
                mean_on: 50.0,
                mean_off: 50.0,
            })
            .hold(PatternKind::Uniform),
        Scenario::transient(
            PatternKind::Uniform,
            PatternKind::Adversarial { offset: 1 },
            warmup / 2,
        ),
    ];
    scenarios.extend(fault_scenarios);

    let matrix = ScenarioMatrix {
        base,
        scenarios,
        loads: vec![0.1, 0.25, 0.4],
        routings: vec![
            RoutingKind::Minimal,
            RoutingKind::Olm,
            RoutingKind::Base,
            RoutingKind::Ectn,
        ],
        seeds_per_cell: seeds,
    };

    let threads = num_threads();
    eprintln!(
        "scenario matrix: {} scenarios x {} loads x {} routings = {} cells on {} threads ({})",
        matrix.scenarios.len(),
        matrix.loads.len(),
        matrix.routings.len(),
        matrix.num_cells(),
        threads,
        scale.name,
    );
    let start = std::time::Instant::now();
    let cells = run_matrix(&matrix, threads);
    let elapsed = start.elapsed();

    let table = matrix_table(format!("scenario matrix ({}, seed 1)", scale.name), &cells);
    if csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_text());
    }
    eprintln!(
        "{} cells in {:.2}s ({:.1} cells/s)",
        cells.len(),
        elapsed.as_secs_f64(),
        cells.len() as f64 / elapsed.as_secs_f64().max(1e-9)
    );
}
