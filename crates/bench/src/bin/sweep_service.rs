//! The scenario-matrix runner: a `scenarios × loads × routings` cross
//! product over a run directory, crash-recoverable. Kill it at any point —
//! rerunning the same command resumes from the journal and the latest
//! per-cell snapshots and produces a results table byte-identical to an
//! uninterrupted run.
//!
//! Usage:
//! ```text
//! cargo run --release -p df-bench --bin sweep_service -- \
//!     run-dir=target/sweep [small|medium|paper] [smoke] [csv] \
//!     [--topology=dragonfly|megafly] [threads=N] [checkpoint-every=N] \
//!     [seeds=N] [interrupt-after=N] [interrupt-mid-at=N]
//! ```
//!
//! * `run-dir=` — the run directory (journal, snapshots, `results.csv`);
//!   required.
//! * scale name / `smoke` — topology and measurement windows, as in the
//!   other runners (default `small`; `smoke` is short windows for CI, a
//!   mistyped scale or `key=` is rejected).
//! * `--topology=` — topology family (default `dragonfly`; `megafly` runs
//!   the matrix on the Dragonfly+ instance of the same sizing).
//! * `csv` — print CSV instead of the aligned text table.
//! * `threads=` — sub-runs at once, one thread each (default: available
//!   parallelism).
//! * `checkpoint-every=` — cycles between mid-cell snapshots (default 2000;
//!   0 disables mid-cell recovery).
//! * `seeds=` — seeds averaged per cell, at least 1 (default 1, or the
//!   scale's count).
//! * `interrupt-after=` / `interrupt-mid-at=` — CI hooks that stop the
//!   service early as if it had been killed (between sub-runs, or mid-cell
//!   right after a checkpoint).
//!
//! Every cell's seed is derived from `(base seed, scenario, load, routing)`
//! alone, so the table is bit-for-bit identical across reruns, resumes and
//! thread budgets — run it into two fresh directories and compare.
//!
//! Exit code 0 = matrix complete (`results.csv` written), 3 = interrupted
//! by a hook (resume by rerunning), 2 = bad arguments.

use std::path::PathBuf;

use df_bench::{or_exit_2, parse_kv, parse_seeds, run_service_or_exit, write_or_exit, Scale};
use df_routing::RoutingKind;
use df_sim::{matrix_table, FaultPlan, RunnerOptions, Scenario, ScenarioMatrix, SimulationConfig};
use df_topology::{GroupId, RouterId};
use df_traffic::{InjectionKind, PatternKind};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(run_dir) = args.iter().find_map(|a| a.strip_prefix("run-dir=")) else {
        eprintln!("error: run-dir=DIR is required (see the module docs)");
        std::process::exit(2);
    };
    let scale = or_exit_2(Scale::from_arg_list(
        Scale::small(),
        &[
            "smoke",
            "csv",
            "run-dir=",
            "seeds=",
            "threads=",
            "checkpoint-every=",
            "interrupt-after=",
            "interrupt-mid-at=",
        ],
        &args,
    ));
    let smoke = args.iter().any(|a| a == "smoke");
    let csv = args.iter().any(|a| a == "csv");

    let (warmup, measure, seeds) = if smoke {
        (300, 600, 1)
    } else {
        (scale.warmup, scale.measure, scale.seeds)
    };
    let seeds = parse_seeds(&args, seeds);

    let topology = scale.topology_params();
    let base = SimulationConfig::builder()
        .topology(topology)
        .network(scale.network)
        .warmup_cycles(warmup)
        .measurement_cycles(measure)
        .seed(1)
        .build()
        .expect("valid base configuration");

    // The workload axis: steady patterns spanning benign, adversarial,
    // locality-skewed and permutation-style traffic, one bursty variant and
    // one phased transient; then the faults family, deterministic failures
    // layered over steady traffic — a global-link outage window on the
    // busiest ADV+1 link and a graceful router drain/restore, scaled to the
    // run's windows (the outages also exercise snapshot/resume straddling
    // fault windows).
    let (gw, gport) = FaultPlan::global_link_between(&topology, GroupId(0), GroupId(1));
    let scenarios = vec![
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
        Scenario::named("ADV-linkloss")
            .hold(PatternKind::Adversarial { offset: 1 })
            .link_down(warmup / 2, gw, gport)
            .link_up(warmup + measure / 2, gw, gport),
        Scenario::named("UN-drain")
            .hold(PatternKind::Uniform)
            .router_drain(warmup / 2, RouterId(1))
            .router_restore(warmup + measure / 2, RouterId(1)),
    ];
    let matrix = ScenarioMatrix {
        base,
        scenarios,
        loads: vec![0.1, 0.25, 0.4],
        routings: vec![
            RoutingKind::Minimal,
            RoutingKind::Olm,
            RoutingKind::Base,
            RoutingKind::PiggyBacking,
            RoutingKind::Ectn,
        ],
        seeds_per_cell: seeds,
    };

    let mut options = RunnerOptions::new(PathBuf::from(run_dir));
    options.threads = parse_kv(&args, "threads").unwrap_or(df_sim::num_threads() as u64) as usize;
    if let Some(every) = parse_kv(&args, "checkpoint-every") {
        options.checkpoint_every = every;
    }
    options.interrupt_after_subruns = parse_kv(&args, "interrupt-after").map(|n| n as usize);
    options.interrupt_mid_subrun_at = parse_kv(&args, "interrupt-mid-at");

    eprintln!(
        "sweep service: {} scenarios x {} loads x {} routings = {} cells x {} seeds over {} {:?} \
         ({} threads, checkpoints every {} cycles) -> {}",
        matrix.scenarios.len(),
        matrix.loads.len(),
        matrix.routings.len(),
        matrix.num_cells(),
        matrix.seeds_per_cell,
        scale.name,
        scale.topology_kind,
        options.threads,
        options.checkpoint_every,
        options.run_dir.display(),
    );

    let cells = run_service_or_exit("sweep service", &matrix, &options);
    let table = matrix_table(
        format!(
            "sweep service ({} {:?}, seed 1)",
            scale.name, scale.topology_kind
        ),
        &cells,
    );
    let rendered_csv = table.to_csv();
    let results_path = options.run_dir.join("results.csv");
    write_or_exit(&results_path, &rendered_csv);
    if csv {
        print!("{rendered_csv}");
    } else {
        print!("{}", table.to_text());
    }
    eprintln!("results written to {}", results_path.display());
}
