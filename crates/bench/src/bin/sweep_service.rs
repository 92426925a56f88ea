//! Sweep-as-a-service: the crash-recoverable scenario-matrix runner over a
//! run directory. Kill it at any point — rerunning the same command resumes
//! from the journal and the latest per-cell snapshots and produces a results
//! table byte-identical to an uninterrupted run.
//!
//! Usage:
//! ```text
//! cargo run --release -p df-bench --bin sweep_service -- \
//!     run-dir=target/sweep [small|medium|paper] [smoke] [csv] \
//!     [threads=N] [checkpoint-every=N] [seeds=N] \
//!     [interrupt-after=N] [interrupt-mid-at=N]
//! ```
//!
//! * `run-dir=` — the run directory (journal, snapshots, `results.csv`);
//!   required.
//! * scale name / `smoke` — topology and measurement windows, as in the
//!   other runners (a mistyped scale or `key=`, or a `--topology=`
//!   selection — the matrix is built on the canonical Dragonfly — is
//!   rejected).
//! * `threads=` — sub-runs at once, one thread each (default: available
//!   parallelism).
//! * `checkpoint-every=` — cycles between mid-cell snapshots (default 2000;
//!   0 disables mid-cell recovery).
//! * `seeds=` — seeds averaged per cell (default 1, or the scale's count).
//! * `interrupt-after=` / `interrupt-mid-at=` — CI hooks that stop the
//!   service early as if it had been killed (between sub-runs, or mid-cell
//!   right after a checkpoint).
//!
//! Exit code 0 = matrix complete (`results.csv` written), 3 = interrupted
//! by a hook (resume by rerunning), 2 = bad arguments.

use std::path::PathBuf;

use df_bench::{parse_kv, Scale};
use df_routing::RoutingKind;
use df_sim::runner::{run_sweep_service, RunnerOptions};
use df_sim::{matrix_table, FaultPlan, Scenario, ScenarioMatrix, SimulationConfig};
use df_topology::{Dragonfly, GroupId};
use df_traffic::PatternKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(run_dir) = args.iter().find_map(|a| a.strip_prefix("run-dir=")) else {
        eprintln!("error: run-dir=DIR is required (see the module docs)");
        std::process::exit(2);
    };
    let scale = Scale::from_args_dragonfly_only(
        "sweep_service",
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
    );
    let smoke = args.iter().any(|a| a == "smoke");
    let csv = args.iter().any(|a| a == "csv");

    let (warmup, measure, seeds) = if smoke {
        (300, 600, 1)
    } else {
        (scale.warmup, scale.measure, scale.seeds)
    };
    let seeds = parse_kv(&args, "seeds").unwrap_or(seeds);

    let base = SimulationConfig::builder()
        .topology(scale.topology)
        .network(scale.network)
        .warmup_cycles(warmup)
        .measurement_cycles(measure)
        .seed(1)
        .build()
        .expect("valid base configuration");

    // Benign + adversarial steady workloads plus one mid-run link outage —
    // the outage exercises snapshot/resume straddling fault windows.
    // NOTE: pinned to the concrete Dragonfly family, which is why the
    // parser above rejects `--topology=`; new code should build
    // `scale.topology_params().build()` and go through the `Topology` trait.
    let topo = Dragonfly::new(scale.topology);
    let (gw, gport) = FaultPlan::global_link_between(&topo, GroupId(0), GroupId(1));
    let matrix = ScenarioMatrix {
        base,
        scenarios: vec![
            Scenario::steady(PatternKind::Uniform),
            Scenario::steady(PatternKind::Adversarial { offset: 1 }),
            Scenario::named("ADV-linkloss")
                .hold(PatternKind::Adversarial { offset: 1 })
                .link_down(warmup / 2, gw, gport)
                .link_up(warmup + measure / 2, gw, gport),
        ],
        loads: vec![0.1, 0.25, 0.4],
        routings: vec![
            RoutingKind::Minimal,
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
        "sweep service: {} cells x {} seeds over {} ({} threads, checkpoints every {} cycles) -> {}",
        matrix.num_cells(),
        matrix.seeds_per_cell,
        scale.name,
        options.threads,
        options.checkpoint_every,
        options.run_dir.display(),
    );

    let outcome = match run_sweep_service(&matrix, &options) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("sweep service failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "sweep service: {} sub-runs recovered from the journal, {} executed, {} resumed mid-cell",
        outcome.recovered_subruns,
        outcome.executed_subruns,
        outcome.resumed_from_snapshot.len(),
    );
    if !outcome.complete {
        eprintln!("sweep service: interrupted; rerun the same command to resume");
        std::process::exit(3);
    }

    let table = matrix_table(
        format!("sweep service ({}, seed 1)", scale.name),
        &outcome.cells,
    );
    let rendered_csv = table.to_csv();
    let results_path = options.run_dir.join("results.csv");
    if let Err(e) = std::fs::write(&results_path, &rendered_csv) {
        eprintln!("cannot write {}: {e}", results_path.display());
        std::process::exit(1);
    }
    if csv {
        print!("{rendered_csv}");
    } else {
        print!("{}", table.to_text());
    }
    eprintln!("results written to {}", results_path.display());
}
