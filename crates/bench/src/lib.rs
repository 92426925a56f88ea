//! # df-bench — figure-regeneration harness
//!
//! One function per table/figure of the paper's evaluation section. Each
//! function sweeps the relevant parameter (offered load, traffic mix,
//! misrouting threshold, time) for the relevant set of routing mechanisms and
//! returns [`df_engine::Table`]s with the same rows/series the paper plots.
//! A steady-state figure (5, 6, 10) is one sweep: every configuration it
//! plots goes into one [`df_sim::run_sweep`] call, so one pool runs the
//! whole figure; a transient figure (7–9) is one run per mechanism.
//!
//! `--bin fig -- <5|6|7|8|9|10|table1>` prints these tables at a selectable
//! scale; the other binaries in `src/bin/` are the scenario-matrix runner
//! (`sweep_service`, journaled and resumable), and the fault, availability
//! and collective/job runners. The two journaled bins, `sweep_service` and
//! `availability`, share one front, [`run_service_or_exit`]. Timing
//! lives in the standalone `benchmark/` package, not here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod scale;

pub use figures::*;
pub use scale::{or_exit_2, parse_kv, parse_seeds, write_or_exit, Scale};

use df_sim::{MatrixCell, RunnerOptions, ScenarioMatrix};

/// The service bins' one front: run (or resume) `matrix` over
/// `options.run_dir` and return its cells, after printing how many sub-runs
/// were recovered from the journal, executed and resumed mid-cell. A service
/// error aborts the process with exit code 1, and an interruption hook that
/// stopped the sweep early with exit code 3 (rerun the command to resume).
pub fn run_service_or_exit(
    who: &str,
    matrix: &ScenarioMatrix,
    options: &RunnerOptions,
) -> Vec<MatrixCell> {
    let outcome = df_sim::run_sweep_service(matrix, options).unwrap_or_else(|e| {
        eprintln!("{who} failed: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "{who}: {} sub-runs recovered from the journal, {} executed, {} resumed mid-cell",
        outcome.recovered_subruns,
        outcome.executed_subruns,
        outcome.resumed_from_snapshot.len(),
    );
    if !outcome.complete {
        eprintln!("{who}: interrupted; rerun the same command to resume");
        std::process::exit(3);
    }
    outcome.cells
}
