//! # df-bench — figure-regeneration harness
//!
//! One function per table/figure of the paper's evaluation section. Each
//! function sweeps the relevant parameter (offered load, traffic mix,
//! misrouting threshold, time) for the relevant set of routing mechanisms and
//! returns [`df_engine::Table`]s with the same rows/series the paper plots.
//!
//! `--bin fig -- <5|6|7|8|9|10|table1>` prints these tables at a selectable
//! scale; the other binaries in `src/bin/` are the scenario-matrix runner
//! (`sweep_service`, journaled and resumable), and the fault, availability
//! and collective/job runners. Timing
//! lives in the standalone `benchmark/` package, not here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figures;
pub mod scale;

pub use figures::*;
pub use scale::{or_exit_2, parse_kv, write_or_exit, Scale};
