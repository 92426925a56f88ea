//! # df-bench — figure-regeneration harness
//!
//! One function per table/figure of the paper's evaluation section. Each
//! function sweeps the relevant parameter (offered load, traffic mix,
//! misrouting threshold, time) for the relevant set of routing mechanisms and
//! returns [`df_engine::Table`]s with the same rows/series the paper plots.
//!
//! The binaries in `src/bin/` (one per figure) print these tables at a
//! selectable scale; the Criterion benches in `benches/` time representative
//! slices of the same code paths.

#![warn(missing_docs)]

pub mod figures;
pub mod scale;

pub use figures::*;
pub use scale::Scale;
