//! # df-engine — simulation engine utilities
//!
//! Infrastructure shared by the simulator, the traffic generators and the
//! experiment harness:
//!
//! * [`bitset`] — the ordered index set behind the simulator's activity
//!   gates,
//! * [`rng`] — deterministic, splittable random-number generation so every
//!   experiment is exactly reproducible from a single `u64` seed,
//! * [`stats`] — streaming statistics (mean, variance, confidence intervals),
//! * [`histogram`] — fixed-width binned histograms (latency distributions),
//! * [`timeseries`] — binned time series used by the transient experiments
//!   (Figures 7, 8 and 9 of the paper),
//! * [`table`] — plain-text / CSV rendering of experiment results, used by
//!   the figure-regeneration binaries,
//! * [`codec`] — the checksummed binary encoding behind simulation
//!   snapshots and the sweep runner's journal.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitset;
pub mod codec;
pub mod histogram;
pub mod rng;
pub mod stats;
pub mod table;
pub mod timeseries;

pub use bitset::BitSet;
pub use codec::{CodecError, Decoder, Encoder};
pub use histogram::Histogram;
pub use rng::{failure_run_table, DeterministicRng};
pub use stats::RunningStats;
pub use table::Table;
pub use timeseries::BinnedSeries;
