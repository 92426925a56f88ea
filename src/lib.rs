//! # contention-dragonfly
//!
//! A production-quality Rust reproduction of *"Contention-based Nonminimal
//! Adaptive Routing in High-radix Networks"* (Fuentes et al., IEEE IPDPS
//! 2015): a cycle-driven Dragonfly network simulator, the contention-counter
//! misrouting trigger (Base / Hybrid / ECtN) together with the MIN, Valiant,
//! PiggyBacking and OLM baselines, synthetic traffic generators, and the full
//! experiment harness that regenerates every figure of the paper's
//! evaluation.
//!
//! This crate is a thin facade that re-exports the workspace sub-crates under
//! stable module names. Most users only need:
//!
//! ```
//! use contention_dragonfly::prelude::*;
//!
//! let config = SimulationConfig::builder()
//!     .topology(DragonflyParams::small())
//!     .network(NetworkConfig::fast_test())
//!     .routing(RoutingKind::Base)
//!     .pattern(PatternKind::Adversarial { offset: 1 })
//!     .offered_load(0.2)
//!     .warmup_cycles(200)
//!     .measurement_cycles(300)
//!     .seed(1)
//!     .build()
//!     .expect("valid configuration");
//!
//! let report = run_steady_state(&config);
//! println!(
//!     "latency {:.1} cycles, accepted load {:.3} phits/node/cycle",
//!     report.avg_packet_latency,
//!     report.accepted_load
//! );
//! assert!(report.delivered_packets > 0);
//! ```
//!
//! See `docs/ARCHITECTURE.md` for the architecture, `benchmark/README.md`
//! for what the simulator costs to run, and the committed `*.csv` tables
//! for measured results.

#![forbid(unsafe_code)]

/// Dragonfly topology model (re-export of `df-topology`).
pub use df_topology as topology;

/// Shared model types: packets, virtual channels, configuration (re-export of
/// `df-model`).
pub use df_model as model;

/// Simulation engine utilities: RNG, statistics, time series (re-export of
/// `df-engine`).
pub use df_engine as engine;

/// Synthetic traffic generation (re-export of `df-traffic`).
pub use df_traffic as traffic;

/// Router microarchitecture: buffers, credits, allocator, contention counters
/// (re-export of `df-router`).
pub use df_router as router;

/// Routing algorithms and misrouting triggers — the paper's contribution
/// (re-export of `df-routing`).
pub use df_routing as routing;

/// Cycle-driven network simulator and experiment harness (re-export of
/// `df-sim`).
pub use df_sim as sim;

/// One-stop imports for applications and examples.
pub mod prelude;
