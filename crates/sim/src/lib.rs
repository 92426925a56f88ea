//! # df-sim — the Dragonfly network simulator and experiment harness
//!
//! A cycle-driven simulator of input-output-buffered Dragonfly routers with
//! credit-based flow control, reproducing the evaluation methodology of
//! *"Contention-based Nonminimal Adaptive Routing in High-radix Networks"*
//! (Fuentes et al., IPDPS 2015):
//!
//! * [`config`] — the [`SimulationConfig`] builder combining topology,
//!   router microarchitecture, routing mechanism and traffic,
//! * [`network`] — the [`Network`] object and its per-cycle step loop,
//! * [`experiment`] — steady-state and transient experiment runners,
//! * [`scenario`] — declarative multi-phase traffic workloads,
//! * [`fault`] — deterministic link/router/node fault injection
//!   ([`fault::FaultPlan`]),
//! * [`churn`] — seeded MTBF/MTTR churn models lowering into fault plans
//!   ([`churn::ChurnModel`]),
//! * [`sweep`] — parameter sweeps and the scenario-matrix runner, in memory,
//! * [`runner`] — the one sweep driver (sub-run loop + thread pool) and the
//!   crash-recoverable sweep service: the same pool journaled, with periodic
//!   [`network::snapshot`] checkpoints, resumable to a byte-identical table,
//! * [`task`] — the collective task layer: job sets whose ranks execute
//!   message-gated communication scripts (all-reduce, all-to-all,
//!   barriers) on top of the packet engine, alone (offered load 0) or
//!   under background traffic, with per-job completion time and rank
//!   stall accounting ([`task::JobsEngine`]),
//! * [`probe`] — the phase clock ([`Network::set_phase_clock`]): per-phase
//!   wall time and exact work counts of the per-cycle pipeline,
//! * [`metrics`], [`events`], [`node`] — supporting machinery.
//!
//! ```
//! use df_sim::{run_steady_state, SimulationConfig};
//! use df_model::NetworkConfig;
//! use df_routing::RoutingKind;
//! use df_topology::DragonflyParams;
//! use df_traffic::PatternKind;
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
//! let report = run_steady_state(&config);
//! assert!(report.delivered_packets > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod churn;
pub mod config;
pub mod events;
pub mod experiment;
pub mod fault;
pub mod metrics;
pub mod network;
pub mod node;
mod phase;
pub mod probe;
pub mod runner;
pub mod scenario;
pub mod sweep;
pub mod task;

pub use churn::{ChurnModel, ChurnRate};
pub use config::{ConfigError, KernelMode, SimulationConfig, SimulationConfigBuilder};
pub use experiment::{run_steady_state, run_transient, SteadyStateReport, TransientReport};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use metrics::{Metrics, WindowSummary};
pub use network::snapshot::{config_fingerprint, SNAPSHOT_VERSION};
pub use network::Network;
pub use runner::{run_sweep_service, RunnerOptions, SweepOutcome};
pub use scenario::Scenario;
pub use sweep::{
    cell_seed, matrix_table, num_threads, run_matrix, run_sweep, MatrixCell, MatrixKey,
    ScenarioMatrix,
};
pub use task::{run_job_set, Job, JobsEngine};
