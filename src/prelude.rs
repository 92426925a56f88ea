//! One-stop imports for applications, examples and integration tests.
//!
//! ```
//! use contention_dragonfly::prelude::*;
//! let topo = Dragonfly::new(DragonflyParams::small());
//! assert_eq!(topo.num_groups(), 9);
//! ```

pub use df_engine::{DeterministicRng, Histogram, RunningStats, Table};
pub use df_model::{
    BufferConfig, Cycle, LatencyConfig, NetworkConfig, Packet, PacketId, RoutingState, VcConfig,
    VcId,
};
pub use df_router::{ContentionCounters, EctnState, PbState, Router};
pub use df_routing::{
    Commitment, Decision, DecisionKind, RoutingAlgorithm, RoutingConfig, RoutingKind,
};
pub use df_sim::{
    cell_seed, config_fingerprint, matrix_table, run_job_set, run_matrix, run_steady_state,
    run_sweep, run_sweep_service, run_transient, ChurnModel, ChurnRate, ConfigError, FaultEvent,
    FaultKind, FaultPlan, Job, JobsEngine, KernelMode, MatrixCell, MatrixKey, Network,
    RunnerOptions, Scenario, ScenarioMatrix, SimulationConfig, SteadyStateReport, SweepOutcome,
    TransientReport,
};
pub use df_topology::{
    Dragonfly, DragonflyParams, GatewayLiveness, GroupId, Megafly, MegaflyParams, NodeId, Port,
    PortClass, PortLayout, PortPeer, RadixLayout, RouterId, Topology, TopologyKind, TopologyParams,
};
pub use df_traffic::{
    validate_job_disjointness, AllReduceAlgorithm, CollectiveKind, InjectionKind, Injector,
    JobPlacement, JobSpec, PatternKind, RankPlacement, TaskWorkload, TrafficPattern,
    TrafficSchedule,
};
