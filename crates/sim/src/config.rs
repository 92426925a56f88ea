//! Simulation configuration: everything a single run needs.

use df_model::NetworkConfig;
use df_routing::{RoutingConfig, RoutingKind};
use df_topology::{DragonflyParams, PortLayout, Topology, TopologyParams};
use df_traffic::{validate_job_disjointness, InjectionKind, JobSpec, PatternKind, TrafficSchedule};

use crate::churn::ChurnModel;
use crate::fault::FaultPlan;
use crate::scenario::Scenario;

/// The kernel a configuration names. There is one kernel: both values run
/// the same per-cycle pipeline to the same bytes, and
/// [`config_fingerprint`](crate::config_fingerprint) normalises the field
/// away, so a snapshot restores under either. The enum, the builder's
/// [`kernel`](SimulationConfigBuilder::kernel) and the field remain only
/// for callers that name a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// The kernel. The default.
    #[default]
    Optimized,
    /// Runs exactly as [`KernelMode::Optimized`].
    Parallel {
        /// Ignored: a run is one thread.
        workers: usize,
    },
}

/// Error produced by [`SimulationConfig::validate`] /
/// [`SimulationConfigBuilder::build`], naming the offending field.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The `network` field (router/link microarchitecture) is invalid.
    Network(String),
    /// The `injection` field (injection process) is invalid.
    Injection(String),
    /// The `offered_load` field is outside `[0, 1]`.
    OfferedLoad(f64),
    /// The `measurement_cycles` field is zero.
    MeasurementWindow,
    /// The `topology` field is invalid for simulation.
    Topology(String),
    /// The `faults` field does not validate against the topology.
    Faults(String),
    /// The attached churn model is invalid.
    Churn(String),
    /// A job of the `jobs` field does not fit the topology, or two jobs
    /// overlap.
    Workload(String),
    /// One phase of the `schedule` field is invalid.
    SchedulePhase {
        /// Index of the offending phase.
        phase: usize,
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Network(e) => write!(f, "network: {e}"),
            ConfigError::Injection(e) => write!(f, "injection: {e}"),
            ConfigError::OfferedLoad(load) => write!(
                f,
                "offered_load: must be in [0,1] phits/(node*cycle), got {load}"
            ),
            ConfigError::MeasurementWindow => write!(
                f,
                "measurement_cycles: measurement window must be at least one cycle"
            ),
            ConfigError::Topology(e) => write!(f, "topology: {e}"),
            ConfigError::Faults(e) => write!(f, "faults: {e}"),
            ConfigError::Churn(e) => write!(f, "churn: {e}"),
            ConfigError::Workload(e) => write!(f, "jobs: {e}"),
            ConfigError::SchedulePhase { phase, reason } => {
                write!(f, "schedule phase {phase}: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for String {
    fn from(e: ConfigError) -> String {
        e.to_string()
    }
}

/// Complete configuration of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// Topology kind and sizing parameters (canonical Dragonfly or
    /// Megafly/Dragonfly+).
    pub topology: TopologyParams,
    /// Router/link microarchitecture (Table I).
    pub network: NetworkConfig,
    /// Routing mechanism.
    pub routing: RoutingKind,
    /// Routing thresholds.
    pub routing_config: RoutingConfig,
    /// Traffic pattern schedule (constant for steady-state experiments,
    /// pattern switch for transients).
    pub schedule: TrafficSchedule,
    /// Injection process every node runs (Bernoulli, bursty or ramp).
    pub injection: InjectionKind,
    /// Timed link/router fault events (empty for healthy-network runs).
    pub faults: FaultPlan,
    /// Application traffic: collective applications with node-disjoint
    /// placements sharing the network, their ranks executing
    /// dependency-gated collective sequences (see `df_sim::task`). Jobs
    /// layer *over* the stochastic injectors — collectives run under
    /// background load; a closed run (one collective alone on the network)
    /// is a one-job set at `offered_load` 0. Empty means the task layer is
    /// completely inert and the run is a plain packet-level experiment.
    pub jobs: Vec<JobSpec>,
    /// Offered load in phits/(node·cycle).
    pub offered_load: f64,
    /// Seed for all stochastic components.
    pub seed: u64,
    /// Warm-up cycles before measurement starts.
    pub warmup_cycles: u64,
    /// Measurement window length in cycles.
    pub measurement_cycles: u64,
    /// Kernel mode (both values run the one kernel).
    pub kernel: KernelMode,
}

impl SimulationConfig {
    /// Start building a configuration.
    pub fn builder() -> SimulationConfigBuilder {
        SimulationConfigBuilder::default()
    }

    /// Total simulated cycles (warm-up plus measurement).
    pub fn total_cycles(&self) -> u64 {
        self.warmup_cycles + self.measurement_cycles
    }

    /// Validate the combination of parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.network.validate().map_err(ConfigError::Network)?;
        let vcs = &self.network.vcs;
        let most_vcs = vcs.injection.max(vcs.local).max(vcs.global);
        if u32::from(most_vcs) > df_router::MAX_VCS_PER_PORT {
            return Err(ConfigError::Network(format!(
                "{most_vcs} VCs per port exceed the supported maximum of {}",
                df_router::MAX_VCS_PER_PORT
            )));
        }
        self.injection.validate().map_err(ConfigError::Injection)?;
        if !(0.0..=1.0).contains(&self.offered_load) {
            return Err(ConfigError::OfferedLoad(self.offered_load));
        }
        if self.measurement_cycles == 0 {
            return Err(ConfigError::MeasurementWindow);
        }
        let topo = self.topology;
        if topo.num_groups() < 2 {
            return Err(ConfigError::Topology(
                "the network needs at least two groups".into(),
            ));
        }
        let radix = topo.layout().radix();
        if radix > df_router::MAX_RADIX {
            return Err(ConfigError::Topology(format!(
                "router radix {radix} exceeds the supported maximum of {} ports",
                df_router::MAX_RADIX
            )));
        }
        self.faults.validate(&topo).map_err(ConfigError::Faults)?;
        if !self.jobs.is_empty() {
            let groups = topo.num_groups();
            let nodes_per_group = topo.nodes_per_group();
            for (i, job) in self.jobs.iter().enumerate() {
                job.validate(groups, nodes_per_group)
                    .map_err(|e| ConfigError::Workload(format!("job #{i}: {e}")))?;
            }
            validate_job_disjointness(&self.jobs, groups, nodes_per_group)
                .map_err(ConfigError::Workload)?;
        }
        for (i, phase) in self.schedule.phases().iter().enumerate() {
            phase
                .pattern
                .validate(&topo)
                .map_err(|e| ConfigError::SchedulePhase {
                    phase: i,
                    reason: e,
                })?;
            if let Some(load) = phase.load {
                if !(0.0..=1.0).contains(&load) {
                    return Err(ConfigError::SchedulePhase {
                        phase: i,
                        reason: format!("load must be in [0,1], got {load}"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Replace the workload half of this configuration with `scenario`'s:
    /// its phases become the traffic schedule, and its injection process,
    /// explicitly attached fault events and job set replace the current
    /// ones. The scenario's churn model is *not* lowered here — follow with
    /// [`lower_churn`](Self::lower_churn) once the topology is final. The
    /// one scenario → configuration mapping: the builder and
    /// [`ScenarioMatrix::cells`](crate::sweep::ScenarioMatrix::cells) both
    /// go through it.
    pub(crate) fn set_scenario(&mut self, scenario: &Scenario) {
        self.schedule = scenario.schedule();
        self.injection = scenario.injection;
        self.faults = scenario.fault_plan().clone();
        self.jobs = scenario.jobs().to_vec();
    }

    /// Lower `churn` against this configuration's topology into concrete
    /// fault events and merge them into the fault plan. The lowering depends
    /// on nothing but the model (its own seed included) and the topology —
    /// never on the run's traffic seed, routing or kernel.
    pub(crate) fn lower_churn(&mut self, churn: &ChurnModel) -> Result<(), ConfigError> {
        churn.validate().map_err(ConfigError::Churn)?;
        let generated = churn.generate(&self.topology);
        self.faults = std::mem::take(&mut self.faults).merged(generated);
        Ok(())
    }
}

/// Builder for [`SimulationConfig`].
///
/// Defaults: the small (9-group, 72-node) topology with Table I router
/// parameters, Base routing with thresholds calibrated for that topology,
/// uniform traffic at 10 % load, seed 0, and a short warm-up/measurement
/// suitable for tests. The figure-regeneration harness overrides these with
/// larger values.
#[derive(Debug, Clone)]
pub struct SimulationConfigBuilder {
    /// The configuration being assembled. Its `routing_config` is a
    /// placeholder until [`build`](Self::build) resolves it.
    config: SimulationConfig,
    /// Explicit routing thresholds (`None` = calibrate for the topology).
    routing_config: Option<RoutingConfig>,
    /// Churn model to lower into `config.faults` at build time.
    churn: Option<ChurnModel>,
}

impl Default for SimulationConfigBuilder {
    fn default() -> Self {
        SimulationConfigBuilder {
            config: SimulationConfig {
                topology: DragonflyParams::small().into(),
                network: NetworkConfig::paper_table1(),
                routing: RoutingKind::Base,
                routing_config: RoutingConfig::paper_table1(),
                schedule: TrafficSchedule::constant(PatternKind::Uniform),
                injection: InjectionKind::Bernoulli,
                faults: FaultPlan::new(),
                jobs: Vec::new(),
                offered_load: 0.1,
                seed: 0,
                warmup_cycles: 1_000,
                measurement_cycles: 2_000,
                kernel: KernelMode::Optimized,
            },
            routing_config: None,
            churn: None,
        }
    }
}

impl SimulationConfigBuilder {
    /// Set the topology kind and sizing parameters. Accepts
    /// [`DragonflyParams`], [`df_topology::MegaflyParams`] or a
    /// [`TopologyParams`] directly.
    pub fn topology(mut self, topology: impl Into<TopologyParams>) -> Self {
        self.config.topology = topology.into();
        self
    }

    /// Set the router/link configuration.
    pub fn network(mut self, network: NetworkConfig) -> Self {
        self.config.network = network;
        self
    }

    /// Set the routing mechanism.
    pub fn routing(mut self, routing: RoutingKind) -> Self {
        self.config.routing = routing;
        self
    }

    /// Override the routing thresholds (otherwise calibrated automatically
    /// for the chosen topology per the paper's §VI-A rule).
    pub fn routing_config(mut self, config: RoutingConfig) -> Self {
        self.routing_config = Some(config);
        self
    }

    /// Use a constant traffic pattern.
    pub fn pattern(mut self, pattern: PatternKind) -> Self {
        self.config.schedule = TrafficSchedule::constant(pattern);
        self
    }

    /// Use an arbitrary traffic schedule (transient experiments).
    pub fn schedule(mut self, schedule: TrafficSchedule) -> Self {
        self.config.schedule = schedule;
        self
    }

    /// Set the injection process (Bernoulli by default).
    pub fn injection(mut self, injection: InjectionKind) -> Self {
        self.config.injection = injection;
        self
    }

    /// Apply a declarative [`Scenario`]: its phases become the traffic
    /// schedule, and its injection process, fault plan, churn model and job
    /// set replace the current ones.
    pub fn scenario(mut self, scenario: &Scenario) -> Self {
        self.config.set_scenario(scenario);
        self.churn = scenario.churn_model().cloned();
        self
    }

    /// Set the fault plan (empty, i.e. a healthy network, by default).
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.config.faults = faults;
        self
    }

    /// Attach a stochastic churn model. At [`build`](Self::build) time it is
    /// lowered against the configured topology into concrete fault events
    /// and merged into the fault plan, so the resulting
    /// [`SimulationConfig`] carries only plain, validated faults — the
    /// lowering depends on nothing but the model (its own seed included),
    /// never on the run's traffic seed, routing or kernel.
    pub fn churn(mut self, churn: ChurnModel) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Set the whole job set at once (node-disjointness and placement
    /// bounds are validated at [`build`](Self::build) time).
    pub fn jobs(mut self, jobs: Vec<JobSpec>) -> Self {
        self.config.jobs = jobs;
        self
    }

    /// Append one job to the job set (builder style).
    pub fn job(mut self, job: JobSpec) -> Self {
        self.config.jobs.push(job);
        self
    }

    /// Set the offered load in phits/(node·cycle).
    pub fn offered_load(mut self, load: f64) -> Self {
        self.config.offered_load = load;
        self
    }

    /// Set the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Set the warm-up length in cycles.
    pub fn warmup_cycles(mut self, cycles: u64) -> Self {
        self.config.warmup_cycles = cycles;
        self
    }

    /// Set the measurement window length in cycles.
    pub fn measurement_cycles(mut self, cycles: u64) -> Self {
        self.config.measurement_cycles = cycles;
        self
    }

    /// Select the kernel mode (both values run the one kernel).
    pub fn kernel(mut self, kernel: KernelMode) -> Self {
        self.config.kernel = kernel;
        self
    }

    /// Finalise and validate the configuration. An attached churn model is
    /// lowered here: its generated fault events are merged into the fault
    /// plan and the combined plan is validated like any hand-written one.
    pub fn build(self) -> Result<SimulationConfig, ConfigError> {
        let mut config = self.config;
        config.routing_config = self.routing_config.unwrap_or_else(|| {
            RoutingConfig::calibrated_for(&config.topology.layout(), &config.network.vcs)
        });
        if let Some(churn) = &self.churn {
            config.lower_churn(churn)?;
        }
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_valid() {
        let c = SimulationConfig::builder().build().unwrap();
        assert_eq!(c.routing, RoutingKind::Base);
        assert_eq!(c.topology, DragonflyParams::small().into());
        assert!(c.validate().is_ok());
        assert_eq!(c.total_cycles(), 3_000);
        // thresholds were auto-calibrated for the small topology
        assert!(c.routing_config.contention_threshold < 6);
    }

    #[test]
    fn builder_overrides_apply() {
        let c = SimulationConfig::builder()
            .topology(DragonflyParams::medium())
            .routing(RoutingKind::Ectn)
            .pattern(PatternKind::Adversarial { offset: 1 })
            .offered_load(0.35)
            .seed(7)
            .warmup_cycles(100)
            .measurement_cycles(200)
            .build()
            .unwrap();
        assert_eq!(c.routing, RoutingKind::Ectn);
        assert_eq!(c.offered_load, 0.35);
        assert_eq!(c.seed, 7);
        assert_eq!(c.total_cycles(), 300);
    }

    #[test]
    fn explicit_routing_config_is_not_recalibrated() {
        let rc = RoutingConfig::paper_table1().with_contention_threshold(4);
        let c = SimulationConfig::builder()
            .routing_config(rc)
            .build()
            .unwrap();
        assert_eq!(c.routing_config.contention_threshold, 4);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SimulationConfig::builder()
            .offered_load(1.5)
            .build()
            .is_err());
        assert!(SimulationConfig::builder()
            .measurement_cycles(0)
            .build()
            .is_err());
        // 97-port routers: one bit per port of the router's staged-port set
        // is all the kernel supports (a typed error, not `Router::new`'s
        // panic)
        let wide = DragonflyParams::new(32, 34, 32, 2).unwrap();
        assert!(matches!(
            SimulationConfig::builder().topology(wide).build(),
            Err(ConfigError::Topology(e)) if e.contains("radix 97")
        ));
        // likewise one bit per VC of a port's occupied-VC mask
        let mut network = NetworkConfig::paper_table1();
        network.vcs.local = 65;
        assert!(matches!(
            SimulationConfig::builder().network(network).build(),
            Err(ConfigError::Network(e)) if e.contains("65 VCs per port")
        ));
        network.vcs.local = 64;
        assert!(SimulationConfig::builder().network(network).build().is_ok());
    }

    #[test]
    fn scenario_sets_schedule_and_injection() {
        let scenario = Scenario::transient(
            PatternKind::Uniform,
            PatternKind::Adversarial { offset: 1 },
            500,
        )
        .injection(InjectionKind::Bursty {
            mean_on: 20.0,
            mean_off: 20.0,
        });
        let c = SimulationConfig::builder()
            .scenario(&scenario)
            .build()
            .unwrap();
        assert_eq!(c.schedule.change_points(), vec![500]);
        assert_eq!(
            c.injection,
            InjectionKind::Bursty {
                mean_on: 20.0,
                mean_off: 20.0
            }
        );
        // the default remains Bernoulli
        let d = SimulationConfig::builder().build().unwrap();
        assert_eq!(d.injection, InjectionKind::Bernoulli);
    }

    #[test]
    fn scenario_carries_its_fault_plan_into_the_config() {
        use df_topology::{Dragonfly, GroupId, RouterId};
        let topo = Dragonfly::new(DragonflyParams::small());
        let (gw, port) = FaultPlan::global_link_between(&topo, GroupId(0), GroupId(2));
        let scenario = Scenario::steady(PatternKind::Uniform)
            .link_down(100, gw, port)
            .link_up(300, gw, port);
        let c = SimulationConfig::builder()
            .scenario(&scenario)
            .build()
            .unwrap();
        assert_eq!(c.faults.len(), 2);
        let cycles: Vec<_> = c.faults.events().iter().map(|e| e.at).collect();
        assert_eq!(cycles, vec![100, 300]);
        // the default stays empty, and invalid plans are rejected
        assert!(SimulationConfig::builder()
            .build()
            .unwrap()
            .faults
            .is_empty());
        assert!(SimulationConfig::builder()
            .faults(FaultPlan::new().router_drain(5, RouterId(10_000)))
            .build()
            .is_err());
    }

    #[test]
    fn churn_lowers_into_the_fault_plan_at_build_time() {
        use crate::churn::ChurnRate;
        let churn = ChurnModel::new(7, 100, 2_000)
            .global_links(ChurnRate::new(3_000.0, 400.0))
            .nodes(ChurnRate::new(5_000.0, 600.0));
        let build = || {
            SimulationConfig::builder()
                .churn(churn.clone())
                .build()
                .unwrap()
        };
        let a = build();
        assert!(
            !a.faults.is_empty(),
            "a busy churn model must generate events"
        );
        // lowering is deterministic: the same model yields the same plan
        assert_eq!(a.faults, build().faults);
        // explicit events and churn-generated events merge (the drain
        // touches a router, which this model does not churn, so the
        // combined plan stays conflict-free)
        let merged = SimulationConfig::builder()
            .faults(FaultPlan::new().router_drain(50, df_topology::RouterId(3)))
            .churn(churn.clone())
            .build()
            .unwrap();
        assert_eq!(merged.faults.len(), a.faults.len() + 1);
        // scenarios carry their churn model into the builder
        let scenario = Scenario::steady(PatternKind::Uniform).churn(churn.clone());
        let via_scenario = SimulationConfig::builder()
            .scenario(&scenario)
            .build()
            .unwrap();
        assert_eq!(via_scenario.faults, a.faults);
        // invalid churn parameters are rejected at build time
        assert!(SimulationConfig::builder()
            .churn(ChurnModel::new(7, 0, 0).nodes(ChurnRate::new(1_000.0, 100.0)))
            .build()
            .is_err());
    }

    #[test]
    fn invalid_injection_and_phase_parameters_are_rejected() {
        assert!(SimulationConfig::builder()
            .injection(InjectionKind::Bursty {
                mean_on: 0.1,
                mean_off: 10.0
            })
            .build()
            .is_err());
        // pattern parameters are validated against the topology
        assert!(SimulationConfig::builder()
            .pattern(PatternKind::Hotspot {
                hotspots: 0,
                fraction: 0.5
            })
            .build()
            .is_err());
        // per-phase load overrides are range-checked
        let overload = TrafficSchedule::from_phases(vec![
            df_traffic::PatternPhase {
                start: 0,
                pattern: PatternKind::Uniform,
                load: None,
            },
            df_traffic::PatternPhase {
                start: 100,
                pattern: PatternKind::Uniform,
                load: Some(2.0),
            },
        ]);
        assert!(SimulationConfig::builder()
            .schedule(overload)
            .build()
            .is_err());
    }
}
