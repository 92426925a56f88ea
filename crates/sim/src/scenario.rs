//! Declarative scenarios: composable traffic workloads over time.
//!
//! A [`Scenario`] bundles everything that describes *the workload* of a run —
//! which traffic pattern is active when, at what load, and under which
//! injection process — separately from the machine under test (topology,
//! router microarchitecture, routing mechanism) and from the measurement
//! protocol (warm-up, window). It generalises the hard-coded transient
//! schedules of the paper's Figures 7–9: any number of phases, each a
//! `pattern × load × duration` triple, can be chained.
//!
//! Phases are expressed by *duration* rather than absolute start cycle, so
//! scenarios compose: appending a phase never requires renumbering the
//! existing ones. The last phase may be open-ended (`duration = None`) and
//! runs until the simulation stops.
//!
//! A scenario never *ends* a run — how long to simulate is the experiment's
//! decision, not the workload's. When the last phase is timed, its pattern
//! and load simply persist beyond its nominal end (the lowered
//! [`TrafficSchedule`] is right-open); use
//! [`timed_cycles`](Scenario::timed_cycles) to size the warm-up/measurement
//! windows if the run should stop where the scenario does.
//!
//! ```
//! use df_sim::Scenario;
//! use df_traffic::{InjectionKind, PatternKind};
//!
//! // warm up uniform, hit the network with ADV+1, then relax back
//! let scenario = Scenario::named("un-adv-un")
//!     .injection(InjectionKind::Bursty { mean_on: 50.0, mean_off: 50.0 })
//!     .phase(PatternKind::Uniform, 2_000)
//!     .phase(PatternKind::Adversarial { offset: 1 }, 2_000)
//!     .hold(PatternKind::Uniform);
//! assert_eq!(scenario.switch_points(), vec![2_000, 4_000]);
//! ```

use df_model::Cycle;
use df_topology::{NodeId, Port, RouterId};
use df_traffic::{
    validate_job_disjointness, InjectionKind, JobSpec, PatternKind, PatternPhase, TrafficSchedule,
};
use serde::{Deserialize, Serialize};

use crate::churn::ChurnModel;
use crate::fault::FaultPlan;

/// One phase of a scenario: a pattern at an (optional) load override for a
/// (possibly open-ended) duration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioPhase {
    /// Traffic pattern of the phase.
    pub pattern: PatternKind,
    /// Offered-load override in phits/(node·cycle); `None` keeps the
    /// experiment's base load.
    pub load: Option<f64>,
    /// Length of the phase in cycles; `None` means "until the end of the
    /// run" and is only allowed for the final phase.
    pub duration: Option<Cycle>,
}

/// A named, composable traffic workload: an injection process plus an ordered
/// list of phases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Name used in result tables and golden tests.
    pub name: String,
    /// Injection process shared by every phase.
    pub injection: InjectionKind,
    /// The phases, in order. Never empty once built.
    phases: Vec<ScenarioPhase>,
    /// Timed link/router fault events (empty for healthy-network
    /// scenarios). Cycles are absolute, on the same clock as the phase
    /// durations.
    faults: FaultPlan,
    /// Optional stochastic failure churn, lowered into additional
    /// [`FaultPlan`] events (merged with `faults`) when the scenario is
    /// applied to a configuration. Seeded independently of the traffic
    /// seed, so the same churn model replays identically across loads,
    /// routings and kernels.
    churn: Option<ChurnModel>,
    /// Application traffic: concurrently scheduled collective applications
    /// with node-disjoint placements, layered *over* the stochastic phases.
    jobs: Vec<JobSpec>,
}

impl Scenario {
    /// Start an empty scenario; add phases with [`phase`](Self::phase) /
    /// [`phase_at_load`](Self::phase_at_load) and finish with
    /// [`hold`](Self::hold) (or leave the last timed phase as the end).
    pub fn named(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            injection: InjectionKind::Bernoulli,
            phases: Vec::new(),
            faults: FaultPlan::new(),
            churn: None,
            jobs: Vec::new(),
        }
    }

    /// A single-phase steady-state scenario, named after the pattern.
    pub fn steady(pattern: PatternKind) -> Self {
        Scenario::named(pattern.label()).hold(pattern)
    }

    /// The paper's transient scenario: `first` for `switch_after` cycles,
    /// then `second` forever (same load throughout).
    pub fn transient(first: PatternKind, second: PatternKind, switch_after: Cycle) -> Self {
        Scenario::named(format!("{}->{}", first.label(), second.label()))
            .phase(first, switch_after)
            .hold(second)
    }

    /// Set the injection process (Bernoulli by default).
    pub fn injection(mut self, injection: InjectionKind) -> Self {
        self.injection = injection;
        self
    }

    /// Append a timed phase at the experiment's base load.
    pub fn phase(self, pattern: PatternKind, duration: Cycle) -> Self {
        self.push(pattern, None, Some(duration))
    }

    /// Append a timed phase with a load override.
    pub fn phase_at_load(self, pattern: PatternKind, load: f64, duration: Cycle) -> Self {
        self.push(pattern, Some(load), Some(duration))
    }

    /// Append an open-ended final phase at the experiment's base load.
    pub fn hold(self, pattern: PatternKind) -> Self {
        self.push(pattern, None, None)
    }

    /// Append an open-ended final phase with a load override.
    pub fn hold_at_load(self, pattern: PatternKind, load: f64) -> Self {
        self.push(pattern, Some(load), None)
    }

    /// Attach a complete fault plan (replaces any previously attached
    /// events).
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Append a `LinkDown` fault at absolute cycle `at` on the link attached
    /// at `(router, port)`.
    pub fn link_down(mut self, at: Cycle, router: RouterId, port: Port) -> Self {
        self.faults = std::mem::take(&mut self.faults).link_down(at, router, port);
        self
    }

    /// Append a `LinkUp` fault at absolute cycle `at`.
    pub fn link_up(mut self, at: Cycle, router: RouterId, port: Port) -> Self {
        self.faults = std::mem::take(&mut self.faults).link_up(at, router, port);
        self
    }

    /// Append a `RouterDrain` fault at absolute cycle `at`.
    pub fn router_drain(mut self, at: Cycle, router: RouterId) -> Self {
        self.faults = std::mem::take(&mut self.faults).router_drain(at, router);
        self
    }

    /// Append a `RouterRestore` fault at absolute cycle `at`.
    pub fn router_restore(mut self, at: Cycle, router: RouterId) -> Self {
        self.faults = std::mem::take(&mut self.faults).router_restore(at, router);
        self
    }

    /// Append a `NodeFail` fault at absolute cycle `at`: `node` stops
    /// generating and new packets addressed to it retarget to `spare` at
    /// injection time.
    pub fn node_fail(mut self, at: Cycle, node: NodeId, spare: NodeId) -> Self {
        self.faults = std::mem::take(&mut self.faults).node_fail(at, node, spare);
        self
    }

    /// Append a `NodeRestore` fault at absolute cycle `at`.
    pub fn node_restore(mut self, at: Cycle, node: NodeId) -> Self {
        self.faults = std::mem::take(&mut self.faults).node_restore(at, node);
        self
    }

    /// Attach a stochastic churn model; its seeded MTBF/MTTR processes are
    /// lowered into concrete fault events (merged with any explicitly
    /// attached ones) when the scenario is applied to a configuration.
    pub fn churn(mut self, churn: ChurnModel) -> Self {
        self.churn = Some(churn);
        self
    }

    /// The attached churn model, if any.
    pub fn churn_model(&self) -> Option<&ChurnModel> {
        self.churn.as_ref()
    }

    /// Append one job to the scenario's job set (collective traffic over the
    /// stochastic phases).
    pub fn job(mut self, job: JobSpec) -> Self {
        self.jobs.push(job);
        self
    }

    /// The attached job set (empty for packet-level scenarios).
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// The attached fault plan (empty for healthy-network scenarios). Does
    /// *not* include churn-generated events — those are lowered at
    /// configuration-build time against a concrete topology.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    fn push(mut self, pattern: PatternKind, load: Option<f64>, duration: Option<Cycle>) -> Self {
        assert!(
            self.phases.last().is_none_or(|p| p.duration.is_some()),
            "no phase can follow an open-ended phase"
        );
        if let Some(d) = duration {
            assert!(d > 0, "a timed phase needs a positive duration");
        }
        self.phases.push(ScenarioPhase {
            pattern,
            load,
            duration,
        });
        self
    }

    /// The phases, in order.
    pub fn phases(&self) -> &[ScenarioPhase] {
        &self.phases
    }

    /// Absolute cycles at which the pattern changes (start of every phase
    /// after the first).
    pub fn switch_points(&self) -> Vec<Cycle> {
        let mut points = Vec::new();
        let mut at = 0;
        for phase in self.phases.iter() {
            let Some(d) = phase.duration else { break };
            at += d;
            points.push(at);
        }
        // an open-ended last phase starts at the last accumulated point; a
        // timed last phase simply ends the scenario there, which is not a
        // switch
        if self.phases.last().is_some_and(|p| p.duration.is_some()) {
            points.pop();
        }
        points
    }

    /// Total length of the timed phases; `None` if the scenario ends with an
    /// open-ended phase.
    ///
    /// This is advisory: simulating past it keeps the last phase's pattern
    /// and load active (see the module docs). Size the experiment's
    /// warm-up/measurement windows from this value when the run should end
    /// with the scenario.
    pub fn timed_cycles(&self) -> Option<Cycle> {
        self.phases
            .iter()
            .map(|p| p.duration)
            .sum::<Option<Cycle>>()
    }

    /// Lower the scenario to the piecewise-constant [`TrafficSchedule`] the
    /// simulator consumes (durations become absolute start cycles). The
    /// schedule is right-open: the final phase — timed or not — stays active
    /// for as long as the simulation runs.
    ///
    /// # Panics
    /// Panics if the scenario has no phases.
    pub fn schedule(&self) -> TrafficSchedule {
        assert!(
            !self.phases.is_empty(),
            "a scenario needs at least one phase"
        );
        let mut start = 0;
        let mut phases = Vec::with_capacity(self.phases.len());
        for phase in self.phases.iter() {
            phases.push(PatternPhase {
                start,
                pattern: phase.pattern,
                load: phase.load,
            });
            start += phase.duration.unwrap_or(0);
        }
        TrafficSchedule::from_phases(phases)
    }

    /// Validate every phase pattern against a topology, plus the injection
    /// process.
    pub fn validate(&self, topo: &impl df_topology::Topology) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err(format!("scenario '{}' has no phases", self.name));
        }
        self.injection.validate()?;
        self.faults
            .validate(topo)
            .map_err(|e| format!("scenario '{}': {e}", self.name))?;
        if let Some(churn) = &self.churn {
            churn
                .validate()
                .map_err(|e| format!("scenario '{}': {e}", self.name))?;
        }
        if !self.jobs.is_empty() {
            let groups = topo.num_groups();
            let nodes_per_group = topo.nodes_per_group();
            for (i, job) in self.jobs.iter().enumerate() {
                job.validate(groups, nodes_per_group)
                    .map_err(|e| format!("scenario '{}': job #{i}: {e}", self.name))?;
            }
            validate_job_disjointness(&self.jobs, groups, nodes_per_group)
                .map_err(|e| format!("scenario '{}': {e}", self.name))?;
        }
        for (i, phase) in self.phases.iter().enumerate() {
            phase
                .pattern
                .validate(topo)
                .map_err(|e| format!("scenario '{}' phase {i}: {e}", self.name))?;
            if let Some(load) = phase.load {
                if !(0.0..=1.0).contains(&load) {
                    return Err(format!(
                        "scenario '{}' phase {i}: load must be in [0,1], got {load}",
                        self.name
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_scenario_is_one_open_phase() {
        let s = Scenario::steady(PatternKind::Uniform);
        assert_eq!(s.name, "UN");
        assert_eq!(s.phases().len(), 1);
        assert!(s.switch_points().is_empty());
        assert!(s.timed_cycles().is_none());
        let schedule = s.schedule();
        assert_eq!(schedule.pattern_at(0), PatternKind::Uniform);
        assert!(schedule.change_points().is_empty());
    }

    #[test]
    fn transient_scenario_matches_switch_at() {
        let s = Scenario::transient(
            PatternKind::Uniform,
            PatternKind::Adversarial { offset: 1 },
            2_000,
        );
        assert_eq!(s.name, "UN->ADV+1");
        assert_eq!(s.switch_points(), vec![2_000]);
        let schedule = s.schedule();
        assert_eq!(
            schedule,
            TrafficSchedule::switch_at(
                PatternKind::Uniform,
                PatternKind::Adversarial { offset: 1 },
                2_000
            )
        );
    }

    #[test]
    fn durations_accumulate_into_start_cycles() {
        let s = Scenario::named("three")
            .phase(PatternKind::Uniform, 1_000)
            .phase_at_load(PatternKind::Adversarial { offset: 1 }, 0.4, 500)
            .hold(PatternKind::Uniform);
        assert_eq!(s.switch_points(), vec![1_000, 1_500]);
        assert_eq!(s.timed_cycles(), None);
        let schedule = s.schedule();
        assert_eq!(schedule.phases().len(), 3);
        assert_eq!(schedule.phases()[1].start, 1_000);
        assert_eq!(schedule.phases()[1].load, Some(0.4));
        assert_eq!(schedule.phases()[2].start, 1_500);
    }

    #[test]
    fn timed_final_phase_has_a_total_length() {
        let s = Scenario::named("finite")
            .phase(PatternKind::Uniform, 300)
            .phase(PatternKind::Adversarial { offset: 1 }, 200);
        assert_eq!(s.timed_cycles(), Some(500));
        // the end of the last phase is not a pattern switch
        assert_eq!(s.switch_points(), vec![300]);
        // the lowered schedule is right-open: simulating past timed_cycles
        // keeps the final pattern active (sizing the run is the
        // experiment's job, not the workload's)
        let schedule = s.schedule();
        assert_eq!(
            schedule.pattern_at(10_000),
            PatternKind::Adversarial { offset: 1 }
        );
    }

    #[test]
    #[should_panic(expected = "open-ended")]
    fn phases_after_an_open_phase_are_rejected() {
        let _ = Scenario::named("bad")
            .hold(PatternKind::Uniform)
            .phase(PatternKind::Adversarial { offset: 1 }, 100);
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_duration_phases_are_rejected() {
        let _ = Scenario::named("bad").phase(PatternKind::Uniform, 0);
    }

    #[test]
    fn fault_events_attach_and_validate() {
        let topo = df_topology::Dragonfly::new(df_topology::DragonflyParams::small());
        let (gw, port) =
            FaultPlan::global_link_between(&topo, df_topology::GroupId(0), df_topology::GroupId(3));
        let s = Scenario::named("UN-linkloss")
            .hold(PatternKind::Uniform)
            .link_down(150, gw, port)
            .link_up(450, gw, port)
            .router_drain(200, RouterId(2));
        assert_eq!(s.fault_plan().len(), 3);
        let cycles: Vec<_> = s.fault_plan().events().iter().map(|e| e.at).collect();
        assert_eq!(cycles, vec![150, 450, 200]);
        assert!(s.validate(&topo).is_ok());
        // healthy scenarios carry an empty plan
        assert!(Scenario::steady(PatternKind::Uniform)
            .fault_plan()
            .is_empty());
        // a terminal-link fault is rejected by validation
        let bad =
            Scenario::named("bad")
                .hold(PatternKind::Uniform)
                .link_down(10, RouterId(0), Port(0));
        assert!(bad.validate(&topo).is_err());
    }

    #[test]
    fn node_events_and_churn_attach_to_scenarios() {
        use crate::churn::ChurnRate;
        let topo = df_topology::Dragonfly::new(df_topology::DragonflyParams::small());
        let s = Scenario::named("UN-nodeloss")
            .hold(PatternKind::Uniform)
            .node_fail(100, df_topology::NodeId(5), df_topology::NodeId(6))
            .node_restore(400, df_topology::NodeId(5))
            .churn(ChurnModel::new(9, 0, 1_000).global_links(ChurnRate::new(5_000.0, 300.0)));
        assert_eq!(s.fault_plan().len(), 2);
        assert!(s.churn_model().is_some());
        assert!(s.validate(&topo).is_ok());
        // an invalid churn model fails scenario validation
        let bad = Scenario::named("bad-churn")
            .hold(PatternKind::Uniform)
            .churn(ChurnModel::new(9, 0, 0).routers(ChurnRate::new(1_000.0, 100.0)));
        assert!(bad.validate(&topo).is_err());
        // healthy scenarios carry no churn
        assert!(Scenario::steady(PatternKind::Uniform)
            .churn_model()
            .is_none());
    }

    #[test]
    fn validation_flags_bad_phase_parameters() {
        let topo = df_topology::Dragonfly::new(df_topology::DragonflyParams::small());
        assert!(Scenario::named("empty").validate(&topo).is_err());
        let bad_load = Scenario::named("overload").hold_at_load(PatternKind::Uniform, 1.5);
        assert!(bad_load.validate(&topo).is_err());
        let bad_pattern = Scenario::named("hot").hold(PatternKind::Hotspot {
            hotspots: 0,
            fraction: 0.5,
        });
        assert!(bad_pattern.validate(&topo).is_err());
        let good = Scenario::transient(PatternKind::Uniform, PatternKind::BitReversal, 100)
            .injection(InjectionKind::Bursty {
                mean_on: 20.0,
                mean_off: 20.0,
            });
        assert!(good.validate(&topo).is_ok());
    }
}
