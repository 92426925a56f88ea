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
//! Phases are appended by *duration* rather than absolute start cycle, so
//! scenarios compose: appending a phase never requires renumbering the
//! existing ones. A scenario is a builder for the [`TrafficSchedule`] the
//! configuration already carries: each phase is stored as the schedule's own
//! [`PatternPhase`] at its accumulated start cycle, and
//! [`schedule`](Scenario::schedule) hands them over unchanged. Every
//! workload rule (phase patterns and loads, injection, faults, jobs) is
//! checked once, by [`SimulationConfig::validate`](crate::SimulationConfig::validate)
//! on the configuration the scenario is applied to.
//!
//! A scenario never *ends* a run — how long to simulate is the experiment's
//! decision, not the workload's. The schedule is right-open: the last
//! phase's pattern and load persist for as long as the simulation runs,
//! whether it was appended with [`hold`](Scenario::hold) or as a timed
//! phase.
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
use df_traffic::{InjectionKind, JobSpec, PatternKind, PatternPhase, TrafficSchedule};

use crate::churn::ChurnModel;
use crate::fault::FaultPlan;

/// A named, composable traffic workload: an injection process plus an ordered
/// list of phases.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Name used in result tables and golden tests.
    pub name: String,
    /// Injection process shared by every phase.
    pub injection: InjectionKind,
    /// The phases, in order, each at its absolute start cycle.
    phases: Vec<PatternPhase>,
    /// Start cycle of the next phase to append; `None` after an open-ended
    /// phase, which nothing may follow.
    next_start: Option<Cycle>,
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
            next_start: Some(0),
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
        let start = self
            .next_start
            .expect("no phase can follow an open-ended phase");
        if let Some(d) = duration {
            assert!(d > 0, "a timed phase needs a positive duration");
        }
        self.phases.push(PatternPhase {
            start,
            pattern,
            load,
        });
        self.next_start = duration.map(|d| start + d);
        self
    }

    /// Whether any phase was appended: a scenario without one has no
    /// schedule.
    pub(crate) fn has_phases(&self) -> bool {
        !self.phases.is_empty()
    }

    /// Absolute cycles at which the pattern changes (start of every phase
    /// after the first). The end of a timed last phase is not a switch: its
    /// pattern and load persist.
    pub fn switch_points(&self) -> Vec<Cycle> {
        self.phases.iter().skip(1).map(|p| p.start).collect()
    }

    /// The piecewise-constant [`TrafficSchedule`] the simulator consumes.
    /// The schedule is right-open: the final phase — timed or not — stays
    /// active for as long as the simulation runs.
    ///
    /// # Panics
    /// Panics if the scenario has no phases.
    pub fn schedule(&self) -> TrafficSchedule {
        TrafficSchedule::from_phases(self.phases.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_scenario_is_one_open_phase() {
        let s = Scenario::steady(PatternKind::Uniform);
        assert_eq!(s.name, "UN");
        assert!(s.switch_points().is_empty());
        assert_eq!(
            s.schedule(),
            TrafficSchedule::constant(PatternKind::Uniform)
        );
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
        let schedule = s.schedule();
        assert_eq!(schedule.phases().len(), 3);
        assert_eq!(schedule.phases()[1].start, 1_000);
        assert_eq!(schedule.phases()[1].load, Some(0.4));
        assert_eq!(schedule.phases()[2].start, 1_500);
    }

    #[test]
    fn a_timed_final_phase_persists() {
        let s = Scenario::named("finite")
            .phase(PatternKind::Uniform, 300)
            .phase(PatternKind::Adversarial { offset: 1 }, 200);
        // the end of the last phase is not a pattern switch
        assert_eq!(s.switch_points(), vec![300]);
        // the lowered schedule is right-open: simulating past the timed
        // phases keeps the final pattern active (sizing the run is the
        // experiment's job, not the workload's)
        let schedule = s.schedule();
        assert_eq!(
            schedule.phases()[schedule.phase_index_at(10_000)].pattern,
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
    fn fault_events_and_churn_attach_to_scenarios() {
        use crate::churn::ChurnRate;
        let topo = df_topology::Dragonfly::new(df_topology::DragonflyParams::small());
        let (gw, port) =
            FaultPlan::global_link_between(&topo, df_topology::GroupId(0), df_topology::GroupId(3));
        let s = Scenario::named("UN-linkloss")
            .hold(PatternKind::Uniform)
            .link_down(150, gw, port)
            .link_up(450, gw, port)
            .router_drain(200, RouterId(2))
            .node_fail(100, NodeId(5), NodeId(6))
            .node_restore(400, NodeId(5))
            .churn(ChurnModel::new(9, 0, 1_000).global_links(ChurnRate::new(5_000.0, 300.0)));
        let cycles: Vec<_> = s.fault_plan().events().iter().map(|e| e.at).collect();
        assert_eq!(cycles, vec![150, 450, 200, 100, 400]);
        assert!(s.churn_model().is_some());
        // healthy scenarios carry an empty plan and no churn
        let healthy = Scenario::steady(PatternKind::Uniform);
        assert!(healthy.fault_plan().is_empty());
        assert!(healthy.churn_model().is_none());
    }
}
