//! Time-varying traffic: pattern schedules for transient experiments.
//!
//! Figures 7, 8 and 9 of the paper warm the network up with uniform traffic
//! and switch to ADV+1 at cycle 0, then observe how quickly each routing
//! mechanism adapts. A [`TrafficSchedule`] is an ordered list of phases, each
//! phase being a pattern (and optionally a different offered load) active
//! from its start cycle until the next phase begins.

use df_topology::AnyTopology;
use serde::{Deserialize, Serialize};

use crate::pattern::{PatternKind, TrafficPattern};
use df_model::Cycle;

/// One phase of a traffic schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PatternPhase {
    /// First cycle (inclusive) at which this phase is active.
    pub start: Cycle,
    /// Traffic pattern of the phase.
    pub pattern: PatternKind,
    /// Offered load override for the phase; `None` keeps the experiment's
    /// base load.
    pub load: Option<f64>,
}

/// A piecewise-constant traffic schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSchedule {
    phases: Vec<PatternPhase>,
}

impl TrafficSchedule {
    /// A schedule with a single, constant pattern.
    pub fn constant(pattern: PatternKind) -> Self {
        TrafficSchedule {
            phases: vec![PatternPhase {
                start: 0,
                pattern,
                load: None,
            }],
        }
    }

    /// The paper's transient scenario: `first` until `switch_at`, then
    /// `second` (same offered load throughout).
    pub fn switch_at(first: PatternKind, second: PatternKind, switch_at: Cycle) -> Self {
        TrafficSchedule {
            phases: vec![
                PatternPhase {
                    start: 0,
                    pattern: first,
                    load: None,
                },
                PatternPhase {
                    start: switch_at,
                    pattern: second,
                    load: None,
                },
            ],
        }
    }

    /// Build an arbitrary schedule from phases. Phases are sorted by start
    /// cycle; the first phase is clamped to start at cycle 0.
    pub fn from_phases(mut phases: Vec<PatternPhase>) -> Self {
        assert!(!phases.is_empty(), "a schedule needs at least one phase");
        phases.sort_by_key(|p| p.start);
        phases[0].start = 0;
        TrafficSchedule { phases }
    }

    /// The phases, ordered by start cycle.
    pub fn phases(&self) -> &[PatternPhase] {
        &self.phases
    }

    /// The phase active at `cycle`.
    pub fn phase_at(&self, cycle: Cycle) -> &PatternPhase {
        &self.phases[self.phase_index_at(cycle)]
    }

    /// The pattern kind active at `cycle`.
    pub fn pattern_at(&self, cycle: Cycle) -> PatternKind {
        self.phase_at(cycle).pattern
    }

    /// Cycles at which the pattern changes (start of every phase after the
    /// first).
    pub fn change_points(&self) -> Vec<Cycle> {
        self.phases.iter().skip(1).map(|p| p.start).collect()
    }

    /// Materialise every phase's pattern against a topology, so the simulator
    /// can switch without re-allocating. Returned in phase order.
    pub fn build_patterns(&self, topo: impl Into<AnyTopology>) -> Vec<TrafficPattern> {
        let topo = topo.into();
        self.phases.iter().map(|p| p.pattern.build(topo)).collect()
    }

    /// Index of the phase active at `cycle` (into [`phases`](Self::phases)
    /// and the vector returned by [`build_patterns`](Self::build_patterns)).
    pub fn phase_index_at(&self, cycle: Cycle) -> usize {
        match self.phases.binary_search_by_key(&cycle, |p| p.start) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_topology::{Dragonfly, DragonflyParams};

    #[test]
    fn constant_schedule_never_changes() {
        let s = TrafficSchedule::constant(PatternKind::Uniform);
        assert_eq!(s.pattern_at(0), PatternKind::Uniform);
        assert_eq!(s.pattern_at(1_000_000), PatternKind::Uniform);
        assert!(s.change_points().is_empty());
    }

    #[test]
    fn switch_at_changes_exactly_at_the_boundary() {
        let s = TrafficSchedule::switch_at(
            PatternKind::Uniform,
            PatternKind::Adversarial { offset: 1 },
            5_000,
        );
        assert_eq!(s.pattern_at(0), PatternKind::Uniform);
        assert_eq!(s.pattern_at(4_999), PatternKind::Uniform);
        assert_eq!(s.pattern_at(5_000), PatternKind::Adversarial { offset: 1 });
        assert_eq!(
            s.pattern_at(9_999_999),
            PatternKind::Adversarial { offset: 1 }
        );
        assert_eq!(s.change_points(), vec![5_000]);
    }

    #[test]
    fn phases_are_sorted_and_clamped() {
        let s = TrafficSchedule::from_phases(vec![
            PatternPhase {
                start: 500,
                pattern: PatternKind::Adversarial { offset: 2 },
                load: Some(0.1),
            },
            PatternPhase {
                start: 100,
                pattern: PatternKind::Uniform,
                load: None,
            },
        ]);
        assert_eq!(s.phases()[0].pattern, PatternKind::Uniform);
        assert_eq!(s.phases()[0].start, 0, "first phase clamps to cycle 0");
        assert_eq!(s.phase_at(499).pattern, PatternKind::Uniform);
        assert_eq!(s.phase_at(500).load, Some(0.1));
    }

    #[test]
    fn phase_index_matches_built_patterns() {
        let s = TrafficSchedule::switch_at(
            PatternKind::Uniform,
            PatternKind::Adversarial { offset: 1 },
            1_000,
        );
        let topo = Dragonfly::new(DragonflyParams::small());
        let patterns = s.build_patterns(topo);
        assert_eq!(patterns.len(), 2);
        assert_eq!(s.phase_index_at(0), 0);
        assert_eq!(s.phase_index_at(999), 0);
        assert_eq!(s.phase_index_at(1_000), 1);
        assert_eq!(patterns[1].kind(), PatternKind::Adversarial { offset: 1 });
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_schedule_rejected() {
        let _ = TrafficSchedule::from_phases(vec![]);
    }
}
