//! Observers of the per-cycle pipeline.
//!
//! A [`Probe`] attached with [`Network::set_probe`] sees every phase of
//! [`Network::step`] as it ends, with its wall time, and every step's exact
//! work counts ([`StepCounts`]) as the step ends. The network checks for a
//! probe once per phase, never per router: the per-router counts are
//! accumulated as the walks run, probe or not, and handed over at the end
//! of the step.
//!
//! A probe is a pure observer: nothing in the simulation reads what it
//! records, so a probed run takes the same trajectory as an unprobed one and
//! snapshots byte-identically (the probe is not simulation state and is not
//! in the payload). [`PhaseClock`] is the probe that sums both over a run;
//! `cargo run --release --example phases` prints its tables.
//!
//! [`Network::set_probe`]: crate::Network::set_probe
//! [`Network::step`]: crate::Network::step

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use df_model::Cycle;

/// A phase of [`Network::step`](crate::Network::step), in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Steps 0–1: traffic-phase change, fault events and event delivery.
    Deliver,
    /// Step 2a: the job engine's advance and the injectors' generation.
    Generate,
    /// Step 2b: injection from the source queues.
    Inject,
    /// Step 3: control-plane dissemination.
    Control,
    /// Step 4: routing and allocation.
    Route,
    /// Step 5: link transmission.
    Transmit,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 6] = [
        Phase::Deliver,
        Phase::Generate,
        Phase::Inject,
        Phase::Control,
        Phase::Route,
        Phase::Transmit,
    ];

    /// The phase's row label in the phase tables.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Deliver => "0–1 faults + event delivery",
            Phase::Generate => "2a generation",
            Phase::Inject => "2b injection",
            Phase::Control => "3 control plane",
            Phase::Route => "4 route + allocate",
            Phase::Transmit => "5 transmit",
        }
    }
}

/// Exact work counts of one step (or, summed, of many).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCounts {
    /// Link events delivered (step 1): arrivals, credit returns, deliveries.
    pub events: u64,
    /// Injector ticks (step 2a): the nodes the generation walk visited.
    pub due_ticks: u64,
    /// Runs of failing trials the due ticks drew (step 2a): one draw per
    /// Bernoulli gap.
    pub gap_draws: u64,
    /// PB group exchanges (step 3).
    pub pb_exchanges: u64,
    /// PB own-flag refreshes (step 3): the routers the refresh visited.
    pub pb_refreshes: u64,
    /// Routing + allocation iterations (step 4): one per router per
    /// allocator iteration it was visited in.
    pub router_iterations: u64,
    /// Heads decided (step 4).
    pub heads: u64,
    /// Allocation requests filed (step 4).
    pub requests: u64,
    /// Grants applied (step 4).
    pub grants: u64,
    /// Routers the transmission walk visited (step 5).
    pub transmit_visits: u64,
    /// Routers that put at least one packet on a link (step 5).
    pub senders: u64,
    /// Routers holding traffic at the end of the step
    /// ([`Network::active_routers`](crate::Network::active_routers)).
    pub holding: u64,
}

impl StepCounts {
    /// Add `other` to these counts, field by field.
    pub(crate) fn add(&mut self, other: &StepCounts) {
        self.events += other.events;
        self.due_ticks += other.due_ticks;
        self.gap_draws += other.gap_draws;
        self.pb_exchanges += other.pb_exchanges;
        self.pb_refreshes += other.pb_refreshes;
        self.router_iterations += other.router_iterations;
        self.heads += other.heads;
        self.requests += other.requests;
        self.grants += other.grants;
        self.transmit_visits += other.transmit_visits;
        self.senders += other.senders;
        self.holding += other.holding;
    }
}

/// An observer of [`Network::step`](crate::Network::step) (module docs).
pub trait Probe: Send {
    /// `phase` of the current step ended after `elapsed` of wall time.
    fn phase(&mut self, phase: Phase, elapsed: Duration);
    /// The step of `cycle` ended, having done `counts`.
    fn step(&mut self, cycle: Cycle, counts: &StepCounts);
}

/// What a [`PhaseClock`] has summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Steps observed.
    pub steps: u64,
    /// Wall time per phase, indexed like [`Phase::ALL`].
    pub time: [Duration; 6],
    /// Work counts summed over the steps.
    pub counts: StepCounts,
}

impl PhaseTotals {
    /// Mean microseconds per step spent in `phase`.
    pub fn us_per_step(&self, phase: Phase) -> f64 {
        let i = Phase::ALL
            .iter()
            .position(|&p| p == phase)
            .expect("a phase");
        self.time[i].as_secs_f64() * 1e6 / self.steps.max(1) as f64
    }

    /// Mean per step of a count read by `field`.
    pub fn per_step(&self, field: impl Fn(&StepCounts) -> u64) -> f64 {
        field(&self.counts) as f64 / self.steps.max(1) as f64
    }
}

/// A probe that sums phase times and work counts over every step it sees.
/// Clones share the totals, so a caller keeps one clone and hands the
/// network another.
#[derive(Debug, Clone, Default)]
pub struct PhaseClock {
    totals: Arc<Mutex<PhaseTotals>>,
}

impl PhaseClock {
    /// The totals so far.
    pub fn totals(&self) -> PhaseTotals {
        *self.totals.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Probe for PhaseClock {
    fn phase(&mut self, phase: Phase, elapsed: Duration) {
        let i = Phase::ALL
            .iter()
            .position(|&p| p == phase)
            .expect("a phase");
        self.totals
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .time[i] += elapsed;
    }

    fn step(&mut self, _cycle: Cycle, counts: &StepCounts) {
        let mut totals = self.totals.lock().unwrap_or_else(PoisonError::into_inner);
        totals.steps += 1;
        totals.counts.add(counts);
    }
}
