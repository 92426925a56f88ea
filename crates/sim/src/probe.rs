//! The phase clock: what the per-cycle pipeline spent and did.
//!
//! [`Network::set_phase_clock`] starts a [`PhaseTotals`] that sums every
//! later step's wall time per phase of [`Network::step`] and its exact work
//! counts ([`StepCounts`]); [`Network::phase_clock`] reads it. The network
//! reads the clock once per phase, never per router: the per-router counts
//! are accumulated as the walks run, clock or not, and added at the end of
//! the step. A caller that wants one step's numbers reads the totals around
//! its own `step()`.
//!
//! The clock is a pure observer: nothing in the simulation reads what it
//! records, so a clocked run takes the same trajectory as an unclocked one
//! and snapshots byte-identically (the clock is not simulation state and is
//! not in the payload). `cargo run --release --example phases` prints its
//! tables.
//!
//! [`Network::set_phase_clock`]: crate::Network::set_phase_clock
//! [`Network::phase_clock`]: crate::Network::phase_clock
//! [`Network::step`]: crate::Network::step

use std::time::Duration;

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

/// What the phase clock has summed (module docs).
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
    /// Add one step's work counts: the end of a clocked step.
    pub(crate) fn add_step(&mut self, step: &StepCounts) {
        self.steps += 1;
        let c = &mut self.counts;
        c.events += step.events;
        c.due_ticks += step.due_ticks;
        c.gap_draws += step.gap_draws;
        c.pb_exchanges += step.pb_exchanges;
        c.pb_refreshes += step.pb_refreshes;
        c.router_iterations += step.router_iterations;
        c.heads += step.heads;
        c.requests += step.requests;
        c.grants += step.grants;
        c.transmit_visits += step.transmit_visits;
        c.senders += step.senders;
        c.holding += step.holding;
    }

    /// Mean microseconds per step spent in `phase`.
    pub fn us_per_step(&self, phase: Phase) -> f64 {
        self.time[phase as usize].as_secs_f64() * 1e6 / self.steps.max(1) as f64
    }

    /// Mean per step of a count read by `field`.
    pub fn per_step(&self, field: impl Fn(&StepCounts) -> u64) -> f64 {
        field(&self.counts) as f64 / self.steps.max(1) as f64
    }
}
