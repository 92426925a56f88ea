//! Simulation clock.

/// A simulation cycle count.
///
/// The simulator is cycle-driven at router frequency (1 GHz in the paper's
/// parametrisation, which makes one cycle equal one nanosecond). A plain
/// `u64` alias keeps arithmetic ergonomic in the hot loop; experiments that
/// need signed arithmetic relative to an event (e.g. "cycles since the
/// traffic change" in the transient figures) convert to `i64` locally.
pub type Cycle = u64;
