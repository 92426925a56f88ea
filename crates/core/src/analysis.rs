//! The threshold analysis of the paper's §VI-A, as code.
//!
//! The paper reasons about the valid range of the misrouting threshold `th`:
//!
//! * **Lower bound** — under saturated uniform traffic every input VC tends
//!   to hold a packet, so the *average* contention counter value approaches
//!   the mean number of VCs per input port (2.74 for the Table I router).
//!   Doubling that value makes spurious misrouting rare, hence `th ≥ 6` for
//!   the paper's router.
//! * **Upper bound** — under adversarial traffic the misrouting must be
//!   triggerable by the traffic of the `p` injection ports alone (all of
//!   whose packets target the same minimal output), hence `th ≤ p` in the
//!   paper's first-order analysis; with several VCs per injection port the
//!   bound relaxes towards `p × injection_vcs`.
//!
//! [`RoutingConfig::calibrated_for`](crate::RoutingConfig::calibrated_for)
//! takes its floor and its cap from these bounds, and the
//! `threshold_tuning` example prints them. Every helper takes a router's
//! [`PortLayout`], so both topology families are analysed alike.

use df_model::VcConfig;
use df_topology::PortLayout;

/// Expected average contention-counter value under saturated uniform traffic:
/// the mean number of input VCs per router port.
pub fn expected_saturation_counter(layout: &impl PortLayout, vcs: &VcConfig) -> f64 {
    vcs.mean_vcs_per_port(layout.terminals(), layout.locals(), layout.globals())
}

/// The paper's recommended lower bound for the misrouting threshold: twice
/// the expected saturation counter, rounded up.
pub fn threshold_lower_bound(layout: &impl PortLayout, vcs: &VcConfig) -> u32 {
    (2.0 * expected_saturation_counter(layout, vcs)).ceil() as u32
}

/// First-order upper bound for the misrouting threshold so that adversarial
/// traffic can still trigger misrouting at the source router: the number of
/// head packets the injection ports alone can register.
pub fn threshold_upper_bound(layout: &impl PortLayout, vcs: &VcConfig) -> u32 {
    layout.terminals() * vcs.injection as u32
}

/// The valid threshold range `(lower, upper)` per the §VI-A analysis; `None`
/// when the network is too small for the two constraints to be simultaneously
/// satisfiable (in which case the calibration clamps towards the adversarial
/// constraint, trading a little uniform-traffic latency).
pub fn valid_threshold_range(layout: &impl PortLayout, vcs: &VcConfig) -> Option<(u32, u32)> {
    let lo = threshold_lower_bound(layout, vcs);
    let hi = threshold_upper_bound(layout, vcs);
    (lo <= hi).then_some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_topology::DragonflyParams;

    #[test]
    fn paper_router_reproduces_section_vi_a() {
        let params = DragonflyParams::paper_table1();
        let paper_vcs = VcConfig {
            injection: 3,
            local: 3,
            global: 2,
        };
        let avg = expected_saturation_counter(&params, &paper_vcs);
        assert!((avg - 2.74).abs() < 0.01, "expected ~2.74, got {avg}");
        assert_eq!(threshold_lower_bound(&params, &paper_vcs), 6);
        // p=8 injection ports, so the simple bound is 8 (the paper uses
        // th <= p; the multi-VC relaxation gives 24)
        let (lo, hi) = valid_threshold_range(&params, &paper_vcs).unwrap();
        assert_eq!(lo, 6);
        assert!(hi >= 8);
        // Table I's choice th = 6 is the lowest valid value, as §VI-A argues
        assert_eq!(lo, 6);
    }

    #[test]
    fn small_networks_may_have_no_valid_range() {
        let params = DragonflyParams::tiny(); // p=1
        let vcs = VcConfig::default();
        // one injection port with 3 VCs can register at most 3 heads, while
        // the saturation average asks for a higher threshold
        let lo = threshold_lower_bound(&params, &vcs);
        let hi = threshold_upper_bound(&params, &vcs);
        assert!(hi <= 3);
        if lo > hi {
            assert!(valid_threshold_range(&params, &vcs).is_none());
        }
    }

    #[test]
    fn medium_network_has_a_valid_range() {
        let params = DragonflyParams::medium();
        let vcs = VcConfig::default();
        let (lo, hi) = valid_threshold_range(&params, &vcs).unwrap();
        assert!(lo <= hi);
        assert!(lo >= 2);
    }
}
