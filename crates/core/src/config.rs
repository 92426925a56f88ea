//! Routing-mechanism configuration: the misrouting thresholds of Table I and
//! the calibration rule of §VI-A.
//!
//! Only the three contention thresholds are settable: §VI-A calibrates them
//! to the router geometry and Fig. 10 sweeps them. Every other Table I
//! parameter of the mechanisms is a constant of this module.

use crate::analysis::{threshold_lower_bound, threshold_upper_bound};
use df_model::VcConfig;
use df_topology::PortLayout;

/// ECtN partial-array broadcast period, in cycles (Table I: 100).
pub const ECTN_UPDATE_PERIOD: u64 = 100;

/// OLM relative congestion threshold: misroute when the nonminimal output's
/// occupancy is at most this fraction of the minimal output's (Table I:
/// 50 %).
pub const OLM_CONGESTION_FRACTION: f64 = 0.50;

/// Hybrid's credit-trigger fraction (Table I: 35 %).
pub const HYBRID_CONGESTION_FRACTION: f64 = 0.35;

/// PB's UGAL-style threshold `T`, in packets (Table I: 3).
pub const PB_UGAL_THRESHOLD_PACKETS: u32 = 3;

/// Occupancy fraction above which PB marks one of its global links
/// saturated (not listed in Table I; FOGSim uses a comparable
/// fraction-of-buffer rule).
pub const PB_SATURATION_FRACTION: f64 = 0.50;

/// The contention thresholds of the Base, Hybrid and ECtN mechanisms.
///
/// Defaults are the paper's Table I values, which are calibrated for the
/// 31-port, `p=8` router. For scaled-down networks use
/// [`RoutingConfig::calibrated_for`], which applies the paper's §VI-A rule to
/// the actual router geometry. Any value is valid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingConfig {
    /// Base/ECtN contention threshold `th`: misroute when the contention
    /// counter of the minimal output exceeds this value (Table I: 6).
    pub contention_threshold: u32,
    /// Hybrid's contention threshold (Table I: 7 — higher than Base because
    /// the credit trigger provides a second chance to misroute).
    pub hybrid_contention_threshold: u32,
    /// ECtN combined-counter threshold for misrouting at injection
    /// (Table I: 10).
    pub ectn_combined_threshold: u32,
}

impl Default for RoutingConfig {
    fn default() -> Self {
        RoutingConfig {
            contention_threshold: 6,
            hybrid_contention_threshold: 7,
            ectn_combined_threshold: 10,
        }
    }
}

impl RoutingConfig {
    /// The paper's Table I thresholds.
    pub fn paper_table1() -> Self {
        Self::default()
    }

    /// Apply the paper's §VI-A calibration rule to an arbitrary router
    /// geometry, through the bounds of [`crate::analysis`]:
    ///
    /// * under saturation the average contention-counter value approaches the
    ///   mean number of input VCs per port, so the threshold is at least
    ///   [`threshold_lower_bound`], twice that value rounded up, to avoid
    ///   false triggers under uniform traffic;
    /// * the injection ports alone must be able to push a counter over the
    ///   threshold well before their VCs are all backed up, so it is capped
    ///   at half of [`threshold_upper_bound`] (`p × injection_vcs`), and at
    ///   no less than 2;
    /// * Hybrid gets one extra unit of contention threshold; the ECtN
    ///   combined threshold is twice the per-link average of remote-bound
    ///   head packets in a group.
    pub fn calibrated_for(layout: &impl PortLayout, vcs: &VcConfig) -> Self {
        let floor = threshold_lower_bound(layout, vcs);
        let cap = (threshold_upper_bound(layout, vcs) / 2).max(2);
        // §VI-A: within the valid range pick the lowest value (favours
        // adversarial latency); when the two constraints conflict (very small
        // routers) the adversarial one wins, trading a little uniform-traffic
        // latency.
        let th = floor.min(cap).max(2);
        // The ECtN combined threshold keeps the paper's ratio to the local
        // threshold (10 vs 6).
        let combined = ((th as f64 * 10.0 / 6.0).round() as u32).max(th + 1);
        RoutingConfig {
            contention_threshold: th,
            hybrid_contention_threshold: th + 1,
            ectn_combined_threshold: combined,
        }
    }

    /// Same calibration but overriding the Base/ECtN contention threshold
    /// (used by the Figure 10 threshold-sensitivity sweep).
    pub fn with_contention_threshold(mut self, th: u32) -> Self {
        self.contention_threshold = th;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_topology::DragonflyParams;

    #[test]
    fn defaults_match_table1() {
        let c = RoutingConfig::paper_table1();
        assert_eq!(c.contention_threshold, 6);
        assert_eq!(c.hybrid_contention_threshold, 7);
        assert_eq!(c.ectn_combined_threshold, 10);
        assert_eq!(ECTN_UPDATE_PERIOD, 100);
        assert!((OLM_CONGESTION_FRACTION - 0.50).abs() < 1e-9);
        assert!((HYBRID_CONGESTION_FRACTION - 0.35).abs() < 1e-9);
        assert_eq!(PB_UGAL_THRESHOLD_PACKETS, 3);
        assert!((PB_SATURATION_FRACTION - 0.50).abs() < 1e-9);
    }

    #[test]
    fn calibration_reproduces_paper_scale_thresholds() {
        // With the *paper's* VC counts (3/3/2) and geometry (8/16/8), the
        // §VI-A analysis gives mean 2.74 VCs/port and th = 6.
        let params = DragonflyParams::paper_table1();
        let paper_vcs = VcConfig {
            injection: 3,
            local: 3,
            global: 2,
        };
        let c = RoutingConfig::calibrated_for(&params, &paper_vcs);
        assert_eq!(c.contention_threshold, 6);
        assert_eq!(c.hybrid_contention_threshold, 7);
        assert_eq!(c.ectn_combined_threshold, 10);
    }

    #[test]
    fn calibration_scales_down_for_small_networks() {
        let params = DragonflyParams::small(); // p=2,a=4,h=2
        let vcs = VcConfig::default();
        let c = RoutingConfig::calibrated_for(&params, &vcs);
        // must stay strictly below p * injection_vcs = 6 so adversarial
        // traffic can trigger misrouting at the source router
        assert!(c.contention_threshold < 6);
        assert!(c.contention_threshold >= 2);
        assert!(c.ectn_combined_threshold > c.contention_threshold);
    }

    #[test]
    fn calibration_for_medium_network_matches_paper_values() {
        let params = DragonflyParams::medium(); // p=4,a=8,h=4
        let vcs = VcConfig::default(); // 3/4/2
        let c = RoutingConfig::calibrated_for(&params, &vcs);
        // uniform floor = ceil(2*3.2) = 7, adversarial cap = 4*3/2 = 6 → 6,
        // i.e. the same threshold the paper uses for its (larger) router,
        // below the analysis' valid range
        assert_eq!(c.contention_threshold, 6);
        assert_eq!(c.ectn_combined_threshold, 10);
        let range = crate::analysis::valid_threshold_range(&params, &vcs);
        assert_eq!(range, Some((7, 12)));
    }

    #[test]
    fn builder_overrides() {
        let c = RoutingConfig::paper_table1().with_contention_threshold(4);
        assert_eq!(c.contention_threshold, 4);
        assert_eq!(c.ectn_combined_threshold, 10);
    }
}
