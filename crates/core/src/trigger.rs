//! Misrouting triggers: the pure decision predicates.
//!
//! These small functions isolate *when* misrouting is considered from *which*
//! alternative path is chosen (candidates.rs) and from the bookkeeping
//! (algorithms). They operate on plain numbers so they can be unit-tested
//! against the paper's descriptions directly.

/// Contention-based trigger (§III-B): misroute when the contention counter of
/// the packet's minimal output exceeds the threshold `th`.
#[inline]
pub(crate) fn contention_exceeds(counter: u32, th: u32) -> bool {
    counter > th
}

/// Contention-based candidate filter: a nonminimal first hop is acceptable
/// while its own counter stays under the threshold.
#[inline]
pub(crate) fn contention_allows_candidate(counter: u32, th: u32) -> bool {
    counter < th
}

/// Credit/occupancy-based trigger (OLM-style relative comparison): misroute
/// when the minimal output already holds at least `min_required_phits` and
/// the candidate's occupancy is at most `fraction` of the minimal output's
/// occupancy.
#[inline]
pub(crate) fn credit_comparison(
    minimal_occupancy_phits: u32,
    candidate_occupancy_phits: u32,
    fraction: f64,
    min_required_phits: u32,
) -> bool {
    if minimal_occupancy_phits < min_required_phits.max(1) {
        return false;
    }
    (candidate_occupancy_phits as f64) <= fraction * minimal_occupancy_phits as f64
}

/// PB / UGAL-style source decision: choose the Valiant path when the minimal
/// path's cost (occupancy × hop count) exceeds the Valiant path's cost by
/// more than the threshold.
#[inline]
pub(crate) fn ugal_prefers_valiant(
    minimal_occupancy_phits: u32,
    minimal_hops: u32,
    valiant_occupancy_phits: u32,
    valiant_hops: u32,
    threshold_phits: u32,
) -> bool {
    (minimal_occupancy_phits as u64) * (minimal_hops as u64)
        > (valiant_occupancy_phits as u64) * (valiant_hops as u64) + threshold_phits as u64
}

/// PB global-link saturation rule: a link is saturated when its occupancy
/// fraction exceeds the configured fraction.
#[inline]
pub(crate) fn pb_link_saturated(occupancy_fraction: f64, saturation_fraction: f64) -> bool {
    occupancy_fraction > saturation_fraction
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_trigger_is_strictly_greater() {
        assert!(!contention_exceeds(6, 6));
        assert!(contention_exceeds(7, 6));
        assert!(!contention_exceeds(0, 0));
        assert!(contention_exceeds(1, 0));
    }

    #[test]
    fn contention_candidate_filter_is_strictly_less() {
        assert!(contention_allows_candidate(5, 6));
        assert!(!contention_allows_candidate(6, 6));
        assert!(!contention_allows_candidate(7, 6));
    }

    #[test]
    fn credit_comparison_requires_minimal_occupancy() {
        // empty minimal path: never misroute, even if the candidate is empty
        assert!(!credit_comparison(0, 0, 0.5, 8));
        assert!(!credit_comparison(7, 0, 0.5, 8));
        // minimal holds one packet, candidate empty: misroute
        assert!(credit_comparison(8, 0, 0.5, 8));
        // candidate exactly at the fraction: allowed (<=)
        assert!(credit_comparison(16, 8, 0.5, 8));
        // candidate above the fraction: keep minimal
        assert!(!credit_comparison(16, 9, 0.5, 8));
    }

    #[test]
    fn credit_comparison_handles_zero_min_required() {
        // min_required is clamped to at least one phit so an empty minimal
        // path can never trigger misrouting
        assert!(!credit_comparison(0, 0, 0.5, 0));
        assert!(credit_comparison(1, 0, 0.5, 0));
    }

    #[test]
    fn ugal_comparison_weighs_hops_and_threshold() {
        // UGAL: go Valiant when q_min*H_min > q_val*H_val + T
        assert!(!ugal_prefers_valiant(0, 3, 0, 6, 24));
        // heavily loaded minimal path vs empty Valiant path
        assert!(ugal_prefers_valiant(100, 3, 0, 6, 24));
        // exactly at the boundary: prefer minimal
        assert!(!ugal_prefers_valiant(8, 3, 0, 6, 24));
        assert!(ugal_prefers_valiant(9, 3, 0, 6, 24));
        // a busy Valiant path keeps traffic minimal
        assert!(!ugal_prefers_valiant(50, 3, 40, 6, 24));
    }

    #[test]
    fn pb_saturation_fraction() {
        assert!(!pb_link_saturated(0.3, 0.5));
        assert!(!pb_link_saturated(0.5, 0.5));
        assert!(pb_link_saturated(0.51, 0.5));
    }
}
