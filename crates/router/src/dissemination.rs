//! Group-level control-plane exchange over *disjoint router slices*.
//!
//! PB flag sharing and the periodic ECtN broadcast are the only per-cycle
//! operations that touch more than one router at a time — and both are
//! strictly *group-local*: a group's exchange reads and writes only the
//! routers of that group. Because router ids are laid out group-major
//! (group `g` owns the contiguous id range `[g·a, (g+1)·a)`), a group is a
//! contiguous sub-slice of the simulator's router array, and different
//! groups are non-overlapping sub-slices.
//!
//! This module exploits that: the exchange functions take one group as an
//! exclusively borrowed `&mut [Router]` slice (for example one chunk of
//! `chunks_mut(a)`), so the borrow checker rules out cross-group access
//! statically. The simulator calls them group by group.
//!
//! # Per-topology dissemination contract
//!
//! The PB exchange never consults the topology: it concatenates every
//! member's own-link flags in local-index order, and that concatenation
//! *is* the group-link index space by construction, because each
//! topology's `global_link_index` is defined as the running offset of the
//! owning router's links within exactly that order:
//!
//! - **Dragonfly**: every router owns `h` links, so the flat array has
//!   `a·h` entries and link `(local, k)` lands at `local·h + k`.
//! - **Megafly (Dragonfly+)**: leaves (local `0..l`) own zero links and
//!   contribute nothing; spines (local `l..l+s`) own `h` each, so the flat
//!   array has `s·h` entries and a spine link `(local, k)` lands at
//!   `(local − l)·h + k` — matching `Megafly::global_link_index`. Leaves
//!   still *receive* the full installed view, which is what lets a leaf's
//!   routing decision see a saturated spine-owned global link.
//!
//! Any new topology instance keeps this contract for free as long as its
//! `global_link_index` enumerates links in router-local-index order with
//! per-router contiguous `k` runs.
//!
//! The second half of the disjointness rule: everything *else* a router
//! does in a cycle (head registration, routing decisions, allocation,
//! grant application, output transmission) touches only that single
//! router's state plus read-only topology/configuration. Its cross-router
//! *effects* (link events, upstream credits) go straight into the caller's
//! event queue and counters as they happen — see `df-sim`'s `phase` module.

use df_topology::GatewayLiveness;

use crate::router::Router;

/// One PB dissemination step for one group: gather every member's own-link
/// saturation flags into `flat` (resized to `a·h`), then install the
/// gathered array as every member's group-wide view.
///
/// `group` must be the group's routers in local-index order (the natural
/// contiguous id-order sub-slice). `flat` is a caller-owned scratch buffer
/// so repeated calls are allocation-free once warm.
///
/// Gathering completes before any install, and installs never touch a
/// router's own flags, so the result matches a snapshot-then-install
/// exchange exactly.
pub fn pb_exchange_group(group: &mut [Router], flat: &mut Vec<bool>) {
    // routers may own different numbers of global links (a Megafly leaf owns
    // none), so gather by running offset — the concatenation in local-index
    // order is exactly the group-link index space for both topologies
    flat.clear();
    for router in group.iter() {
        flat.extend_from_slice(router.pb().own_flags());
    }
    for router in group.iter_mut() {
        router.pb_mut().install_group_from(flat);
    }
}

/// Install the group's flooded gateway-liveness view into every router of
/// one group — the link-state payload piggybacked on the group's PB/ECtN
/// exchange (each group carries its *own* hop-delayed view; see `df-sim`'s
/// flooding round). The simulator installs after each flooding round it
/// runs; a cycle without one left every view as installed. Costs one
/// integer compare per router when the view did not change.
///
/// Same slice contract as [`pb_exchange_group`].
pub fn install_linkview_group(group: &mut [Router], view: &GatewayLiveness) {
    for router in group.iter_mut() {
        router.install_link_view(view);
    }
}

/// One ECtN broadcast step for one group: sum every member's partial
/// counter array into `scratch` (resized to `a·h`), then install the sum as
/// every member's combined array.
///
/// Same slice contract as [`pb_exchange_group`]: `group` is an exclusively
/// borrowed, group-local slice.
pub fn ectn_exchange_group(group: &mut [Router], scratch: &mut Vec<u32>) {
    let links = group.first().map(|r| r.ectn().num_links()).unwrap_or(0);
    scratch.clear();
    scratch.resize(links, 0);
    for router in group.iter() {
        router.ectn().add_partial_to(scratch);
    }
    for router in group.iter_mut() {
        router.ectn_mut().install_combined_from(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_model::NetworkConfig;
    use df_topology::{Dragonfly, DragonflyParams, Megafly, MegaflyParams, RouterId, Topology};

    fn group_of_routers() -> Vec<Router> {
        let topo = Dragonfly::new(DragonflyParams::small());
        // group 0 of the small topology: routers 0..4
        (0..4)
            .map(|i| Router::new(RouterId(i), topo, NetworkConfig::fast_test()))
            .collect()
    }

    #[test]
    fn pb_exchange_gathers_all_members_in_local_index_order() {
        let mut group = group_of_routers();
        // router 1 marks its own link 0 saturated, router 3 its link 1
        group[1].pb_mut().set_own_saturated(0, true);
        group[3].pb_mut().set_own_saturated(1, true);
        let mut flat = Vec::new();
        pb_exchange_group(&mut group, &mut flat);
        // h = 2 for the small topology: group link = local_index * h + k
        for router in &group {
            assert!(router.pb().group_saturated(2));
            assert!(router.pb().group_saturated(7));
            assert!(!router.pb().group_saturated(0));
            assert!(!router.pb().group_saturated(3));
        }
        // own flags are untouched by the install
        assert!(group[1].pb().own_saturated(0));
        assert!(!group[0].pb().own_saturated(0));
    }

    #[test]
    fn megafly_pb_exchange_maps_spine_links_into_leaf_views() {
        // group 0 of the small Megafly (p=2, l=s=4, h=2): routers 0..8,
        // leaves at local 0..4 own no global links, spines at local 4..8
        // own h=2 each — the group-link space is s*h = 8 spine-only links
        let params = MegaflyParams::small();
        let topo = Megafly::new(params);
        let mut group: Vec<Router> = (0..8)
            .map(|i| Router::new(RouterId(i), topo, NetworkConfig::fast_test()))
            .collect();
        for leaf in &group[..4] {
            assert!(
                leaf.pb().own_flags().is_empty(),
                "leaves own no global links, so they contribute nothing"
            );
        }
        // spine at local index 5 saturates its second link (k=1); the
        // group-link index is (local - l)*h + k = (5-4)*2 + 1 = 3
        group[5].pb_mut().set_own_saturated(1, true);
        assert_eq!(topo.global_link_index(RouterId(5), 1), 3);
        let mut flat = Vec::new();
        pb_exchange_group(&mut group, &mut flat);
        assert_eq!(flat.len(), 8, "flat view covers the s*h spine links only");
        for (i, router) in group.iter().enumerate() {
            for link in 0..8 {
                assert_eq!(
                    router.pb().group_saturated(link),
                    link == 3,
                    "router local {i} must see exactly group link 3 saturated"
                );
            }
        }
    }

    #[test]
    fn ectn_exchange_sums_partials_into_every_member() {
        let mut group = group_of_routers();
        group[0].ectn_mut().increment_partial(3);
        group[2].ectn_mut().increment_partial(3);
        group[2].ectn_mut().increment_partial(5);
        let mut scratch = Vec::new();
        ectn_exchange_group(&mut group, &mut scratch);
        for router in &group {
            assert_eq!(router.ectn().combined(3), 2);
            assert_eq!(router.ectn().combined(5), 1);
            assert_eq!(router.ectn().combined(0), 0);
        }
        // partials are untouched
        assert_eq!(group[0].ectn().partial(3), 1);
        assert_eq!(group[2].ectn().partial(3), 1);
    }

    #[test]
    fn figure4_style_combination() {
        // Figure 4: router A combines the partial arrays received from the
        // other routers of its group with its own.
        let mut group = group_of_routers();
        group[0].ectn_mut().increment_partial(0);
        group[1].ectn_mut().increment_partial(0);
        group[1].ectn_mut().increment_partial(2);
        group[3].ectn_mut().increment_partial(5);
        ectn_exchange_group(&mut group, &mut Vec::new());
        assert_eq!(group[2].ectn().combined(0), 2);
        assert_eq!(group[2].ectn().combined(2), 1);
        assert_eq!(group[2].ectn().combined(5), 1);
        assert_eq!(group[2].ectn().combined(1), 0);
    }

    #[test]
    fn exchanges_tolerate_empty_slices() {
        let mut empty: Vec<Router> = Vec::new();
        let mut flat = vec![true; 4];
        pb_exchange_group(&mut empty, &mut flat);
        assert!(flat.is_empty());
        let mut scratch = vec![7u32; 4];
        ectn_exchange_group(&mut empty, &mut scratch);
        assert!(scratch.is_empty());
    }

    #[test]
    fn scratch_buffers_are_reusable_across_groups() {
        let mut g1 = group_of_routers();
        let mut g2 = group_of_routers();
        g1[0].pb_mut().set_own_saturated(0, true);
        let mut flat = Vec::new();
        pb_exchange_group(&mut g1, &mut flat);
        pb_exchange_group(&mut g2, &mut flat);
        // no leakage from g1's exchange into g2's view
        for router in &g2 {
            assert!(!router.pb().group_saturated(0));
        }
        for router in &g1 {
            assert!(router.pb().group_saturated(0));
        }
    }
}
