//! Helpers shared by every routing mechanism.

use df_engine::DeterministicRng;
use df_model::Packet;
use df_router::Router;
use df_topology::{GroupId, Port, RouterId, Topology};

use crate::decision::{Commitment, Decision, DecisionKind};
use crate::minimal::minimal_output_to_router;
use crate::vcmap::vc_for_next_hop;

/// Occupancy (in phits) of the path behind an output port, as seen through
/// credits: staged output-buffer phits plus estimated downstream occupancy.
/// This is the congestion signal used by the credit-based triggers.
pub(crate) fn output_occupancy(router: &Router, port: Port) -> u32 {
    let o = router.output(port);
    o.buffer_occupancy_phits() + o.downstream_occupancy_phits()
}

/// Pick a uniformly random item of a replayable sequence without collecting
/// it: count, draw one `rng.index(len)` (none if empty), walk to the drawn one.
pub(crate) fn pick_random<I: Iterator + Clone>(
    mut items: I,
    rng: &mut DeterministicRng,
) -> Option<I::Item> {
    let len = items.clone().count();
    if len == 0 {
        None
    } else {
        items.nth(rng.index(len))
    }
}

/// Pick a uniformly random intermediate router outside both `src_group` and
/// `dst_group` (the Valiant intermediate of VAL and of PB's nonminimal source
/// routes). Returns `None` when no third group exists.
pub(crate) fn pick_intermediate_router(
    router: &Router,
    src_group: GroupId,
    dst_group: GroupId,
    rng: &mut DeterministicRng,
) -> Option<RouterId> {
    let topo = router.topology();
    let groups = topo.num_groups();
    let excluded = if src_group == dst_group { 1 } else { 2 };
    if groups <= excluded {
        return None;
    }
    // draw a group uniformly among the eligible ones — the `pick`-th in
    // ascending order, stepping over the excluded ones — then a router in it
    let mut pick = rng.below((groups - excluded) as u64) as u32;
    let (low, high) = (src_group.0.min(dst_group.0), src_group.0.max(dst_group.0));
    if pick >= low {
        pick += 1;
    }
    if high != low && pick >= high {
        pick += 1;
    }
    let group = GroupId(pick);
    let local_index = rng.below(topo.intermediates_per_group() as u64) as u32;
    Some(topo.router_at(group, local_index))
}

/// Fault-aware variant of [`pick_intermediate_router`]: draw intermediates
/// until one is reachable — the first hop towards it is up, and (for
/// mechanisms with a link-state view) the view marks both the
/// source-group link towards its group and its group's onward link towards
/// the destination group alive. Gives up after a bounded number of draws
/// (`None`), leaving the caller to fall back to minimal routing.
///
/// `global_first_hop_only` must be set when the packet has already taken
/// its single pre-global local hop: the replacement path may then only
/// start on one of the *current* router's own global ports — a second
/// pre-global local hop would re-enter the VC ladder below the rung the
/// packet occupies and break the deadlock-freedom argument (the same rule
/// `recommit_global` enforces through its own-links-only restriction).
///
/// On a healthy network the first draw always passes, so callers that gate
/// on `any_link_down() || !link_view().all_up()` consume the exact RNG
/// sequence of the unfiltered picker.
pub(crate) fn pick_live_intermediate(
    router: &Router,
    src_group: GroupId,
    dst_group: GroupId,
    global_first_hop_only: bool,
    rng: &mut DeterministicRng,
) -> Option<RouterId> {
    const MAX_DRAWS: u32 = 8;
    let topo = router.topology();
    let my_group = topo.router_group(router.id());
    let view = router.link_view();
    for _ in 0..MAX_DRAWS {
        let inter = pick_intermediate_router(router, src_group, dst_group, rng)?;
        if inter == router.id() {
            continue;
        }
        let first_hop = minimal_output_to_router(topo, router.id(), inter);
        if !router.link_is_up(first_hop) {
            continue;
        }
        if global_first_hop_only
            && first_hop.class(&topo.layout()) != df_topology::PortClass::Global
        {
            continue;
        }
        let g_inter = topo.router_group(inter);
        if g_inter != my_group && !view.link_up(my_group, topo.group_link_to(my_group, g_inter)) {
            continue;
        }
        if g_inter != dst_group && !view.link_up(g_inter, topo.group_link_to(g_inter, dst_group)) {
            continue;
        }
        return Some(inter);
    }
    None
}

/// Whether at least one of the router's own global ports offers a live
/// Valiant escape towards `dst_group`: the link is up locally, it leads to
/// a third group (neither this router's own nor the destination group),
/// and the (possibly stale) gateway-liveness view marks both it and that
/// group's onward link towards the destination group alive.
///
/// This is the existence check behind the bounded draws of
/// [`pick_live_intermediate`] with `global_first_hop_only` set: every
/// escape that function can return starts on one of these ports, so when
/// this returns `false` no amount of redrawing can ever succeed — callers
/// then discard the packet as unroutable instead of stalling on a dead
/// port forever (churn can keep links down through the drain window).
pub(crate) fn any_live_global_escape(router: &Router, dst_group: GroupId) -> bool {
    let topo = router.topology();
    let layout = topo.layout();
    let my_group = topo.router_group(router.id());
    let view = router.link_view();
    (0..topo.own_globals(router.id())).any(|k| {
        let port = Port::global(&layout, k);
        if !router.link_is_up(port) {
            return false;
        }
        let j = topo.global_link_index(router.id(), k);
        match topo.global_link_target_group(my_group, j) {
            Some(target) => {
                target != my_group
                    && target != dst_group
                    && view.link_up(my_group, j)
                    && view.link_up(target, topo.group_link_to(target, dst_group))
            }
            None => false,
        }
    })
}

/// First-hop decision towards an intermediate router, carrying the Valiant
/// commitment. `misroute` marks whether the statistics should count the
/// packet as globally misrouted.
pub(crate) fn valiant_first_hop(
    router: &Router,
    packet: &Packet,
    intermediate: RouterId,
    misroute: bool,
) -> Decision {
    let topo = router.topology();
    debug_assert_ne!(intermediate, router.id());
    let port = minimal_output_to_router(topo, router.id(), intermediate);
    Decision {
        output_port: port,
        output_vc: vc_for_next_hop(packet, port.class(&topo.layout()), router.config()),
        kind: DecisionKind::NonminimalGlobal,
        commitment: Commitment::Intermediate {
            router: intermediate,
            misroute,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_model::{NetworkConfig, PacketId};
    use df_topology::{Dragonfly, DragonflyParams, NodeId};

    fn router(id: u32) -> Router {
        let topo = Dragonfly::new(DragonflyParams::small());
        Router::new(RouterId(id), topo, NetworkConfig::fast_test())
    }

    fn packet(src: u32, dst: u32) -> Packet {
        Packet::new(PacketId(0), NodeId(src), NodeId(dst), 8, 0)
    }

    #[test]
    fn intermediate_router_avoids_src_and_dst_groups() {
        let r = router(0);
        let mut rng = DeterministicRng::new(1);
        let topo = *r.topology();
        for _ in 0..200 {
            let inter =
                pick_intermediate_router(&r, GroupId(0), GroupId(1), &mut rng).expect("exists");
            let g = topo.router_group(inter);
            assert_ne!(g, GroupId(0));
            assert_ne!(g, GroupId(1));
        }
    }

    #[test]
    fn intermediate_router_covers_many_groups() {
        let r = router(0);
        let mut rng = DeterministicRng::new(2);
        let topo = *r.topology();
        let mut groups = std::collections::HashSet::new();
        for _ in 0..500 {
            let inter = pick_intermediate_router(&r, GroupId(0), GroupId(1), &mut rng).unwrap();
            groups.insert(topo.router_group(inter));
        }
        assert_eq!(groups.len(), (topo.num_groups() - 2) as usize);
    }

    /// The drawn group is the `pick`-th eligible one in ascending order —
    /// what walking the group list past the excluded ones arrives at — for
    /// every (source, destination) group pair, equal groups included.
    #[test]
    fn intermediate_group_is_the_drawn_one_in_ascending_order() {
        let r = router(0);
        let topo = *r.topology();
        let mut rng = DeterministicRng::new(7);
        for (src, dst) in
            (0..topo.num_groups()).flat_map(|s| (0..topo.num_groups()).map(move |d| (s, d)))
        {
            let eligible: Vec<u32> = (0..topo.num_groups())
                .filter(|&g| g != src && g != dst)
                .collect();
            for _ in 0..20 {
                let mut replay = rng.clone();
                let inter =
                    pick_intermediate_router(&r, GroupId(src), GroupId(dst), &mut rng).unwrap();
                let group = GroupId(eligible[replay.below(eligible.len() as u64) as usize]);
                let local = replay.below(topo.intermediates_per_group() as u64) as u32;
                assert_eq!(inter, topo.router_at(group, local), "{src} -> {dst}");
                assert_eq!(rng.state(), replay.state(), "two draws");
            }
        }
    }

    #[test]
    fn no_intermediate_in_a_two_group_network() {
        let topo = Dragonfly::new(DragonflyParams::new(2, 4, 2, 2).unwrap());
        let r = Router::new(RouterId(0), topo, NetworkConfig::fast_test());
        let mut rng = DeterministicRng::new(3);
        assert!(pick_intermediate_router(&r, GroupId(0), GroupId(1), &mut rng).is_none());
    }

    #[test]
    fn valiant_first_hop_commits_the_intermediate() {
        let r = router(0);
        let p = packet(0, 70);
        let d = valiant_first_hop(&r, &p, RouterId(10), true);
        assert_eq!(d.kind, DecisionKind::NonminimalGlobal);
        match d.commitment {
            Commitment::Intermediate { router, misroute } => {
                assert_eq!(router, RouterId(10));
                assert!(misroute);
            }
            other => panic!("expected intermediate commitment, got {other:?}"),
        }
    }

    #[test]
    fn pick_random_is_none_on_empty() {
        let mut rng = DeterministicRng::new(0);
        let empty: [u32; 0] = [];
        assert!(pick_random(empty.iter(), &mut rng).is_none());
        assert_eq!(rng.next_u64(), DeterministicRng::new(0).next_u64());
        // one draw, the same one indexing a slice would take
        let items = [1, 2, 3];
        let mut replay = rng.clone();
        let picked = pick_random(items.iter(), &mut rng).unwrap();
        assert_eq!(*picked, items[replay.index(items.len())]);
        assert_eq!(rng.next_u64(), replay.next_u64());
    }

    #[test]
    fn output_occupancy_starts_at_zero() {
        let r = router(0);
        for port in df_topology::Port::all(&r.topology().layout()) {
            assert_eq!(output_occupancy(&r, port), 0);
        }
    }
}
