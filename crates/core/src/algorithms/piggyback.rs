//! PiggyBacking (PB): source-adaptive MIN/VAL selection.
//!
//! PB [Jiang et al., ISCA'09] takes its routing decision once, at the source
//! router, from two congestion signals:
//!
//! 1. the *saturation bit* of the minimal global link, computed by the link's
//!    owner from its credit occupancy and piggybacked to every router of the
//!    group (an intra-group ECN), and
//! 2. a UGAL-style comparison of (occupancy × hops) between the minimal and
//!    the Valiant candidate paths, observed at the source router's own output
//!    queues.
//!
//! If either signal favours the nonminimal path the packet is source-routed
//! through a random intermediate router, otherwise it stays minimal forever.

use df_engine::DeterministicRng;
use df_model::Packet;
use df_router::{set_bits, HeadPlan, Router};
use df_topology::{Port, Topology};

use crate::algorithms::common;
use crate::config::{PB_SATURATION_FRACTION, PB_UGAL_THRESHOLD_PACKETS};
use crate::decision::Decision;
use crate::minimal::{minimal_hops_to_router, minimal_output_to_router};
use crate::trigger::{pb_link_saturated, ugal_prefers_valiant};
use crate::vcmap::{global_misroute_fits, vc_for_next_hop, FIRST_HOP_VC};

/// PB's misroute scope as [`HeadPlan`] scope bits plus the source group's
/// minimal global link: the Valiant path is open at the source, to
/// inter-group traffic only. At the source the packet's group is the
/// router's own.
pub(super) fn scope(router: &Router, packet: &Packet, at_source: bool) -> (u8, u32) {
    let topo = router.topology();
    let (src_group, dst_group) = (router.group(), topo.node_group(packet.dst));
    if at_source && src_group != dst_group {
        let min_link = topo.group_link_to(src_group, dst_group);
        (HeadPlan::GLOBAL_SCOPE, min_link)
    } else {
        (0, 0)
    }
}

/// The PB routing decision for a head whose minimal output and scope are
/// in `plan`, its packet behind an accessor.
///
/// A source head reads its packet only when either first hop has room
/// for it: the draws, the blocked test and the fault checks need just the
/// plan, the router's position and its credits — the destination group is
/// where the plan's minimal link leads, every packet has the configured
/// size, and a head that has taken no hop uses [`FIRST_HOP_VC`] on every
/// port class.
/// Past the source the packet is read only under faults.
pub(crate) fn decide<'p>(
    plan: &HeadPlan,
    router: &Router,
    packet: impl Fn() -> &'p Packet,
    rng: &mut DeterministicRng,
) -> Decision {
    rule(plan, router, packet, false, rng)
}

/// [`decide`] the long way: the destination group, the size and the
/// Valiant first hop's VC read from the packet instead of derived from the
/// plan and the configuration — the reference debug builds replay a
/// packet-free decision against.
pub(super) fn decide_from_packet(
    plan: &HeadPlan,
    router: &Router,
    packet: &Packet,
    rng: &mut DeterministicRng,
) -> Decision {
    rule(plan, router, || packet, true, rng)
}

/// The PB rules, the blocked test's facts taken from the packet
/// (`from_packet`) or from the plan.
#[inline]
fn rule<'p>(
    plan: &HeadPlan,
    router: &Router,
    packet: impl Fn() -> &'p Packet,
    from_packet: bool,
    rng: &mut DeterministicRng,
) -> Decision {
    let topo = router.topology();
    let minimal = Decision::minimal(plan.output(), plan.vc);
    if !plan.has(HeadPlan::AT_SOURCE) {
        // source routing: the decision was made at injection; follow minimal
        // (a committed Valiant path is handled by the packet objective).
        if router.any_link_down() && !router.link_is_up(minimal.output_port) {
            return recommit_in_transit(router, packet(), minimal, rng);
        }
        return minimal;
    }
    if !plan.has(HeadPlan::GLOBAL_SCOPE) {
        // PB never misroutes intra-group traffic, so a dead minimal local
        // link leaves no legal alternative at all
        return minimal_or_discard(router, &packet, minimal, false);
    }
    let min_link = u32::from(plan.min_link);
    let src_group = router.group();
    let dst_group = if from_packet {
        topo.node_group(packet().dst)
    } else {
        (topo.global_link_target_group(src_group, min_link))
            .expect("a planned minimal link leads to the destination group")
    };
    // candidate Valiant path; under faults the pick is filtered to
    // intermediates that are reachable and (per the piggybacked link-state
    // view) can still reach the destination group — on a healthy network
    // the filtered pick draws the identical RNG sequence
    let faulty = router.any_link_down() || !router.link_view().all_up();
    let picked = if faulty {
        // at the source (hops == 0 by the gate above): any first hop is
        // still ladder-legal
        common::pick_live_intermediate(router, src_group, dst_group, false, rng)
    } else {
        common::pick_intermediate_router(router, src_group, dst_group, rng)
    };
    let intermediate = match picked {
        Some(r) if r != router.id() => r,
        _ => return minimal_or_discard(router, &packet, minimal, true),
    };
    let min_first_hop = minimal.output_port;
    let val_first_hop = minimal_output_to_router(topo, router.id(), intermediate);

    // Neither first hop has room for the packet: whichever way the signals
    // below point, the allocator cannot grant the request this iteration,
    // and the head decides again — with fresh draws — on the next. The
    // draws above are spent either way; only the signals are skipped, and
    // with them every read of the packet.
    if !faulty {
        let (val_vc, size) = if from_packet {
            let class = val_first_hop.class(&topo.layout());
            let p = packet();
            (vc_for_next_hop(p, class, router.config()), p.size_phits)
        } else {
            (FIRST_HOP_VC, router.config().packet_size_phits)
        };
        if !router
            .output(min_first_hop)
            .can_accept(minimal.output_vc, size)
            && !router.output(val_first_hop).can_accept(val_vc, size)
        {
            return minimal;
        }
    }
    let packet = packet();

    // signal 1: saturation of the minimal global link, from the group-shared
    // PB state
    let min_link_saturated = router.pb().group_saturated(min_link);

    // signal 2: UGAL comparison at the source router's own outputs
    let dst_router = topo.node_router(packet.dst);
    let q_min = common::output_occupancy(router, min_first_hop);
    let q_val = common::output_occupancy(router, val_first_hop);
    let h_min = minimal_hops_to_router(topo, router.id(), dst_router) + 1;
    let h_val = minimal_hops_to_router(topo, router.id(), intermediate)
        + minimal_hops_to_router(topo, intermediate, dst_router)
        + 1;
    let threshold_phits = PB_UGAL_THRESHOLD_PACKETS * packet.size_phits;
    let ugal_valiant = ugal_prefers_valiant(q_min, h_min, q_val, h_val, threshold_phits);

    // a failed minimal first hop — or a minimal gateway link the
    // piggybacked link-state view marks dead, even when the first local hop
    // towards it is healthy — forces the Valiant path (fault injection);
    // always false in a healthy network
    let min_dead =
        !router.link_is_up(min_first_hop) || router.link_view().marks_down(src_group, min_link);

    if (min_link_saturated || ugal_valiant || min_dead) && router.link_is_up(val_first_hop) {
        common::valiant_first_hop(router, packet, intermediate, true)
    } else {
        minimal_or_discard(router, &|| packet, minimal, true)
    }
}

/// The `minimal` decision, degraded to a discard when its output link is
/// dead and no Valiant escape can ever save the packet: either PB may not
/// misroute it at all (`valiant_legal` false — intra-group traffic) or no
/// live, view-viable escape exists
/// ([`common::any_live_global_escape`]). While an escape exists the dead
/// minimal decision is returned unchanged — the allocator refuses dead
/// ports, so the packet waits and the decision (with fresh intermediate
/// draws) is re-evaluated next cycle. The packet is read only for a dead
/// minimal output.
fn minimal_or_discard<'p>(
    router: &Router,
    packet: &impl Fn() -> &'p Packet,
    minimal: Decision,
    valiant_legal: bool,
) -> Decision {
    if router.any_link_down()
        && !router.link_is_up(minimal.output_port)
        && (!valiant_legal
            || !common::any_live_global_escape(router, router.topology().node_group(packet().dst)))
    {
        return Decision::discard();
    }
    minimal
}

/// Fault re-commit for PB's in-transit continuations. PB is source-routed:
/// past injection a packet follows minimal forever — but under churn the
/// minimal continuation's link can die and *stay* dead, which used to
/// strand committed packets at the drain bound. Before the first global
/// hop the source decision is re-taken as a Valiant path, restricted to
/// the current router's own global first hops (the pre-global local hop is
/// spent; a second one would re-enter the VC ladder below the packet's
/// rung — the same rule `recommit_global` enforces). Past the first global
/// hop PB has no legal alternative — any detour would need hops the VC
/// ladder cannot carry — so the packet is unroutable and discarded, with
/// exact conservation through the dropped-on-fault counters.
fn recommit_in_transit(
    router: &Router,
    packet: &Packet,
    stalled: Decision,
    rng: &mut DeterministicRng,
) -> Decision {
    let topo = router.topology();
    let src_group = topo.node_group(packet.src);
    let dst_group = topo.node_group(packet.dst);
    if packet.routing.global_hops == 0
        && src_group != dst_group
        && !packet.routing.globally_misrouted()
        && global_misroute_fits(packet, router.config())
    {
        if let Some(inter) = common::pick_live_intermediate(router, src_group, dst_group, true, rng)
        {
            return common::valiant_first_hop(router, packet, inter, true);
        }
        // a live escape exists but the bounded draw missed it: wait on the
        // dead continuation and redraw next cycle
        if common::any_live_global_escape(router, dst_group) {
            return stalled;
        }
    }
    Decision::discard()
}

/// Whether this router's own global link `k` is saturated right now, per
/// the PB rule — a pure function of that output's staged phits and credits.
fn own_link_saturated(router: &Router, k: u32) -> bool {
    let port = Port::global(&router.topology().layout(), k);
    let fraction = router.output_congestion_fraction(port);
    pb_link_saturated(fraction, PB_SATURATION_FRACTION)
}

/// Bring the saturation flags of this router's own global links up to date
/// with their occupancy, per the PB rule, and return whether any flag
/// flipped (the router's group must then re-exchange its flags). A flag
/// depends on nothing but its output's staged phits and credits, so only
/// the own global ports among [`Router::changed_outputs`] are recomputed;
/// the simulator calls this only for routers whose outputs can have
/// changed since their last refresh.
pub fn update_own_saturation(router: &mut Router) -> bool {
    let own_globals = router.topology().own_globals(router.id());
    let first = Port::global(&router.topology().layout(), 0).index();
    let changed = (router.changed_outputs() >> first) & ((1 << own_globals) - 1);
    router.clear_changed_outputs();
    let mut flipped = false;
    for k in set_bits(changed) {
        let saturated = own_link_saturated(router, k as u32);
        flipped |= router.pb_mut().set_own_saturated(k as u32, saturated);
    }
    debug_assert!(
        (0..own_globals).all(|k| router.pb().own_saturated(k) == own_link_saturated(router, k)),
        "router {}: own saturation flags are stale",
        router.id()
    );
    flipped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::tests::{Counted, GATE_READS};
    use crate::config::RoutingConfig;
    use crate::decision::{Commitment, DecisionKind};
    use crate::minimal::minimal_output;
    use df_model::{NetworkConfig, PacketId, VcId};
    use df_topology::{Dragonfly, DragonflyParams, NodeId, RouterId};

    fn router(id: u32) -> Router {
        let topo = Dragonfly::new(DragonflyParams::small());
        Router::new(RouterId(id), topo, NetworkConfig::fast_test())
    }

    fn packet(src: u32, dst: u32) -> Packet {
        Packet::new(PacketId(0), NodeId(src), NodeId(dst), 8, 0)
    }

    /// The whole decision — plan, then the PB rules.
    fn decide(
        router: &Router,
        input_port: Port,
        packet: &Packet,
        rng: &mut DeterministicRng,
    ) -> Decision {
        crate::RoutingAlgorithm::new(crate::RoutingKind::PiggyBacking, RoutingConfig::default())
            .decide(router, input_port, packet, rng)
    }

    #[test]
    fn uncongested_network_stays_minimal() {
        let r = router(0);
        let p = packet(0, 40);
        let mut rng = DeterministicRng::new(1);
        let d = decide(&r, Port(0), &p, &mut rng);
        assert_eq!(d.kind, DecisionKind::Minimal);
        assert_eq!(d.commitment, Commitment::None);
    }

    #[test]
    fn saturated_minimal_link_forces_valiant() {
        let mut r = router(0);
        let p = packet(0, 40);
        let topo = *r.topology();
        let src_group = topo.node_group(NodeId(0));
        let dst_group = topo.node_group(NodeId(40));
        let min_link = topo.group_link_to(src_group, dst_group);
        // mark that link saturated in the group-shared view
        let mut flags = vec![false; topo.global_links_per_group() as usize];
        flags[min_link as usize] = true;
        r.pb_mut().install_group_from(&flags);
        let mut rng = DeterministicRng::new(1);
        let d = decide(&r, Port(0), &p, &mut rng);
        assert_eq!(d.kind, DecisionKind::NonminimalGlobal);
        assert!(matches!(
            d.commitment,
            Commitment::Intermediate { misroute: true, .. }
        ));
    }

    #[test]
    fn a_source_head_with_no_room_behind_either_first_hop_draws_and_stays_minimal() {
        let mut r = router(0);
        let p = packet(0, 40);
        let topo = *r.topology();
        // the saturated flag alone would send the packet Valiant …
        r.pb_mut()
            .install_group_from(&vec![true; topo.global_links_per_group() as usize]);
        let mut rng = DeterministicRng::new(1);
        let d = decide(&r, Port(0), &p, &mut rng);
        assert_eq!(d.kind, DecisionKind::NonminimalGlobal);
        // … but with every output buffer full the allocator could grant
        // neither request, so the comparison is skipped — after the draws
        for port in Port::all(&topo.layout()) {
            while r.output(port).can_accept(VcId(0), 8) {
                r.output_mut(port).accept(packet(0, 40), VcId(0), 0);
            }
        }
        let mut reference = rng.clone();
        let (src, dst) = (topo.node_group(p.src), topo.node_group(p.dst));
        assert!(common::pick_intermediate_router(&r, src, dst, &mut reference).is_some());
        let minimal = Decision::minimal(minimal_output(&topo, r.id(), p.dst), VcId(0));
        let mut whole = rng.clone();
        assert_eq!(decide(&r, Port(0), &p, &mut whole), minimal);
        assert_eq!(whole.state(), reference.state(), "exactly the two draws");
        // the decide loop's entry point: the same, from the plan alone
        let algorithm = crate::RoutingAlgorithm::new(
            crate::RoutingKind::PiggyBacking,
            RoutingConfig::default(),
        );
        let plan = algorithm.plan(&r, Port(0), &p);
        let counted = Counted::new(&p);
        let d = algorithm.decide_planned(&plan, &r, Port(0), || counted.read(), &mut rng);
        assert_eq!(d, minimal);
        assert_eq!(rng.state(), reference.state(), "exactly the two draws");
        assert_eq!(counted.reads(), GATE_READS, "no read but the debug gate's");
    }

    #[test]
    fn congested_minimal_output_triggers_ugal_valiant() {
        let mut r = router(0);
        let p = packet(0, 40);
        let topo = *r.topology();
        // congest the minimal first-hop output by consuming its credits
        let min_out = minimal_output(&topo, r.id(), NodeId(40));
        let num_vcs = r.output(min_out).num_downstream_vcs();
        for vc in 0..num_vcs {
            let free = r.output(min_out).credits(VcId(vc as u8));
            // consume credits by staging packets until (nearly) exhausted
            let mut remaining = free;
            while remaining >= 8 && r.output(min_out).can_accept(VcId(vc as u8), 8) {
                let filler = packet(0, 40);
                r.output_mut(min_out).accept(filler, VcId(vc as u8), 0);
                remaining -= 8;
                // drain the output buffer so buffer space is not the limit
                let _ = r.output_mut(min_out).try_transmit(1_000);
            }
        }
        // The Valiant intermediate is drawn at random inside decide(); when
        // its first hop happens to share the congested minimal output, PB
        // correctly stays minimal. Sample several decisions and require the
        // large majority to go Valiant.
        let mut rng = DeterministicRng::new(1);
        let valiant = (0..20)
            .filter(|_| decide(&r, Port(0), &p, &mut rng).kind == DecisionKind::NonminimalGlobal)
            .count();
        assert!(
            valiant >= 12,
            "a heavily occupied minimal path must push PB to Valiant most of the time ({valiant}/20)"
        );
    }

    #[test]
    fn in_transit_pb_is_minimal() {
        let r = router(9);
        let mut p = packet(0, 40);
        p.routing.local_hops = 1;
        let mut rng = DeterministicRng::new(1);
        let d = decide(&r, Port(2), &p, &mut rng);
        assert_eq!(d.kind, DecisionKind::Minimal);
    }

    #[test]
    fn intra_group_traffic_is_minimal() {
        let r = router(0);
        let p = packet(0, 6); // destination in group 0
        let mut rng = DeterministicRng::new(1);
        let d = decide(&r, Port(0), &p, &mut rng);
        assert_eq!(d.kind, DecisionKind::Minimal);
    }

    #[test]
    fn saturation_update_reflects_occupancy() {
        let mut r = router(0);
        update_own_saturation(&mut r);
        assert!(!r.pb().own_saturated(0));
        // fill global port 0's credits beyond the saturation fraction
        let gport = Port::global(&r.topology().layout(), 0);
        let total =
            r.output(gport).total_credit_capacity() + r.output(gport).buffer_capacity_phits();
        let mut consumed = 0;
        'outer: for vc in 0..r.output(gport).num_downstream_vcs() {
            loop {
                if consumed as f64 <= 0.6 * total as f64
                    && r.output(gport).can_accept(VcId(vc as u8), 8)
                {
                    r.output_mut(gport).accept(packet(0, 40), VcId(vc as u8), 0);
                    let _ = r.output_mut(gport).try_transmit(10_000 + consumed as u64);
                    consumed += 8;
                } else if consumed as f64 > 0.6 * total as f64 {
                    break 'outer;
                } else {
                    break;
                }
            }
        }
        update_own_saturation(&mut r);
        assert!(
            r.pb().own_saturated(0),
            "occupancy {consumed}/{total} should exceed the 50% saturation fraction"
        );
    }

    #[test]
    fn returned_credits_alone_clear_the_saturation_flag() {
        // the refresh is skipped for a router whose outputs did not change;
        // a credit return is such a change even with nothing staged
        let mut r = router(0);
        let gport = Port::global(&r.topology().layout(), 0);
        // take every credit of the link: packets leave at once, so only the
        // downstream occupancy remains
        let mut taken = Vec::new();
        for vc in 0..r.output(gport).num_downstream_vcs() {
            let vc = VcId(vc as u8);
            while r.output(gport).can_accept(vc, 8) {
                r.output_mut(gport).accept(packet(0, 40), vc, 0);
                let now = 10_000 + 8 * taken.len() as u64;
                assert!(r.output_mut(gport).try_transmit(now).is_some());
                taken.push(vc);
            }
        }
        assert!(update_own_saturation(&mut r), "a flip");
        assert!(r.pb().own_saturated(0));
        // nothing changed: the refresh is a no-op and reports no flip
        assert!(!update_own_saturation(&mut r));
        assert!(r.pb().own_saturated(0) && r.changed_outputs() == 0);
        // the downstream router drains: credits come back, nothing else moves
        for vc in taken {
            r.receive_credits(gport, vc, 8);
        }
        assert!(
            update_own_saturation(&mut r),
            "and the flip is reported for the exchange"
        );
        assert!(
            !r.pb().own_saturated(0),
            "returned credits unsaturate the link"
        );
    }
}
