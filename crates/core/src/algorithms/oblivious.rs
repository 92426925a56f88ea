//! The oblivious mechanism with a decision of its own: VAL (MIN is the
//! planned minimal output itself).

use df_engine::DeterministicRng;
use df_model::Packet;
use df_router::{HeadPlan, Router};
use df_topology::Topology;

use crate::algorithms::common;
use crate::decision::Decision;

/// VAL: at the source router, commit to a uniformly random intermediate
/// router in a third group and route minimally to it, then minimally to the
/// destination (the continuation is handled by the packet's objective once
/// the commitment is applied). Falls back to minimal routing — the planned
/// output — when no third group exists.
pub(crate) fn valiant_decision(
    plan: &HeadPlan,
    router: &Router,
    packet: &Packet,
    rng: &mut DeterministicRng,
) -> Decision {
    let minimal = Decision::minimal(plan.output(), plan.vc);
    if !plan.has(HeadPlan::GLOBAL_SCOPE) {
        return minimal;
    }
    let topo = router.topology();
    let src_group = topo.node_group(packet.src);
    let dst_group = topo.node_group(packet.dst);
    // under faults, only reachable intermediates are drawn (identical RNG
    // sequence on a healthy network, where the gate below is never taken);
    // at the source (hops == 0) any first hop is ladder-legal
    let picked = if router.any_link_down() {
        common::pick_live_intermediate(router, src_group, dst_group, false, rng)
    } else {
        common::pick_intermediate_router(router, src_group, dst_group, rng)
    };
    match picked {
        Some(intermediate) if intermediate != router.id() => {
            common::valiant_first_hop(router, packet, intermediate, true)
        }
        _ => minimal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::{Commitment, DecisionKind};
    use df_model::{NetworkConfig, Packet, PacketId};
    use df_topology::{Dragonfly, DragonflyParams, NodeId, Port, RouterId};

    fn router(id: u32) -> Router {
        let topo = Dragonfly::new(DragonflyParams::small());
        Router::new(RouterId(id), topo, NetworkConfig::fast_test())
    }

    fn packet(src: u32, dst: u32) -> Packet {
        Packet::new(PacketId(0), NodeId(src), NodeId(dst), 8, 0)
    }

    /// The whole decision — plan, then the VAL rule.
    fn valiant_decision(
        router: &Router,
        input_port: Port,
        packet: &Packet,
        rng: &mut DeterministicRng,
    ) -> Decision {
        crate::RoutingAlgorithm::new(crate::RoutingKind::Valiant, Default::default())
            .decide(router, input_port, packet, rng)
    }

    #[test]
    fn val_commits_an_intermediate_at_the_source() {
        let r = router(0);
        let p = packet(0, 40); // source node 0 attaches to router 0
        let mut rng = DeterministicRng::new(5);
        let d = valiant_decision(&r, Port(0), &p, &mut rng);
        assert_eq!(d.kind, DecisionKind::NonminimalGlobal);
        match d.commitment {
            Commitment::Intermediate {
                router: inter,
                misroute,
            } => {
                assert!(misroute);
                let g = r.topology().router_group(inter);
                assert_ne!(g, r.topology().node_group(NodeId(0)));
                assert_ne!(g, r.topology().node_group(NodeId(40)));
            }
            other => panic!("expected intermediate, got {other:?}"),
        }
    }

    #[test]
    fn val_in_transit_is_minimal() {
        let r = router(10);
        let mut p = packet(0, 40);
        p.routing.local_hops = 1; // not at the source any more
        let mut rng = DeterministicRng::new(5);
        let d = valiant_decision(&r, Port(3), &p, &mut rng);
        assert_eq!(d.kind, DecisionKind::Minimal);
    }

    #[test]
    fn val_falls_back_to_minimal_without_a_third_group() {
        let topo = Dragonfly::new(DragonflyParams::new(2, 4, 2, 2).unwrap());
        let r = Router::new(RouterId(0), topo, NetworkConfig::fast_test());
        let p = packet(0, 10); // group 1 destination
        let mut rng = DeterministicRng::new(5);
        let d = valiant_decision(&r, Port(0), &p, &mut rng);
        assert_eq!(d.kind, DecisionKind::Minimal);
    }
}
