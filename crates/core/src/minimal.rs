//! Minimal-path queries used by every routing mechanism and by the
//! contention-counter registration.
//!
//! The contention counters track "the minimal output port of each packet,
//! regardless of its actual followed path" (§VII), so these helpers compute
//! the *hierarchical minimal* next hop towards the packet's destination from
//! the router it currently occupies — even for packets that have already been
//! misrouted.

use df_model::Packet;
use df_topology::{NodeId, Port, PortClass, RouterId, Topology};

/// The output port a packet at `router` would take on the hierarchical
/// minimal path towards node `dst`.
pub fn minimal_output(topo: &impl Topology, router: RouterId, dst: NodeId) -> Port {
    let dst_router = topo.node_router(dst);
    if dst_router == router {
        return topo.node_port(dst);
    }
    minimal_output_to_router(topo, router, dst_router)
}

/// The output port a packet at `router` would take on the hierarchical
/// minimal path towards `target` (a router).
pub(crate) fn minimal_output_to_router(
    topo: &impl Topology,
    router: RouterId,
    target: RouterId,
) -> Port {
    debug_assert_ne!(router, target, "already at the target router");
    let my_group = topo.router_group(router);
    let target_group = topo.router_group(target);
    if my_group == target_group {
        return topo.local_hop_toward(router, target);
    }
    let (gateway, gport) = topo.gateway_to(my_group, target_group);
    if gateway == router {
        gport
    } else {
        topo.local_hop_toward(router, gateway)
    }
}

/// Number of hops of the hierarchical minimal path between two routers.
pub fn minimal_hops_to_router(topo: &impl Topology, router: RouterId, target: RouterId) -> u32 {
    if router == target {
        return 0;
    }
    let my_group = topo.router_group(router);
    let target_group = topo.router_group(target);
    if my_group == target_group {
        return topo.local_hops_between(router, target);
    }
    let (gateway, gport) = topo.gateway_to(my_group, target_group);
    let (entry, _) = topo
        .global_neighbor(gateway, gport.class_offset(&topo.layout()))
        .expect("populated groups are connected");
    // the global hop plus whatever local hops flank it on each side
    1 + topo.local_hops_between(router, gateway) + topo.local_hops_between(entry, target)
}

/// The group-level global link (`0..a*h`) the ECtN partial array must be
/// charged for a packet sitting at `router`, or `None` when ECtN does not
/// track it (destination in the current group, or the packet arrived through
/// a local port — the paper only counts injection queues and global input
/// ports).
pub fn ectn_link_for(
    topo: &impl Topology,
    router: RouterId,
    input_class: PortClass,
    packet: &Packet,
) -> Option<u32> {
    if !matches!(input_class, PortClass::Terminal | PortClass::Global) {
        return None;
    }
    let my_group = topo.router_group(router);
    let dst_group = topo.node_group(packet.dst);
    if dst_group == my_group {
        return None;
    }
    Some(topo.group_link_to(my_group, dst_group))
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_model::PacketId;
    use df_topology::{Dragonfly, DragonflyParams, GroupId};

    fn topo() -> Dragonfly {
        Dragonfly::new(DragonflyParams::small())
    }

    fn packet(src: u32, dst: u32) -> Packet {
        Packet::new(PacketId(0), NodeId(src), NodeId(dst), 8, 0)
    }

    #[test]
    fn ejection_port_at_destination_router() {
        let t = topo();
        let dst = NodeId(13);
        let r = t.node_router(dst);
        assert_eq!(minimal_output(&t, r, dst), t.node_port(dst));
        assert_eq!(minimal_hops_to_router(&t, r, r), 0);
    }

    #[test]
    fn local_hop_within_group() {
        let t = topo();
        // nodes 0..8 are in group 0 (p=2, a=4)
        let dst = NodeId(7); // router 3, group 0
        let port = minimal_output(&t, RouterId(0), dst);
        assert_eq!(port.class(t.params()), PortClass::Local);
        assert_eq!(
            minimal_hops_to_router(&t, RouterId(0), t.node_router(dst)),
            1
        );
        // following it reaches the destination router
        let n = t.local_neighbor(RouterId(0), port.class_offset(t.params()));
        assert_eq!(n, t.node_router(dst));
    }

    #[test]
    fn remote_group_goes_through_the_gateway() {
        let t = topo();
        for dst in t.nodes() {
            for r in t.routers() {
                if t.node_router(dst) == r {
                    continue;
                }
                let port = minimal_output(&t, r, dst);
                let dst_group = t.node_group(dst);
                let my_group = t.router_group(r);
                if my_group == dst_group {
                    assert_eq!(port.class(t.params()), PortClass::Local);
                } else {
                    let (gw, gport) = t.gateway_to(my_group, dst_group);
                    if gw == r {
                        assert_eq!(port, gport, "gateway router must take its global link");
                    } else {
                        assert_eq!(port.class(t.params()), PortClass::Local);
                        let n = t.local_neighbor(r, port.class_offset(t.params()));
                        assert_eq!(n, gw, "local hop must head to the gateway");
                    }
                }
            }
        }
    }

    #[test]
    fn minimal_hop_counts_match_the_path_module() {
        let t = topo();
        for r in t.routers() {
            for dst in t.nodes().step_by(7) {
                let hops = minimal_hops_to_router(&t, r, t.node_router(dst));
                let path = df_topology::path::minimal_path(&t, r, t.node_router(dst));
                assert_eq!(hops as usize, path.len(), "hops {r}->{dst}");
                assert!(hops <= 3);
            }
        }
    }

    #[test]
    fn ectn_link_only_for_injection_and_global_inputs_to_remote_groups() {
        let t = topo();
        let r = RouterId(0);
        let remote = packet(0, 70); // node 70 is in the last group
        let local = packet(0, 5); // node 5 is in group 0
                                  // injection port, remote destination: tracked
        let link = ectn_link_for(&t, r, PortClass::Terminal, &remote).unwrap();
        assert_eq!(
            t.global_link_target_group(GroupId(0), link).unwrap(),
            t.node_group(NodeId(70))
        );
        // global input, remote destination: tracked
        assert!(ectn_link_for(&t, r, PortClass::Global, &remote).is_some());
        // local input: never tracked
        assert!(ectn_link_for(&t, r, PortClass::Local, &remote).is_none());
        // destination in this group: never tracked
        assert!(ectn_link_for(&t, r, PortClass::Terminal, &local).is_none());
    }
}
