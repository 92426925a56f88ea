//! Phase-based virtual-channel assignment (deadlock avoidance).
//!
//! The VC of every hop is derived from the packet's *routing phase* rather
//! than from raw hop counts, following the canonical Dragonfly scheme
//! (Kim et al., ISCA'08, extended for nonminimal in-transit routing):
//!
//! | hop | phase | VC |
//! |-----|-------|----|
//! | local, no global hop taken yet (source group)            | `g = 0` | local 0 |
//! | first global hop                                          |         | global 0 |
//! | local after one global hop (intermediate or destination group) | `g = 1` | local 1, then 2 for a detour/Valiant second hop |
//! | second global hop (nonminimal paths only)                 |         | global 1 |
//! | local after two global hops (destination group)           | `g = 2` | local 3 |
//!
//! Every allowed path visits these resources in the order
//! `L0 → G0 → L1 → L2 → G1 → L3`, i.e. the VC rank strictly increases along
//! any path, so the channel dependency graph is acyclic and the network is
//! deadlock-free. Crucially, destination-group local hops never share a VC
//! with source-group local hops — that sharing is exactly what creates the
//! credit cycle around the ring of groups under ADV+1 traffic.
//!
//! The assignment needs 4 local VCs and 2 global VCs (Table I uses 3 local
//! VCs for the OLM/contention family and 4 for VAL/PB; the uniform budget of
//! 4 is the deviation documented on `df_model::VcConfig`). It also implies
//! one policy restriction enforced by `local_detour_fits`: a packet that
//! has already taken its *second* global hop (a globally misrouted packet
//! arriving in its destination group) may not take a local detour there,
//! because that hop would need a fifth local VC.

use df_model::{NetworkConfig, Packet, VcId};
use df_topology::PortClass;

/// Maximum local VC index any hop can be assigned (0-based), i.e. the scheme
/// needs `MAX_LOCAL_VC + 1 = 4` local VCs.
pub(crate) const MAX_LOCAL_VC: u8 = 3;

/// Maximum global VC index (the scheme needs 2 global VCs).
pub(crate) const MAX_GLOBAL_VC: u8 = 1;

/// The VC of a packet's first hop, through a port of any class: a packet
/// that has taken no hop is on the first rung of both ladders.
pub(crate) const FIRST_HOP_VC: VcId = VcId(0);

/// The local VC a packet would use for its next local hop, given its phase.
fn next_local_vc(packet: &Packet) -> u8 {
    let g = packet.routing.global_hops;
    let l = packet.routing.local_hops_since_global;
    match g {
        0 => l,     // source group: 0 (a second pre-global local hop is never allowed)
        1 => 1 + l, // intermediate or destination group: 1, 2
        _ => 3 + l, // destination group after a nonminimal global hop: 3
    }
}

/// The VC a packet must use on its next hop through a port of class
/// `output_class`.
///
/// # Panics
/// Panics (debug builds) if the routing policy requests a hop that exceeds
/// the VC budget — allowed paths never do.
pub(crate) fn vc_for_next_hop(
    packet: &Packet,
    output_class: PortClass,
    config: &NetworkConfig,
) -> VcId {
    match output_class {
        PortClass::Terminal => VcId(0),
        PortClass::Local => {
            let vc = next_local_vc(packet);
            debug_assert!(
                vc <= MAX_LOCAL_VC,
                "packet {:?} needs local VC {vc} which exceeds the budget",
                packet.id
            );
            VcId(vc.min(config.vcs.local - 1))
        }
        PortClass::Global => {
            let vc = packet.routing.global_hops;
            debug_assert!(
                vc <= MAX_GLOBAL_VC,
                "packet {:?} needs global VC {vc} which exceeds the budget",
                packet.id
            );
            VcId(vc.min(config.vcs.global - 1))
        }
    }
}

/// Whether a packet may take a local detour (one extra local hop) in its
/// current group without exceeding the VC budget.
///
/// Detours are possible only in the phase after the first global hop
/// (`global_hops == 1`, i.e. the intermediate group of a nonminimal path or
/// the destination group of a minimal one) and before any other local hop was
/// taken in that group: the detour then uses local VC `1 + l` and the
/// remaining minimal local hops still fit under [`MAX_LOCAL_VC`].
pub(crate) fn local_detour_fits(
    packet: &Packet,
    remaining_minimal_locals: u8,
    config: &NetworkConfig,
) -> bool {
    if packet.routing.global_hops != 1 {
        return false;
    }
    let budget = config.vcs.local.min(MAX_LOCAL_VC + 1);
    // detour consumes VC 1 + l, each remaining minimal local consumes the
    // next indices; the last destination-group hop after a second global hop
    // uses VC 3, which is accounted for by the caller via
    // `remaining_minimal_locals`.
    let l = packet.routing.local_hops_since_global;
    1 + l + remaining_minimal_locals < budget
}

/// Whether a packet may still commit to a nonminimal global path: it must not
/// have taken any global hop yet, and the VC budget must cover the worst
/// remaining path (`l g l l g l`).
pub(crate) fn global_misroute_fits(packet: &Packet, config: &NetworkConfig) -> bool {
    packet.routing.global_hops == 0 && config.vcs.global >= 2 && config.vcs.local > MAX_LOCAL_VC
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_model::{NetworkConfig, Packet, PacketId};
    use df_topology::NodeId;

    fn packet(local_total: u8, global: u8, local_since: u8) -> Packet {
        let mut p = Packet::new(PacketId(0), NodeId(0), NodeId(1), 8, 0);
        p.routing.local_hops = local_total;
        p.routing.global_hops = global;
        p.routing.local_hops_since_global = local_since;
        p
    }

    #[test]
    fn phase_based_vcs_follow_the_canonical_sequence() {
        let c = NetworkConfig::default();
        // source group local hop
        assert_eq!(
            vc_for_next_hop(&packet(0, 0, 0), PortClass::Local, &c),
            VcId(0)
        );
        // first global hop
        assert_eq!(
            vc_for_next_hop(&packet(1, 0, 1), PortClass::Global, &c),
            VcId(0)
        );
        assert_eq!(
            vc_for_next_hop(&packet(0, 0, 0), PortClass::Global, &c),
            VcId(0)
        );
        // local after one global hop: VC1, a second one VC2
        assert_eq!(
            vc_for_next_hop(&packet(1, 1, 0), PortClass::Local, &c),
            VcId(1)
        );
        assert_eq!(
            vc_for_next_hop(&packet(2, 1, 1), PortClass::Local, &c),
            VcId(2)
        );
        // second global hop
        assert_eq!(
            vc_for_next_hop(&packet(2, 1, 1), PortClass::Global, &c),
            VcId(1)
        );
        // destination-group local after the second global hop
        assert_eq!(
            vc_for_next_hop(&packet(2, 2, 0), PortClass::Local, &c),
            VcId(3)
        );
        // ejection
        assert_eq!(
            vc_for_next_hop(&packet(3, 2, 1), PortClass::Terminal, &c),
            VcId(0)
        );
    }

    #[test]
    fn every_first_hop_is_on_the_first_hop_vc() {
        let c = NetworkConfig::default();
        for class in [PortClass::Terminal, PortClass::Local, PortClass::Global] {
            assert_eq!(vc_for_next_hop(&packet(0, 0, 0), class, &c), FIRST_HOP_VC);
        }
    }

    #[test]
    fn gateway_injected_traffic_does_not_reuse_vc0_in_the_destination_group() {
        // the credit cycle that deadlocks ADV+1 under minimal routing arises
        // exactly when this assertion is violated
        let c = NetworkConfig::default();
        let after_global = packet(0, 1, 0); // injected at the gateway, took only the global hop
        assert_ne!(
            vc_for_next_hop(&after_global, PortClass::Local, &c),
            VcId(0),
            "destination-group local hops must not share VC0 with source-group hops"
        );
    }

    #[test]
    fn vcs_strictly_increase_along_the_worst_case_path() {
        // l g l l g l — the worst allowed path; ranks must strictly increase
        let c = NetworkConfig::default();
        let mut p = packet(0, 0, 0);
        let mut ranks = Vec::new();
        for class in [
            PortClass::Local,
            PortClass::Global,
            PortClass::Local,
            PortClass::Local,
            PortClass::Global,
            PortClass::Local,
        ] {
            let vc = vc_for_next_hop(&p, class, &c);
            // rank on the canonical L0 G0 L1 L2 G1 L3 order
            let rank = match (class, vc.0) {
                (PortClass::Local, 0) => 0,
                (PortClass::Global, 0) => 1,
                (PortClass::Local, 1) => 2,
                (PortClass::Local, 2) => 3,
                (PortClass::Global, 1) => 4,
                (PortClass::Local, 3) => 5,
                other => panic!("unexpected (class, vc) = {other:?}"),
            };
            ranks.push(rank);
            match class {
                PortClass::Local => {
                    p.routing.local_hops += 1;
                    p.routing.local_hops_since_global += 1;
                }
                PortClass::Global => {
                    p.routing.global_hops += 1;
                    p.routing.local_hops_since_global = 0;
                }
                PortClass::Terminal => {}
            }
        }
        assert!(
            ranks.windows(2).all(|w| w[0] < w[1]),
            "ranks {ranks:?} must increase"
        );
        assert_eq!(ranks, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn local_detour_budget_follows_the_phase() {
        let c = NetworkConfig::default();
        // in the intermediate group right after the global hop: allowed
        assert!(local_detour_fits(&packet(1, 1, 0), 2, &c));
        // after already taking a local hop in that group: the detour plus the
        // two remaining minimal locals would exceed the budget
        assert!(!local_detour_fits(&packet(2, 1, 1), 2, &c));
        // in the destination group of a minimal path: allowed
        assert!(local_detour_fits(&packet(1, 1, 0), 1, &c));
        // in the destination group after a nonminimal global hop: forbidden
        assert!(!local_detour_fits(&packet(2, 2, 0), 1, &c));
        // before any global hop: local detours are never taken
        assert!(!local_detour_fits(&packet(1, 0, 1), 1, &c));
    }

    #[test]
    fn global_misroute_budget() {
        let c = NetworkConfig::default();
        assert!(global_misroute_fits(&packet(0, 0, 0), &c));
        assert!(global_misroute_fits(&packet(1, 0, 1), &c));
        assert!(
            !global_misroute_fits(&packet(1, 1, 0), &c),
            "already took a global hop"
        );
        // a configuration with too few VCs cannot support misrouting at all
        let mut tight = NetworkConfig::default();
        tight.vcs.global = 1;
        assert!(!global_misroute_fits(&packet(0, 0, 0), &tight));
    }
}
