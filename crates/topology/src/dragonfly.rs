//! The [`Dragonfly`] topology object: coordinates, wiring and neighbour
//! queries.
//!
//! # Wiring convention (palmtree arrangement)
//!
//! Within a group the `a` routers form a complete graph over their local
//! ports. Between groups, the *palmtree* arrangement of Camarero et al.
//! (TACO'14) is used, the same arrangement as the paper's Table I:
//!
//! * the global link with **group-level index** `j = r*h + k` (router local
//!   index `r`, global-port offset `k`) of group `G` connects to group
//!   `(G + j + 1) mod (a*h + 1)`;
//! * the peer end of that link is the global link with group-level index
//!   `a*h - 1 - j` of the destination group.
//!
//! This wiring is symmetric (following a link forth and back returns to the
//! same router/port) and, for any pair of distinct groups, provides exactly
//! one connecting global link, which keeps minimal routes unique — the
//! property the paper relies on to associate one contention counter with the
//! minimal path of each packet.
//!
//! Partially-populated networks (`groups < a*h + 1`) are supported: the same
//! formula is used and ports whose peer group does not exist are reported as
//! unconnected.

use crate::ids::{GroupId, NodeId, RouterId};
use crate::layout::RadixLayout;
use crate::params::{DragonflyParams, ParamsError};
use crate::port::Port;
use crate::topology::{Topology, TopologyKind};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// What is attached at the far end of a router port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortPeer {
    /// A compute node (terminal ports).
    Node(NodeId),
    /// Another router, reached through the given port *of that router*.
    Router(RouterId, Port),
    /// The port is not wired (only possible for global ports of
    /// partially-populated networks).
    Unconnected,
}

/// A canonical Dragonfly topology.
///
/// The object is cheap (it stores only the parameters); all queries are
/// computed arithmetically, so it can be freely cloned and shared between
/// routers, traffic generators and routing algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dragonfly {
    params: DragonflyParams,
}

impl Dragonfly {
    /// Build a topology from validated parameters.
    pub fn new(params: DragonflyParams) -> Self {
        Dragonfly { params }
    }

    /// Build a fully-populated canonical Dragonfly from `(p, a, h)`.
    pub fn canonical(p: u32, a: u32, h: u32) -> Result<Self, ParamsError> {
        Ok(Dragonfly::new(DragonflyParams::canonical(p, a, h)?))
    }

    /// Access the sizing parameters.
    #[inline]
    pub fn params(&self) -> &DragonflyParams {
        &self.params
    }
}

impl Topology for Dragonfly {
    #[inline]
    fn kind(&self) -> TopologyKind {
        TopologyKind::Dragonfly
    }
    #[inline]
    fn layout(&self) -> RadixLayout {
        RadixLayout::of(&self.params)
    }
    #[inline]
    fn num_groups(&self) -> u32 {
        self.params.num_groups()
    }
    #[inline]
    fn routers_per_group(&self) -> u32 {
        self.params.a
    }
    #[inline]
    fn nodes_per_group(&self) -> u32 {
        self.params.nodes_per_group()
    }
    #[inline]
    fn global_links_per_group(&self) -> u32 {
        self.params.global_links_per_group()
    }

    #[inline]
    fn node_router(&self, node: NodeId) -> RouterId {
        RouterId(node.0 / self.params.p)
    }
    #[inline]
    fn router_node_span(&self, router: RouterId) -> Range<u32> {
        let p = self.params.p;
        router.0 * p..(router.0 + 1) * p
    }

    // ---------------------------------------------------------------------
    // Local (intra-group) wiring — a complete graph
    // ---------------------------------------------------------------------

    /// The complete-graph wiring skips the router itself: offsets `0..a-1`
    /// map to the other routers in increasing local index.
    #[inline]
    fn local_neighbor(&self, router: RouterId, k: u32) -> RouterId {
        let a = self.params.a;
        debug_assert!(k < a - 1);
        let me = self.router_local_index(router);
        let neighbor_index = if k < me { k } else { k + 1 };
        self.router_at(self.router_group(router), neighbor_index)
    }
    #[inline]
    fn local_port_to(&self, router: RouterId, neighbor: RouterId) -> Port {
        debug_assert_eq!(self.router_group(router), self.router_group(neighbor));
        debug_assert_ne!(router, neighbor);
        let me = self.router_local_index(router);
        let other = self.router_local_index(neighbor);
        let k = if other < me { other } else { other - 1 };
        Port::local(&self.params, k)
    }
    #[inline]
    fn local_hops_between(&self, a: RouterId, b: RouterId) -> u32 {
        u32::from(a != b)
    }

    // ---------------------------------------------------------------------
    // Global (inter-group) wiring — palmtree arrangement
    // ---------------------------------------------------------------------

    #[inline]
    fn global_link_index(&self, router: RouterId, k: u32) -> u32 {
        debug_assert!(k < self.params.h);
        self.router_local_index(router) * self.params.h + k
    }
    #[inline]
    fn global_link_owner(&self, group: GroupId, j: u32) -> (RouterId, Port) {
        debug_assert!(j < self.params.global_links_per_group());
        let r = j / self.params.h;
        let k = j % self.params.h;
        (self.router_at(group, r), Port::global(&self.params, k))
    }

    // ---------------------------------------------------------------------
    // Routing-mechanism hooks
    // ---------------------------------------------------------------------

    #[inline]
    fn own_globals(&self, _router: RouterId) -> u32 {
        self.params.h
    }
    #[inline]
    fn intermediates_per_group(&self) -> u32 {
        self.params.a
    }
    #[inline]
    fn local_misroute_degree(&self, _router: RouterId) -> u32 {
        self.params.a - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn df() -> Dragonfly {
        Dragonfly::new(DragonflyParams::small()) // p=2, a=4, h=2, 9 groups
    }

    #[test]
    fn local_wiring_is_a_complete_graph() {
        let t = df();
        let a = t.params().a;
        for router in t.routers() {
            let mut seen = std::collections::HashSet::new();
            for k in 0..a - 1 {
                let n = t.local_neighbor(router, k);
                assert_ne!(n, router, "no self-links");
                assert_eq!(t.router_group(n), t.router_group(router));
                seen.insert(n);
            }
            assert_eq!(seen.len(), (a - 1) as usize, "all distinct neighbours");
        }
    }

    #[test]
    fn local_wiring_is_symmetric() {
        let t = df();
        for router in t.routers() {
            for k in 0..t.params().a - 1 {
                let n = t.local_neighbor(router, k);
                let back = t.local_port_to(n, router);
                assert_eq!(t.local_neighbor(n, back.class_offset(t.params())), router);
            }
        }
    }

    #[test]
    fn global_wiring_is_symmetric() {
        let t = df();
        for router in t.routers() {
            for k in 0..t.params().h {
                let (peer, peer_port) = t.global_neighbor(router, k).expect("fully populated");
                let k_back = peer_port.class_offset(t.params());
                let (back, back_port) = t.global_neighbor(peer, k_back).expect("fully populated");
                assert_eq!(back, router, "global link is bidirectional");
                assert_eq!(back_port.class_offset(t.params()), k);
            }
        }
    }

    #[test]
    fn every_pair_of_groups_has_exactly_one_link() {
        let t = df();
        let groups = t.num_groups();
        let mut count = vec![vec![0u32; groups as usize]; groups as usize];
        for router in t.routers() {
            let g = t.router_group(router);
            for k in 0..t.params().h {
                let (peer, _) = t.global_neighbor(router, k).unwrap();
                let pg = t.router_group(peer);
                assert_ne!(pg, g, "global links leave the group");
                count[g.index()][pg.index()] += 1;
            }
        }
        for (g1, row) in count.iter().enumerate() {
            for (g2, &links) in row.iter().enumerate() {
                if g1 == g2 {
                    assert_eq!(links, 0);
                } else {
                    assert_eq!(links, 1, "groups {g1}->{g2} must have one link");
                }
            }
        }
    }

    #[test]
    fn gateway_matches_global_wiring() {
        let t = df();
        for g1 in t.groups() {
            for g2 in t.groups() {
                if g1 == g2 {
                    continue;
                }
                let (gw, port) = t.gateway_to(g1, g2);
                assert_eq!(t.router_group(gw), g1);
                let (peer, _) = t
                    .global_neighbor(gw, port.class_offset(t.params()))
                    .unwrap();
                assert_eq!(t.router_group(peer), g2, "gateway {g1}->{g2} lands in {g2}");
            }
        }
    }

    #[test]
    fn group_link_index_round_trips_with_owner() {
        let t = df();
        for g in t.groups() {
            for j in 0..t.params().global_links_per_group() {
                let (r, port) = t.global_link_owner(g, j);
                assert_eq!(t.router_group(r), g);
                assert_eq!(t.global_link_index(r, port.class_offset(t.params())), j);
            }
        }
    }

    #[test]
    fn partially_populated_network_has_unconnected_ports() {
        let t = Dragonfly::new(DragonflyParams::new(2, 4, 2, 5).unwrap());
        let mut unconnected = 0;
        for router in t.routers() {
            for k in 0..t.params().h {
                if t.global_neighbor(router, k).is_none() {
                    unconnected += 1;
                }
            }
        }
        assert!(
            unconnected > 0,
            "5 of 9 groups populated leaves dangling links"
        );
        // but all populated group pairs remain connected
        for g1 in t.groups() {
            for g2 in t.groups() {
                if g1 != g2 {
                    let (gw, port) = t.gateway_to(g1, g2);
                    let (peer, _) = t
                        .global_neighbor(gw, port.class_offset(t.params()))
                        .expect("populated pairs stay wired");
                    assert_eq!(t.router_group(peer), g2);
                }
            }
        }
    }

    #[test]
    fn paper_scale_spot_checks() {
        let t = Dragonfly::new(DragonflyParams::paper_table1());
        assert_eq!(t.num_nodes(), 16_512);
        assert_eq!(t.num_routers(), 2_064);
        assert_eq!(t.num_groups(), 129);
        // last node belongs to the last router of the last group
        let last = NodeId(t.num_nodes() - 1);
        assert_eq!(t.node_router(last), RouterId(t.num_routers() - 1));
        assert_eq!(t.node_group(last), GroupId(128));
        // global wiring symmetric for a few routers
        for r in [0u32, 1, 17, 1000, 2063] {
            for k in 0..8 {
                let (peer, pport) = t.global_neighbor(RouterId(r), k).unwrap();
                let (back, _) = t
                    .global_neighbor(peer, pport.class_offset(t.params()))
                    .unwrap();
                assert_eq!(back, RouterId(r));
            }
        }
    }
}
