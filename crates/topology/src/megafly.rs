//! The [`Megafly`] (Dragonfly+) topology: bipartite leaf/spine groups.
//!
//! A Megafly group is a complete bipartite graph between `l` **leaf**
//! routers (each attaching `p` compute nodes, no global links) and `s`
//! **spine** routers (each owning `h` global links, no nodes). Groups are
//! connected by the same *palmtree* arrangement as the canonical Dragonfly,
//! over the `s*h` group-level global links, so there is exactly one global
//! link between every pair of populated groups and at most `s*h + 1`
//! groups.
//!
//! # Numbering
//!
//! * Routers of a group are numbered leaves first: local indices `0..l` are
//!   leaves, `l..l+s` are spines. Global router ids are
//!   `group * (l+s) + local_index`.
//! * Nodes are dense: leaf `i` of group `G` attaches nodes
//!   `(G*l + i)*p .. (G*l + i + 1)*p`, so node ids cover `0..p*l*groups`
//!   with no spine-shaped holes.
//! * Every router uses the same padded [`PortLayout`]: `p` terminal
//!   indices (unconnected on spines), `s` local indices, `h` global
//!   indices (unconnected on leaves). The uniform radix keeps the router
//!   model's flat port arrays and the snapshot wire format identical in
//!   shape to the Dragonfly's.
//!
//! # Minimal paths and spreading
//!
//! A leaf-to-leaf path within a group crosses one spine; the spine is
//! chosen deterministically as `(src_leaf + dst_leaf) mod s`, which spreads
//! distinct pairs over distinct spines while keeping the oracle
//! self-consistent (following the first hop and re-querying continues the
//! same path). Spine-to-spine movement crosses leaf
//! `(src_spine + dst_spine) mod l` the same way. The balanced `l == s`
//! block shape is enforced at construction.

use crate::ids::{GroupId, NodeId, RouterId};
use crate::layout::{PortLayout, RadixLayout};
use crate::params::ParamsError;
use crate::port::Port;
use crate::topology::{Topology, TopologyKind};
use std::ops::Range;

/// Sizing parameters of a Megafly / Dragonfly+ network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MegaflyParams {
    /// Compute nodes attached to each leaf router.
    pub p: u32,
    /// Leaf routers in each group.
    pub l: u32,
    /// Spine routers in each group (must equal `l`: balanced blocks).
    pub s: u32,
    /// Global links per spine router.
    pub h: u32,
    /// Number of groups actually populated (`<= s*h + 1`).
    pub groups: u32,
}

impl MegaflyParams {
    /// Create a parameter set, validating the balanced-block and palmtree
    /// constraints.
    pub fn new(p: u32, l: u32, s: u32, h: u32, groups: u32) -> Result<Self, ParamsError> {
        if p == 0 || l == 0 || s == 0 || h == 0 || groups == 0 {
            return Err(ParamsError::ZeroParameter);
        }
        if l != s {
            return Err(ParamsError::UnbalancedBlock { l, s });
        }
        if groups < 2 {
            return Err(ParamsError::TooFewGroups);
        }
        let max = s * h + 1;
        if groups > max {
            return Err(ParamsError::TooManyGroups {
                requested: groups,
                max,
            });
        }
        Ok(MegaflyParams { p, l, s, h, groups })
    }

    /// Fully-populated Megafly: balanced `l == s` blocks, `groups = l*h+1`.
    pub(crate) fn canonical(p: u32, l: u32, h: u32) -> Result<Self, ParamsError> {
        Self::new(p, l, l, h, l * h + 1)
    }

    /// A small instance for fast tests and CI, sized like the Dragonfly
    /// `small()`: `p=2, l=s=4, h=2`, 9 groups, 72 nodes, 72 routers.
    pub fn small() -> Self {
        Self::canonical(2, 4, 2).expect("small parameters are valid")
    }

    /// A tiny instance where hand-checking paths is feasible:
    /// `p=1, l=s=2, h=1`, 3 groups, 6 nodes, 12 routers.
    pub fn tiny() -> Self {
        Self::canonical(1, 2, 1).expect("tiny parameters are valid")
    }

    /// A medium, laptop-friendly instance sized like the Dragonfly
    /// `medium()`: `p=4, l=s=8, h=4`, 33 groups, 1,056 nodes.
    pub fn medium() -> Self {
        Self::canonical(4, 8, 4).expect("medium parameters are valid")
    }

    /// Number of routers in the whole network (`(l+s) * groups`).
    #[inline]
    pub fn num_routers(&self) -> u32 {
        (self.l + self.s) * self.groups
    }

    /// Number of compute nodes in the whole network (`p*l*groups`).
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.p * self.l * self.groups
    }

    /// Number of groups.
    #[inline]
    pub fn num_groups(&self) -> u32 {
        self.groups
    }

    /// Routers per group (`l + s`).
    #[inline]
    pub(crate) fn routers_per_group(&self) -> u32 {
        self.l + self.s
    }

    /// Compute nodes per group (`p*l`).
    #[inline]
    pub(crate) fn nodes_per_group(&self) -> u32 {
        self.p * self.l
    }

    /// Number of global links leaving each group (`s*h`).
    #[inline]
    pub(crate) fn global_links_per_group(&self) -> u32 {
        self.s * self.h
    }

    /// Whether the instance is fully populated (`groups == s*h + 1`).
    #[inline]
    pub fn is_fully_populated(&self) -> bool {
        self.groups == self.s * self.h + 1
    }

    /// The uniform padded port layout.
    #[inline]
    pub(crate) fn layout(&self) -> RadixLayout {
        RadixLayout::of(self)
    }
}

impl PortLayout for MegaflyParams {
    #[inline]
    fn terminals(&self) -> u32 {
        self.p
    }
    #[inline]
    fn locals(&self) -> u32 {
        self.s
    }
    #[inline]
    fn globals(&self) -> u32 {
        self.h
    }
}

/// A Megafly / Dragonfly+ topology. Like [`Dragonfly`], the object stores
/// only its parameters; every query is arithmetic.
///
/// [`Dragonfly`]: crate::dragonfly::Dragonfly
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Megafly {
    params: MegaflyParams,
}

impl Megafly {
    /// Build a topology from validated parameters.
    pub fn new(params: MegaflyParams) -> Self {
        Megafly { params }
    }

    /// Access the sizing parameters.
    #[inline]
    pub fn params(&self) -> &MegaflyParams {
        &self.params
    }

    /// Whether `router` is a leaf (attaches nodes, no global links).
    #[inline]
    pub fn is_leaf(&self, router: RouterId) -> bool {
        self.router_local_index(router) < self.params.l
    }

    /// Whether `router` is a spine (owns global links, no nodes).
    #[inline]
    pub(crate) fn is_spine(&self, router: RouterId) -> bool {
        !self.is_leaf(router)
    }
}

impl Topology for Megafly {
    #[inline]
    fn kind(&self) -> TopologyKind {
        TopologyKind::Megafly
    }
    #[inline]
    fn layout(&self) -> RadixLayout {
        self.params.layout()
    }
    #[inline]
    fn num_groups(&self) -> u32 {
        self.params.num_groups()
    }
    #[inline]
    fn routers_per_group(&self) -> u32 {
        self.params.routers_per_group()
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
        let ordinal = node.0 / self.params.p;
        let group = ordinal / self.params.l;
        let leaf = ordinal % self.params.l;
        RouterId(group * self.params.routers_per_group() + leaf)
    }

    /// Leaves are dense in node order: leaf `i` of group `G` has ordinal
    /// `G*l + i` and attaches nodes `ordinal*p .. (ordinal + 1)*p`.
    #[inline]
    fn router_node_span(&self, router: RouterId) -> Range<u32> {
        if self.is_leaf(router) {
            let ordinal =
                self.router_group(router).0 * self.params.l + self.router_local_index(router);
            ordinal * self.params.p..(ordinal + 1) * self.params.p
        } else {
            0..0
        }
    }

    /// Leaf `i`'s local port `k` reaches spine `k`; spine `j`'s local port
    /// `k` reaches leaf `k` (complete bipartite wiring).
    #[inline]
    fn local_neighbor(&self, router: RouterId, k: u32) -> RouterId {
        debug_assert!(k < self.params.s);
        let group = self.router_group(router);
        if self.is_leaf(router) {
            self.router_at(group, self.params.l + k)
        } else {
            self.router_at(group, k)
        }
    }

    #[inline]
    fn local_port_to(&self, router: RouterId, neighbor: RouterId) -> Port {
        debug_assert_eq!(self.router_group(router), self.router_group(neighbor));
        debug_assert_ne!(
            self.is_leaf(router),
            self.is_leaf(neighbor),
            "only leaf-spine pairs are wired"
        );
        let other = self.router_local_index(neighbor);
        let offset = if self.is_leaf(router) {
            other - self.params.l
        } else {
            other
        };
        Port::local(&self.params, offset)
    }

    fn local_hop_toward(&self, from: RouterId, to: RouterId) -> Port {
        debug_assert_eq!(self.router_group(from), self.router_group(to));
        debug_assert_ne!(from, to);
        if self.is_leaf(from) != self.is_leaf(to) {
            return self.local_port_to(from, to);
        }
        // same side: cross the deterministically spread opposite router
        let fi = self.router_local_index(from);
        let ti = self.router_local_index(to);
        let offset = if self.is_leaf(from) {
            (fi + ti) % self.params.s
        } else {
            ((fi - self.params.l) + (ti - self.params.l)) % self.params.l
        };
        Port::local(&self.params, offset)
    }

    #[inline]
    fn local_hops_between(&self, a: RouterId, b: RouterId) -> u32 {
        if a == b {
            0
        } else if self.is_leaf(a) != self.is_leaf(b) {
            1
        } else {
            2
        }
    }

    /// Group-level link `j = spine*h + k` for spine-local-index `spine`.
    #[inline]
    fn global_link_index(&self, router: RouterId, k: u32) -> u32 {
        debug_assert!(k < self.params.h);
        debug_assert!(self.is_spine(router), "leaves own no global links");
        (self.router_local_index(router) - self.params.l) * self.params.h + k
    }

    #[inline]
    fn global_link_owner(&self, group: GroupId, j: u32) -> (RouterId, Port) {
        debug_assert!(j < self.params.global_links_per_group());
        let spine = j / self.params.h;
        let k = j % self.params.h;
        (
            self.router_at(group, self.params.l + spine),
            Port::global(&self.params, k),
        )
    }

    #[inline]
    fn own_globals(&self, router: RouterId) -> u32 {
        if self.is_spine(router) {
            self.params.h
        } else {
            0
        }
    }

    /// Valiant intermediates are the leaves (indices `0..l`): a leaf
    /// intermediate keeps the worst-case path inside the `L0 G0 L1 L2 G1
    /// L3` VC ladder, a spine intermediate would not.
    #[inline]
    fn intermediates_per_group(&self) -> u32 {
        self.params.l
    }

    /// Local misrouting is disabled: any leaf–leaf minimal path already
    /// crosses a spine chosen by the deterministic spreading, and a detour
    /// would add local hops the VC ladder cannot absorb.
    #[inline]
    fn local_misroute_degree(&self, _router: RouterId) -> u32 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PortClass, PortPeer};
    use std::collections::{HashSet, VecDeque};

    fn mf() -> Megafly {
        Megafly::new(MegaflyParams::small()) // p=2, l=s=4, h=2, 9 groups
    }

    #[test]
    fn parameter_validation() {
        assert_eq!(
            MegaflyParams::new(0, 4, 4, 2, 9),
            Err(ParamsError::ZeroParameter)
        );
        assert_eq!(
            MegaflyParams::new(2, 4, 3, 2, 9),
            Err(ParamsError::UnbalancedBlock { l: 4, s: 3 })
        );
        assert_eq!(
            MegaflyParams::new(2, 4, 4, 2, 10),
            Err(ParamsError::TooManyGroups {
                requested: 10,
                max: 9
            })
        );
        assert_eq!(
            MegaflyParams::new(2, 4, 4, 2, 1),
            Err(ParamsError::TooFewGroups)
        );
        let p = MegaflyParams::small();
        assert_eq!(p.num_nodes(), 72);
        assert_eq!(p.num_routers(), 72);
        assert_eq!(p.num_groups(), 9);
        assert_eq!(p.radix(), 8);
        assert_eq!(p.global_links_per_group(), 8);
        assert!(p.is_fully_populated());
    }

    #[test]
    fn coordinates_round_trip() {
        let t = mf();
        for node in t.nodes() {
            let r = t.node_router(node);
            assert!(t.is_leaf(r));
            let port = t.node_port(node);
            assert_eq!(t.node_at(r, port.class_offset(t.params())), node);
        }
        for router in t.routers() {
            let g = Topology::router_group(&t, router);
            let i = Topology::router_local_index(&t, router);
            assert_eq!(Topology::router_at(&t, g, i), router);
            let span = t.router_node_span(router);
            if t.is_leaf(router) {
                assert_eq!(span.len(), t.params().p as usize);
            } else {
                assert!(span.is_empty(), "spines attach no nodes");
            }
        }
        // node ids are dense: every id below num_nodes maps to a leaf
        let mut seen = vec![false; t.num_nodes() as usize];
        for router in t.routers() {
            for node in t.nodes_of_router(router) {
                assert!(!seen[node.index()]);
                seen[node.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "node ids must be dense");
    }

    #[test]
    fn local_wiring_is_bipartite_and_symmetric() {
        let t = mf();
        for router in t.routers() {
            for k in 0..t.params().s {
                let n = Topology::local_neighbor(&t, router, k);
                assert_ne!(n, router);
                assert_eq!(
                    Topology::router_group(&t, n),
                    Topology::router_group(&t, router)
                );
                assert_ne!(
                    t.is_leaf(n),
                    t.is_leaf(router),
                    "bipartite: no same-side links"
                );
                let back = Topology::local_port_to(&t, n, router);
                assert_eq!(
                    Topology::local_neighbor(&t, n, back.class_offset(t.params())),
                    router
                );
            }
        }
    }

    #[test]
    fn global_wiring_is_symmetric_and_spine_only() {
        let t = mf();
        for router in t.routers() {
            if t.is_leaf(router) {
                for port in (0..t.params().h).map(|k| Port::global(t.params(), k)) {
                    assert_eq!(t.peer(router, port), PortPeer::Unconnected);
                }
                continue;
            }
            for k in 0..t.params().h {
                let (peer, peer_port) = Topology::global_neighbor(&t, router, k).unwrap();
                assert!(t.is_spine(peer), "global links land on spines");
                let k_back = peer_port.class_offset(t.params());
                let (back, back_port) = Topology::global_neighbor(&t, peer, k_back).unwrap();
                assert_eq!(back, router, "global link is bidirectional");
                assert_eq!(back_port.class_offset(t.params()), k);
            }
        }
    }

    #[test]
    fn every_pair_of_groups_has_exactly_one_link() {
        let t = mf();
        let groups = t.num_groups();
        let mut count = vec![vec![0u32; groups as usize]; groups as usize];
        for router in t.routers() {
            if t.is_leaf(router) {
                continue;
            }
            let g = Topology::router_group(&t, router);
            for k in 0..t.params().h {
                let (peer, _) = Topology::global_neighbor(&t, router, k).unwrap();
                let pg = Topology::router_group(&t, peer);
                assert_ne!(pg, g);
                count[g.index()][pg.index()] += 1;
            }
        }
        for (g1, row) in count.iter().enumerate() {
            for (g2, &links) in row.iter().enumerate() {
                assert_eq!(links, u32::from(g1 != g2), "groups {g1}->{g2}");
            }
        }
    }

    #[test]
    fn gateway_matches_global_wiring() {
        let t = mf();
        for g1 in t.groups() {
            for g2 in t.groups() {
                if g1 == g2 {
                    continue;
                }
                let (gw, port) = Topology::gateway_to(&t, g1, g2);
                assert!(t.is_spine(gw), "gateways are spines");
                assert_eq!(Topology::router_group(&t, gw), g1);
                let (peer, _) =
                    Topology::global_neighbor(&t, gw, port.class_offset(t.params())).unwrap();
                assert_eq!(Topology::router_group(&t, peer), g2);
                // round trip through the link index
                let j = Topology::group_link_to(&t, g1, g2);
                assert_eq!(Topology::global_link_owner(&t, g1, j), (gw, port));
                assert_eq!(
                    Topology::global_link_index(&t, gw, port.class_offset(t.params())),
                    j
                );
            }
        }
    }

    #[test]
    fn peer_round_trips_and_pads_consistently() {
        let t = mf();
        for router in t.routers() {
            let mut nodes = 0;
            let mut routers = 0;
            let mut unconnected = 0;
            for port in Port::all(t.params()) {
                match t.peer(router, port) {
                    PortPeer::Node(n) => {
                        assert_eq!(t.node_router(n), router);
                        nodes += 1;
                    }
                    PortPeer::Router(peer, back) => {
                        match t.peer(peer, back) {
                            PortPeer::Router(me, my_port) => {
                                assert_eq!(me, router);
                                assert_eq!(my_port, port);
                            }
                            other => panic!("expected router peer, got {other:?}"),
                        }
                        routers += 1;
                    }
                    PortPeer::Unconnected => unconnected += 1,
                }
            }
            let p = t.params();
            if t.is_leaf(router) {
                assert_eq!((nodes, routers, unconnected), (p.p, p.s, p.h));
            } else {
                assert_eq!((nodes, routers, unconnected), (0, p.s + p.h, p.p));
            }
        }
    }

    /// BFS distance over the wired ports, for validating the oracle.
    fn bfs_hops(t: &Megafly, from: RouterId, to: RouterId) -> u32 {
        let mut dist = vec![u32::MAX; t.num_routers() as usize];
        let mut queue = VecDeque::new();
        dist[from.index()] = 0;
        queue.push_back(from);
        while let Some(r) = queue.pop_front() {
            if r == to {
                return dist[r.index()];
            }
            for port in Port::all(t.params()) {
                if let PortPeer::Router(peer, _) = t.peer(r, port) {
                    if dist[peer.index()] == u32::MAX {
                        dist[peer.index()] = dist[r.index()] + 1;
                        queue.push_back(peer);
                    }
                }
            }
        }
        unreachable!("connected network");
    }

    #[test]
    fn local_hop_oracle_is_consistent_and_minimal() {
        let t = mf();
        let group = GroupId(3);
        let routers: Vec<_> = t.routers_in_group(group).collect();
        for &a in &routers {
            for &b in &routers {
                if a == b {
                    assert_eq!(t.local_hops_between(a, b), 0);
                    continue;
                }
                let claimed = t.local_hops_between(a, b);
                assert_eq!(claimed, bfs_hops(&t, a, b), "hops {a}->{b}");
                // follow the oracle: it must reach `b` in exactly `claimed`
                // hops, staying inside the group
                let mut at = a;
                for _ in 0..claimed {
                    let port = t.local_hop_toward(at, b);
                    let PortPeer::Router(next, _) = t.peer(at, port) else {
                        panic!("local hop must reach a router");
                    };
                    assert_eq!(Topology::router_group(&t, next), group);
                    at = next;
                }
                assert_eq!(at, b, "oracle walk {a}->{b} must terminate at {b}");
            }
        }
    }

    #[test]
    fn leaf_pairs_spread_over_distinct_spines() {
        let t = mf();
        // from one source leaf, the spreading spine differs across
        // destination leaves (mod s), so pairs do not pile on one spine
        let leaf0 = RouterId(0);
        let mut spines = HashSet::new();
        for dst_leaf in 1..t.params().l {
            let port = t.local_hop_toward(leaf0, RouterId(dst_leaf));
            let PortPeer::Router(spine, _) = t.peer(leaf0, port) else {
                panic!()
            };
            spines.insert(spine);
        }
        assert_eq!(spines.len(), (t.params().l - 1) as usize);
    }

    #[test]
    fn candidate_first_hops_respect_the_vc_ladder() {
        let t = mf();
        let group = GroupId(0);
        for router in t.routers_in_group(group) {
            for j in 0..t.params().global_links_per_group() {
                let (gw, gport) = Topology::global_link_owner(&t, group, j);
                match t.candidate_first_hop(router, gw, gport) {
                    Some(hop) if gw == router => assert_eq!(hop, gport),
                    Some(hop) => {
                        // exactly one local hop to the gateway
                        assert_eq!(hop.class(t.params()), PortClass::Local);
                        let PortPeer::Router(next, _) = t.peer(router, hop) else {
                            panic!()
                        };
                        assert_eq!(next, gw);
                    }
                    None => {
                        // only spine→other-spine candidates are excluded
                        assert!(t.is_spine(router) && gw != router);
                    }
                }
            }
        }
        // a leaf reaches every candidate; a spine only its own links
        let leaf = RouterId(0);
        let spine = Topology::router_at(&t, group, t.params().l);
        for j in 0..t.params().global_links_per_group() {
            let (gw, gport) = Topology::global_link_owner(&t, group, j);
            assert!(t.candidate_first_hop(leaf, gw, gport).is_some());
            assert_eq!(
                t.candidate_first_hop(spine, gw, gport).is_some(),
                gw == spine
            );
        }
    }

    #[test]
    fn partially_populated_network_has_unconnected_spine_ports() {
        let t = Megafly::new(MegaflyParams::new(2, 4, 4, 2, 5).unwrap());
        let mut unconnected = 0;
        for router in t.routers() {
            if t.is_leaf(router) {
                continue;
            }
            for k in 0..t.params().h {
                if Topology::global_neighbor(&t, router, k).is_none() {
                    unconnected += 1;
                }
            }
        }
        assert!(unconnected > 0, "5 of 9 groups leaves dangling links");
        for g1 in t.groups() {
            for g2 in t.groups() {
                if g1 != g2 {
                    let (gw, port) = Topology::gateway_to(&t, g1, g2);
                    let (peer, _) =
                        Topology::global_neighbor(&t, gw, port.class_offset(t.params()))
                            .expect("populated pairs stay wired");
                    assert_eq!(Topology::router_group(&t, peer), g2);
                }
            }
        }
    }
}
