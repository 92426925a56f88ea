//! The [`Topology`] trait: the network contract the simulator, routers and
//! routing mechanisms are generic over.
//!
//! Everything above this crate — the kernel (`df-sim`), the router model
//! (`df-router`), the routing mechanisms (`df-routing`) and the traffic
//! generators (`df-traffic`) — speaks only this vocabulary:
//!
//! * **Hierarchy maps** — nodes attach to routers, routers form groups;
//!   every map is arithmetic (no tables), so topology objects stay `Copy`.
//! * **Ports by class** — each router's ports follow a [`PortLayout`]
//!   (terminals, then locals, then globals); [`peer`](Topology::peer)
//!   resolves any port to what is wired at its far end.
//! * **Group-level global links** — every group owns
//!   [`global_links_per_group`](Topology::global_links_per_group) global
//!   links, indexed `0..links`, with **exactly one** link between any pair
//!   of populated groups ([`group_link_to`](Topology::group_link_to) /
//!   [`gateway_to`](Topology::gateway_to)). This single-link property is
//!   what lets the paper's mechanisms associate one contention counter and
//!   one PB/ECtN entry with the minimal route towards each remote group.
//! * **A minimal-path oracle** —
//!   [`local_hop_toward`](Topology::local_hop_toward) and
//!   [`local_hops_between`](Topology::local_hops_between) describe minimal
//!   intra-group movement, so the hierarchical minimal route (local* →
//!   global → local*) is derivable generically.
//!
//! Two instances implement it, each next to its wiring: the canonical
//! [`Dragonfly`] (the paper's network) and the [`Megafly`]/Dragonfly+
//! (bipartite leaf/spine groups).
//! [`AnyTopology`] is the `Copy` sum type stored in routers, networks and
//! step contexts; [`TopologyParams`] is the matching configuration-level
//! sum the `SimulationConfig` carries.

use crate::dragonfly::{Dragonfly, PortPeer};
use crate::ids::{GroupId, NodeId, RouterId};
use crate::layout::{PortLayout, RadixLayout};
use crate::megafly::{Megafly, MegaflyParams};
use crate::params::DragonflyParams;
use crate::port::Port;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Iterator over a contiguous id range, yielding strongly-typed ids.
///
/// Every id family of every topology in this crate is a contiguous range
/// (Megafly spines simply own an *empty* node range), which keeps the
/// iterators concrete and allocation-free.
pub type IdIter<T> = std::iter::Map<Range<u32>, fn(u32) -> T>;

/// Which concrete network a topology value describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologyKind {
    /// Canonical Dragonfly (complete-graph groups; the paper's network).
    Dragonfly,
    /// Megafly / Dragonfly+ (bipartite leaf/spine groups).
    Megafly,
}

impl TopologyKind {
    /// Every supported kind, in declaration order.
    pub const ALL: [TopologyKind; 2] = [TopologyKind::Dragonfly, TopologyKind::Megafly];

    /// Stable lower-case name, used by CLI flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Dragonfly => "dragonfly",
            TopologyKind::Megafly => "megafly",
        }
    }

    /// Parse a CLI name. Returns `None` for unknown names (callers are
    /// expected to abort loudly, matching the mistyped-scale behavior).
    pub fn from_name(name: &str) -> Option<TopologyKind> {
        match name {
            "dragonfly" | "df" => Some(TopologyKind::Dragonfly),
            "megafly" | "mf" | "dragonfly+" => Some(TopologyKind::Megafly),
            _ => None,
        }
    }
}

impl std::fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The network contract: hierarchy maps, port wiring and the minimal-path
/// oracle. See the [module docs](self) for what generic layers may assume.
///
/// Implementations are cheap `Copy` values (parameters only; all queries
/// arithmetic), so they are freely duplicated into routers and per-shard
/// step contexts.
pub trait Topology: Copy + std::fmt::Debug {
    /// Which concrete network this is.
    fn kind(&self) -> TopologyKind;

    /// The per-router port numbering (identical for every router).
    fn layout(&self) -> RadixLayout;

    /// Total number of compute nodes.
    fn num_nodes(&self) -> u32;
    /// Total number of routers.
    fn num_routers(&self) -> u32;
    /// Total number of groups.
    fn num_groups(&self) -> u32;
    /// Routers in each group.
    fn routers_per_group(&self) -> u32;
    /// Compute nodes in each group.
    fn nodes_per_group(&self) -> u32;
    /// Group-level global links leaving each group.
    fn global_links_per_group(&self) -> u32;

    // ------------------------------------------------------------------
    // Coordinates
    // ------------------------------------------------------------------

    /// Router to which a node is attached.
    fn node_router(&self, node: NodeId) -> RouterId;
    /// Terminal port (on its router) through which a node injects/ejects.
    fn node_port(&self, node: NodeId) -> Port;
    /// Group of a router.
    fn router_group(&self, router: RouterId) -> GroupId;
    /// Local index of a router inside its group (`0 .. routers_per_group`).
    fn router_local_index(&self, router: RouterId) -> u32;
    /// Router with the given local index inside the given group.
    fn router_at(&self, group: GroupId, local_index: u32) -> RouterId;
    /// Node attached at terminal-port offset `k` of a router (which must
    /// have attached nodes).
    fn node_at(&self, router: RouterId, k: u32) -> NodeId;
    /// The contiguous range of node ids attached to `router` (empty for
    /// routers without terminals, e.g. Megafly spines).
    fn router_node_span(&self, router: RouterId) -> Range<u32>;

    /// Group of a node.
    #[inline]
    fn node_group(&self, node: NodeId) -> GroupId {
        self.router_group(self.node_router(node))
    }

    /// Iterator over all node identifiers.
    fn nodes(&self) -> IdIter<NodeId> {
        (0..self.num_nodes()).map(NodeId as fn(u32) -> NodeId)
    }

    /// Iterator over all router identifiers.
    fn routers(&self) -> IdIter<RouterId> {
        (0..self.num_routers()).map(RouterId as fn(u32) -> RouterId)
    }

    /// Iterator over all group identifiers.
    fn groups(&self) -> IdIter<GroupId> {
        (0..self.num_groups()).map(GroupId as fn(u32) -> GroupId)
    }

    /// Iterator over the routers of one group (a contiguous id range).
    fn routers_in_group(&self, group: GroupId) -> IdIter<RouterId> {
        let first = group.0 * self.routers_per_group();
        (first..first + self.routers_per_group()).map(RouterId as fn(u32) -> RouterId)
    }

    /// Iterator over the nodes attached to one router.
    fn nodes_of_router(&self, router: RouterId) -> IdIter<NodeId> {
        self.router_node_span(router)
            .map(NodeId as fn(u32) -> NodeId)
    }

    // ------------------------------------------------------------------
    // Local (intra-group) wiring
    // ------------------------------------------------------------------

    /// The router reached through local port offset `k` of `router`.
    fn local_neighbor(&self, router: RouterId, k: u32) -> RouterId;
    /// The local port of `router` that connects to `neighbor`, which must
    /// be **directly wired** to it within the same group.
    fn local_port_to(&self, router: RouterId, neighbor: RouterId) -> Port;

    /// First local hop of the minimal intra-group path from `from` towards
    /// `to` (`from != to`, same group). For a Dragonfly this is
    /// [`local_port_to`](Topology::local_port_to); a Megafly may need an
    /// intermediate hop (leaf→leaf crosses a spine), chosen
    /// deterministically so repeated queries trace one consistent path.
    fn local_hop_toward(&self, from: RouterId, to: RouterId) -> Port;

    /// Length (in hops) of the minimal intra-group path between two routers
    /// of the same group (0 when equal; 1 for a Dragonfly pair; up to 2 in
    /// a Megafly).
    fn local_hops_between(&self, a: RouterId, b: RouterId) -> u32;

    // ------------------------------------------------------------------
    // Global (inter-group) wiring
    // ------------------------------------------------------------------

    /// Group-level index (`0 .. global_links_per_group`) of the global link
    /// at global-port offset `k` of `router` (which must own global links),
    /// increasing in `k`. ECtN partial/combined arrays and PB flags are
    /// indexed by this value.
    fn global_link_index(&self, router: RouterId, k: u32) -> u32;
    /// Inverse of [`global_link_index`](Topology::global_link_index): the
    /// router (within `group`) and global port owning group-level link `j`.
    fn global_link_owner(&self, group: GroupId, j: u32) -> (RouterId, Port);
    /// Destination group of group-level global link `j` of `group`, or
    /// `None` if the peer group is not populated.
    ///
    /// Every supported topology wires its groups in the same *palmtree*
    /// arrangement over `global_links_per_group + 1` virtual groups: link
    /// `j` of group `g` reaches group `g + j + 1` (mod the virtual group
    /// count), where it arrives as link `global_links_per_group - 1 - j`.
    /// This and the two queries below are that arrangement, spelled once.
    #[inline]
    fn global_link_target_group(&self, group: GroupId, j: u32) -> Option<GroupId> {
        debug_assert!(j < self.global_links_per_group());
        let virt_groups = self.global_links_per_group() + 1;
        let dst = (group.0 + j + 1) % virt_groups;
        (dst < self.num_groups()).then_some(GroupId(dst))
    }
    /// The router and port at the far end of global-port offset `k` of
    /// `router`, or `None` if the link is unconnected (its peer group is
    /// not populated, or `k` is a padded index past the router's
    /// [`own_globals`](Topology::own_globals) — every global port of a
    /// Megafly leaf).
    #[inline]
    fn global_neighbor(&self, router: RouterId, k: u32) -> Option<(RouterId, Port)> {
        if k >= self.own_globals(router) {
            return None;
        }
        let group = self.router_group(router);
        let j = self.global_link_index(router, k);
        let dst_group = self.global_link_target_group(group, j)?;
        let j_rev = self.global_links_per_group() - 1 - j;
        Some(self.global_link_owner(dst_group, j_rev))
    }
    /// The group-level global link index inside `src_group` that connects
    /// directly to `dst_group`. There is exactly one, which is what lets
    /// the paper associate a single contention counter with the minimal
    /// route towards each remote group.
    #[inline]
    fn group_link_to(&self, src_group: GroupId, dst_group: GroupId) -> u32 {
        debug_assert_ne!(src_group, dst_group);
        debug_assert!(src_group.0 < self.num_groups() && dst_group.0 < self.num_groups());
        let virt_groups = self.global_links_per_group() + 1;
        (dst_group.0 + virt_groups - src_group.0 - 1) % virt_groups
    }

    /// The router of `src_group` owning the (unique) global link towards
    /// `dst_group`, together with the global port used.
    fn gateway_to(&self, src_group: GroupId, dst_group: GroupId) -> (RouterId, Port) {
        let j = self.group_link_to(src_group, dst_group);
        self.global_link_owner(src_group, j)
    }

    /// What is attached at the far end of `port` of `router`.
    fn peer(&self, router: RouterId, port: Port) -> PortPeer;

    // ------------------------------------------------------------------
    // Routing-mechanism hooks
    // ------------------------------------------------------------------

    /// Number of global links `router` itself owns (Dragonfly: `h` for
    /// every router; Megafly: `h` for spines, 0 for leaves). Bounds the
    /// router's PB own-flag array and its locally-sensed link state.
    fn own_globals(&self, router: RouterId) -> u32;

    /// Number of eligible Valiant intermediate routers per group; the
    /// intermediate with index `k` is `router_at(group, k)`. (Dragonfly:
    /// all `a` routers; Megafly: the `l` leaves — spine intermediates would
    /// overflow the VC ladder.)
    fn intermediates_per_group(&self) -> u32;

    /// Number of local-misroute detour neighbours at `router` (candidate
    /// `k` is `local_neighbor(router, k)`). Zero disables local misrouting
    /// (Megafly: every leaf–leaf path already crosses a deterministically
    /// spread spine, and a detour would exceed the VC ladder).
    fn local_misroute_degree(&self, router: RouterId) -> u32;

    /// Output port of `router` that starts the path towards a nonminimal
    /// candidate global link owned by `gateway` (reached through
    /// `gateway_port` there), or `None` if the candidate is not reachable
    /// within the VC ladder's single pre-global local hop (Megafly:
    /// spine→other-spine candidates are excluded).
    fn candidate_first_hop(
        &self,
        router: RouterId,
        gateway: RouterId,
        gateway_port: Port,
    ) -> Option<Port>;
}

/// The `Copy` sum of every supported topology: what routers, networks and
/// step contexts store when the concrete network is chosen at run time.
///
/// `AnyTopology` itself implements [`Topology`] by match-dispatch, so
/// generic code takes `&impl Topology` and works with either a concrete
/// instance or this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnyTopology {
    /// Canonical Dragonfly.
    Dragonfly(Dragonfly),
    /// Megafly / Dragonfly+.
    Megafly(Megafly),
}

impl From<Dragonfly> for AnyTopology {
    fn from(t: Dragonfly) -> Self {
        AnyTopology::Dragonfly(t)
    }
}

impl From<Megafly> for AnyTopology {
    fn from(t: Megafly) -> Self {
        AnyTopology::Megafly(t)
    }
}

impl AnyTopology {
    /// The contained Dragonfly, if this is one.
    pub fn as_dragonfly(&self) -> Option<&Dragonfly> {
        match self {
            AnyTopology::Dragonfly(t) => Some(t),
            _ => None,
        }
    }

    /// The contained Megafly, if this is one.
    pub fn as_megafly(&self) -> Option<&Megafly> {
        match self {
            AnyTopology::Megafly(t) => Some(t),
            _ => None,
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $t:ident => $e:expr) => {
        match $self {
            AnyTopology::Dragonfly($t) => $e,
            AnyTopology::Megafly($t) => $e,
        }
    };
}

impl Topology for AnyTopology {
    #[inline]
    fn kind(&self) -> TopologyKind {
        dispatch!(self, t => t.kind())
    }
    #[inline]
    fn layout(&self) -> RadixLayout {
        dispatch!(self, t => t.layout())
    }
    #[inline]
    fn num_nodes(&self) -> u32 {
        dispatch!(self, t => Topology::num_nodes(t))
    }
    #[inline]
    fn num_routers(&self) -> u32 {
        dispatch!(self, t => Topology::num_routers(t))
    }
    #[inline]
    fn num_groups(&self) -> u32 {
        dispatch!(self, t => Topology::num_groups(t))
    }
    #[inline]
    fn routers_per_group(&self) -> u32 {
        dispatch!(self, t => t.routers_per_group())
    }
    #[inline]
    fn nodes_per_group(&self) -> u32 {
        dispatch!(self, t => t.nodes_per_group())
    }
    #[inline]
    fn global_links_per_group(&self) -> u32 {
        dispatch!(self, t => Topology::global_links_per_group(t))
    }
    #[inline]
    fn node_router(&self, node: NodeId) -> RouterId {
        dispatch!(self, t => Topology::node_router(t, node))
    }
    #[inline]
    fn node_port(&self, node: NodeId) -> Port {
        dispatch!(self, t => Topology::node_port(t, node))
    }
    #[inline]
    fn router_group(&self, router: RouterId) -> GroupId {
        dispatch!(self, t => Topology::router_group(t, router))
    }
    #[inline]
    fn router_local_index(&self, router: RouterId) -> u32 {
        dispatch!(self, t => Topology::router_local_index(t, router))
    }
    #[inline]
    fn router_at(&self, group: GroupId, local_index: u32) -> RouterId {
        dispatch!(self, t => Topology::router_at(t, group, local_index))
    }
    #[inline]
    fn node_at(&self, router: RouterId, k: u32) -> NodeId {
        dispatch!(self, t => Topology::node_at(t, router, k))
    }
    #[inline]
    fn router_node_span(&self, router: RouterId) -> Range<u32> {
        dispatch!(self, t => t.router_node_span(router))
    }
    #[inline]
    fn local_neighbor(&self, router: RouterId, k: u32) -> RouterId {
        dispatch!(self, t => Topology::local_neighbor(t, router, k))
    }
    #[inline]
    fn local_port_to(&self, router: RouterId, neighbor: RouterId) -> Port {
        dispatch!(self, t => Topology::local_port_to(t, router, neighbor))
    }
    #[inline]
    fn local_hop_toward(&self, from: RouterId, to: RouterId) -> Port {
        dispatch!(self, t => t.local_hop_toward(from, to))
    }
    #[inline]
    fn local_hops_between(&self, a: RouterId, b: RouterId) -> u32 {
        dispatch!(self, t => t.local_hops_between(a, b))
    }
    #[inline]
    fn global_link_index(&self, router: RouterId, k: u32) -> u32 {
        dispatch!(self, t => Topology::global_link_index(t, router, k))
    }
    #[inline]
    fn global_link_owner(&self, group: GroupId, j: u32) -> (RouterId, Port) {
        dispatch!(self, t => Topology::global_link_owner(t, group, j))
    }
    #[inline]
    fn global_link_target_group(&self, group: GroupId, j: u32) -> Option<GroupId> {
        dispatch!(self, t => Topology::global_link_target_group(t, group, j))
    }
    #[inline]
    fn global_neighbor(&self, router: RouterId, k: u32) -> Option<(RouterId, Port)> {
        dispatch!(self, t => Topology::global_neighbor(t, router, k))
    }
    #[inline]
    fn group_link_to(&self, src_group: GroupId, dst_group: GroupId) -> u32 {
        dispatch!(self, t => Topology::group_link_to(t, src_group, dst_group))
    }
    #[inline]
    fn gateway_to(&self, src_group: GroupId, dst_group: GroupId) -> (RouterId, Port) {
        dispatch!(self, t => Topology::gateway_to(t, src_group, dst_group))
    }
    #[inline]
    fn peer(&self, router: RouterId, port: Port) -> PortPeer {
        dispatch!(self, t => Topology::peer(t, router, port))
    }
    #[inline]
    fn own_globals(&self, router: RouterId) -> u32 {
        dispatch!(self, t => t.own_globals(router))
    }
    #[inline]
    fn intermediates_per_group(&self) -> u32 {
        dispatch!(self, t => t.intermediates_per_group())
    }
    #[inline]
    fn local_misroute_degree(&self, router: RouterId) -> u32 {
        dispatch!(self, t => t.local_misroute_degree(router))
    }
    #[inline]
    fn candidate_first_hop(
        &self,
        router: RouterId,
        gateway: RouterId,
        gateway_port: Port,
    ) -> Option<Port> {
        dispatch!(self, t => t.candidate_first_hop(router, gateway, gateway_port))
    }
}

/// Configuration-level sum of the supported topologies' sizing parameters:
/// what a `SimulationConfig` carries, and what
/// [`build`](TopologyParams::build) lowers into an [`AnyTopology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologyParams {
    /// Canonical Dragonfly `(p, a, h, groups)`.
    Dragonfly(DragonflyParams),
    /// Megafly / Dragonfly+ `(p, l, s, h, groups)`.
    Megafly(MegaflyParams),
}

impl From<DragonflyParams> for TopologyParams {
    fn from(p: DragonflyParams) -> Self {
        TopologyParams::Dragonfly(p)
    }
}

impl From<MegaflyParams> for TopologyParams {
    fn from(p: MegaflyParams) -> Self {
        TopologyParams::Megafly(p)
    }
}

impl TopologyParams {
    /// Which network these parameters size.
    pub fn kind(&self) -> TopologyKind {
        match self {
            TopologyParams::Dragonfly(_) => TopologyKind::Dragonfly,
            TopologyParams::Megafly(_) => TopologyKind::Megafly,
        }
    }

    /// Build the topology object.
    pub fn build(&self) -> AnyTopology {
        match *self {
            TopologyParams::Dragonfly(p) => AnyTopology::Dragonfly(Dragonfly::new(p)),
            TopologyParams::Megafly(p) => AnyTopology::Megafly(Megafly::new(p)),
        }
    }

    /// Total number of compute nodes.
    pub fn num_nodes(&self) -> u32 {
        match self {
            TopologyParams::Dragonfly(p) => p.num_nodes(),
            TopologyParams::Megafly(p) => p.num_nodes(),
        }
    }

    /// Total number of routers.
    pub fn num_routers(&self) -> u32 {
        match self {
            TopologyParams::Dragonfly(p) => p.num_routers(),
            TopologyParams::Megafly(p) => p.num_routers(),
        }
    }

    /// Total number of groups.
    pub fn num_groups(&self) -> u32 {
        match self {
            TopologyParams::Dragonfly(p) => p.num_groups(),
            TopologyParams::Megafly(p) => p.num_groups(),
        }
    }

    /// Compute nodes per group.
    pub fn nodes_per_group(&self) -> u32 {
        match self {
            TopologyParams::Dragonfly(p) => p.nodes_per_group(),
            TopologyParams::Megafly(p) => p.nodes_per_group(),
        }
    }

    /// Router radix.
    pub fn radix(&self) -> u32 {
        self.layout().radix()
    }

    /// The per-router port layout.
    pub fn layout(&self) -> RadixLayout {
        match self {
            TopologyParams::Dragonfly(p) => RadixLayout::of(p),
            TopologyParams::Megafly(p) => p.layout(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::PortClass;

    #[test]
    fn dragonfly_candidate_first_hop_is_always_reachable() {
        let t = Dragonfly::new(DragonflyParams::small());
        let router = RouterId(1);
        for j in 0..t.params().global_links_per_group() {
            let (gw, gport) = t.global_link_owner(GroupId(0), j);
            let hop = t.candidate_first_hop(router, gw, gport).unwrap();
            if gw == router {
                assert_eq!(hop, gport);
            } else {
                assert_eq!(hop.class(t.params()), PortClass::Local);
            }
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in TopologyKind::ALL {
            assert_eq!(TopologyKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(TopologyKind::from_name("df"), Some(TopologyKind::Dragonfly));
        assert_eq!(
            TopologyKind::from_name("dragonfly+"),
            Some(TopologyKind::Megafly)
        );
        assert_eq!(TopologyKind::from_name("torus"), None);
        assert_eq!(TopologyKind::Megafly.to_string(), "megafly");
    }

    #[test]
    fn topology_params_delegate_and_build() {
        let dfp = TopologyParams::from(DragonflyParams::small());
        assert_eq!(dfp.kind(), TopologyKind::Dragonfly);
        assert_eq!(dfp.num_nodes(), 72);
        assert_eq!(dfp.nodes_per_group(), 8);
        assert_eq!(dfp.radix(), 7);
        assert!(dfp.build().as_dragonfly().is_some());

        let mfp = TopologyParams::from(MegaflyParams::small());
        assert_eq!(mfp.kind(), TopologyKind::Megafly);
        assert!(mfp.build().as_megafly().is_some());
    }
}
