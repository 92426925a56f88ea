//! The [`Topology`] trait: the network contract the simulator, routers and
//! routing mechanisms are generic over.
//!
//! Everything above this crate — the kernel (`df-sim`), the router model
//! (`df-router`), the routing mechanisms (`df-routing`) and the traffic
//! generators (`df-traffic`) — speaks only this vocabulary:
//!
//! * **Hierarchy maps** — nodes attach to routers, routers form groups;
//!   every map is arithmetic (no tables), so topology objects stay `Copy`.
//! * **Ports by class** — each router's ports follow a
//!   [`PortLayout`](crate::layout::PortLayout)
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
//! (bipartite leaf/spine groups). [`TopologyParams`] is the one value that
//! names a family and its size: the `SimulationConfig` carries it, and
//! routers, networks, step contexts and traffic patterns store it.

use crate::dragonfly::{Dragonfly, PortPeer};
use crate::ids::{GroupId, NodeId, RouterId};
use crate::layout::RadixLayout;
use crate::megafly::{Megafly, MegaflyParams};
use crate::params::DragonflyParams;
use crate::port::{Port, PortClass};
use std::ops::Range;

/// Iterator over a contiguous id range, yielding strongly-typed ids.
///
/// Every id family of every topology in this crate is a contiguous range
/// (Megafly spines simply own an *empty* node range), which keeps the
/// iterators concrete and allocation-free.
pub type IdIter<T> = std::iter::Map<Range<u32>, fn(u32) -> T>;

/// Which concrete network a topology value describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

    /// Every CLI name with the kind it selects: each kind's
    /// [`name`](Self::name), then Megafly's `dragonfly+` synonym.
    pub const NAMES: [(&'static str, TopologyKind); 3] = [
        ("dragonfly", TopologyKind::Dragonfly),
        ("megafly", TopologyKind::Megafly),
        ("dragonfly+", TopologyKind::Megafly),
    ];

    /// Parse a CLI name (one of [`NAMES`](Self::NAMES)). Returns `None` for
    /// unknown names (callers are expected to abort loudly, matching the
    /// mistyped-scale behavior).
    pub fn from_name(name: &str) -> Option<TopologyKind> {
        Self::NAMES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, kind)| kind)
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
/// arithmetic), so they are freely duplicated into routers and the step
/// context.
///
/// A family writes the sixteen required methods — its sizes, the
/// node ↔ router map, the local wiring, who owns which global link and the
/// three VC-ladder policies; every other method is derived from those here,
/// once. A family that overrides a provided method (only [`Megafly`], only
/// [`local_hop_toward`](Topology::local_hop_toward)) must also be
/// re-dispatched by [`TopologyParams`].
pub trait Topology: Copy + std::fmt::Debug {
    /// Which concrete network this is.
    fn kind(&self) -> TopologyKind;

    /// The per-router port numbering (identical for every router).
    fn layout(&self) -> RadixLayout;

    /// Total number of groups.
    fn num_groups(&self) -> u32;
    /// Routers in each group.
    fn routers_per_group(&self) -> u32;
    /// Compute nodes in each group.
    fn nodes_per_group(&self) -> u32;
    /// Group-level global links leaving each group.
    fn global_links_per_group(&self) -> u32;

    /// Total number of routers.
    #[inline]
    fn num_routers(&self) -> u32 {
        self.routers_per_group() * self.num_groups()
    }
    /// Total number of compute nodes.
    #[inline]
    fn num_nodes(&self) -> u32 {
        self.nodes_per_group() * self.num_groups()
    }

    // ------------------------------------------------------------------
    // Coordinates
    // ------------------------------------------------------------------

    /// Router to which a node is attached.
    fn node_router(&self, node: NodeId) -> RouterId;
    /// The contiguous range of node ids attached to `router` (empty for
    /// routers without terminals, e.g. Megafly spines).
    fn router_node_span(&self, router: RouterId) -> Range<u32>;

    /// Terminal port (on its router) through which a node injects/ejects.
    #[inline]
    fn node_port(&self, node: NodeId) -> Port {
        Port::terminal(node.0 - self.router_node_span(self.node_router(node)).start)
    }
    /// Node attached at terminal-port offset `k` of a router (which must
    /// have at least `k + 1` attached nodes).
    #[inline]
    fn node_at(&self, router: RouterId, k: u32) -> NodeId {
        let span = self.router_node_span(router);
        debug_assert!(k < span.end - span.start);
        NodeId(span.start + k)
    }
    /// Group of a router: router ids are dense, group by group.
    #[inline]
    fn router_group(&self, router: RouterId) -> GroupId {
        GroupId(router.0 / self.routers_per_group())
    }
    /// Local index of a router inside its group (`0 .. routers_per_group`).
    #[inline]
    fn router_local_index(&self, router: RouterId) -> u32 {
        router.0 % self.routers_per_group()
    }
    /// Router with the given local index inside the given group.
    #[inline]
    fn router_at(&self, group: GroupId, local_index: u32) -> RouterId {
        debug_assert!(local_index < self.routers_per_group());
        RouterId(group.0 * self.routers_per_group() + local_index)
    }

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
    #[inline]
    fn local_hop_toward(&self, from: RouterId, to: RouterId) -> Port {
        self.local_port_to(from, to)
    }

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

    /// What is attached at the far end of `port` of `router`:
    /// [`Unconnected`](PortPeer::Unconnected) for a padded terminal index
    /// past the router's node span and for a global port
    /// [`global_neighbor`](Topology::global_neighbor) leaves unwired.
    #[inline]
    fn peer(&self, router: RouterId, port: Port) -> PortPeer {
        let layout = self.layout();
        let k = port.class_offset(&layout);
        match port.class(&layout) {
            PortClass::Terminal => {
                let span = self.router_node_span(router);
                if k < span.end - span.start {
                    PortPeer::Node(NodeId(span.start + k))
                } else {
                    PortPeer::Unconnected
                }
            }
            PortClass::Local => {
                let neighbor = self.local_neighbor(router, k);
                PortPeer::Router(neighbor, self.local_port_to(neighbor, router))
            }
            PortClass::Global => match self.global_neighbor(router, k) {
                Some((neighbor, back)) => PortPeer::Router(neighbor, back),
                None => PortPeer::Unconnected,
            },
        }
    }

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
    /// within the VC ladder's single pre-global local hop (always reachable
    /// in a Dragonfly group; Megafly: a leaf reaches every spine, but
    /// spine→other-spine candidates are excluded).
    #[inline]
    fn candidate_first_hop(
        &self,
        router: RouterId,
        gateway: RouterId,
        gateway_port: Port,
    ) -> Option<Port> {
        if gateway == router {
            Some(gateway_port)
        } else if self.local_hops_between(router, gateway) == 1 {
            Some(self.local_port_to(router, gateway))
        } else {
            None
        }
    }
}

/// The one topology value: which family, sized how. A `SimulationConfig`
/// carries it, and routers, networks, step contexts and traffic patterns
/// store it.
///
/// It implements [`Topology`] by building the family object from its
/// parameters (a copy: a family object stores only its parameters) and
/// asking it, so generic code takes `&impl Topology` and works with either
/// a concrete family or this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

impl From<Dragonfly> for TopologyParams {
    fn from(t: Dragonfly) -> Self {
        TopologyParams::Dragonfly(*t.params())
    }
}

impl From<Megafly> for TopologyParams {
    fn from(t: Megafly) -> Self {
        TopologyParams::Megafly(*t.params())
    }
}

impl TopologyParams {
    /// The topology itself: the identity, kept because the benchmark's
    /// pinned surface calls it.
    pub fn build(&self) -> TopologyParams {
        *self
    }

    /// Total number of routers (also [`Topology::num_routers`]; this one
    /// needs no trait import).
    pub fn num_routers(&self) -> u32 {
        Topology::num_routers(self)
    }
}

macro_rules! dispatch {
    ($self:ident, $t:ident => $e:expr) => {
        match *$self {
            TopologyParams::Dragonfly(p) => {
                let $t = Dragonfly::new(p);
                $e
            }
            TopologyParams::Megafly(p) => {
                let $t = Megafly::new(p);
                $e
            }
        }
    };
}

/// One arm per method a family writes, plus `local_hop_toward`: a provided
/// method a family overrides must be re-dispatched here, or the enum would
/// answer with the trait's default. Every other provided method runs its
/// one trait body over these arms.
impl Topology for TopologyParams {
    #[inline]
    fn kind(&self) -> TopologyKind {
        dispatch!(self, t => t.kind())
    }
    #[inline]
    fn layout(&self) -> RadixLayout {
        dispatch!(self, t => t.layout())
    }
    #[inline]
    fn num_groups(&self) -> u32 {
        dispatch!(self, t => t.num_groups())
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
        dispatch!(self, t => t.global_links_per_group())
    }
    #[inline]
    fn node_router(&self, node: NodeId) -> RouterId {
        dispatch!(self, t => t.node_router(node))
    }
    #[inline]
    fn router_node_span(&self, router: RouterId) -> Range<u32> {
        dispatch!(self, t => t.router_node_span(router))
    }
    #[inline]
    fn local_neighbor(&self, router: RouterId, k: u32) -> RouterId {
        dispatch!(self, t => t.local_neighbor(router, k))
    }
    #[inline]
    fn local_port_to(&self, router: RouterId, neighbor: RouterId) -> Port {
        dispatch!(self, t => t.local_port_to(router, neighbor))
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
        dispatch!(self, t => t.global_link_index(router, k))
    }
    #[inline]
    fn global_link_owner(&self, group: GroupId, j: u32) -> (RouterId, Port) {
        dispatch!(self, t => t.global_link_owner(group, j))
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::PortClass;

    #[test]
    fn kind_names_round_trip() {
        for kind in TopologyKind::ALL {
            assert_eq!(TopologyKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(TopologyKind::from_name("df"), None);
        assert_eq!(
            TopologyKind::from_name("dragonfly+"),
            Some(TopologyKind::Megafly)
        );
        assert_eq!(TopologyKind::from_name("torus"), None);
        assert_eq!(TopologyKind::Megafly.to_string(), "megafly");
    }

    #[test]
    fn topology_params_answer_for_their_own_family() {
        let dfp = TopologyParams::from(DragonflyParams::small());
        assert_eq!(dfp.kind(), TopologyKind::Dragonfly);
        assert_eq!(dfp.build(), dfp);
        let mfp = TopologyParams::from(MegaflyParams::small());
        assert_eq!(mfp.kind(), TopologyKind::Megafly);
        assert_eq!(mfp.num_routers(), 72);
        for params in [dfp, mfp] {
            assert_eq!(params.num_routers(), Topology::num_routers(&params));
        }
    }

    /// The family-generic contract of the trait, checked over every id: what
    /// the provided methods promise given only the sixteen primitives.
    fn laws(t: impl Topology) {
        let layout = t.layout();

        // routers: dense, group by group; the three coordinate maps invert
        assert_eq!(t.routers().count() as u32, t.num_routers());
        assert_eq!(t.groups().count() as u32, t.num_groups());
        let mut next_router = 0;
        for group in t.groups() {
            for (index, router) in t.routers_in_group(group).enumerate() {
                assert_eq!(router, RouterId(next_router), "router ids are dense");
                next_router += 1;
                assert_eq!(t.router_group(router), group);
                assert_eq!(t.router_local_index(router), index as u32);
                assert_eq!(t.router_at(group, index as u32), router);
            }
        }
        assert_eq!(next_router, t.num_routers());

        // nodes: the routers' spans tile `0..num_nodes` in router order, and
        // node_router / node_port invert node_at
        assert_eq!(t.nodes().count() as u32, t.num_nodes());
        let mut next_node = 0;
        for router in t.routers() {
            let span = t.router_node_span(router);
            assert!(span.len() as u32 <= layout.terminals);
            for (k, node) in t.nodes_of_router(router).enumerate() {
                assert_eq!(node, NodeId(next_node), "node ids are dense");
                next_node += 1;
                assert_eq!(t.node_at(router, k as u32), node);
                assert_eq!(t.node_router(node), router);
                assert_eq!(t.node_port(node), Port::terminal(k as u32));
                assert_eq!(t.node_group(node), t.router_group(router));
            }
        }
        assert_eq!(next_node, t.num_nodes());

        // peer: an involution on wired ports, `Unconnected` exactly on padded
        // terminal / global indices and on links to unpopulated groups
        for router in t.routers() {
            let group = t.router_group(router);
            for port in Port::all(&layout) {
                let k = port.class_offset(&layout);
                let class = port.class(&layout);
                let unwired = match class {
                    PortClass::Terminal => k >= t.router_node_span(router).len() as u32,
                    PortClass::Local => false,
                    PortClass::Global => {
                        k >= t.own_globals(router)
                            || t.global_link_target_group(group, t.global_link_index(router, k))
                                .is_none()
                    }
                };
                match t.peer(router, port) {
                    PortPeer::Unconnected => assert!(unwired, "{router} {port} is wired"),
                    PortPeer::Node(node) => {
                        assert!(!unwired && class == PortClass::Terminal);
                        assert_eq!((t.node_router(node), t.node_port(node)), (router, port));
                    }
                    PortPeer::Router(far, back) => {
                        assert!(!unwired && class != PortClass::Terminal);
                        assert_eq!(back.class(&layout), class);
                        assert_eq!((t.router_group(far) == group), class == PortClass::Local);
                        assert_eq!(t.peer(far, back), PortPeer::Router(router, port));
                    }
                }
            }
        }

        // candidate_first_hop: the gateway's own port, or the one local hop
        // that reaches the gateway, and nothing further away
        for group in t.groups() {
            for router in t.routers_in_group(group) {
                for j in 0..t.global_links_per_group() {
                    let (gateway, gateway_port) = t.global_link_owner(group, j);
                    let hop = t.candidate_first_hop(router, gateway, gateway_port);
                    if gateway == router {
                        assert_eq!(hop, Some(gateway_port));
                    } else if t.local_hops_between(router, gateway) == 1 {
                        let hop = hop.expect("one local hop away is reachable");
                        assert_eq!(hop.class(&layout), PortClass::Local);
                        assert!(
                            matches!(t.peer(router, hop), PortPeer::Router(r, _) if r == gateway)
                        );
                    } else {
                        assert_eq!(hop, None);
                    }
                }
            }
        }
    }

    /// The value made from the family object is the one made from its
    /// parameters, and it answers every trait method exactly as the family
    /// does, for every id — a provided method a family overrides but
    /// `TopologyParams` forgets to dispatch shows up here.
    fn any_agrees<T: Topology + Into<TopologyParams>>(t: T, params: TopologyParams) {
        let any: TopologyParams = t.into();
        assert_eq!(any, params);
        let layout = t.layout();
        assert_eq!(any.kind(), t.kind());
        assert_eq!(any.layout(), layout);
        assert_eq!(any.num_nodes(), t.num_nodes());
        assert_eq!(any.num_routers(), t.num_routers());
        assert_eq!(any.num_groups(), t.num_groups());
        assert_eq!(any.routers_per_group(), t.routers_per_group());
        assert_eq!(any.nodes_per_group(), t.nodes_per_group());
        assert_eq!(any.global_links_per_group(), t.global_links_per_group());
        assert_eq!(any.intermediates_per_group(), t.intermediates_per_group());
        assert!(any.nodes().eq(t.nodes()));
        assert!(any.routers().eq(t.routers()));
        assert!(any.groups().eq(t.groups()));
        for node in t.nodes() {
            assert_eq!(any.node_router(node), t.node_router(node));
            assert_eq!(any.node_port(node), t.node_port(node));
            assert_eq!(any.node_group(node), t.node_group(node));
        }
        for router in t.routers() {
            assert_eq!(any.router_group(router), t.router_group(router));
            assert_eq!(any.router_local_index(router), t.router_local_index(router));
            assert_eq!(any.router_node_span(router), t.router_node_span(router));
            assert!(any.nodes_of_router(router).eq(t.nodes_of_router(router)));
            for k in 0..t.router_node_span(router).len() as u32 {
                assert_eq!(any.node_at(router, k), t.node_at(router, k));
            }
            for k in 0..layout.locals {
                assert_eq!(any.local_neighbor(router, k), t.local_neighbor(router, k));
            }
            assert_eq!(any.own_globals(router), t.own_globals(router));
            for k in 0..layout.globals {
                assert_eq!(any.global_neighbor(router, k), t.global_neighbor(router, k));
            }
            for k in 0..t.own_globals(router) {
                assert_eq!(
                    any.global_link_index(router, k),
                    t.global_link_index(router, k)
                );
            }
            assert_eq!(
                any.local_misroute_degree(router),
                t.local_misroute_degree(router)
            );
            for port in Port::all(&layout) {
                assert_eq!(any.peer(router, port), t.peer(router, port));
            }
        }
        for group in t.groups() {
            assert!(any.routers_in_group(group).eq(t.routers_in_group(group)));
            for index in 0..t.routers_per_group() {
                assert_eq!(any.router_at(group, index), t.router_at(group, index));
            }
            for j in 0..t.global_links_per_group() {
                assert_eq!(
                    any.global_link_owner(group, j),
                    t.global_link_owner(group, j)
                );
                assert_eq!(
                    any.global_link_target_group(group, j),
                    t.global_link_target_group(group, j)
                );
                let (gateway, gateway_port) = t.global_link_owner(group, j);
                for router in t.routers_in_group(group) {
                    assert_eq!(
                        any.candidate_first_hop(router, gateway, gateway_port),
                        t.candidate_first_hop(router, gateway, gateway_port)
                    );
                }
            }
            for other in t.groups().filter(|&o| o != group) {
                assert_eq!(
                    any.group_link_to(group, other),
                    t.group_link_to(group, other)
                );
                assert_eq!(any.gateway_to(group, other), t.gateway_to(group, other));
            }
            for a in t.routers_in_group(group) {
                for b in t.routers_in_group(group) {
                    let hops = t.local_hops_between(a, b);
                    assert_eq!(any.local_hops_between(a, b), hops);
                    if hops >= 1 {
                        assert_eq!(any.local_hop_toward(a, b), t.local_hop_toward(a, b));
                    }
                    if hops == 1 {
                        assert_eq!(any.local_port_to(a, b), t.local_port_to(a, b));
                    }
                }
            }
        }
    }

    fn laws_hold<T: Topology + Into<TopologyParams>>(t: T, params: impl Into<TopologyParams>) {
        laws(t);
        laws(t.into());
        any_agrees(t, params.into());
    }

    #[test]
    fn dragonfly_obeys_the_trait_laws() {
        let partial = DragonflyParams::new(2, 4, 2, 5).unwrap();
        for params in [
            DragonflyParams::tiny(),
            DragonflyParams::small(),
            DragonflyParams::medium(),
            partial,
        ] {
            laws_hold(Dragonfly::new(params), params);
        }
    }

    #[test]
    fn megafly_obeys_the_trait_laws() {
        let partial = MegaflyParams::new(2, 4, 4, 2, 5).unwrap();
        for params in [
            MegaflyParams::tiny(),
            MegaflyParams::small(),
            MegaflyParams::medium(),
            partial,
        ] {
            laws_hold(Megafly::new(params), params);
        }
    }
}
