//! Packets and their per-packet routing state.
//!
//! The simulator uses Virtual Cut-Through switching: packets (8 phits in the
//! paper's Table I) move between buffers as a unit, buffer occupancy is
//! accounted in phits, and a packet's tail defines when resources (input
//! buffer slots, contention-counter increments) are released.
//!
//! The [`RoutingState`] carried by each packet records everything the
//! hop-by-hop routing algorithms need to remember between routers:
//!
//! * the number of local/global hops already taken (drives the hop-indexed
//!   virtual-channel assignment that guarantees deadlock freedom),
//! * the Valiant intermediate router for source-routed schemes (VAL, PB),
//! * the committed nonminimal global link for in-transit schemes (OLM, Base,
//!   Hybrid, ECtN),
//! * the committed local-misroute detour,
//! * whether (and when) the packet was misrouted, for the misrouted-packet
//!   statistics of Figures 7b and the throughput discussion.

use df_topology::{GroupId, NodeId, Port, PortLayout, RouterId, Topology};

use crate::time::Cycle;

/// Unique identifier of a packet within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

impl PacketId {
    /// Raw value.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Summary of the misrouting a packet experienced, used by the statistics
/// collectors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MisrouteFlags {
    /// The packet took (or irrevocably committed to) a nonminimal global
    /// path — through an intermediate group, or to a Valiant intermediate
    /// router outside the source and destination routers' minimal path.
    pub global: bool,
    /// The packet took at least one nonminimal local hop.
    pub local: bool,
}

/// The router a packet is currently trying to reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteObjective {
    /// Head to the committed nonminimal global link's gateway router (and
    /// then take that global link).
    NonminimalGateway(RouterId, Port),
    /// Head to a committed local-misroute detour router.
    LocalDetour(RouterId),
    /// Head to the Valiant intermediate router (source-routed schemes).
    Intermediate(RouterId),
    /// Head minimally to the destination router.
    Destination(RouterId),
    /// Already at the destination router: eject to the terminal port.
    Eject(Port),
}

/// Per-packet routing state, updated as the packet traverses the network.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingState {
    /// Local (intra-group) hops already taken.
    pub local_hops: u8,
    /// Global (inter-group) hops already taken.
    pub global_hops: u8,
    /// Local hops taken since the last global hop (i.e. inside the group the
    /// packet currently sits in). Drives the phase-based VC assignment.
    pub local_hops_since_global: u8,
    /// Valiant intermediate router (VAL, and PB when it source-routes
    /// nonminimally). `None` for purely in-transit adaptive schemes.
    pub intermediate_router: Option<RouterId>,
    /// Set once the Valiant intermediate router has been visited.
    pub intermediate_reached: bool,
    /// Committed nonminimal global link: the gateway router inside the
    /// current group that owns it and the global port to take there.
    /// Cleared when the global hop is taken.
    pub nonminimal_global: Option<(RouterId, Port)>,
    /// Committed local-misroute detour router in the current group. Cleared
    /// on arrival at that router.
    pub local_detour: Option<RouterId>,
    /// Group in which the packet last performed a local misroute (at most one
    /// local misroute per group is allowed, which bounds path length).
    pub local_misrouted_in: Option<GroupId>,
    /// Misrouting summary for statistics.
    pub flags: MisrouteFlags,
}

impl RoutingState {
    /// Fresh state for a newly generated packet.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if the packet has committed to a nonminimal global path (either
    /// in-transit or via a Valiant intermediate router).
    pub fn globally_misrouted(&self) -> bool {
        self.flags.global
    }

    /// Commit to a Valiant-style intermediate router (source routing).
    pub fn commit_intermediate(&mut self, router: RouterId, counts_as_misroute: bool) {
        self.intermediate_router = Some(router);
        self.intermediate_reached = false;
        if counts_as_misroute {
            self.flags.global = true;
        }
    }

    /// Commit to an in-transit nonminimal global link (gateway router and its
    /// global port within the current group).
    pub fn commit_nonminimal_global(&mut self, gateway: RouterId, port: Port) {
        debug_assert!(
            self.nonminimal_global.is_none(),
            "only one global misroute per packet"
        );
        self.nonminimal_global = Some((gateway, port));
        self.flags.global = true;
    }

    /// Replace a committed nonminimal global link whose gateway link died
    /// with a live alternative (fault re-commit). Unlike
    /// [`commit_nonminimal_global`](Self::commit_nonminimal_global) this may
    /// overwrite an existing commitment: the committed hop was never taken
    /// (`global_hops` is still 0), so the one-global-misroute bound — which
    /// counts *hops*, not intents — is preserved.
    pub fn recommit_nonminimal_global(&mut self, gateway: RouterId, port: Port) {
        debug_assert_eq!(self.global_hops, 0, "re-commit only before the global hop");
        self.nonminimal_global = Some((gateway, port));
        self.flags.global = true;
    }

    /// Drop a committed nonminimal global link whose gateway link died and
    /// fall back to the minimal path (fault re-commit). The misroute flag is
    /// kept: the packet's statistics still record the intent.
    pub fn abandon_nonminimal_global(&mut self) {
        self.nonminimal_global = None;
    }

    /// Replace a Valiant intermediate router whose path died with a live
    /// alternative (fault re-commit).
    pub fn recommit_intermediate(&mut self, router: RouterId) {
        debug_assert!(!self.intermediate_reached, "waypoint already visited");
        self.intermediate_router = Some(router);
        self.intermediate_reached = false;
    }

    /// Abandon a Valiant intermediate router that can no longer be reached
    /// (fault re-commit): the packet skips the waypoint and heads minimally
    /// to its destination — strictly fewer hops, so the VC ladder is
    /// trivially preserved.
    pub fn abandon_intermediate(&mut self) {
        self.intermediate_reached = true;
    }

    /// Abandon a committed local detour whose link died (fault re-commit).
    /// `local_misrouted_in` is kept: the once-per-group bound still counts
    /// the attempt.
    pub fn abandon_local_detour(&mut self) {
        self.local_detour = None;
    }

    /// Commit to a local-misroute detour through `router` in group `group`.
    pub fn commit_local_detour(&mut self, router: RouterId, group: GroupId) {
        self.local_detour = Some(router);
        self.local_misrouted_in = Some(group);
        self.flags.local = true;
    }

    /// Whether a local misroute is still allowed in `group`.
    pub fn local_misroute_allowed_in(&self, group: GroupId) -> bool {
        self.local_misrouted_in != Some(group)
    }

    /// Record the traversal of one hop leaving a router through `port`, and
    /// update commitments the hop fulfils. `arrived_at` is the router at the
    /// far end of the hop.
    pub fn note_hop(&mut self, topo: &impl Topology, port: Port, arrived_at: RouterId) {
        match port.class(&topo.layout()) {
            df_topology::PortClass::Local => {
                self.local_hops += 1;
                self.local_hops_since_global += 1;
            }
            df_topology::PortClass::Global => {
                self.global_hops += 1;
                self.local_hops_since_global = 0;
                // taking any global hop consumes a pending nonminimal-global
                // commitment (it was the committed link, by construction)
                self.nonminimal_global = None;
            }
            df_topology::PortClass::Terminal => {}
        }
        if self.local_detour == Some(arrived_at) {
            self.local_detour = None;
        }
        if self.intermediate_router == Some(arrived_at) {
            self.intermediate_reached = true;
        }
    }

    /// The router-level objective of the packet when it sits in router
    /// `current` and is destined to node `dst`.
    pub fn objective(
        &self,
        topo: &impl Topology,
        current: RouterId,
        dst: NodeId,
    ) -> RouteObjective {
        let dst_router = topo.node_router(dst);
        // 1. pending local detour has priority (we already committed the hop)
        if let Some(detour) = self.local_detour {
            if detour != current {
                return RouteObjective::LocalDetour(detour);
            }
        }
        // 2. pending nonminimal global link
        if let Some((gateway, port)) = self.nonminimal_global {
            return RouteObjective::NonminimalGateway(gateway, port);
        }
        // 3. Valiant intermediate router not yet reached
        if let (Some(inter), false) = (self.intermediate_router, self.intermediate_reached) {
            if inter != current {
                return RouteObjective::Intermediate(inter);
            }
        }
        // 4. destination
        if current == dst_router {
            RouteObjective::Eject(topo.node_port(dst))
        } else {
            RouteObjective::Destination(dst_router)
        }
    }
}

/// The network a decoded packet must fit ([`Packet::decode`]): its nodes,
/// the routers and groups its routing state names, the ports a committed
/// gateway link can use and the one packet size every injector and job uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketBounds {
    nodes: u32,
    routers: u32,
    groups: u32,
    radix: u32,
    size_phits: u32,
}

impl PacketBounds {
    /// The bounds of `topo` carrying `size_phits`-phit packets.
    pub fn new(topo: &impl Topology, size_phits: u32) -> Self {
        PacketBounds {
            nodes: topo.num_nodes(),
            routers: topo.num_routers(),
            groups: topo.num_groups(),
            radix: topo.layout().radix(),
            size_phits,
        }
    }

    /// Whether every node, router, group and port `p` names lies inside the
    /// network and its size is the configured one.
    fn fit(&self, p: &Packet) -> bool {
        let r = &p.routing;
        let (gateway, port) = r.nonminimal_global.unzip();
        let routers = [r.intermediate_router, gateway, r.local_detour];
        p.src.0 < self.nodes
            && p.dst.0 < self.nodes
            && p.size_phits == self.size_phits
            && routers.iter().flatten().all(|id| id.0 < self.routers)
            && port.is_none_or(|port| port.0 < self.radix)
            && r.local_misrouted_in.is_none_or(|g| g.0 < self.groups)
    }
}

/// A packet travelling through the network.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Unique identifier.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Packet length in phits (8 in Table I).
    pub size_phits: u32,
    /// Cycle at which the source generated the packet (latency is measured
    /// from generation, so it includes source-queue waiting time).
    pub generated_at: Cycle,
    /// Cycle at which the packet entered the injection buffer of its source
    /// router, if it has.
    pub injected_at: Option<Cycle>,
    /// Per-packet routing state.
    pub routing: RoutingState,
}

impl Packet {
    /// Create a freshly generated packet.
    pub fn new(
        id: PacketId,
        src: NodeId,
        dst: NodeId,
        size_phits: u32,
        generated_at: Cycle,
    ) -> Self {
        Packet {
            id,
            src,
            dst,
            size_phits,
            generated_at,
            injected_at: None,
            routing: RoutingState::new(),
        }
    }

    /// Total number of hops taken so far (local + global).
    pub fn hops(&self) -> u32 {
        self.routing.local_hops as u32 + self.routing.global_hops as u32
    }

    /// Serialize the packet exactly, routing state included (snapshot
    /// support).
    pub fn encode(&self, e: &mut df_engine::Encoder) {
        e.u64(self.id.0);
        e.u32(self.src.0);
        e.u32(self.dst.0);
        e.u32(self.size_phits);
        e.u64(self.generated_at);
        e.option(self.injected_at, df_engine::Encoder::u64);
        let r = &self.routing;
        e.u8(r.local_hops);
        e.u8(r.global_hops);
        e.u8(r.local_hops_since_global);
        e.option(r.intermediate_router, |e, id| e.u32(id.0));
        e.bool(r.intermediate_reached);
        e.option(r.nonminimal_global, |e, (gw, port)| {
            e.u32(gw.0);
            e.u32(port.0);
        });
        e.option(r.local_detour, |e, id| e.u32(id.0));
        e.option(r.local_misrouted_in, |e, g| e.u32(g.0));
        e.bool(r.flags.global);
        e.bool(r.flags.local);
    }

    /// Rebuild a packet from [`encode`](Self::encode) output, refusing one
    /// that does not fit `bounds`: a node, router, group or gateway port
    /// outside the network, or another size than the configured one.
    pub fn decode(
        d: &mut df_engine::Decoder,
        bounds: &PacketBounds,
    ) -> Result<Self, df_engine::CodecError> {
        let packet = Packet {
            id: PacketId(d.u64()?),
            src: NodeId(d.u32()?),
            dst: NodeId(d.u32()?),
            size_phits: d.u32()?,
            generated_at: d.u64()?,
            injected_at: d.option(df_engine::Decoder::u64)?,
            routing: RoutingState {
                local_hops: d.u8()?,
                global_hops: d.u8()?,
                local_hops_since_global: d.u8()?,
                intermediate_router: d.option(|d| d.u32().map(RouterId))?,
                intermediate_reached: d.bool()?,
                nonminimal_global: d.option(|d| Ok((RouterId(d.u32()?), Port(d.u32()?))))?,
                local_detour: d.option(|d| d.u32().map(RouterId))?,
                local_misrouted_in: d.option(|d| d.u32().map(GroupId))?,
                flags: MisrouteFlags {
                    global: d.bool()?,
                    local: d.bool()?,
                },
            },
        };
        if !bounds.fit(&packet) {
            return Err(df_engine::CodecError::Invalid(format!(
                "{packet:?} does not fit {bounds:?}"
            )));
        }
        Ok(packet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_topology::{Dragonfly, DragonflyParams};

    fn topo() -> Dragonfly {
        Dragonfly::new(DragonflyParams::small())
    }

    #[test]
    fn new_packet_has_clean_state() {
        let p = Packet::new(PacketId(1), NodeId(0), NodeId(50), 8, 100);
        assert_eq!(p.hops(), 0);
        assert!(!p.routing.globally_misrouted());
        assert!(!p.routing.flags.local);
        assert_eq!(p.injected_at, None);
        assert_eq!(p.size_phits, 8);
    }

    #[test]
    fn objective_is_eject_at_destination_router() {
        let t = topo();
        let dst = NodeId(13);
        let dst_router = t.node_router(dst);
        let state = RoutingState::new();
        match state.objective(&t, dst_router, dst) {
            RouteObjective::Eject(port) => assert_eq!(port, t.node_port(dst)),
            other => panic!("expected eject, got {other:?}"),
        }
    }

    #[test]
    fn objective_is_destination_router_by_default() {
        let t = topo();
        let dst = NodeId(40);
        let state = RoutingState::new();
        match state.objective(&t, RouterId(0), dst) {
            RouteObjective::Destination(r) => assert_eq!(r, t.node_router(dst)),
            other => panic!("expected destination, got {other:?}"),
        }
    }

    #[test]
    fn valiant_intermediate_takes_priority_until_reached() {
        let t = topo();
        let dst = NodeId(40);
        let inter = RouterId(10);
        let mut state = RoutingState::new();
        state.commit_intermediate(inter, true);
        assert!(state.globally_misrouted());
        match state.objective(&t, RouterId(0), dst) {
            RouteObjective::Intermediate(r) => assert_eq!(r, inter),
            other => panic!("expected intermediate, got {other:?}"),
        }
        // arriving at the intermediate clears the waypoint
        state.note_hop(&t, t.local_port_to(RouterId(8), inter), inter);
        assert!(state.intermediate_reached);
        match state.objective(&t, inter, dst) {
            RouteObjective::Destination(r) => assert_eq!(r, t.node_router(dst)),
            other => panic!("expected destination, got {other:?}"),
        }
    }

    #[test]
    fn nonminimal_global_commitment_is_consumed_by_a_global_hop() {
        let t = topo();
        let dst = NodeId(60);
        let mut state = RoutingState::new();
        // commit to the global link of router 1, port offset 0
        let gateway = RouterId(1);
        let gport = Port::global(t.params(), 0);
        state.commit_nonminimal_global(gateway, gport);
        assert!(state.globally_misrouted());
        match state.objective(&t, RouterId(0), dst) {
            RouteObjective::NonminimalGateway(r, p) => {
                assert_eq!(r, gateway);
                assert_eq!(p, gport);
            }
            other => panic!("expected gateway, got {other:?}"),
        }
        // taking the global hop clears the commitment
        let (peer, _) = t.global_neighbor(gateway, 0).unwrap();
        state.note_hop(&t, gport, peer);
        assert_eq!(state.nonminimal_global, None);
        assert_eq!(state.global_hops, 1);
    }

    #[test]
    fn local_detour_has_priority_and_clears_on_arrival() {
        let t = topo();
        let dst = NodeId(60);
        let mut state = RoutingState::new();
        let group = t.router_group(RouterId(0));
        state.commit_local_detour(RouterId(2), group);
        assert!(state.flags.local);
        assert!(!state.local_misroute_allowed_in(group));
        assert!(state.local_misroute_allowed_in(GroupId(5)));
        match state.objective(&t, RouterId(0), dst) {
            RouteObjective::LocalDetour(r) => assert_eq!(r, RouterId(2)),
            other => panic!("expected detour, got {other:?}"),
        }
        state.note_hop(&t, t.local_port_to(RouterId(0), RouterId(2)), RouterId(2));
        assert_eq!(state.local_detour, None);
        assert_eq!(state.local_hops, 1);
    }

    #[test]
    fn hop_counters_track_port_classes() {
        let t = topo();
        let mut state = RoutingState::new();
        state.note_hop(&t, Port::local(t.params(), 0), RouterId(1));
        state.note_hop(&t, Port::global(t.params(), 1), RouterId(20));
        state.note_hop(&t, Port::local(t.params(), 2), RouterId(21));
        assert_eq!(state.local_hops, 2);
        assert_eq!(state.global_hops, 1);
        // terminal hop does not count
        state.note_hop(&t, Port::terminal(0), RouterId(21));
        assert_eq!(state.local_hops, 2);
        assert_eq!(state.global_hops, 1);
    }

    #[test]
    #[should_panic(expected = "only one global misroute")]
    #[cfg(debug_assertions)]
    fn double_global_commit_is_a_bug() {
        let t = topo();
        let mut state = RoutingState::new();
        state.commit_nonminimal_global(RouterId(1), Port::global(t.params(), 0));
        state.commit_nonminimal_global(RouterId(2), Port::global(t.params(), 1));
    }

    #[test]
    fn minimal_commitment_does_not_set_flags() {
        let mut state = RoutingState::new();
        state.commit_intermediate(RouterId(9), false);
        assert!(!state.globally_misrouted());
    }

    #[test]
    fn recommit_replaces_a_dead_nonminimal_commitment() {
        let t = topo();
        let mut state = RoutingState::new();
        state.commit_nonminimal_global(RouterId(1), Port::global(t.params(), 0));
        // unlike commit_nonminimal_global, recommit may overwrite
        state.recommit_nonminimal_global(RouterId(2), Port::global(t.params(), 1));
        assert_eq!(
            state.nonminimal_global,
            Some((RouterId(2), Port::global(t.params(), 1)))
        );
        assert!(state.globally_misrouted(), "the misroute intent is kept");
        state.abandon_nonminimal_global();
        assert_eq!(state.nonminimal_global, None);
        assert!(
            state.globally_misrouted(),
            "abandoning keeps the statistics flag"
        );
    }

    #[test]
    fn waypoint_recommit_and_abandon() {
        let t = topo();
        let dst = NodeId(40);
        let mut state = RoutingState::new();
        state.commit_intermediate(RouterId(9), true);
        state.recommit_intermediate(RouterId(12));
        match state.objective(&t, RouterId(0), dst) {
            RouteObjective::Intermediate(r) => assert_eq!(r, RouterId(12)),
            other => panic!("expected the replacement waypoint, got {other:?}"),
        }
        state.abandon_intermediate();
        assert!(state.intermediate_reached);
        match state.objective(&t, RouterId(0), dst) {
            RouteObjective::Destination(_) => {}
            other => panic!("an abandoned waypoint routes to the destination, got {other:?}"),
        }
    }

    #[test]
    fn detour_abandon_keeps_the_per_group_budget_spent() {
        let t = topo();
        let group = t.router_group(RouterId(0));
        let mut state = RoutingState::new();
        state.commit_local_detour(RouterId(2), group);
        state.abandon_local_detour();
        assert_eq!(state.local_detour, None);
        assert!(
            !state.local_misroute_allowed_in(group),
            "abandoning a detour does not refund the once-per-group budget"
        );
    }
}
