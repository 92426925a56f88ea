//! The routing algorithms: dispatch and the shared decision skeleton.
//!
//! [`RoutingAlgorithm::decide`] first honours any commitment the packet
//! already carries (a Valiant waypoint, a pending nonminimal global link, a
//! local detour): those produce *continuation* decisions that simply follow
//! the committed path minimally. Only packets with no pending commitment
//! reach the per-mechanism adaptive logic, which may produce a minimal
//! decision or a new commitment.
//!
//! `decide` is the composition of what is fixed while a packet waits at the
//! head of its input VC ([`RoutingAlgorithm::plan`], a [`HeadPlan`] the
//! router parks beside the head) and what is not
//! ([`RoutingAlgorithm::decide_planned`]), so each rule has one body.
//!
//! # Failure-aware continuations (fault routing)
//!
//! A committed continuation can die under it: the gateway link of a
//! committed nonminimal global path, the local link towards a Valiant
//! waypoint or a detour router. Committed packets used to stall on those
//! ports until `LinkUp`. Every continuation is therefore **re-committed**
//! when its output link is down:
//!
//! * a dead nonminimal gateway link re-runs the mechanism's candidate
//!   selection with the dead option filtered
//!   (`adaptive::recommit_global`, which documents the deadlock-freedom
//!   argument);
//! * a dead path to a Valiant waypoint re-picks a live intermediate at the
//!   source (`common::pick_live_intermediate`) or skips the waypoint once
//!   past the first global hop (strictly fewer hops — trivially VC-safe);
//! * a dead detour link abandons the detour and falls back to the
//!   destination logic (the detour was an extra hop; skipping it stays on
//!   the ladder).
//!
//! All checks are gated on `router.any_link_down()` /
//! `link_view().all_up()`, so healthy-network runs take none of these
//! paths and stay bit-identical.

pub mod adaptive;
pub mod common;
pub mod oblivious;
pub mod piggyback;

use df_engine::DeterministicRng;
use df_model::{Packet, RouteObjective, VcId};
use df_router::{HeadPlan, PlannedObjective, Router};
use df_topology::{Port, PortClass, Topology};

use crate::config::RoutingConfig;
use crate::decision::{Commitment, Decision, DecisionKind};
use crate::kind::RoutingKind;
use crate::minimal::minimal_output_to_router;
use crate::vcmap::vc_for_next_hop;

/// A routing mechanism bound to its configuration.
///
/// The object is stateless apart from configuration: all dynamic state
/// (credits, counters, saturation bits) lives in the [`Router`] it inspects,
/// which is what lets one instance be shared by every router of the network.
#[derive(Debug, Clone, Copy)]
pub struct RoutingAlgorithm {
    kind: RoutingKind,
    config: RoutingConfig,
}

impl RoutingAlgorithm {
    /// Create a routing algorithm of the given kind with the given
    /// thresholds.
    pub fn new(kind: RoutingKind, config: RoutingConfig) -> Self {
        RoutingAlgorithm { kind, config }
    }

    /// The mechanism kind.
    pub fn kind(&self) -> RoutingKind {
        self.kind
    }

    /// Decide the output request for the head packet of `input_port` at
    /// `router`: the composition of [`plan`](Self::plan) — what is fixed
    /// while the packet waits — and [`decide_planned`](Self::decide_planned)
    /// — what is not.
    ///
    /// The decision is re-evaluated every cycle until the packet wins the
    /// switch, so this function never mutates the packet; any commitment is
    /// carried inside the returned [`Decision`] and applied by the simulator
    /// at grant time.
    pub fn decide(
        &self,
        router: &Router,
        input_port: Port,
        packet: &Packet,
        rng: &mut DeterministicRng,
    ) -> Decision {
        let plan = self.plan(router, input_port, packet);
        self.decide_planned(&plan, router, input_port, || packet, rng)
    }

    /// The static half of [`decide`](Self::decide): the packet's resolved
    /// objective, the output port and VC that objective asks for, and — for
    /// a packet heading to its destination — the mechanism's misroute scope.
    /// A function of the packet, the input port and the router's position
    /// only (no counter, credit or link-health read), so it stays valid for
    /// as long as the packet sits unchanged at the head of its input VC.
    #[inline]
    pub fn plan(&self, router: &Router, input_port: Port, packet: &Packet) -> HeadPlan {
        let topo = router.topology();
        let (current, layout, net) = (router.id(), topo.layout(), router.config());
        // the hierarchical minimal hop towards a router, and its VC
        let toward = |target| {
            let port = minimal_output_to_router(topo, current, target);
            (port, vc_for_next_hop(packet, port.class(&layout), net))
        };
        let (objective, (port, vc), scope, min_link) =
            match packet.routing.objective(topo, current, packet.dst) {
                RouteObjective::Eject(port) => (PlannedObjective::Eject, (port, VcId(0)), 0, 0),
                RouteObjective::NonminimalGateway(gateway, gateway_port) if gateway == current => {
                    let vc = vc_for_next_hop(packet, PortClass::Global, net);
                    (PlannedObjective::Continuation, (gateway_port, vc), 0, 0)
                }
                RouteObjective::LocalDetour(target)
                | RouteObjective::NonminimalGateway(target, _)
                | RouteObjective::Intermediate(target) => {
                    (PlannedObjective::Continuation, toward(target), 0, 0)
                }
                RouteObjective::Destination(dst_router) => {
                    let minimal = toward(dst_router);
                    let misrouted = packet.routing.globally_misrouted();
                    // source routing (VAL, PB) decides once, before any commitment
                    let source_routed =
                        matches!(self.kind, RoutingKind::Valiant | RoutingKind::PiggyBacking);
                    let at_source = input_port.class(&layout) == PortClass::Terminal
                        && packet.hops() == 0
                        && !(source_routed
                            && (misrouted || packet.routing.intermediate_router.is_some()));
                    let bit = |set: bool, bit: u8| if set { bit } else { 0 };
                    let (scope, min_link) = match self.kind {
                        RoutingKind::Minimal => (0, 0),
                        // the Valiant path is open at the source, whatever the groups
                        RoutingKind::Valiant => (bit(at_source, HeadPlan::GLOBAL_SCOPE), 0),
                        RoutingKind::PiggyBacking => piggyback::scope(router, packet, at_source),
                        _ => adaptive::scope(router, packet, minimal.0),
                    };
                    let scope = scope
                        | bit(at_source, HeadPlan::AT_SOURCE)
                        | bit(misrouted, HeadPlan::MISROUTED);
                    (PlannedObjective::Destination, minimal, scope, min_link)
                }
            };
        // `Router::new` caps the radix at `MAX_RADIX`, so the narrow fields fit
        HeadPlan {
            objective,
            scope,
            port: u8::try_from(port.0).expect("a port index is below MAX_RADIX"),
            vc,
            min_link: u16::try_from(min_link).expect("a group has fewer than MAX_RADIX² links"),
        }
    }

    /// The dynamic half of [`decide`](Self::decide), for a head whose
    /// [`plan`](Self::plan) is `plan`: every read of the router's counters,
    /// credits and link health, and every RNG draw.
    ///
    /// The head packet is behind an accessor, called only where a decision
    /// reads it: the long way of a fired row or fault routing, and a PB
    /// source head with room behind either first hop
    /// (`piggyback::decide`); its size is the configured one. On a
    /// healthy router the planned output *is* the decision for an
    /// ejection, a continuation, a head with no misroute family in scope
    /// and an adaptive head whose rows are all quiet (one counter read per
    /// row), and a PB source head blocked at both first hops is decided
    /// from its draws, the plan and the router's credits. Those are short cuts only: debug builds re-decide
    /// every head decided without its packet the long way, with the
    /// packet, on a cloned RNG — same decision, same draws.
    #[inline]
    pub fn decide_planned<'p>(
        &self,
        plan: &HeadPlan,
        router: &Router,
        input_port: Port,
        packet: impl Fn() -> &'p Packet,
        rng: &mut DeterministicRng,
    ) -> Decision {
        let healthy = !router.any_link_down() && router.link_view().all_up();
        let (kind, settled) = match plan.objective {
            PlannedObjective::Eject => (DecisionKind::Ejection, true),
            PlannedObjective::Continuation => (DecisionKind::Continuation, healthy),
            PlannedObjective::Destination => (
                DecisionKind::Minimal,
                healthy
                    && (!plan.has(HeadPlan::GLOBAL_SCOPE | HeadPlan::LOCAL_SCOPE)
                        || adaptive::rows_quiet(self.kind, &self.config, plan, router)),
            ),
        };
        let planned = Decision {
            output_port: plan.output(),
            output_vc: plan.vc,
            kind,
            commitment: Commitment::None,
        };
        let long_way = |packet: &Packet, rng: &mut DeterministicRng| match plan.objective {
            PlannedObjective::Continuation => {
                self.continue_under_faults(router, input_port, packet, planned, rng)
            }
            _ => self.route_to_destination(plan, router, packet, rng),
        };
        let before = cfg!(debug_assertions).then(|| rng.clone());
        let read = std::cell::Cell::new(false);
        let head = || {
            read.set(true);
            packet()
        };
        let decision = match plan.objective {
            _ if settled => planned,
            PlannedObjective::Destination if self.kind == RoutingKind::PiggyBacking => {
                piggyback::decide(plan, router, head, rng)
            }
            _ => long_way(head(), rng),
        };
        debug_assert!(
            read.get() || plan.objective == PlannedObjective::Eject || {
                let mut probe = before.expect("cloned in debug builds");
                long_way(packet(), &mut probe) == decision && probe.state() == rng.state()
            },
            "{:?}: {plan:?} decides {:?} without its packet: another decision or draw",
            self.kind,
            packet()
        );
        decision
    }

    /// Fault routing for a committed `continuation` on a router with a down
    /// link or a non-pristine link view: a committed link that died (its
    /// output port at this router, or — for mechanisms with a link-state
    /// view — a nonminimal gateway link itself, known before walking there)
    /// is re-committed; a live one is followed as planned.
    fn continue_under_faults(
        &self,
        router: &Router,
        input_port: Port,
        packet: &Packet,
        continuation: Decision,
        rng: &mut DeterministicRng,
    ) -> Decision {
        let topo = router.topology();
        let dead = !router.link_is_up(continuation.output_port);
        match packet.routing.objective(topo, router.id(), packet.dst) {
            RouteObjective::LocalDetour(_) if dead => {
                self.abandon_dead_detour(router, input_port, packet, rng)
            }
            RouteObjective::Intermediate(_) if dead => {
                self.reroute_dead_intermediate(router, packet, continuation, rng)
            }
            RouteObjective::NonminimalGateway(gateway, gateway_port)
                if dead
                    || (gateway != router.id() && {
                        let offset = gateway_port.class_offset(&topo.layout());
                        let j = topo.global_link_index(gateway, offset);
                        !router.link_view().link_up(router.group(), j)
                    }) =>
            {
                adaptive::recommit_global(
                    self.kind,
                    &self.config,
                    router,
                    packet,
                    (gateway, gateway_port),
                    continuation,
                    rng,
                )
            }
            _ => continuation,
        }
    }

    /// A committed local detour whose link died: abandon it and decide as if
    /// it had never been committed (the once-per-group detour budget stays
    /// spent). That decision can carry no new commitment — the packet is
    /// past its global hop and has already detoured in this group — so
    /// attaching the abandon commitment is unambiguous.
    fn abandon_dead_detour(
        &self,
        router: &Router,
        input_port: Port,
        packet: &Packet,
        rng: &mut DeterministicRng,
    ) -> Decision {
        let mut undetoured = packet.clone();
        undetoured.routing.abandon_local_detour();
        let mut d = self.decide(router, input_port, &undetoured, rng);
        if d.kind != DecisionKind::Discard {
            debug_assert_eq!(d.commitment, Commitment::None);
            d.commitment = Commitment::AbandonLocalDetour;
        }
        d
    }

    /// A Valiant waypoint whose path died. Before the first global hop the
    /// source re-picks a live intermediate (same RNG discipline as the
    /// original pick); past it the waypoint is simply skipped — strictly
    /// fewer hops, so trivially VC-safe.
    fn reroute_dead_intermediate(
        &self,
        router: &Router,
        packet: &Packet,
        stalled: Decision,
        rng: &mut DeterministicRng,
    ) -> Decision {
        let topo = router.topology();
        if packet.routing.global_hops == 0 {
            let src_group = topo.router_group(router.id());
            let dst_group = topo.node_group(packet.dst);
            // a packet that already spent its pre-global local hop may only
            // restart on one of this router's own global ports — a second
            // pre-global local hop would re-enter the VC ladder below the
            // rung it occupies (same rule recommit_global enforces)
            let own_global_only = packet.routing.local_hops > 0;
            if let Some(inter) =
                common::pick_live_intermediate(router, src_group, dst_group, own_global_only, rng)
            {
                let port = minimal_output_to_router(topo, router.id(), inter);
                return Decision {
                    output_port: port,
                    output_vc: vc_for_next_hop(packet, port.class(&topo.layout()), router.config()),
                    kind: DecisionKind::NonminimalGlobal,
                    commitment: Commitment::RecommitIntermediate { router: inter },
                };
            }
            // No live replacement right now. Skipping the waypoint before
            // the global hop could require a second pre-global local hop
            // (a VC-ladder violation), so while a live escape exists the
            // packet waits on the dead continuation and re-decides next
            // cycle (the bounded draw can miss it). With no live,
            // view-viable escape at all — churn can keep links down
            // through the drain window — the packet is unroutable:
            // discard it, with exact conservation through the
            // dropped-on-fault counters.
            if !own_global_only || common::any_live_global_escape(router, dst_group) {
                return stalled;
            }
            return Decision::discard();
        }
        // past the first global hop: skip the waypoint and head minimally
        // to the destination
        let dst_router = topo.node_router(packet.dst);
        if dst_router == router.id() {
            let mut d = Decision::ejection(topo.node_port(packet.dst));
            d.commitment = Commitment::AbandonIntermediate;
            return d;
        }
        let port = minimal_output_to_router(topo, router.id(), dst_router);
        if !router.link_is_up(port) {
            // the skip path is dead too: any other route would need hops
            // the VC ladder cannot carry, so the packet is unroutable
            return Decision::discard();
        }
        Decision {
            output_port: port,
            output_vc: vc_for_next_hop(packet, port.class(&topo.layout()), router.config()),
            kind: DecisionKind::Continuation,
            commitment: Commitment::AbandonIntermediate,
        }
    }

    fn route_to_destination(
        &self,
        plan: &HeadPlan,
        router: &Router,
        packet: &Packet,
        rng: &mut DeterministicRng,
    ) -> Decision {
        match self.kind {
            RoutingKind::Minimal => Decision::minimal(plan.output(), plan.vc),
            RoutingKind::Valiant => oblivious::valiant_decision(plan, router, packet, rng),
            RoutingKind::PiggyBacking => piggyback::decide_from_packet(plan, router, packet, rng),
            RoutingKind::Olm | RoutingKind::Base | RoutingKind::Hybrid | RoutingKind::Ectn => {
                adaptive::decide(self.kind, &self.config, plan, router, packet, rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimal::minimal_output;
    use df_model::{NetworkConfig, PacketId};
    use df_topology::{
        DragonflyParams, GatewayLiveness, GroupId, MegaflyParams, NodeId, PortPeer, RouterId,
        TopologyParams,
    };
    use std::collections::BTreeSet;

    const KINDS: [RoutingKind; 7] = [
        RoutingKind::Minimal,
        RoutingKind::Valiant,
        RoutingKind::PiggyBacking,
        RoutingKind::Olm,
        RoutingKind::Base,
        RoutingKind::Hybrid,
        RoutingKind::Ectn,
    ];

    /// A router at `id` with seeded random counters, ECtN / PB views and
    /// output room — per port none, all of it or a random occupancy — and,
    /// with `faulty`, a few down links and a non-pristine link view.
    fn random_router(
        id: RouterId,
        topo: TopologyParams,
        faulty: bool,
        rng: &mut DeterministicRng,
    ) -> Router {
        random_router_counting(id, topo, faulty, false, rng)
    }

    /// [`random_router`], its contention counters either set directly or
    /// (`registered`) counting a head in every input VC, each registered
    /// against a random port — a state a snapshot can hold, since restore
    /// checks the counters against the registrations they count.
    fn random_router_counting(
        id: RouterId,
        topo: TopologyParams,
        faulty: bool,
        registered: bool,
        rng: &mut DeterministicRng,
    ) -> Router {
        let mut r = Router::new(id, topo, NetworkConfig::fast_test());
        let layout = topo.layout();
        let links = topo.global_links_per_group() as usize;
        let combined: Vec<u32> = (0..links).map(|_| rng.index(12) as u32).collect();
        r.ectn_mut().install_combined_from(&combined);
        let saturated: Vec<bool> = (0..links).map(|_| rng.bernoulli(0.3)).collect();
        r.pb_mut().install_group_from(&saturated);
        for port in Port::all(&layout) {
            let filler = Packet::new(PacketId(0), NodeId(0), NodeId(1), 8, 0);
            if registered {
                for vc in 0..r.input(port).num_vcs() as u8 {
                    r.receive_packet(port, VcId(vc), filler.clone());
                    let min_output = Port(rng.index(r.num_ports()) as u32);
                    r.register_head(port, VcId(vc), min_output, None);
                }
            } else {
                for _ in 0..rng.index(9) {
                    r.contention_mut().increment(port);
                }
            }
            // the port's room: none (a full output buffer), all of it, or
            // a random occupancy of its buffer and downstream credits (an
            // unconnected port has no link, so nothing is ever staged there)
            if topo.peer(id, port) == PortPeer::Unconnected {
                continue;
            }
            match rng.index(3) {
                0 => {
                    while r.output(port).can_accept(VcId(0), 8) {
                        r.output_mut(port).accept(filler.clone(), VcId(0), 0);
                    }
                }
                1 => {}
                _ => {
                    for vc in 0..r.output(port).num_downstream_vcs() as u8 {
                        for i in 0..rng.index(5) as u64 {
                            if r.output(port).can_accept(VcId(vc), 8) {
                                r.output_mut(port).accept(filler.clone(), VcId(vc), 0);
                                if rng.bernoulli(0.7) {
                                    let _ = r.output_mut(port).try_transmit(1_000 * (i + 1));
                                }
                            }
                        }
                    }
                }
            }
            if faulty && rng.bernoulli(0.15) {
                r.set_link_up(port, false);
            }
        }
        if faulty {
            let mut view = GatewayLiveness::new(&topo);
            for _ in 0..3 {
                let group = GroupId(rng.index(topo.num_groups() as usize) as u32);
                view.set_entry(group, rng.index(links) as u32, false);
            }
            r.install_link_view(&view);
        }
        r
    }

    /// What the simulator does to a granted head: apply the commitment,
    /// then record the hop.
    fn take_hop(
        packet: &mut Packet,
        d: &Decision,
        topo: &TopologyParams,
        from: RouterId,
        to: RouterId,
    ) {
        let routing = &mut packet.routing;
        d.commitment.apply(routing, topo.router_group(from));
        routing.note_hop(topo, d.output_port, to);
    }

    /// Reads of the head packet a decision made without it still costs in
    /// this build: the debug gate's replay of the long way.
    pub(super) const GATE_READS: u32 = cfg!(debug_assertions) as u32;

    /// A head packet that counts how often a decision reads it.
    pub(super) struct Counted<'a> {
        packet: &'a Packet,
        reads: std::cell::Cell<u32>,
    }

    impl<'a> Counted<'a> {
        pub(super) fn new(packet: &'a Packet) -> Self {
            Counted {
                packet,
                reads: std::cell::Cell::new(0),
            }
        }

        /// The accessor `decide_planned` takes.
        pub(super) fn read(&self) -> &'a Packet {
            self.reads.set(self.reads.get() + 1);
            self.packet
        }

        pub(super) fn reads(&self) -> u32 {
            self.reads.get()
        }
    }

    /// The decision the long way: the objective, then fault routing or the
    /// mechanism's own rule, with none of `decide_planned`'s short cuts.
    fn the_long_way(
        algorithm: &RoutingAlgorithm,
        plan: &HeadPlan,
        router: &Router,
        input_port: Port,
        packet: &Packet,
        rng: &mut DeterministicRng,
    ) -> Decision {
        let follow = |kind| Decision {
            output_port: plan.output(),
            output_vc: plan.vc,
            kind,
            commitment: Commitment::None,
        };
        match plan.objective {
            PlannedObjective::Eject => follow(DecisionKind::Ejection),
            PlannedObjective::Continuation => {
                let planned = follow(DecisionKind::Continuation);
                algorithm.continue_under_faults(router, input_port, packet, planned, rng)
            }
            PlannedObjective::Destination => {
                algorithm.route_to_destination(plan, router, packet, rng)
            }
        }
    }

    /// Every state a packet can reach — each mechanism walks seeded packets
    /// hop by hop through randomised routers of both topologies, healthy
    /// and faulty — decides the same from a plan made on a *pristine*
    /// router at that position as from scratch, and as the long way that
    /// takes no short cut: decision and RNG state both. So a plan parked
    /// when the head arrived stays right whatever happens to the router's
    /// counters, credits and links while it waits, and the settled cases of
    /// `decide_planned` skip work, never a different outcome.
    #[test]
    fn a_plan_made_on_a_pristine_router_decides_like_a_from_scratch_decide() {
        let config = RoutingConfig {
            contention_threshold: 3,
            ectn_combined_threshold: 5,
            ..RoutingConfig::default()
        };
        let topologies = [
            TopologyParams::from(DragonflyParams::small()),
            TopologyParams::from(MegaflyParams::small()),
        ];
        for topo in topologies {
            let layout = topo.layout();
            let net = NetworkConfig::fast_test();
            for kind in KINDS {
                let algorithm = RoutingAlgorithm::new(kind, config);
                let mut rng = DeterministicRng::new(kind as u64 + 100 * topo.num_routers() as u64);
                // (objective, input class, scope bits) seen, for coverage
                let mut seen = BTreeSet::new();
                let (mut faulty_states, mut short_cuts) = (0, 0);
                // healthy PB source heads by first hops with room: 0, 1, 2
                let mut pb_rooms = [0u32; 3];
                for walk in 0..400 {
                    let faulty = walk % 3 == 2;
                    let src = NodeId(rng.index(topo.num_nodes() as usize) as u32);
                    let dst = NodeId(rng.index(topo.num_nodes() as usize) as u32);
                    let mut packet = Packet::new(PacketId(walk), src, dst, 8, 0);
                    let (mut at, mut input_port) = (topo.node_router(src), topo.node_port(src));
                    for _hop in 0..10 {
                        let router = random_router(at, topo, faulty, &mut rng);
                        let pristine = Router::new(at, topo, net);
                        let plan = algorithm.plan(&pristine, input_port, &packet);
                        assert_eq!(plan, algorithm.plan(&router, input_port, &packet));
                        let what =
                            format!("{kind:?} walk {walk} at {at} {input_port:?}: {packet:?}");
                        let (mut planned_rng, mut scratch_rng) = (rng.clone(), rng.clone());
                        let counted = Counted::new(&packet);
                        let d = algorithm.decide_planned(
                            &plan,
                            &router,
                            input_port,
                            || counted.read(),
                            &mut planned_rng,
                        );
                        let scratch =
                            algorithm.decide(&router, input_port, &packet, &mut scratch_rng);
                        assert_eq!(d, scratch, "{what}");
                        assert_eq!(planned_rng.state(), scratch_rng.state(), "{what}");
                        let mut long_rng = rng.clone();
                        let long = the_long_way(
                            &algorithm,
                            &plan,
                            &router,
                            input_port,
                            &packet,
                            &mut long_rng,
                        );
                        assert_eq!(d, long, "{what}");
                        assert_eq!(planned_rng.state(), long_rng.state(), "{what}");
                        // the heads `decide_planned` settled without the long way
                        let in_scope = plan.has(HeadPlan::GLOBAL_SCOPE | HeadPlan::LOCAL_SCOPE);
                        let settled = !faulty
                            && match plan.objective {
                                PlannedObjective::Eject => false,
                                PlannedObjective::Continuation => true,
                                PlannedObjective::Destination => {
                                    !in_scope || adaptive::rows_quiet(kind, &config, &plan, &router)
                                }
                            };
                        short_cuts += settled as u32;
                        // a healthy PB source head: room behind its minimal
                        // and its Valiant first hop (none without a third group)
                        let pb_room = (kind == RoutingKind::PiggyBacking
                            && !faulty
                            && plan.objective == PlannedObjective::Destination
                            && plan.has(HeadPlan::AT_SOURCE)
                            && plan.has(HeadPlan::GLOBAL_SCOPE))
                        .then(|| {
                            let dst_group = topo.node_group(packet.dst);
                            let inter = common::pick_intermediate_router(
                                &router,
                                router.group(),
                                dst_group,
                                &mut rng.clone(),
                            );
                            inter.map_or(0, |inter| {
                                let val = minimal_output_to_router(&topo, at, inter);
                                let room = |port| router.output(port).can_accept(VcId(0), 8);
                                room(plan.output()) as usize + room(val) as usize
                            })
                        });
                        if let Some(open) = pb_room {
                            pb_rooms[open] += 1;
                        }
                        // the packet is read where a decision needs it, and
                        // a decision without it is replayed by the debug gate;
                        // under faults PB reads it for a dead link only
                        let reads: &[u32] = match plan.objective {
                            PlannedObjective::Eject => &[0],
                            _ if settled || pb_room == Some(0) => &[GATE_READS],
                            _ if kind == RoutingKind::PiggyBacking && faulty => &[GATE_READS, 1],
                            _ => &[1],
                        };
                        let read = counted.reads();
                        assert!(reads.contains(&read), "{what}: read {read} times");
                        rng = planned_rng;
                        let objective = format!("{:?}", plan.objective);
                        seen.insert((objective, input_port.class(&layout) as u8, plan.scope));
                        faulty_states += faulty as u32;
                        // follow the decision, as far as it leads somewhere
                        let peer = topo.peer(at, d.output_port);
                        let PortPeer::Router(next, next_port) = peer else {
                            break;
                        };
                        if d.kind == DecisionKind::Discard || !router.link_is_up(d.output_port) {
                            break;
                        }
                        take_hop(&mut packet, &d, &topo, at, next);
                        (at, input_port) = (next, next_port);
                    }
                }
                assert!(faulty_states > 100, "{kind:?}: faulty routers were visited");
                assert!(short_cuts > 100, "{kind:?}: {short_cuts} short cuts taken");
                if kind == RoutingKind::PiggyBacking {
                    assert!(
                        pb_rooms.iter().all(|&n| n > 30),
                        "PB source heads blocked, one open, both open: {pb_rooms:?}"
                    );
                }
                let objectives: BTreeSet<&str> = seen.iter().map(|s| s.0.as_str()).collect();
                let adaptive = !matches!(kind, RoutingKind::Minimal);
                assert!(objectives.contains("Eject") && objectives.contains("Destination"));
                assert_eq!(objectives.contains("Continuation"), adaptive, "{kind:?}");
                let classes: BTreeSet<u8> = seen.iter().map(|s| s.1).collect();
                assert_eq!(classes.len(), 3, "{kind:?}: every input class was visited");
                let scopes = seen.iter().fold(0, |bits, s| bits | s.2);
                let expected = match kind {
                    RoutingKind::Minimal => HeadPlan::AT_SOURCE,
                    RoutingKind::Valiant => {
                        HeadPlan::AT_SOURCE | HeadPlan::GLOBAL_SCOPE | HeadPlan::MISROUTED
                    }
                    RoutingKind::PiggyBacking => {
                        HeadPlan::AT_SOURCE | HeadPlan::GLOBAL_SCOPE | HeadPlan::MISROUTED
                    }
                    _ => {
                        HeadPlan::AT_SOURCE
                            | HeadPlan::GLOBAL_SCOPE
                            | HeadPlan::LOCAL_SCOPE
                            | HeadPlan::MISROUTED
                    }
                };
                assert_eq!(scopes, expected, "{kind:?}: every scope bit was exercised");
            }
        }
    }

    /// The head packet is read only where a decision needs it: never for
    /// an ejection, a healthy continuation, a head whose rows are quiet or
    /// a PB source head with no room behind either first hop — in debug
    /// builds once, by the gate's replay — and once for a fired row or a
    /// PB source head with room.
    #[test]
    fn a_decision_reads_its_head_packet_only_on_the_long_way() {
        let topo = TopologyParams::from(DragonflyParams::small());
        let fresh = Router::new(RouterId(0), topo, NetworkConfig::fast_test());
        let base = RoutingAlgorithm::new(RoutingKind::Base, RoutingConfig::default());
        let pb = RoutingAlgorithm::new(RoutingKind::PiggyBacking, RoutingConfig::default());
        let reads = |algorithm: &RoutingAlgorithm, router: &Router, port, packet: &Packet| {
            let plan = algorithm.plan(router, port, packet);
            let counted = Counted::new(packet);
            let mut rng = DeterministicRng::new(5);
            let d = algorithm.decide_planned(&plan, router, port, || counted.read(), &mut rng);
            let mut reference = DeterministicRng::new(5);
            assert_eq!(d, algorithm.decide(router, port, packet, &mut reference));
            assert_eq!(rng.state(), reference.state());
            (d, counted.reads())
        };
        let remote = Packet::new(PacketId(0), NodeId(0), NodeId(40), 8, 0);
        let local = Packet::new(PacketId(1), NodeId(2), NodeId(1), 8, 0);
        let mut committed = remote.clone();
        committed.routing.commit_intermediate(RouterId(3), true);
        // an ejection, a continuation and a head whose row is quiet
        let (d, n) = reads(&base, &fresh, Port(2), &local);
        assert_eq!((d.kind, n), (DecisionKind::Ejection, 0));
        let (d, n) = reads(&base, &fresh, Port(0), &committed);
        assert_eq!((d.kind, n), (DecisionKind::Continuation, GATE_READS));
        let (d, n) = reads(&base, &fresh, Port(0), &remote);
        assert_eq!((d.kind, n), (DecisionKind::Minimal, GATE_READS));
        // a PB source head with room behind its first hops reads it once
        let (d, n) = reads(&pb, &fresh, Port(0), &remote);
        assert_eq!((d.kind, n), (DecisionKind::Minimal, 1));
        // a fired row reads it once
        let mut fired = fresh.clone();
        let min_out = minimal_output(&topo, RouterId(0), remote.dst);
        for _ in 0..=RoutingConfig::default().contention_threshold {
            fired.contention_mut().increment(min_out);
        }
        let (d, n) = reads(&base, &fired, Port(0), &remote);
        assert_eq!((d.kind, n), (DecisionKind::NonminimalGlobal, 1));
        // a PB source head blocked at both first hops: never
        let mut blocked = fresh.clone();
        for port in Port::all(&topo.layout()) {
            while blocked.output(port).can_accept(VcId(0), 8) {
                blocked.output_mut(port).accept(local.clone(), VcId(0), 0);
            }
        }
        let (d, n) = reads(&pb, &blocked, Port(0), &remote);
        assert_eq!((d, n), (Decision::minimal(min_out, VcId(0)), GATE_READS));
    }

    /// The candidate table is derived state: a router that built it on its
    /// first global selection decides exactly like a clone taken before
    /// that and a restored copy — neither of which has one yet — decision
    /// and RNG, healthy and faulty, under every mechanism.
    #[test]
    fn routers_without_a_built_candidate_table_decide_identically() {
        let config = RoutingConfig {
            contention_threshold: 3,
            ectn_combined_threshold: 5,
            ..RoutingConfig::default()
        };
        let net = NetworkConfig::fast_test();
        for topo in [
            TopologyParams::from(DragonflyParams::small()),
            TopologyParams::from(MegaflyParams::small()),
        ] {
            for kind in KINDS {
                let algorithm = RoutingAlgorithm::new(kind, config);
                let mut rng = DeterministicRng::new(kind as u64 + 7);
                let mut misroutes = 0;
                for case in 0..60 {
                    let src = NodeId(rng.index(topo.num_nodes() as usize) as u32);
                    let at = topo.node_router(src);
                    let built = random_router_counting(at, topo, case % 3 == 2, true, &mut rng);
                    let cloned = built.clone();
                    let mut bytes = df_engine::Encoder::new();
                    built.save_state(&mut bytes);
                    let bytes = bytes.into_bytes();
                    let mut restored = Router::new(at, topo, net);
                    restored
                        .restore_state(&mut df_engine::Decoder::new(&bytes))
                        .expect("a router restores its own snapshot");
                    // the simulator replays the link flags and installs the
                    // group facts — the link view, ECtN's combined array and
                    // PB's group view — none of which a router snapshot holds
                    for p in Port::all(&topo.layout()) {
                        restored.set_link_up(p, built.link_is_up(p));
                    }
                    restored.install_link_view(built.link_view());
                    let combined = built.ectn().combined_array();
                    restored.ectn_mut().install_combined_from(combined);
                    let pb = built.pb();
                    let view: Vec<bool> = (0..pb.group_links() as u32)
                        .map(|l| pb.group_saturated(l))
                        .collect();
                    restored.pb_mut().install_group_from(&view);
                    for _ in 0..8 {
                        let dst = NodeId(rng.index(topo.num_nodes() as usize) as u32);
                        let packet = Packet::new(PacketId(0), src, dst, 8, 0);
                        let port = topo.node_port(src);
                        let decide = |router: &Router| {
                            let mut probe = rng.clone();
                            let d = algorithm.decide(router, port, &packet, &mut probe);
                            (d, probe.state())
                        };
                        let expected = decide(&built);
                        assert_eq!(decide(&cloned), expected, "{kind:?} {at} {packet:?}");
                        assert_eq!(decide(&restored), expected, "{kind:?} {at} {packet:?}");
                        misroutes += (expected.0.kind == DecisionKind::NonminimalGlobal) as u32;
                        rng.next_u64();
                    }
                }
                let adaptive = !matches!(kind, RoutingKind::Minimal);
                assert_eq!(
                    misroutes > 20,
                    adaptive,
                    "{kind:?}: {misroutes} global misroutes"
                );
            }
        }
    }

    #[test]
    fn continuation_routes_minimally_towards_the_target() {
        let topo = TopologyParams::from(DragonflyParams::small());
        let r0 = Router::new(RouterId(0), topo, NetworkConfig::fast_test());
        let gport = Port::global(&topo.layout(), 0);
        let mut to_waypoint = Packet::new(PacketId(0), NodeId(0), NodeId(70), 8, 0);
        to_waypoint.routing.commit_intermediate(RouterId(3), true);
        let mut to_gateway = Packet::new(PacketId(1), NodeId(0), NodeId(70), 8, 0);
        to_gateway
            .routing
            .commit_nonminimal_global(RouterId(3), gport);
        // a committed head continues whatever the mechanism's own rules say
        for kind in KINDS {
            let algorithm = RoutingAlgorithm::new(kind, RoutingConfig::default());
            for p in [&to_waypoint, &to_gateway] {
                let mut rng = DeterministicRng::new(4);
                let d = algorithm.decide(&r0, Port(0), p, &mut rng);
                assert_eq!(d.kind, DecisionKind::Continuation, "{kind:?}");
                assert_eq!(d.output_port, topo.local_port_to(RouterId(0), RouterId(3)));
                assert_eq!(d.output_port.class(&topo.layout()), PortClass::Local);
                assert_eq!(d.output_vc, VcId(0));
                assert_eq!(d.commitment, Commitment::None);
                assert_eq!(rng.next_u64(), DeterministicRng::new(4).next_u64());
            }
        }
    }

    #[test]
    fn minimal_decision_matches_minimal_output() {
        let topo = TopologyParams::from(DragonflyParams::small());
        let r0 = Router::new(RouterId(0), topo, NetworkConfig::fast_test());
        let min = RoutingAlgorithm::new(RoutingKind::Minimal, RoutingConfig::default());
        for dst in [5u32, 20, 70, 71] {
            let p = Packet::new(PacketId(0), NodeId(0), NodeId(dst), 8, 0);
            let mut rng = DeterministicRng::new(4);
            let d = min.decide(&r0, Port(0), &p, &mut rng);
            assert_eq!(d.output_port, minimal_output(&topo, r0.id(), p.dst));
            let class = d.output_port.class(&topo.layout());
            assert_eq!(d.output_vc, vc_for_next_hop(&p, class, r0.config()));
            assert_eq!(d.kind, DecisionKind::Minimal);
            assert_eq!(d.commitment, Commitment::None);
            assert_eq!(rng.next_u64(), DeterministicRng::new(4).next_u64());
        }
    }

    /// What the plan holds for a few typical heads.
    #[test]
    fn plans_resolve_the_objective_and_the_misroute_scope() {
        let topo = TopologyParams::from(DragonflyParams::small());
        let net = NetworkConfig::fast_test();
        let base = RoutingAlgorithm::new(RoutingKind::Base, RoutingConfig::default());
        let r0 = Router::new(RouterId(0), topo, net);
        // an injected head for a remote group: global scope, at injection
        let p = Packet::new(PacketId(0), NodeId(0), NodeId(40), 8, 0);
        let plan = base.plan(&r0, Port(0), &p);
        assert_eq!(plan.objective, PlannedObjective::Destination);
        assert_eq!(plan.scope, HeadPlan::AT_SOURCE | HeadPlan::GLOBAL_SCOPE);
        assert_eq!(
            plan.output(),
            minimal_output(&topo, RouterId(0), NodeId(40))
        );
        let (src_group, dst_group) = (topo.node_group(NodeId(0)), topo.node_group(NodeId(40)));
        assert_eq!(
            u32::from(plan.min_link),
            topo.group_link_to(src_group, dst_group)
        );
        // MIN has no scope at all; a local head for this router ejects
        let min = RoutingAlgorithm::new(RoutingKind::Minimal, RoutingConfig::default());
        assert_eq!(min.plan(&r0, Port(0), &p).scope, HeadPlan::AT_SOURCE);
        let here = Packet::new(PacketId(1), NodeId(2), NodeId(1), 8, 0);
        let plan = base.plan(&r0, Port(2), &here);
        assert_eq!(plan.objective, PlannedObjective::Eject);
        assert_eq!(plan.output(), topo.node_port(NodeId(1)));
        // a committed head continues towards its gateway, whatever the rules
        let mut committed = p.clone();
        let gport = Port::global(&topo.layout(), 0);
        committed
            .routing
            .commit_nonminimal_global(RouterId(1), gport);
        let plan = base.plan(&r0, Port(0), &committed);
        assert_eq!(plan.objective, PlannedObjective::Continuation);
        assert_eq!(plan.output(), topo.local_port_to(RouterId(0), RouterId(1)));
        let at_gateway = Router::new(RouterId(1), topo, net);
        assert_eq!(base.plan(&at_gateway, Port(4), &committed).output(), gport);
    }
}
