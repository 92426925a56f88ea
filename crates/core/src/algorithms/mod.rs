//! The routing algorithms: dispatch and the shared decision skeleton.
//!
//! [`RoutingAlgorithm::decide`] first honours any commitment the packet
//! already carries (a Valiant waypoint, a pending nonminimal global link, a
//! local detour): those produce *continuation* decisions that simply follow
//! the committed path minimally. Only packets with no pending commitment
//! reach the per-mechanism adaptive logic, which may produce a minimal
//! decision or a new commitment.
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
//!   ([`adaptive::recommit_global`], which documents the deadlock-freedom
//!   argument);
//! * a dead path to a Valiant waypoint re-picks a live intermediate at the
//!   source ([`common::pick_live_intermediate`]) or skips the waypoint once
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
use df_model::Packet;
use df_model::RouteObjective;
use df_router::Router;
use df_topology::{Port, PortClass, RouterId, Topology};

use crate::config::RoutingConfig;
use crate::decision::{Commitment, Decision, DecisionKind};
use crate::kind::RoutingKind;
use crate::minimal::minimal_output_to_router;
use crate::vcmap::vc_for_next_hop;

/// A routing mechanism bound to its configuration.
///
/// The object is stateless apart from configuration: all dynamic state
/// (credits, counters, saturation bits) lives in the [`Router`] it inspects,
/// which is what lets one instance be shared by every router of the network —
/// or copied wholesale into every worker of the parallel kernel.
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

    /// The configuration.
    pub fn config(&self) -> &RoutingConfig {
        &self.config
    }

    /// Decide the output request for the head packet of `input_port` at
    /// `router`.
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
        let topo = router.topology();
        let current = router.id();
        match packet.routing.objective(topo, current, packet.dst) {
            RouteObjective::Eject(port) => Decision::ejection(port),
            RouteObjective::LocalDetour(r) => {
                let d = common::continuation_to_router(router, packet, r);
                if router.any_link_down() && !router.link_is_up(d.output_port) {
                    self.abandon_dead_detour(router, input_port, packet, rng)
                } else {
                    d
                }
            }
            RouteObjective::NonminimalGateway(gateway, gport) => {
                self.continue_to_gateway(router, packet, gateway, gport, rng)
            }
            RouteObjective::Intermediate(r) => {
                let d = common::continuation_to_router(router, packet, r);
                if router.any_link_down() && !router.link_is_up(d.output_port) {
                    self.reroute_dead_intermediate(router, packet, d, rng)
                } else {
                    d
                }
            }
            RouteObjective::Destination(dst_router) => {
                self.route_to_destination(router, input_port, packet, dst_router, rng)
            }
        }
    }

    fn continue_to_gateway(
        &self,
        router: &Router,
        packet: &Packet,
        gateway: RouterId,
        gateway_port: Port,
        rng: &mut DeterministicRng,
    ) -> Decision {
        let topo = router.topology();
        let at_gateway = gateway == router.id();
        let continuation = if at_gateway {
            Decision {
                output_port: gateway_port,
                output_vc: vc_for_next_hop(packet, PortClass::Global, router.config()),
                kind: DecisionKind::Continuation,
                commitment: Commitment::None,
            }
        } else {
            common::continuation_to_router(router, packet, gateway)
        };
        // fault routing: a committed link that died (its output port at this
        // router, or — for mechanisms with a link-state view — the gateway
        // link itself, known before walking there) is re-committed
        if router.any_link_down() || !router.link_view().all_up() {
            let committed_dead = !router.link_is_up(continuation.output_port) || {
                !at_gateway && {
                    let layout = topo.layout();
                    let j = topo.global_link_index(gateway, gateway_port.class_offset(&layout));
                    !router.link_view().link_up(router.group(), j)
                }
            };
            if committed_dead {
                return adaptive::recommit_global(
                    self.kind,
                    &self.config,
                    router,
                    packet,
                    (gateway, gateway_port),
                    continuation,
                    rng,
                );
            }
        }
        continuation
    }

    /// A committed local detour whose link died: abandon it and route
    /// towards the destination as if it had never been committed (the
    /// once-per-group detour budget stays spent). The destination logic can
    /// produce no new commitment here — the packet is past its global hop
    /// and has already detoured in this group — so attaching the abandon
    /// commitment is unambiguous.
    fn abandon_dead_detour(
        &self,
        router: &Router,
        input_port: Port,
        packet: &Packet,
        rng: &mut DeterministicRng,
    ) -> Decision {
        let dst_router = router.topology().node_router(packet.dst);
        if dst_router == router.id() {
            // unreachable in practice (a detour is never committed at the
            // destination router), but keep the objective's contract
            return Decision::ejection(router.topology().node_port(packet.dst));
        }
        let mut d = self.route_to_destination(router, input_port, packet, dst_router, rng);
        if d.kind == DecisionKind::Discard {
            return d;
        }
        debug_assert_eq!(d.commitment, Commitment::None);
        d.commitment = Commitment::AbandonLocalDetour;
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
        router: &Router,
        input_port: Port,
        packet: &Packet,
        dst_router: RouterId,
        rng: &mut DeterministicRng,
    ) -> Decision {
        debug_assert_ne!(
            dst_router,
            router.id(),
            "ejection is handled by the objective"
        );
        match self.kind {
            RoutingKind::Minimal => common::minimal_decision(router, packet),
            RoutingKind::Valiant => oblivious::valiant_decision(router, input_port, packet, rng),
            RoutingKind::PiggyBacking => {
                piggyback::decide(&self.config, router, input_port, packet, rng)
            }
            RoutingKind::Olm | RoutingKind::Base | RoutingKind::Hybrid | RoutingKind::Ectn => {
                adaptive::decide(self.kind, &self.config, router, input_port, packet, rng)
            }
        }
    }
}
