//! The per-router work of phases 4–5 of [`Network::step`]: a routing +
//! allocation iteration per router holding an input head, and a link
//! transmission per router whose earliest staged packet can leave this
//! cycle.
//!
//! # Effects in walk order
//!
//! Within a phase a router touches only its own state, its private RNG
//! stream and read-only context ([`StepCtx`]). What escapes it — link events (arrivals, deliveries, upstream
//! credit returns), misroute commits, fault re-commits and unroutable
//! discards — is written straight into the network's event queue and
//! metrics ([`Effects`]) where it happens, in walk order
//! (the ascending head set, or the ascending staged routers whose next
//! transmission is due: a staged router that is not due would send
//! nothing, so leaving it out moves no event). No phase reads any of them,
//! so walk order alone fixes the event insertion order, hence the time
//! wheel's tie-breaking, hence the trajectory every pinned digest was
//! captured under.
//!
//! # What the decide loop reads
//!
//! A head is decided from its [`HeadPlan`](df_router::HeadPlan) (parked on
//! its input VC), the router's own counters, credits and link health, and
//! the router's RNG. The head packet, in the router's slab, is read only
//! where a decision needs it: to plan a new or restored head, and on the
//! long way (a fired row, a PB source head with room behind either first
//! hop, fault routing). Its size is the configured one. At saturation
//! most heads are settled or blocked, so most of the step never touches
//! a packet.
//!
//! The per-router functions are `#[inline]`: each has one caller, a walk in
//! `Network::step`, and a call per router measured about 3% of a saturated
//! medium step.
//!
//! [`Network::step`]: crate::network::Network::step

use df_engine::DeterministicRng;
use df_model::{Cycle, NetworkConfig, VcId};
use df_router::{set_bits, AllocationRequest, Grant, Router};
use df_routing::{minimal, Decision, DecisionKind, RoutingAlgorithm};
use df_topology::{Port, PortClass, PortPeer, RouterId, Topology, TopologyParams};

use crate::events::{Event, EventQueue};
use crate::metrics::Metrics;
use crate::probe::StepCounts;

/// A packet leaving an output buffer: `(port, packet, downstream VC, cycle
/// at which the tail clears the router)`.
pub(crate) type SentPacket = (Port, df_model::Packet, VcId, Cycle);

/// Read-only context of every phase.
pub(crate) struct StepCtx {
    /// The topology (plain sizing data).
    pub topo: TopologyParams,
    /// The routing mechanism and its thresholds.
    pub algorithm: RoutingAlgorithm,
    /// Router/link microarchitecture (link latencies of scheduled events).
    pub network: NetworkConfig,
}

/// The step's reusable scratch buffers, each refilled for one router (or
/// one group) and never read after it.
#[derive(Default)]
pub(crate) struct StepScratch {
    /// Allocation requests of the router currently being processed — one
    /// per head whose requested output can take it right now — in
    /// ascending `(input port, input VC)` order.
    pub requests: Vec<AllocationRequest>,
    /// `decisions[i]` is the routing decision behind `requests[i]`.
    pub decisions: Vec<Decision>,
    /// Each input port of `requests` with its VC-scan wrap point: the
    /// highest VC of a head it did not discard + 1, blocked or not.
    pub wraps: Vec<(Port, usize)>,
    /// Debug builds only: the request of every head not discarded, blocked
    /// ones included — the list the allocator gate replays.
    pub all_requests: Vec<AllocationRequest>,
    /// `(port, vc)` heads the routing layer discarded this round (fault
    /// routing).
    pub discards: Vec<(Port, VcId)>,
    /// Grant buffer.
    pub grants: Vec<Grant>,
    /// Transmitted-packet buffer.
    pub sent: Vec<SentPacket>,
    /// PB gather buffer (one group's `a·h` flags).
    pub pb_flat: Vec<bool>,
    /// ECtN combination buffer (one group's `a·h` counters).
    pub ectn_scratch: Vec<u32>,
    /// The step's work counts so far, handed to the probe at its end.
    pub counts: StepCounts,
}

/// Where a routing + allocation iteration's cross-router effects land: the
/// network's own state, borrowed for one walk and never read by it.
pub(crate) struct Effects<'a> {
    /// Upstream credit returns.
    pub events: &'a mut EventQueue,
    /// Misroute commits, fault re-commits and unroutable discards.
    pub metrics: &'a mut Metrics,
}

/// One allocation iteration for one router: register new heads, compute
/// routing decisions, allocate, apply grants. Router-local except for the
/// upstream credit returns, misroute commits and discards it writes to `fx`.
/// Returns whether a grant staged a packet.
#[inline]
pub(crate) fn route_and_allocate_one(
    router: &mut Router,
    rng: &mut DeterministicRng,
    ctx: &StepCtx,
    now: Cycle,
    scratch: &mut StepScratch,
    fx: &mut Effects,
) -> bool {
    let router_id = router.id();
    let track_ectn = ctx.algorithm.kind().needs_ectn_broadcast();

    // a. contention / ECtN registration of new head packets; the O(1)
    // counter guard makes this free on cycles with no new heads
    if router.has_unregistered_heads() {
        for p in set_bits(router.occupied_ports()) {
            let port = Port(p as u32);
            for v in set_bits(router.occupied_vcs(port)) {
                if !router.input(port).vc(v).head_needs_registration() {
                    continue;
                }
                let vc = VcId(v as u8);
                let (min_out, ectn_link) = {
                    let head = router.head(port, vc).expect("unregistered head exists");
                    let min_out = minimal::minimal_output(&ctx.topo, router_id, head.dst);
                    let ectn_link = if track_ectn {
                        minimal::ectn_link_for(
                            &ctx.topo,
                            router_id,
                            router.input(port).class(),
                            head,
                        )
                    } else {
                        None
                    };
                    (min_out, ectn_link)
                };
                router.register_head(port, vc, min_out, ectn_link);
            }
        }
    }

    // b. routing decisions for every occupied VC head, each from its head
    // plan — made the first time the head is decided (new, or restored)
    // and parked beside it. Every head is decided (a fired row draws from
    // the router's RNG whether or not the packet can move), but only a head
    // whose requested output can take it right now files a request; the
    // port's wrap point carries what its blocked heads would have told the
    // allocator. The head packet is behind an accessor (module doc:
    // what the decide loop reads). Discards (unroutable packets) are
    // applied after the loop, so every head decides against the same
    // pre-discard router state.
    scratch.requests.clear();
    scratch.decisions.clear();
    scratch.wraps.clear();
    scratch.all_requests.clear();
    scratch.discards.clear();
    let mut heads = 0;
    for p in set_bits(router.occupied_ports()) {
        let port = Port(p as u32);
        let (filed, mut wrap) = (scratch.requests.len(), 0);
        for v in set_bits(router.occupied_vcs(port)) {
            let vc = VcId(v as u8);
            let plan = match router.input(port).vc(v).plan() {
                Some(plan) => plan,
                None => {
                    let head = router.head(port, vc).expect("an occupied VC has a head");
                    let plan = ctx.algorithm.plan(router, port, head);
                    router.set_plan(port, vc, plan);
                    plan
                }
            };
            let head = || router.head(port, vc).expect("an occupied VC has a head");
            // the gate: with a fresh plan this is `decide`, by definition
            debug_assert_eq!(
                plan,
                ctx.algorithm.plan(router, port, head()),
                "router {router_id} {port:?} vc {v}: the head's plan is stale"
            );
            let decision = ctx.algorithm.decide_planned(&plan, router, port, head, rng);
            heads += 1;
            if decision.kind == DecisionKind::Discard {
                scratch.discards.push((port, vc));
                continue;
            }
            wrap = v + 1;
            let request = AllocationRequest {
                input_port: port,
                input_vc: vc,
                output_port: decision.output_port,
                output_vc: decision.output_vc,
                size_phits: ctx.network.packet_size_phits,
            };
            if cfg!(debug_assertions) {
                scratch.all_requests.push(request);
            }
            if router.can_grant(request.output_port, request.output_vc, request.size_phits) {
                scratch.requests.push(request);
                scratch.decisions.push(decision);
            }
        }
        if scratch.requests.len() > filed {
            scratch.wraps.push((port, wrap));
        }
    }
    scratch.counts.heads += heads;
    scratch.counts.requests += scratch.requests.len() as u64;

    // b'. apply the discards: release the packet's registrations, return
    // the freed input slot's credits upstream and take the packet out of
    // the network's accounting
    for &(port, vc) in &scratch.discards {
        discard_one(router, ctx, now, port, vc, fx);
    }

    if scratch.requests.is_empty() {
        return false;
    }

    // c. separable allocation; debug builds replay the full request list
    // (blocked heads filed, wraps derived) on a copy of the allocator, which
    // must grant the same and leave the same pointers
    let reference = cfg!(debug_assertions).then(|| router.allocator().clone());
    router.allocate_into(&scratch.requests, &scratch.wraps, &mut scratch.grants);
    if let Some(mut reference) = reference {
        let mut expected = Vec::new();
        reference.allocate_into(&scratch.all_requests, &mut expected, |port, vc, size| {
            router.can_grant(port, vc, size)
        });
        debug_assert_eq!(
            scratch.grants, expected,
            "router {router_id}: grantable-only allocation"
        );
        debug_assert!(
            reference == *router.allocator(),
            "router {router_id}: grantable-only allocation moved the pointers elsewhere"
        );
    }

    // d. apply grants: commits, misroute metrics and upstream credit returns
    scratch.counts.grants += scratch.grants.len() as u64;
    for grant in &scratch.grants {
        apply_one_grant(router, ctx, now, grant, scratch, fx);
    }
    !scratch.grants.is_empty()
}

/// Discard one unroutable head packet (fault routing): router-local release,
/// the upstream credit return for the freed input buffer slot, and the
/// packet's drop accounting.
fn discard_one(
    router: &mut Router,
    ctx: &StepCtx,
    now: Cycle,
    port: Port,
    vc: VcId,
    fx: &mut Effects,
) {
    let (packet, input_class) = router.discard_head(port, vc);
    return_upstream_credit(
        router.id(),
        ctx,
        now,
        (port, input_class, vc),
        packet.size_phits,
        fx.events,
    );
    fx.metrics.record_dropped_unroutable();
}

/// Schedule the credit return for `phits` freed in input buffer `(port,
/// class, vc)` of `router_id`: it reaches the router upstream of that port
/// one link latency from `now` (terminal inputs have no upstream router).
#[inline]
fn return_upstream_credit(
    router_id: RouterId,
    ctx: &StepCtx,
    now: Cycle,
    (port, class, vc): (Port, PortClass, VcId),
    phits: u32,
    events: &mut EventQueue,
) {
    if class == PortClass::Terminal {
        return;
    }
    if let PortPeer::Router(upstream, upstream_port) = ctx.topo.peer(router_id, port) {
        let latency = ctx.network.link_latency_for(class) as Cycle;
        events.schedule(
            now + latency,
            Event::CreditReturn {
                router: upstream,
                port: upstream_port,
                vc,
                phits,
            },
        );
    }
}

/// Apply one grant: commit the routing decision to the head packet, record
/// misroute statistics, move the packet to its output buffer and return
/// the freed input slot's credits upstream.
fn apply_one_grant(
    router: &mut Router,
    ctx: &StepCtx,
    now: Cycle,
    grant: &Grant,
    scratch: &StepScratch,
    fx: &mut Effects,
) {
    let request = scratch
        .requests
        .binary_search_by_key(&(grant.input_port, grant.input_vc), |r| {
            (r.input_port, r.input_vc)
        })
        .expect("grant matches a request");
    let decision = scratch.decisions[request];
    // apply the commitment to the head packet before it moves
    let group = router.group();
    if let Some(head) = router.head_mut(grant.input_port, grant.input_vc) {
        decision.commitment.apply(&mut head.routing, group);
    }
    if decision.commitment.is_fault_recommit() {
        fx.metrics.record_recommitted();
    }
    // misrouted-percentage statistics: count each packet once, when it
    // takes its first global hop
    if grant.output_port.class(&ctx.topo.layout()) == PortClass::Global {
        let head = router
            .head(grant.input_port, grant.input_vc)
            .expect("granted head exists");
        if head.routing.global_hops == 0 {
            fx.metrics.record_commit(now, head.routing.flags.global);
        }
    }
    let applied = router.apply_grant(grant, now);
    return_upstream_credit(
        router.id(),
        ctx,
        now,
        (grant.input_port, applied.input_class, grant.input_vc),
        applied.freed_phits,
        fx.events,
    );
}

/// Link transmission for one router: drain ready output buffers and
/// schedule the resulting arrival/delivery events. Returns whether any
/// packet left.
#[inline]
pub(crate) fn transmit_one(
    router: &mut Router,
    ctx: &StepCtx,
    now: Cycle,
    sent: &mut Vec<SentPacket>,
    events: &mut EventQueue,
) -> bool {
    sent.clear();
    router.transmit_outputs_into(now, sent);
    let router_id = router.id();
    let any = !sent.is_empty();
    for (port, packet, vc, tail_at) in sent.drain(..) {
        match ctx.topo.peer(router_id, port) {
            PortPeer::Node(node) => {
                debug_assert_eq!(node, packet.dst, "a packet ejects at its destination");
                let latency = ctx.network.latencies.terminal_link as Cycle;
                events.schedule(tail_at + latency, Event::Delivery { packet });
            }
            PortPeer::Router(peer, peer_port) => {
                let class = port.class(&ctx.topo.layout());
                let latency = ctx.network.link_latency_for(class) as Cycle;
                events.schedule(
                    tail_at + latency,
                    Event::PacketArrival {
                        router: peer,
                        port: peer_port,
                        vc,
                        packet,
                    },
                );
            }
            PortPeer::Unconnected => {
                unreachable!("routing never selects an unconnected port")
            }
        }
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The restore trap: a snapshot taken mid-run holds heads that are
    /// already *registered*, so no registration will ever plan them — and
    /// at saturation a blocked head may wait a long time. Every occupied VC
    /// of a restored router carries a plan after its first iteration, and
    /// loses it with the head it was made for.
    #[test]
    fn a_restored_router_plans_its_registered_heads_on_the_first_iteration() {
        let topo = df_topology::TopologyParams::from(df_topology::DragonflyParams::small());
        let network = NetworkConfig::fast_test();
        let ctx = StepCtx {
            topo,
            algorithm: RoutingAlgorithm::new(df_routing::RoutingKind::Base, Default::default()),
            network,
        };
        let (mut rng, mut scratch) = (DeterministicRng::new(3), StepScratch::default());
        let (mut events, mut metrics) = (
            EventQueue::with_horizon(256),
            Metrics::new(0, 20, network.packet_size_phits),
        );
        let mut fx = Effects {
            events: &mut events,
            metrics: &mut metrics,
        };
        // two packets in every input VC, all for one remote node: they share
        // one minimal output, so most heads stay blocked behind it
        let mut router = Router::new(df_topology::RouterId(0), topo, network);
        let mut id = 0;
        for port in Port::all(&topo.layout()) {
            for vc in 0..router.input(port).num_vcs() {
                for _ in 0..2 {
                    let src = df_topology::NodeId(id % 2);
                    let packet = df_model::Packet::new(
                        df_model::PacketId(id as u64),
                        src,
                        df_topology::NodeId(40),
                        8,
                        0,
                    );
                    router.receive_packet(port, VcId(vc as u8), packet);
                    id += 1;
                }
            }
        }
        route_and_allocate_one(&mut router, &mut rng, &ctx, 0, &mut scratch, &mut fx);
        assert!(!scratch.grants.is_empty(), "some head left");

        let mut bytes = df_engine::Encoder::new();
        router.save_state(&mut bytes);
        let bytes = bytes.into_bytes();
        let mut restored = Router::new(df_topology::RouterId(0), topo, network);
        restored
            .restore_state(&mut df_engine::Decoder::new(&bytes))
            .expect("a router restores its own snapshot");
        let vcs = |router: &Router| -> Vec<(Port, usize)> {
            Port::all(&topo.layout())
                .flat_map(|port| (0..router.input(port).num_vcs()).map(move |vc| (port, vc)))
                .collect()
        };
        let mut registered = 0;
        for (port, vc) in vcs(&restored) {
            let input_vc = restored.input(port).vc(vc);
            assert_eq!(input_vc.plan(), None, "plans are not in the snapshot");
            registered += input_vc.registered_min_output().is_some() as u32;
        }
        assert!(registered > 10, "the snapshot holds registered heads");

        route_and_allocate_one(&mut restored, &mut rng, &ctx, 1, &mut scratch, &mut fx);
        let (mut planned, mut popped) = (0, 0);
        for (port, vc) in vcs(&restored) {
            let input_vc = restored.input(port).vc(vc);
            let granted = scratch
                .grants
                .iter()
                .any(|g| (g.input_port, g.input_vc.index()) == (port, vc));
            // a granted head took its plan with it; its successor (if any)
            // is planned when it is first decided, next iteration
            assert_eq!(
                input_vc.plan().is_some(),
                !input_vc.is_empty() && !granted,
                "{port:?} vc {vc}"
            );
            planned += input_vc.plan().is_some() as u32;
            popped += granted as u32;
        }
        assert!(
            planned > 10 && popped > 0,
            "{planned} planned, {popped} popped"
        );
    }
}
