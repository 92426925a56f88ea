//! The sharded phase pipeline of [`Network::step`]: what one shard does in
//! one phase, and how a phase's work is split into shards.
//!
//! A *shard* is a set of ordinary borrows ([`ShardWork`]): a contiguous
//! `&mut [Router]` with the same range of the per-router RNGs, the work
//! items inside it and its own [`ShardState`]. [`split_shards`] carves them
//! off the router array with `split_at_mut`, so that no two alias is checked
//! by the compiler — whether they then run inline
//! ([`KernelMode::Optimized`]: one shard, no pool) or concurrently on the
//! [`WorkerPool`](crate::pool::WorkerPool) ([`KernelMode::Parallel`]). Both
//! call [`ShardWork::run`]: one code path, differing only in scheduling.
//!
//! # Why the result does not depend on the shard count
//!
//! Results are **bit-for-bit identical** for any shard count (checked by
//! `tests/kernel_equivalence.rs`). Within a phase a router touches only its
//! own state and private RNG stream, read-only context ([`StepCtx`], its
//! group's flooded link view), and *cross-router effects* — link events
//! (arrivals, deliveries, upstream credit returns) and global metrics
//! commits — which are never applied during a phase: each shard appends them
//! to its own staging buffers in the order it produces them, and after the
//! phase the main thread replays the buffers **in ascending shard order**.
//! Shards are contiguous chunks of the ascending-sorted active-router list
//! (or of the group list for the control-plane phases, whose exchanges read
//! and write one group's routers only — see [`df_router::dissemination`]),
//! so the concatenation of the staging buffers is exactly the sequence one
//! shard produces: same event insertion order, hence the same time-wheel
//! tie-breaking, hence the same trajectory.
//!
//! [`Network::step`]: crate::network::Network::step
//! [`KernelMode::Optimized`]: crate::config::KernelMode::Optimized
//! [`KernelMode::Parallel`]: crate::config::KernelMode::Parallel

use df_engine::DeterministicRng;
use df_model::{Cycle, NetworkConfig, VcId};
use df_router::{dissemination, set_bits, AllocationRequest, Grant, Router};
use df_routing::algorithms::piggyback;
use df_routing::{minimal, Commitment, Decision, DecisionKind, RoutingAlgorithm};
use df_topology::{AnyTopology, GatewayLiveness, Port, PortClass, PortPeer, RouterId, Topology};

use crate::events::Event;

/// A packet leaving an output buffer: `(port, packet, downstream VC, cycle
/// at which the tail clears the router)`.
pub(crate) type SentPacket = (Port, df_model::Packet, VcId, Cycle);

/// Read-only context shared by every shard.
pub(crate) struct StepCtx {
    /// The topology (plain sizing data).
    pub topo: AnyTopology,
    /// The routing mechanism and its thresholds.
    pub algorithm: RoutingAlgorithm,
    /// Router/link microarchitecture (link latencies for staged events).
    pub network: NetworkConfig,
}

/// Per-shard mutable state: scratch buffers for one router's allocation
/// round plus the staging buffers for cross-router effects. One instance
/// per shard; a shard touches only its own.
#[derive(Default)]
pub(crate) struct ShardState {
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
    /// Grant buffer reused across routers.
    pub grants: Vec<Grant>,
    /// Transmitted-packet buffer reused across routers.
    pub sent: Vec<SentPacket>,
    /// PB gather buffer (one group's `a·h` flags).
    pub pb_flat: Vec<bool>,
    /// ECtN combination buffer (one group's `a·h` counters).
    pub ectn_scratch: Vec<u32>,
    /// Staged link events `(completion cycle, event)`, replayed by the main
    /// thread in shard order after the phase barrier.
    pub staged_events: Vec<(Cycle, Event)>,
    /// Staged misroute-commit metrics `(cycle, globally misrouted)`.
    pub staged_commits: Vec<(Cycle, bool)>,
    /// Scratch list of `(port, vc)` heads the routing layer discarded this
    /// round (fault routing), cleared per router.
    pub discards: Vec<(Port, VcId)>,
    /// Packets discarded as unroutable, replayed by the main thread in
    /// shard order (global accounting: in-flight counters and drop
    /// metrics).
    pub staged_discards: Vec<df_model::Packet>,
    /// Number of fault re-commits applied in this shard this phase.
    pub staged_recommits: u64,
}

/// Which phase of the cycle a shard executes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum PhaseKind {
    /// PB flag exchange + own-flag refresh, sharded by group.
    Pb,
    /// ECtN partial-array broadcast, sharded by group.
    Ectn,
    /// One routing + separable-allocation iteration, sharded over the
    /// active-router list.
    Alloc,
    /// Output-buffer link transmission, sharded over the active-router list.
    Transmit,
}

impl PhaseKind {
    /// Whether the phase is a per-group control-plane exchange (as opposed
    /// to a walk over the active routers).
    pub fn is_control(self) -> bool {
        matches!(self, PhaseKind::Pb | PhaseKind::Ectn)
    }
}

/// One shard's share of one phase, as exclusive borrows.
pub(crate) struct ShardWork<'a> {
    /// The contiguous router range the shard owns (whole groups in a
    /// control phase).
    pub routers: &'a mut [Router],
    /// The same range of the per-router RNG array.
    pub rngs: &'a mut [DeterministicRng],
    /// Router index of `routers[0]`.
    pub base: usize,
    /// The shard's chunk of the sorted active list, all inside the range
    /// (router phases; empty otherwise).
    pub active: &'a [u32],
    /// The flooded link view of each group in `routers` (control phases;
    /// empty otherwise).
    pub linkviews: &'a [GatewayLiveness],
    /// The shard's scratch and effect-staging buffers.
    pub shard: &'a mut ShardState,
}

/// The half-open work range `[lo, hi)` of shard `w` out of `shards` over
/// `len` items: contiguous, balanced to within one item, and covering
/// `0..len` exactly when concatenated in shard order.
#[inline]
pub(crate) fn chunk_bounds(len: usize, shards: usize, w: usize) -> (usize, usize) {
    (w * len / shards, (w + 1) * len / shards)
}

/// Detach `rest[skip..skip + len]` from the front of `rest`, leaving what
/// follows it.
fn carve<'a, T>(rest: &mut &'a mut [T], skip: usize, len: usize) -> &'a mut [T] {
    let (mine, tail) = std::mem::take(rest)[skip..].split_at_mut(len);
    *rest = tail;
    mine
}

/// Split one phase into one [`ShardWork`] per entry of `shards`, in shard
/// order. Shard `w` gets its [`chunk_bounds`] chunk of the work list — the
/// groups `0..linkviews.len()` in a control phase, otherwise `active`,
/// which must be sorted ascending and duplicate-free — and the smallest
/// router range containing it: whole groups of `routers_per_group`, or
/// `active[lo]..=active[hi - 1]`. The ranges ascend with the shard index,
/// so each is carved off the front of what the previous ones left.
pub(crate) fn split_shards<'a>(
    kind: PhaseKind,
    routers_per_group: usize,
    mut routers: &'a mut [Router],
    mut rngs: &'a mut [DeterministicRng],
    active: &'a [u32],
    linkviews: &'a [GatewayLiveness],
    shards: &'a mut [ShardState],
) -> impl Iterator<Item = ShardWork<'a>> {
    let control = kind.is_control();
    let num_shards = shards.len();
    let num_items = if control {
        linkviews.len()
    } else {
        active.len()
    };
    // router index of `routers[0]` / `rngs[0]`
    let mut carved = 0;
    shards.iter_mut().enumerate().map(move |(w, shard)| {
        let (lo, hi) = chunk_bounds(num_items, num_shards, w);
        let (active, linkviews) = if control {
            (&active[..0], &linkviews[lo..hi])
        } else {
            (&active[lo..hi], &linkviews[..0])
        };
        let (base, end) = match (active.first(), active.last()) {
            _ if control => (lo * routers_per_group, hi * routers_per_group),
            (Some(&first), Some(&last)) => (first as usize, last as usize + 1),
            _ => (carved, carved),
        };
        let skip = base - carved;
        carved = end;
        ShardWork {
            routers: carve(&mut routers, skip, end - base),
            rngs: carve(&mut rngs, skip, end - base),
            base,
            active,
            linkviews,
            shard,
        }
    })
}

impl ShardWork<'_> {
    /// Execute the shard's share of a `kind` phase at cycle `now`.
    pub fn run(self, kind: PhaseKind, now: Cycle, ctx: &StepCtx) {
        let base = self.base;
        match kind {
            PhaseKind::Alloc => {
                for i in self.active.iter().map(|&r| r as usize - base) {
                    let (router, rng) = (&mut self.routers[i], &mut self.rngs[i]);
                    route_and_allocate_one(router, rng, ctx, now, self.shard);
                }
            }
            PhaseKind::Transmit => {
                for i in self.active.iter().map(|&r| r as usize - base) {
                    transmit_one(&mut self.routers[i], ctx, now, self.shard);
                }
            }
            PhaseKind::Pb | PhaseKind::Ectn => {
                let a = ctx.topo.routers_per_group() as usize;
                for (group, linkview) in self.routers.chunks_mut(a).zip(self.linkviews) {
                    control_exchange_group(kind, group, ctx, linkview, self.shard);
                }
            }
        }
    }
}

/// One control-plane exchange for one group (an exclusively borrowed,
/// contiguous slice of that group's routers). Every exchange additionally
/// installs the group's flooded gateway-liveness view into its routers —
/// the link-state bits piggybacked on the same messages (one integer
/// compare per router when nothing changed).
pub(crate) fn control_exchange_group(
    kind: PhaseKind,
    group: &mut [Router],
    ctx: &StepCtx,
    linkview: &GatewayLiveness,
    shard: &mut ShardState,
) {
    match kind {
        PhaseKind::Pb => {
            // The exchange is idempotent: gathering own flags none of which
            // flipped since the group's last gather would reinstall the
            // views every member already holds, so it is skipped.
            if group.iter().any(|router| router.pb().own_flipped()) {
                for router in group.iter_mut() {
                    router.pb_mut().clear_own_flipped();
                }
                dissemination::pb_exchange_group(group, &mut shard.pb_flat);
            }
            debug_assert!(
                pb_views_are_current(group),
                "a skipped PB exchange would have changed a group view"
            );
            dissemination::install_linkview_group(group, linkview);
            // Refresh own flags after the group's exchange: installs never
            // read own flags of other groups and the refresh reads only
            // router-local congestion, so doing it group-by-group is
            // equivalent to the all-groups-then-all-routers order. (A no-op
            // for a router whose outputs did not change; a flip is recorded
            // for the next cycle's exchange.)
            for router in group.iter_mut() {
                piggyback::update_own_saturation(ctx.algorithm.config(), router);
            }
        }
        PhaseKind::Ectn => {
            dissemination::ectn_exchange_group(group, &mut shard.ectn_scratch);
            dissemination::install_linkview_group(group, linkview);
        }
        PhaseKind::Alloc | PhaseKind::Transmit => {
            unreachable!("router phases are not group exchanges")
        }
    }
}

/// Whether every member's installed PB group view equals the concatenation
/// of the group's own flags — the state a PB exchange leaves behind, checked
/// in debug builds where one was skipped.
fn pb_views_are_current(group: &[Router]) -> bool {
    let gathered: Vec<bool> = group
        .iter()
        .flat_map(|router| router.pb().own_flags().iter().copied())
        .collect();
    group.iter().all(|router| {
        (0..gathered.len()).all(|link| router.pb().group_saturated(link as u32) == gathered[link])
    })
}

/// One allocation iteration for one router: register new heads, compute
/// routing decisions, allocate, apply grants. Router-local except for the
/// staged credit events and misroute commits.
pub(crate) fn route_and_allocate_one(
    router: &mut Router,
    rng: &mut DeterministicRng,
    ctx: &StepCtx,
    now: Cycle,
    shard: &mut ShardState,
) {
    let router_id = router.id();
    let track_ectn = ctx.algorithm.kind().needs_ectn_broadcast();
    let num_ports = router.num_ports();

    // a. contention / ECtN registration of new head packets; the O(1)
    // counter guard makes this free on cycles with no new heads
    if router.has_unregistered_heads() {
        for p in 0..num_ports {
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
    // allocator. Discards (unroutable packets) are applied after the loop,
    // so every head decides against the same pre-discard router state in
    // every kernel.
    shard.requests.clear();
    shard.decisions.clear();
    shard.wraps.clear();
    shard.all_requests.clear();
    shard.discards.clear();
    for p in 0..num_ports {
        let port = Port(p as u32);
        let occupied = router.occupied_vcs(port);
        if occupied == 0 {
            continue;
        }
        let (filed, mut wrap) = (shard.requests.len(), 0);
        for v in set_bits(occupied) {
            let vc = VcId(v as u8);
            let head = router.head(port, vc).expect("an occupied VC has a head");
            let plan = match router.input(port).vc(v).plan() {
                Some(plan) => plan,
                None => {
                    let plan = ctx.algorithm.plan(router, port, head);
                    router.input_mut(port).vc_mut(v).set_plan(plan);
                    plan
                }
            };
            let head = router.head(port, vc).expect("checked above");
            // the gate: with a fresh plan this is `decide`, by definition
            debug_assert_eq!(
                plan,
                ctx.algorithm.plan(router, port, head),
                "router {router_id} {port:?} vc {v}: the head's plan is stale"
            );
            let decision = ctx.algorithm.decide_planned(&plan, router, port, head, rng);
            if decision.kind == DecisionKind::Discard {
                shard.discards.push((port, vc));
                continue;
            }
            wrap = v + 1;
            let request = AllocationRequest {
                input_port: port,
                input_vc: vc,
                output_port: decision.output_port,
                output_vc: decision.output_vc,
                size_phits: plan.size_phits(head),
            };
            if cfg!(debug_assertions) {
                shard.all_requests.push(request);
            }
            if router.can_grant(request.output_port, request.output_vc, request.size_phits) {
                shard.requests.push(request);
                shard.decisions.push(decision);
            }
        }
        if shard.requests.len() > filed {
            shard.wraps.push((port, wrap));
        }
    }

    // b'. apply the discards: release the packet's registrations, stage the
    // upstream credit return for the freed input slot and hand the packet
    // to the main thread for global accounting
    if !shard.discards.is_empty() {
        let discards = std::mem::take(&mut shard.discards);
        for &(port, vc) in &discards {
            discard_one(router, ctx, now, port, vc, shard);
        }
        shard.discards = discards;
        shard.discards.clear();
    }

    if shard.requests.is_empty() {
        return;
    }

    // c. separable allocation; debug builds replay the full request list
    // (blocked heads filed, wraps derived) on a copy of the allocator, which
    // must grant the same and leave the same pointers
    let reference = cfg!(debug_assertions).then(|| router.allocator().clone());
    let mut grants = std::mem::take(&mut shard.grants);
    router.allocate_into(&shard.requests, &shard.wraps, &mut grants);
    if let Some(mut reference) = reference {
        let mut expected = Vec::new();
        reference.allocate_into(&shard.all_requests, &mut expected, |port, vc, size| {
            router.can_grant(port, vc, size)
        });
        debug_assert_eq!(
            grants, expected,
            "router {router_id}: grantable-only allocation"
        );
        debug_assert!(
            reference == *router.allocator(),
            "router {router_id}: grantable-only allocation moved the pointers elsewhere"
        );
    }

    // d. apply grants, staging upstream credit returns and commit metrics
    for grant in &grants {
        apply_one_grant_staged(router, ctx, now, grant, shard);
    }
    shard.grants = grants;
}

/// Discard one unroutable head packet (fault routing): router-local release
/// plus staged cross-router effects — the upstream credit return for the
/// freed input buffer slot and the packet itself for the main thread's
/// in-flight/drop accounting.
fn discard_one(
    router: &mut Router,
    ctx: &StepCtx,
    now: Cycle,
    port: Port,
    vc: VcId,
    shard: &mut ShardState,
) {
    let (packet, input_class) = router.discard_head(port, vc);
    stage_upstream_credit(
        router.id(),
        ctx,
        now,
        (port, input_class, vc),
        packet.size_phits,
        shard,
    );
    shard.staged_discards.push(packet);
}

/// Stage the credit return for `phits` freed in input buffer `(port, class,
/// vc)` of `router_id`: it reaches the router upstream of that port one
/// link latency from `now` (terminal inputs have no upstream router).
#[inline]
fn stage_upstream_credit(
    router_id: RouterId,
    ctx: &StepCtx,
    now: Cycle,
    (port, class, vc): (Port, PortClass, VcId),
    phits: u32,
    shard: &mut ShardState,
) {
    if class == PortClass::Terminal {
        return;
    }
    if let PortPeer::Router(upstream, upstream_port) = ctx.topo.peer(router_id, port) {
        let latency = ctx.network.link_latency_for(class) as Cycle;
        shard.staged_events.push((
            now + latency,
            Event::CreditReturn {
                router: upstream,
                port: upstream_port,
                vc,
                phits,
            },
        ));
    }
}

/// Apply one grant: commit the routing decision to the head packet, record
/// misroute statistics (staged), move the packet to its output buffer and
/// stage the upstream credit return.
fn apply_one_grant_staged(
    router: &mut Router,
    ctx: &StepCtx,
    now: Cycle,
    grant: &Grant,
    shard: &mut ShardState,
) {
    let request = shard
        .requests
        .binary_search_by_key(&(grant.input_port, grant.input_vc), |r| {
            (r.input_port, r.input_vc)
        })
        .expect("grant matches a request");
    let decision = shard.decisions[request];
    // apply the commitment to the head packet before it moves
    {
        let group = router.group();
        if let Some(head) = router.head_mut(grant.input_port, grant.input_vc) {
            match decision.commitment {
                Commitment::None => {}
                Commitment::Intermediate {
                    router: inter,
                    misroute,
                } => head.routing.commit_intermediate(inter, misroute),
                Commitment::NonminimalGlobal { gateway, port } => {
                    head.routing.commit_nonminimal_global(gateway, port)
                }
                Commitment::LocalDetour { router: detour } => {
                    head.routing.commit_local_detour(detour, group)
                }
                // fault re-commits: replace or abandon a committed
                // continuation whose link died
                Commitment::RecommitGlobal { gateway, port } => {
                    head.routing.recommit_nonminimal_global(gateway, port)
                }
                Commitment::AbandonNonminimal => head.routing.abandon_nonminimal_global(),
                Commitment::RecommitIntermediate { router: inter } => {
                    head.routing.recommit_intermediate(inter)
                }
                Commitment::AbandonIntermediate => head.routing.abandon_intermediate(),
                Commitment::AbandonLocalDetour => head.routing.abandon_local_detour(),
            }
        }
        if decision.commitment.is_fault_recommit() {
            shard.staged_recommits += 1;
        }
    }
    // misrouted-percentage statistics: count each packet once, when it
    // takes its first global hop
    if grant.output_port.class(&ctx.topo.layout()) == PortClass::Global {
        let head = router
            .head(grant.input_port, grant.input_vc)
            .expect("granted head exists");
        if head.routing.global_hops == 0 {
            shard.staged_commits.push((now, head.routing.flags.global));
        }
    }
    let applied = router.apply_grant(grant, now);
    stage_upstream_credit(
        router.id(),
        ctx,
        now,
        (grant.input_port, applied.input_class, grant.input_vc),
        applied.freed_phits,
        shard,
    );
}

/// Link transmission for one router: drain ready output buffers and stage
/// the resulting arrival/delivery events.
pub(crate) fn transmit_one(router: &mut Router, ctx: &StepCtx, now: Cycle, shard: &mut ShardState) {
    shard.sent.clear();
    router.transmit_outputs_into(now, &mut shard.sent);
    let router_id = router.id();
    for (port, packet, vc, tail_at) in shard.sent.drain(..) {
        match ctx.topo.peer(router_id, port) {
            PortPeer::Node(node) => {
                let latency = ctx.network.latencies.terminal_link as Cycle;
                shard
                    .staged_events
                    .push((tail_at + latency, Event::Delivery { node, packet }));
            }
            PortPeer::Router(peer, peer_port) => {
                let class = port.class(&ctx.topo.layout());
                let latency = ctx.network.link_latency_for(class) as Cycle;
                shard.staged_events.push((
                    tail_at + latency,
                    Event::PacketArrival {
                        router: peer,
                        port: peer_port,
                        vc,
                        packet,
                    },
                ));
            }
            PortPeer::Unconnected => {
                unreachable!("routing never selects an unconnected port")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_partition_every_length() {
        for len in 0..50usize {
            for shards in 1..9usize {
                let mut covered = 0;
                let mut prev_hi = 0;
                for w in 0..shards {
                    let (lo, hi) = chunk_bounds(len, shards, w);
                    assert_eq!(lo, prev_hi, "chunks must be contiguous");
                    assert!(hi >= lo);
                    covered += hi - lo;
                    prev_hi = hi;
                }
                assert_eq!(prev_hi, len, "chunks must cover the range");
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn chunk_bounds_are_balanced() {
        for len in 0..64usize {
            for shards in 1..9usize {
                let sizes: Vec<usize> = (0..shards)
                    .map(|w| {
                        let (lo, hi) = chunk_bounds(len, shards, w);
                        hi - lo
                    })
                    .collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "len {len} shards {shards}: {sizes:?}");
            }
        }
    }

    /// 36 routers in 9 groups of 4, with RNG `i` seeded `i`.
    fn small_arrays() -> (Vec<Router>, Vec<DeterministicRng>, Vec<GatewayLiveness>) {
        let topo = df_topology::TopologyParams::from(df_topology::DragonflyParams::small()).build();
        let routers: Vec<Router> = topo
            .routers()
            .map(|r| Router::new(r, topo, NetworkConfig::fast_test()))
            .collect();
        let rngs = (0..routers.len() as u64)
            .map(DeterministicRng::new)
            .collect();
        let views = vec![GatewayLiveness::new(&topo); topo.num_groups() as usize];
        (routers, rngs, views)
    }

    /// The restore trap: a snapshot taken mid-run holds heads that are
    /// already *registered*, so no registration will ever plan them — and
    /// at saturation a blocked head may wait a long time. Every occupied VC
    /// of a restored router carries a plan after its first iteration, and
    /// loses it with the head it was made for.
    #[test]
    fn a_restored_router_plans_its_registered_heads_on_the_first_iteration() {
        let topo = df_topology::TopologyParams::from(df_topology::DragonflyParams::small()).build();
        let network = NetworkConfig::fast_test();
        let ctx = StepCtx {
            topo,
            algorithm: RoutingAlgorithm::new(df_routing::RoutingKind::Base, Default::default()),
            network,
        };
        let (mut rng, mut shard) = (DeterministicRng::new(3), ShardState::default());
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
        route_and_allocate_one(&mut router, &mut rng, &ctx, 0, &mut shard);
        assert!(!shard.grants.is_empty(), "some head left");

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

        route_and_allocate_one(&mut restored, &mut rng, &ctx, 1, &mut shard);
        let (mut planned, mut popped) = (0, 0);
        for (port, vc) in vcs(&restored) {
            let input_vc = restored.input(port).vc(vc);
            let granted = shard
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

    /// Check every property of one split: `num_shards` shards in order,
    /// shard `w` holding exactly its `chunk_bounds` chunk and the minimal
    /// router range around it at the right base offset.
    fn check_split(kind: PhaseKind, active: &[u32], num_shards: usize) {
        let (mut routers, mut rngs, views) = small_arrays();
        let a = 4;
        let mut shards: Vec<ShardState> = (0..num_shards).map(|_| ShardState::default()).collect();
        let num_items = if kind.is_control() {
            views.len()
        } else {
            active.len()
        };
        let works: Vec<_> = split_shards(
            kind,
            a,
            &mut routers,
            &mut rngs,
            active,
            &views,
            &mut shards,
        )
        .collect();
        assert_eq!(works.len(), num_shards);
        let mut seen = Vec::new();
        for (w, work) in works.iter().enumerate() {
            let (lo, hi) = chunk_bounds(num_items, num_shards, w);
            let what = format!("{kind:?} active {active:?} shard {w}/{num_shards}");
            // the range: routers and RNGs `base..base + len`, in step
            assert_eq!(work.routers.len(), work.rngs.len(), "{what}");
            for (i, (router, rng)) in work.routers.iter().zip(work.rngs.iter()).enumerate() {
                assert_eq!(router.id().index(), work.base + i, "{what}");
                assert_eq!(rng.seed(), (work.base + i) as u64, "{what}");
            }
            if kind.is_control() {
                assert!(work.active.is_empty(), "{what}");
                assert!(std::ptr::eq(work.linkviews, &views[lo..hi]), "{what}");
                assert_eq!(work.base, lo * a, "{what}");
                assert_eq!(work.routers.len(), (hi - lo) * a, "{what}");
            } else {
                assert!(work.linkviews.is_empty(), "{what}");
                assert_eq!(work.active, &active[lo..hi], "{what}");
                match work.active {
                    [] => assert!(work.routers.is_empty(), "{what}"),
                    [first, .., last] | [first @ last] => {
                        assert_eq!(work.base, *first as usize, "{what}");
                        assert_eq!(work.routers.len(), (last - first) as usize + 1, "{what}");
                    }
                }
                seen.extend_from_slice(work.active);
            }
        }
        if !kind.is_control() {
            assert_eq!(seen, active, "the union is the active list in order");
        }
    }

    #[test]
    fn split_shards_hands_every_shard_exactly_its_chunk() {
        let mut lists: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![17],
            vec![35],
            vec![3, 30],
            (0..36).collect(),
            (0..36).step_by(5).collect(),
        ];
        // seeded sorted subsets with gaps, sparse to dense
        let mut rng = DeterministicRng::new(7);
        for density in [0.05, 0.2, 0.5, 0.9] {
            for _ in 0..8 {
                lists.push((0..36).filter(|_| rng.bernoulli(density)).collect());
            }
        }
        for num_shards in 1..=7 {
            for active in &lists {
                check_split(PhaseKind::Alloc, active, num_shards);
                check_split(PhaseKind::Transmit, active, num_shards);
            }
            // control phases ignore the active list: 9 groups over the shards
            check_split(PhaseKind::Pb, &[3, 30], num_shards);
            check_split(PhaseKind::Ectn, &[], num_shards);
        }
    }
}
