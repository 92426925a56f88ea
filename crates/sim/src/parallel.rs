//! Phase-parallel sharded execution of [`Network::step`].
//!
//! [`KernelMode::Parallel`] shards routers across a persistent worker pool
//! and executes each phase of the per-cycle loop concurrently, with
//! barriers between phases. The contract — checked exhaustively by
//! `tests/kernel_equivalence.rs` — is that results are **bit-for-bit
//! identical** to the sequential optimized kernel for *any* worker count,
//! including 1.
//!
//! # Why this is deterministic
//!
//! Every phase of a cycle touches, per router, only
//!
//! 1. that router's own state (buffers, counters, PB/ECtN arrays) and its
//!    private RNG stream — sharded routers therefore never race, and each
//!    router's RNG consumes exactly the sequence it consumes sequentially;
//! 2. read-only context (topology, configuration, the routing algorithm);
//! 3. *cross-router effects*: link events (packet arrivals, deliveries,
//!    upstream credit returns) and global metrics commits.
//!
//! Effects of class 3 are never applied during a parallel phase. Each
//! worker appends them to its private staging buffer in the order it
//! produces them; after the phase barrier, the main thread replays the
//! buffers **in ascending shard order**. Shards are contiguous chunks of
//! the ascending-sorted active-router list (or of the group list for
//! control-plane phases), so the concatenation of the per-worker buffers is
//! exactly the sequence the sequential kernel would have produced — same
//! event insertion order, hence the same time-wheel tie-breaking, hence the
//! same simulation trajectory, for any number of workers.
//!
//! Control-plane dissemination (PB every cycle, ECtN on its period) shards
//! by *group* instead of by router: a group's exchange reads and writes
//! only that group's routers (see [`df_router::dissemination`]), and groups
//! are contiguous id ranges, so group chunks borrow disjointly too.
//!
//! The sequential optimized kernel runs the *same* shard executor inline
//! with a single shard, so "optimized" and "parallel" cannot drift apart:
//! they are one code path differing only in how chunks are scheduled.
//!
//! [`Network::step`]: crate::network::Network::step
//! [`KernelMode::Parallel`]: crate::config::KernelMode::Parallel

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use df_engine::DeterministicRng;
use df_model::{Cycle, NetworkConfig, VcId};
use df_router::{dissemination, AllocationRequest, Grant, Router};
use df_routing::algorithms::piggyback;
use df_routing::{minimal, Commitment, Decision, DecisionKind, RoutingAlgorithm};
use df_topology::{AnyTopology, GatewayLiveness, Port, PortClass, PortPeer, Topology};

use crate::events::Event;

/// A packet leaving an output buffer: `(port, packet, downstream VC, cycle
/// at which the tail clears the router)`.
pub(crate) type SentPacket = (Port, df_model::Packet, VcId, Cycle);

/// Read-only per-step context shared by every shard (all `Copy`, passed by
/// value — no synchronisation needed).
#[derive(Clone, Copy)]
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
    /// Allocation requests of the router currently being processed.
    pub requests: Vec<AllocationRequest>,
    /// Routing decisions keyed by `(input port, input VC)` for grant lookup.
    pub decisions: Vec<((Port, VcId), Decision)>,
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

/// Which phase of the cycle a job executes.
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

/// One phase dispatch: everything a shard needs, as raw pointers.
///
/// # Safety contract
///
/// * `routers`/`rngs` point to live arrays the main thread does not touch
///   between the start and end barriers;
/// * shard `w` dereferences only indices inside its [`chunk_bounds`] chunk
///   of `active` (router phases) or its chunk of group ids (control
///   phases), and only `shards[w]` — chunks are disjoint by construction,
///   so no two threads alias any `&mut`;
/// * `active` is sorted ascending and duplicate-free, so chunk order equals
///   router-id order and the post-barrier merge reproduces the sequential
///   effect sequence.
#[derive(Clone, Copy)]
pub(crate) struct PhaseJob {
    /// The phase to execute.
    pub kind: PhaseKind,
    /// Current cycle.
    pub now: Cycle,
    /// Base pointer of the router array.
    pub routers: *mut Router,
    /// Base pointer of the per-router RNG array (same indexing).
    pub rngs: *mut DeterministicRng,
    /// Sorted active-router indices (router phases; null for control
    /// phases).
    pub active: *const u32,
    /// Number of work items: active routers (router phases) or groups
    /// (control phases).
    pub num_items: usize,
    /// Base pointer of the per-shard state array.
    pub shards: *mut ShardState,
    /// Number of shards the work is split into.
    pub num_shards: usize,
    /// Shared read-only step context.
    pub ctx: *const StepCtx,
    /// Base pointer of the per-group flooded gateway-liveness views
    /// (indexed by group id): each group installs its own view during
    /// control phases (read-only for the phase's duration).
    pub linkviews: *const GatewayLiveness,
}

// Safety: the raw pointers are only dereferenced under the discipline
// documented on the struct; the type is shipped to workers through the
// pool's barrier protocol which establishes the necessary happens-before
// edges.
unsafe impl Send for PhaseJob {}

/// The half-open work range `[lo, hi)` of shard `w` out of `shards` over
/// `len` items: contiguous, balanced to within one item, and covering
/// `0..len` exactly when concatenated in shard order.
#[inline]
pub(crate) fn chunk_bounds(len: usize, shards: usize, w: usize) -> (usize, usize) {
    (w * len / shards, (w + 1) * len / shards)
}

/// Execute shard `w` of `job`.
///
/// # Safety
/// See the contract on [`PhaseJob`]; callers must guarantee shard indices
/// are unique per concurrent caller and the pointed-to arrays outlive the
/// call.
pub(crate) unsafe fn execute_shard(job: &PhaseJob, w: usize) {
    let ctx = &*job.ctx;
    let shard = &mut *job.shards.add(w);
    let (lo, hi) = chunk_bounds(job.num_items, job.num_shards, w);
    if lo >= hi {
        return;
    }
    match job.kind {
        PhaseKind::Alloc | PhaseKind::Transmit => {
            let active = std::slice::from_raw_parts(job.active, job.num_items);
            for &r in &active[lo..hi] {
                let router = &mut *job.routers.add(r as usize);
                if job.kind == PhaseKind::Alloc {
                    let rng = &mut *job.rngs.add(r as usize);
                    route_and_allocate_one(router, rng, ctx, job.now, shard);
                } else {
                    transmit_one(router, ctx, job.now, shard);
                }
            }
        }
        PhaseKind::Pb | PhaseKind::Ectn => {
            let a = ctx.topo.routers_per_group() as usize;
            for g in lo..hi {
                let group = std::slice::from_raw_parts_mut(job.routers.add(g * a), a);
                let linkview = &*job.linkviews.add(g);
                control_exchange_group(job.kind, group, ctx, linkview, shard);
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
            if router.port_occupancy(port) == 0 {
                continue;
            }
            let num_vcs = router.input(port).num_vcs();
            for v in 0..num_vcs {
                if !router.input(port).vc(v).head_needs_registration() {
                    continue;
                }
                let vc = VcId(v as u8);
                let (min_out, ectn_link) = {
                    let head = router
                        .input(port)
                        .vc(vc.index())
                        .head()
                        .expect("unregistered head exists");
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

    // b. routing decisions for every occupied VC head (ports with no
    // queued packet are skipped in O(1)). Discard decisions (fault routing:
    // unroutable packets) are collected and applied after the loop, so
    // every head decides against the same pre-discard router state in every
    // kernel.
    shard.requests.clear();
    shard.decisions.clear();
    shard.discards.clear();
    {
        let router: &Router = router;
        for p in 0..num_ports {
            let port = Port(p as u32);
            if router.port_occupancy(port) == 0 {
                continue;
            }
            let input = router.input(port);
            for v in 0..input.num_vcs() {
                let Some(head) = input.vc(v).head() else {
                    continue;
                };
                let vc = VcId(v as u8);
                let decision = ctx.algorithm.decide(router, port, head, rng);
                if decision.kind == DecisionKind::Discard {
                    shard.discards.push((port, vc));
                    continue;
                }
                shard.requests.push(AllocationRequest {
                    input_port: port,
                    input_vc: vc,
                    output_port: decision.output_port,
                    output_vc: decision.output_vc,
                    size_phits: head.size_phits,
                });
                shard.decisions.push(((port, vc), decision));
            }
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

    // c. separable allocation
    let mut grants = std::mem::take(&mut shard.grants);
    router.allocate_into(&shard.requests, &mut grants);

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
    let router_id = router.id();
    let (packet, input_class) = router.discard_head(port, vc);
    if input_class != PortClass::Terminal {
        if let PortPeer::Router(upstream, upstream_port) = ctx.topo.peer(router_id, port) {
            let latency = ctx.network.link_latency_for(input_class) as Cycle;
            shard.staged_events.push((
                now + latency,
                Event::CreditReturn {
                    router: upstream,
                    port: upstream_port,
                    vc,
                    phits: packet.size_phits,
                },
            ));
        }
    }
    shard.staged_discards.push(packet);
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
    let router_id = router.id();
    let decision = shard
        .decisions
        .iter()
        .find(|(k, _)| *k == (grant.input_port, grant.input_vc))
        .map(|(_, d)| *d)
        .expect("grant matches a request");
    // apply the commitment to the head packet before it moves
    {
        let group = router.group();
        if let Some(head) = router
            .input_mut(grant.input_port)
            .vc_mut(grant.input_vc.index())
            .head_mut()
        {
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
            .input(grant.input_port)
            .vc(grant.input_vc.index())
            .head()
            .expect("granted head exists");
        if head.routing.global_hops == 0 {
            shard.staged_commits.push((now, head.routing.flags.global));
        }
    }
    let applied = router.apply_grant(grant, now);
    // stage the upstream credit return
    if applied.input_class != PortClass::Terminal {
        if let PortPeer::Router(upstream, upstream_port) =
            ctx.topo.peer(router_id, grant.input_port)
        {
            let latency = ctx.network.link_latency_for(applied.input_class) as Cycle;
            shard.staged_events.push((
                now + latency,
                Event::CreditReturn {
                    router: upstream,
                    port: upstream_port,
                    vc: grant.input_vc,
                    phits: applied.freed_phits,
                },
            ));
        }
    }
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

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

/// How long a barrier waiter spins before parking on the condvar. Short:
/// on a loaded or single-core host the releaser cannot run while we spin,
/// so parking quickly is the safe default; on an idle multi-core host the
/// spin window absorbs the common fast case.
const BARRIER_SPIN_ROUNDS: u32 = 256;

/// A reusable generation-counting barrier with a bounded spin before
/// parking. Unlike `std::sync::Barrier`, waiters first spin briefly so the
/// per-phase rendezvous of the simulation loop stays cheap.
struct SenseBarrier {
    participants: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    lock: Mutex<()>,
    condvar: Condvar,
}

impl SenseBarrier {
    fn new(participants: usize) -> Self {
        SenseBarrier {
            participants,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            lock: Mutex::new(()),
            condvar: Condvar::new(),
        }
    }

    /// Block until all participants have called `wait` for the current
    /// generation.
    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.participants {
            self.count.store(0, Ordering::Release);
            // publish the new generation under the lock so parked waiters
            // cannot miss the wakeup
            let _guard = self.lock.lock().expect("barrier lock poisoned");
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            self.condvar.notify_all();
        } else {
            for _ in 0..BARRIER_SPIN_ROUNDS {
                if self.generation.load(Ordering::Acquire) != generation {
                    return;
                }
                std::hint::spin_loop();
            }
            let mut guard = self.lock.lock().expect("barrier lock poisoned");
            while self.generation.load(Ordering::Acquire) == generation {
                guard = self.condvar.wait(guard).expect("barrier lock poisoned");
            }
        }
    }
}

/// Shared state between the main thread and the pool workers.
struct PoolShared {
    /// The current phase job, written by the main thread strictly before
    /// the start barrier and read by workers strictly after it.
    job: UnsafeCell<Option<PhaseJob>>,
    /// Released by the main thread to begin a phase (or shut down).
    start: SenseBarrier,
    /// Reached by every shard when its chunk is done.
    end: SenseBarrier,
    /// Set (before releasing `start`) to terminate the workers.
    stop: AtomicBool,
    /// Set by a worker whose shard panicked; checked by the main thread
    /// after the end barrier.
    panicked: AtomicBool,
}

// Safety: `job` is only mutated by the main thread between phases, and the
// barriers order that mutation before any worker read (and all worker
// reads before the next mutation).
unsafe impl Sync for PoolShared {}

/// A persistent pool of `num_shards - 1` worker threads; the main thread
/// executes shard 0 itself between the barriers, so `Parallel { workers: 1 }`
/// spawns no threads at all.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool for `num_shards` total shards (`num_shards >= 2`).
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards >= 2, "a pool needs at least one worker thread");
        let shared = Arc::new(PoolShared {
            job: UnsafeCell::new(None),
            start: SenseBarrier::new(num_shards),
            end: SenseBarrier::new(num_shards),
            stop: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
        });
        let handles = (1..num_shards)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("df-sim-shard-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn simulation worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Execute `job` across every shard and block until all are done. The
    /// main thread runs shard 0 itself.
    pub fn run(&self, job: PhaseJob) {
        // Safety: workers are parked at the start barrier; nothing reads
        // `job` until we release it below.
        unsafe { *self.shared.job.get() = Some(job) };
        self.shared.start.wait();
        // Always reach the end barrier, even if our own shard panics —
        // otherwise the workers (and the pool's Drop) would deadlock.
        let main_result = catch_unwind(AssertUnwindSafe(|| unsafe { execute_shard(&job, 0) }));
        self.shared.end.wait();
        if let Err(payload) = main_result {
            std::panic::resume_unwind(payload);
        }
        if self.shared.panicked.swap(false, Ordering::AcqRel) {
            panic!("a parallel-kernel worker shard panicked");
        }
    }
}

fn worker_loop(shared: &PoolShared, w: usize) {
    loop {
        shared.start.wait();
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let job = unsafe { *shared.job.get() }.expect("job published before the start barrier");
        // Catch panics so the thread stays alive for the end barrier and
        // future phases; the main thread re-raises after the barrier.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { execute_shard(&job, w) }));
        if result.is_err() {
            shared.panicked.store(true, Ordering::Release);
        }
        shared.end.wait();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Workers are parked at the start barrier (they always return to it
        // after each phase, panicking or not); release them into shutdown.
        self.shared.start.wait();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
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

    #[test]
    fn barrier_synchronises_repeated_generations() {
        let barrier = Arc::new(SenseBarrier::new(3));
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let barrier = Arc::clone(&barrier);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for round in 0..100usize {
                    counter.fetch_add(1, Ordering::AcqRel);
                    barrier.wait();
                    // after the barrier every participant of this round has
                    // incremented
                    assert!(counter.load(Ordering::Acquire) >= 3 * (round + 1));
                    barrier.wait();
                }
            }));
        }
        for round in 0..100usize {
            counter.fetch_add(1, Ordering::AcqRel);
            barrier.wait();
            assert!(counter.load(Ordering::Acquire) >= 3 * (round + 1));
            barrier.wait();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Acquire), 300);
    }

    #[test]
    fn pool_spawns_and_shuts_down_cleanly() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.handles.len(), 3, "main runs shard 0 itself");
        drop(pool); // must not hang
    }
}
