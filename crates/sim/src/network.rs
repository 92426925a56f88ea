//! The cycle-driven network simulator.
//!
//! [`Network`] owns every router, every node, the in-flight event queue and
//! the metrics collector, and advances them together one cycle at a time:
//! [`Network::step`] is the only place the clock moves (`run_cycles`,
//! `drain` and `run_until_jobs_complete` are loops over it). The per-cycle
//! sequence is:
//!
//! 0. apply fault events due this cycle (link state flips, credit-ledger
//!    restoration, drain flags — see the `fault` module; a no-op
//!    comparison for healthy runs),
//! 1. deliver due link events (packet arrivals, credit returns, node
//!    deliveries) — an arrival whose link failed while it was in flight
//!    is dropped and accounted in the `DroppedOnFault` counters,
//! 2. traffic generation (every injector whose next trial is not already
//!    known to fail — see "Activity gating") and injection from the
//!    non-empty node source queues into the routers' injection buffers,
//! 3. control-plane dissemination: PB saturation flags every cycle (each
//!    group whose flags flipped last cycle re-exchanges them, then each
//!    router whose outputs can have changed refreshes its own), ECtN
//!    partial-array broadcast every [`ECTN_UPDATE_PERIOD`] cycles — each
//!    exchange also carries the piggybacked gateway-liveness bits
//!    (failure-aware routing), advanced one *flooding hop* per exchange
//!    (`Network::flood_linkviews`) and installed when a round ran,
//! 4. routing decisions + separable allocation, iterated
//!    [`ALLOCATOR_SPEEDUP`] times (both Table I constants),
//! 5. output-buffer link transmission at the routers whose earliest staged
//!    packet can leave this cycle, scheduling remote arrivals after the
//!    link latency.
//!
//! # The kernel
//!
//! There is one pipeline; three properties keep it fast without affecting
//! results (behaviour is pinned bit for bit by the golden corpora and the
//! frozen digests under `tests/`):
//!
//! * **Time-wheel event queue** ([`EventQueue`]): O(1) scheduling into
//!   per-cycle ring buckets, drained into a reusable scratch buffer. An
//!   event-free cycle costs one length check.
//! * **Activity gating**: every per-cycle scan walks a derived set instead
//!   of the whole population, under one rule — an item is skipped only if
//!   the skipped work is provably a no-op, the set is iterated in ascending
//!   order wherever the walk draws, schedules or numbers anything (which
//!   fixes the event sequence numbers and packet ids, and therefore the
//!   results), and the set is rebuilt on restore rather than stored. The
//!   membership sets are one type, [`BitSet`], whose walks ascend by
//!   construction, so no walk sorts. The sets — routers holding an input
//!   head (step 4), routers holding a staged packet with each one's
//!   next-transmit cycle (step 5), queued nodes (injection), the
//!   injectors' wake-up calendar (generation, `node::Nodes`), routers with
//!   changed outputs and dirty groups (PB, step 3), woken and waiting ranks
//!   (the job engine, step 2), staged ports, head plans (routing decisions)
//!   — are tabulated in `docs/ARCHITECTURE.md` § "Activity gating"; debug
//!   builds assert each against the full scan (the router and node sets at
//!   the end of every [`Network::step`], PB's at the end of step 3, the job
//!   engine's at the end of each job's advance).
//! * **Allocation-free steady state**: the per-cycle loop reuses scratch
//!   buffers for due events, allocation requests/grants and transmitted
//!   packets, and PB/ECtN dissemination gathers into flat per-group arrays
//!   copied slice-to-slice instead of cloning a `Vec` per router per cycle.
//!
//! Steps 3–5 walk the groups (ECtN; under PB the dirty groups and the
//! routers with changed outputs), the routers holding a head (routing +
//! allocation) or the staged routers whose next transmission is due
//! (transmission) one group or router at a time. Cross-router effects (link events, upstream credits,
//! misroute commits, discards) are applied where they happen, in walk order
//! (the `phase` module docs). Both [`KernelMode`] values run this one
//! pipeline.
//!
//! [`KernelMode`]: crate::KernelMode
//! [`BitSet`]: df_engine::BitSet

use df_engine::{BitSet, DeterministicRng};
use df_model::{Cycle, VcId, ALLOCATOR_SPEEDUP};
use df_router::dissemination::{ectn_exchange_group, install_linkview_group, pb_exchange_group};
use df_router::Router;
use df_routing::algorithms::piggyback;
use df_routing::config::ECTN_UPDATE_PERIOD;
use df_routing::RoutingAlgorithm;
use df_topology::{
    GatewayLiveness, GroupId, NodeId, Port, PortPeer, RouterId, Topology, TopologyParams,
};
use df_traffic::TrafficPattern;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::config::SimulationConfig;
use crate::events::{Event, EventQueue};
use crate::fault::{FaultEvent, FaultKind};
use crate::metrics::Metrics;
use crate::node::{Node, Nodes};
use crate::phase::{route_and_allocate_one, transmit_one, Effects, StepCtx, StepScratch};
use crate::probe::{Phase, PhaseTotals, StepCounts};
use crate::task::JobsEngine;

#[path = "snapshot.rs"]
pub mod snapshot;

/// The whole simulated network.
pub struct Network {
    config: SimulationConfig,
    /// [`snapshot::config_fingerprint`] of `config`, which never changes
    /// after construction: computed by the first snapshot (or taken from
    /// the one restored), which leads with it like every later one.
    fingerprint: OnceCell<u64>,
    /// Read-only context of the phases (topology, mechanism, timing).
    ctx: StepCtx,
    routers: Vec<Router>,
    nodes: Nodes,
    patterns: Vec<TrafficPattern>,
    current_phase: usize,
    events: EventQueue,
    router_rngs: Vec<DeterministicRng>,
    cycle: Cycle,
    next_packet_id: u64,
    metrics: Metrics,
    injected_packets_total: u64,
    last_delivery_cycle: Cycle,
    // ---- fault injection ----
    /// Whether any router has a link end down: the O(1) gate that keeps
    /// step 1's healthy path free of peer lookups. Derived from the
    /// routers' link flags (the one record of link health) wherever they
    /// change: a link fault event, also when `restore` replays it.
    any_link_down: bool,
    /// The lowered fault plan, sorted by cycle (stable).
    fault_events: Vec<FaultEvent>,
    /// Index of the next fault event to apply: at a step boundary, the
    /// count of events due before the clock (what `restore` replays).
    next_fault: usize,
    /// Nodes whose router is draining (generation suppressed).
    node_blocked: Vec<bool>,
    /// Credits lost to drops on each failed directed link, keyed by the
    /// *upstream* `(router, port)` owning them, per downstream VC. Returned
    /// to the owner on `LinkUp` (the downstream buffer space the dropped
    /// packets had reserved was never used). `BTreeMap` for deterministic
    /// iteration; empty in healthy runs.
    lost_credits: BTreeMap<(u32, u32), Vec<u32>>,
    /// The true network-wide gateway-liveness map, kept in sync with the
    /// routers' link flags as fault events fire — and the one record of
    /// which nodes have failed (`NodeFail`/`NodeRestore`): a failed node
    /// generates nothing and traffic addressed to it is retargeted.
    linkview_truth: GatewayLiveness,
    /// Per-group flooded gateway-liveness views, indexed by group id: what
    /// each group's routers install at a control-plane exchange. A group
    /// observes its own link keyspace and its own nodes' failure state
    /// directly; everything else arrives hop-by-hop — one live-neighbour
    /// merge per exchange (see [`Network::flood_linkviews`]).
    group_views: Vec<GatewayLiveness>,
    /// The previous flooding round's views (double buffer): a round reads
    /// only these, so information advances exactly one hop per exchange
    /// regardless of group iteration order. Scratch between rounds: a round
    /// swaps the buffers and overwrites every slot of `group_views` before
    /// it reads this one, so no snapshot stores it.
    group_views_prev: Vec<GatewayLiveness>,
    /// Fast path: `true` while no truth change is pending and the last
    /// flooding round adopted nothing — rounds are skipped entirely
    /// (healthy runs never flood).
    flood_quiescent: bool,
    /// Whether every group's view currently matches the truth's marks
    /// (drives the staleness metric; trivially `true` on healthy runs).
    views_converged: bool,
    /// Designated spare of each failed node (valid while the truth map
    /// marks it down; chains resolve in fail order and cannot cycle — see
    /// the fault module docs).
    spare_of: Vec<u32>,
    // ---- task layer ----
    /// The job engine (`Some` only when the configuration carries a job
    /// set). Job traffic layers *over* stochastic generation — collectives
    /// run under background load, or alone at offered load 0. All mutations
    /// happen in steps 1–2.
    jobs: Option<JobsEngine>,
    // ---- activity gates (derived: rebuilt on `new` and `restore`) ----
    /// Routers holding an input head: all a routing + allocation iteration
    /// has work for.
    heads: BitSet,
    /// Routers holding a staged packet.
    staged: BitSet,
    /// Per router, [`Router::next_transmit`] (`Cycle::MAX` with nothing
    /// staged): step 5 visits only the staged routers whose cycle has come,
    /// reading this array instead of the router.
    next_transmit: Vec<Cycle>,
    /// Routers whose outputs changed since their last PB refresh (credits,
    /// grants, sends, faults; every router after `new` and `restore`).
    changed: BitSet,
    /// Groups whose last PB refresh flipped an own flag (every group after
    /// `new` and `restore`): the only groups an exchange can change.
    dirty_groups: BitSet,
    // ---- phase execution ----
    /// Scratch buffers of steps 3–5.
    scratch: StepScratch,
    /// Reusable buffer for due events (step 1).
    scratch_events: Vec<Event>,
    /// The phase clock, if one runs (`crate::probe`): not simulation state.
    clock: Option<PhaseTotals>,
}

impl Network {
    /// Build a network from a validated configuration.
    pub fn new(config: SimulationConfig) -> Self {
        config.validate().expect("invalid simulation configuration");
        let topo = config.topology;
        let root_rng = DeterministicRng::new(config.seed);
        let routers: Vec<Router> = topo
            .routers()
            .map(|r| Router::new(r, topo, config.network))
            .collect();
        let router_rngs: Vec<DeterministicRng> = topo
            .routers()
            .map(|r| root_rng.split(0x1000_0000 + r.0 as u64))
            .collect();
        let base_load = config
            .schedule
            .phases()
            .first()
            .and_then(|p| p.load)
            .unwrap_or(config.offered_load);
        let nodes: Vec<Node> = topo
            .nodes()
            .map(|n| {
                Node::new(
                    n,
                    config.injection,
                    base_load,
                    config.network.packet_size_phits,
                    root_rng.split(0x2000_0000 + n.0 as u64),
                )
            })
            .collect();
        let patterns = config.schedule.build_patterns(topo);
        let ctx = StepCtx {
            topo,
            algorithm: RoutingAlgorithm::new(config.routing, config.routing_config),
            network: config.network,
        };
        // transient series are centred on the first traffic change (or the
        // end of warm-up when the schedule is constant)
        let origin = config
            .schedule
            .change_points()
            .first()
            .copied()
            .unwrap_or(config.warmup_cycles) as i64;
        let metrics = Metrics::new(origin, 20, config.network.packet_size_phits);
        // The wheel must cover the farthest schedule distance of any event:
        // packet serialisation plus the longest link latency plus the router
        // pipeline, with a little slack. The kernel never schedules past it,
        // and restore refuses a pending event that lies past it.
        let lat = &config.network.latencies;
        let max_link = lat.terminal_link.max(lat.local_link).max(lat.global_link);
        let horizon =
            (config.network.packet_size_phits + max_link + lat.router_pipeline + 2) as usize;
        let events = EventQueue::with_horizon(horizon);
        let fault_events = config.faults.sorted_events();
        let jobs = (!config.jobs.is_empty())
            .then(|| JobsEngine::new(&config.jobs, &topo, config.network.packet_size_phits));
        let num_routers = routers.len();
        let num_nodes = nodes.len();
        let num_groups = topo.num_groups();
        Network {
            config,
            fingerprint: OnceCell::new(),
            ctx,
            routers,
            nodes: Nodes::new(nodes),
            patterns,
            current_phase: 0,
            events,
            router_rngs,
            cycle: 0,
            next_packet_id: 0,
            metrics,
            injected_packets_total: 0,
            last_delivery_cycle: 0,
            any_link_down: false,
            fault_events,
            next_fault: 0,
            node_blocked: vec![false; num_nodes],
            lost_credits: BTreeMap::new(),
            linkview_truth: GatewayLiveness::new(&topo),
            group_views: vec![GatewayLiveness::new(&topo); topo.num_groups() as usize],
            group_views_prev: vec![GatewayLiveness::new(&topo); topo.num_groups() as usize],
            flood_quiescent: true,
            views_converged: true,
            spare_of: vec![0; num_nodes],
            jobs,
            heads: BitSet::new(num_routers),
            staged: BitSet::new(num_routers),
            next_transmit: vec![Cycle::MAX; num_routers],
            changed: BitSet::full(num_routers),
            dirty_groups: BitSet::full(num_groups as usize),
            scratch: StepScratch::default(),
            scratch_events: Vec::new(),
            clock: None,
        }
    }

    /// Run the phase clock from `totals` over every later step (`None`
    /// stops it). The clock only observes: a clocked run takes the same
    /// trajectory and snapshots to the same bytes as an unclocked one.
    pub fn set_phase_clock(&mut self, totals: Option<PhaseTotals>) {
        self.clock = totals;
    }

    /// The phase clock's totals so far, if it runs.
    pub fn phase_clock(&self) -> Option<&PhaseTotals> {
        self.clock.as_ref()
    }

    /// Add the phase that just ended to the phase clock, if it runs, and
    /// restart the lap.
    fn lap(&mut self, start: &mut Option<Instant>, phase: Phase) {
        if let (Some(totals), Some(start)) = (self.clock.as_mut(), start.as_mut()) {
            let now = Instant::now();
            totals.time[phase as usize] += now - *start;
            *start = now;
        }
    }

    /// The current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// The topology.
    pub fn topology(&self) -> &TopologyParams {
        &self.ctx.topo
    }

    /// The configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The metrics collector.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics collector (to open the measurement window).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Borrow a router (tests and inspection).
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.index()]
    }

    /// Borrow a node (tests and inspection).
    pub fn node(&self, id: NodeId) -> &Node {
        self.nodes.get(id.index())
    }

    /// Packets currently inside the network (injected but not delivered or
    /// dropped), counted where they are: buffered in a router (an input VC
    /// or an output stage) or on a link (a pending arrival or delivery).
    pub fn in_flight(&self) -> u64 {
        let buffered: usize = self.routers.iter().map(Router::queued_packets).sum();
        (buffered + self.events.packets().count()) as u64
    }

    /// Phits currently inside the network: [`Network::in_flight`] packets
    /// of the configured size.
    pub fn in_flight_phits(&self) -> u64 {
        self.in_flight() * u64::from(self.config.network.packet_size_phits)
    }

    /// Packets handed to the routers' injection buffers since the beginning
    /// of the run. Under faults the conservation law is the exact equality
    /// `injected = delivered + in-flight + dropped-on-fault`.
    pub fn injected_packets_total(&self) -> u64 {
        self.injected_packets_total
    }

    /// Phits injected since the beginning of the run.
    pub fn injected_phits_total(&self) -> u64 {
        let size = u64::from(self.config.network.packet_size_phits);
        self.injected_packets_total.saturating_mul(size)
    }

    /// Phits the nodes generated since the beginning of the run (stochastic
    /// and job traffic): the offered side of the conservation checks.
    pub fn generated_phits_total(&self) -> u64 {
        let nodes = 0..self.ctx.topo.num_nodes() as usize;
        nodes.map(|n| self.nodes.get(n).generated_phits()).sum()
    }

    /// The true network-wide gateway-liveness map (what the flooded views
    /// converge towards; tests compare per-router views against it).
    pub fn linkview_truth(&self) -> &GatewayLiveness {
        &self.linkview_truth
    }

    /// Whether `node` is currently failed (a `NodeFail` without a matching
    /// `NodeRestore` has fired).
    pub fn node_failed(&self, node: NodeId) -> bool {
        !self.linkview_truth.node_up(node)
    }

    /// Credits currently lost to in-flight drops on failed links (returned
    /// to their owners when the links come back up). Non-zero only while a
    /// link that dropped traffic is still down.
    pub fn fault_lost_credits(&self) -> u64 {
        self.lost_credits
            .values()
            .flat_map(|per_vc| per_vc.iter())
            .map(|&c| c as u64)
            .sum()
    }

    /// Number of events pending on links.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Number of routers holding traffic (an input head or a staged
    /// packet); exact at a step boundary.
    pub fn active_routers(&self) -> usize {
        let staged_only = self.staged.iter().filter(|&r| !self.heads.contains(r));
        self.heads.len() + staged_only.count()
    }

    /// Whether the network appears stalled: packets are in flight but nothing
    /// has been delivered for `threshold` cycles. Used as a deadlock
    /// watchdog by the tests.
    pub fn stalled(&self, threshold: Cycle) -> bool {
        self.cycle.saturating_sub(self.last_delivery_cycle) > threshold && self.in_flight() > 0
    }

    /// Advance `cycles` cycles.
    pub fn run_cycles(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Stop traffic generation and keep stepping until every in-flight packet
    /// is delivered (or `max_cycles` elapse). Returns true if the network
    /// drained completely.
    ///
    /// Time advances only in [`Network::step`], so a drained network is in
    /// exactly the state a caller's own `step()` loop with the same stop
    /// condition leaves it in — injector streams included.
    ///
    /// Draining ends the run at the cycle the network empties: fault events
    /// scheduled beyond that cycle simply have not happened yet (the
    /// simulation ended while the network was still degraded — e.g. a
    /// `LinkUp` after the drain point leaves its link down and its lost
    /// credits ledgered). The fault plan is not frozen: resume stepping and
    /// the remaining events fire at their scheduled cycles.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        self.nodes.set_offered_load(0.0, self.cycle);
        let deadline = self.cycle + max_cycles;
        while self.cycle < deadline && !self.drained() {
            self.step();
        }
        self.drained()
    }

    /// Nothing in flight and nothing waiting in a source queue.
    fn drained(&self) -> bool {
        self.nodes.all_queues_empty() && self.in_flight() == 0
    }

    /// The job engine, when the configuration carries a job set.
    pub fn jobs(&self) -> Option<&JobsEngine> {
        self.jobs.as_ref()
    }

    /// Step until every job of the configured job set completes or
    /// `max_cycles` elapse. Returns the job-set makespan (the cycle the
    /// last job's last rank finished), or `None` when the budget ran out —
    /// or when the configuration carries no jobs at all. Completion implies
    /// an empty network only at offered load 0: otherwise the stochastic
    /// background traffic keeps flowing.
    pub fn run_until_jobs_complete(&mut self, max_cycles: u64) -> Option<Cycle> {
        self.jobs.as_ref()?;
        let deadline = self.cycle + max_cycles;
        while self.cycle < deadline {
            if let Some(done) = self.jobs.as_ref().and_then(|j| j.completion_cycle()) {
                return Some(done);
            }
            self.step();
        }
        self.jobs.as_ref().and_then(|j| j.completion_cycle())
    }

    /// Sum of contention counters across all routers (used by invariant
    /// tests: must be zero once the network drains).
    pub fn total_contention(&self) -> u64 {
        self.routers
            .iter()
            .map(|r| r.contention().total() as u64)
            .sum()
    }

    /// Pause node `idx`'s generation at `now` iff its router drains or it
    /// failed. A pause decides which ranks the job engine may skip, so every
    /// rank is visited at the next advance.
    fn sync_paused(&mut self, idx: usize, now: Cycle) {
        let paused = self.node_blocked[idx] || self.node_failed(NodeId(idx as u32));
        self.nodes.set_paused(idx, paused, now);
        if let Some(jobs) = self.jobs.as_mut() {
            jobs.wake_all();
        }
    }

    /// Apply every fault event due at or before `now` (start-of-cycle, so a
    /// fault at cycle N affects cycle N's arrivals).
    fn apply_due_faults(&mut self, now: Cycle) {
        let topo = self.ctx.topo;
        let truth_version_before = self.linkview_truth.version();
        let mut links_changed = false;
        while let Some(event) = self.fault_events.get(self.next_fault) {
            if event.at > now {
                break;
            }
            let kind = event.kind;
            self.next_fault += 1;
            match kind {
                FaultKind::LinkDown { router, port } => {
                    // the gateway-liveness truth the control plane will
                    // disseminate (no-op for local links)
                    self.linkview_truth
                        .set_global_link(&topo, router, port, false);
                    links_changed = true;
                    for (r, p) in link_ends(&topo, router, port) {
                        self.routers[r.index()].set_link_up(p, false);
                        // the link-interface serialisation buffer is lost
                        // with the link: staged packets are dropped and
                        // their consumed downstream credits ledgered,
                        // exactly like in-flight drops
                        let dropped = self.routers[r.index()].drop_staged_for_dead_port(p);
                        for (packet, dst_vc) in dropped {
                            self.metrics.record_dropped_staged();
                            self.ledger_lost_credits(r, p, dst_vc, packet.size_phits);
                        }
                        let r = r.index();
                        self.changed.insert(r);
                        self.next_transmit[r] =
                            self.routers[r].next_transmit().unwrap_or(Cycle::MAX);
                        if self.next_transmit[r] == Cycle::MAX {
                            self.staged.remove(r);
                        }
                    }
                }
                FaultKind::LinkUp { router, port } => {
                    self.linkview_truth
                        .set_global_link(&topo, router, port, true);
                    links_changed = true;
                    for (r, p) in link_ends(&topo, router, port) {
                        self.routers[r.index()].set_link_up(p, true);
                        // return the credits lost to drops on this directed
                        // link: the downstream space those phits had
                        // reserved was never used
                        if let Some(per_vc) = self.lost_credits.remove(&(r.0, p.0)) {
                            for (vc, phits) in per_vc.into_iter().enumerate() {
                                if phits > 0 {
                                    self.routers[r.index()].receive_credits(
                                        p,
                                        VcId(vc as u8),
                                        phits,
                                    );
                                }
                            }
                            self.changed.insert(r.index());
                        }
                    }
                }
                FaultKind::RouterDrain { router } => {
                    for node in topo.nodes_of_router(router) {
                        self.node_blocked[node.index()] = true;
                        self.sync_paused(node.index(), now);
                    }
                }
                FaultKind::RouterRestore { router } => {
                    for node in topo.nodes_of_router(router) {
                        self.node_blocked[node.index()] = false;
                        self.sync_paused(node.index(), now);
                    }
                }
                FaultKind::NodeFail { node, spare } => {
                    // drain-at-source: the node stops generating (its queued
                    // packets still inject and flush), new traffic addressed
                    // to it retargets to the spare at injection time, and
                    // in-flight deliveries still land at its NIC — so every
                    // conservation equality is untouched
                    self.spare_of[node.index()] = spare.0;
                    self.linkview_truth.set_node(node, false);
                    self.sync_paused(node.index(), now);
                }
                FaultKind::NodeRestore { node } => {
                    self.linkview_truth.set_node(node, true);
                    self.sync_paused(node.index(), now);
                }
            }
        }
        if links_changed {
            self.any_link_down = self.routers.iter().any(Router::any_link_down);
        }
        // any truth change restarts the flooding rounds (and is by
        // definition not yet visible in the routers' views)
        if self.linkview_truth.version() != truth_version_before {
            self.flood_quiescent = false;
            self.views_converged = false;
        }
    }

    /// Account a packet or credit message dropped on the failed directed
    /// link whose *upstream* end is `(upstream, port)`: remember the credits
    /// so `LinkUp` can return them.
    fn ledger_lost_credits(&mut self, upstream: RouterId, port: Port, vc: VcId, phits: u32) {
        let num_vcs = self.routers[upstream.index()]
            .output(port)
            .num_downstream_vcs();
        let per_vc = self
            .lost_credits
            .entry((upstream.0, port.0))
            .or_insert_with(|| vec![0; num_vcs]);
        per_vc[vc.index()] += phits;
    }

    /// Advance one cycle.
    pub fn step(&mut self) {
        let (now, topo) = (self.cycle, self.ctx.topo);
        let mut lap = self.clock.is_some().then(Instant::now);
        self.scratch.counts = StepCounts::default();

        // ---- 0. traffic-phase change ----
        let phase = self.config.schedule.phase_index_at(now);
        if phase != self.current_phase {
            self.current_phase = phase;
            let load = self.config.schedule.phases()[phase]
                .load
                .unwrap_or(self.config.offered_load);
            self.nodes.set_offered_load(load, now);
        }

        // ---- 0.5. fault events ----
        if self.next_fault < self.fault_events.len() {
            self.apply_due_faults(now);
        }

        // ---- 1. deliver due events ----
        // In-flight traffic on a link that failed is lost: an arrival whose
        // transmit direction is down at its completion cycle is dropped and
        // accounted (packets in `DroppedOnFault`, credit messages in the
        // lost-credit ledger). `faults_active` keeps the healthy path free
        // of peer lookups.
        let faults_active = self.any_link_down;
        let mut due = std::mem::take(&mut self.scratch_events);
        self.events.pop_due_into(now, &mut due);
        self.scratch.counts.events = due.len() as u64;
        for event in due.drain(..) {
            match event {
                Event::PacketArrival {
                    router,
                    port,
                    vc,
                    packet,
                } => {
                    if faults_active {
                        // the packet travelled over the peer's outgoing
                        // direction towards (router, port)
                        if let PortPeer::Router(upstream, up_port) = topo.peer(router, port) {
                            if !self.routers[upstream.index()].link_is_up(up_port) {
                                self.metrics.record_dropped_on_fault();
                                self.ledger_lost_credits(upstream, up_port, vc, packet.size_phits);
                                continue;
                            }
                        }
                    }
                    self.heads.insert(router.index());
                    self.routers[router.index()].receive_packet(port, vc, packet);
                }
                Event::CreditReturn {
                    router,
                    port,
                    vc,
                    phits,
                } => {
                    if faults_active {
                        // the credit message travelled the reverse direction
                        // of (router, port)'s link
                        if let PortPeer::Router(peer, peer_port) = topo.peer(router, port) {
                            if !self.routers[peer.index()].link_is_up(peer_port) {
                                self.ledger_lost_credits(router, port, vc, phits);
                                continue;
                            }
                        }
                    }
                    self.changed.insert(router.index());
                    self.routers[router.index()].receive_credits(port, vc, phits);
                }
                Event::Delivery { packet } => {
                    self.last_delivery_cycle = now;
                    self.metrics.record_delivery(&packet, now);
                    // task attribution: credit the sender's outstanding
                    // sends and the receiver's per-step receive counter
                    if let Some(jobs) = self.jobs.as_mut() {
                        jobs.on_delivery(&packet);
                    }
                }
            }
        }
        self.scratch_events = due;
        self.lap(&mut lap, Phase::Deliver);

        // ---- 2. generation + injection ----
        // jobs layer over stochastic generation: started jobs enqueue their
        // task packets first (deterministic specification order), then the
        // background pattern fills in behind them — both feed the same
        // per-node source queues and the shared injection loop below
        if let Some(jobs) = self.jobs.as_mut() {
            jobs.advance_and_generate(
                now,
                &mut self.nodes,
                &mut self.metrics,
                &mut self.next_packet_id,
            );
        }
        let counts = &mut self.scratch.counts;
        (counts.due_ticks, counts.gap_draws) = self.nodes.generate(
            now,
            &self.patterns[self.current_phase],
            &mut self.next_packet_id,
        );
        self.lap(&mut lap, Phase::Generate);
        // injection visits only the nodes with a packet waiting, in
        // ascending node order (the order the all-node walk it replaces
        // found them in)
        let routers = &mut self.routers;
        self.nodes.inject_queued(|node_idx, node| {
            let Some(head_size) = node.head().map(|p| p.size_phits) else {
                return;
            };
            let node_id = NodeId(node_idx as u32);
            let router_id = topo.node_router(node_id);
            let port = topo.node_port(node_id);
            let router = &mut routers[router_id.index()];
            let num_vcs = router.input(port).num_vcs();
            let start = node.take_vc_rr(num_vcs);
            let Some(vc) = (0..num_vcs)
                .map(|k| VcId(((start + k) % num_vcs) as u8))
                .find(|&vc| router.can_accept_input(port, vc, head_size))
            else {
                return;
            };
            let mut packet = node.pop_head().expect("head checked");
            packet.injected_at = Some(now);
            // reroute-to-spare: a packet addressed to a failed node is
            // retargeted at injection time, following the spare chain in
            // fail order (validation guarantees it terminates). Part of
            // the fault plan's semantics.
            let truth = &self.linkview_truth;
            if !truth.node_up(packet.dst) {
                let mut dst = packet.dst;
                while !truth.node_up(dst) {
                    dst = NodeId(self.spare_of[dst.index()]);
                }
                packet.dst = dst;
                self.metrics.record_retargeted();
            }
            self.injected_packets_total += 1;
            self.heads.insert(router_id.index());
            router.receive_packet(port, vc, packet);
        });
        self.lap(&mut lap, Phase::Inject);

        // ---- 3. control-plane dissemination ----
        // Each exchange also carries the piggybacked gateway-liveness bits:
        // one flooding round, whose views every router then installs (a
        // round that did not run left every view as installed).
        let group_size = topo.routers_per_group() as usize;
        let pb = self.config.routing.needs_pb_dissemination();
        let ectn =
            self.config.routing.needs_ectn_broadcast() && now.is_multiple_of(ECTN_UPDATE_PERIOD);
        if (pb || ectn) && self.flood_linkviews() {
            for (group, view) in self.routers.chunks_mut(group_size).zip(&self.group_views) {
                install_linkview_group(group, view);
            }
        }
        if pb {
            self.disseminate_pb(now);
        }
        if ectn {
            for group in self.routers.chunks_mut(group_size) {
                ectn_exchange_group(group, &mut self.scratch.ectn_scratch);
            }
        }
        // staleness metric: some router's view still lags the truth
        // (trivially converged for the whole of a healthy run)
        if !self.views_converged
            && (self.config.routing.needs_pb_dissemination()
                || self.config.routing.needs_ectn_broadcast())
        {
            self.metrics.record_stale_linkstate_cycle();
        }
        self.lap(&mut lap, Phase::Control);

        // ---- 4. routing + allocation ----
        // over the head set, ascending (which fixes the event sequence
        // numbers, and therefore the results), each iteration leaving out
        // the routers it emptied of heads; a grant stages a packet
        let mut fx = Effects {
            events: &mut self.events,
            metrics: &mut self.metrics,
        };
        let (routers, rngs, scratch) =
            (&mut self.routers, &mut self.router_rngs, &mut self.scratch);
        let (staged, next, changed) =
            (&mut self.staged, &mut self.next_transmit, &mut self.changed);
        for _ in 0..ALLOCATOR_SPEEDUP {
            scratch.counts.router_iterations += self.heads.len() as u64;
            self.heads.retain(|r| {
                let router = &mut routers[r];
                if route_and_allocate_one(router, &mut rngs[r], &self.ctx, now, scratch, &mut fx) {
                    changed.insert(r);
                    staged.insert(r);
                    next[r] = router.next_transmit().expect("a grant stages a packet");
                }
                router.occupied_ports() != 0
            });
        }
        self.lap(&mut lap, Phase::Route);

        // ---- 5. link transmission ----
        // over the staged routers whose next transmission is due, ascending;
        // any other router would send nothing
        let (routers, scratch, changed) = (&mut self.routers, &mut self.scratch, &mut self.changed);
        let next = &mut self.next_transmit;
        self.staged.retain(|r| {
            if next[r] > now {
                return true;
            }
            let router = &mut routers[r];
            let sent = transmit_one(router, &self.ctx, now, &mut scratch.sent, &mut self.events);
            scratch.counts.transmit_visits += 1;
            if sent {
                scratch.counts.senders += 1;
                changed.insert(r);
            }
            next[r] = router.next_transmit().unwrap_or(Cycle::MAX);
            next[r] != Cycle::MAX
        });
        self.lap(&mut lap, Phase::Transmit);

        // the gates against a full scan: every set is exactly the routers
        // it stands for, and each next-transmit cycle is the router's own
        debug_assert!(
            self.routers.iter().enumerate().all(|(r, router)| {
                let next = router.next_transmit_from_stages();
                self.heads.contains(r) == (router.occupied_ports() != 0)
                    && self.staged.contains(r) == next.is_some()
                    && self.next_transmit[r] == next.unwrap_or(Cycle::MAX)
                    && (self.changed.contains(r) || router.changed_outputs() == 0)
            }),
            "a router set or next-transmit cycle disagrees with its router at cycle {now}"
        );
        debug_assert_eq!(
            self.active_routers(),
            self.routers
                .iter()
                .filter(|router| !router.is_idle())
                .count(),
            "the active count disagrees with the non-idle routers at cycle {now}"
        );
        debug_assert_eq!(
            self.any_link_down,
            self.routers.iter().any(Router::any_link_down),
            "the any-link-down gate disagrees with the link flags at cycle {now}"
        );
        debug_assert!(
            self.nodes.queued_set_is_exact(),
            "the queued set disagrees with the source queues at cycle {now}"
        );
        debug_assert!(
            self.nodes.calendar_is_exact(now + 1),
            "the wake-up calendar lost, doubled or misfiled a node at cycle {now}"
        );
        // a snapshot stores the group views only and restore re-installs
        // them: sound because every flooding round above is followed by an
        // install in *all* groups, so at a step boundary no router lags
        debug_assert!(
            self.routers
                .iter()
                .all(|router| *router.link_view() == self.group_views[router.group().index()]),
            "a router's link view differs from its group's flooded view at cycle {now}"
        );
        if self.clock.is_some() {
            self.scratch.counts.holding = self.active_routers() as u64;
        }
        if let Some(totals) = self.clock.as_mut() {
            totals.add_step(&self.scratch.counts);
        }

        self.cycle += 1;
    }

    /// One synchronous flooding round over the per-group gateway-liveness
    /// views, run immediately before a control-plane exchange.
    ///
    /// Double-buffered: every group clones its previous-round view, merges
    /// the truth entries it observes *directly* (its own link keyspace, its
    /// own nodes), then merges the previous-round views of every group it
    /// has a live direct link to — so information travels exactly one
    /// live-group-hop per exchange, and an entry owned by group `g` reaches
    /// group `G` within `(1 + live-hop-distance(g, G))` exchanges (the
    /// staleness bound pinned by `tests/fault_churn.rs`). Per-entry
    /// sequence numbers make the merges conflict-free in any order, so a
    /// repair always overtakes the stale down-mark it reverts.
    ///
    /// The exchanges only *install* the finished views. The quiescent fast
    /// path skips rounds entirely once every view has adopted everything
    /// reachable — healthy runs never enter the loop. Returns whether a
    /// round ran: otherwise no view changed, and nothing needs installing.
    fn flood_linkviews(&mut self) -> bool {
        if self.flood_quiescent {
            return false;
        }
        std::mem::swap(&mut self.group_views, &mut self.group_views_prev);
        let topo = &self.ctx.topo;
        let truth = &self.linkview_truth;
        let prev = &self.group_views_prev;
        let num_groups = topo.num_groups();
        let mut adopted_any = false;
        for g in 0..num_groups {
            let group = GroupId(g);
            let view = &mut self.group_views[g as usize];
            view.clone_from(&prev[g as usize]);
            // origin injection: directly observed entries
            adopted_any |= view.merge_own_from(truth, topo, group);
            // one hop: neighbours' previous-round views over live links
            for h in 0..num_groups {
                if h == g {
                    continue;
                }
                let j = topo.group_link_to(group, GroupId(h));
                if truth.link_up(group, j) {
                    adopted_any |= view.merge_from(&prev[h as usize]);
                }
            }
        }
        if adopted_any {
            self.views_converged = self
                .group_views
                .iter()
                .all(|view| view.same_marks(&self.linkview_truth));
        } else {
            // nothing moved: further rounds are no-ops until the next truth
            // change (either converged, or stably partitioned from the rest)
            self.flood_quiescent = true;
        }
        true
    }

    /// PB's control plane for one cycle: every group whose flags flipped at
    /// the last refresh exchanges them (exchanging any other group would
    /// reinstall the views its members hold), then every router whose
    /// outputs changed since its own last refresh recomputes its flags,
    /// marking its group dirty on a flip.
    ///
    /// Outputs change only through credits, grants, transmissions and link
    /// faults, and each of those files its router in the changed set. An
    /// exchange and a refresh each touch one group or one router and draw
    /// nothing, so neither walk's order matters.
    fn disseminate_pb(&mut self, now: Cycle) {
        let group_size = self.ctx.topo.routers_per_group() as usize;
        self.scratch.counts.pb_exchanges = self.dirty_groups.len() as u64;
        self.scratch.counts.pb_refreshes = self.changed.len() as u64;
        for g in self.dirty_groups.drain() {
            let start = g * group_size;
            pb_exchange_group(
                &mut self.routers[start..start + group_size],
                &mut self.scratch.pb_flat,
            );
        }
        for r in self.changed.drain() {
            let router = &mut self.routers[r];
            if piggyback::update_own_saturation(router) {
                self.dirty_groups.insert(router.group().index());
            }
        }
        // the gates against the full scan: the refresh left no router
        // unrefreshed, and a clean group's exchange would change nothing
        debug_assert!(
            self.routers
                .iter()
                .all(|router| router.changed_outputs() == 0),
            "a router outside the PB refresh set has changed outputs at cycle {now}"
        );
        debug_assert!(
            (self.routers.chunks(group_size).enumerate())
                .all(|(g, group)| self.dirty_groups.contains(g) || pb_views_are_current(group)),
            "a clean group's PB exchange would change its views at cycle {now}"
        );
    }
}

/// Both directed ends of the router-to-router link at `(router, port)`:
/// the ends a `LinkDown`/`LinkUp` event flips (validation rejects a link
/// fault anywhere else).
fn link_ends(topo: &impl Topology, router: RouterId, port: Port) -> [(RouterId, Port); 2] {
    let PortPeer::Router(peer, peer_port) = topo.peer(router, port) else {
        unreachable!("a validated link fault names a router-to-router link");
    };
    [(router, port), (peer, peer_port)]
}

/// Whether every member's installed PB group view equals the concatenation
/// of the group's own flags — the state a PB exchange leaves behind.
fn pb_views_are_current(group: &[Router]) -> bool {
    let gathered: Vec<bool> = group
        .iter()
        .flat_map(|router| router.pb().own_flags().iter().copied())
        .collect();
    group.iter().all(|router| {
        (0..gathered.len()).all(|link| router.pb().group_saturated(link as u32) == gathered[link])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_model::NetworkConfig;
    use df_routing::RoutingKind;
    use df_topology::DragonflyParams;
    use df_traffic::PatternKind;

    fn small_config(routing: RoutingKind, pattern: PatternKind, load: f64) -> SimulationConfig {
        SimulationConfig::builder()
            .topology(DragonflyParams::small())
            .network(NetworkConfig::fast_test())
            .routing(routing)
            .pattern(pattern)
            .offered_load(load)
            .warmup_cycles(200)
            .measurement_cycles(400)
            .seed(1)
            .build()
            .unwrap()
    }

    #[test]
    fn packets_are_delivered_under_light_uniform_traffic() {
        let mut net = Network::new(small_config(
            RoutingKind::Minimal,
            PatternKind::Uniform,
            0.1,
        ));
        net.run_cycles(600);
        assert!(
            net.metrics().delivered_packets_total() > 20,
            "expected deliveries, got {}",
            net.metrics().delivered_packets_total()
        );
        assert!(!net.stalled(300));
    }

    #[test]
    fn every_routing_mechanism_delivers_traffic() {
        for kind in RoutingKind::ALL {
            let mut net = Network::new(small_config(kind, PatternKind::Uniform, 0.1));
            net.run_cycles(600);
            assert!(
                net.metrics().delivered_packets_total() > 10,
                "{kind} delivered only {}",
                net.metrics().delivered_packets_total()
            );
        }
    }

    /// PB past saturation — UN @ 0.9 on the 72-node network — where most
    /// source heads wait with no room behind their minimal first hop, and
    /// each cycle decides many of them without reading their packet (no
    /// room behind the Valiant first hop either). In debug builds
    /// `decide_planned` replays every such decision the long way, with the
    /// packet, on a cloned RNG.
    #[test]
    fn saturated_pb_decides_its_blocked_source_heads_from_the_plan() {
        use df_router::HeadPlan;
        let mut net = Network::new(small_config(
            RoutingKind::PiggyBacking,
            PatternKind::Uniform,
            0.9,
        ));
        let layout = net.topology().layout();
        let terminals: Vec<Port> = Port::all(&layout)
            .filter(|port| port.class(&layout) == df_topology::PortClass::Terminal)
            .collect();
        let (mut waiting, size) = (0, net.config().network.packet_size_phits);
        for _ in 0..600 {
            net.step();
            for router in &net.routers {
                for &port in &terminals {
                    for vc in 0..router.input(port).num_vcs() {
                        let Some(plan) = router.input(port).vc(vc).plan() else {
                            continue;
                        };
                        waiting += (plan.has(HeadPlan::AT_SOURCE)
                            && plan.has(HeadPlan::GLOBAL_SCOPE)
                            && !router.output(plan.output()).can_accept(plan.vc, size))
                            as u32;
                    }
                }
            }
        }
        let accepted = net.metrics().accepted_load(net.topology().num_nodes(), 400);
        assert!(accepted < 0.8, "past saturation: {accepted} accepted");
        assert!(
            waiting > 2_000,
            "{waiting} source heads waited at the source"
        );
    }

    #[test]
    fn network_drains_and_counters_return_to_zero() {
        let mut net = Network::new(small_config(RoutingKind::Base, PatternKind::Uniform, 0.2));
        net.run_cycles(400);
        assert!(net.drain(5_000), "network must drain after traffic stops");
        assert_eq!(net.in_flight(), 0);
        assert_eq!(
            net.total_contention(),
            0,
            "contention counters must return to zero when the network is empty"
        );
    }

    #[test]
    fn adversarial_traffic_is_delivered_by_adaptive_routing() {
        let mut net = Network::new(small_config(
            RoutingKind::Base,
            PatternKind::Adversarial { offset: 1 },
            0.2,
        ));
        net.run_cycles(800);
        assert!(net.metrics().delivered_packets_total() > 20);
        assert!(!net.stalled(400), "no deadlock under adversarial traffic");
    }

    #[test]
    fn valiant_marks_packets_as_misrouted() {
        let cfg = small_config(RoutingKind::Valiant, PatternKind::Uniform, 0.1);
        let mut net = Network::new(cfg);
        net.metrics_mut().start_measurement(0);
        net.run_cycles(800);
        let summary = net.metrics().window_summary();
        assert!(summary.delivered_packets > 0);
        assert!(
            summary.global_misroute_fraction > 0.9,
            "VAL misroutes (nearly) all inter-group packets, got {}",
            summary.global_misroute_fraction
        );
    }

    #[test]
    fn minimal_routing_never_misroutes() {
        let cfg = small_config(RoutingKind::Minimal, PatternKind::Uniform, 0.15);
        let mut net = Network::new(cfg);
        net.metrics_mut().start_measurement(0);
        net.run_cycles(800);
        let summary = net.metrics().window_summary();
        assert!(summary.delivered_packets > 0);
        assert_eq!(summary.global_misroute_fraction, 0.0);
        assert_eq!(summary.local_misroute_fraction, 0.0);
        // minimal paths never exceed 3 hops
        assert!(summary.avg_hops <= 3.0 + 1e-9);
    }

    #[test]
    fn deterministic_given_the_same_seed() {
        let run = |seed: u64| {
            let cfg = SimulationConfig::builder()
                .topology(DragonflyParams::small())
                .network(NetworkConfig::fast_test())
                .routing(RoutingKind::Base)
                .pattern(PatternKind::Uniform)
                .offered_load(0.2)
                .warmup_cycles(0)
                .measurement_cycles(300)
                .seed(seed)
                .build()
                .unwrap();
            let mut net = Network::new(cfg);
            net.metrics_mut().start_measurement(0);
            net.run_cycles(300);
            let s = net.metrics().window_summary();
            (s.delivered_packets, s.avg_packet_latency)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn in_flight_accounting_is_consistent() {
        let mut net = Network::new(small_config(RoutingKind::Olm, PatternKind::Uniform, 0.2));
        net.run_cycles(300);
        // in_flight counts packets injected but not delivered; it can never
        // exceed total generated packets
        let generated = net.generated_phits_total() / 8;
        assert!(net.in_flight() <= generated);
    }

    /// Every router set against a full scan of the routers: the head set,
    /// the staged set and each next-transmit cycle exactly, the changed set
    /// covering every router with a changed output, the active count.
    fn assert_router_sets_exact(net: &Network) {
        let cycle = net.cycle();
        for (r, router) in net.routers.iter().enumerate() {
            let next = router.next_transmit_from_stages();
            assert_eq!(
                net.heads.contains(r),
                router.occupied_ports() != 0,
                "router {r} heads at {cycle}"
            );
            assert_eq!(
                net.staged.contains(r),
                next.is_some(),
                "router {r} staged at {cycle}"
            );
            assert_eq!(
                net.next_transmit[r],
                next.unwrap_or(Cycle::MAX),
                "router {r} at {cycle}"
            );
            assert!(
                net.changed.contains(r) || router.changed_outputs() == 0,
                "router {r} changed at {cycle}"
            );
        }
        let held = net
            .routers
            .iter()
            .filter(|router| !router.is_idle())
            .count();
        assert_eq!(net.active_routers(), held, "active count at {cycle}");
    }

    /// The router sets — heads, staged routers with their next-transmit
    /// cycles, changed outputs — through grants and sends under PB (a
    /// 5-cycle router pipeline, so most staged packets wait in it), a link
    /// that goes down while its stage holds a packet and comes back up with
    /// the lost credits, a drained and restored router, and a snapshot
    /// taken while packets are inside the pipeline: checked after every
    /// step (and in debug builds by the end-of-step gates), and the resumed
    /// run lands on the uninterrupted run's bytes.
    #[test]
    fn router_sets_stay_exact_through_grants_sends_faults_and_restore() {
        use crate::fault::FaultPlan;
        let params = DragonflyParams::small();
        let (link_router, link_port) = FaultPlan::global_link_between(
            &df_topology::Dragonfly::new(params),
            GroupId(0),
            GroupId(1),
        );
        let config = |faults: FaultPlan| {
            SimulationConfig::builder()
                .topology(params)
                .network(NetworkConfig::paper_table1())
                .routing(RoutingKind::PiggyBacking)
                .pattern(PatternKind::Adversarial { offset: 1 })
                .offered_load(0.3)
                .faults(faults)
                .seed(5)
                .build()
                .unwrap()
        };
        // the link goes down the cycle after its stage first holds a packet
        // past cycle 100 (the trajectory up to the first fault does not
        // depend on the plan)
        let mut scout = Network::new(config(FaultPlan::new()));
        scout.run_cycles(100);
        while scout.router(link_router).output(link_port).staged_packets() == 0 {
            scout.step();
        }
        let down = scout.cycle() + 1;
        let faults = FaultPlan::new()
            .link_down(down, link_router, link_port)
            .router_drain(down + 20, RouterId(4))
            .router_restore(down + 80, RouterId(4))
            .link_up(down + 150, link_router, link_port);
        let cfg = config(faults);

        let mut reference = Network::new(cfg.clone());
        reference.set_phase_clock(Some(PhaseTotals::default()));
        let mut lost = 0;
        while reference.cycle() < down + 300 {
            reference.step();
            assert_router_sets_exact(&reference);
            lost = lost.max(reference.fault_lost_credits());
        }
        let counts = reference.phase_clock().expect("a running clock").counts;
        let (grants, sends) = (counts.grants, counts.senders);
        assert!(
            grants > 1_000 && sends > 1_000,
            "{grants} grants, {sends} sends"
        );
        assert_eq!(counts.transmit_visits, sends, "every visited router sends");
        assert!(
            reference.metrics().dropped_staged_packets() > 0,
            "a stage was lost"
        );
        assert!(
            lost > 0 && reference.fault_lost_credits() == 0,
            "credits came back"
        );

        // the snapshot lands while the link is down, the router drains and
        // packets wait inside the router pipeline
        let mut first = Network::new(cfg.clone());
        first.run_cycles(down + 40);
        let now = first.cycle();
        assert!(first
            .routers
            .iter()
            .any(|r| r.next_transmit().is_some_and(|at| at > now + 1)));
        let mut resumed = Network::restore(cfg, &first.snapshot()).expect("restores");
        assert_router_sets_exact(&resumed);
        while resumed.cycle() < down + 300 {
            resumed.step();
            assert_router_sets_exact(&resumed);
        }
        assert_eq!(
            resumed.snapshot(),
            reference.snapshot(),
            "bit-identical resume"
        );
    }

    /// Both change-set gates through every path that makes them all due:
    /// flooding rounds (a global link down and back up under PB, at an
    /// adversarial load where the Table I saturation fraction flips flags;
    /// at 0.55 none flips), a rank host drained and restored mid-collective
    /// (a pause change wakes every rank), a compute delay (ranks filed by
    /// `ready_at`) and a snapshot/restore mid-job-set (the sets rebuilt from
    /// the restored state). In debug builds every step checks both gates
    /// against the full scan; the resumed run must also land where the
    /// uninterrupted one does.
    #[test]
    fn change_set_gates_hold_through_every_all_due_path() {
        use crate::fault::FaultPlan;
        use df_traffic::{AllReduceAlgorithm, CollectiveKind, JobPlacement, JobSpec, TaskWorkload};
        let params = DragonflyParams::small();
        let (link_router, link_port) = FaultPlan::global_link_between(
            &df_topology::Dragonfly::new(params),
            GroupId(0),
            GroupId(1),
        );
        let ring = TaskWorkload::single(CollectiveKind::AllReduce(AllReduceAlgorithm::Ring), 8, 2);
        let all_to_all = TaskWorkload::single(CollectiveKind::AllToAll, 8, 2);
        // ring rank 1 lives on node 8, whose router (4) drains mid-run
        let cfg = SimulationConfig::builder()
            .topology(params)
            .network(NetworkConfig::fast_test())
            .routing(RoutingKind::PiggyBacking)
            .pattern(PatternKind::Adversarial { offset: 1 })
            .offered_load(0.7)
            .job(JobSpec::new(ring, JobPlacement::group_spread(0)).with_compute_delay(5))
            .job(JobSpec::new(all_to_all, JobPlacement::group_spread(1)).starting_at(40))
            .faults(
                FaultPlan::new()
                    .link_down(30, link_router, link_port)
                    .router_drain(60, RouterId(4))
                    .router_restore(150, RouterId(4))
                    .link_up(200, link_router, link_port),
            )
            .seed(3)
            .build()
            .unwrap();

        let mut reference = Network::new(cfg.clone());
        let mut exchanges = 0;
        while reference.jobs().unwrap().completion_cycle().is_none() {
            assert!(reference.cycle() < 50_000, "the job set completes");
            exchanges += reference.dirty_groups.len();
            reference.step();
        }
        let done = reference.cycle();
        assert!(done > 400, "the faults land mid-job-set ({done} cycles)");
        assert!(exchanges > 9, "flags flipped after the first full pass");
        assert!(
            reference.metrics().stale_linkstate_cycles() > 0,
            "views flooded"
        );

        // the snapshot lands while the link is down, the views flood and a
        // rank host is drained
        let mut first = Network::new(cfg.clone());
        first.run_cycles(100);
        assert!(first.jobs().unwrap().pending_packets() > 0);
        let mut resumed = Network::restore(cfg, &first.snapshot()).expect("restores");
        resumed.run_cycles(done - 100);
        assert_eq!(
            resumed.jobs().unwrap().completion_cycle(),
            reference.jobs().unwrap().completion_cycle()
        );
        assert_eq!(
            resumed.snapshot(),
            reference.snapshot(),
            "bit-identical resume"
        );
    }

    /// The phase clock is a pure observer: a clocked run lands on the same
    /// bytes and the same results as an unclocked one, and its counts add up.
    #[test]
    fn a_phase_clock_observes_without_perturbing() {
        let run = |clock: Option<PhaseTotals>| {
            let mut net = Network::new(small_config(
                RoutingKind::PiggyBacking,
                PatternKind::Uniform,
                0.3,
            ));
            net.set_phase_clock(clock);
            net.metrics_mut().start_measurement(0);
            net.run_cycles(300);
            let observed = (
                net.snapshot(),
                format!("{:?}", net.metrics().window_summary()),
            );
            (observed, net.phase_clock().copied())
        };
        let (clocked, totals) = run(Some(PhaseTotals::default()));
        assert_eq!(run(None), (clocked, None));
        let totals = totals.expect("a running clock");
        assert_eq!(totals.steps, 300);
        assert!(Phase::ALL.iter().all(|&p| totals.us_per_step(p) >= 0.0));
        let c = totals.counts;
        assert!(c.events > 0 && c.due_ticks > 0 && c.gap_draws > 0 && c.pb_refreshes > 0);
        assert!(c.heads >= c.requests && c.requests >= c.grants && c.grants > 0);
        assert!(c.transmit_visits >= c.senders && c.senders > 0);
    }

    #[test]
    fn active_set_shrinks_when_traffic_stops() {
        let mut net = Network::new(small_config(RoutingKind::Base, PatternKind::Uniform, 0.2));
        net.run_cycles(300);
        assert!(net.drain(5_000));
        assert_eq!(
            net.active_routers(),
            0,
            "all routers must retire from the active set once drained"
        );
    }
}
