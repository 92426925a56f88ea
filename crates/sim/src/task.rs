//! The collective task layer: ranks executing message-gated communication
//! scripts on top of the packet engine.
//!
//! There is one application engine: the [`JobsEngine`], owned by
//! [`Network`] when the configuration carries a job set, running one
//! [`Job`] per [`JobSpec`] alongside the stochastic injectors. A
//! closed run — one collective alone on the network — is a one-job set at
//! offered load 0 (an injector at load 0 generates nothing).
//!
//! A job's [`df_traffic::TaskWorkload`] lowers into one script per rank — a
//! list of [`df_traffic::TaskStep`]s, each naming the messages the rank
//! injects when the step starts and how many packets it must receive before
//! the step completes. The [`Job`] executes those scripts against the
//! simulator:
//!
//! * when a rank reaches a step, its sends are enqueued into the hosting
//!   node's source queue (the existing injection machinery takes over from
//!   there — VC round-robin, credit checks, spare retargeting),
//! * every delivered packet is attributed back through a pending table
//!   (packet id → sender rank, receiver rank, step), crediting the sender's
//!   outstanding-send counter and the receiver's per-step receive counter,
//! * a rank advances past its current step only once **all its sends have
//!   been delivered** and **the step's expected packets have arrived** —
//!   the causal gating that makes the workload a dependency graph rather
//!   than a traffic pattern. Packets for a *future* step that arrive early
//!   (a faster peer ran ahead) accumulate and are counted when the rank
//!   gets there.
//!
//! # Determinism
//!
//! Every engine mutation happens in two places: delivery attribution in
//! step 1 of [`crate::network::Network::step`] and advance/enqueue in
//! step 2. Ranks are visited in ascending
//! rank order and the lowering itself is a pure function of the workload,
//! so job runs inherit the simulator's bit-identity contract unchanged.
//!
//! An advance visits only the ranks that can move (the activity-gating
//! rule of the `network` module): a rank's visit changes nothing unless a
//! delivery credited it, its compute delay expired, its job started, it was
//! restored or a pause changed, so each of those wakes it. Stall accounting
//! walks the ranks waiting on the network: the ranks whose step is
//! enqueued, the one record of that fact (the snapshot writes it as a flag
//! per rank). The woken and computing sets are derived, rebuilt on restore
//! and never stored.
//!
//! When the configuration carries no jobs the engine does not exist and the
//! packet-level simulator is byte-for-byte unaffected.

use std::collections::{BTreeMap, VecDeque};

use df_engine::BitSet;
use df_model::{Cycle, Packet, PacketId};
use df_topology::{NodeId, Topology};
use df_traffic::{JobSpec, TaskStep};

use crate::config::SimulationConfig;
use crate::metrics::Metrics;
use crate::network::Network;
use crate::node::Nodes;

/// A task packet still in the network (source queue or in flight), keyed by
/// packet id in the engine's pending table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingPacket {
    /// Rank that sent the packet (credited on delivery).
    src_rank: u32,
    /// Rank the packet is addressed to (its receive counter is credited —
    /// recorded at enqueue time, so spare retargeting of the node address
    /// cannot misattribute the rank-level receive).
    dst_rank: u32,
    /// Script step the packet belongs to (the *sender's* step index).
    step: u32,
}

/// One job of the [`JobsEngine`]: its specification and the execution state
/// of its lowered task workload. All mutations happen in steps 1–2 of the
/// cycle (see the module docs for the determinism argument).
#[derive(Debug, Clone)]
pub struct Job {
    /// The specification the job was built from (start cycle, compute
    /// delay, label).
    spec: JobSpec,
    /// One script per rank, all the same length (lowering guarantees it).
    scripts: Vec<Vec<TaskStep>>,
    /// Hosting node of each rank.
    node_of_rank: Vec<u32>,
    /// Phits per task packet (the configured packet size).
    packet_size: u32,
    /// Script length (steps per rank).
    steps_total: usize,
    // ---- per-rank execution state ----
    /// Current step index of each rank (`steps_total` once finished).
    cursor: Vec<usize>,
    /// Ranks whose current step's sends are enqueued (a finished rank has
    /// no current step) — the only ranks that can stall.
    waiting: BitSet,
    /// Packets sent in the current step and not yet delivered.
    sends_outstanding: Vec<u32>,
    /// Packets received per rank per step (early arrivals for future steps
    /// accumulate here until the rank reaches them).
    recvs: Vec<Vec<u32>>,
    /// Cycle before which each rank may not inject its current step's sends
    /// (set to `advance cycle + compute_delay` whenever a rank passes a
    /// step: the rank is computing). Never gates when `compute_delay == 0`.
    ready_at: Vec<u64>,
    /// Cycles each rank spent blocked on the network: step enqueued, source
    /// queue drained, completion conditions not yet met.
    stall_cycles: Vec<u64>,
    // ---- global progress ----
    /// Task packets in the network, by packet id.
    pending: BTreeMap<u64, PendingPacket>,
    /// Ranks that have passed each step (a step is globally complete when
    /// this reaches the rank count).
    step_rank_done: Vec<u32>,
    /// Cycle each step globally completed at. The last step's is the job's
    /// completion: every valid workload lowers to at least one step.
    step_completion_cycles: Vec<Option<Cycle>>,
    // ---- which ranks can move (derived: rebuilt on restore) ----
    /// Ranks to visit at the next advance (walked in ascending order). Every
    /// rank of a fresh or restored job, or after a pause changed.
    woken: BitSet,
    /// `(ready_at, rank)` of each rank computing between steps, pushed when
    /// the step completes — in `ready_at` order, since `compute_delay` is
    /// fixed per job.
    computing: VecDeque<(Cycle, u32)>,
}

impl Job {
    /// Lower `spec`'s workload and build its fresh execution state: the
    /// placement decides where the ranks live and `compute_delay` gates each
    /// step's injection. The job must already have passed
    /// [`JobSpec::validate`] for this topology (configuration validation
    /// guarantees it).
    fn new(spec: &JobSpec, topo: &impl Topology, packet_size: u32) -> Self {
        let groups = topo.num_groups();
        let nodes_per_group = topo.nodes_per_group();
        let node_of_rank: Vec<u32> = (0..spec.workload.ranks)
            .map(|r| spec.placement.node_of_rank(r, groups, nodes_per_group))
            .collect();
        let scripts = spec.workload.lower();
        let ranks = node_of_rank.len();
        let steps_total = scripts.first().map_or(0, |s| s.len());
        Job {
            spec: spec.clone(),
            scripts,
            node_of_rank,
            packet_size,
            steps_total,
            cursor: vec![0; ranks],
            waiting: BitSet::new(ranks),
            sends_outstanding: vec![0; ranks],
            recvs: vec![vec![0; steps_total]; ranks],
            ready_at: vec![0; ranks],
            stall_cycles: vec![0; ranks],
            pending: BTreeMap::new(),
            step_rank_done: vec![0; steps_total],
            step_completion_cycles: vec![None; steps_total],
            woken: BitSet::full(ranks),
            computing: VecDeque::new(),
        }
    }

    /// Attribute a delivered packet: credit the sender's outstanding-send
    /// counter and the receiver's per-step receive counter, and wake both
    /// ranks. Returns whether the packet was this job's. Runs in step 1 of
    /// the cycle.
    fn on_delivery(&mut self, packet: &Packet) -> bool {
        let Some(p) = self.pending.remove(&packet.id.0) else {
            return false;
        };
        self.sends_outstanding[p.src_rank as usize] -= 1;
        self.recvs[p.dst_rank as usize][p.step as usize] += 1;
        self.wake(p.src_rank);
        self.wake(p.dst_rank);
        true
    }

    /// Visit `rank` at the next advance.
    fn wake(&mut self, rank: u32) {
        self.woken.insert(rank as usize);
    }

    /// Visit every rank at the next advance.
    fn wake_all(&mut self) {
        self.woken = BitSet::full(self.cursor.len());
    }

    /// Advance the ranks that can move past completed steps, enqueue newly
    /// reached steps' sends into the hosting nodes' source queues, and
    /// account stall cycles. Runs in step 2 of the cycle, ahead of
    /// stochastic traffic generation (ascending rank order).
    fn advance_and_generate(
        &mut self,
        now: Cycle,
        nodes: &mut Nodes,
        metrics: &mut Metrics,
        next_packet_id: &mut u64,
    ) {
        while let Some(&(ready_at, r)) = self.computing.front() {
            if ready_at > now {
                break;
            }
            self.computing.pop_front();
            self.wake(r);
        }
        let mut woken = std::mem::take(&mut self.woken);
        for r in woken.drain() {
            self.visit(r, now, nodes, next_packet_id);
        }
        self.woken = woken;
        // stall: the rank handed everything to the network and is waiting
        // on deliveries (its own sends or its peers'). One rank lives on
        // one node, so its queue holds only its own sends until stochastic
        // generation, which runs after this.
        let mut stalled_ranks = 0u64;
        for r in self.waiting.iter() {
            let node_idx = self.node_of_rank[r] as usize;
            if !nodes.is_paused(node_idx) && !nodes.is_queued(node_idx) {
                self.stall_cycles[r] += 1;
                stalled_ranks += 1;
            }
        }
        if stalled_ranks > 0 {
            metrics.record_rank_stalls(stalled_ranks);
        }
        debug_assert!(
            self.wake_sets_are_exact(now, nodes),
            "job {}: a rank outside the woken set could move, or the waiting \
             or computing set is wrong, at cycle {now}",
            self.spec.label()
        );
    }

    /// One rank's advance: enqueue its step's sends once its compute delay
    /// has elapsed, and pass every step whose sends were all delivered and
    /// whose expected packets have all arrived (empty steps fall straight
    /// through, so a rank can cross several in one cycle).
    fn visit(&mut self, r: usize, now: Cycle, nodes: &mut Nodes, next_packet_id: &mut u64) {
        let node_idx = self.node_of_rank[r] as usize;
        // a failed rank (or one on a draining router) makes no progress;
        // its peers will stall honestly waiting for it
        if nodes.is_paused(node_idx) {
            return;
        }
        let ranks = self.cursor.len() as u32;
        while self.cursor[r] < self.steps_total {
            let step = self.cursor[r];
            if !self.waiting.contains(r) {
                // modelled computation between steps: the rank holds its
                // sends back until the compute delay elapses (never gates
                // when compute_delay == 0 — ready_at is then <= now)
                if now < self.ready_at[r] {
                    break;
                }
                let src = NodeId(self.node_of_rank[r]);
                let mut outstanding = 0u32;
                for &(dst_rank, packets) in &self.scripts[r][step].sends {
                    let dst = NodeId(self.node_of_rank[dst_rank as usize]);
                    for _ in 0..packets {
                        let id = *next_packet_id;
                        *next_packet_id += 1;
                        let packet = Packet::new(PacketId(id), src, dst, self.packet_size, now);
                        self.pending.insert(
                            id,
                            PendingPacket {
                                src_rank: r as u32,
                                dst_rank,
                                step: step as u32,
                            },
                        );
                        nodes.enqueue_task_packet(node_idx, packet);
                    }
                    outstanding += packets;
                }
                self.sends_outstanding[r] = outstanding;
                self.waiting.insert(r);
            }
            let expected = self.scripts[r][step].expected_packets;
            if self.sends_outstanding[r] != 0 || self.recvs[r][step] < expected {
                break;
            }
            // step complete for this rank
            self.step_rank_done[step] += 1;
            if self.step_rank_done[step] == ranks {
                self.step_completion_cycles[step] = Some(now);
            }
            self.cursor[r] += 1;
            self.waiting.remove(r);
            self.ready_at[r] = now + self.spec.compute_delay;
            if self.cursor[r] < self.steps_total && self.ready_at[r] > now {
                self.computing.push_back((self.ready_at[r], r as u32));
            }
        }
    }

    /// The wake-up sets against a full scan after the advance at `now`: no
    /// unpaused rank can still enqueue or pass a step, each rank computing
    /// past `now` is filed at its `ready_at` (in order), and no finished
    /// rank is waiting.
    fn wake_sets_are_exact(&self, now: Cycle, nodes: &Nodes) -> bool {
        let mut filed = self.computing.iter().zip(self.computing.iter().skip(1));
        filed.all(|(a, b)| a.0 <= b.0)
            && (0..self.cursor.len()).all(|r| {
                let (step, enqueued) = (self.cursor[r], self.waiting.contains(r));
                let unfinished = step < self.steps_total;
                let can_move = unfinished
                    && if enqueued {
                        self.sends_outstanding[r] == 0
                            && self.recvs[r][step] >= self.scripts[r][step].expected_packets
                    } else {
                        now >= self.ready_at[r]
                    };
                let computing = unfinished && !enqueued && self.ready_at[r] > now;
                (!can_move || nodes.is_paused(self.node_of_rank[r] as usize))
                    && (unfinished || !enqueued)
                    && (!computing || self.computing.contains(&(self.ready_at[r], r as u32)))
            })
    }

    /// The specification the job was built from (label, start cycle,
    /// compute delay).
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Whether every rank has finished its script.
    pub fn is_complete(&self) -> bool {
        self.completion_cycle().is_some()
    }

    /// Cycle the last rank finished (the application completion time), once
    /// complete.
    pub fn completion_cycle(&self) -> Option<Cycle> {
        self.step_completion_cycles.last().copied().flatten()
    }

    /// Completion cycle minus start cycle, once complete: the job's own
    /// wall-clock, the quantity a solo-run baseline is compared against.
    pub fn elapsed_cycles(&self) -> Option<Cycle> {
        Some(self.completion_cycle()? - self.spec.start_cycle)
    }

    /// Steps per rank script.
    pub fn total_steps(&self) -> usize {
        self.steps_total
    }

    /// Steps every rank has passed.
    pub fn steps_completed(&self) -> usize {
        self.step_completion_cycles
            .iter()
            .filter(|c| c.is_some())
            .count()
    }

    /// Cycle each step globally completed at (`None` for steps still in
    /// progress), indexed by step.
    pub fn step_completion_cycles(&self) -> &[Option<Cycle>] {
        &self.step_completion_cycles
    }

    /// Cycles each rank spent blocked on the network, indexed by rank.
    pub fn stall_cycles(&self) -> &[u64] {
        &self.stall_cycles
    }

    /// Task packets currently in the network (source queues + in flight).
    pub fn pending_packets(&self) -> usize {
        self.pending.len()
    }

    /// Serialise the mutable execution state (the scripts and rank map are
    /// rebuilt from the configuration on restore, and the progress counts
    /// from the cursors and the pending table).
    fn save_state(&self, e: &mut df_engine::Encoder) {
        for r in 0..self.cursor.len() {
            e.usize(self.cursor[r]);
            e.bool(self.waiting.contains(r));
            e.u64(self.stall_cycles[r]);
            e.u64(self.ready_at[r]);
            for &c in &self.recvs[r] {
                e.u32(c);
            }
        }
        for &c in &self.step_completion_cycles {
            e.option(c, df_engine::Encoder::u64);
        }
        e.seq(self.pending.len());
        for (&id, p) in &self.pending {
            e.u64(id);
            e.u32(p.src_rank);
            e.u32(p.dst_rank);
            e.u32(p.step);
        }
    }

    /// Restore the state written by [`Job::save_state`] into a freshly built
    /// job (same workload and topology — the snapshot's configuration
    /// fingerprint guarantees it) and recount the progress counts from it.
    fn restore_state(&mut self, d: &mut df_engine::Decoder) -> Result<(), df_engine::CodecError> {
        let invalid = |what: String| Err(df_engine::CodecError::Invalid(what));
        let ranks = self.cursor.len();
        for r in 0..ranks {
            self.cursor[r] = d.usize()?;
            if self.cursor[r] > self.steps_total {
                return invalid(format!(
                    "snapshot task cursor {} beyond the {}-step script",
                    self.cursor[r], self.steps_total
                ));
            }
            if d.bool()? {
                // a finished rank has no step to enqueue
                if self.cursor[r] == self.steps_total {
                    return invalid(format!(
                        "snapshot task rank {r} has an enqueued step past the end of its \
                         {}-step script",
                        self.steps_total
                    ));
                }
                self.waiting.insert(r);
            }
            self.stall_cycles[r] = d.u64()?;
            self.ready_at[r] = d.u64()?;
            for c in &mut self.recvs[r] {
                *c = d.u32()?;
            }
        }
        for s in 0..self.steps_total {
            self.step_completion_cycles[s] = d.option(df_engine::Decoder::u64)?;
            // a step completes the cycle its last rank passes it
            self.step_rank_done[s] = self.cursor.iter().filter(|&&c| c > s).count() as u32;
            if self.step_completion_cycles[s].is_some()
                != (self.step_rank_done[s] as usize == ranks)
            {
                return invalid(format!(
                    "snapshot task step {s} completion disagrees with {} of {ranks} ranks past it",
                    self.step_rank_done[s]
                ));
            }
        }
        // each rank's outstanding sends are exactly its packets in the
        // network: delivery counts one down per packet
        let mut pending = BTreeMap::new();
        self.sends_outstanding.fill(0);
        for _ in 0..d.seq(20)? {
            let id = d.u64()?;
            let p = PendingPacket {
                src_rank: d.u32()?,
                dst_rank: d.u32()?,
                step: d.u32()?,
            };
            if p.src_rank as usize >= ranks || p.dst_rank as usize >= ranks {
                return invalid(format!(
                    "snapshot task packet {id} names an out-of-range rank"
                ));
            }
            // a rank passes its step only once every send was delivered
            let (src, step) = (p.src_rank as usize, p.step as usize);
            if step >= self.steps_total || !self.waiting.contains(src) || self.cursor[src] != step {
                return invalid(format!(
                    "snapshot task packet {id} of step {step} was sent by rank {src}, which \
                     has not enqueued that step of its {}-step script",
                    self.steps_total
                ));
            }
            self.sends_outstanding[src] += 1;
            pending.insert(id, p);
        }
        self.pending = pending;
        // the wake-up sets: a fresh job's are empty with every rank woken;
        // the waiting ranks are filed above, the computing ones by `ready_at`
        for r in (0..ranks).filter(|&r| self.cursor[r] < self.steps_total) {
            if !self.waiting.contains(r) {
                self.computing.push_back((self.ready_at[r], r as u32));
            }
        }
        self.computing.make_contiguous().sort_unstable();
        Ok(())
    }
}

/// Advances a set of concurrently scheduled jobs — one [`Job`] per
/// [`JobSpec`] — against one shared network; the simulator's one
/// application engine. Owned by [`Network`] when the configuration carries
/// a job set. Jobs are visited in specification order; a job whose
/// `start_cycle` has not been reached is skipped, so its ranks stay idle
/// and accrue no stalls. Packet ids are globally unique, so delivery
/// attribution offers each packet to the jobs' pending tables until one
/// claims it (stochastic background packets match none).
#[derive(Debug, Clone)]
pub struct JobsEngine {
    jobs: Vec<Job>,
}

impl JobsEngine {
    pub(crate) fn new(jobs: &[JobSpec], topo: &impl Topology, packet_size: u32) -> Self {
        JobsEngine {
            jobs: jobs
                .iter()
                .map(|spec| Job::new(spec, topo, packet_size))
                .collect(),
        }
    }

    /// Attribute a delivered packet to whichever job sent it (no-op for
    /// stochastic background packets). Runs in step 1 of the cycle.
    pub(crate) fn on_delivery(&mut self, packet: &Packet) {
        for job in &mut self.jobs {
            if job.on_delivery(packet) {
                return;
            }
        }
    }

    /// Visit every rank of every job at the next advance (a pause changed).
    pub(crate) fn wake_all(&mut self) {
        for job in &mut self.jobs {
            job.wake_all();
        }
    }

    /// Advance every started, unfinished job (specification order). Runs in
    /// step 2 of the cycle alongside — not instead of — stochastic
    /// generation.
    pub(crate) fn advance_and_generate(
        &mut self,
        now: Cycle,
        nodes: &mut Nodes,
        metrics: &mut Metrics,
        next_packet_id: &mut u64,
    ) {
        for job in &mut self.jobs {
            if now < job.spec.start_cycle || job.is_complete() {
                continue;
            }
            job.advance_and_generate(now, nodes, metrics, next_packet_id);
        }
    }

    /// Whether every job has completed.
    pub fn is_complete(&self) -> bool {
        self.jobs.iter().all(Job::is_complete)
    }

    /// Cycle the last job finished (the job-set makespan), once all are
    /// complete.
    pub fn completion_cycle(&self) -> Option<Cycle> {
        let mut latest = None;
        for job in &self.jobs {
            latest = latest.max(Some(job.completion_cycle()?));
        }
        latest
    }

    /// The jobs (per-job completion, step timeline, stalls, pending
    /// packets), in specification order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Task packets of all jobs currently in the network.
    pub fn pending_packets(&self) -> usize {
        self.jobs.iter().map(Job::pending_packets).sum()
    }

    /// Serialise every job's mutable execution state (job specifications
    /// and scripts, hence the job and rank counts, are rebuilt from the
    /// configuration on restore).
    pub(crate) fn save_state(&self, e: &mut df_engine::Encoder) {
        for job in &self.jobs {
            job.save_state(e);
        }
    }

    /// Restore the state written by [`JobsEngine::save_state`].
    pub(crate) fn restore_state(
        &mut self,
        d: &mut df_engine::Decoder,
    ) -> Result<(), df_engine::CodecError> {
        for job in &mut self.jobs {
            job.restore_state(d)?;
        }
        Ok(())
    }
}

/// Run `config`'s job set until every job completes (or `max_cycles`
/// elapse), measuring from cycle 0, and return the network that ran it: each
/// job's outcome is its [`Job`] in [`Network::jobs`], the shared packet
/// statistics are [`Network::metrics`].
///
/// Panics if the configuration carries no jobs.
pub fn run_job_set(config: SimulationConfig, max_cycles: u64) -> Network {
    assert!(
        !config.jobs.is_empty(),
        "run_job_set needs a configuration with at least one job"
    );
    let mut net = Network::new(config);
    net.metrics_mut().start_measurement(0);
    net.run_until_jobs_complete(max_cycles);
    net
}

#[cfg(test)]
impl Job {
    /// The progress counts restore recounts: outstanding sends per rank
    /// and ranks past each step.
    pub(crate) fn progress(&self) -> (Vec<u32>, Vec<u32>) {
        (self.sends_outstanding.clone(), self.step_rank_done.clone())
    }
}
