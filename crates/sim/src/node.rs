//! Compute nodes: traffic generation and source queues.
//!
//! Each node runs an injector (Bernoulli, bursty or ramp — see
//! [`InjectionKind`]) and keeps an unbounded source queue in front of its
//! router's injection port (as in FOGSim: the network interface never drops
//! traffic, so offered load is exactly the generated load and saturation
//! shows up as source-queue growth and latency blow-up rather than packet
//! loss).
//!
//! `Nodes` (crate-private) is the whole population as the simulator's
//! per-cycle loop sees it: the nodes plus two *derived* sets that make the
//! walk over them proportional to what happens rather than to the node
//! count — the nodes with a non-empty source queue (the only ones injection
//! visits, a [`BitSet`] walked in ascending order) and a wake-up calendar,
//! the one generation walk, which hands out each node at its next live
//! tick: past its Bernoulli gap (see [`df_traffic::injection`]), never while
//! silent. A cycle's generation ticks its due nodes in ascending order (the
//! order packet ids are numbered in). The gaps are simulation state, saved
//! with the nodes (the calendar hands back what each still owes); the
//! buckets are not: they are rebuilt from the nodes on construction and on
//! restore, and a snapshot is byte-identical with or without them.
//!
//! [`BitSet`]: df_engine::BitSet

use df_engine::{BitSet, DeterministicRng};
use df_model::{Cycle, Packet, PacketBounds};
use df_topology::NodeId;
use df_traffic::{InjectionKind, Injector, TrafficPattern, LOOKAHEAD_BOUND};
use std::collections::VecDeque;

/// A compute node: injector plus source queue. Its one statistic is the
/// phits it generated (the packet ids count its packets).
#[derive(Debug, Clone)]
pub struct Node {
    injector: Injector,
    source_queue: VecDeque<Packet>,
    /// Round-robin pointer over the injection VCs of the attached router
    /// port.
    next_vc: usize,
    /// Phits generated (stochastic and task packets): the one home of the
    /// offered traffic, which `Network::generated_phits_total` sums.
    generated_phits: u64,
}

impl Node {
    /// Create a node with its own RNG stream.
    pub(crate) fn new(
        node: NodeId,
        injection: InjectionKind,
        offered_load: f64,
        packet_size_phits: u32,
        rng: DeterministicRng,
    ) -> Self {
        Node {
            injector: Injector::new(node, injection, offered_load, packet_size_phits, rng),
            source_queue: VecDeque::new(),
            next_vc: 0,
            generated_phits: 0,
        }
    }

    /// Generate this cycle's traffic (if any) into the source queue. Returns
    /// whether a packet was generated.
    pub(crate) fn generate(
        &mut self,
        now: Cycle,
        pattern: &TrafficPattern,
        next_packet_id: &mut u64,
    ) -> bool {
        let Some(packet) = self.injector.tick(now, pattern, next_packet_id) else {
            return false;
        };
        self.generated_phits += packet.size_phits as u64;
        self.source_queue.push_back(packet);
        true
    }

    /// Enqueue a packet produced by the task layer (collective workloads)
    /// instead of the stochastic injector. It joins the same source queue
    /// and statistics as generated traffic, so the downstream injection
    /// machinery is identical for both.
    pub(crate) fn enqueue_task_packet(&mut self, packet: Packet) {
        self.generated_phits += packet.size_phits as u64;
        self.source_queue.push_back(packet);
    }

    /// Change the offered load (phase changes with a load override).
    pub(crate) fn set_offered_load(&mut self, load: f64) {
        self.injector.set_offered_load(load);
    }

    /// Peek the packet waiting to enter the network.
    pub(crate) fn head(&self) -> Option<&Packet> {
        self.source_queue.front()
    }

    /// Remove the head packet (it was accepted by the router's injection
    /// buffer).
    pub(crate) fn pop_head(&mut self) -> Option<Packet> {
        self.source_queue.pop_front()
    }

    /// Packets currently waiting in the source queue.
    pub fn queue_len(&self) -> usize {
        self.source_queue.len()
    }

    /// Total phits generated so far.
    pub fn generated_phits(&self) -> u64 {
        self.generated_phits
    }

    /// Round-robin pointer over injection VCs; advances on every call.
    pub(crate) fn take_vc_rr(&mut self, num_vcs: usize) -> usize {
        let s = self.next_vc % num_vcs.max(1);
        self.next_vc = (s + 1) % num_vcs.max(1);
        s
    }

    /// Serialise the node's persistent state: injector (RNG stream, burst
    /// state, gap), source queue, VC round-robin pointer and generated
    /// phits. `owed` is how many ticks of the gap the calendar took out have
    /// not elapsed yet (0 for a node ticked every cycle): the gap written is
    /// the one a tick-every-cycle twin would hold now.
    pub(crate) fn save_state(&self, e: &mut df_engine::Encoder, owed: u32) {
        self.injector.save_state(e, owed);
        e.seq(self.source_queue.len());
        for p in &self.source_queue {
            p.encode(e);
        }
        e.usize(self.next_vc);
        e.u64(self.generated_phits);
    }

    /// Restore the state written by [`Node::save_state`] into a freshly
    /// configured node, already at the captured offered load, whose queued
    /// packets must fit `bounds` and whose VC pointer must lie below the
    /// injection port's `injection_vcs` (where [`Node::take_vc_rr`] keeps
    /// it).
    pub(crate) fn restore_state(
        &mut self,
        d: &mut df_engine::Decoder,
        bounds: &PacketBounds,
        injection_vcs: usize,
    ) -> Result<(), df_engine::CodecError> {
        self.injector.restore_state(d)?;
        self.source_queue = (0..d.seq(8)?)
            .map(|_| Packet::decode(d, bounds))
            .collect::<Result<_, _>>()?;
        self.next_vc = d.usize()?;
        if self.next_vc >= injection_vcs {
            let what = format!("VC pointer {} of {injection_vcs} VCs", self.next_vc);
            return Err(df_engine::CodecError::Invalid(what));
        }
        self.generated_phits = d.u64()?;
        Ok(())
    }
}

/// Every compute node of the network, with the derived sets the per-cycle
/// loop walks instead of the whole population (see the module docs). The
/// rule for each set is the activity gate's: skipped work is provably a
/// no-op, iteration is in ascending node order, and the set is rebuilt from
/// the nodes on restore.
///
/// The calendar files each node at its next live tick: `now + gap` when the
/// population is built, restored or its load changes, `now + gap + 1` after
/// each tick, the gap taken out of its injector ([`Injector::take_gap`]; 0
/// for `Ramp` and `Bursty`). Its buckets form a ring longer than
/// `LOOKAHEAD_BOUND`; a cycle ticks its bucket, sorted (the order within a
/// chain is not state). A silent node stays out until the next load change;
/// a paused one leaves owing the rest of its gap.
pub(crate) struct Nodes {
    nodes: Vec<Node>,
    /// Per unpaused node: the cycle of its next live tick (passed while it
    /// is silent). Per paused node: the ticks of its gap it owes.
    wake: Vec<Cycle>,
    /// Per node: generation paused (draining router or failed node).
    paused: Vec<bool>,
    /// The calendar's chains: `links[idx]` follows node `idx` in its bucket,
    /// `links[n + slot]` heads bucket `slot`.
    links: Vec<u32>,
    /// Reusable buffer: the nodes due this cycle.
    due: Vec<u32>,
    /// Nodes whose source queue is non-empty (exact outside the injection
    /// walk, which leaves out the nodes it empties).
    queued: BitSet,
}

/// The end of a calendar chain.
const NO_NODE: u32 = u32::MAX;

/// The calendar's buckets: more than a wake-up lies ahead (a whole gap and
/// the tick after it).
const SLOTS: usize = (LOOKAHEAD_BOUND as usize + 1).next_power_of_two();

impl Nodes {
    /// Wrap a freshly built population: every node filed for cycle 0.
    pub(crate) fn new(nodes: Vec<Node>) -> Self {
        let mut this = Nodes {
            wake: vec![0; nodes.len()],
            paused: vec![false; nodes.len()],
            links: vec![NO_NODE; nodes.len() + SLOTS],
            due: Vec::new(),
            queued: BitSet::new(nodes.len()),
            nodes,
        };
        this.refile_all(0);
        this
    }

    /// Borrow node `idx`.
    pub(crate) fn get(&self, idx: usize) -> &Node {
        &self.nodes[idx]
    }

    /// How many ticks of the gap the calendar took out of node `idx` have
    /// not elapsed at the start of cycle `now`. A wake-up behind `now` owes
    /// nothing: a silent node's, or a filed one's in a restore's fault
    /// replay, which meets the population filed for cycle 0 (restore refiles
    /// it afterwards).
    fn owed(&self, idx: usize, now: Cycle) -> u32 {
        match self.paused[idx] {
            true => self.wake[idx] as u32,
            false => self.wake[idx].saturating_sub(now) as u32,
        }
    }

    /// The index of `links` heading the bucket of `cycle`.
    #[inline]
    fn head(&self, cycle: Cycle) -> usize {
        self.nodes.len() + (cycle as usize & (SLOTS - 1))
    }

    /// Link node `idx` into the bucket of its wake cycle.
    #[inline]
    fn link(&mut self, idx: usize) {
        let head = self.head(self.wake[idx]);
        self.links[idx] = std::mem::replace(&mut self.links[head], idx as u32);
    }

    /// File node `idx` at its next live tick from cycle `from`, past the gap
    /// taken out of its injector; a paused node owes the gap instead, and a
    /// silent one is not linked.
    #[inline]
    fn file_next(&mut self, idx: usize, from: Cycle) {
        let injector = &mut self.nodes[idx].injector;
        let gap = injector.take_gap() as Cycle;
        if self.paused[idx] {
            self.wake[idx] = gap;
        } else {
            self.wake[idx] = from + gap;
            if !injector.is_silent() {
                self.link(idx);
            }
        }
    }

    /// Refile the whole population at the start of cycle `now` (built,
    /// restored, load changed).
    fn refile_all(&mut self, now: Cycle) {
        self.links.fill(NO_NODE);
        (0..self.nodes.len()).for_each(|idx| self.file_next(idx, now));
    }

    /// Change every node's offered load at the start of cycle `now` (phase
    /// changes, drain). The gaps were drawn against the old load: each
    /// injector discards its own, and every node is refiled.
    pub(crate) fn set_offered_load(&mut self, load: f64, now: Cycle) {
        for node in &mut self.nodes {
            node.set_offered_load(load);
        }
        self.refile_all(now);
    }

    /// Whether node `idx`'s generation is paused: its router drains or it
    /// failed, so it makes no progress (`Network::sync_paused` keeps it so).
    pub(crate) fn is_paused(&self, idx: usize) -> bool {
        self.paused[idx]
    }

    /// Pause or resume node `idx`'s generation at the start of cycle `now`
    /// (draining router or failed node; idempotent). A paused node neither
    /// ticks nor counts its gap down, and resumes owing what it owed; its
    /// queued packets still inject.
    pub(crate) fn set_paused(&mut self, idx: usize, paused: bool, now: Cycle) {
        if self.paused[idx] == paused {
            return;
        }
        if paused {
            if !self.nodes[idx].injector.is_silent() {
                let mut at = self.head(self.wake[idx]); // pauses are rare: walk the chain
                while self.links[at] != idx as u32 {
                    at = self.links[at] as usize;
                }
                self.links[at] = self.links[idx];
            }
            self.wake[idx] = self.owed(idx, now) as Cycle;
            self.paused[idx] = true;
        } else {
            self.paused[idx] = false;
            self.file_next(idx, now + self.wake[idx]);
        }
    }

    /// This cycle's generation: tick the nodes filed at `now` in ascending
    /// order, filing each again at its next live tick. Returns how many
    /// nodes ticked and how many of the ticks drew a run of failures (a
    /// gap).
    pub(crate) fn generate(
        &mut self,
        now: Cycle,
        pattern: &TrafficPattern,
        next_packet_id: &mut u64,
    ) -> (u64, u64) {
        let mut due = std::mem::take(&mut self.due);
        let head = self.head(now);
        let mut idx = std::mem::replace(&mut self.links[head], NO_NODE);
        while idx != NO_NODE {
            due.push(idx);
            idx = self.links[idx as usize];
        }
        // the ticks number the packets: ascending, as an every-node walk
        due.sort_unstable();
        let mut draws = 0;
        for &idx in &due {
            let node = &mut self.nodes[idx as usize];
            draws += node.injector.draws_a_run() as u64;
            if node.generate(now, pattern, next_packet_id) {
                self.queued.insert(idx as usize);
            }
            self.file_next(idx as usize, now + 1);
        }
        let ticks = due.len() as u64;
        due.clear();
        self.due = due;
        (ticks, draws)
    }

    /// Whether node `idx` has a packet waiting. The queued set is exact from
    /// one injection walk to the next, and an enqueue files its node at
    /// once, so membership is exact throughout step 2 too.
    pub(crate) fn is_queued(&self, idx: usize) -> bool {
        debug_assert_eq!(self.queued.contains(idx), self.nodes[idx].queue_len() > 0);
        self.queued.contains(idx)
    }

    /// Enqueue a task-layer packet at node `idx` (see
    /// [`Node::enqueue_task_packet`]).
    pub(crate) fn enqueue_task_packet(&mut self, idx: usize, packet: Packet) {
        self.nodes[idx].enqueue_task_packet(packet);
        self.queued.insert(idx);
    }

    /// The injection walk: hand every node with a packet waiting to
    /// `inject`, in ascending node order, and leave out of the queued set
    /// the nodes whose queue it emptied.
    pub(crate) fn inject_queued(&mut self, mut inject: impl FnMut(usize, &mut Node)) {
        let nodes = &mut self.nodes;
        self.queued.retain(|idx| {
            inject(idx, &mut nodes[idx]);
            nodes[idx].queue_len() > 0
        });
    }

    /// Whether no node has a packet waiting (O(1); exact at step
    /// boundaries).
    pub(crate) fn all_queues_empty(&self) -> bool {
        self.queued.is_empty()
    }

    /// The queued set against a full scan: exactly the nodes with a
    /// non-empty source queue.
    pub(crate) fn queued_set_is_exact(&self) -> bool {
        (self.nodes.iter().enumerate())
            .all(|(idx, node)| self.queued.contains(idx) == (node.queue_len() > 0))
    }

    /// The calendar's invariant against a full scan at the start of cycle
    /// `now`: exactly the unpaused nodes with a live injector are filed,
    /// each once, in its wake cycle's bucket, from `now` to a whole gap
    /// ahead.
    pub(crate) fn calendar_is_exact(&self, now: Cycle) -> bool {
        let (n, mut filed) = (self.nodes.len(), vec![false; self.nodes.len()]);
        for head in n..self.links.len() {
            let mut idx = self.links[head] as usize;
            while idx != NO_NODE as usize {
                let wake = self.wake[idx];
                if filed[idx]
                    || !(now..=now + LOOKAHEAD_BOUND as Cycle).contains(&wake)
                    || self.head(wake) != head
                {
                    return false;
                }
                filed[idx] = true;
                idx = self.links[idx] as usize;
            }
        }
        (0..n).all(|idx| filed[idx] != (self.paused[idx] || self.nodes[idx].injector.is_silent()))
    }

    /// Serialise every node at the start of cycle `now` (see
    /// [`Node::save_state`]), after the offered load they share: every node
    /// starts at one load and [`Nodes::set_offered_load`] sets all of them.
    pub(crate) fn save_state(&self, e: &mut df_engine::Encoder, now: Cycle) {
        let load = self.nodes[0].injector.offered_load();
        debug_assert!(
            (self.nodes.iter()).all(|n| n.injector.offered_load().to_bits() == load.to_bits()),
            "the nodes' offered loads differ"
        );
        e.f64(load);
        for (idx, node) in self.nodes.iter().enumerate() {
            node.save_state(e, self.owed(idx, now));
        }
    }

    /// Restore the state written by [`Nodes::save_state`] at the start of
    /// cycle `now` (see [`Node::restore_state`] for `bounds` and
    /// `injection_vcs`; the offered load lies in `[0, 1]`), then rebuild the
    /// queued set and file each node at `now` plus its restored gap.
    pub(crate) fn restore_state(
        &mut self,
        d: &mut df_engine::Decoder,
        bounds: &PacketBounds,
        injection_vcs: usize,
        now: Cycle,
    ) -> Result<(), df_engine::CodecError> {
        let load = d.f64()?;
        if !(0.0..=1.0).contains(&load) {
            let what = format!("offered load {load} outside [0, 1]");
            return Err(df_engine::CodecError::Invalid(what));
        }
        self.queued.clear();
        for (idx, node) in self.nodes.iter_mut().enumerate() {
            node.set_offered_load(load);
            node.restore_state(d, bounds, injection_vcs)?;
            if node.queue_len() > 0 {
                self.queued.insert(idx);
            }
        }
        self.refile_all(now);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_topology::{Dragonfly, DragonflyParams};
    use df_traffic::PatternKind;

    fn pattern() -> TrafficPattern {
        PatternKind::Uniform.build(Dragonfly::new(DragonflyParams::small()))
    }

    #[test]
    fn generation_fills_the_source_queue() {
        let pat = pattern();
        let mut node = Node::new(
            NodeId(3),
            InjectionKind::Bernoulli,
            1.0,
            1,
            DeterministicRng::new(1),
        );
        let mut id = 0;
        for now in 0..100 {
            assert!(node.generate(now, &pat, &mut id));
        }
        assert_eq!((id, node.queue_len()), (100, 100));
        assert_eq!(node.generated_phits(), 100);
        let p = node.pop_head().unwrap();
        assert_eq!((p.src, p.id), (NodeId(3), df_model::PacketId(0)));
        assert_eq!(node.head().map(|p| p.id), Some(df_model::PacketId(1)));
        assert_eq!(node.queue_len(), 99);
    }

    #[test]
    fn head_is_fifo() {
        let pat = pattern();
        let mut node = Node::new(
            NodeId(0),
            InjectionKind::Bernoulli,
            1.0,
            1,
            DeterministicRng::new(2),
        );
        let mut id = 0;
        node.generate(0, &pat, &mut id);
        node.generate(1, &pat, &mut id);
        let first = node.head().unwrap().id;
        let popped = node.pop_head().unwrap();
        assert_eq!(popped.id, first);
        assert_ne!(node.head().unwrap().id, first);
    }

    #[test]
    fn vc_round_robin_cycles() {
        let mut node = Node::new(
            NodeId(0),
            InjectionKind::Bernoulli,
            0.5,
            8,
            DeterministicRng::new(3),
        );
        assert_eq!(node.take_vc_rr(3), 0);
        assert_eq!(node.take_vc_rr(3), 1);
        assert_eq!(node.take_vc_rr(3), 2);
        assert_eq!(node.take_vc_rr(3), 0);
    }

    #[test]
    fn load_override_changes_generation_rate() {
        let pat = pattern();
        let mut node = Node::new(
            NodeId(0),
            InjectionKind::Bernoulli,
            0.0,
            8,
            DeterministicRng::new(4),
        );
        let mut id = 0;
        for now in 0..1_000 {
            node.generate(now, &pat, &mut id);
        }
        assert_eq!(node.queue_len(), 0);
        node.set_offered_load(1.0);
        for now in 1_000..9_000 {
            node.generate(now, &pat, &mut id);
        }
        assert!(node.queue_len() > 800);
    }

    // ---- Nodes: the derived sets against a plain every-node walk ----

    /// A small population, some of it paused at times.
    const POPULATION: usize = 13;

    fn population(injection: InjectionKind, load: f64) -> Vec<Node> {
        (0..POPULATION as u32)
            .map(|n| {
                Node::new(
                    NodeId(n),
                    injection,
                    load,
                    8,
                    DeterministicRng::new(40).split(n as u64),
                )
            })
            .collect()
    }

    fn saved_nodes(nodes: &Nodes, now: Cycle) -> Vec<u8> {
        let mut e = df_engine::Encoder::new();
        nodes.save_state(&mut e, now);
        e.into_bytes()
    }

    fn saved_twins(twins: &[Node]) -> Vec<u8> {
        let mut e = df_engine::Encoder::new();
        e.f64(twins[0].injector.offered_load());
        for twin in twins {
            twin.save_state(&mut e, 0);
        }
        e.into_bytes()
    }

    /// Drive a population of `injection` injectors through the calendar and
    /// a twin population ticked every cycle, through overlapping pauses,
    /// load changes (to zero and back, mid-gap) and two mid-run restores,
    /// comparing the saved state after every cycle: the same packets, the
    /// same streams and the same gaps, bit for bit.
    fn assert_calendar_matches_twins(injection: InjectionKind) {
        let pat = pattern();
        let bounds = PacketBounds::new(&Dragonfly::new(DragonflyParams::small()), 8);
        let mut nodes = Nodes::new(population(injection, 0.2));
        let mut twins = population(injection, 0.2);
        let (mut id, mut twin_id) = (0u64, 0u64);
        let (mut blocked, mut failed) = (vec![false; POPULATION], vec![false; POPULATION]);
        for now in 0..3_000u64 {
            let label = format!("{} cycle {now}", injection.label());
            // the load changes to zero and back, with gaps pending
            if let Some(load) = [(1_000, 0.0), (1_400, 0.05), (2_001, 0.3)]
                .iter()
                .find_map(|&(at, load)| (at == now).then_some(load))
            {
                nodes.set_offered_load(load, now);
                twins.iter_mut().for_each(|t| t.set_offered_load(load));
            }
            // node 5's router drains, then the node fails while still
            // behind it (paused over the union, across the load change to
            // zero); node 8 fails alone. A paused node must not tick, so
            // its gap must not count down.
            blocked[5] = (500..900).contains(&now);
            failed[5] = (700..1_100).contains(&now);
            failed[8] = (1_200..1_300).contains(&now);
            for idx in [5, 8] {
                nodes.set_paused(idx, blocked[idx] || failed[idx], now);
            }
            // a restore (every node refiled past its restored gap) while
            // node 5 is paused, while the population is silent with node 8
            // paused, and while most nodes are mid-gap
            if [750, 1_250, 1_777].contains(&now) {
                let bytes = saved_nodes(&nodes, now);
                let mut restored = Nodes::new(population(injection, 0.2));
                restored
                    .restore_state(&mut df_engine::Decoder::new(&bytes), &bounds, 1, now)
                    .unwrap();
                for idx in 0..POPULATION {
                    restored.set_paused(idx, blocked[idx] || failed[idx], now);
                }
                assert_eq!(saved_nodes(&restored, now), bytes, "{label}");
                assert!(restored.queued_set_is_exact() && restored.calendar_is_exact(now));
                nodes = restored;
            }
            nodes.generate(now, &pat, &mut id);
            for (idx, twin) in twins.iter_mut().enumerate() {
                if !blocked[idx] && !failed[idx] {
                    twin.generate(now, &pat, &mut twin_id);
                }
            }
            assert_eq!(saved_nodes(&nodes, now + 1), saved_twins(&twins), "{label}");
            assert!(nodes.queued_set_is_exact(), "{label}");
            assert!(nodes.calendar_is_exact(now + 1), "{label}");
            // drain every other cycle through the queued set, as injection does
            if now % 2 == 0 {
                let mut last = None;
                nodes.inject_queued(|idx, node| {
                    assert!(last < Some(idx), "ascending order");
                    last = Some(idx);
                    assert_eq!(
                        node.pop_head().map(|p| p.id),
                        twins[idx].pop_head().map(|p| p.id)
                    );
                });
                assert!(nodes.queued_set_is_exact(), "{label}");
                assert_eq!(
                    nodes.all_queues_empty(),
                    twins.iter().all(|t| t.queue_len() == 0)
                );
            }
        }
        assert_eq!(id, twin_id);
        assert!(id > 100, "the walk generated traffic ({id} packets)");
    }

    #[test]
    fn gated_walk_matches_ticking_every_node_every_cycle() {
        assert_calendar_matches_twins(InjectionKind::Bernoulli);
        assert_calendar_matches_twins(InjectionKind::Ramp {
            start_fraction: 0.2,
            ramp_cycles: 1_500,
        });
        assert_calendar_matches_twins(InjectionKind::Bursty {
            mean_on: 20.0,
            mean_off: 30.0,
        });
    }

    /// How many nodes the calendar holds.
    fn filed(nodes: &Nodes) -> usize {
        let n = nodes.nodes.len();
        (n..nodes.links.len())
            .map(|head| {
                let mut idx = nodes.links[head];
                let mut len = 0;
                while idx != NO_NODE {
                    (len, idx) = (len + 1, nodes.links[idx as usize]);
                }
                len
            })
            .sum()
    }

    #[test]
    fn a_bernoulli_population_ticks_only_its_due_nodes() {
        // p = 1/800: after the first walk, the calendar hands out a node
        // about once per 256-trial run, twice per success
        let pat = pattern();
        let mut nodes = Nodes::new(population(InjectionKind::Bernoulli, 0.01));
        let mut id = 0u64;
        assert_eq!(nodes.generate(0, &pat, &mut id).0, POPULATION as u64);
        let mut ticks = 0;
        for now in 1..1_000 {
            ticks += nodes.generate(now, &pat, &mut id).0;
        }
        assert!(ticks < 13 * 10, "{ticks} ticks in 999 cycles of 13 nodes");
        // a load change discards every gap: each node is due at once
        nodes.set_offered_load(0.02, 1_000);
        assert!(nodes.calendar_is_exact(1_000));
        assert!((nodes.wake.iter()).all(|&wake| wake == 1_000));
    }

    #[test]
    fn a_pause_unlinks_its_node_from_anywhere_in_the_bucket() {
        let mut nodes = Nodes::new(population(InjectionKind::Bernoulli, 0.01));
        nodes.links.fill(NO_NODE);
        for idx in 0..POPULATION {
            nodes.wake[idx] = if idx < 4 { 7 } else { 9 };
            nodes.link(idx);
        }
        assert!(nodes.calendar_is_exact(3));
        // the chain of cycle 7 runs 3, 2, 1, 0: take the middle, the tail,
        // then the head
        for (idx, now) in [(1, 3), (0, 4), (3, 5)] {
            nodes.set_paused(idx, true, now);
            assert!(nodes.calendar_is_exact(now));
            assert_eq!(nodes.owed(idx, now), 7 - now as u32);
        }
        nodes.set_paused(1, false, 6);
        assert!(nodes.calendar_is_exact(6));
        assert_eq!(nodes.wake[1], 10, "resumed owing its 4 ticks");
    }

    #[test]
    fn silent_nodes_stay_unfiled_until_their_load_changes() {
        let bursty = InjectionKind::Bursty {
            mean_on: 10.0,
            mean_off: 10.0,
        };
        assert_eq!(
            filed(&Nodes::new(population(InjectionKind::Bernoulli, 0.0))),
            0
        );
        assert_eq!(
            filed(&Nodes::new(population(InjectionKind::Bernoulli, 0.1))),
            13
        );
        assert_eq!(filed(&Nodes::new(population(bursty, 0.0))), 13);
        let (pat, mut id) = (pattern(), 0u64);
        let mut nodes = Nodes::new(population(InjectionKind::Bernoulli, 0.1));
        nodes.set_offered_load(0.0, 0);
        assert_eq!(filed(&nodes), 0);
        assert_eq!(nodes.generate(0, &pat, &mut id), (0, 0));
        // a node paused and resumed while silent owes nothing and stays out
        nodes.set_paused(4, true, 1);
        nodes.set_paused(4, false, 2);
        assert!(filed(&nodes) == 0 && nodes.calendar_is_exact(2));
        nodes.set_paused(4, true, 2);
        nodes.set_offered_load(0.3, 3);
        assert!(filed(&nodes) == 12 && nodes.calendar_is_exact(3));
        nodes.set_paused(4, false, 5);
        assert!(filed(&nodes) == 13 && nodes.wake[4] == 5);
        // task packets queue and drain through a silent population
        nodes.set_offered_load(0.0, 6);
        let packet = Packet::new(df_model::PacketId(1), NodeId(3), NodeId(9), 8, 0);
        nodes.enqueue_task_packet(3, packet);
        assert!(!nodes.all_queues_empty());
        let mut visited = Vec::new();
        nodes.inject_queued(|idx, node| {
            visited.push(idx);
            node.pop_head();
        });
        assert_eq!(visited, [3]);
        assert!(nodes.all_queues_empty());
    }
}
