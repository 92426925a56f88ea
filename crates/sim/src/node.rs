//! Compute nodes: traffic generation and source queues.
//!
//! Each node runs an injector (Bernoulli, bursty or ramp — see
//! [`InjectionKind`]) and keeps an unbounded source queue in front of its
//! router's injection port (as in FOGSim: the network interface never drops
//! traffic, so offered load is exactly the generated load and saturation
//! shows up as source-queue growth and latency blow-up rather than packet
//! loss).
//!
//! `Nodes` (crate-private) is the whole population as the simulator's per-cycle loop sees
//! it: the nodes themselves plus three *derived* sets that make the walk
//! over them proportional to what happens rather than to the node count —
//! the nodes with a non-empty source queue (the only ones injection has to
//! visit), a per-node countdown of ticks the Bernoulli look-ahead has
//! already proved to be failures (see [`df_traffic::injection`]), and a
//! flag for the case where no injector can generate anything at all. None
//! of it is simulation state: it is rebuilt from the nodes on construction
//! and on restore, and a snapshot is byte-identical with or without it.

use df_engine::DeterministicRng;
use df_model::{Cycle, Packet};
use df_topology::NodeId;
use df_traffic::{InjectionKind, Injector, TrafficPattern};
use std::collections::VecDeque;

use crate::metrics::Metrics;

/// A compute node: injector plus source queue.
#[derive(Debug, Clone)]
pub struct Node {
    injector: Injector,
    source_queue: VecDeque<Packet>,
    /// Round-robin pointer over the injection VCs of the attached router
    /// port.
    next_vc: usize,
    /// Statistics: packets generated / handed to the router.
    generated_phits: u64,
    injected_packets: u64,
}

impl Node {
    /// Create a node with its own RNG stream.
    pub fn new(
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
            injected_packets: 0,
        }
    }

    /// The node identifier.
    pub fn id(&self) -> NodeId {
        self.injector.node()
    }

    /// Generate this cycle's traffic (if any) into the source queue. Returns
    /// the number of phits generated (0 or the packet size).
    pub fn generate(
        &mut self,
        now: Cycle,
        pattern: &TrafficPattern,
        next_packet_id: &mut u64,
    ) -> u32 {
        if let Some(packet) = self.injector.tick(now, pattern, next_packet_id) {
            let phits = packet.size_phits;
            self.generated_phits += phits as u64;
            self.source_queue.push_back(packet);
            phits
        } else {
            0
        }
    }

    /// Enqueue a packet produced by the task layer (collective workloads)
    /// instead of the stochastic injector. It joins the same source queue
    /// and statistics as generated traffic, so the downstream injection
    /// machinery is identical for both.
    pub fn enqueue_task_packet(&mut self, packet: Packet) {
        self.generated_phits += packet.size_phits as u64;
        self.source_queue.push_back(packet);
    }

    /// Change the offered load (phase changes with a load override).
    pub fn set_offered_load(&mut self, load: f64) {
        self.injector.set_offered_load(load);
    }

    /// Peek the packet waiting to enter the network.
    pub fn head(&self) -> Option<&Packet> {
        self.source_queue.front()
    }

    /// Remove the head packet (it was accepted by the router's injection
    /// buffer).
    pub fn pop_head(&mut self) -> Option<Packet> {
        let p = self.source_queue.pop_front();
        if p.is_some() {
            self.injected_packets += 1;
        }
        p
    }

    /// Packets currently waiting in the source queue.
    pub fn queue_len(&self) -> usize {
        self.source_queue.len()
    }

    /// Total phits generated so far.
    pub fn generated_phits(&self) -> u64 {
        self.generated_phits
    }

    /// Total packets handed to the router so far.
    pub fn injected_packets(&self) -> u64 {
        self.injected_packets
    }

    /// Round-robin pointer over injection VCs; advances on every call.
    pub fn take_vc_rr(&mut self, num_vcs: usize) -> usize {
        let s = self.next_vc % num_vcs.max(1);
        self.next_vc = (s + 1) % num_vcs.max(1);
        s
    }

    /// Serialise the node's persistent state: injector (RNG stream, load
    /// override, generation counter), source queue, VC round-robin pointer
    /// and statistics. `quiet_ticks` is how many of the ticks the injector's
    /// pending look-ahead reported have not elapsed yet (0 for a node ticked
    /// every cycle): the stream position written is the one a
    /// tick-every-cycle twin would hold now.
    pub fn save_state(&self, e: &mut df_engine::Encoder, quiet_ticks: u32) {
        let mut injector = self.injector.clone();
        injector.settle(quiet_ticks);
        injector.save_state(e);
        e.seq(self.source_queue.len());
        for p in &self.source_queue {
            p.encode(e);
        }
        e.usize(self.next_vc);
        e.u64(self.generated_phits);
        e.u64(self.injected_packets);
    }

    /// Restore the state written by [`Node::save_state`] into a freshly
    /// configured node.
    pub fn restore_state(
        &mut self,
        d: &mut df_engine::Decoder,
    ) -> Result<(), df_engine::CodecError> {
        self.injector.restore_state(d)?;
        self.source_queue = (0..d.seq(8)?)
            .map(|_| Packet::decode(d))
            .collect::<Result<_, _>>()?;
        self.next_vc = d.usize()?;
        self.generated_phits = d.u64()?;
        self.injected_packets = d.u64()?;
        Ok(())
    }
}

/// Every compute node of the network, with the derived sets the per-cycle
/// loop walks instead of the whole population (see the module docs). The
/// rule for each set is the activity gate's: skipped work is provably a
/// no-op, iteration is in ascending node order, and the set is rebuilt from
/// the nodes on restore.
pub(crate) struct Nodes {
    nodes: Vec<Node>,
    /// Per node: upcoming ticks its injector's look-ahead proved to be
    /// failures. The generation walk counts these down — one per *tick*,
    /// not per cycle: a blocked or failed node does not tick — and touches
    /// the node itself only at 0.
    quiet_ticks: Vec<u32>,
    /// Membership flag per node of `queued_list`.
    queued_flags: Vec<bool>,
    /// Nodes whose source queue may be non-empty (sorted before use; exact
    /// at step boundaries).
    queued_list: Vec<u32>,
    /// Every injector is silent: a tick draws nothing and generates
    /// nothing, so the generation walk is skipped outright. Recomputed
    /// whenever a load changes.
    silent: bool,
}

/// Add node `idx` to the queued set (no-op if already a member). A free
/// function over the two fields so the generation walk can call it while it
/// holds the countdown slice.
#[inline]
fn mark_queued(flags: &mut [bool], list: &mut Vec<u32>, idx: usize) {
    if !flags[idx] {
        flags[idx] = true;
        list.push(idx as u32);
    }
}

impl Nodes {
    /// Wrap a freshly built or freshly restored population: no look-ahead
    /// pending anywhere, queued set and silence derived from the nodes.
    pub fn new(nodes: Vec<Node>) -> Self {
        let mut this = Nodes {
            quiet_ticks: vec![0; nodes.len()],
            queued_flags: vec![false; nodes.len()],
            queued_list: Vec::new(),
            silent: false,
            nodes,
        };
        this.rebuild_derived();
        this
    }

    fn rebuild_derived(&mut self) {
        self.quiet_ticks.fill(0);
        self.queued_flags.fill(false);
        self.queued_list.clear();
        for (idx, node) in self.nodes.iter().enumerate() {
            if node.queue_len() > 0 {
                mark_queued(&mut self.queued_flags, &mut self.queued_list, idx);
            }
        }
        self.silent = self.all_silent();
    }

    /// Whether no injector can draw or generate (full scan).
    fn all_silent(&self) -> bool {
        self.nodes.iter().all(|node| node.injector.is_silent())
    }

    /// Borrow node `idx`.
    pub fn get(&self, idx: usize) -> &Node {
        &self.nodes[idx]
    }

    /// Mutably borrow node `idx` (injection: VC round-robin, head pop).
    pub fn get_mut(&mut self, idx: usize) -> &mut Node {
        &mut self.nodes[idx]
    }

    /// Change every node's offered load (phase changes, drain). Pending
    /// look-aheads were drawn against the old load: each stream is brought
    /// to its true position first and the next tick is a real one.
    pub fn set_offered_load(&mut self, load: f64) {
        for (node, quiet) in self.nodes.iter_mut().zip(&mut self.quiet_ticks) {
            node.injector.settle(std::mem::take(quiet));
            node.set_offered_load(load);
        }
        self.silent = self.all_silent();
    }

    /// This cycle's stochastic generation: tick every node that is neither
    /// `blocked` (draining router) nor `failed` — except that a node whose
    /// look-ahead already proved this tick a failure only counts it down,
    /// and a silent population is not walked at all.
    pub fn generate(
        &mut self,
        now: Cycle,
        pattern: &TrafficPattern,
        next_packet_id: &mut u64,
        blocked: &[bool],
        failed: &[bool],
        metrics: &mut Metrics,
    ) {
        if self.silent {
            debug_assert!(
                self.all_silent(),
                "the generation walk was skipped but an injector can still draw"
            );
            return;
        }
        let walk = self.quiet_ticks.iter_mut().zip(blocked).zip(failed);
        for (idx, ((quiet, &blocked), &failed)) in walk.enumerate() {
            // nodes of a draining router, and failed nodes, generate
            // nothing (their queued packets still inject)
            if blocked || failed {
                continue;
            }
            if *quiet > 0 {
                *quiet -= 1;
                continue;
            }
            let node = &mut self.nodes[idx];
            let phits = node.generate(now, pattern, next_packet_id);
            *quiet = node.injector.look_ahead();
            if phits > 0 {
                metrics.record_generated(phits as u64);
                mark_queued(&mut self.queued_flags, &mut self.queued_list, idx);
            }
        }
    }

    /// Enqueue a task-layer packet at node `idx` (see
    /// [`Node::enqueue_task_packet`]).
    pub fn enqueue_task_packet(&mut self, idx: usize, packet: Packet) {
        self.nodes[idx].enqueue_task_packet(packet);
        mark_queued(&mut self.queued_flags, &mut self.queued_list, idx);
    }

    /// Sort the queued set for this cycle's injection pass and return how
    /// many nodes it holds; visit them with [`Nodes::queued`].
    pub fn sort_queued(&mut self) -> usize {
        self.queued_list.sort_unstable();
        self.queued_list.len()
    }

    /// The `i`-th queued node (ascending node order after
    /// [`Nodes::sort_queued`]).
    pub fn queued(&self, i: usize) -> usize {
        self.queued_list[i] as usize
    }

    /// Drop the nodes whose queue the injection pass emptied from the
    /// queued set.
    pub fn retire_drained(&mut self) {
        let (flags, nodes) = (&mut self.queued_flags, &self.nodes);
        self.queued_list.retain(|&idx| {
            let queued = nodes[idx as usize].queue_len() > 0;
            flags[idx as usize] = queued;
            queued
        });
    }

    /// Whether no node has a packet waiting (O(1); exact at step
    /// boundaries).
    pub fn all_queues_empty(&self) -> bool {
        self.queued_list.is_empty()
    }

    /// The queued set's invariant against a full scan: every node with a
    /// non-empty source queue is a member.
    pub fn queued_set_is_complete(&self) -> bool {
        self.nodes
            .iter()
            .zip(&self.queued_flags)
            .all(|(node, &queued)| queued || node.queue_len() == 0)
    }

    /// Serialise every node (see [`Node::save_state`]).
    pub fn save_state(&self, e: &mut df_engine::Encoder) {
        e.seq(self.nodes.len());
        for (node, &quiet) in self.nodes.iter().zip(&self.quiet_ticks) {
            node.save_state(e, quiet);
        }
    }

    /// Restore the state written by [`Nodes::save_state`] and rebuild the
    /// derived sets from it.
    pub fn restore_state(
        &mut self,
        d: &mut df_engine::Decoder,
    ) -> Result<(), df_engine::CodecError> {
        d.seq_exact(8, self.nodes.len(), "node count")?;
        for node in &mut self.nodes {
            node.restore_state(d)?;
        }
        self.rebuild_derived();
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
            node.generate(now, &pat, &mut id);
        }
        assert_eq!(node.queue_len(), 100);
        assert_eq!(node.generated_phits(), 100);
        assert_eq!(node.injected_packets(), 0);
        let p = node.pop_head().unwrap();
        assert_eq!(p.src, NodeId(3));
        assert_eq!(node.injected_packets(), 1);
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

    fn population(injection: InjectionKind, load: f64) -> Vec<Node> {
        (0..12)
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

    fn saved_nodes(nodes: &Nodes) -> Vec<u8> {
        let mut e = df_engine::Encoder::new();
        nodes.save_state(&mut e);
        e.into_bytes()
    }

    fn saved_twins(twins: &[Node]) -> Vec<u8> {
        let mut e = df_engine::Encoder::new();
        e.seq(twins.len());
        for twin in twins {
            twin.save_state(&mut e, 0);
        }
        e.into_bytes()
    }

    #[test]
    fn gated_walk_matches_ticking_every_node_every_cycle() {
        let pat = pattern();
        let mut nodes = Nodes::new(population(InjectionKind::Bernoulli, 0.2));
        let mut twins = population(InjectionKind::Bernoulli, 0.2);
        let (mut id, mut twin_id) = (0u64, 0u64);
        let mut metrics = Metrics::new(0, 20);
        let mut blocked = vec![false; 12];
        let failed = vec![false; 12];
        for now in 0..3_000u64 {
            // node 5 sits behind a draining router for a while (it must not
            // tick, so its look-ahead must not count down), and the load
            // changes twice — to zero and back
            blocked[5] = (500..900).contains(&now);
            if let Some(load) = [(1_000, 0.0), (1_400, 0.05)]
                .iter()
                .find_map(|&(at, load)| (at == now).then_some(load))
            {
                nodes.set_offered_load(load);
                twins.iter_mut().for_each(|t| t.set_offered_load(load));
            }
            nodes.generate(now, &pat, &mut id, &blocked, &failed, &mut metrics);
            for (idx, twin) in twins.iter_mut().enumerate() {
                if !blocked[idx] {
                    twin.generate(now, &pat, &mut twin_id);
                }
            }
            assert_eq!(saved_nodes(&nodes), saved_twins(&twins), "cycle {now}");
            assert!(nodes.queued_set_is_complete());
            // drain every other cycle through the queued set, as injection does
            if now % 2 == 0 {
                for i in 0..nodes.sort_queued() {
                    let idx = nodes.queued(i);
                    assert!(i == 0 || nodes.queued(i - 1) < idx, "ascending order");
                    assert_eq!(
                        nodes.get_mut(idx).pop_head().map(|p| p.id),
                        twins[idx].pop_head().map(|p| p.id)
                    );
                }
                nodes.retire_drained();
                assert_eq!(
                    nodes.all_queues_empty(),
                    twins.iter().all(|t| t.queue_len() == 0)
                );
            }
        }
        assert_eq!(id, twin_id);
        assert!(id > 100, "the walk generated traffic ({id} packets)");
        // a restored population rebuilds its sets from the queues
        let bytes = saved_nodes(&nodes);
        let mut restored = Nodes::new(population(InjectionKind::Bernoulli, 0.2));
        restored
            .restore_state(&mut df_engine::Decoder::new(&bytes))
            .unwrap();
        assert_eq!(saved_nodes(&restored), bytes);
        assert!(restored.queued_set_is_complete());
        assert_eq!(restored.all_queues_empty(), nodes.all_queues_empty());
    }

    #[test]
    fn silence_is_load_zero_and_not_bursty() {
        let bursty = InjectionKind::Bursty {
            mean_on: 10.0,
            mean_off: 10.0,
        };
        assert!(Nodes::new(population(InjectionKind::Bernoulli, 0.0)).silent);
        assert!(!Nodes::new(population(InjectionKind::Bernoulli, 0.1)).silent);
        assert!(!Nodes::new(population(bursty, 0.0)).silent);
        let mut nodes = Nodes::new(population(InjectionKind::Bernoulli, 0.1));
        nodes.set_offered_load(0.0);
        assert!(nodes.silent);
        nodes.set_offered_load(0.3);
        assert!(!nodes.silent);
        // task packets queue and drain through a silent population
        nodes.set_offered_load(0.0);
        let packet = Packet::new(df_model::PacketId(1), NodeId(3), NodeId(9), 8, 0);
        nodes.enqueue_task_packet(3, packet);
        assert!(!nodes.all_queues_empty());
        assert_eq!((nodes.sort_queued(), nodes.queued(0)), (1, 3));
        nodes.get_mut(3).pop_head();
        nodes.retire_drained();
        assert!(nodes.all_queues_empty());
    }
}
