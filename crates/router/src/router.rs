//! The [`Router`] object: ports, buffers, counters and allocation for one
//! Dragonfly router.
//!
//! A router's static footprint is its state, not its allocations: every
//! input VC in one flat array, port by port, every credit in a second at
//! the same offsets, every output port's own state in a third; capacities
//! come from the port class ([`Router::footprint`]).

use std::sync::OnceLock;

use df_model::{Cycle, NetworkConfig, Packet, PacketBounds, VcId};
use df_topology::{
    GatewayLiveness, GroupId, Port, PortClass, PortLayout, PortPeer, RouterId, Topology,
    TopologyParams,
};

use crate::allocator::{AllocationRequest, Allocator, Grant};
use crate::contention::ContentionCounters;
use crate::ectn::EctnState;
use crate::input::{HeadPlan, InputPort, InputVc, UnlinkedHead};
use crate::output::{OutputMut, OutputPort, OutputRef};
use crate::pb::PbState;
use crate::store::{PacketStore, SlotId};

/// Everything the simulator must do after a grant is applied: return credits
/// upstream and (for non-terminal outputs) know where the packet is heading.
#[derive(Debug, Clone)]
pub struct AppliedGrant {
    /// The grant that was applied.
    pub grant: Grant,
    /// Size of the forwarded packet in phits (credits to return upstream).
    pub freed_phits: u32,
    /// Class of the input port the packet came from; terminal inputs have no
    /// upstream router, so no credit message is generated for them.
    pub input_class: PortClass,
}

/// An input-output-buffered virtual-channel router.
#[derive(Debug, Clone)]
pub struct Router {
    id: RouterId,
    topo: TopologyParams,
    config: NetworkConfig,
    /// Every input VC, port by port in port order; each output port knows
    /// its port's range ([`OutputPort::vcs`]).
    vcs: Box<[InputVc]>,
    /// Every output port's own state.
    outputs: Box<[OutputPort]>,
    /// Every output's downstream credits, at its port's VC offsets
    /// (unused for terminal ports).
    credits: Box<[u32]>,
    /// Every packet the router buffers: each input VC queue and each output
    /// stage is a FIFO through this one slab, so the router's footprint
    /// follows its peak buffered packets rather than the queues it touched.
    store: PacketStore,
    contention: ContentionCounters,
    ectn: EctnState,
    pb: PbState,
    allocator: Allocator,
    /// Per input port, bit `v` set: input VC `v` holds a packet — the VCs
    /// the per-cycle registration and decide loops visit, so an empty VC
    /// (or port) costs nothing. Maintained by [`Router::receive_packet`] and
    /// the head unlink [`Router::discard_head`] and [`Router::apply_grant`]
    /// share; derived: rebuilt by [`Router::restore_state`].
    occupied_vcs: Box<[u64]>,
    /// Bit `p` set: `occupied_vcs[p]` is non-zero — the input ports those
    /// loops visit. Maintained and rebuilt with `occupied_vcs`.
    occupied_ports: u64,
    /// Head packets currently awaiting contention-counter registration —
    /// an O(1) guard that skips the registration scan entirely on the
    /// (common) cycles where no new head appeared.
    unregistered_count: u32,
    /// Bit `p` set: the *outgoing* direction of port `p`'s link is down
    /// (fault injection) — the one record of this end's link health. Zero
    /// in a healthy network (the O(1) fast path); the simulator flips both
    /// ends of a link when a fault event fires. A down port is never
    /// granted by the allocator and never transmits; packets staged behind
    /// it at the fault instant are dropped by the simulator
    /// ([`Router::drop_staged_for_dead_port`] — the serialisation buffer is
    /// lost with the link).
    links_down: u64,
    /// This router's (possibly stale) copy of the network-wide
    /// gateway-liveness map, refreshed by the PB/ECtN dissemination step.
    /// Pristine all-up — and never installed — for mechanisms without a
    /// dissemination channel (MIN, VAL, OLM, Base, Hybrid), which therefore
    /// keep the discover-at-gateway behaviour.
    link_view: GatewayLiveness,
    /// Bit `p` set: output `p` may hold staged packets. A *superset* of the
    /// ports that do — set wherever a packet can be staged
    /// ([`Router::apply_grant`], [`Router::output_mut`]), cleared by
    /// [`Router::transmit_outputs_into`] when it finds the stage empty — so
    /// transmission visits only these ports instead of the whole radix.
    /// Derived: rebuilt by [`Router::restore_state`].
    staged_ports: u64,
    /// The first cycle a staged packet can start on its link
    /// ([`Router::next_transmit`]; `Cycle::MAX` with nothing staged). Kept
    /// where a grant stages a packet and a transmission walks the stages,
    /// recomputed from the stages after a dead port's drop and on restore;
    /// [`Router::output_mut`], which cannot see what its caller stages,
    /// sets it to 0 until the next transmission recomputes it.
    next_transmit: Cycle,
    /// The outputs whose staged phits or credits changed since the mask was
    /// last cleared, one bit per port. PB's own-link saturation flags are a
    /// pure function of exactly that state, so the refresh recomputes only
    /// the flags of changed global ports. Derived: every port after
    /// construction and restore.
    changed_outputs: u64,
    /// The router's nonminimal global candidates, packed — built by the
    /// routing layer on the router's first global selection
    /// ([`Router::candidate_table`]), since most routers of a lightly
    /// loaded network never make one. Derived: a function of the router's
    /// position only, never in the snapshot.
    candidate_table: OnceLock<CandidateTable>,
}

/// A router's nonminimal global candidates, packed. The routing layer
/// defines the entries and their order (`df_routing::candidates`); the
/// router only keeps them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateTable {
    /// Every candidate, in the routing layer's order.
    pub links: Box<[CandidateLink]>,
    /// The range of `links` that holds every candidate the router owns
    /// itself (a selection restricted to its own links walks only this).
    pub own: std::ops::Range<usize>,
}

/// One entry of a router's [`CandidateTable`]: a nonminimal global link of
/// its group, packed into 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateLink {
    /// Group-level global link index (`0 .. a·h`).
    pub link: u32,
    /// Local index, inside the group, of the router owning the link.
    pub gateway_local: u16,
    /// Global-port offset of the link at its owner.
    pub gateway_offset: u8,
    /// Index of this router's output port that starts the path to the link.
    pub first_hop: u8,
}

/// The set bits of a port or VC mask as indices, ascending.
pub fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let p = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            p
        })
    })
}

/// The bytes one router holds ([`Router::footprint`]): the struct, and the
/// capacity of the heap buffers of each of its parts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// The [`Router`] struct itself.
    pub router: usize,
    /// Heap bytes per part: the input VCs; the output ports and credits;
    /// the allocator; the counters (contention counters, occupied-VC masks,
    /// link flags); ECtN/PB (with the gateway-liveness view and the
    /// candidate table); the packet slab.
    pub parts: [usize; 6],
    /// Heap buffers holding any capacity.
    pub buffers: usize,
}

impl Footprint {
    /// Bytes over the struct and every part.
    pub fn total(&self) -> usize {
        self.router + self.parts.iter().sum::<usize>()
    }
}

/// Widest router [`Router::new`] accepts: one bit of the staged-port set per
/// port (the paper's Table I routers have 31).
pub const MAX_RADIX: u32 = u64::BITS;

/// Most VCs per input port [`Router::new`] accepts: one bit of the port's
/// occupied-VC mask per VC (the paper's Table I ports have at most 4).
pub const MAX_VCS_PER_PORT: u32 = u64::BITS;

impl Router {
    /// Build a router for position `id` of `topo` with the given
    /// configuration. Input buffers are sized by the class of the *local*
    /// port; output credits are sized by the class/VC-count of the peer's
    /// input port at the far end of each link.
    pub fn new(id: RouterId, topo: impl Into<TopologyParams>, config: NetworkConfig) -> Self {
        let topo = topo.into();
        let layout = topo.layout();
        let radix = layout.radix();
        assert!(
            radix <= MAX_RADIX,
            "router radix {radix} exceeds the supported maximum of {MAX_RADIX} ports"
        );
        let vcs = config
            .vcs
            .injection
            .max(config.vcs.local)
            .max(config.vcs.global);
        assert!(
            u32::from(vcs) <= MAX_VCS_PER_PORT,
            "{vcs} VCs per port exceed the supported maximum of {MAX_VCS_PER_PORT}"
        );
        // The downstream buffer of an output link is the input buffer of the
        // same-class port on the peer router (links are symmetric in class),
        // except terminal ports which eject to the node: full credits.
        let mut vc_start = 0;
        let outputs: Box<[OutputPort]> = Port::all(&layout)
            .map(|port| {
                let class = port.class(&layout);
                let vcs = config.vcs_for(class);
                let output = OutputPort::new(class, vc_start, vcs, config.input_buffer_for(class));
                vc_start += usize::from(vcs);
                output
            })
            .collect();
        let mut credits = vec![0; vc_start].into_boxed_slice();
        for output in outputs.iter() {
            credits[output.credit_range()].fill(config.input_buffer_for(output.class));
        }
        let global_links = topo.global_links_per_group() as usize;
        Router {
            id,
            topo,
            config,
            vcs: vec![InputVc::EMPTY; vc_start].into_boxed_slice(),
            outputs,
            credits,
            store: PacketStore::new(),
            contention: ContentionCounters::new(radix as usize),
            ectn: EctnState::new(global_links),
            pb: PbState::new(topo.own_globals(id) as usize, global_links),
            allocator: Allocator::new(radix as usize),
            occupied_vcs: vec![0; radix as usize].into_boxed_slice(),
            occupied_ports: 0,
            unregistered_count: 0,
            links_down: 0,
            link_view: GatewayLiveness::new(&topo),
            staged_ports: 0,
            next_transmit: Cycle::MAX,
            changed_outputs: u64::MAX >> (64 - radix),
            candidate_table: OnceLock::new(),
        }
    }

    // ------------------------------------------------------------------
    // Identity and configuration
    // ------------------------------------------------------------------

    /// This router's identifier.
    pub fn id(&self) -> RouterId {
        self.id
    }

    /// The group this router belongs to.
    pub fn group(&self) -> GroupId {
        self.topo.router_group(self.id)
    }

    /// The topology the router is embedded in.
    pub fn topology(&self) -> &TopologyParams {
        &self.topo
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Number of ports (radix).
    pub fn num_ports(&self) -> usize {
        self.outputs.len()
    }

    // ------------------------------------------------------------------
    // State access
    // ------------------------------------------------------------------

    /// Contention counters (paper §III-B).
    pub fn contention(&self) -> &ContentionCounters {
        &self.contention
    }

    /// Mutable contention counters. The simulator normally updates them
    /// through [`Router::register_head`] / [`Router::apply_grant`]; direct
    /// access exists for tests and for the ablation studies that inject
    /// synthetic counter states.
    pub fn contention_mut(&mut self) -> &mut ContentionCounters {
        &mut self.contention
    }

    /// ECtN partial/combined counters (paper §III-D).
    pub fn ectn(&self) -> &EctnState {
        &self.ectn
    }

    /// Mutable ECtN state (used by the group broadcast step).
    pub fn ectn_mut(&mut self) -> &mut EctnState {
        &mut self.ectn
    }

    /// PiggyBacking saturation state.
    pub fn pb(&self) -> &PbState {
        &self.pb
    }

    /// Mutable PiggyBacking state (updated by the PB policy and the group
    /// dissemination step).
    pub fn pb_mut(&mut self) -> &mut PbState {
        &mut self.pb
    }

    /// Borrow an input port: a view of its VCs.
    #[inline]
    pub fn input(&self, port: Port) -> InputPort<'_> {
        let output = &self.outputs[port.index()];
        let (class, vcs) = (output.class, &self.vcs[output.vcs()]);
        let capacity_phits = self.config.input_buffer_for(class);
        InputPort {
            class,
            capacity_phits,
            vcs,
        }
    }

    /// Input VC `(port, vc)`.
    #[inline]
    fn vc(&self, port: Port, vc: VcId) -> &InputVc {
        &self.vcs[self.outputs[port.index()].vcs()][vc.index()]
    }

    /// Input VC `(port, vc)`, mutably.
    #[inline]
    fn vc_mut(&mut self, port: Port, vc: VcId) -> &mut InputVc {
        &mut self.vcs[self.outputs[port.index()].vcs()][vc.index()]
    }

    /// Park the routing layer's plan for the head packet of input VC
    /// `(port, vc)` (dropped when the head leaves or is mutated).
    #[inline]
    pub fn set_plan(&mut self, port: Port, vc: VcId, plan: HeadPlan) {
        self.vc_mut(port, vc).set_plan(plan);
    }

    /// Borrow an output port, with its credits.
    #[inline]
    pub fn output(&self, port: Port) -> OutputRef<'_> {
        self.outputs[port.index()].view(&self.credits, &self.config)
    }

    /// Output port `p` with its credits and the packet store, mutably, no
    /// flag touched.
    #[inline]
    fn output_at(&mut self, p: usize) -> OutputMut<'_> {
        OutputMut {
            port: &mut self.outputs[p],
            credits: &mut self.credits,
            config: &self.config,
            store: &mut self.store,
        }
    }

    /// Mutably borrow an output port, with the packet store its buffer
    /// links through. What the caller does with it is invisible from here,
    /// so the port is conservatively recorded as possibly staged, the
    /// outputs as changed and the next transmission as due now.
    pub fn output_mut(&mut self, port: Port) -> OutputMut<'_> {
        self.staged_ports |= 1 << port.index();
        self.changed_outputs |= 1 << port.index();
        self.next_transmit = 0;
        self.output_at(port.index())
    }

    /// The head packet of input VC `(port, vc)`.
    #[inline]
    pub fn head(&self, port: Port, vc: VcId) -> Option<&Packet> {
        self.vc(port, vc).head(&self.store)
    }

    /// Mutable access to the head packet of input VC `(port, vc)` (routing
    /// commits update its routing state); the change may invalidate the
    /// head's plan, so it is dropped.
    pub fn head_mut(&mut self, port: Port, vc: VcId) -> Option<&mut Packet> {
        let vcs = self.outputs[port.index()].vcs();
        self.vcs[vcs][vc.index()].head_mut(&mut self.store)
    }

    /// Slots of the router's packet store: its peak number of buffered
    /// packets since it was built or restored.
    pub fn packet_slots(&self) -> usize {
        self.store.slots()
    }

    /// The output ports whose staged phits or credits changed since
    /// [`Router::clear_changed_outputs`], one bit per port (every port of
    /// a fresh or restored router).
    #[inline]
    pub fn changed_outputs(&self) -> u64 {
        self.changed_outputs
    }

    /// Acknowledge the output changes seen so far (the PB own-flag refresh
    /// calls this once it has recomputed the flags from them).
    #[inline]
    pub fn clear_changed_outputs(&mut self) {
        self.changed_outputs = 0;
    }

    /// Total packets buffered in input VCs and output stages.
    pub fn queued_packets(&self) -> usize {
        self.store.live()
    }

    // ------------------------------------------------------------------
    // Flow control entry points (called by the simulator)
    // ------------------------------------------------------------------

    /// Whether a packet of `size_phits` can be accepted into input VC
    /// `(port, vc)`. Used for injection (nodes have no credits) and for
    /// assertions; router-to-router transfers are guaranteed by credits.
    pub fn can_accept_input(&self, port: Port, vc: VcId, size_phits: u32) -> bool {
        self.input(port).can_accept(vc.index(), size_phits)
    }

    /// Deliver a packet into input VC `(port, vc)` (link arrival or
    /// injection). Every packet has the configured size, which is what
    /// lets plans, requests and the phit ledgers take it from the
    /// configuration.
    pub fn receive_packet(&mut self, port: Port, vc: VcId, packet: Packet) {
        debug_assert_eq!(
            packet.size_phits, self.config.packet_size_phits,
            "{packet:?} is not of the configured size"
        );
        let p = port.index();
        let output = &self.outputs[p];
        let capacity = self.config.input_buffer_for(output.class);
        let input_vc = &mut self.vcs[output.vcs()][vc.index()];
        input_vc.push(&mut self.store, packet, capacity);
        if input_vc.len() == 1 {
            // the packet became a head and needs counter registration
            self.unregistered_count += 1;
        }
        self.occupied_vcs[port.index()] |= 1 << vc.index();
        self.occupied_ports |= 1 << port.index();
        debug_assert!(self.bookkeeping_is_exact(), "after receive_packet");
    }

    /// Return `phits` credits for downstream VC `vc` of output `port` (the
    /// downstream router drained a packet; arrives after the link latency).
    pub fn receive_credits(&mut self, port: Port, vc: VcId, phits: u32) {
        self.output_at(port.index()).return_credits(vc, phits);
        self.changed_outputs |= 1 << port.index();
    }

    // ------------------------------------------------------------------
    // Link state (fault injection)
    // ------------------------------------------------------------------

    /// Whether the outgoing direction of `port`'s link is usable. Always
    /// true in a healthy network; routing policies consult this to steer
    /// around failed links and the allocator refuses grants towards down
    /// ports regardless of policy.
    #[inline]
    pub fn link_is_up(&self, port: Port) -> bool {
        self.links_down & (1 << port.index()) == 0
    }

    /// Mark the outgoing direction of `port` up or down (the simulator
    /// calls it on both ends of a link when a fault event fires).
    pub fn set_link_up(&mut self, port: Port, up: bool) {
        let bit = 1 << port.index();
        if up {
            self.links_down &= !bit;
        } else {
            self.links_down |= bit;
        }
    }

    /// Whether any outgoing link of this router is currently down (O(1)).
    #[inline]
    pub fn any_link_down(&self) -> bool {
        self.links_down != 0
    }

    /// This router's (possibly stale) view of the network-wide
    /// gateway-liveness map. Pristine all-up unless the routing mechanism
    /// disseminates link state (PB, ECtN).
    #[inline]
    pub fn link_view(&self) -> &GatewayLiveness {
        &self.link_view
    }

    /// Refresh the gateway-liveness view from the published copy (one
    /// integer compare when nothing changed).
    pub fn install_link_view(&mut self, published: &GatewayLiveness) {
        self.link_view.install_from(published);
    }

    /// Drop every packet staged in the output buffer of a port whose link
    /// just failed (the link-interface serialisation buffer is lost with the
    /// link). Returns the packets with the downstream VC each had consumed
    /// credits on, so the simulator can account the drops and ledger the
    /// credits exactly like in-flight drops.
    pub fn drop_staged_for_dead_port(&mut self, port: Port) -> Vec<(Packet, VcId)> {
        debug_assert!(!self.link_is_up(port), "only dead ports lose their stage");
        self.changed_outputs |= 1 << port.index();
        let dropped = self.output_at(port.index()).drain_staged();
        self.next_transmit = self.next_transmit_from_stages().unwrap_or(Cycle::MAX);
        debug_assert!(
            self.bookkeeping_is_exact(),
            "after drop_staged_for_dead_port"
        );
        dropped
    }

    /// Remove the head packet of input VC `(port, vc)` and release what the
    /// router held for it: its counter registrations and its slot in the
    /// occupancy counters. Called directly this is the fault-routing
    /// "unroutable packet" discard — the packet leaves the network instead
    /// of entering an output buffer as in [`Router::apply_grant`], which
    /// starts with the same unlink. Returns the packet and the input class
    /// (terminal inputs generate no upstream credit return).
    ///
    /// # Panics
    /// Panics if the input VC is empty.
    pub fn discard_head(&mut self, port: Port, vc: VcId) -> (Packet, PortClass) {
        let (slot, input_class) = self.unlink_head(port, vc);
        let packet = self.store.take(slot);
        debug_assert!(self.bookkeeping_is_exact(), "after discard_head");
        (packet, input_class)
    }

    /// Unlink the head slot of input VC `(port, vc)` and release what the
    /// router held for the packet; the slot stays live for the caller to
    /// stage or take.
    fn unlink_head(&mut self, port: Port, vc: VcId) -> (SlotId, PortClass) {
        let output = &self.outputs[port.index()];
        let input_class = output.class;
        let input_vc = &mut self.vcs[output.vcs()][vc.index()];
        let UnlinkedHead {
            slot,
            registered_min_output,
            registered_ectn_link,
        } = input_vc
            .unlink_head(&mut self.store)
            .expect("input VC must hold a packet");
        if registered_min_output.is_none() {
            // the departing head was never registered (possible in direct
            // unit-test drives); it no longer needs to be
            self.unregistered_count -= 1;
        }
        if input_vc.is_empty() {
            self.occupied_vcs[port.index()] &= !(1 << vc.index());
            if self.occupied_vcs[port.index()] == 0 {
                self.occupied_ports &= !(1 << port.index());
            }
        } else {
            // a new head surfaced and awaits registration
            self.unregistered_count += 1;
        }
        if let Some(min_out) = registered_min_output {
            self.contention.decrement(min_out);
        }
        if let Some(link) = registered_ectn_link {
            self.ectn.decrement_partial(link);
        }
        (slot, input_class)
    }

    // ------------------------------------------------------------------
    // Contention / ECtN registration
    // ------------------------------------------------------------------

    /// Register the head packet of `(port, vc)`: increment the contention
    /// counter of its minimal output `min_output`, and if `ectn_link` is
    /// given (remote-destination packet at an injection or global input
    /// port), increment that ECtN partial counter as well.
    pub fn register_head(
        &mut self,
        port: Port,
        vc: VcId,
        min_output: Port,
        ectn_link: Option<u32>,
    ) {
        debug_assert!(self.unregistered_count > 0);
        self.unregistered_count -= 1;
        self.vc_mut(port, vc).register(min_output, ectn_link);
        self.contention.increment(min_output);
        if let Some(link) = ectn_link {
            self.ectn.increment_partial(link);
        }
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Whether the allocator may grant a request for downstream VC `vc` of
    /// output `port` now: the link is up and the output has buffer space and
    /// credits for `size_phits`. A down link is never granted, whatever the
    /// routing policy requested — the packet waits (and adaptive policies
    /// re-decide next cycle).
    #[inline]
    pub fn can_grant(&self, port: Port, vc: VcId, size_phits: u32) -> bool {
        self.link_is_up(port) && self.output(port).can_accept(vc, size_phits)
    }

    /// The switch allocator (its round-robin pointers).
    pub fn allocator(&self) -> &Allocator {
        &self.allocator
    }

    /// Run one iteration of the separable allocator over `requests`, each
    /// input port of which `wraps` lists with its VC-scan wrap point
    /// ([`Allocator::allocate_wrapped_into`]), checking [`Router::can_grant`].
    /// Grants are appended to the caller's reusable `grants` buffer (cleared
    /// first) — no allocation in steady state.
    pub fn allocate_into(
        &mut self,
        requests: &[AllocationRequest],
        wraps: &[(Port, usize)],
        grants: &mut Vec<Grant>,
    ) {
        let config = &self.config;
        let (links_down, outputs, credits) = (self.links_down, &self.outputs, &self.credits);
        self.allocator
            .allocate_wrapped_into(requests, wraps, grants, |port, vc, size| {
                links_down & (1 << port.index()) == 0
                    && outputs[port.index()]
                        .view(credits, config)
                        .can_accept(vc, size)
            })
    }

    /// Run one iteration of the separable allocator over `requests`, each
    /// port wrapping at its highest requesting VC (allocating convenience
    /// wrapper for the tests).
    #[cfg(test)]
    fn allocate(&mut self, requests: &[AllocationRequest]) -> Vec<Grant> {
        let (mut allocator, mut grants) = (self.allocator.clone(), Vec::new());
        allocator.allocate_into(requests, &mut grants, |p, vc, size| {
            self.can_grant(p, vc, size)
        });
        self.allocator = allocator;
        grants
    }

    /// Apply a grant: unlink the packet's slot from its input VC, release its
    /// counter registrations, update its routing state for the hop it is
    /// about to take, and link the slot onto the output buffer (consuming
    /// credits) — the packet itself does not move. Returns the bookkeeping
    /// the simulator needs (upstream credit return).
    ///
    /// # Panics
    /// Panics if the granted input VC is empty (allocator/sim bug).
    pub fn apply_grant(&mut self, grant: &Grant, now: Cycle) -> AppliedGrant {
        let (slot, input_class) = self.unlink_head(grant.input_port, grant.input_vc);
        // update routing state for the hop the packet is about to take
        let arrived_at = match self.topo.peer(self.id, grant.output_port) {
            PortPeer::Router(peer, _) => peer,
            PortPeer::Node(_) | PortPeer::Unconnected => self.id,
        };
        let packet = self.store.slot_mut(slot).packet_mut();
        packet
            .routing
            .note_hop(&self.topo, grant.output_port, arrived_at);
        let freed_phits = packet.size_phits;
        let ready_at = now + self.config.latencies.router_pipeline as Cycle;
        let p = grant.output_port.index();
        let front = self.outputs[p].staged.is_empty();
        self.output_at(p).stage(slot, grant.output_vc, ready_at);
        if front {
            // a packet behind another changes neither the front nor the link
            let at = self.outputs[p].next_transmit(&self.store);
            self.next_transmit = self.next_transmit.min(at.expect("just staged"));
        }
        self.staged_ports |= 1 << grant.output_port.index();
        self.changed_outputs |= 1 << grant.output_port.index();
        debug_assert!(self.bookkeeping_is_exact(), "after apply_grant");
        AppliedGrant {
            grant: *grant,
            freed_phits,
            input_class,
        }
    }

    /// Try to start transmission on every output port; appends, per port, the
    /// packet now occupying the link together with its downstream VC and the
    /// cycle at which its tail leaves this router (the simulator adds the
    /// link latency to schedule the remote arrival). Writes into the caller's
    /// reusable `sent` buffer — no allocation in steady state.
    ///
    /// Only the possibly-staged ports are visited, in ascending port order
    /// (an empty stage transmits nothing and has no side effect, so the
    /// other ports are exactly the ones a full scan would pass over).
    pub fn transmit_outputs_into(
        &mut self,
        now: Cycle,
        sent: &mut Vec<(Port, Packet, VcId, Cycle)>,
    ) {
        let mut next = Cycle::MAX;
        for p in set_bits(self.staged_ports) {
            // a down link transmits nothing. In a full simulation the dead
            // port's stage is drained at the fault cycle
            // ([`Router::drop_staged_for_dead_port`]); the skip remains the
            // hard guarantee for anything staged outside that path (e.g.
            // direct unit-test drives).
            if self.links_down & (1 << p) == 0 {
                if let Some((packet, vc, tail_at)) = self.output_at(p).try_transmit(now) {
                    sent.push((Port(p as u32), packet, vc, tail_at));
                    self.changed_outputs |= 1 << p;
                }
            }
            match self.outputs[p].next_transmit(&self.store) {
                Some(at) => next = next.min(at),
                None => self.staged_ports &= !(1 << p),
            }
        }
        self.next_transmit = next;
        debug_assert!(self.bookkeeping_is_exact(), "after transmit_outputs_into");
    }

    /// The first cycle a staged packet can start on its link: per output
    /// holding one, the later of its front packet's pipeline-ready cycle
    /// and the link's free cycle, minimised over the outputs (`None` with
    /// nothing staged). Before it, [`Router::transmit_outputs_into`] sends
    /// nothing; it changes only where a grant stages a packet, a
    /// transmission pops one and a dead port's stage is dropped (O(1): the
    /// router keeps it).
    #[inline]
    pub fn next_transmit(&self) -> Option<Cycle> {
        (self.next_transmit != Cycle::MAX).then_some(self.next_transmit)
    }

    /// [`Router::next_transmit`] recomputed from the stages.
    pub fn next_transmit_from_stages(&self) -> Option<Cycle> {
        set_bits(self.staged_ports)
            .filter_map(|p| self.outputs[p].next_transmit(&self.store))
            .min()
    }

    /// Try to start transmission on every output port (allocating
    /// convenience wrapper around [`Router::transmit_outputs_into`]).
    #[cfg(test)]
    fn transmit_outputs(&mut self, now: Cycle) -> Vec<(Port, Packet, VcId, Cycle)> {
        let mut sent = Vec::new();
        self.transmit_outputs_into(now, &mut sent);
        sent
    }

    /// Whether the router holds no traffic at all: every input VC empty and
    /// every output buffer drained. An idle router's allocation and
    /// transmission steps are provably no-ops (no heads to register, no
    /// requests, no staged packets), which is what lets the simulator's
    /// activity gate skip it.
    pub fn is_idle(&self) -> bool {
        self.store.live() == 0
    }

    /// Whether any head packet still awaits contention-counter registration
    /// (O(1) guard for the registration scan).
    pub fn has_unregistered_heads(&self) -> bool {
        self.unregistered_count > 0
    }

    /// The input VCs of `port` holding a packet, as a mask (bit `v`: VC
    /// `v`; O(1) — what the per-cycle loops iterate, with [`set_bits`]).
    #[inline]
    pub fn occupied_vcs(&self, port: Port) -> u64 {
        self.occupied_vcs[port.index()]
    }

    /// The input ports holding a packet, as a mask (bit `p`: port `p`; O(1)
    /// — the ports the per-cycle loops iterate, with [`set_bits`]; 0 for a
    /// router with no input head).
    #[inline]
    pub fn occupied_ports(&self) -> u64 {
        self.occupied_ports
    }

    /// The debug gate behind every mask, store and flat-array update: the
    /// occupied-VC and -port masks match the VCs; staged outputs are in the
    /// staged-port set, and the kept next-transmit cycle is no later than
    /// the stages' (equal but after [`Router::output_mut`]); the ports' VC
    /// ranges tile the flat arrays (each
    /// `(port, vc)` has a slot of its own); every FIFO's length and phits
    /// match its walk through the store and its occupancy; the store holds
    /// exactly the queued plus staged packets.
    fn bookkeeping_is_exact(&self) -> bool {
        let radix = self.num_ports();
        let masks = (0..radix).all(|p| {
            let (input, mask) = (self.input(Port(p as u32)), self.occupied_vcs[p]);
            (0..input.num_vcs()).all(|v| (mask >> v & 1 == 1) != input.vc(v).is_empty())
                && mask.checked_shr(input.num_vcs() as u32).unwrap_or(0) == 0
        });
        let ports = (self.occupied_vcs.iter().enumerate())
            .all(|(p, &mask)| (mask != 0) == (self.occupied_ports >> p & 1 == 1));
        let staged = (self.outputs.iter().enumerate())
            .all(|(p, o)| o.staged.is_empty() || self.staged_ports >> p & 1 == 1)
            && self.next_transmit <= self.next_transmit_from_stages().unwrap_or(Cycle::MAX);
        let tiled = (self.outputs.iter())
            .try_fold(0, |next, o| (o.vcs().start == next).then_some(o.vcs().end))
            == Some(self.vcs.len())
            && self.vcs.len() == self.credits.len();
        let phits = |fifo| {
            self.store
                .iter(fifo)
                .map(|s| s.packet().size_phits)
                .sum::<u32>()
        };
        let occupancy = (self.vcs.iter()).all(|vc| phits(&vc.fifo) == vc.occupancy_phits())
            && (self.outputs.iter()).all(|o| phits(&o.staged) == o.buffer_occupancy_phits);
        let fifos =
            || (self.vcs.iter().map(|vc| &vc.fifo)).chain(self.outputs.iter().map(|o| &o.staged));
        let walks = fifos().all(|fifo| self.store.iter(fifo).count() == fifo.len());
        let held: usize = fifos().map(|fifo| fifo.len()).sum();
        masks && ports && staged && tiled && occupancy && walks && self.store.live() == held
    }

    /// The router's candidate table, built by `build` the first time it is
    /// asked for (the routing layer's `candidates::candidate_table` is the
    /// only caller that builds it). A clone copies the table if it is built;
    /// a fresh or restored router starts without one.
    #[inline]
    pub fn candidate_table(&self, build: impl FnOnce() -> CandidateTable) -> &CandidateTable {
        self.candidate_table.get_or_init(build)
    }

    // ------------------------------------------------------------------
    // Derived views used by routing policies
    // ------------------------------------------------------------------

    /// Occupancy fraction (0..1) of the path behind output `port`: staged
    /// output phits plus estimated downstream occupancy, over the combined
    /// capacity. This is the credit-based congestion signal used by OLM,
    /// Hybrid and PB.
    pub fn output_congestion_fraction(&self, port: Port) -> f64 {
        let o = self.output(port);
        let cap = o.congestion_capacity_phits();
        if cap == 0 {
            return 0.0;
        }
        o.congestion_phits() as f64 / cap as f64
    }

    /// Whether output `port` can accept a packet for downstream VC `vc`.
    pub fn output_can_accept(&self, port: Port, vc: VcId, size_phits: u32) -> bool {
        self.output(port).can_accept(vc, size_phits)
    }

    /// The bytes the router holds, by part: the struct plus the capacity of
    /// every heap buffer it owns (the counter vectors never grow, so their
    /// length is their capacity).
    pub fn footprint(&self) -> Footprint {
        use std::mem::size_of_val as bytes;
        let links = 4 * self.ectn.num_links();
        let (own, group) = (self.pb.own_flags().len(), self.pb.group_links());
        let table = (self.candidate_table.get()).map_or(0, |table| bytes(&*table.links));
        let masks = bytes(&*self.occupied_vcs);
        let parts: [Vec<usize>; 6] = [
            vec![bytes(&*self.vcs)],
            vec![bytes(&*self.outputs), bytes(&*self.credits)],
            vec![self.allocator.buffer_bytes()],
            vec![4 * self.contention.len(), masks],
            [links, links, own, group, table]
                .into_iter()
                .chain(self.link_view.buffer_bytes())
                .collect(),
            vec![self.store.buffer_bytes()],
        ];
        Footprint {
            router: std::mem::size_of::<Router>(),
            parts: parts.each_ref().map(|buffers| buffers.iter().sum()),
            buffers: parts.iter().flatten().filter(|&&b| b > 0).count(),
        }
    }

    /// [`Footprint::total`] of [`Router::footprint`]: the struct plus the
    /// capacity of every heap buffer the router owns.
    pub fn heap_bytes(&self) -> usize {
        self.footprint().total()
    }

    // ------------------------------------------------------------------
    // Snapshot support
    // ------------------------------------------------------------------

    /// Serialise everything a restored router cannot rebuild from its
    /// configuration: input queues and head registrations, output stages
    /// and credits, PB's own saturation flags and the allocator's
    /// round-robin pointers. Every length is the configuration's and is not
    /// written, nor is derived state: restore recounts the occupancy
    /// counters, the contention counters and ECtN's partial array from the
    /// queues and registrations, and the simulator replays its fault plan
    /// onto the link flags, re-installs the gateway-liveness view from the
    /// router's group's flooded copy ([`Router::install_link_view`]) and
    /// ECtN's combined array from the one it stores per group. PB's group
    /// view is scratch: the next exchange rewrites it from the own flags.
    pub fn save_state(&self, e: &mut df_engine::Encoder) {
        self.vcs.iter().for_each(|vc| vc.save_state(&self.store, e));
        for p in 0..self.num_ports() {
            self.output(Port(p as u32)).save_state(&self.store, e);
        }
        self.pb.save_state(e);
        self.allocator.save_state(e);
    }

    /// Restore the state written by [`Router::save_state`] into a router
    /// of the *same* topology and configuration: the packet store is cleared
    /// first and refilled slot by slot. Occupancy, contention and ECtN
    /// partial counters are recounted from the restored queues, and ECtN's
    /// combined array is cleared for the simulator to install; the link
    /// flags are left as they are (the simulator set them).
    /// After an error the router is only fit to be dropped.
    pub fn restore_state(
        &mut self,
        d: &mut df_engine::Decoder,
    ) -> Result<(), df_engine::CodecError> {
        self.store = PacketStore::new();
        let (radix, ectn_links) = (self.num_ports(), self.ectn.num_links());
        let bounds = PacketBounds::new(&self.topo, self.config.packet_size_phits);
        for p in 0..radix {
            let output = &self.outputs[p];
            let capacity = self.config.input_buffer_for(output.class);
            for vc in &mut self.vcs[output.vcs()] {
                vc.restore_state(&mut self.store, d, capacity, (radix, ectn_links, &bounds))?;
            }
        }
        for p in 0..radix {
            self.output_at(p).restore_state(d, &bounds)?;
        }
        self.pb.restore_state(d)?;
        self.allocator.restore_state(d)?;
        // the counters count exactly the restored registrations
        self.contention = ContentionCounters::new(radix);
        self.ectn = EctnState::new(ectn_links);
        for vc in self.vcs.iter() {
            if let Some(port) = vc.registered_min_output() {
                self.contention.increment(port);
            }
            if let Some(link) = vc.registered_ectn_link() {
                self.ectn.increment_partial(link);
            }
        }
        // rebuild the derived counters and sets from the restored
        // queues/flags; a packet staged at an unconnected port could never
        // leave (routing never grants one)
        self.staged_ports = 0;
        for (p, output) in self.outputs.iter().enumerate() {
            if !output.staged.is_empty() {
                if self.topo.peer(self.id, Port(p as u32)) == PortPeer::Unconnected {
                    let what = format!("a packet staged at unconnected port {p}");
                    return Err(df_engine::CodecError::Invalid(what));
                }
                self.staged_ports |= 1 << p;
            }
        }
        self.next_transmit = self.next_transmit_from_stages().unwrap_or(Cycle::MAX);
        self.changed_outputs = u64::MAX >> (64 - self.outputs.len());
        self.unregistered_count = 0;
        self.occupied_ports = 0;
        for p in 0..radix {
            let mut mask = 0;
            for (v, vc) in self.vcs[self.outputs[p].vcs()].iter().enumerate() {
                mask |= u64::from(!vc.is_empty()) << v;
                self.unregistered_count += u32::from(vc.head_needs_registration());
            }
            self.occupied_vcs[p] = mask;
            self.occupied_ports |= u64::from(mask != 0) << p;
        }
        debug_assert!(self.bookkeeping_is_exact(), "after restore_state");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_model::{Packet, PacketId};
    use df_topology::{Dragonfly, DragonflyParams, NodeId};

    fn router() -> Router {
        let topo = Dragonfly::new(DragonflyParams::small());
        Router::new(RouterId(0), topo, NetworkConfig::fast_test())
    }

    fn packet(id: u64, dst: u32) -> Packet {
        Packet::new(PacketId(id), NodeId(0), NodeId(dst), 8, 0)
    }

    #[test]
    fn construction_matches_topology_radix() {
        let r = router();
        assert_eq!(r.num_ports(), 7); // p=2 + (a-1)=3 + h=2
        assert_eq!(r.id(), RouterId(0));
        assert_eq!(r.group(), GroupId(0));
        assert_eq!(r.queued_packets(), 0);
        // port classes
        assert_eq!(r.input(Port(0)).class(), PortClass::Terminal);
        assert_eq!(r.input(Port(2)).class(), PortClass::Local);
        assert_eq!(r.input(Port(5)).class(), PortClass::Global);
        // VC counts per class (defaults: 3 injection, 4 local, 2 global)
        assert_eq!(r.input(Port(0)).num_vcs(), 3);
        assert_eq!(r.input(Port(2)).num_vcs(), 4);
        assert_eq!(r.input(Port(5)).num_vcs(), 2);
        // global input buffers are deeper
        assert_eq!(r.input(Port(5)).capacity_phits(), 256);
        assert_eq!(r.input(Port(2)).capacity_phits(), 32);
        // output credits match the peer input buffers
        assert_eq!(r.output(Port(5)).credit_capacity(VcId(0)), 256);
        assert_eq!(r.output(Port(2)).credit_capacity(VcId(0)), 32);
        assert_eq!(
            r.output(Port(0)).num_downstream_vcs(),
            0,
            "ejection has no credits"
        );
    }

    #[test]
    fn receive_and_register_and_grant_lifecycle() {
        let mut r = router();
        let now = 0;
        // a packet arrives on local input port 2, vc 0
        r.receive_packet(Port(2), VcId(0), packet(1, 40));
        assert_eq!(r.queued_packets(), 1);
        assert!(r.has_unregistered_heads());
        assert!(r.input(Port(2)).vc(0).head_needs_registration());
        // register its minimal output (say global port 5) and an ECtN link
        r.register_head(Port(2), VcId(0), Port(5), Some(3));
        assert_eq!(r.contention().get(Port(5)), 1);
        assert_eq!(r.ectn().partial(3), 1);
        assert!(!r.has_unregistered_heads());
        // allocate it to output 5, downstream vc 0
        let req = AllocationRequest {
            input_port: Port(2),
            input_vc: VcId(0),
            output_port: Port(5),
            output_vc: VcId(0),
            size_phits: 8,
        };
        let grants = r.allocate(&[req]);
        assert_eq!(grants.len(), 1);
        let applied = r.apply_grant(&grants[0], now);
        assert_eq!(applied.freed_phits, 8);
        assert_eq!(applied.input_class, PortClass::Local);
        // counters released
        assert_eq!(r.contention().get(Port(5)), 0);
        assert_eq!(r.ectn().partial(3), 0);
        // credits consumed on the output
        assert_eq!(
            r.output(Port(5)).credits(VcId(0)),
            r.output(Port(5)).credit_capacity(VcId(0)) - 8
        );
        // the packet is staged; after the pipeline it transmits
        assert!(r.transmit_outputs(now).is_empty(), "pipeline not finished");
        let pipeline = r.config().latencies.router_pipeline as Cycle;
        let sent = r.transmit_outputs(now + pipeline);
        assert_eq!(sent.len(), 1);
        let (port, pkt, vc, tail_at) = &sent[0];
        assert_eq!(*port, Port(5));
        assert_eq!(pkt.id, PacketId(1));
        assert_eq!(*vc, VcId(0));
        assert_eq!(*tail_at, now + pipeline + 8);
        // the hop was recorded as a global hop
        assert_eq!(pkt.routing.global_hops, 1);
        assert_eq!(pkt.routing.local_hops, 0);
    }

    #[test]
    fn credits_flow_back() {
        let mut r = router();
        let cap = r.output(Port(2)).credit_capacity(VcId(1));
        r.receive_packet(Port(5), VcId(0), packet(1, 2));
        r.register_head(Port(5), VcId(0), Port(2), None);
        let req = AllocationRequest {
            input_port: Port(5),
            input_vc: VcId(0),
            output_port: Port(2),
            output_vc: VcId(1),
            size_phits: 8,
        };
        let grants = r.allocate(&[req]);
        r.apply_grant(&grants[0], 0);
        assert_eq!(r.output(Port(2)).credits(VcId(1)), cap - 8);
        r.receive_credits(Port(2), VcId(1), 8);
        assert_eq!(r.output(Port(2)).credits(VcId(1)), cap);
    }

    #[test]
    fn congestion_fraction_reflects_load() {
        let mut r = router();
        assert_eq!(r.output_congestion_fraction(Port(6)), 0.0);
        r.receive_packet(Port(2), VcId(0), packet(1, 60));
        r.register_head(Port(2), VcId(0), Port(6), None);
        let req = AllocationRequest {
            input_port: Port(2),
            input_vc: VcId(0),
            output_port: Port(6),
            output_vc: VcId(0),
            size_phits: 8,
        };
        let grants = r.allocate(&[req]);
        r.apply_grant(&grants[0], 0);
        assert!(r.output_congestion_fraction(Port(6)) > 0.0);
        assert!(r.output_can_accept(Port(6), VcId(0), 8));
    }

    #[test]
    fn allocation_respects_credit_exhaustion() {
        let mut r = router();
        // exhaust vc0 credits of local output 2 (capacity 32 = 4 packets)
        for i in 0..4 {
            r.receive_packet(Port(3), VcId(0), packet(i, 2));
            r.register_head(Port(3), VcId(0), Port(2), None);
            let req = AllocationRequest {
                input_port: Port(3),
                input_vc: VcId(0),
                output_port: Port(2),
                output_vc: VcId(0),
                size_phits: 8,
            };
            let grants = r.allocate(&[req]);
            assert_eq!(grants.len(), 1, "grant {i} should succeed");
            r.apply_grant(&grants[0], 0);
            // drain the output buffer so the output buffer is not the limit
            let _ = r.transmit_outputs(100 + i as Cycle * 20);
        }
        // the 5th packet cannot be granted: no credits left on vc0
        r.receive_packet(Port(3), VcId(0), packet(99, 2));
        r.register_head(Port(3), VcId(0), Port(2), None);
        let req = AllocationRequest {
            input_port: Port(3),
            input_vc: VcId(0),
            output_port: Port(2),
            output_vc: VcId(0),
            size_phits: 8,
        };
        assert!(r.allocate(&[req]).is_empty());
        // returning credits unblocks it
        r.receive_credits(Port(2), VcId(0), 8);
        assert_eq!(r.allocate(&[req]).len(), 1);
    }

    #[test]
    fn down_links_block_grants_and_transmission_until_restored() {
        let mut r = router();
        assert!(!r.any_link_down());
        // stage a packet towards local output 2, then fail the link
        r.receive_packet(Port(3), VcId(0), packet(1, 2));
        r.register_head(Port(3), VcId(0), Port(2), None);
        let req = AllocationRequest {
            input_port: Port(3),
            input_vc: VcId(0),
            output_port: Port(2),
            output_vc: VcId(0),
            size_phits: 8,
        };
        r.set_link_up(Port(2), false);
        assert!(!r.link_is_up(Port(2)));
        assert!(r.any_link_down());
        // the allocator refuses the down port even though credits exist
        assert!(
            r.allocate(&[req]).is_empty(),
            "down links must not be granted"
        );
        // restore and grant; then fail again before transmission
        r.set_link_up(Port(2), true);
        let grants = r.allocate(&[req]);
        assert_eq!(grants.len(), 1);
        r.apply_grant(&grants[0], 0);
        r.set_link_up(Port(2), false);
        let pipeline = r.config().latencies.router_pipeline as Cycle;
        assert!(
            r.transmit_outputs(pipeline).is_empty(),
            "staged packets wait while the link is down"
        );
        assert!(!r.is_idle(), "a blocked packet keeps the router busy");
        r.set_link_up(Port(2), true);
        assert!(!r.any_link_down());
        let sent = r.transmit_outputs(pipeline + 1);
        assert_eq!(sent.len(), 1, "restored links resume transmission");
    }

    #[test]
    fn set_link_up_is_idempotent() {
        let mut r = router();
        r.set_link_up(Port(5), false);
        r.set_link_up(Port(5), false);
        assert!(r.any_link_down());
        r.set_link_up(Port(5), true);
        assert!(
            !r.any_link_down(),
            "repeated sets must not corrupt the counter"
        );
    }

    #[test]
    fn occupied_vcs_mark_the_queued_vcs_only() {
        let mut r = router();
        let layout = r.topology().layout();
        assert!(Port::all(&layout).all(|p| r.occupied_vcs(p) == 0));
        r.receive_packet(Port(0), VcId(1), packet(1, 9));
        r.receive_packet(Port(0), VcId(1), packet(2, 9));
        r.receive_packet(Port(2), VcId(3), packet(3, 9));
        let marked = |r: &Router| -> Vec<(Port, Vec<usize>)> {
            Port::all(&layout)
                .map(|p| (p, set_bits(r.occupied_vcs(p)).collect::<Vec<_>>()))
                .filter(|(_, vcs)| !vcs.is_empty())
                .collect()
        };
        assert_eq!(marked(&r), [(Port(0), vec![1]), (Port(2), vec![3])]);
        // a VC stays marked until its last packet leaves
        r.discard_head(Port(0), VcId(1));
        assert_eq!(marked(&r), [(Port(0), vec![1]), (Port(2), vec![3])]);
        r.discard_head(Port(0), VcId(1));
        assert_eq!(marked(&r), [(Port(2), vec![3])]);
        // derived: a restored router rebuilds the masks from its queues
        let mut e = df_engine::Encoder::new();
        r.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut restored = router();
        restored
            .restore_state(&mut df_engine::Decoder::new(&bytes))
            .unwrap();
        assert_eq!(marked(&restored), [(Port(2), vec![3])]);
    }

    #[test]
    #[should_panic(expected = "65 VCs per port exceed the supported maximum of 64")]
    fn routers_refuse_more_vcs_than_the_mask_holds() {
        let mut config = NetworkConfig::fast_test();
        config.vcs.local = 65;
        Router::new(
            RouterId(0),
            Dragonfly::new(DragonflyParams::small()),
            config,
        );
    }

    #[test]
    fn packets_staged_through_output_mut_are_transmitted() {
        // staging straight into an output port (no grant) is a public path:
        // the staged-port set must pick it up for transmission and idleness
        let mut r = router();
        assert!(r.is_idle());
        r.output_mut(Port(5)).accept(packet(1, 40), VcId(0), 0);
        r.output_mut(Port(2)).accept(packet(2, 2), VcId(1), 0);
        assert!(
            !r.is_idle(),
            "a directly staged packet keeps the router busy"
        );
        let sent = r.transmit_outputs(0);
        assert_eq!(
            sent.iter()
                .map(|(port, p, ..)| (*port, p.id))
                .collect::<Vec<_>>(),
            [(Port(2), PacketId(2)), (Port(5), PacketId(1))],
            "both stages transmit, in ascending port order"
        );
        assert!(r.is_idle());
        assert!(r.transmit_outputs(100).is_empty());
    }

    #[test]
    fn staged_port_set_follows_grants_and_survives_restore() {
        let mut r = router();
        r.receive_packet(Port(3), VcId(0), packet(1, 2));
        r.register_head(Port(3), VcId(0), Port(2), None);
        let req = AllocationRequest {
            input_port: Port(3),
            input_vc: VcId(0),
            output_port: Port(2),
            output_vc: VcId(0),
            size_phits: 8,
        };
        let grants = r.allocate(&[req]);
        r.apply_grant(&grants[0], 0);
        assert!(!r.is_idle(), "the granted packet sits in the output stage");
        // a restored router rebuilds the set from its stages
        let mut e = df_engine::Encoder::new();
        r.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut restored = router();
        restored
            .restore_state(&mut df_engine::Decoder::new(&bytes))
            .unwrap();
        assert_eq!(
            restored.changed_outputs(),
            u64::MAX >> (64 - restored.num_ports()),
            "restored routers start dirty"
        );
        assert!(!restored.is_idle());
        let pipeline = r.config().latencies.router_pipeline as Cycle;
        assert_eq!(restored.transmit_outputs(pipeline).len(), 1);
        assert!(restored.is_idle());
    }

    #[test]
    fn changed_outputs_track_every_output_mutation() {
        let mut r = router();
        let all = u64::MAX >> (64 - r.num_ports());
        assert_eq!(r.changed_outputs(), all, "fresh routers start dirty");
        let settle = |r: &mut Router| {
            r.clear_changed_outputs();
            assert_eq!(r.changed_outputs(), 0);
        };
        settle(&mut r);
        // receiving a packet touches no output
        r.receive_packet(Port(3), VcId(0), packet(1, 2));
        r.register_head(Port(3), VcId(0), Port(2), None);
        assert_eq!(r.changed_outputs(), 0);
        let req = AllocationRequest {
            input_port: Port(3),
            input_vc: VcId(0),
            output_port: Port(2),
            output_vc: VcId(0),
            size_phits: 8,
        };
        let grants = r.allocate(&[req]);
        assert_eq!(r.changed_outputs(), 0, "allocation alone stages nothing");
        r.apply_grant(&grants[0], 0);
        assert_eq!(
            r.changed_outputs(),
            1 << 2,
            "a grant stages phits and takes credits"
        );
        settle(&mut r);
        assert!(r.transmit_outputs(0).is_empty());
        assert_eq!(r.changed_outputs(), 0, "a transmission that sends nothing");
        let pipeline = r.config().latencies.router_pipeline as Cycle;
        assert_eq!(r.transmit_outputs(pipeline).len(), 1);
        assert_eq!(
            r.changed_outputs(),
            1 << 2,
            "a transmission drains staged phits"
        );
        settle(&mut r);
        r.receive_credits(Port(2), VcId(0), 8);
        assert_eq!(r.changed_outputs(), 1 << 2, "returned credits");
        settle(&mut r);
        let _ = r.output_mut(Port(5));
        assert_eq!(
            r.changed_outputs(),
            1 << 5,
            "a mutable borrow may change anything"
        );
        settle(&mut r);
        r.set_link_up(Port(5), false);
        r.drop_staged_for_dead_port(Port(5));
        assert_eq!(r.changed_outputs(), 1 << 5, "a dropped stage");
    }

    /// The kept next-transmit cycle through grants (a packet behind another
    /// leaves it alone), sends (the link busy for the packet's phits), a
    /// dead port's drop and a restore, always equal to the stages'.
    #[test]
    fn next_transmit_follows_grants_sends_drops_and_restore() {
        let mut r = router();
        let pipeline = r.config().latencies.router_pipeline as Cycle;
        let exact = |r: &Router, at: Option<Cycle>| {
            assert_eq!(r.next_transmit(), at);
            assert_eq!(r.next_transmit_from_stages(), at);
        };
        exact(&r, None);
        for (id, now, port) in [(1, 10, 2), (2, 11, 2), (3, 12, 5)] {
            r.receive_packet(Port(3), VcId(0), packet(id, 2));
            r.register_head(Port(3), VcId(0), Port(port), None);
            r.apply_grant(&grant(Port(3), VcId(0), Port(port), VcId(0)), now);
            exact(&r, Some(10 + pipeline));
        }
        // port 2 sends its front; its second packet waits for the link
        assert_eq!(r.transmit_outputs(10 + pipeline).len(), 1);
        exact(&r, Some(12 + pipeline));
        let mut e = df_engine::Encoder::new();
        r.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut restored = router();
        restored
            .restore_state(&mut df_engine::Decoder::new(&bytes))
            .unwrap();
        exact(&restored, Some(12 + pipeline));
        r.set_link_up(Port(5), false);
        r.drop_staged_for_dead_port(Port(5));
        exact(&r, Some(10 + pipeline + 8));
        assert_eq!(r.transmit_outputs(10 + pipeline + 8).len(), 1);
        exact(&r, None);
    }

    fn grant(input_port: Port, input_vc: VcId, output_port: Port, output_vc: VcId) -> Grant {
        Grant {
            input_port,
            input_vc,
            output_port,
            output_vc,
            size_phits: 8,
        }
    }

    #[test]
    fn a_packet_through_each_of_a_paper_routers_vcs_in_turn_needs_one_slot() {
        let topo = Dragonfly::new(DragonflyParams::paper_table1());
        let mut r = Router::new(RouterId(0), topo, NetworkConfig::paper_table1());
        let layout = topo.layout();
        let vcs: Vec<(Port, VcId)> = Port::all(&layout)
            .flat_map(|port| (0..r.input(port).num_vcs() as u8).map(move |v| (port, VcId(v))))
            .collect();
        assert_eq!(vcs.len(), 100);
        let pipeline = r.config().latencies.router_pipeline as Cycle;
        for (i, &(port, vc)) in vcs.iter().enumerate() {
            let now = 100 * i as Cycle;
            r.receive_packet(port, vc, packet(i as u64, 900));
            assert_eq!(r.head(port, vc).map(|p| p.id), Some(PacketId(i as u64)));
            r.apply_grant(&grant(port, vc, Port(0), VcId(0)), now);
            let sent = r.transmit_outputs(now + pipeline);
            assert_eq!(sent.len(), 1, "{port:?} {vc:?}");
        }
        assert!(r.is_idle());
        assert_eq!(r.packet_slots(), 1, "every VC reused the one slot");
    }

    #[test]
    fn restoring_the_same_bytes_twice_leaks_no_slot() {
        let mut r = router();
        for i in 0..3 {
            r.receive_packet(Port(3), VcId(0), packet(i, 2));
            r.receive_packet(Port(5), VcId(1), packet(10 + i, 40));
        }
        r.register_head(Port(3), VcId(0), Port(2), None);
        r.apply_grant(&grant(Port(3), VcId(0), Port(2), VcId(1)), 0);
        r.head_mut(Port(5), VcId(1)).unwrap().routing.local_hops = 1;
        let save = |r: &Router| {
            let mut e = df_engine::Encoder::new();
            r.save_state(&mut e);
            e.into_bytes()
        };
        let bytes = save(&r);
        // a router that buffered more than the snapshot holds
        let mut restored = r.clone();
        for i in 0..4 {
            restored.receive_packet(Port(4), VcId(i), packet(20 + i as u64, 2));
        }
        for _ in 0..2 {
            restored
                .restore_state(&mut df_engine::Decoder::new(&bytes))
                .unwrap();
            assert_eq!(save(&restored), bytes);
            assert_eq!(restored.packet_slots(), 6, "one slot per restored packet");
            assert_eq!(restored.queued_packets(), 6);
        }
        assert_eq!(
            restored
                .head(Port(5), VcId(1))
                .map(|p| (p.id, p.routing.local_hops)),
            Some((PacketId(10), 1))
        );
    }

    /// The snapshot of a small router whose head at `(3, vc 0)` is
    /// registered against output `min_output` and ECtN link `ectn_link`.
    fn registered_snapshot(min_output: u32, ectn_link: u32) -> Vec<u8> {
        let mut r = router();
        r.receive_packet(Port(3), VcId(0), packet(1, 40));
        r.register_head(Port(3), VcId(0), Port(min_output), Some(ectn_link));
        let mut e = df_engine::Encoder::new();
        r.save_state(&mut e);
        e.into_bytes()
    }

    /// The first byte where `a` and `b` differ: for two registrations it is
    /// the registration's low byte (a snapshot stores no counter).
    fn first_differing_byte(a: &[u8], b: &[u8]) -> usize {
        assert_eq!(a.len(), b.len());
        (0..a.len())
            .find(|&i| a[i] != b[i])
            .expect("the snapshots differ")
    }

    /// Restoring `bytes` fails with an `Invalid` error whose message holds
    /// `reason`.
    fn assert_invalid(reason: &str, bytes: &[u8]) {
        let result = router().restore_state(&mut df_engine::Decoder::new(bytes));
        assert!(
            matches!(&result, Err(df_engine::CodecError::Invalid(m)) if m.contains(reason)),
            "{reason}: {result:?}"
        );
    }

    /// A registration outside the router used to restore `Ok` and panic at
    /// the head's next release; it is a typed error now. The counters are
    /// recounted from the registrations, not read.
    #[test]
    fn forged_registrations_and_counters_are_typed_errors() {
        let bytes = registered_snapshot(6, 3);
        let mut restored = router();
        restored
            .restore_state(&mut df_engine::Decoder::new(&bytes))
            .expect("a router restores its own snapshot");
        assert_eq!(restored.contention().get(Port(6)), 1);
        assert_eq!(restored.ectn().partial(3), 1);
        restored.discard_head(Port(3), VcId(0));

        let port_byte = first_differing_byte(&bytes, &registered_snapshot(5, 3));
        let mut forged = bytes.clone();
        forged[port_byte] = 200;
        assert_invalid("registration Some(200)/Some(3) outside", &forged);
        forged[port_byte] = 7;
        assert_invalid("registration Some(7)/Some(3) outside", &forged);

        let links = router().ectn().num_links() as u8;
        let link_byte = first_differing_byte(&bytes, &registered_snapshot(6, 4));
        let mut forged = bytes.clone();
        forged[link_byte] = links;
        assert_invalid(
            &format!("registration Some(6)/Some({links}) outside"),
            &forged,
        );
    }

    /// Every port's VCs are one contiguous range of the flat array, of its
    /// class's count and depth, in port order; an output's credits sit at
    /// its port's VC offsets, but for a terminal port, which takes none.
    #[test]
    fn the_flat_arrays_tile_port_by_port() {
        let topo = Dragonfly::new(DragonflyParams::paper_table1());
        let config = NetworkConfig::paper_table1();
        let r = Router::new(RouterId(0), topo, config);
        let (mut next, mut credits) = (0, 0);
        for port in Port::all(&topo.layout()) {
            let (input, output) = (r.input(port), &r.outputs[port.index()]);
            let class = port.class(&topo.layout());
            assert_eq!((input.class(), output.class), (class, class));
            assert_eq!(
                output.vcs(),
                next..next + usize::from(config.vcs_for(class))
            );
            assert_eq!(input.capacity_phits(), config.input_buffer_for(class));
            next = output.vcs().end;
            let expected = if class == PortClass::Terminal {
                0..0
            } else {
                output.vcs()
            };
            assert_eq!(output.credit_range(), expected, "{port:?}");
            credits += r.output(port).num_downstream_vcs();
        }
        assert_eq!(
            (next, r.vcs.len(), r.credits.len(), credits),
            (100, 100, 100, 76)
        );
    }

    #[test]
    fn the_footprint_counts_every_buffer_once() {
        let mut r = router();
        let fresh = r.footprint();
        assert_eq!(fresh.router, std::mem::size_of::<Router>());
        let [input_vcs, outputs, _, _, _, slab] = fresh.parts;
        assert_eq!(input_vcs, 22 * std::mem::size_of::<InputVc>());
        assert_eq!(
            outputs,
            7 * std::mem::size_of::<OutputPort>() + 22 * 4,
            "the outputs and a credit slot per VC"
        );
        assert_eq!((slab, fresh.buffers), (0, 10), "{fresh:?}");
        assert_eq!(r.heap_bytes(), fresh.total());
        r.receive_packet(Port(3), VcId(0), packet(1, 40));
        let busy = r.footprint();
        assert!(busy.parts[5] > 0 && busy.buffers == 11, "{busy:?}");
        assert_eq!(busy.total() - fresh.total(), busy.parts[5]);
    }
}
