//! Output ports: output buffers, credit-based flow control and link
//! serialisation.
//!
//! Credits model the free space of the *downstream* input buffer, per
//! downstream VC. They are consumed when a packet is granted the output
//! (guaranteeing it will fit) and returned by the simulator when the
//! downstream router removes the packet from its input buffer, delayed by the
//! link latency — which reproduces the in-flight-credit uncertainty the paper
//! discusses in §II-B.
//!
//! An [`OutputPort`] is the 32 bytes of state one port owns, including
//! where its port's VCs sit in the router's flat per-VC arrays; its credits
//! sit in the router's credit array at those offsets and its capacities
//! follow from its class. [`OutputRef`] and [`OutputMut`] are the borrowed
//! views that put the three together.

use std::ops::Range;

use df_model::{Cycle, NetworkConfig, Packet, PacketBounds, VcId};
use df_topology::PortClass;

use crate::store::{Fifo, PacketStore, SlotId};

/// The state one output port owns.
#[derive(Debug, Clone)]
pub struct OutputPort {
    /// Output buffer (staging between crossbar and link): a FIFO through
    /// the router's packet store, each slot carrying its downstream VC and
    /// pipeline-ready cycle.
    pub(crate) staged: Fifo,
    pub(crate) buffer_occupancy_phits: u32,
    /// Running sum of the port's credits (kept by staging, credit returns
    /// and restore), so the occupancy reads of the credit triggers are O(1).
    credits_total: u32,
    /// Cycle at which the link becomes free for the next packet.
    link_free_at: Cycle,
    /// Offset of the port's first VC in the router's flat per-VC arrays.
    vc_start: u16,
    /// The port's VCs (those of its class).
    vcs: u8,
    pub(crate) class: PortClass,
}

impl OutputPort {
    /// An idle port of `class` with `vcs` VCs from offset `vc_start` of the
    /// router's per-VC arrays, its credits full at `capacity` (none for a
    /// terminal port, which models an always-ready ejection channel).
    pub(crate) fn new(class: PortClass, vc_start: usize, vcs: u8, capacity: u32) -> Self {
        let credit_vcs = u32::from(vcs) * u32::from(class != PortClass::Terminal);
        OutputPort {
            staged: Fifo::EMPTY,
            buffer_occupancy_phits: 0,
            credits_total: capacity * credit_vcs,
            link_free_at: 0,
            vc_start: u16::try_from(vc_start).expect("a router has below MAX_RADIX² VCs"),
            vcs,
            class,
        }
    }

    /// The offsets of the port's input VCs in the router's VC array.
    #[inline]
    pub(crate) fn vcs(&self) -> Range<usize> {
        let start = usize::from(self.vc_start);
        start..start + usize::from(self.vcs)
    }

    /// The offsets of the port's credits in the router's credit array: its
    /// VC offsets, none for a terminal port.
    #[inline]
    pub(crate) fn credit_range(&self) -> Range<usize> {
        match self.class {
            PortClass::Terminal => 0..0,
            PortClass::Local | PortClass::Global => self.vcs(),
        }
    }

    /// The first cycle the port's front staged packet can start on the
    /// link: the later of its pipeline-ready cycle and the link's free
    /// cycle (`None` with nothing staged). [`OutputMut::try_transmit`]
    /// sends exactly when this has come.
    #[inline]
    pub(crate) fn next_transmit(&self, store: &PacketStore) -> Option<Cycle> {
        let front = store.front(&self.staged)?;
        Some(front.ready_at.max(self.link_free_at))
    }

    /// The port with its part of `credits`, the router's credit array, and
    /// its capacities under `cfg`.
    #[inline]
    pub(crate) fn view<'a>(&'a self, credits: &'a [u32], cfg: &'a NetworkConfig) -> OutputRef<'a> {
        let credits = &credits[self.credit_range()];
        OutputRef {
            port: self,
            credits,
            config: cfg,
        }
    }
}

/// One output port of a router, read-only: its state, its credits (one per
/// downstream VC; none for a terminal port, which models an always-ready
/// ejection channel) and the configuration its capacities come from.
#[derive(Debug, Clone, Copy)]
pub struct OutputRef<'a> {
    pub(crate) port: &'a OutputPort,
    pub(crate) credits: &'a [u32],
    pub(crate) config: &'a NetworkConfig,
}

impl OutputRef<'_> {
    /// Number of downstream VCs tracked by credits (0 for terminal ports).
    pub fn num_downstream_vcs(&self) -> usize {
        self.credits.len()
    }

    /// Free credits (phits) for a downstream VC.
    pub fn credits(&self, vc: VcId) -> u32 {
        self.credits[vc.index()]
    }

    /// Maximum credits (downstream buffer capacity) for a VC.
    ///
    /// # Panics
    /// Panics if the port has no downstream VC `vc`.
    pub fn credit_capacity(&self, vc: VcId) -> u32 {
        assert!(vc.index() < self.credits.len(), "no downstream {vc}");
        self.config.input_buffer_for(self.port.class)
    }

    /// Total free credits across downstream VCs.
    pub(crate) fn total_credits(&self) -> u32 {
        debug_assert_eq!(self.port.credits_total, self.credits.iter().sum::<u32>());
        self.port.credits_total
    }

    /// Total downstream capacity across VCs.
    pub fn total_credit_capacity(&self) -> u32 {
        self.config.input_buffer_for(self.port.class) * self.credits.len() as u32
    }

    /// Occupancy of the output buffer in phits.
    pub fn buffer_occupancy_phits(&self) -> u32 {
        self.port.buffer_occupancy_phits
    }

    /// Capacity of the output buffer in phits.
    pub fn buffer_capacity_phits(&self) -> u32 {
        self.config.buffers.output_buffer
    }

    /// Free space in the output buffer.
    pub(crate) fn buffer_free_phits(&self) -> u32 {
        self.buffer_capacity_phits() - self.port.buffer_occupancy_phits
    }

    /// Number of packets staged in the output buffer.
    pub fn staged_packets(&self) -> usize {
        self.port.staged.len()
    }

    /// Downstream occupancy estimate in phits: the phits we know are either
    /// in flight or sitting in the downstream buffer (capacity minus
    /// credits). This is the "credit count" view a real router has, including
    /// its in-flight uncertainty.
    pub fn downstream_occupancy_phits(&self) -> u32 {
        self.total_credit_capacity() - self.total_credits()
    }

    /// The occupancy metric used by credit-based misrouting triggers (OLM,
    /// Hybrid, PB): staged output phits plus estimated downstream occupancy.
    pub(crate) fn congestion_phits(&self) -> u32 {
        self.port.buffer_occupancy_phits + self.downstream_occupancy_phits()
    }

    /// The corresponding capacity, for relative (percentage) thresholds.
    pub(crate) fn congestion_capacity_phits(&self) -> u32 {
        self.buffer_capacity_phits() + self.total_credit_capacity()
    }

    /// Whether a packet of `size_phits` destined to downstream VC `vc` can be
    /// granted this output right now: the output buffer has room and (for
    /// non-terminal ports) enough credits exist for that VC.
    #[inline]
    pub fn can_accept(&self, vc: VcId, size_phits: u32) -> bool {
        if self.buffer_free_phits() < size_phits {
            return false;
        }
        if self.port.class == PortClass::Terminal {
            return true;
        }
        self.credits
            .get(vc.index())
            .is_some_and(|&c| c >= size_phits)
    }

    /// Cycle at which the link next becomes idle.
    pub fn link_free_at(&self) -> Cycle {
        self.port.link_free_at
    }

    /// Serialise the persistent state of this port: per-VC credits, staged
    /// packets (with downstream VC and pipeline-ready cycle) and the link
    /// busy horizon. Capacities, class and VC count are configuration and
    /// are not written.
    pub(crate) fn save_state(&self, store: &PacketStore, e: &mut df_engine::Encoder) {
        for &c in self.credits {
            e.u32(c);
        }
        e.seq(self.staged_packets());
        for s in store.iter(&self.port.staged) {
            s.packet().encode(e);
            e.u8(s.dst_vc.0);
            e.u64(s.ready_at);
        }
        e.u64(self.port.link_free_at);
    }
}

/// Mutable access to one output port of a router: its state, the router's
/// credit array, the configuration and the packet store its buffer links
/// through ([`Router::output_mut`](crate::Router::output_mut)).
#[derive(Debug)]
pub struct OutputMut<'a> {
    pub(crate) port: &'a mut OutputPort,
    pub(crate) credits: &'a mut [u32],
    pub(crate) config: &'a NetworkConfig,
    pub(crate) store: &'a mut PacketStore,
}

impl OutputMut<'_> {
    /// The port read-only.
    #[inline]
    pub(crate) fn view(&self) -> OutputRef<'_> {
        self.port.view(self.credits, self.config)
    }

    /// [`OutputRef::can_accept`]-checked staging of `packet` for
    /// downstream VC `dst_vc`, ready for the link at `ready_at`; consumes
    /// credits for non-terminal ports.
    ///
    /// # Panics
    /// Panics if the port cannot accept the packet.
    pub fn accept(&mut self, packet: Packet, dst_vc: VcId, ready_at: Cycle) {
        let slot = self.store.insert(packet);
        self.stage(slot, dst_vc, ready_at)
    }

    /// Link the unlinked live slot `slot` of the store at the tail of the
    /// output buffer, for downstream VC `dst_vc`. Consumes credits for
    /// non-terminal ports. `ready_at` is when the router pipeline finishes.
    ///
    /// # Panics
    /// Panics if [`can_accept`](OutputRef::can_accept) would have returned
    /// false — the allocator must check before granting.
    pub(crate) fn stage(&mut self, slot: SlotId, dst_vc: VcId, ready_at: Cycle) {
        let size_phits = self.store.slot(slot).packet().size_phits;
        assert!(
            self.view().can_accept(dst_vc, size_phits),
            "output port cannot accept packet (allocator bug)"
        );
        self.port.buffer_occupancy_phits += size_phits;
        if self.port.class != PortClass::Terminal {
            self.credits[self.port.credit_range()][dst_vc.index()] -= size_phits;
            self.port.credits_total -= size_phits;
        }
        let staged = self.store.slot_mut(slot);
        (staged.dst_vc, staged.ready_at) = (dst_vc, ready_at);
        self.store.link_back(&mut self.port.staged, slot);
    }

    /// Return credits for `phits` on downstream VC `vc` (called when the
    /// downstream router drains the packet, after the credit propagation
    /// delay).
    ///
    /// # Panics
    /// Panics if credits would exceed the downstream capacity (double
    /// return).
    pub(crate) fn return_credits(&mut self, vc: VcId, phits: u32) {
        let capacity = self.config.input_buffer_for(self.port.class);
        self.port.credits_total += phits;
        let c = &mut self.credits[self.port.credit_range()][vc.index()];
        *c += phits;
        assert!(
            *c <= capacity,
            "credit overflow on vc {vc}: {c} > {capacity} (double credit return)"
        );
    }

    /// If the head-of-buffer packet has cleared the pipeline and the link is
    /// free at `now`, start its transmission: the packet leaves the output
    /// buffer, the link is busy for `size_phits` cycles (1 phit/cycle
    /// serialisation) and the packet is returned with its downstream VC and
    /// the cycle its tail leaves, so the caller can schedule its arrival
    /// `link_latency` cycles after serialisation completes.
    pub fn try_transmit(&mut self, now: Cycle) -> Option<(Packet, VcId, Cycle)> {
        if self.port.link_free_at > now || self.store.front(&self.port.staged)?.ready_at > now {
            return None;
        }
        let (packet, dst_vc) = self.pop().expect("checked non-empty");
        self.port.link_free_at = now + packet.size_phits as Cycle;
        Some((packet, dst_vc, self.port.link_free_at))
    }

    /// Move the head-of-buffer packet out of the store, with its downstream
    /// VC.
    fn pop(&mut self) -> Option<(Packet, VcId)> {
        let slot = self.store.unlink_front(&mut self.port.staged)?;
        let dst_vc = self.store.slot(slot).dst_vc;
        let packet = self.store.take(slot);
        self.port.buffer_occupancy_phits -= packet.size_phits;
        Some((packet, dst_vc))
    }

    /// Remove every staged packet from the buffer and return them with the
    /// downstream VC each had been granted (fault injection: the link died,
    /// its serialisation buffer is lost with it). The credits the packets
    /// consumed are deliberately *not* restored here — the caller ledgers
    /// them exactly like an in-flight drop, so `LinkUp` returns them.
    pub(crate) fn drain_staged(&mut self) -> Vec<(Packet, VcId)> {
        std::iter::from_fn(|| self.pop()).collect()
    }

    /// Restore the state written by [`OutputRef::save_state`], refilling
    /// the staged packets into the store (emptied by the caller). Buffer
    /// occupancy is recomputed from the staged packets; credits must not
    /// exceed the capacity, a staged packet's downstream VC must exist
    /// (a terminal port ejects on VC 0) and the packet fit `bounds`.
    pub(crate) fn restore_state(
        &mut self,
        d: &mut df_engine::Decoder,
        bounds: &PacketBounds,
    ) -> Result<(), df_engine::CodecError> {
        let invalid = |what: String| Err(df_engine::CodecError::Invalid(what));
        let capacity = self.config.input_buffer_for(self.port.class);
        let buffer = self.config.buffers.output_buffer;
        let n = self.port.credit_range().len();
        let mut credits_total = 0;
        for (i, credit) in self.credits[self.port.credit_range()]
            .iter_mut()
            .enumerate()
        {
            let c = d.u32()?;
            if c > capacity {
                return invalid(format!(
                    "restored credits {c} exceed capacity {capacity} on vc {i}"
                ));
            }
            (*credit, credits_total) = (c, credits_total + c);
        }
        self.port.staged = Fifo::EMPTY;
        self.port.credits_total = credits_total;
        let mut occupancy = 0u64;
        for _ in 0..d.seq(8)? {
            let packet = Packet::decode(d, bounds)?;
            occupancy += packet.size_phits as u64;
            let slot = self.store.push_back(&mut self.port.staged, packet);
            let (dst_vc, ready_at) = (VcId(d.u8()?), d.u64()?);
            if dst_vc.index() >= n.max(1) {
                return invalid(format!("staged packet for {dst_vc} of a {n}-VC port"));
            }
            let staged = self.store.slot_mut(slot);
            (staged.dst_vc, staged.ready_at) = (dst_vc, ready_at);
        }
        if occupancy > buffer as u64 {
            return invalid(format!(
                "output buffer occupancy {occupancy} exceeds capacity {buffer}"
            ));
        }
        self.port.buffer_occupancy_phits = occupancy as u32;
        self.port.link_free_at = d.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_model::PacketId;
    use df_topology::{Dragonfly, DragonflyParams, NodeId};

    fn packet(id: u64, size: u32) -> Packet {
        Packet::new(PacketId(id), NodeId(0), NodeId(5), size, 0)
    }

    /// A port with credits, a configuration and a store of its own,
    /// staged and drained through the views a router hands out.
    struct Staged {
        port: OutputPort,
        credits: Vec<u32>,
        config: NetworkConfig,
        store: PacketStore,
    }

    impl Staged {
        fn new(class: PortClass, vcs: u8, capacity: u32, buffer: u32) -> Self {
            let mut config = NetworkConfig::fast_test();
            config.buffers.local_input_per_vc = capacity;
            config.buffers.global_input_per_vc = capacity;
            config.buffers.output_buffer = buffer;
            Staged {
                port: OutputPort::new(class, 0, vcs, capacity),
                credits: vec![capacity; usize::from(vcs)],
                config,
                store: PacketStore::new(),
            }
        }

        fn guard(&mut self) -> OutputMut<'_> {
            OutputMut {
                port: &mut self.port,
                credits: &mut self.credits,
                config: &self.config,
                store: &mut self.store,
            }
        }

        fn view(&self) -> OutputRef<'_> {
            self.port.view(&self.credits, &self.config)
        }

        fn accept(&mut self, packet: Packet, dst_vc: VcId, ready_at: Cycle) {
            self.guard().accept(packet, dst_vc, ready_at)
        }

        fn try_transmit(&mut self, now: Cycle) -> Option<(Packet, VcId, Cycle)> {
            self.guard().try_transmit(now)
        }

        fn return_credits(&mut self, vc: VcId, phits: u32) {
            self.guard().return_credits(vc, phits)
        }
    }

    fn port() -> Staged {
        // local-like: 4 downstream VCs of 32 phits, 32-phit output buffer
        Staged::new(PortClass::Local, 4, 32, 32)
    }

    #[test]
    fn a_port_is_its_state_only() {
        assert!(std::mem::size_of::<OutputPort>() <= 32);
    }

    #[test]
    fn fresh_port_has_full_credits() {
        let p = port();
        let p = p.view();
        assert_eq!(p.total_credits(), 128);
        assert_eq!(p.credits(VcId(0)), 32);
        assert_eq!(p.credit_capacity(VcId(3)), 32);
        assert_eq!(p.buffer_free_phits(), 32);
        assert_eq!(p.downstream_occupancy_phits(), 0);
        assert_eq!(p.congestion_phits(), 0);
        assert_eq!(p.congestion_capacity_phits(), 32 + 128);
    }

    #[test]
    #[should_panic(expected = "no downstream")]
    fn credit_capacity_of_a_missing_vc_panics() {
        port().view().credit_capacity(VcId(4));
    }

    #[test]
    fn accept_consumes_credits_and_buffer_space() {
        let mut p = port();
        assert!(p.view().can_accept(VcId(1), 8));
        p.accept(packet(1, 8), VcId(1), 5);
        let p = p.view();
        assert_eq!(p.credits(VcId(1)), 24);
        assert_eq!(p.buffer_occupancy_phits(), 8);
        assert_eq!(p.downstream_occupancy_phits(), 8);
        assert_eq!(p.congestion_phits(), 16);
        assert_eq!(p.staged_packets(), 1);
    }

    #[test]
    fn can_accept_fails_without_credits_or_buffer() {
        let mut p = Staged::new(PortClass::Local, 1, 8, 16);
        assert!(p.view().can_accept(VcId(0), 8));
        p.accept(packet(1, 8), VcId(0), 0);
        // credits for vc0 exhausted even though buffer has room
        assert!(!p.view().can_accept(VcId(0), 8));
        p.return_credits(VcId(0), 8);
        assert!(p.view().can_accept(VcId(0), 8));
        p.accept(packet(2, 8), VcId(0), 0);
        // buffer now 16/16
        p.return_credits(VcId(0), 8);
        assert!(!p.view().can_accept(VcId(0), 8), "output buffer full");
        assert!(!p.view().can_accept(VcId(1), 0), "no such VC");
    }

    #[test]
    fn terminal_ports_do_not_use_credits() {
        let mut p = Staged::new(PortClass::Terminal, 0, 0, 32);
        assert!(p.view().can_accept(VcId(0), 8));
        p.accept(packet(1, 8), VcId(0), 0);
        assert_eq!(p.view().num_downstream_vcs(), 0);
        assert_eq!(p.view().total_credits(), 0);
        assert!(p.view().can_accept(VcId(0), 8));
    }

    #[test]
    #[should_panic(expected = "allocator bug")]
    fn accept_without_resources_panics() {
        let mut p = Staged::new(PortClass::Local, 1, 8, 32);
        p.accept(packet(1, 8), VcId(0), 0);
        p.accept(packet(2, 8), VcId(0), 0);
    }

    #[test]
    #[should_panic(expected = "double credit return")]
    fn credit_overflow_panics() {
        let mut p = port();
        p.return_credits(VcId(0), 8);
    }

    #[test]
    fn transmit_respects_pipeline_and_serialisation() {
        let mut p = port();
        p.accept(packet(1, 8), VcId(0), 5); // ready at cycle 5
        p.accept(packet(2, 8), VcId(1), 5);
        // not ready yet
        assert!(p.try_transmit(4).is_none());
        // ready: transmission starts, link busy 8 cycles
        let (sent, vc, done) = p.try_transmit(5).unwrap();
        assert_eq!(sent.id, PacketId(1));
        assert_eq!(vc, VcId(0));
        assert_eq!(done, 13);
        assert_eq!(p.view().buffer_occupancy_phits(), 8);
        assert_eq!(p.view().link_free_at(), 13);
        // link busy until cycle 13
        assert!(p.try_transmit(12).is_none());
        let (sent2, _, done2) = p.try_transmit(13).unwrap();
        assert_eq!(sent2.id, PacketId(2));
        assert_eq!(done2, 21);
        assert_eq!(p.view().buffer_occupancy_phits(), 0);
        assert!(p.try_transmit(30).is_none(), "buffer drained");
    }

    #[test]
    fn congestion_metric_combines_buffer_and_downstream() {
        let mut p = Staged::new(PortClass::Global, 2, 256, 32);
        p.accept(packet(1, 8), VcId(0), 0);
        // packet staged: buffer 8, downstream estimate 8
        assert_eq!(p.view().congestion_phits(), 16);
        let _ = p.try_transmit(0);
        // left the buffer, still counted downstream until credits return
        assert_eq!(p.view().congestion_phits(), 8);
        p.return_credits(VcId(0), 8);
        assert_eq!(p.view().congestion_phits(), 0);
    }

    #[test]
    fn drained_stage_returns_packets_in_order_and_frees_their_slots() {
        let mut p = port();
        p.accept(packet(1, 8), VcId(2), 0);
        p.accept(packet(2, 8), VcId(3), 0);
        let drained = p.guard().drain_staged();
        assert_eq!(
            drained
                .iter()
                .map(|(pk, vc)| (pk.id, *vc))
                .collect::<Vec<_>>(),
            [(PacketId(1), VcId(2)), (PacketId(2), VcId(3))]
        );
        let view = p.view();
        assert_eq!(
            (view.staged_packets(), view.buffer_occupancy_phits()),
            (0, 0)
        );
        assert_eq!(
            view.total_credits(),
            128 - 16,
            "credits stay with the caller"
        );
        assert_eq!((p.store.live(), p.store.slots()), (0, 2));
    }

    #[test]
    fn guard_reads_through_to_the_port() {
        let mut p = port();
        let mut guard = p.guard();
        guard.accept(packet(1, 8), VcId(0), 3);
        assert_eq!(guard.view().staged_packets(), 1);
        assert!(guard.try_transmit(2).is_none());
        assert_eq!(
            guard.try_transmit(3).map(|(pk, ..)| pk.id),
            Some(PacketId(1))
        );
    }

    /// Restore a 1-VC port of 8 credits with a 16-phit buffer (a terminal
    /// port when `vcs` is 0) from forged bytes.
    fn restore(
        vcs: u8,
        credits: u32,
        staged: u64,
        dst_vc: u8,
    ) -> Result<(), df_engine::CodecError> {
        let mut e = df_engine::Encoder::new();
        for _ in 0..vcs {
            e.u32(credits);
        }
        e.seq(staged as usize);
        for id in 0..staged {
            packet(id, 8).encode(&mut e);
            e.u8(dst_vc);
            e.u64(0);
        }
        e.u64(0);
        let class = [PortClass::Terminal, PortClass::Local][usize::from(vcs)];
        let mut p = Staged::new(class, vcs, 8 * u32::from(vcs), 16);
        let bytes = e.into_bytes();
        let bounds = PacketBounds::new(&Dragonfly::new(DragonflyParams::small()), 8);
        p.guard()
            .restore_state(&mut df_engine::Decoder::new(&bytes), &bounds)
    }

    #[test]
    fn hostile_stage_bytes_are_typed_errors() {
        assert!(restore(1, 8, 2, 0).is_ok());
        assert!(restore(0, 0, 2, 0).is_ok(), "ejection on VC 0");
        for (what, result) in [
            ("credit overflow", restore(1, 9, 0, 0)),
            ("staged over capacity", restore(1, 8, 3, 0)),
            ("staged for a missing VC", restore(1, 8, 1, 1)),
            ("ejection on VC 1", restore(0, 0, 1, 1)),
        ] {
            assert!(
                matches!(result, Err(df_engine::CodecError::Invalid(_))),
                "{what}: {result:?}"
            );
        }
    }
}
