//! Output ports: output buffers, credit-based flow control and link
//! serialisation.
//!
//! Credits model the free space of the *downstream* input buffer, per
//! downstream VC. They are consumed when a packet is granted the output
//! (guaranteeing it will fit) and returned by the simulator when the
//! downstream router removes the packet from its input buffer, delayed by the
//! link latency — which reproduces the in-flight-credit uncertainty the paper
//! discusses in §II-B.

use std::ops::Deref;

use df_model::{Cycle, Packet, VcId};
use df_topology::PortClass;

use crate::store::{Fifo, PacketStore, SlotId};

/// An output port.
#[derive(Debug, Clone)]
pub struct OutputPort {
    class: PortClass,
    /// Credits (free phits) per downstream VC. Empty for terminal ports,
    /// which model an always-ready ejection channel.
    credits: Vec<u32>,
    /// Capacity of the downstream buffer per VC (maximum credits).
    credit_capacity: Vec<u32>,
    /// Running sum of `credits` (kept by `accept`, `return_credits` and
    /// restore), so the occupancy reads of the credit triggers are O(1).
    credits_total: u32,
    /// Sum of `credit_capacity` (a constant of the port).
    credit_capacity_total: u32,
    /// Output buffer (staging between crossbar and link): a FIFO through
    /// the router's packet store, each slot carrying its downstream VC and
    /// pipeline-ready cycle.
    pub(crate) staged: Fifo,
    buffer_capacity_phits: u32,
    buffer_occupancy_phits: u32,
    /// Cycle at which the link becomes free for the next packet.
    link_free_at: Cycle,
}

impl OutputPort {
    /// Create an output port.
    ///
    /// * `downstream_vcs` / `downstream_capacity_per_vc` describe the input
    ///   buffer at the far end of the link (ignored for terminal ports, pass
    ///   0 VCs).
    /// * `buffer_capacity_phits` is the size of the local output buffer.
    pub fn new(
        class: PortClass,
        downstream_vcs: u8,
        downstream_capacity_per_vc: u32,
        buffer_capacity_phits: u32,
    ) -> Self {
        OutputPort {
            class,
            credits: vec![downstream_capacity_per_vc; downstream_vcs as usize],
            credit_capacity: vec![downstream_capacity_per_vc; downstream_vcs as usize],
            credits_total: downstream_capacity_per_vc * downstream_vcs as u32,
            credit_capacity_total: downstream_capacity_per_vc * downstream_vcs as u32,
            staged: Fifo::EMPTY,
            buffer_capacity_phits,
            buffer_occupancy_phits: 0,
            link_free_at: 0,
        }
    }

    /// Port class.
    pub fn class(&self) -> PortClass {
        self.class
    }

    /// Number of downstream VCs tracked by credits (0 for terminal ports).
    pub fn num_downstream_vcs(&self) -> usize {
        self.credits.len()
    }

    /// Free credits (phits) for a downstream VC.
    pub fn credits(&self, vc: VcId) -> u32 {
        self.credits[vc.index()]
    }

    /// Maximum credits (downstream buffer capacity) for a VC.
    pub fn credit_capacity(&self, vc: VcId) -> u32 {
        self.credit_capacity[vc.index()]
    }

    /// Total free credits across downstream VCs.
    pub fn total_credits(&self) -> u32 {
        debug_assert_eq!(self.credits_total, self.credits.iter().sum::<u32>());
        self.credits_total
    }

    /// Total downstream capacity across VCs.
    pub fn total_credit_capacity(&self) -> u32 {
        self.credit_capacity_total
    }

    /// Occupancy of the output buffer in phits.
    pub fn buffer_occupancy_phits(&self) -> u32 {
        self.buffer_occupancy_phits
    }

    /// Capacity of the output buffer in phits.
    pub fn buffer_capacity_phits(&self) -> u32 {
        self.buffer_capacity_phits
    }

    /// Free space in the output buffer.
    pub fn buffer_free_phits(&self) -> u32 {
        self.buffer_capacity_phits - self.buffer_occupancy_phits
    }

    /// Number of packets staged in the output buffer.
    pub fn staged_packets(&self) -> usize {
        self.staged.len()
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
    pub fn congestion_phits(&self) -> u32 {
        self.buffer_occupancy_phits + self.downstream_occupancy_phits()
    }

    /// The corresponding capacity, for relative (percentage) thresholds.
    pub fn congestion_capacity_phits(&self) -> u32 {
        self.buffer_capacity_phits + self.total_credit_capacity()
    }

    /// Whether a packet of `size_phits` destined to downstream VC `vc` can be
    /// granted this output right now: the output buffer has room and (for
    /// non-terminal ports) enough credits exist for that VC.
    pub fn can_accept(&self, vc: VcId, size_phits: u32) -> bool {
        if self.buffer_free_phits() < size_phits {
            return false;
        }
        if self.class == PortClass::Terminal {
            return true;
        }
        self.credits
            .get(vc.index())
            .is_some_and(|&c| c >= size_phits)
    }

    /// Link the unlinked live slot `slot` of `store` at the tail of the
    /// output buffer, for downstream VC `dst_vc`. Consumes credits for
    /// non-terminal ports. `ready_at` is when the router pipeline finishes.
    ///
    /// # Panics
    /// Panics if [`can_accept`](Self::can_accept) would have returned false —
    /// the allocator must check before granting.
    pub(crate) fn stage(
        &mut self,
        store: &mut PacketStore,
        slot: SlotId,
        dst_vc: VcId,
        ready_at: Cycle,
    ) {
        let size_phits = store.slot(slot).packet().size_phits;
        assert!(
            self.can_accept(dst_vc, size_phits),
            "output port cannot accept packet (allocator bug)"
        );
        self.buffer_occupancy_phits += size_phits;
        if self.class != PortClass::Terminal {
            self.credits[dst_vc.index()] -= size_phits;
            self.credits_total -= size_phits;
        }
        (store.slot_mut(slot).dst_vc, store.slot_mut(slot).ready_at) = (dst_vc, ready_at);
        store.link_back(&mut self.staged, slot);
    }

    /// Return credits for `phits` on downstream VC `vc` (called when the
    /// downstream router drains the packet, after the credit propagation
    /// delay).
    ///
    /// # Panics
    /// Panics if credits would exceed the downstream capacity (double
    /// return).
    pub fn return_credits(&mut self, vc: VcId, phits: u32) {
        let c = &mut self.credits[vc.index()];
        *c += phits;
        self.credits_total += phits;
        assert!(
            *c <= self.credit_capacity[vc.index()],
            "credit overflow on vc {vc}: {} > {} (double credit return)",
            *c,
            self.credit_capacity[vc.index()]
        );
    }

    /// If the head-of-buffer packet has cleared the pipeline and the link is
    /// free, start its transmission: the packet leaves the output buffer, the
    /// link is busy for `size_phits` cycles (1 phit/cycle serialisation) and
    /// the packet (with its downstream VC) is returned so the caller can
    /// schedule its arrival `link_latency` cycles after serialisation
    /// completes.
    pub(crate) fn try_transmit(
        &mut self,
        store: &mut PacketStore,
        now: Cycle,
    ) -> Option<(Packet, VcId, Cycle)> {
        if self.link_free_at > now || store.front(&self.staged)?.ready_at > now {
            return None;
        }
        let (packet, dst_vc) = self.pop(store).expect("checked non-empty");
        self.link_free_at = now + packet.size_phits as Cycle;
        Some((packet, dst_vc, self.link_free_at))
    }

    /// Move the head-of-buffer packet out of `store`, with its downstream VC.
    fn pop(&mut self, store: &mut PacketStore) -> Option<(Packet, VcId)> {
        let slot = store.unlink_front(&mut self.staged)?;
        let dst_vc = store.slot(slot).dst_vc;
        let packet = store.take(slot);
        self.buffer_occupancy_phits -= packet.size_phits;
        Some((packet, dst_vc))
    }

    /// Cycle at which the link next becomes idle.
    pub fn link_free_at(&self) -> Cycle {
        self.link_free_at
    }

    /// Remove every staged packet from the buffer and return them with the
    /// downstream VC each had been granted (fault injection: the link died,
    /// its serialisation buffer is lost with it). The credits the packets
    /// consumed are deliberately *not* restored here — the caller ledgers
    /// them exactly like an in-flight drop, so `LinkUp` returns them.
    pub(crate) fn drain_staged(&mut self, store: &mut PacketStore) -> Vec<(Packet, VcId)> {
        std::iter::from_fn(|| self.pop(store)).collect()
    }

    /// Serialise the persistent state of this port: per-VC credits, staged
    /// packets (with downstream VC and pipeline-ready cycle) and the link
    /// busy horizon. Capacities and class are configuration and are not
    /// written.
    pub(crate) fn save_state(&self, store: &PacketStore, e: &mut df_engine::Encoder) {
        e.seq(self.credits.len());
        for &c in &self.credits {
            e.u32(c);
        }
        e.seq(self.staged_packets());
        for s in store.iter(&self.staged) {
            s.packet().encode(e);
            e.u8(s.dst_vc.0);
            e.u64(s.ready_at);
        }
        e.u64(self.link_free_at);
    }

    /// Restore the state written by [`OutputPort::save_state`], refilling
    /// the staged packets into `store` (emptied by the caller). Buffer
    /// occupancy is recomputed from the staged packets; credit and capacity
    /// invariants are validated.
    pub(crate) fn restore_state(
        &mut self,
        store: &mut PacketStore,
        d: &mut df_engine::Decoder,
    ) -> Result<(), df_engine::CodecError> {
        let n = self.credits.len();
        d.seq_exact(4, n, "output port VC count")?;
        let mut credits = Vec::with_capacity(n);
        for i in 0..n {
            let c = d.u32()?;
            if c > self.credit_capacity[i] {
                return Err(df_engine::CodecError::Invalid(format!(
                    "restored credits {c} exceed capacity {} on vc {i}",
                    self.credit_capacity[i]
                )));
            }
            credits.push(c);
        }
        self.staged = Fifo::EMPTY;
        let mut occupancy = 0u64;
        for _ in 0..d.seq(8)? {
            let packet = Packet::decode(d)?;
            occupancy += packet.size_phits as u64;
            let slot = store.push_back(&mut self.staged, packet);
            let (dst_vc, ready_at) = (VcId(d.u8()?), d.u64()?);
            (store.slot_mut(slot).dst_vc, store.slot_mut(slot).ready_at) = (dst_vc, ready_at);
        }
        if occupancy > self.buffer_capacity_phits as u64 {
            return Err(df_engine::CodecError::Invalid(format!(
                "output buffer occupancy {occupancy} exceeds capacity {}",
                self.buffer_capacity_phits
            )));
        }
        self.credits_total = credits.iter().sum();
        self.credits = credits;
        self.buffer_occupancy_phits = occupancy as u32;
        self.link_free_at = d.u64()?;
        Ok(())
    }
}

/// Mutable access to one output port of a router, with the router's packet
/// store its buffer links through ([`Router::output_mut`](crate::Router::output_mut)).
#[derive(Debug)]
pub struct OutputMut<'a> {
    pub(crate) output: &'a mut OutputPort,
    pub(crate) store: &'a mut PacketStore,
}

impl OutputMut<'_> {
    /// [`OutputPort::can_accept`]-checked staging of `packet` for
    /// downstream VC `dst_vc`, ready for the link at `ready_at`; consumes
    /// credits for non-terminal ports.
    ///
    /// # Panics
    /// Panics if the port cannot accept the packet.
    pub fn accept(&mut self, packet: Packet, dst_vc: VcId, ready_at: Cycle) {
        let slot = self.store.insert(packet);
        self.output.stage(self.store, slot, dst_vc, ready_at)
    }

    /// If the head-of-buffer packet has cleared the pipeline and the link is
    /// free at `now`, start its transmission and return it with its
    /// downstream VC and the cycle its tail leaves.
    pub fn try_transmit(&mut self, now: Cycle) -> Option<(Packet, VcId, Cycle)> {
        self.output.try_transmit(self.store, now)
    }
}

impl Deref for OutputMut<'_> {
    type Target = OutputPort;

    fn deref(&self) -> &OutputPort {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_model::PacketId;
    use df_topology::NodeId;

    fn packet(id: u64, size: u32) -> Packet {
        Packet::new(PacketId(id), NodeId(0), NodeId(5), size, 0)
    }

    /// A port with a store of its own, staged and drained through the
    /// guard a router hands out.
    struct Staged {
        port: OutputPort,
        store: PacketStore,
    }

    impl Staged {
        fn new(class: PortClass, vcs: u8, capacity: u32, buffer: u32) -> Self {
            Staged {
                port: OutputPort::new(class, vcs, capacity, buffer),
                store: PacketStore::new(),
            }
        }

        fn guard(&mut self) -> OutputMut<'_> {
            OutputMut {
                output: &mut self.port,
                store: &mut self.store,
            }
        }

        fn accept(&mut self, packet: Packet, dst_vc: VcId, ready_at: Cycle) {
            self.guard().accept(packet, dst_vc, ready_at)
        }

        fn try_transmit(&mut self, now: Cycle) -> Option<(Packet, VcId, Cycle)> {
            self.guard().try_transmit(now)
        }
    }

    impl Deref for Staged {
        type Target = OutputPort;

        fn deref(&self) -> &OutputPort {
            &self.port
        }
    }

    impl std::ops::DerefMut for Staged {
        fn deref_mut(&mut self) -> &mut OutputPort {
            &mut self.port
        }
    }

    fn port() -> Staged {
        // local-like: 4 downstream VCs of 32 phits, 32-phit output buffer
        Staged::new(PortClass::Local, 4, 32, 32)
    }

    #[test]
    fn fresh_port_has_full_credits() {
        let p = port();
        assert_eq!(p.total_credits(), 128);
        assert_eq!(p.credits(VcId(0)), 32);
        assert_eq!(p.buffer_free_phits(), 32);
        assert_eq!(p.downstream_occupancy_phits(), 0);
        assert_eq!(p.congestion_phits(), 0);
        assert_eq!(p.congestion_capacity_phits(), 32 + 128);
    }

    #[test]
    fn accept_consumes_credits_and_buffer_space() {
        let mut p = port();
        assert!(p.can_accept(VcId(1), 8));
        p.accept(packet(1, 8), VcId(1), 5);
        assert_eq!(p.credits(VcId(1)), 24);
        assert_eq!(p.buffer_occupancy_phits(), 8);
        assert_eq!(p.downstream_occupancy_phits(), 8);
        assert_eq!(p.congestion_phits(), 16);
        assert_eq!(p.staged_packets(), 1);
    }

    #[test]
    fn can_accept_fails_without_credits_or_buffer() {
        let mut p = Staged::new(PortClass::Local, 1, 8, 16);
        assert!(p.can_accept(VcId(0), 8));
        p.accept(packet(1, 8), VcId(0), 0);
        // credits for vc0 exhausted even though buffer has room
        assert!(!p.can_accept(VcId(0), 8));
        // fill the buffer through a second VC? only one VC, so grow buffer use
        p.return_credits(VcId(0), 8);
        assert!(p.can_accept(VcId(0), 8));
        p.accept(packet(2, 8), VcId(0), 0);
        // buffer now 16/16
        p.return_credits(VcId(0), 8);
        assert!(!p.can_accept(VcId(0), 8), "output buffer full");
    }

    #[test]
    fn terminal_ports_do_not_use_credits() {
        let mut p = Staged::new(PortClass::Terminal, 0, 0, 32);
        assert!(p.can_accept(VcId(0), 8));
        p.accept(packet(1, 8), VcId(0), 0);
        assert_eq!(p.num_downstream_vcs(), 0);
        assert_eq!(p.total_credits(), 0);
        assert!(p.can_accept(VcId(0), 8));
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
        assert_eq!(p.buffer_occupancy_phits(), 8);
        // link busy until cycle 13
        assert!(p.try_transmit(12).is_none());
        let (sent2, _, done2) = p.try_transmit(13).unwrap();
        assert_eq!(sent2.id, PacketId(2));
        assert_eq!(done2, 21);
        assert_eq!(p.buffer_occupancy_phits(), 0);
        assert!(p.try_transmit(30).is_none(), "buffer drained");
    }

    #[test]
    fn congestion_metric_combines_buffer_and_downstream() {
        let mut p = Staged::new(PortClass::Global, 2, 256, 32);
        p.accept(packet(1, 8), VcId(0), 0);
        // packet staged: buffer 8, downstream estimate 8
        assert_eq!(p.congestion_phits(), 16);
        let _ = p.try_transmit(0);
        // left the buffer, still counted downstream until credits return
        assert_eq!(p.congestion_phits(), 8);
        p.return_credits(VcId(0), 8);
        assert_eq!(p.congestion_phits(), 0);
    }

    #[test]
    fn drained_stage_returns_packets_in_order_and_frees_their_slots() {
        let mut p = port();
        p.accept(packet(1, 8), VcId(2), 0);
        p.accept(packet(2, 8), VcId(3), 0);
        let drained = p.port.drain_staged(&mut p.store);
        assert_eq!(
            drained
                .iter()
                .map(|(pk, vc)| (pk.id, *vc))
                .collect::<Vec<_>>(),
            [(PacketId(1), VcId(2)), (PacketId(2), VcId(3))]
        );
        assert_eq!((p.staged_packets(), p.buffer_occupancy_phits()), (0, 0));
        assert_eq!((p.store.live(), p.store.slots()), (0, 2));
        assert_eq!(p.total_credits(), 128 - 16, "credits stay with the caller");
    }

    #[test]
    fn guard_reads_through_to_the_port() {
        let mut p = port();
        let mut guard = p.guard();
        guard.accept(packet(1, 8), VcId(0), 3);
        assert_eq!(guard.staged_packets(), 1);
        assert!(guard.try_transmit(2).is_none());
        assert_eq!(
            guard.try_transmit(3).map(|(pk, ..)| pk.id),
            Some(PacketId(1))
        );
    }

    #[test]
    fn hostile_stage_bytes_are_typed_errors() {
        // a 1-VC port of 8 credits with a 16-phit buffer
        let restore = |credits: u32, staged: u64| {
            let mut e = df_engine::Encoder::new();
            e.seq(1);
            e.u32(credits);
            e.seq(staged as usize);
            for id in 0..staged {
                packet(id, 8).encode(&mut e);
                e.u8(0);
                e.u64(0);
            }
            e.u64(0);
            let mut p = Staged::new(PortClass::Local, 1, 8, 16);
            let bytes = e.into_bytes();
            p.port
                .restore_state(&mut p.store, &mut df_engine::Decoder::new(&bytes))
        };
        assert!(restore(8, 2).is_ok());
        for (what, result) in [
            ("credit overflow", restore(9, 0)),
            ("staged over capacity", restore(8, 3)),
        ] {
            assert!(
                matches!(result, Err(df_engine::CodecError::Invalid(_))),
                "{what}: {result:?}"
            );
        }
    }
}
