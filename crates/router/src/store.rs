//! A router's packet store: one slab of slots holding every packet the
//! router buffers, with each input VC queue and each output stage a FIFO
//! handle linked through the slots.
//!
//! A grant relinks the head slot from an input FIFO onto an output FIFO, so
//! a packet is written once on arrival and moved out once on transmission or
//! discard. Freed slots are reused before the slab grows, so the slot count
//! is the router's peak number of buffered packets — not the number of
//! queues it has ever touched.

use df_model::{Cycle, Packet, VcId};

/// Index of a slot in a [`PacketStore`].
pub(crate) type SlotId = u32;

/// The end of a FIFO or of the free list.
const NIL: SlotId = SlotId::MAX;

/// One slot of the slab: a packet (or nothing, on the free list), the next
/// slot of its FIFO, and the fields an output stage keeps per packet.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    packet: Option<Packet>,
    next: SlotId,
    /// Downstream VC the staged packet will occupy.
    pub(crate) dst_vc: VcId,
    /// Cycle at which the staged packet has traversed the router pipeline
    /// and may start link transmission.
    pub(crate) ready_at: Cycle,
}

/// A FIFO of slots: an input VC queue or an output stage.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fifo {
    head: SlotId,
    tail: SlotId,
    len: u32,
}

impl Fifo {
    /// A FIFO holding nothing.
    pub(crate) const EMPTY: Fifo = Fifo {
        head: NIL,
        tail: NIL,
        len: 0,
    };

    /// Number of packets queued.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the FIFO holds no packet.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The slab every FIFO of one router links through.
#[derive(Debug, Clone)]
pub(crate) struct PacketStore {
    slots: Vec<Slot>,
    /// Head of the free list, linked through `next` (so freeing a slot
    /// never allocates).
    free: SlotId,
    /// Slots holding a packet.
    live: u32,
}

impl PacketStore {
    /// An empty store (allocates nothing until the first packet).
    pub(crate) fn new() -> Self {
        PacketStore {
            slots: Vec::new(),
            free: NIL,
            live: 0,
        }
    }

    /// Slots holding a packet.
    pub(crate) fn live(&self) -> usize {
        self.live as usize
    }

    /// Slots allocated, live or free: the router's peak buffered packets
    /// since it was built or restored.
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Bytes of the slab's heap buffer.
    pub(crate) fn buffer_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }

    /// Put `packet` into a free slot (growing the slab only when none is
    /// free), linked into no FIFO yet.
    pub(crate) fn insert(&mut self, packet: Packet) -> SlotId {
        let slot = Slot {
            packet: Some(packet),
            next: NIL,
            dst_vc: VcId(0),
            ready_at: 0,
        };
        self.live += 1;
        if self.free == NIL {
            self.slots.push(slot);
            (self.slots.len() - 1) as SlotId
        } else {
            let id = self.free;
            self.free = self.slots[id as usize].next;
            self.slots[id as usize] = slot;
            id
        }
    }

    /// [`insert`](Self::insert) `packet` at the tail of `fifo`.
    pub(crate) fn push_back(&mut self, fifo: &mut Fifo, packet: Packet) -> SlotId {
        let id = self.insert(packet);
        self.link_back(fifo, id);
        id
    }

    /// Link the unlinked live slot `id` at the tail of `fifo`.
    pub(crate) fn link_back(&mut self, fifo: &mut Fifo, id: SlotId) {
        debug_assert!(self.slots[id as usize].packet.is_some());
        self.slots[id as usize].next = NIL;
        if fifo.tail == NIL {
            fifo.head = id;
        } else {
            self.slots[fifo.tail as usize].next = id;
        }
        fifo.tail = id;
        fifo.len += 1;
    }

    /// Unlink the head slot of `fifo`; it stays live until linked elsewhere
    /// or taken.
    pub(crate) fn unlink_front(&mut self, fifo: &mut Fifo) -> Option<SlotId> {
        if fifo.head == NIL {
            return None;
        }
        let id = fifo.head;
        fifo.head = self.slots[id as usize].next;
        if fifo.head == NIL {
            fifo.tail = NIL;
        }
        fifo.len -= 1;
        Some(id)
    }

    /// Move the packet out of the unlinked live slot `id` and free the slot.
    pub(crate) fn take(&mut self, id: SlotId) -> Packet {
        let slot = &mut self.slots[id as usize];
        let packet = slot.packet.take().expect("a live slot holds a packet");
        slot.next = self.free;
        self.free = id;
        self.live -= 1;
        packet
    }

    /// Borrow slot `id`.
    #[inline]
    pub(crate) fn slot(&self, id: SlotId) -> &Slot {
        &self.slots[id as usize]
    }

    /// Mutably borrow slot `id`.
    #[inline]
    pub(crate) fn slot_mut(&mut self, id: SlotId) -> &mut Slot {
        &mut self.slots[id as usize]
    }

    /// The head slot of `fifo`.
    #[inline]
    pub(crate) fn front(&self, fifo: &Fifo) -> Option<&Slot> {
        (fifo.head != NIL).then(|| self.slot(fifo.head))
    }

    /// The head packet of `fifo`, mutably.
    #[inline]
    pub(crate) fn front_mut(&mut self, fifo: &Fifo) -> Option<&mut Packet> {
        (fifo.head != NIL).then(|| self.slots[fifo.head as usize].packet_mut())
    }

    /// The slots of `fifo`, head first.
    pub(crate) fn iter<'a>(&'a self, fifo: &Fifo) -> impl Iterator<Item = &'a Slot> + 'a {
        let mut next = fifo.head;
        std::iter::from_fn(move || {
            (next != NIL).then(|| {
                let slot = &self.slots[next as usize];
                next = slot.next;
                slot
            })
        })
    }
}

impl Slot {
    /// The packet of a linked slot.
    #[inline]
    pub(crate) fn packet(&self) -> &Packet {
        self.packet.as_ref().expect("a linked slot holds a packet")
    }

    /// The packet of a linked slot, mutably.
    #[inline]
    pub(crate) fn packet_mut(&mut self) -> &mut Packet {
        self.packet.as_mut().expect("a linked slot holds a packet")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_engine::DeterministicRng;
    use df_model::PacketId;
    use df_topology::NodeId;

    fn packet(id: u64) -> Packet {
        Packet::new(PacketId(id), NodeId(0), NodeId(1), 8, 0)
    }

    /// What a slot of the model holds: the packet id and the stage fields.
    type Entry = (u64, VcId, Cycle);

    fn walk(store: &PacketStore, fifo: &Fifo) -> Vec<Entry> {
        store
            .iter(fifo)
            .map(|s| (s.packet().id.0, s.dst_vc, s.ready_at))
            .collect()
    }

    /// A seeded sequence of push, move-head-to-another-FIFO, take-head and
    /// drain over several FIFOs matches one model queue per FIFO (a `Vec`
    /// popped at the front) at every step — order, stage fields and live
    /// count — and the slab never holds more slots than the model's peak
    /// live count.
    #[test]
    fn fifos_through_one_slab_match_a_deque_per_fifo() {
        for seed in 1..=8 {
            let mut rng = DeterministicRng::new(seed);
            let mut store = PacketStore::new();
            let mut fifos = [Fifo::EMPTY; 5];
            let mut model: Vec<Vec<Entry>> = vec![Vec::new(); fifos.len()];
            let (mut next_id, mut peak) = (0u64, 0usize);
            for step in 0..2_000 {
                let f = rng.index(fifos.len());
                match rng.index(10) {
                    // push (the most common op, so the FIFOs fill up)
                    0..=3 => {
                        let id = store.push_back(&mut fifos[f], packet(next_id));
                        let stage = (VcId(rng.index(4) as u8), rng.index(100) as Cycle);
                        (store.slot_mut(id).dst_vc, store.slot_mut(id).ready_at) = stage;
                        model[f].push((next_id, stage.0, stage.1));
                        next_id += 1;
                    }
                    // move the head onto another FIFO, restaging it
                    4..=6 => {
                        let to = rng.index(fifos.len());
                        let moved = store.unlink_front(&mut fifos[f]);
                        assert_eq!(moved.is_some(), !model[f].is_empty());
                        if let Some(id) = moved {
                            let (pid, ..) = model[f].remove(0);
                            let ready_at = step as Cycle;
                            store.slot_mut(id).ready_at = ready_at;
                            store.link_back(&mut fifos[to], id);
                            let dst_vc = store.slot(id).dst_vc;
                            model[to].push((pid, dst_vc, ready_at));
                        }
                    }
                    // take the head
                    7..=8 => {
                        let taken = store.unlink_front(&mut fifos[f]).map(|id| store.take(id));
                        let expected = (!model[f].is_empty()).then(|| model[f].remove(0).0);
                        assert_eq!(taken.map(|p| p.id.0), expected);
                    }
                    // drain
                    _ => {
                        while let Some(id) = store.unlink_front(&mut fifos[f]) {
                            let (pid, ..) = model[f].remove(0);
                            assert_eq!(store.take(id).id.0, pid);
                        }
                        assert!(model[f].is_empty());
                    }
                }
                let live: usize = model.iter().map(Vec::len).sum();
                peak = peak.max(live);
                for (fifo, model) in fifos.iter().zip(&model) {
                    assert_eq!(&walk(&store, fifo), model, "seed {seed}");
                    assert_eq!(fifo.len(), model.len());
                    assert_eq!(
                        store.front(fifo).map(|s| s.packet().id.0),
                        model.first().map(|e| e.0)
                    );
                }
                assert_eq!(store.live(), live, "seed {seed} step {step}");
                assert!(store.slots() <= peak, "seed {seed} step {step}");
            }
            assert_eq!(store.slots(), peak, "the slab grows to the peak only");
        }
    }

    #[test]
    fn head_packet_is_mutable_in_place() {
        let mut store = PacketStore::new();
        let mut fifo = Fifo::EMPTY;
        for id in 0..3 {
            store.push_back(&mut fifo, packet(id));
        }
        store.front_mut(&fifo).unwrap().routing.local_hops = 1;
        assert_eq!(store.front(&fifo).unwrap().packet().routing.local_hops, 1);
        assert_eq!((store.live(), store.slots()), (3, 3));
    }
}
