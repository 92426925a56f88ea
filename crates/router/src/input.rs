//! Input ports and per-VC input buffers.
//!
//! Virtual Cut-Through switching: packets are stored whole, occupancy is
//! accounted in phits, and a packet is removed in one piece when it wins
//! switch allocation. Each VC additionally tracks which output port the head
//! packet's *minimal* route uses, so the contention counters can be
//! incremented exactly once per head packet and decremented when it leaves
//! (§III-B of the paper).

use df_model::{Packet, VcId};
use df_topology::{Port, PortClass};

use crate::store::{Fifo, PacketStore, Slot, SlotId};

/// Which of its three objectives a planned head pursues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedObjective {
    /// At the destination router: eject through the planned port.
    Eject,
    /// Follow a committed path (detour, gateway, waypoint) through the port.
    Continuation,
    /// Head for the destination router: the planned port is the minimal one
    /// and the scope bits say what else the mechanism may consider.
    Destination,
}

/// The part of a head packet's routing decision that cannot change while it
/// waits at the head of its input VC — a function of the packet, the input
/// port and the router's *position*, never of counters, credits or link
/// health — made once by the routing layer (`RoutingAlgorithm::plan`) and
/// parked beside the head, so the per-cycle loop decides from this word.
/// Derived state: not in the snapshot, dropped when the head leaves its VC
/// and by [`Router::head_mut`](crate::Router::head_mut).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadPlan {
    /// The resolved objective.
    pub objective: PlannedObjective,
    /// The `AT_SOURCE` / `GLOBAL_SCOPE` / `LOCAL_SCOPE` / `MISROUTED` bits
    /// of a [`PlannedObjective::Destination`] head.
    pub scope: u8,
    /// Index of the planned output port (below [`MAX_RADIX`](crate::MAX_RADIX)).
    pub port: u8,
    /// Downstream VC of the hop through the planned port.
    pub vc: VcId,
    /// The group's minimal global link towards the destination group
    /// (under `GLOBAL_SCOPE`).
    pub min_link: u16,
    /// Packet size in phits, saturating — see [`HeadPlan::size_phits`].
    pub size: u16,
}

impl HeadPlan {
    /// Entered through a terminal port, no hop taken: at-injection rules apply.
    pub const AT_SOURCE: u8 = 1;
    /// A nonminimal global path is policy-legal for this head (before the
    /// already-misrouted veto, which a dead minimal output lifts).
    pub const GLOBAL_SCOPE: u8 = 2;
    /// A local detour is policy-legal for this head.
    pub const LOCAL_SCOPE: u8 = 4;
    /// The packet already committed to a nonminimal global path.
    pub const MISROUTED: u8 = 8;

    /// Whether any of the scope bits `bits` is set.
    #[inline]
    pub fn has(&self, bits: u8) -> bool {
        self.scope & bits != 0
    }

    /// The planned output port.
    #[inline]
    pub fn output(&self) -> Port {
        Port(u32::from(self.port))
    }

    /// Size of `packet`, the head this plan was made for: from the plan
    /// unless the stored value saturated.
    #[inline]
    pub fn size_phits(&self, packet: &Packet) -> u32 {
        match self.size {
            u16::MAX => packet.size_phits,
            size => u32::from(size),
        }
    }
}

/// A head unlinked from its input VC: its slot, still live in the router's
/// store for the caller to stage or take, and the counter registrations the
/// caller must now release.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UnlinkedHead {
    pub(crate) slot: SlotId,
    /// Output port whose contention counter was incremented for this packet
    /// (to be decremented now).
    pub(crate) registered_min_output: Option<Port>,
    /// Group-level global link whose ECtN partial counter was incremented for
    /// this packet (to be decremented now).
    pub(crate) registered_ectn_link: Option<u32>,
}

/// One virtual channel of an input port: its queue is a FIFO through the
/// router's packet store.
#[derive(Debug, Clone)]
pub struct InputVc {
    pub(crate) fifo: Fifo,
    capacity_phits: u32,
    occupancy_phits: u32,
    /// Output port registered in the contention counters for the current
    /// head packet (None if the head has not been registered yet).
    registered_min_output: Option<Port>,
    /// Group-level global link registered in the ECtN partial array for the
    /// current head packet.
    registered_ectn_link: Option<u32>,
    /// The routing layer's plan for the head (None until first decided).
    plan: Option<HeadPlan>,
}

impl InputVc {
    /// Create an empty VC with the given capacity in phits.
    pub fn new(capacity_phits: u32) -> Self {
        InputVc {
            fifo: Fifo::EMPTY,
            capacity_phits,
            occupancy_phits: 0,
            registered_min_output: None,
            registered_ectn_link: None,
            plan: None,
        }
    }

    /// Buffer capacity in phits.
    pub fn capacity_phits(&self) -> u32 {
        self.capacity_phits
    }

    /// Occupied phits.
    pub fn occupancy_phits(&self) -> u32 {
        self.occupancy_phits
    }

    /// Free space in phits.
    pub fn free_phits(&self) -> u32 {
        self.capacity_phits - self.occupancy_phits
    }

    /// Number of whole packets queued.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the VC holds no packet.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Whether a packet of `size_phits` fits.
    pub fn can_accept(&self, size_phits: u32) -> bool {
        self.free_phits() >= size_phits
    }

    /// Enqueue an arriving packet into `store`.
    ///
    /// # Panics
    /// Panics if the packet does not fit — credit-based flow control must
    /// have prevented the upstream router from sending it, so this is a flow
    /// control bug, not a recoverable condition.
    pub(crate) fn push(&mut self, store: &mut PacketStore, packet: Packet) {
        assert!(
            self.can_accept(packet.size_phits),
            "input VC overflow: occupancy {}/{} cannot take {} phits (flow-control bug)",
            self.occupancy_phits,
            self.capacity_phits,
            packet.size_phits
        );
        self.occupancy_phits += packet.size_phits;
        store.push_back(&mut self.fifo, packet);
    }

    /// Peek at the head packet.
    pub(crate) fn head<'s>(&self, store: &'s PacketStore) -> Option<&'s Packet> {
        store.front(&self.fifo).map(Slot::packet)
    }

    /// Mutable access to the head packet (routing algorithms update the
    /// packet's routing state when they commit decisions); the change may
    /// invalidate the head's plan, so it is dropped.
    pub(crate) fn head_mut<'s>(&mut self, store: &'s mut PacketStore) -> Option<&'s mut Packet> {
        self.plan = None;
        store.front_mut(&self.fifo)
    }

    /// Unlink the head packet's slot, clearing and returning the counter
    /// registrations so the caller can release them.
    pub(crate) fn unlink_head(&mut self, store: &mut PacketStore) -> Option<UnlinkedHead> {
        let slot = store.unlink_front(&mut self.fifo)?;
        self.occupancy_phits -= store.slot(slot).packet().size_phits;
        self.plan = None;
        Some(UnlinkedHead {
            slot,
            registered_min_output: self.registered_min_output.take(),
            registered_ectn_link: self.registered_ectn_link.take(),
        })
    }

    /// The output port registered in the contention counters for the current
    /// head (if any).
    pub fn registered_min_output(&self) -> Option<Port> {
        self.registered_min_output
    }

    /// The ECtN partial-array link registered for the current head (if any).
    pub fn registered_ectn_link(&self) -> Option<u32> {
        self.registered_ectn_link
    }

    /// The routing layer's plan for the current head, if one was made.
    #[inline]
    pub fn plan(&self) -> Option<HeadPlan> {
        self.plan
    }

    /// Park the routing layer's plan for the current head packet.
    pub fn set_plan(&mut self, plan: HeadPlan) {
        debug_assert!(!self.is_empty(), "cannot plan for an empty VC");
        self.plan = Some(plan);
    }

    /// Record that the current head packet has been registered against
    /// `port` in the contention counters.
    pub fn set_registered_min_output(&mut self, port: Port) {
        debug_assert!(
            !self.is_empty(),
            "cannot register contention for an empty VC"
        );
        self.registered_min_output = Some(port);
    }

    /// Record that the current head packet has been registered against
    /// group-level global link `link` in the ECtN partial array.
    pub fn set_registered_ectn_link(&mut self, link: u32) {
        debug_assert!(
            !self.is_empty(),
            "cannot register ECtN contention for an empty VC"
        );
        self.registered_ectn_link = Some(link);
    }

    /// Whether the current head still needs to be registered in the
    /// contention counters.
    pub fn head_needs_registration(&self) -> bool {
        !self.is_empty() && self.registered_min_output.is_none()
    }

    /// Serialise the persistent state of this VC (queued packets and head
    /// registrations). Capacity is configuration, not state, and is not
    /// written.
    pub(crate) fn save_state(&self, store: &PacketStore, e: &mut df_engine::Encoder) {
        e.seq(self.len());
        for slot in store.iter(&self.fifo) {
            slot.packet().encode(e);
        }
        e.bool(self.registered_min_output.is_some());
        if let Some(port) = self.registered_min_output {
            e.u32(port.0);
        }
        e.bool(self.registered_ectn_link.is_some());
        if let Some(link) = self.registered_ectn_link {
            e.u32(link);
        }
    }

    /// Restore the persistent state written by [`InputVc::save_state`],
    /// refilling the queue into `store` (emptied by the caller). Occupancy is
    /// recomputed from the packets and validated against the configured
    /// capacity.
    pub(crate) fn restore_state(
        &mut self,
        store: &mut PacketStore,
        d: &mut df_engine::Decoder,
    ) -> Result<(), df_engine::CodecError> {
        self.fifo = Fifo::EMPTY;
        let mut occupancy = 0u64;
        for _ in 0..d.seq(8)? {
            let p = Packet::decode(d)?;
            occupancy += p.size_phits as u64;
            store.push_back(&mut self.fifo, p);
        }
        if occupancy > self.capacity_phits as u64 {
            return Err(df_engine::CodecError::Invalid(format!(
                "input VC occupancy {occupancy} exceeds capacity {}",
                self.capacity_phits
            )));
        }
        let registered_min_output = if d.bool()? {
            Some(Port(d.u32()?))
        } else {
            None
        };
        let registered_ectn_link = if d.bool()? { Some(d.u32()?) } else { None };
        if self.is_empty() && (registered_min_output.is_some() || registered_ectn_link.is_some()) {
            return Err(df_engine::CodecError::Invalid(
                "head registration on an empty input VC".into(),
            ));
        }
        self.occupancy_phits = occupancy as u32;
        self.registered_min_output = registered_min_output;
        self.registered_ectn_link = registered_ectn_link;
        self.plan = None;
        Ok(())
    }
}

/// An input port: a set of virtual channels.
#[derive(Debug, Clone)]
pub struct InputPort {
    class: PortClass,
    vcs: Vec<InputVc>,
}

impl InputPort {
    /// Create an input port with `num_vcs` VCs of `capacity_phits` each.
    pub fn new(class: PortClass, num_vcs: u8, capacity_phits: u32) -> Self {
        InputPort {
            class,
            vcs: (0..num_vcs).map(|_| InputVc::new(capacity_phits)).collect(),
        }
    }

    /// Port class (terminal / local / global).
    pub fn class(&self) -> PortClass {
        self.class
    }

    /// Number of virtual channels.
    pub fn num_vcs(&self) -> usize {
        self.vcs.len()
    }

    /// Borrow a VC.
    pub fn vc(&self, vc: usize) -> &InputVc {
        &self.vcs[vc]
    }

    /// Mutably borrow a VC.
    pub fn vc_mut(&mut self, vc: usize) -> &mut InputVc {
        &mut self.vcs[vc]
    }

    /// Iterate over the VCs.
    pub fn vcs(&self) -> impl Iterator<Item = &InputVc> {
        self.vcs.iter()
    }

    /// Total queued phits across VCs.
    pub fn occupancy_phits(&self) -> u32 {
        self.vcs.iter().map(|v| v.occupancy_phits()).sum()
    }

    /// Serialise the persistent state of this port (the per-VC queues).
    /// Class and VC layout are configuration.
    pub(crate) fn save_state(&self, store: &PacketStore, e: &mut df_engine::Encoder) {
        e.seq(self.vcs.len());
        for vc in &self.vcs {
            vc.save_state(store, e);
        }
    }

    /// Restore the state written by [`InputPort::save_state`], refilling the
    /// queues into `store`. The VC count must match the configuration.
    pub(crate) fn restore_state(
        &mut self,
        store: &mut PacketStore,
        d: &mut df_engine::Decoder,
    ) -> Result<(), df_engine::CodecError> {
        d.seq_exact(4, self.vcs.len(), "input port VC count")?;
        for vc in &mut self.vcs {
            vc.restore_state(store, d)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_model::{Packet, PacketId};
    use df_topology::NodeId;

    fn packet(id: u64, size: u32) -> Packet {
        Packet::new(PacketId(id), NodeId(0), NodeId(9), size, 0)
    }

    /// Unlink the head and move its packet out of the store.
    fn pop(vc: &mut InputVc, store: &mut PacketStore) -> Option<(Packet, UnlinkedHead)> {
        let head = vc.unlink_head(store)?;
        Some((store.take(head.slot), head))
    }

    #[test]
    fn push_pop_tracks_occupancy() {
        let mut store = PacketStore::new();
        let mut vc = InputVc::new(32);
        assert!(vc.is_empty());
        assert_eq!(vc.free_phits(), 32);
        vc.push(&mut store, packet(1, 8));
        vc.push(&mut store, packet(2, 8));
        assert_eq!(vc.len(), 2);
        assert_eq!(vc.occupancy_phits(), 16);
        assert_eq!(vc.free_phits(), 16);
        let (popped, head) = pop(&mut vc, &mut store).unwrap();
        assert_eq!(popped.id, PacketId(1));
        assert_eq!(head.registered_min_output, None);
        assert_eq!(head.registered_ectn_link, None);
        assert_eq!(vc.occupancy_phits(), 8);
        assert_eq!((store.live(), store.slots()), (1, 2));
    }

    #[test]
    fn can_accept_respects_capacity() {
        let mut store = PacketStore::new();
        let mut vc = InputVc::new(16);
        assert!(vc.can_accept(8));
        vc.push(&mut store, packet(1, 8));
        assert!(vc.can_accept(8));
        vc.push(&mut store, packet(2, 8));
        assert!(!vc.can_accept(8));
        assert!(vc.can_accept(0));
    }

    #[test]
    #[should_panic(expected = "input VC overflow")]
    fn overflow_is_a_flow_control_bug() {
        let mut store = PacketStore::new();
        let mut vc = InputVc::new(8);
        vc.push(&mut store, packet(1, 8));
        vc.push(&mut store, packet(2, 8));
    }

    #[test]
    fn registration_lifecycle() {
        let mut store = PacketStore::new();
        let mut vc = InputVc::new(32);
        assert!(!vc.head_needs_registration(), "empty VC needs nothing");
        vc.push(&mut store, packet(1, 8));
        assert!(vc.head_needs_registration());
        vc.set_registered_min_output(Port(4));
        assert!(!vc.head_needs_registration());
        assert_eq!(vc.registered_min_output(), Some(Port(4)));
        vc.set_registered_ectn_link(3);
        assert_eq!(vc.registered_ectn_link(), Some(3));
        vc.push(&mut store, packet(2, 8));
        // still the same head; no new registration needed
        assert!(!vc.head_needs_registration());
        let (_, head) = pop(&mut vc, &mut store).unwrap();
        assert_eq!(head.registered_min_output, Some(Port(4)));
        assert_eq!(head.registered_ectn_link, Some(3));
        // new head needs registration again
        assert!(vc.head_needs_registration());
        assert_eq!(vc.registered_ectn_link(), None);
    }

    #[test]
    fn plan_lifecycle() {
        // one word beside the registrations, niche included
        assert_eq!(std::mem::size_of::<Option<HeadPlan>>(), 8);
        let plan = HeadPlan {
            objective: PlannedObjective::Destination,
            scope: HeadPlan::AT_SOURCE | HeadPlan::GLOBAL_SCOPE,
            port: 5,
            vc: VcId(1),
            min_link: 3,
            size: 8,
        };
        assert!(plan.has(HeadPlan::GLOBAL_SCOPE) && !plan.has(HeadPlan::LOCAL_SCOPE));
        assert_eq!(plan.output(), Port(5));
        let mut store = PacketStore::new();
        let mut vc = InputVc::new(32);
        vc.push(&mut store, packet(1, 8));
        assert_eq!(vc.plan(), None);
        vc.set_plan(plan);
        vc.push(&mut store, packet(2, 8));
        assert_eq!(vc.plan(), Some(plan), "still the same head");
        assert_eq!(plan.size_phits(vc.head(&store).unwrap()), 8);
        pop(&mut vc, &mut store);
        assert_eq!(vc.plan(), None, "a new head has no plan");
        vc.set_plan(plan);
        vc.head_mut(&mut store).unwrap().routing.local_hops = 1;
        assert_eq!(vc.plan(), None, "a mutated head has no plan");
        // a saturated size defers to the packet
        let big = HeadPlan {
            size: u16::MAX,
            ..plan
        };
        assert_eq!(big.size_phits(&packet(3, 70_000)), 70_000);
    }

    #[test]
    fn head_accessors() {
        let mut store = PacketStore::new();
        let mut vc = InputVc::new(32);
        assert!(vc.head(&store).is_none());
        assert!(vc.head_mut(&mut store).is_none());
        vc.push(&mut store, packet(7, 8));
        assert_eq!(vc.head(&store).unwrap().id, PacketId(7));
        vc.head_mut(&mut store).unwrap().routing.local_hops = 2;
        assert_eq!(vc.head(&store).unwrap().routing.local_hops, 2);
    }

    #[test]
    fn input_port_aggregates_vcs() {
        let mut store = PacketStore::new();
        let mut port = InputPort::new(PortClass::Local, 3, 32);
        assert_eq!(port.num_vcs(), 3);
        port.vc_mut(0).push(&mut store, packet(1, 8));
        port.vc_mut(2).push(&mut store, packet(2, 8));
        assert_eq!(port.occupancy_phits(), 16);
        assert_eq!(port.vcs().map(InputVc::len).sum::<usize>(), 2);
        assert_eq!(port.class(), PortClass::Local);
        assert_eq!(store.live(), 2, "both VCs queue through one store");
    }

    /// Restore `bytes` into a fresh VC of `capacity` phits over a fresh
    /// store; the error (if any) and the slots the store ended with.
    fn restore(capacity: u32, bytes: &[u8]) -> (Result<(), df_engine::CodecError>, usize) {
        let mut store = PacketStore::new();
        let result =
            InputVc::new(capacity).restore_state(&mut store, &mut df_engine::Decoder::new(bytes));
        (result, store.slots())
    }

    #[test]
    fn hostile_vc_bytes_are_typed_errors() {
        let invalid = |what: &str, bytes: Vec<u8>| {
            let (result, _) = restore(8, &bytes);
            assert!(
                matches!(result, Err(df_engine::CodecError::Invalid(_))),
                "{what}: {result:?}"
            );
        };
        let mut e = df_engine::Encoder::new();
        e.seq(2);
        packet(1, 8).encode(&mut e);
        packet(2, 8).encode(&mut e);
        e.bool(false);
        e.bool(false);
        invalid("over capacity", e.into_bytes());
        let mut e = df_engine::Encoder::new();
        e.seq(0);
        e.bool(true);
        e.u32(4);
        e.bool(false);
        invalid("registration on an empty VC", e.into_bytes());
        // a queue length no frame could hold is refused before any slot
        let mut e = df_engine::Encoder::new();
        e.seq(usize::MAX / 8);
        let (result, slots) = restore(8, &e.into_bytes());
        assert!(result.is_err() && slots == 0, "{result:?}, {slots} slots");
    }

    #[test]
    fn a_forged_queue_length_allocates_no_more_slots_than_the_bytes_hold() {
        // one real packet, then a length claiming every remaining 8 bytes
        // is a packet: the decode fails on the second, having filled one slot
        let mut e = df_engine::Encoder::new();
        packet(1, 8).encode(&mut e);
        let body = e.into_bytes();
        let mut e = df_engine::Encoder::new();
        e.seq(body.len() / 8);
        let mut bytes = e.into_bytes();
        bytes.extend_from_slice(&body);
        let (result, slots) = restore(1 << 20, &bytes);
        assert!(result.is_err());
        assert!(
            slots <= bytes.len() / 8,
            "{slots} slots from {} bytes",
            bytes.len()
        );
        assert_eq!(slots, 1);
    }
}
