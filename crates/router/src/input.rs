//! Input VCs and the per-port view over them.
//!
//! Virtual Cut-Through switching: packets are stored whole, occupancy is
//! accounted in phits, and a packet is removed in one piece when it wins
//! switch allocation. Each VC additionally tracks which output port the head
//! packet's *minimal* route uses, so the contention counters can be
//! incremented exactly once per head packet and decremented when it leaves
//! (§III-B of the paper).
//!
//! A router keeps all its input VCs in one flat array, port by port. A VC
//! is only its state (28 bytes: FIFO, occupancy, plan, and the two
//! registrations in narrow fields with a sentinel); its capacity is its
//! port class's, which [`InputPort`], a borrowed view of one port's VCs,
//! carries beside them.

use df_model::{Packet, PacketBounds, VcId};
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

/// `registered_min_output` of a VC whose head is not registered.
const UNREGISTERED: u8 = u8::MAX;

/// `registered_ectn_link` of a VC whose head holds no ECtN registration.
const NO_ECTN_LINK: u16 = u16::MAX;

/// One virtual channel of an input port: its queue is a FIFO through the
/// router's packet store; its capacity is its port class's.
#[derive(Debug, Clone)]
pub struct InputVc {
    pub(crate) fifo: Fifo,
    occupancy_phits: u32,
    /// The routing layer's plan for the head (None until first decided).
    plan: Option<HeadPlan>,
    /// Group-level global link registered in the ECtN partial array for the
    /// current head packet ([`NO_ECTN_LINK`]: none).
    registered_ectn_link: u16,
    /// Output port registered in the contention counters for the current
    /// head packet ([`UNREGISTERED`]: not registered yet).
    registered_min_output: u8,
}

impl InputVc {
    /// An empty VC.
    pub(crate) const EMPTY: InputVc = InputVc {
        fifo: Fifo::EMPTY,
        occupancy_phits: 0,
        plan: None,
        registered_ectn_link: NO_ECTN_LINK,
        registered_min_output: UNREGISTERED,
    };

    /// Occupied phits.
    pub(crate) fn occupancy_phits(&self) -> u32 {
        self.occupancy_phits
    }

    /// Number of whole packets queued.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the VC holds no packet.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Enqueue an arriving packet into `store`, the VC holding at most
    /// `capacity_phits`.
    ///
    /// # Panics
    /// Panics if the packet does not fit — credit-based flow control must
    /// have prevented the upstream router from sending it, so this is a flow
    /// control bug, not a recoverable condition.
    pub(crate) fn push(&mut self, store: &mut PacketStore, packet: Packet, capacity_phits: u32) {
        assert!(
            capacity_phits - self.occupancy_phits >= packet.size_phits,
            "input VC overflow: occupancy {}/{capacity_phits} cannot take {} phits (flow-control bug)",
            self.occupancy_phits,
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
        let head = UnlinkedHead {
            slot,
            registered_min_output: self.registered_min_output(),
            registered_ectn_link: self.registered_ectn_link(),
        };
        (self.registered_min_output, self.registered_ectn_link) = (UNREGISTERED, NO_ECTN_LINK);
        Some(head)
    }

    /// The output port registered in the contention counters for the current
    /// head (if any).
    #[inline]
    pub fn registered_min_output(&self) -> Option<Port> {
        (self.registered_min_output != UNREGISTERED)
            .then(|| Port(u32::from(self.registered_min_output)))
    }

    /// The ECtN partial-array link registered for the current head (if any).
    #[inline]
    pub(crate) fn registered_ectn_link(&self) -> Option<u32> {
        (self.registered_ectn_link != NO_ECTN_LINK).then(|| u32::from(self.registered_ectn_link))
    }

    /// The routing layer's plan for the current head, if one was made.
    #[inline]
    pub fn plan(&self) -> Option<HeadPlan> {
        self.plan
    }

    /// Park the routing layer's plan for the current head packet.
    pub(crate) fn set_plan(&mut self, plan: HeadPlan) {
        debug_assert!(!self.is_empty(), "cannot plan for an empty VC");
        self.plan = Some(plan);
    }

    /// Record that the current head packet has been registered against
    /// `port` in the contention counters and, if given, against
    /// group-level global link `ectn_link` in the ECtN partial array.
    pub(crate) fn register(&mut self, port: Port, ectn_link: Option<u32>) {
        debug_assert!(self.head_needs_registration(), "register a new head once");
        self.registered_min_output = u8::try_from(port.0).expect("a port index is below MAX_RADIX");
        if let Some(link) = ectn_link {
            self.registered_ectn_link = u16::try_from(link)
                .ok()
                .filter(|&link| link != NO_ECTN_LINK)
                .expect("a group has fewer than MAX_RADIX² links");
        }
    }

    /// Whether the current head still needs to be registered in the
    /// contention counters.
    #[inline]
    pub fn head_needs_registration(&self) -> bool {
        !self.is_empty() && self.registered_min_output == UNREGISTERED
    }

    /// Serialise the persistent state of this VC (queued packets and head
    /// registrations, each registration as an optional `u32`).
    pub(crate) fn save_state(&self, store: &PacketStore, e: &mut df_engine::Encoder) {
        e.seq(self.len());
        for slot in store.iter(&self.fifo) {
            slot.packet().encode(e);
        }
        e.option(self.registered_min_output(), |e, port| e.u32(port.0));
        e.option(self.registered_ectn_link(), df_engine::Encoder::u32);
    }

    /// Restore the persistent state written by [`InputVc::save_state`],
    /// refilling the queue into `store` (emptied by the caller). Occupancy is
    /// recomputed from the packets and validated against `capacity_phits`; a
    /// registered port must lie below `radix`, an ECtN link below
    /// `ectn_links` and a packet fit `bounds`.
    pub(crate) fn restore_state(
        &mut self,
        store: &mut PacketStore,
        d: &mut df_engine::Decoder,
        capacity_phits: u32,
        (radix, ectn_links, bounds): (usize, usize, &PacketBounds),
    ) -> Result<(), df_engine::CodecError> {
        let invalid = |what: String| Err(df_engine::CodecError::Invalid(what));
        *self = InputVc::EMPTY;
        let mut occupancy = 0u64;
        for _ in 0..d.seq(8)? {
            let p = Packet::decode(d, bounds)?;
            occupancy += p.size_phits as u64;
            store.push_back(&mut self.fifo, p);
        }
        if occupancy > capacity_phits as u64 {
            return invalid(format!(
                "input VC occupancy {occupancy} exceeds capacity {capacity_phits}"
            ));
        }
        self.occupancy_phits = occupancy as u32;
        let min_output = d.option(df_engine::Decoder::u32)?;
        let ectn_link = d.option(df_engine::Decoder::u32)?;
        if self.is_empty() && (min_output.is_some() || ectn_link.is_some()) {
            return invalid("head registration on an empty input VC".into());
        }
        // an ECtN registration comes with a contention registration
        let port_ok = min_output.map_or(ectn_link.is_none(), |port| (port as usize) < radix);
        if !port_ok || ectn_link.is_some_and(|link| link as usize >= ectn_links) {
            return invalid(format!(
                "registration {min_output:?}/{ectn_link:?} outside a radix-{radix} router \
                 of {ectn_links} ECtN links"
            ));
        }
        if let Some(port) = min_output {
            self.register(Port(port), ectn_link);
        }
        Ok(())
    }
}

/// One input port of a router: a borrowed view of its VCs in the router's
/// flat VC array, with the per-VC capacity of its class.
#[derive(Debug, Clone, Copy)]
pub struct InputPort<'a> {
    pub(crate) class: PortClass,
    pub(crate) capacity_phits: u32,
    pub(crate) vcs: &'a [InputVc],
}

impl<'a> InputPort<'a> {
    /// Port class (terminal / local / global).
    pub fn class(&self) -> PortClass {
        self.class
    }

    /// Number of virtual channels.
    pub fn num_vcs(&self) -> usize {
        self.vcs.len()
    }

    /// Borrow a VC.
    #[inline]
    pub fn vc(&self, vc: usize) -> &'a InputVc {
        &self.vcs[vc]
    }

    /// Whether a packet of `size_phits` fits into VC `vc`.
    pub(crate) fn can_accept(&self, vc: usize, size_phits: u32) -> bool {
        self.capacity_phits - self.vc(vc).occupancy_phits >= size_phits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_model::{Packet, PacketId};
    use df_topology::{Dragonfly, DragonflyParams, NodeId};

    fn packet(id: u64, size: u32) -> Packet {
        Packet::new(PacketId(id), NodeId(0), NodeId(9), size, 0)
    }

    /// Unlink the head and move its packet out of the store.
    fn pop(vc: &mut InputVc, store: &mut PacketStore) -> Option<(Packet, UnlinkedHead)> {
        let head = vc.unlink_head(store)?;
        Some((store.take(head.slot), head))
    }

    /// The view of one VC of `capacity` phits.
    fn port_of(vc: &InputVc, capacity: u32) -> InputPort<'_> {
        let (class, vcs) = (PortClass::Local, std::slice::from_ref(vc));
        InputPort {
            class,
            capacity_phits: capacity,
            vcs,
        }
    }

    #[test]
    fn a_vc_is_its_state_only() {
        assert!(std::mem::size_of::<InputVc>() <= 28);
        let vc = InputVc::EMPTY;
        assert_eq!(
            (vc.registered_min_output(), vc.registered_ectn_link()),
            (None, None)
        );
    }

    #[test]
    fn push_pop_tracks_occupancy() {
        let mut store = PacketStore::new();
        let mut vc = InputVc::EMPTY;
        assert!(vc.is_empty());
        assert!(port_of(&vc, 32).can_accept(0, 32));
        vc.push(&mut store, packet(1, 8), 32);
        vc.push(&mut store, packet(2, 8), 32);
        assert_eq!(vc.len(), 2);
        assert_eq!(vc.occupancy_phits(), 16);
        assert_eq!(
            (
                port_of(&vc, 32).can_accept(0, 16),
                port_of(&vc, 32).can_accept(0, 17)
            ),
            (true, false)
        );
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
        let mut vc = InputVc::EMPTY;
        assert!(port_of(&vc, 16).can_accept(0, 8));
        vc.push(&mut store, packet(1, 8), 16);
        assert!(port_of(&vc, 16).can_accept(0, 8));
        vc.push(&mut store, packet(2, 8), 16);
        assert!(!port_of(&vc, 16).can_accept(0, 8));
        assert!(port_of(&vc, 16).can_accept(0, 0));
    }

    #[test]
    #[should_panic(expected = "input VC overflow")]
    fn overflow_is_a_flow_control_bug() {
        let mut store = PacketStore::new();
        let mut vc = InputVc::EMPTY;
        vc.push(&mut store, packet(1, 8), 8);
        vc.push(&mut store, packet(2, 8), 8);
    }

    #[test]
    fn registration_lifecycle() {
        let mut store = PacketStore::new();
        let mut vc = InputVc::EMPTY;
        assert!(!vc.head_needs_registration(), "empty VC needs nothing");
        vc.push(&mut store, packet(1, 8), 32);
        assert!(vc.head_needs_registration());
        vc.register(Port(4), Some(3));
        assert!(!vc.head_needs_registration());
        assert_eq!(vc.registered_min_output(), Some(Port(4)));
        assert_eq!(vc.registered_ectn_link(), Some(3));
        vc.push(&mut store, packet(2, 8), 32);
        // still the same head; no new registration needed
        assert!(!vc.head_needs_registration());
        let (_, head) = pop(&mut vc, &mut store).unwrap();
        assert_eq!(head.registered_min_output, Some(Port(4)));
        assert_eq!(head.registered_ectn_link, Some(3));
        // new head needs registration again
        assert!(vc.head_needs_registration());
        assert_eq!(vc.registered_ectn_link(), None);
        vc.register(Port(0), None);
        assert_eq!(
            (vc.registered_min_output(), vc.registered_ectn_link()),
            (Some(Port(0)), None)
        );
    }

    #[test]
    fn plan_lifecycle() {
        // six bytes beside the registrations, niche included
        assert_eq!(std::mem::size_of::<Option<HeadPlan>>(), 6);
        let plan = HeadPlan {
            objective: PlannedObjective::Destination,
            scope: HeadPlan::AT_SOURCE | HeadPlan::GLOBAL_SCOPE,
            port: 5,
            vc: VcId(1),
            min_link: 3,
        };
        assert!(plan.has(HeadPlan::GLOBAL_SCOPE) && !plan.has(HeadPlan::LOCAL_SCOPE));
        assert_eq!(plan.output(), Port(5));
        let mut store = PacketStore::new();
        let mut vc = InputVc::EMPTY;
        vc.push(&mut store, packet(1, 8), 32);
        assert_eq!(vc.plan(), None);
        vc.set_plan(plan);
        vc.push(&mut store, packet(2, 8), 32);
        assert_eq!(vc.plan(), Some(plan), "still the same head");
        pop(&mut vc, &mut store);
        assert_eq!(vc.plan(), None, "a new head has no plan");
        vc.set_plan(plan);
        vc.head_mut(&mut store).unwrap().routing.local_hops = 1;
        assert_eq!(vc.plan(), None, "a mutated head has no plan");
    }

    #[test]
    fn head_accessors() {
        let mut store = PacketStore::new();
        let mut vc = InputVc::EMPTY;
        assert!(vc.head(&store).is_none());
        assert!(vc.head_mut(&mut store).is_none());
        vc.push(&mut store, packet(7, 8), 32);
        assert_eq!(vc.head(&store).unwrap().id, PacketId(7));
        vc.head_mut(&mut store).unwrap().routing.local_hops = 2;
        assert_eq!(vc.head(&store).unwrap().routing.local_hops, 2);
    }

    #[test]
    fn input_port_aggregates_vcs() {
        let mut store = PacketStore::new();
        let mut vcs = [InputVc::EMPTY; 3];
        vcs[0].push(&mut store, packet(1, 8), 32);
        vcs[2].push(&mut store, packet(2, 8), 32);
        let port = InputPort {
            class: PortClass::Local,
            capacity_phits: 32,
            vcs: &vcs,
        };
        assert_eq!(port.num_vcs(), 3);
        assert_eq!(
            port.vcs.iter().map(InputVc::occupancy_phits).sum::<u32>(),
            16
        );
        assert_eq!(port.vcs.iter().map(InputVc::len).sum::<usize>(), 2);
        assert_eq!((port.class(), port.capacity_phits), (PortClass::Local, 32));
        assert_eq!(store.live(), 2, "both VCs queue through one store");
    }

    /// Restore `bytes` into a fresh VC of `capacity` phits in a radix-7
    /// router of a 16-link group in a 72-node network, over a fresh store;
    /// the error (if any) and the slots the store ended with.
    fn restore(capacity: u32, bytes: &[u8]) -> (Result<(), df_engine::CodecError>, usize) {
        let mut store = PacketStore::new();
        let mut vc = InputVc::EMPTY;
        let bounds = PacketBounds::new(&Dragonfly::new(DragonflyParams::small()), 8);
        let result = vc.restore_state(
            &mut store,
            &mut df_engine::Decoder::new(bytes),
            capacity,
            (7, 16, &bounds),
        );
        (result, store.slots())
    }

    /// One queued 8-phit packet with the given registrations.
    fn registered(min_output: Option<u32>, ectn_link: Option<u32>) -> Vec<u8> {
        let mut e = df_engine::Encoder::new();
        e.seq(1);
        packet(1, 8).encode(&mut e);
        for registration in [min_output, ectn_link] {
            e.option(registration, df_engine::Encoder::u32);
        }
        e.into_bytes()
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
    fn registrations_outside_the_router_are_typed_errors() {
        let (ok, _) = restore(8, &registered(Some(6), Some(15)));
        assert!(ok.is_ok(), "{ok:?}");
        for (what, bytes) in [
            ("registered port at the radix", registered(Some(7), None)),
            ("registered port 200", registered(Some(200), None)),
            ("ECtN link past the group", registered(Some(6), Some(16))),
            (
                "ECtN link at the sentinel",
                registered(Some(6), Some(0xffff)),
            ),
            ("ECtN link without a port", registered(None, Some(3))),
        ] {
            let (result, _) = restore(8, &bytes);
            assert!(
                matches!(result, Err(df_engine::CodecError::Invalid(_))),
                "{what}: {result:?}"
            );
        }
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
