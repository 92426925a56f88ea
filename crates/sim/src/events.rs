//! The in-flight event queue: packets and credits travelling on links.
//!
//! Links are not modelled as objects; instead, every transfer schedules an
//! event for the cycle at which it completes (tail arrival for packets,
//! credit arrival for flow control). Events complete in `(time, insertion
//! sequence)` order.
//!
//! [`EventQueue`] is a **time wheel**: a ring of per-cycle buckets sized to
//! the maximum scheduling horizon (packet serialisation + the longest link
//! latency), with a small `BTreeMap` overflow for an event scheduled beyond
//! the horizon (the kernel never schedules one; a direct caller may). Scheduling is O(1), draining a cycle is O(events in
//! that cycle), and in steady state neither allocates: buckets are recycled
//! ring slots whose capacity persists, and [`EventQueue::pop_due_into`] fills
//! a caller-owned scratch buffer. An empty current bucket is a no-op fast
//! path (one length check).
//!
//! The wheel yields exactly the `(time, seq)` order of a priority queue:
//! bucket entries are appended in sequence order, and an overflow entry for
//! cycle `t` is always older (smaller sequence) than any bucket entry for
//! `t`, because once `t` enters the horizon every later schedule lands in the
//! bucket — so draining overflow-then-bucket is in order. The unit tests
//! check this against a `BinaryHeap` model.

use df_model::{Cycle, Packet, VcId};
use df_topology::{Port, RouterId};
use std::collections::BTreeMap;

/// Something that completes at a future cycle.
#[derive(Debug, Clone)]
pub enum Event {
    /// A packet's tail arrives at an input VC of a router.
    PacketArrival {
        /// Destination router.
        router: RouterId,
        /// Input port on that router.
        port: Port,
        /// Input VC on that port.
        vc: VcId,
        /// The packet.
        packet: Packet,
    },
    /// Credits return to an output port of a router (the downstream router
    /// drained a packet).
    CreditReturn {
        /// Router owning the output port.
        router: RouterId,
        /// The output port.
        port: Port,
        /// Downstream VC the credits belong to.
        vc: VcId,
        /// Number of phits freed.
        phits: u32,
    },
    /// A packet is delivered to its destination node, `packet.dst`.
    Delivery {
        /// The packet.
        packet: Packet,
    },
}

/// Time-wheel event queue.
pub struct EventQueue {
    /// Ring of per-cycle buckets; slot `t & mask` holds the events for cycle
    /// `t` whenever `t` lies within the horizon of `now`.
    buckets: Vec<Vec<(u64, Event)>>,
    /// `buckets.len() - 1` (bucket count is a power of two).
    mask: usize,
    /// First cycle not yet drained; all pending bucket events are at cycles
    /// in `[now, now + buckets.len())`.
    now: Cycle,
    /// Far-future events, beyond the wheel horizon.
    overflow: BTreeMap<Cycle, Vec<(u64, Event)>>,
    /// Total pending events (buckets + overflow).
    len: usize,
    /// Monotonic insertion sequence (the deterministic tie-breaker).
    seq: u64,
}

impl EventQueue {
    /// Empty queue whose ring covers at least `min_horizon` cycles ahead
    /// (rounded up to a power of two). Events scheduled further out than the
    /// ring covers fall back to the overflow map — correct, just slower.
    pub fn with_horizon(min_horizon: usize) -> Self {
        let size = min_horizon.max(2).next_power_of_two();
        EventQueue {
            buckets: (0..size).map(|_| Vec::new()).collect(),
            mask: size - 1,
            now: 0,
            overflow: BTreeMap::new(),
            len: 0,
            seq: 0,
        }
    }

    /// Number of ring slots (the scheduling horizon in cycles).
    pub fn horizon(&self) -> usize {
        self.buckets.len()
    }

    /// Schedule `event` to complete at cycle `at`.
    ///
    /// Events must not be scheduled in the past; `at` is clamped to the
    /// current drain position so a same-cycle schedule still completes.
    pub fn schedule(&mut self, at: Cycle, event: Event) {
        let at = at.max(self.now);
        let entry = (self.seq, event);
        self.seq += 1;
        self.len += 1;
        if (at - self.now) < self.buckets.len() as Cycle {
            self.buckets[(at as usize) & self.mask].push(entry);
        } else {
            self.overflow.entry(at).or_default().push(entry);
        }
    }

    /// Drain every event scheduled at or before `now` into `out` (cleared
    /// first), in `(time, insertion)` order. When nothing is pending this is
    /// a no-op fast path: one length check, no bucket walk.
    pub fn pop_due_into(&mut self, now: Cycle, out: &mut Vec<Event>) {
        out.clear();
        if now < self.now {
            return;
        }
        if self.len == 0 {
            // Empty-queue fast path: just advance the drain position.
            self.now = now + 1;
            return;
        }
        for t in self.now..=now {
            // Overflow entries for `t` predate every bucket entry for `t`
            // (see the module docs), so they drain first.
            if let Some(first) = self.overflow.first_key_value() {
                if *first.0 == t {
                    let entries = self.overflow.pop_first().expect("checked non-empty").1;
                    self.len -= entries.len();
                    out.extend(entries.into_iter().map(|(_, e)| e));
                }
            }
            let bucket = &mut self.buckets[(t as usize) & self.mask];
            if !bucket.is_empty() {
                self.len -= bucket.len();
                out.extend(bucket.drain(..).map(|(_, e)| e));
            }
        }
        self.now = now + 1;
    }

    #[cfg(test)]
    fn pop_due(&mut self, now: Cycle) -> Vec<Event> {
        let mut out = Vec::new();
        self.pop_due_into(now, &mut out);
        out
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no event is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every pending event with its completion cycle, borrowed, in exact
    /// drain order — the order [`EventQueue::pop_due_into`] would produce:
    /// cycle by cycle through the wheel, each cycle's overflow entries
    /// before its bucket entries (both already in insertion order, see the
    /// module docs), then the overflow beyond the horizon. Used by the
    /// snapshot subsystem.
    pub fn pending_in_order(&self) -> impl Iterator<Item = (Cycle, &Event)> + '_ {
        let wheel_end = self.now + self.buckets.len() as Cycle;
        let wheel = (self.now..wheel_end).flat_map(move |t| {
            let overflow = self.overflow.get(&t).into_iter().flatten();
            let bucket = &self.buckets[(t as usize) & self.mask];
            overflow
                .chain(bucket)
                .map(move |(seq, event)| (t, *seq, event))
        });
        let beyond = (self.overflow.range(wheel_end..))
            .flat_map(|(&t, entries)| entries.iter().map(move |(seq, event)| (t, *seq, event)));
        let mut last = None;
        wheel.chain(beyond).map(move |(t, seq, event)| {
            debug_assert!(last < Some((t, seq)), "pending events out of drain order");
            last = Some((t, seq));
            (t, event)
        })
    }

    /// The packet of every pending arrival and delivery, in no particular
    /// order: the packets on the links.
    pub fn packets(&self) -> impl Iterator<Item = &Packet> + '_ {
        let events = self.buckets.iter().chain(self.overflow.values()).flatten();
        events.filter_map(|(_, event)| match event {
            Event::PacketArrival { packet, .. } | Event::Delivery { packet } => Some(packet),
            Event::CreditReturn { .. } => None,
        })
    }

    /// Rebuild a queue positioned at drain cycle `now` holding `events`
    /// (given in drain order, as produced by
    /// [`EventQueue::pending_in_order`]). Fresh insertion sequences `0..`
    /// preserve the relative order, and every restored event predates — in
    /// sequence — anything scheduled afterwards, exactly as in the original
    /// queue.
    pub fn rebuild(
        min_horizon: usize,
        now: Cycle,
        events: impl IntoIterator<Item = (Cycle, Event)>,
    ) -> Self {
        let mut q = Self::with_horizon(min_horizon);
        q.now = now;
        for (at, event) in events {
            q.schedule(at, event);
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_model::PacketId;
    use df_topology::NodeId;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The legacy `BinaryHeap` queue the wheel replaced, kept as the ordering
    /// model: a min-heap on `(time, insertion sequence)`, with the event id
    /// as payload.
    #[derive(Default)]
    struct LegacyHeapModel {
        heap: BinaryHeap<Reverse<(Cycle, u64, u32)>>,
        seq: u64,
    }

    impl LegacyHeapModel {
        fn schedule(&mut self, at: Cycle, id: u32) {
            self.heap.push(Reverse((at, self.seq, id)));
            self.seq += 1;
        }

        fn pop_due(&mut self, now: Cycle) -> Vec<u32> {
            let mut due = Vec::new();
            while let Some(&Reverse((at, _, id))) = self.heap.peek() {
                if at > now {
                    break;
                }
                self.heap.pop();
                due.push(id);
            }
            due
        }
    }

    fn credit(router: u32, at_seq: u32) -> Event {
        Event::CreditReturn {
            router: RouterId(router),
            port: Port(at_seq),
            vc: VcId(0),
            phits: 8,
        }
    }

    fn routers_of(events: &[Event]) -> Vec<u32> {
        events
            .iter()
            .map(|e| match e {
                Event::CreditReturn { router, .. } => router.0,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::with_horizon(256);
        q.schedule(30, credit(3, 0));
        q.schedule(10, credit(1, 1));
        q.schedule(20, credit(2, 2));
        assert_eq!(q.len(), 3);
        let due = q.pop_due(25);
        assert_eq!(due.len(), 2);
        assert_eq!(routers_of(&due), vec![1, 2]);
        assert_eq!(q.len(), 1);
        assert!(q.pop_due(29).is_empty());
        assert_eq!(q.pop_due(30).len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn same_cycle_events_keep_insertion_order() {
        let mut q = EventQueue::with_horizon(256);
        for i in 0..5 {
            q.schedule(42, credit(i, i));
        }
        let due = q.pop_due(42);
        assert_eq!(routers_of(&due), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn packet_and_delivery_events_round_trip() {
        let mut q = EventQueue::with_horizon(256);
        let p = Packet::new(PacketId(9), NodeId(0), NodeId(5), 8, 0);
        q.schedule(
            7,
            Event::PacketArrival {
                router: RouterId(1),
                port: Port(2),
                vc: VcId(1),
                packet: p.clone(),
            },
        );
        q.schedule(5, Event::Delivery { packet: p });
        let due = q.pop_due(10);
        assert!(matches!(due[0], Event::Delivery { .. }));
        assert!(matches!(due[1], Event::PacketArrival { .. }));
    }

    #[test]
    fn empty_cycles_are_a_no_op_fast_path() {
        let mut q = EventQueue::with_horizon(16);
        let mut out = Vec::new();
        // draining an empty queue does nothing and keeps no stale state
        for t in 0..100 {
            q.pop_due_into(t, &mut out);
            assert!(out.is_empty());
        }
        assert!(q.is_empty());
        // scheduling after a long quiet period still lands correctly
        q.schedule(150, credit(7, 0));
        q.pop_due_into(149, &mut out);
        assert!(out.is_empty(), "not due yet");
        q.pop_due_into(150, &mut out);
        assert_eq!(routers_of(&out), vec![7]);
        assert!(q.is_empty());
        // buffer capacity survives for reuse; a later drain reuses it
        let cap = out.capacity();
        q.schedule(151, credit(8, 0));
        q.pop_due_into(151, &mut out);
        assert_eq!(routers_of(&out), vec![8]);
        assert!(out.capacity() >= cap.min(1));
    }

    #[test]
    fn far_future_events_overflow_and_return_in_order() {
        let mut q = EventQueue::with_horizon(8);
        assert_eq!(q.horizon(), 8);
        // seq 0 lands in overflow (beyond the 8-cycle horizon)
        q.schedule(100, credit(0, 0));
        // seq 1 in a near bucket
        q.schedule(3, credit(1, 1));
        assert_eq!(q.len(), 2);
        assert_eq!(routers_of(&q.pop_due(50)), vec![1]);
        assert_eq!(q.len(), 1, "the overflow event is still pending");
        // now cycle 100 is within the horizon of later schedules: a newer
        // event for the same cycle must drain *after* the overflow one
        let mut q2 = EventQueue::with_horizon(8);
        q2.schedule(100, credit(0, 0)); // overflow, seq 0
        let mut out = Vec::new();
        q2.pop_due_into(97, &mut out); // advance near 100
        q2.schedule(100, credit(1, 1)); // bucket, seq 1
        q2.pop_due_into(100, &mut out);
        assert_eq!(routers_of(&out), vec![0, 1]);
    }

    #[test]
    fn wheel_matches_legacy_heap_on_mixed_schedules() {
        // Pseudo-random schedule pattern interleaving near, far and
        // same-cycle events: both implementations must produce identical
        // drain sequences.
        let mut wheel = EventQueue::with_horizon(16);
        let mut heap = LegacyHeapModel::default();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut rnd = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut id = 0u32;
        for now in 0..200u64 {
            for _ in 0..(rnd() % 4) {
                let at = now + 1 + rnd() % 40;
                wheel.schedule(at, credit(id, id));
                heap.schedule(at, id);
                id += 1;
            }
            // the snapshot's listing is the heap's whole order
            let listed: Vec<(Cycle, u32)> = (wheel.pending_in_order())
                .map(|(t, e)| (t, routers_of(std::slice::from_ref(e))[0]))
                .collect();
            let mut ordered: Vec<_> = heap.heap.iter().map(|r| r.0).collect();
            ordered.sort_unstable();
            let ordered: Vec<(Cycle, u32)> = ordered.iter().map(|&(t, _, id)| (t, id)).collect();
            assert_eq!(listed, ordered, "pending order at cycle {now}");
            let a = wheel.pop_due(now);
            assert_eq!(
                routers_of(&a),
                heap.pop_due(now),
                "divergence at cycle {now}"
            );
        }
        // drain the tail
        let a = wheel.pop_due(1_000);
        assert_eq!(routers_of(&a), heap.pop_due(1_000));
        assert!(wheel.is_empty() && heap.heap.is_empty());
    }
}
