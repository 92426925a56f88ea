//! Contention counters — the paper's core mechanism (§III-B).
//!
//! One counter per output port tracks how many packets currently sitting at
//! the head of the router's input VCs would use that port on their *minimal*
//! path. The counter is incremented when a packet header reaches the head of
//! an input buffer and decremented when the packet leaves that input buffer
//! (whether it was finally forwarded minimally or not). Because the counter
//! tracks *demand* rather than *service*, it reacts immediately to a traffic
//! change and is completely decoupled from buffer sizes — the two properties
//! the paper exploits.
//!
//! The bank is a pure function of the registered heads, so a snapshot
//! stores none of it: [`crate::Router::restore_state`] recounts it.

use df_topology::Port;

/// A bank of per-output-port contention counters.
#[derive(Debug, Clone)]
pub struct ContentionCounters {
    counters: Vec<u32>,
}

impl ContentionCounters {
    /// Create a bank with one counter per router port.
    pub fn new(num_ports: usize) -> Self {
        ContentionCounters {
            counters: vec![0; num_ports],
        }
    }

    /// Number of counters (equal to the router radix).
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the bank is empty (zero ports).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Current value of the counter for `port`.
    #[inline]
    pub fn get(&self, port: Port) -> u32 {
        self.counters[port.index()]
    }

    /// Increment the counter for `port` (a packet whose minimal route uses
    /// `port` reached the head of an input VC).
    #[inline]
    pub fn increment(&mut self, port: Port) {
        self.counters[port.index()] += 1;
    }

    /// Decrement the counter for `port` (the packet that had been registered
    /// left its input buffer).
    ///
    /// # Panics
    /// Panics on underflow: a decrement without a matching increment is a
    /// bookkeeping bug in the caller.
    #[inline]
    pub fn decrement(&mut self, port: Port) {
        let c = &mut self.counters[port.index()];
        assert!(*c > 0, "contention counter underflow on port {port}");
        *c -= 1;
    }

    /// Sum of all counters — equals the number of registered head packets.
    pub fn total(&self) -> u32 {
        self.counters.iter().sum()
    }

    /// Iterate over `(port, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Port, u32)> + '_ {
        self.counters
            .iter()
            .enumerate()
            .map(|(i, &v)| (Port(i as u32), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increment_decrement_round_trip() {
        let mut c = ContentionCounters::new(7);
        assert_eq!(c.total(), 0);
        c.increment(Port(2));
        c.increment(Port(2));
        c.increment(Port(5));
        assert_eq!(c.get(Port(2)), 2);
        assert_eq!(c.get(Port(5)), 1);
        assert_eq!(c.get(Port(0)), 0);
        assert_eq!(c.total(), 3);
        c.decrement(Port(2));
        assert_eq!(c.get(Port(2)), 1);
        assert_eq!(c.total(), 2);
        c.decrement(Port(2));
        c.decrement(Port(5));
        assert_eq!(c.total(), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let mut c = ContentionCounters::new(2);
        c.decrement(Port(0));
    }

    #[test]
    fn iter_lists_every_port() {
        let mut c = ContentionCounters::new(4);
        c.increment(Port(3));
        let v: Vec<_> = c.iter().collect();
        assert_eq!(v.len(), 4);
        assert_eq!(v[3], (Port(3), 1));
        assert_eq!(v[0], (Port(0), 0));
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
    }

    #[test]
    fn this_is_figure3() {
        // The worked example of the paper's Figure 3: six input ports whose
        // head packets minimally target P2 (×4), P3 (×1) and P5 (×1). With
        // threshold th=3 (scaled-down example), P2 is contended.
        let mut c = ContentionCounters::new(6);
        for _ in 0..4 {
            c.increment(Port(1)); // P2 in the figure (0-based port 1)
        }
        c.increment(Port(2));
        c.increment(Port(4));
        let th = 3;
        assert!(c.get(Port(1)) > th);
        assert!(c.get(Port(2)) <= th);
        assert!(c.get(Port(4)) <= th);
    }
}
