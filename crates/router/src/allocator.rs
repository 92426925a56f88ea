//! Separable input-first switch allocator.
//!
//! The paper's simulation infrastructure (§IV-B) uses "a separable batch
//! allocator, with 2× frequency speedup (internal or crossbar speedup) to
//! avoid performance limitations due to Head-of-Line Blocking and suboptimal
//! arbitration". We model it as a classic two-stage separable allocator:
//!
//! 1. **input stage** — every input port selects at most one of its
//!    requesting VCs (round-robin priority per input port), considering only
//!    requests whose output currently has resources,
//! 2. **output stage** — every output port selects at most one of the
//!    input-stage winners requesting it (round-robin priority over input
//!    ports).
//!
//! The simulator invokes the allocator `speedup` times per cycle, applying
//! the grants (and therefore updating buffer/credit state and queue heads)
//! between iterations, which is what gives the 2× internal speedup.

use df_model::VcId;
use df_topology::Port;

/// A request from an input VC head packet for an output port/VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationRequest {
    /// Input port holding the packet.
    pub input_port: Port,
    /// Input VC holding the packet.
    pub input_vc: VcId,
    /// Requested output port.
    pub output_port: Port,
    /// Requested downstream VC on that output.
    pub output_vc: VcId,
    /// Packet size in phits (for the resource check).
    pub size_phits: u32,
}

/// A granted request.
pub type Grant = AllocationRequest;

/// Separable input-first allocator with per-port round-robin priority.
///
/// All grouping state lives in persistent per-port scratch buffers, so an
/// allocation iteration performs **zero heap allocations** in steady state
/// (capacities grow to the per-router maximum once and are then reused) —
/// this is on the per-cycle critical path of every active router.
#[derive(Debug, Clone)]
pub struct Allocator {
    /// Round-robin pointer per input port (over VC indices).
    input_rr: Vec<usize>,
    /// Round-robin pointer per output port (over input-port indices).
    output_rr: Vec<usize>,
    // ---- persistent scratch (cleared per iteration, capacity retained) ----
    /// Per input port: indices into the request slice.
    by_input: Vec<Vec<u32>>,
    /// Input ports in first-appearance order.
    input_order: Vec<u32>,
    /// Input-stage winners.
    candidates: Vec<AllocationRequest>,
    /// Per output port: indices into `candidates`.
    by_output: Vec<Vec<u32>>,
    /// Output ports in first-appearance order.
    output_order: Vec<u32>,
}

impl Allocator {
    /// Create an allocator for a router with `num_ports` ports.
    pub fn new(num_ports: usize) -> Self {
        Allocator {
            input_rr: vec![0; num_ports],
            output_rr: vec![0; num_ports],
            by_input: vec![Vec::new(); num_ports],
            input_order: Vec::new(),
            candidates: Vec::new(),
            by_output: vec![Vec::new(); num_ports],
            output_order: Vec::new(),
        }
    }

    /// Perform one allocation iteration, appending grants to `grants`
    /// (cleared first).
    ///
    /// `can_accept(output_port, output_vc, size_phits)` must report whether
    /// the output currently has both output-buffer space and downstream
    /// credits for the packet; requests failing the check are ignored this
    /// iteration.
    ///
    /// Each input port and each output port appears in at most one grant.
    pub fn allocate_into(
        &mut self,
        requests: &[AllocationRequest],
        grants: &mut Vec<Grant>,
        mut can_accept: impl FnMut(Port, VcId, u32) -> bool,
    ) {
        grants.clear();
        if requests.is_empty() {
            return;
        }

        // ----- input stage: one candidate per input port -----
        for port in self.input_order.drain(..) {
            self.by_input[port as usize].clear();
        }
        for (i, req) in requests.iter().enumerate() {
            let idx = req.input_port.index();
            if self.by_input[idx].is_empty() {
                self.input_order.push(idx as u32);
            }
            self.by_input[idx].push(i as u32);
        }
        self.candidates.clear();
        for &input_idx in &self.input_order {
            let reqs = &self.by_input[input_idx as usize];
            let rr = self.input_rr[input_idx as usize];
            // consider VCs in round-robin order starting at the pointer
            let mut chosen: Option<&AllocationRequest> = None;
            let max_vc = reqs
                .iter()
                .map(|&r| requests[r as usize].input_vc.index())
                .max()
                .unwrap_or(0)
                + 1;
            'scan: for offset in 0..max_vc {
                let want = (rr + offset) % max_vc;
                for &ri in reqs {
                    let r = &requests[ri as usize];
                    if r.input_vc.index() == want
                        && can_accept(r.output_port, r.output_vc, r.size_phits)
                    {
                        chosen = Some(r);
                        break 'scan;
                    }
                }
            }
            if let Some(r) = chosen {
                self.candidates.push(*r);
            }
        }

        // ----- output stage: one winner per output port -----
        for port in self.output_order.drain(..) {
            self.by_output[port as usize].clear();
        }
        for (i, cand) in self.candidates.iter().enumerate() {
            let idx = cand.output_port.index();
            if self.by_output[idx].is_empty() {
                self.output_order.push(idx as u32);
            }
            self.by_output[idx].push(i as u32);
        }
        let num_inputs = self.input_rr.len();
        for oi in 0..self.output_order.len() {
            let output_idx = self.output_order[oi] as usize;
            let cands = &self.by_output[output_idx];
            let rr = self.output_rr[output_idx];
            let mut winner: Option<AllocationRequest> = None;
            'outer: for offset in 0..num_inputs {
                let want = (rr + offset) % num_inputs;
                for &ci in cands {
                    let c = &self.candidates[ci as usize];
                    if c.input_port.index() == want {
                        winner = Some(*c);
                        break 'outer;
                    }
                }
            }
            if let Some(w) = winner {
                // advance round-robin pointers past the winners
                self.output_rr[output_idx] = (w.input_port.index() + 1) % num_inputs;
                let max_vc_hint = self.input_rr.len().max(8);
                self.input_rr[w.input_port.index()] = (w.input_vc.index() + 1) % max_vc_hint;
                grants.push(w);
            }
        }
    }

    /// Perform one allocation iteration and return the grants (allocating
    /// convenience wrapper around [`Allocator::allocate_into`]).
    pub fn allocate(
        &mut self,
        requests: &[AllocationRequest],
        can_accept: impl FnMut(Port, VcId, u32) -> bool,
    ) -> Vec<Grant> {
        let mut grants = Vec::new();
        self.allocate_into(requests, &mut grants, can_accept);
        grants
    }

    /// Serialise the persistent round-robin pointers. The grouping buffers
    /// are per-iteration scratch (cleared at the start of every call to
    /// [`Allocator::allocate_into`]) and are deliberately not written.
    pub fn save_state(&self, e: &mut df_engine::Encoder) {
        e.seq(self.input_rr.len());
        for &p in &self.input_rr {
            e.usize(p);
        }
        e.seq(self.output_rr.len());
        for &p in &self.output_rr {
            e.usize(p);
        }
    }

    /// Restore the state written by [`Allocator::save_state`]. Pointer array
    /// lengths must match the configured radix.
    pub fn restore_state(
        &mut self,
        d: &mut df_engine::Decoder,
    ) -> Result<(), df_engine::CodecError> {
        d.seq_exact(8, self.input_rr.len(), "allocator input_rr length")?;
        for p in &mut self.input_rr {
            *p = d.usize()?;
        }
        d.seq_exact(8, self.output_rr.len(), "allocator output_rr length")?;
        for p in &mut self.output_rr {
            *p = d.usize()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(ip: u32, ivc: u8, op: u32, ovc: u8) -> AllocationRequest {
        AllocationRequest {
            input_port: Port(ip),
            input_vc: VcId(ivc),
            output_port: Port(op),
            output_vc: VcId(ovc),
            size_phits: 8,
        }
    }

    #[test]
    fn single_request_is_granted() {
        let mut a = Allocator::new(4);
        let grants = a.allocate(&[req(0, 0, 3, 0)], |_, _, _| true);
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].output_port, Port(3));
    }

    #[test]
    fn at_most_one_grant_per_output() {
        let mut a = Allocator::new(4);
        let requests = [req(0, 0, 3, 0), req(1, 0, 3, 0), req(2, 0, 3, 1)];
        let grants = a.allocate(&requests, |_, _, _| true);
        assert_eq!(grants.len(), 1);
    }

    #[test]
    fn at_most_one_grant_per_input() {
        let mut a = Allocator::new(4);
        // same input port, two VCs requesting different outputs
        let requests = [req(0, 0, 1, 0), req(0, 1, 2, 0)];
        let grants = a.allocate(&requests, |_, _, _| true);
        assert_eq!(grants.len(), 1);
    }

    #[test]
    fn disjoint_requests_all_granted() {
        let mut a = Allocator::new(4);
        let requests = [req(0, 0, 2, 0), req(1, 0, 3, 0)];
        let grants = a.allocate(&requests, |_, _, _| true);
        assert_eq!(grants.len(), 2);
    }

    #[test]
    fn resource_check_filters_requests() {
        let mut a = Allocator::new(4);
        let requests = [req(0, 0, 2, 0), req(1, 0, 3, 0)];
        let grants = a.allocate(&requests, |out, _, _| out != Port(2));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].output_port, Port(3));
    }

    #[test]
    fn blocked_vc_lets_another_vc_of_same_port_through() {
        let mut a = Allocator::new(4);
        // vc0 wants the blocked output, vc1 wants a free one
        let requests = [req(0, 0, 2, 0), req(0, 1, 3, 0)];
        let grants = a.allocate(&requests, |out, _, _| out != Port(2));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].input_vc, VcId(1));
        assert_eq!(grants[0].output_port, Port(3));
    }

    #[test]
    fn output_round_robin_is_fair_over_iterations() {
        let mut a = Allocator::new(4);
        let requests = [req(0, 0, 3, 0), req(1, 0, 3, 0)];
        let mut winners = Vec::new();
        for _ in 0..4 {
            let grants = a.allocate(&requests, |_, _, _| true);
            winners.push(grants[0].input_port);
        }
        // alternates between input 0 and 1
        assert_ne!(winners[0], winners[1]);
        assert_ne!(winners[1], winners[2]);
        assert_ne!(winners[2], winners[3]);
    }

    #[test]
    fn input_round_robin_alternates_vcs() {
        let mut a = Allocator::new(4);
        let requests = [req(0, 0, 2, 0), req(0, 1, 3, 0)];
        let g1 = a.allocate(&requests, |_, _, _| true);
        let g2 = a.allocate(&requests, |_, _, _| true);
        assert_ne!(g1[0].input_vc, g2[0].input_vc, "RR should alternate VCs");
    }

    #[test]
    fn empty_request_set_is_fine() {
        let mut a = Allocator::new(4);
        assert!(a.allocate(&[], |_, _, _| true).is_empty());
    }

    #[test]
    fn no_grant_when_nothing_fits() {
        let mut a = Allocator::new(2);
        let requests = [req(0, 0, 1, 0)];
        assert!(a.allocate(&requests, |_, _, _| false).is_empty());
    }

    #[test]
    fn many_inputs_one_each_to_distinct_outputs() {
        let mut a = Allocator::new(8);
        let requests: Vec<_> = (0..8).map(|i| req(i, 0, (i + 1) % 8, 0)).collect();
        let grants = a.allocate(&requests, |_, _, _| true);
        assert_eq!(
            grants.len(),
            8,
            "a perfect matching should be fully granted"
        );
    }
}
