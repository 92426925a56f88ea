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
//!
//! Each stage is one pass picking the request with the smallest round-robin
//! key — its distance from the port's pointer, scanning upwards and wrapping.
//! Two properties of the input stage are part of the contract (every pinned
//! fingerprint depends on them; `tests::single_pass_matches_the_two_stage_scan`
//! holds the rewrite to the original nested scan):
//!
//! * the VC scan of an input port wraps at the port's **wrap point** this
//!   iteration, not at its VC count. The wrap point is an input:
//!   [`Allocator::allocate_into`] derives it from `requests` (the highest
//!   requesting VC + 1), while [`Allocator::allocate_wrapped_into`] takes it
//!   from the caller — so a router can file only the requests that can be
//!   granted right now and still pass the wrap its blocked heads would have
//!   set (`tests::grantable_requests_with_wraps_match_the_full_list`);
//! * a grant stores the pointer `(vc + 1) % max(num_ports, 8)`, so the
//!   pointer may exceed the wrap point; it is reduced modulo it when read.

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

/// A per-port scratch slot holding no candidate.
const NO_BEST: (usize, u32) = (usize::MAX, 0);

/// Round-robin key of index `i` under pointer `rr`: its distance from the
/// pointer scanning upwards and wrapping at `modulus` (`i < modulus`; the
/// pointer is reduced first and is usually in range already).
#[inline]
fn rr_key(i: usize, rr: usize, modulus: usize) -> usize {
    let rr = if rr < modulus { rr } else { rr % modulus };
    if i >= rr {
        i - rr
    } else {
        i + modulus - rr
    }
}

/// Separable input-first allocator with per-port round-robin priority.
///
/// All scratch is a few persistent per-port words, so an allocation
/// iteration performs **zero heap allocations** in steady state — this is
/// on the per-cycle critical path of every active router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocator {
    /// Round-robin pointer per input port (over VC indices).
    input_rr: Vec<usize>,
    /// Round-robin pointer per output port (over input-port indices).
    output_rr: Vec<usize>,
    // ---- persistent scratch (left zeroed / `NO_BEST` between iterations) ----
    /// Per input port: the VC-scan wrap point of this iteration (0: the
    /// port files no request).
    wrap: Vec<usize>,
    /// Per input port: `(round-robin key, request index)` of its best
    /// grantable request.
    input_best: Vec<(usize, u32)>,
    /// Input ports in first-appearance order.
    input_order: Vec<u32>,
    /// Per output port: `(round-robin key, request index)` of its best
    /// input-stage winner.
    output_best: Vec<(usize, u32)>,
    /// Output ports in first-appearance order among the input-stage winners.
    output_order: Vec<u32>,
}

impl Allocator {
    /// Create an allocator for a router with `num_ports` ports.
    pub fn new(num_ports: usize) -> Self {
        Allocator {
            input_rr: vec![0; num_ports],
            output_rr: vec![0; num_ports],
            wrap: vec![0; num_ports],
            input_best: vec![NO_BEST; num_ports],
            input_order: Vec::new(),
            output_best: vec![NO_BEST; num_ports],
            output_order: Vec::new(),
        }
    }

    /// Perform one allocation iteration, appending grants to `grants`
    /// (cleared first). `requests` may come in any order; each input port
    /// wraps its VC scan at its highest requesting VC + 1.
    ///
    /// `can_accept(output_port, output_vc, size_phits)` must report whether
    /// the output currently has both output-buffer space and downstream
    /// credits for the packet; requests failing the check are ignored this
    /// iteration. It is called at most once per request.
    ///
    /// Each input port and each output port appears in at most one grant;
    /// grants come in first-appearance order of their output among the
    /// input-stage winners, themselves in first-appearance order of their
    /// input port in `requests` (see the module doc for the priority rule).
    pub fn allocate_into(
        &mut self,
        requests: &[AllocationRequest],
        grants: &mut Vec<Grant>,
        can_accept: impl FnMut(Port, VcId, u32) -> bool,
    ) {
        for req in requests {
            let idx = req.input_port.index();
            if self.wrap[idx] == 0 {
                self.input_order.push(idx as u32);
            }
            self.wrap[idx] = self.wrap[idx].max(req.input_vc.index() + 1);
        }
        self.allocate_stages(requests, grants, can_accept);
    }

    /// [`Allocator::allocate_into`] with the wrap points given: `wraps`
    /// lists every input port of `requests` once, with the point its VC
    /// scan wraps at (above each of its requesting VCs), in the order the
    /// ports first appear in `requests`. A caller that leaves requests it
    /// knows cannot be granted out of the list passes the wrap they would
    /// have set, and gets the grants and pointers of the full list.
    pub fn allocate_wrapped_into(
        &mut self,
        requests: &[AllocationRequest],
        wraps: &[(Port, usize)],
        grants: &mut Vec<Grant>,
        can_accept: impl FnMut(Port, VcId, u32) -> bool,
    ) {
        for &(port, wrap) in wraps {
            debug_assert!(self.wrap[port.index()] == 0, "{port:?} wraps twice");
            self.input_order.push(port.0);
            self.wrap[port.index()] = wrap;
        }
        self.allocate_stages(requests, grants, can_accept);
    }

    /// The two stages, once every requesting port's wrap point is set and
    /// the ports are listed in `input_order`.
    fn allocate_stages(
        &mut self,
        requests: &[AllocationRequest],
        grants: &mut Vec<Grant>,
        mut can_accept: impl FnMut(Port, VcId, u32) -> bool,
    ) {
        grants.clear();

        // ----- input stage: one winner per input port -----
        for (i, req) in requests.iter().enumerate() {
            let idx = req.input_port.index();
            debug_assert!(
                req.input_vc.index() < self.wrap[idx],
                "{req:?} lies above its port's wrap point"
            );
            // distance of this VC from the pointer, scanning upwards modulo
            // the port's wrap point; equal keys (one VC requesting twice)
            // keep the earlier request
            let key = rr_key(req.input_vc.index(), self.input_rr[idx], self.wrap[idx]);
            if key < self.input_best[idx].0
                && can_accept(req.output_port, req.output_vc, req.size_phits)
            {
                self.input_best[idx] = (key, i as u32);
            }
        }

        // ----- output stage: one winner per output port -----
        let num_inputs = self.input_rr.len();
        for input_idx in self.input_order.drain(..) {
            self.wrap[input_idx as usize] = 0;
            let best = std::mem::replace(&mut self.input_best[input_idx as usize], NO_BEST);
            if best == NO_BEST {
                continue;
            }
            let i = best.1;
            let out = requests[i as usize].output_port.index();
            if self.output_best[out] == NO_BEST {
                self.output_order.push(out as u32);
            }
            let key = rr_key(input_idx as usize, self.output_rr[out], num_inputs);
            if key < self.output_best[out].0 {
                self.output_best[out] = (key, i);
            }
        }
        for out in self.output_order.drain(..) {
            let (_, i) = std::mem::replace(&mut self.output_best[out as usize], NO_BEST);
            let winner = requests[i as usize];
            // advance both round-robin pointers past the winner
            self.output_rr[out as usize] = (winner.input_port.index() + 1) % num_inputs;
            self.input_rr[winner.input_port.index()] =
                (winner.input_vc.index() + 1) % num_inputs.max(8);
            grants.push(winner);
        }
    }

    /// Perform one allocation iteration and return the grants (allocating
    /// convenience wrapper around [`Allocator::allocate_into`]).
    #[cfg(test)]
    fn allocate(
        &mut self,
        requests: &[AllocationRequest],
        can_accept: impl FnMut(Port, VcId, u32) -> bool,
    ) -> Vec<Grant> {
        let mut grants = Vec::new();
        self.allocate_into(requests, &mut grants, can_accept);
        grants
    }

    /// Serialise the persistent round-robin pointers. The other fields are
    /// per-iteration scratch and are deliberately not written.
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

    /// The original two-stage scan (nested per-offset rescans over grouped
    /// index lists), kept as the reference the single-pass allocator is
    /// compared against. Returns the grants and advances the pointers.
    fn two_stage_scan(
        input_rr: &mut [usize],
        output_rr: &mut [usize],
        requests: &[AllocationRequest],
        can_accept: impl Fn(Port, VcId, u32) -> bool,
    ) -> Vec<Grant> {
        let num_inputs = input_rr.len();
        let mut input_order: Vec<usize> = Vec::new();
        for r in requests {
            if !input_order.contains(&r.input_port.index()) {
                input_order.push(r.input_port.index());
            }
        }
        let mut candidates: Vec<AllocationRequest> = Vec::new();
        for &input_idx in &input_order {
            let reqs: Vec<&AllocationRequest> = requests
                .iter()
                .filter(|r| r.input_port.index() == input_idx)
                .collect();
            let max_vc = reqs.iter().map(|r| r.input_vc.index()).max().unwrap() + 1;
            'scan: for offset in 0..max_vc {
                let want = (input_rr[input_idx] + offset) % max_vc;
                for r in &reqs {
                    if r.input_vc.index() == want
                        && can_accept(r.output_port, r.output_vc, r.size_phits)
                    {
                        candidates.push(**r);
                        break 'scan;
                    }
                }
            }
        }
        let mut output_order: Vec<usize> = Vec::new();
        for c in &candidates {
            if !output_order.contains(&c.output_port.index()) {
                output_order.push(c.output_port.index());
            }
        }
        let mut grants = Vec::new();
        for &output_idx in &output_order {
            'outer: for offset in 0..num_inputs {
                let want = (output_rr[output_idx] + offset) % num_inputs;
                for c in candidates
                    .iter()
                    .filter(|c| c.output_port.index() == output_idx)
                {
                    if c.input_port.index() == want {
                        output_rr[output_idx] = (c.input_port.index() + 1) % num_inputs;
                        input_rr[c.input_port.index()] =
                            (c.input_vc.index() + 1) % num_inputs.max(8);
                        grants.push(*c);
                        break 'outer;
                    }
                }
            }
        }
        grants
    }

    #[test]
    fn single_pass_matches_the_two_stage_scan() {
        use df_engine::DeterministicRng;
        let mut rng = DeterministicRng::new(21);
        let mut pointers_beyond_max_vc = 0;
        for case in 0..600 {
            // 4 ports stores pointers modulo 8, so `input_rr` routinely
            // exceeds a port's highest requesting VC + 1
            let num_ports = [4, 7, 31][case % 3];
            let num_vcs = 1 + rng.index(4);
            let density = [0.1, 0.5, 1.0][rng.index(3)];
            let blocked_share = [0.0, 0.3, 0.9][rng.index(3)];
            let blocked: Vec<bool> = (0..num_ports * 4)
                .map(|_| rng.bernoulli(blocked_share))
                .collect();
            let can_accept = |port: Port, vc: VcId, _| !blocked[port.index() * 4 + vc.index() % 4];
            let mut allocator = Allocator::new(num_ports);
            let (mut input_rr, mut output_rr) = (vec![0; num_ports], vec![0; num_ports]);
            // several iterations on one allocator, so the pointers move
            for _ in 0..6 {
                let mut requests = Vec::new();
                for port in 0..num_ports as u32 {
                    for vc in 0..num_vcs as u8 {
                        if rng.bernoulli(density) {
                            let out = rng.index(num_ports) as u32;
                            requests.push(req(port, vc, out, rng.index(4) as u8));
                        }
                    }
                }
                // any order, including one VC requesting twice
                for i in (1..requests.len()).rev() {
                    requests.swap(i, rng.index(i + 1));
                }
                if let Some(&first) = requests.first().filter(|_| rng.bernoulli(0.2)) {
                    requests.push(AllocationRequest {
                        output_port: Port(rng.index(num_ports) as u32),
                        ..first
                    });
                }
                for r in &requests {
                    let max_vc = requests
                        .iter()
                        .filter(|o| o.input_port == r.input_port)
                        .map(|o| o.input_vc.index() + 1)
                        .max()
                        .unwrap();
                    pointers_beyond_max_vc += (input_rr[r.input_port.index()] >= max_vc) as u32;
                }
                let expected = two_stage_scan(&mut input_rr, &mut output_rr, &requests, can_accept);
                let grants = allocator.allocate(&requests, can_accept);
                assert_eq!(grants, expected, "case {case}: {requests:?}");
                assert_eq!(allocator.input_rr, input_rr, "case {case}");
                assert_eq!(allocator.output_rr, output_rr, "case {case}");
            }
        }
        assert!(pointers_beyond_max_vc > 100, "the wrap quirk was exercised");
    }

    /// What the router files: of its queued heads, ascending by `(port,
    /// vc)`, only those it would not discard and whose output can take the
    /// packet now — plus each such port's wrap point, the highest VC of a
    /// head it did not discard + 1. That must allocate exactly like the
    /// full list of every non-discarded head, grants and both pointer
    /// arrays, iteration after iteration.
    #[test]
    fn grantable_requests_with_wraps_match_the_full_list() {
        use df_engine::DeterministicRng;
        let mut rng = DeterministicRng::new(25);
        let (mut top_blocked, mut top_discarded, mut pointer_at_or_past_wrap, mut all_blocked) =
            (0, 0, 0, 0);
        for case in 0..600 {
            let num_ports = [4, 7, 31][case % 3];
            let num_vcs = 1 + rng.index(4);
            let blocked_share = [0.3, 0.6, 0.9][rng.index(3)];
            let blocked: Vec<bool> = (0..num_ports * 4)
                .map(|_| rng.bernoulli(blocked_share))
                .collect();
            let can_accept = |port: Port, vc: VcId, _| !blocked[port.index() * 4 + vc.index()];
            let mut allocator = Allocator::new(num_ports);
            let (mut input_rr, mut output_rr) = (vec![0; num_ports], vec![0; num_ports]);
            for _ in 0..6 {
                let (mut full, mut grantable, mut wraps) = (Vec::new(), Vec::new(), Vec::new());
                for port in 0..num_ports as u32 {
                    let (mut wrap, mut filed, mut top) = (0, false, None);
                    for vc in 0..num_vcs as u8 {
                        if !rng.bernoulli(0.6) {
                            continue; // an empty VC
                        }
                        top = Some(vc);
                        if rng.bernoulli(0.1) {
                            continue; // a head the routing layer discards
                        }
                        let r = req(port, vc, rng.index(num_ports) as u32, rng.index(4) as u8);
                        wrap = usize::from(vc) + 1;
                        full.push(r);
                        if can_accept(r.output_port, r.output_vc, r.size_phits) {
                            grantable.push(r);
                            filed = true;
                        }
                    }
                    let Some(top) = top else { continue };
                    if filed {
                        wraps.push((Port(port), wrap));
                        top_blocked += (wrap == usize::from(top) + 1
                            && grantable
                                .last()
                                .is_some_and(|r| r.input_vc.index() < wrap - 1))
                            as u32;
                        top_discarded += (wrap < usize::from(top) + 1) as u32;
                        pointer_at_or_past_wrap += (input_rr[port as usize] >= wrap) as u32;
                    } else {
                        all_blocked += (wrap > 0) as u32;
                    }
                }
                let expected = two_stage_scan(&mut input_rr, &mut output_rr, &full, can_accept);
                let mut grants = Vec::new();
                allocator.allocate_wrapped_into(&grantable, &wraps, &mut grants, can_accept);
                assert_eq!(grants, expected, "case {case}: {full:?}");
                assert_eq!(allocator.input_rr, input_rr, "case {case}");
                assert_eq!(allocator.output_rr, output_rr, "case {case}");
            }
        }
        for (what, count) in [
            ("top VC blocked", top_blocked),
            ("top VC discarded", top_discarded),
            (
                "stored pointer at or past the wrap",
                pointer_at_or_past_wrap,
            ),
            ("heads but no grantable request", all_blocked),
        ] {
            assert!(count > 50, "{what}: {count} ports");
        }
    }

    #[test]
    fn can_accept_is_called_at_most_once_per_request() {
        let mut a = Allocator::new(4);
        let requests = [
            req(0, 0, 1, 0),
            req(0, 1, 2, 0),
            req(0, 2, 3, 0),
            req(1, 0, 3, 0),
        ];
        let mut calls = 0;
        a.allocate(&requests, |_, _, _| {
            calls += 1;
            false
        });
        assert_eq!(calls, requests.len());
    }

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
