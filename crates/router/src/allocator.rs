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
//!   requesting VC + 1), while `Allocator::allocate_wrapped_into` takes it
//!   from the caller — so a router can file only the requests that can be
//!   granted right now and still pass the wrap its blocked heads would have
//!   set (`tests::grantable_requests_with_wraps_match_the_full_list`);
//! * a grant stores the pointer `(vc + 1) % max(num_ports, 8)`, so the
//!   pointer may exceed the wrap point; it is reduced modulo it when read.
//!
//! The whole state is one narrow slot per port (its two pointers and its
//! scratch); each stage's port list is kept in first-appearance order, not
//! bit order, in the slots — the grant order, and every pin, follows it.

use df_model::VcId;
use df_topology::Port;

use crate::MAX_RADIX;

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

/// A slot's per-stage index: the port as an input, and as an output.
const IN: usize = 0;
const OUT: usize = 1;

/// The key of a stage's best candidate when it has none (a key lies below
/// its wrap point or the radix, both below 256).
const NO_KEY: u8 = u8::MAX;

/// Round-robin key of index `i` under pointer `rr`: its distance from the
/// pointer scanning upwards and wrapping at `modulus` (`i < modulus`; the
/// pointer is reduced first and is usually in range already).
#[inline]
fn rr_key(i: usize, rr: u8, modulus: usize) -> u8 {
    let rr = usize::from(rr);
    let rr = if rr < modulus { rr } else { rr % modulus };
    (if i >= rr { i - rr } else { i + modulus - rr }) as u8
}

/// One port's slot, per stage (`[IN]`, `[OUT]`): its round-robin pointer,
/// then one iteration's scratch — its best candidate's key and request
/// index, entry `i` of the stage's port list (kept in slot `i`) and the
/// input's VC-scan wrap point (0: no request). Between iterations the
/// scratch is at rest: no wrap point, no key.
#[derive(Debug, Clone, Copy)]
struct PortSlot {
    rr: [u8; 2],
    key: [u8; 2],
    order: [u8; 2],
    wrap: u8,
    best: [u16; 2],
}

/// Separable input-first allocator with per-port round-robin priority.
///
/// One allocation holds it all, so an iteration performs **zero heap
/// allocations** — it is on the per-cycle critical path of every active
/// router. Two allocators are equal when their pointers are.
#[derive(Debug, Clone)]
pub struct Allocator {
    ports: Box<[PortSlot]>,
}

impl PartialEq for Allocator {
    fn eq(&self, other: &Self) -> bool {
        (self.ports.iter().map(|s| s.rr)).eq(other.ports.iter().map(|s| s.rr))
    }
}

impl Eq for Allocator {}

impl Allocator {
    /// Create an allocator for a router with `num_ports` ports, at most
    /// [`MAX_RADIX`].
    pub fn new(num_ports: usize) -> Self {
        assert!(num_ports <= MAX_RADIX as usize, "{num_ports} ports");
        let fresh = PortSlot {
            rr: [0; 2],
            key: [NO_KEY; 2],
            order: [0; 2],
            wrap: 0,
            best: [0; 2],
        };
        Allocator {
            ports: vec![fresh; num_ports].into_boxed_slice(),
        }
    }

    /// Bytes of the allocator's one heap buffer.
    pub(crate) fn buffer_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.ports)
    }

    /// Perform one allocation iteration, appending grants to `grants`
    /// (cleared first). `requests` may come in any order; each input port
    /// wraps its VC scan at its highest requesting VC + 1 (VCs below 255).
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
        let mut listed = 0;
        for req in requests {
            let idx = req.input_port.index();
            if self.ports[idx].wrap == 0 {
                self.ports[listed].order[IN] = idx as u8;
                listed += 1;
            }
            let wrap = u8::try_from(req.input_vc.index() + 1).expect("a VC index below 255");
            self.ports[idx].wrap = self.ports[idx].wrap.max(wrap);
        }
        self.allocate_stages(requests, listed, grants, can_accept);
    }

    /// [`Allocator::allocate_into`] with the wrap points given: `wraps`
    /// lists every input port of `requests` once, with the point its VC
    /// scan wraps at (above each of its requesting VCs, below 256), in the
    /// order the ports first appear in `requests`. A caller that leaves
    /// requests it knows cannot be granted out of the list passes the wrap
    /// they would have set, and gets the grants and pointers of the full
    /// list.
    pub(crate) fn allocate_wrapped_into(
        &mut self,
        requests: &[AllocationRequest],
        wraps: &[(Port, usize)],
        grants: &mut Vec<Grant>,
        can_accept: impl FnMut(Port, VcId, u32) -> bool,
    ) {
        for (listed, &(port, wrap)) in wraps.iter().enumerate() {
            debug_assert!(self.ports[port.index()].wrap == 0, "{port:?} wraps twice");
            self.ports[port.index()].wrap = u8::try_from(wrap).expect("a wrap point below 256");
            self.ports[listed].order[IN] = port.0 as u8;
        }
        self.allocate_stages(requests, wraps.len(), grants, can_accept);
    }

    /// The two stages, once every requesting port's wrap point is set and
    /// the first `listed` slots list the input ports in order.
    fn allocate_stages(
        &mut self,
        requests: &[AllocationRequest],
        listed: usize,
        grants: &mut Vec<Grant>,
        mut can_accept: impl FnMut(Port, VcId, u32) -> bool,
    ) {
        assert!(requests.len() <= 1 << 16, "request indices are 16-bit");
        grants.clear();

        // ----- input stage: one winner per input port -----
        for (i, req) in requests.iter().enumerate() {
            let slot = &mut self.ports[req.input_port.index()];
            debug_assert!(
                req.input_vc.index() < usize::from(slot.wrap),
                "{req:?} lies above its port's wrap point"
            );
            // distance of this VC from the pointer, scanning upwards modulo
            // the port's wrap point; equal keys (one VC requesting twice)
            // keep the earlier request
            let key = rr_key(req.input_vc.index(), slot.rr[IN], usize::from(slot.wrap));
            if key < slot.key[IN] && can_accept(req.output_port, req.output_vc, req.size_phits) {
                (slot.key[IN], slot.best[IN]) = (key, i as u16);
            }
        }

        // ----- output stage: one winner per output port -----
        let num_inputs = self.ports.len();
        let mut winners = 0;
        for k in 0..listed {
            let input_idx = usize::from(self.ports[k].order[IN]);
            let slot = &mut self.ports[input_idx];
            slot.wrap = 0;
            if std::mem::replace(&mut slot.key[IN], NO_KEY) == NO_KEY {
                continue;
            }
            let i = slot.best[IN];
            let out = requests[usize::from(i)].output_port.index();
            if self.ports[out].key[OUT] == NO_KEY {
                self.ports[winners].order[OUT] = out as u8;
                winners += 1;
            }
            let slot = &mut self.ports[out];
            let key = rr_key(input_idx, slot.rr[OUT], num_inputs);
            if key < slot.key[OUT] {
                (slot.key[OUT], slot.best[OUT]) = (key, i);
            }
        }
        for k in 0..winners {
            let slot = &mut self.ports[usize::from(self.ports[k].order[OUT])];
            slot.key[OUT] = NO_KEY;
            let winner = requests[usize::from(slot.best[OUT])];
            // advance both round-robin pointers past the winner
            slot.rr[OUT] = ((winner.input_port.index() + 1) % num_inputs) as u8;
            self.ports[winner.input_port.index()].rr[IN] =
                ((winner.input_vc.index() + 1) % num_inputs.max(8)) as u8;
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

    /// Serialise the persistent round-robin pointers, each as a `usize`,
    /// one per port and stage (the scratch is at rest between iterations).
    pub(crate) fn save_state(&self, e: &mut df_engine::Encoder) {
        for stage in [IN, OUT] {
            for slot in self.ports.iter() {
                e.usize(usize::from(slot.rr[stage]));
            }
        }
    }

    /// Restore the state written by [`Allocator::save_state`] for the
    /// configured radix. Each pointer must be one a grant can store: an
    /// input pointer below `max(radix, 8)`, an output pointer below the
    /// radix.
    pub(crate) fn restore_state(
        &mut self,
        d: &mut df_engine::Decoder,
    ) -> Result<(), df_engine::CodecError> {
        let radix = self.ports.len();
        for (stage, bound) in [(IN, radix.max(8)), (OUT, radix)] {
            for slot in self.ports.iter_mut() {
                slot.rr[stage] = match d.usize()? {
                    rr if rr < bound => rr as u8,
                    rr => {
                        return Err(df_engine::CodecError::Invalid(format!(
                            "allocator pointer {rr} is not below {bound}"
                        )))
                    }
                };
            }
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
                assert_eq!(
                    allocator.pointers(),
                    (input_rr.clone(), output_rr.clone()),
                    "case {case}"
                );
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
                assert_eq!(
                    allocator.pointers(),
                    (input_rr.clone(), output_rr.clone()),
                    "case {case}"
                );
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

    impl Allocator {
        /// The input and output round-robin pointers, port by port.
        fn pointers(&self) -> (Vec<usize>, Vec<usize>) {
            let rr = |stage: usize| {
                self.ports
                    .iter()
                    .map(|s| usize::from(s.rr[stage]))
                    .collect()
            };
            (rr(IN), rr(OUT))
        }
    }

    #[test]
    fn a_port_slot_is_narrow() {
        assert!(std::mem::size_of::<PortSlot>() <= 12);
        let a = Allocator::new(31);
        assert!(a.buffer_bytes() <= 31 * 12);
    }

    /// A 4-port allocator's pointers with port 3's input and output
    /// pointers forged, restored.
    fn restore_forged(input_rr: usize, output_rr: usize) -> Result<(), df_engine::CodecError> {
        let mut e = df_engine::Encoder::new();
        for last in [input_rr, output_rr] {
            for p in [1, 2, 0, last] {
                e.usize(p);
            }
        }
        let bytes = e.into_bytes();
        Allocator::new(4).restore_state(&mut df_engine::Decoder::new(&bytes))
    }

    #[test]
    fn pointers_a_grant_cannot_store_are_typed_errors() {
        assert!(
            restore_forged(7, 3).is_ok(),
            "input pointers run to max(radix, 8)"
        );
        for (what, result) in [
            ("input pointer at max(radix, 8)", restore_forged(8, 0)),
            ("output pointer at the radix", restore_forged(0, 4)),
            ("input pointer past a byte", restore_forged(300, 0)),
        ] {
            assert!(
                matches!(result, Err(df_engine::CodecError::Invalid(_))),
                "{what}: {result:?}"
            );
        }
    }

    #[test]
    fn restored_pointers_round_trip_and_compare_equal() {
        let mut a = Allocator::new(7);
        a.allocate(&[req(0, 2, 3, 0), req(5, 1, 6, 0)], |_, _, _| true);
        let mut e = df_engine::Encoder::new();
        a.save_state(&mut e);
        let bytes = e.into_bytes();
        let mut b = Allocator::new(7);
        assert_ne!(a, b);
        b.restore_state(&mut df_engine::Decoder::new(&bytes))
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(
            b.pointers(),
            (vec![3, 0, 0, 0, 0, 2, 0], vec![0, 0, 0, 1, 0, 0, 6])
        );
    }
}
