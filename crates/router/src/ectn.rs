//! Explicit Contention Notification (ECtN) state — the paper's §III-D.
//!
//! Every router keeps two arrays with one counter per *global link of its
//! group* (`a*h` counters):
//!
//! * the **partial** array counts, among the packets at the head of this
//!   router's injection queues and global input queues, those whose
//!   destination lies in a remote group — indexed by the group-level global
//!   link their minimal path would use;
//! * the **combined** array is the sum of the partial arrays of all routers
//!   of the group, refreshed every `update_period` cycles when the partial
//!   arrays are broadcast inside the group.
//!
//! Misrouting at injection is triggered when the combined counter of the
//! minimal global link exceeds the (separate, higher) combined threshold.
//!
//! The combined array is a group fact: a broadcast installs one sum into
//! every member, so all members hold the same copy. A simulation snapshot
//! stores it once per group and installs it into every member on restore;
//! the partial array is recounted from the restored head registrations.
//!
//! Since the failure-aware routing extension, the periodic broadcast
//! additionally piggybacks **gateway-liveness bits** (network-wide link
//! state, `df_topology::GatewayLiveness`) on the same messages and cadence
//! as the partial arrays, so ECtN source routers can exclude dead gateway
//! groups from their injection-time misroute candidates. The bits live in
//! the router's `link_view`, installed by
//! `dissemination::install_linkview_group` next to
//! [`EctnState::install_combined_from`].

/// ECtN per-router state.
#[derive(Debug, Clone)]
pub struct EctnState {
    partial: Vec<u32>,
    combined: Vec<u32>,
}

impl EctnState {
    /// Create the state for a group with `global_links` global links
    /// (`a*h`).
    pub fn new(global_links: usize) -> Self {
        EctnState {
            partial: vec![0; global_links],
            combined: vec![0; global_links],
        }
    }

    /// Number of tracked global links.
    pub fn num_links(&self) -> usize {
        self.partial.len()
    }

    /// Current partial counter for group-level global link `link`.
    #[inline]
    pub fn partial(&self, link: u32) -> u32 {
        self.partial[link as usize]
    }

    /// Current combined counter for group-level global link `link` (as of the
    /// last broadcast).
    #[inline]
    pub fn combined(&self, link: u32) -> u32 {
        self.combined[link as usize]
    }

    /// Increment the partial counter for `link` (a packet bound to a remote
    /// group reached the head of an injection or global input queue).
    #[inline]
    pub fn increment_partial(&mut self, link: u32) {
        self.partial[link as usize] += 1;
    }

    /// Decrement the partial counter for `link` (that packet left its input
    /// queue).
    ///
    /// # Panics
    /// Panics on underflow (bookkeeping bug in the caller).
    #[inline]
    pub fn decrement_partial(&mut self, link: u32) {
        let c = &mut self.partial[link as usize];
        assert!(*c > 0, "ECtN partial counter underflow on link {link}");
        *c -= 1;
    }

    /// Add this router's partial counters into `acc` element-wise
    /// (allocation-free building block for the group broadcast).
    ///
    /// # Panics
    /// Panics if the length does not match the number of global links.
    pub fn add_partial_to(&self, acc: &mut [u32]) {
        assert_eq!(acc.len(), self.partial.len(), "partial array size mismatch");
        for (a, p) in acc.iter_mut().zip(self.partial.iter()) {
            *a += p;
        }
    }

    /// Install a freshly combined array (the sum of all partial snapshots of
    /// the group, computed at broadcast time) by copying from a shared slice.
    ///
    /// # Panics
    /// Panics if the length does not match the number of global links.
    pub fn install_combined_from(&mut self, combined: &[u32]) {
        assert_eq!(
            combined.len(),
            self.combined.len(),
            "combined array size mismatch"
        );
        self.combined.copy_from_slice(combined);
    }

    /// True when every partial counter is zero.
    pub fn partial_all_zero(&self) -> bool {
        self.partial.iter().all(|&c| c == 0)
    }

    /// Borrow the combined array.
    pub fn combined_array(&self) -> &[u32] {
        &self.combined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_counters_track_increments() {
        let mut e = EctnState::new(8);
        e.increment_partial(3);
        e.increment_partial(3);
        e.increment_partial(7);
        assert_eq!(e.partial(3), 2);
        assert_eq!(e.partial(7), 1);
        assert_eq!(e.partial(0), 0);
        e.decrement_partial(3);
        assert_eq!(e.partial(3), 1);
        assert!(!e.partial_all_zero());
        e.decrement_partial(3);
        e.decrement_partial(7);
        assert!(e.partial_all_zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn partial_underflow_panics() {
        let mut e = EctnState::new(4);
        e.decrement_partial(0);
    }

    #[test]
    fn combined_is_installed_not_computed_live() {
        let mut e = EctnState::new(4);
        e.increment_partial(1);
        // combined still reflects the last broadcast (zero)
        assert_eq!(e.combined(1), 0);
        e.install_combined_from(&[5, 7, 0, 1]);
        assert_eq!(e.combined(1), 7);
        assert_eq!(e.combined_array(), &[5, 7, 0, 1]);
        // partial increments do not leak into combined until next install
        e.increment_partial(1);
        assert_eq!(e.combined(1), 7);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn combined_size_mismatch_panics() {
        let mut e = EctnState::new(4);
        e.install_combined_from(&[1, 2]);
    }

    #[test]
    fn add_partial_to_sums_elementwise() {
        let mut acc = vec![0, 3, 1];
        let mut e = EctnState::new(3);
        e.increment_partial(0);
        e.increment_partial(2);
        e.increment_partial(2);
        e.add_partial_to(&mut acc);
        assert_eq!(acc, vec![1, 3, 3]);
    }
}
