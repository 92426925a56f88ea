//! PiggyBacking (PB) saturation state.
//!
//! PB [Jiang, Kim & Dally, ISCA'09] is the source-adaptive baseline of the
//! paper: every router continuously classifies each of its own global links
//! as *saturated* or not from its credit/occupancy level, and piggybacks the
//! resulting bitmask on packets sent inside the group so that all routers of
//! the group share a (slightly stale) view of every global link's state. At
//! injection, the source router routes a packet minimally or Valiant based on
//! the saturation bit of the minimal global link plus a UGAL-style occupancy
//! comparison.
//!
//! This module only holds the state; the classification rule and the routing
//! decision live in `df-routing::algorithms::piggyback`, and the intra-group
//! dissemination (with its one-local-hop delay) is driven by the simulator.
//!
//! Only the own flags are state. The group view is scratch: every exchange
//! overwrites all of it from the members' own flags, and a restored
//! simulator exchanges every group before its first routing decision, so a
//! snapshot stores the own flags alone.
//!
//! Since the failure-aware routing extension, the PB exchange additionally
//! piggybacks **gateway-liveness bits** (one bit per group-level global
//! link, network-wide — see `df_topology::GatewayLiveness`): the same
//! messages that carry the saturation mask carry the link-state delta, on
//! the same every-cycle cadence and with the same one-exchange staleness.
//! The bits themselves live in the router's `link_view`, installed by
//! `dissemination::install_linkview_group` alongside
//! [`PbState::install_group_from`].

/// Per-router PB state: saturation flags for every global link of the group.
#[derive(Debug, Clone)]
pub struct PbState {
    /// Saturation of this router's own global links (indexed by global-port
    /// offset `0..h`), recomputed locally whenever the router's outputs
    /// change.
    own: Vec<bool>,
    /// Group-wide view (indexed by group-level global link `0..a*h`),
    /// refreshed by the dissemination step with a small delay.
    group: Vec<bool>,
}

impl PbState {
    /// Create state for a router with `h` own global links in a group with
    /// `global_links` (= `a*h`) total links.
    pub fn new(h: usize, global_links: usize) -> Self {
        PbState {
            own: vec![false; h],
            group: vec![false; global_links],
        }
    }

    /// Saturation flag of this router's own global link `k` (`0..h`).
    pub fn own_saturated(&self, k: u32) -> bool {
        self.own[k as usize]
    }

    /// Set the saturation flag of own global link `k`; returns whether it
    /// flipped (the group's exchange would then install something new).
    pub fn set_own_saturated(&mut self, k: u32, saturated: bool) -> bool {
        let flag = &mut self.own[k as usize];
        std::mem::replace(flag, saturated) != saturated
    }

    /// Borrow this router's own saturation flags (allocation-free view used
    /// by the simulator's flat-array dissemination).
    pub fn own_flags(&self) -> &[bool] {
        &self.own
    }

    /// Group-wide saturation of group-level global link `link` (`0..a*h`), as
    /// of the last dissemination.
    pub fn group_saturated(&self, link: u32) -> bool {
        self.group[link as usize]
    }

    /// Install the group-wide view (concatenation of every router's own
    /// flags, in router-local-index order) by copying from a shared flat
    /// slice.
    ///
    /// # Panics
    /// Panics if the length does not match.
    pub fn install_group_from(&mut self, group: &[bool]) {
        assert_eq!(group.len(), self.group.len(), "PB group view size mismatch");
        self.group.copy_from_slice(group);
    }

    /// Number of global links tracked in the group view.
    pub fn group_links(&self) -> usize {
        self.group.len()
    }

    /// Fraction of the group's global links currently marked saturated.
    pub fn saturated_fraction(&self) -> f64 {
        if self.group.is_empty() {
            return 0.0;
        }
        self.group.iter().filter(|&&s| s).count() as f64 / self.group.len() as f64
    }

    /// Serialise the own saturation flags, one per own global link. The
    /// group view is scratch and is not written: every exchange overwrites
    /// it from the members' own flags.
    pub fn save_state(&self, e: &mut df_engine::Encoder) {
        for &b in &self.own {
            e.bool(b);
        }
    }

    /// Restore the own flags written by [`PbState::save_state`] and clear
    /// the group view, which the group's next exchange rewrites before any
    /// routing decision reads it.
    pub fn restore_state(
        &mut self,
        d: &mut df_engine::Decoder,
    ) -> Result<(), df_engine::CodecError> {
        for b in &mut self.own {
            *b = d.bool()?;
        }
        self.group.fill(false);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_flags_default_unsaturated() {
        let s = PbState::new(8, 128);
        assert!(!s.own_saturated(0));
        assert!(!s.group_saturated(100));
        assert_eq!(s.group_links(), 128);
        assert_eq!(s.saturated_fraction(), 0.0);
    }

    #[test]
    fn own_flags_are_settable_and_viewable() {
        let mut s = PbState::new(2, 8);
        assert!(s.set_own_saturated(1, true), "a flip");
        assert!(!s.set_own_saturated(1, true), "no flip");
        assert!(s.own_saturated(1));
        assert!(!s.own_saturated(0));
        assert_eq!(s.own_flags(), [false, true]);
    }

    #[test]
    fn group_view_installation() {
        let mut s = PbState::new(2, 4);
        s.install_group_from(&[true, false, true, false]);
        assert!(s.group_saturated(0));
        assert!(!s.group_saturated(1));
        assert_eq!(s.saturated_fraction(), 0.5);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_group_size_panics() {
        let mut s = PbState::new(2, 4);
        s.install_group_from(&[true]);
    }
}
