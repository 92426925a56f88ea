//! [`GatewayLiveness`]: a sparse, versioned map of which global links and
//! compute nodes are usable, over the static topology wiring.
//!
//! The topology objects are purely combinatorial — their wiring never
//! changes. Fault injection needs a *dynamic* overlay for what the
//! failure-aware routing mechanisms disseminate: the simulator (`df-sim`)
//! keeps one truth copy, every group floods its own view of it, and every
//! router installs its group's view. Per-port link health itself lives in
//! each router's own link flags (`df-router`), where the hot paths read it.

use crate::ids::{GroupId, NodeId, RouterId};
use crate::port::{Port, PortClass};
use crate::topology::Topology;

/// One disseminated state change: the newest known `(sequence, up)` pair
/// for an entry, keyed by the entry's flat index. Sequence numbers are
/// assigned by the truth map (its version counter at the change), so "newer
/// sequence wins" merges are exactly "closer to the truth" — a `LinkUp`
/// always carries a higher sequence than the `LinkDown` it reverts, and can
/// therefore never be overwritten by a stale down-mark still circulating in
/// another group's view.
type EntryRecord = (u32, u64, bool);

/// One keyspace of a [`GatewayLiveness`] map (the global links, or the
/// nodes): the freshness journal and the down marks it determines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Keyspace {
    /// The newest known change per key, sorted by key. Grows with the number
    /// of keys ever touched by a fault, never shrinks within a run.
    records: Vec<EntryRecord>,
    /// The keys whose record says "down", sorted ascending — derived from
    /// `records` (an absent record means "assumed up") and kept beside them
    /// so the healthy fast path is one `is_empty` and a lookup searches the
    /// (typically tiny) down set, not the journal.
    down: Vec<u32>,
}

impl Keyspace {
    /// Rebuild a keyspace from its journal (sorted by key).
    fn from_records(records: Vec<EntryRecord>) -> Self {
        debug_assert!(records.windows(2).all(|w| w[0].0 < w[1].0));
        let down = records.iter().filter(|r| !r.2).map(|r| r.0).collect();
        Keyspace { records, down }
    }

    #[inline]
    fn is_up(&self, key: u32) -> bool {
        self.down.is_empty() || self.down.binary_search(&key).is_err()
    }

    /// Adopt `(key, seq, up)` if it is fresher than what the journal holds,
    /// flipping the mark with it; returns whether it was adopted.
    fn adopt(&mut self, key: u32, seq: u64, up: bool) -> bool {
        let flipped = match self.records.binary_search_by_key(&key, |r| r.0) {
            Ok(pos) => {
                let (_, cur_seq, cur_up) = self.records[pos];
                if cur_seq >= seq {
                    return false;
                }
                self.records[pos] = (key, seq, up);
                cur_up != up
            }
            Err(pos) => {
                self.records.insert(pos, (key, seq, up));
                // an absent record means "assumed up", so only a down-mark flips
                !up
            }
        };
        if flipped {
            match self.down.binary_search(&key) {
                Ok(pos) if up => drop(self.down.remove(pos)),
                Err(pos) if !up => self.down.insert(pos, key),
                _ => {}
            }
        }
        true
    }

    /// A local state change (the truth map observing a fault event): no-op
    /// when `key` already reads `up`, otherwise bump `version` and stamp the
    /// change with it.
    fn set(&mut self, key: u32, up: bool, version: &mut u64) {
        if self.is_up(key) != up {
            *version += 1;
            let adopted = self.adopt(key, *version, up);
            debug_assert!(adopted, "a local change must be its key's freshest record");
        }
    }

    /// Adopt every fresher record of `records`; returns whether any was.
    fn merge<'a>(&mut self, records: impl IntoIterator<Item = &'a EntryRecord>) -> bool {
        let mut changed = false;
        for &(key, seq, up) in records {
            changed |= self.adopt(key, seq, up);
        }
        changed
    }
}

/// A network-wide map of **gateway liveness**: one bit per group-level
/// global link `(group, j)` with `j in 0..a*h` (true when *both* directions
/// of that link are usable) plus one bit per compute node (false when the
/// node has failed and its traffic is retargeted to a spare).
///
/// This is the payload the failure-aware routing mechanisms disseminate
/// through the PB/ECtN control plane: the simulator keeps a *truth* copy —
/// the one record of which nodes have failed — in sync with the fault events
/// it applies, every group accumulates a *flooded* view (hop-by-hop, one
/// live-neighbour merge per exchange — see `df-sim`'s flooding round), and
/// every router installs its own group's view on the dissemination cadence. Because faults are rare, the map is stored
/// sparsely — only the down marks plus a small freshness journal — so a
/// view install is a version check plus a copy of (typically tiny) vectors,
/// and the healthy-network fast path ([`all_up`](Self::all_up)) is O(1).
///
/// Entries carry per-entry sequence numbers (the private `EntryRecord`) so that
/// flooding merges are conflict-free: whichever copy of an entry has seen
/// the later truth change wins, regardless of the order views are merged
/// in. The `version` counter is a *local* change count — it orders the
/// states of one map over time (the install fast path), not the states of
/// different maps.
///
/// A bidirectional global link appears in **both** incident groups' index
/// spaces (group `g` link `j` and the peer group's reverse link); callers
/// updating the map from a fault event must mark both entries — see
/// [`set_global_link`](Self::set_global_link).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GatewayLiveness {
    /// Global links per group (`a*h`), for flat indexing.
    links_per_group: u32,
    /// Monotonic change counter: bumped on every state change, compared by
    /// the install path to skip redundant copies. Version 0 = pristine
    /// all-up (a never-installed view is indistinguishable from a healthy
    /// network, which is exactly the desired semantics for mechanisms
    /// without a dissemination channel). On the truth map this doubles as
    /// the sequence-number source for entry records.
    version: u64,
    /// Link entries, keyed by the flat index `group * links_per_group + j`.
    links: Keyspace,
    /// Node entries, keyed by node id.
    nodes: Keyspace,
}

impl GatewayLiveness {
    /// All gateway links and nodes up.
    pub fn new(topo: &impl Topology) -> Self {
        GatewayLiveness {
            links_per_group: topo.global_links_per_group(),
            ..Default::default()
        }
    }

    /// Bytes of the map's heap buffers: records and down marks of the
    /// links, then of the nodes.
    pub fn buffer_bytes(&self) -> [usize; 4] {
        let records = size_of::<EntryRecord>();
        let bytes = |k: &Keyspace| [k.records.capacity() * records, k.down.capacity() * 4];
        let ([a, b], [c, d]) = (bytes(&self.links), bytes(&self.nodes));
        [a, b, c, d]
    }

    #[inline]
    fn flat(&self, group: GroupId, j: u32) -> u32 {
        debug_assert!(j < self.links_per_group, "global link {j} out of range");
        group.0 * self.links_per_group + j
    }

    /// Whether every gateway link is up (O(1) healthy fast path).
    #[inline]
    pub fn all_up(&self) -> bool {
        self.links.down.is_empty()
    }

    /// Change counter (0 for a pristine all-up map).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether group-level global link `j` of `group` is usable in both
    /// directions, as far as this map knows.
    #[inline]
    pub fn link_up(&self, group: GroupId, j: u32) -> bool {
        self.links.is_up(self.flat(group, j))
    }

    /// Whether this map positively marks link `j` of `group` down — the
    /// predicate the routing triggers use (false on a pristine all-up view,
    /// O(1) in the healthy case).
    #[inline]
    pub fn marks_down(&self, group: GroupId, j: u32) -> bool {
        !self.link_up(group, j)
    }

    /// Number of gateway links currently marked down.
    pub fn num_down(&self) -> usize {
        self.links.down.len()
    }

    /// Mark one `(group, j)` entry up or down. Idempotent; bumps the
    /// version (and stamps a fresh entry record with it) only on an actual
    /// change.
    pub fn set_entry(&mut self, group: GroupId, j: u32, up: bool) {
        self.links.set(self.flat(group, j), up, &mut self.version);
    }

    /// Whether `node` is usable as far as this map knows (O(1) in the
    /// healthy case).
    #[inline]
    pub fn node_up(&self, node: NodeId) -> bool {
        self.nodes.is_up(node.0)
    }

    /// Mark one node failed or restored. Idempotent; bumps the version (and
    /// stamps a fresh entry record with it) only on an actual change.
    pub fn set_node(&mut self, node: NodeId, up: bool) {
        self.nodes.set(node.0, up, &mut self.version);
    }

    /// Mark the bidirectional global link attached at `(router, port)` up or
    /// down in **both** incident groups' index spaces — the form fault
    /// events arrive in. Non-global and unwired ports are ignored.
    pub fn set_global_link(
        &mut self,
        topo: &impl Topology,
        router: RouterId,
        port: Port,
        up: bool,
    ) {
        let layout = topo.layout();
        if port.class(&layout) != PortClass::Global {
            return;
        }
        let k = port.class_offset(&layout);
        // unwired: a padded global index (e.g. Megafly leaf) or a peer group
        // that is not populated
        let Some((peer, peer_port)) = topo.global_neighbor(router, k) else {
            return;
        };
        let group = topo.router_group(router);
        let j = topo.global_link_index(router, k);
        let peer_group = topo.router_group(peer);
        let peer_j = topo.global_link_index(peer, peer_port.class_offset(&layout));
        self.set_entry(group, j, up);
        self.set_entry(peer_group, peer_j, up);
    }

    /// Copy `src` into `self` if the versions differ (the router-side view
    /// install; a no-op — one integer compare — when nothing changed).
    ///
    /// Version equality is only a valid change proxy when `self` tracks a
    /// *single* source map (a router view installing its own group's
    /// flooded view): that source's version is a monotonic change counter,
    /// so equal versions imply equal content. Do not install one view from
    /// alternating sources.
    pub fn install_from(&mut self, src: &GatewayLiveness) {
        if self.version != src.version {
            self.links_per_group = src.links_per_group;
            self.version = src.version;
            for (dst, src) in [(&mut self.links, &src.links), (&mut self.nodes, &src.nodes)] {
                dst.records.clone_from(&src.records);
                dst.down.clone_from(&src.down);
            }
        }
    }

    /// Merge every entry of `src` into `self`, adopting the records with
    /// the newer sequence number (one flooding hop: `src` is a live
    /// neighbour group's previous-round view). Bumps the version and
    /// returns `true` if anything was adopted.
    pub fn merge_from(&mut self, src: &GatewayLiveness) -> bool {
        let changed = self.links.merge(&src.links.records) | self.nodes.merge(&src.nodes.records);
        if changed {
            self.version += 1;
        }
        changed
    }

    /// Merge the entries of `truth` that `group` observes *directly* — its
    /// own global-link index space (a gateway router senses its attached
    /// link die or heal at the port) and the failure state of its own
    /// nodes (the source NIC reports into its router). This is the origin
    /// injection of the flooding protocol; everything else travels
    /// hop-by-hop via [`merge_from`](Self::merge_from). Bumps the version
    /// and returns `true` if anything was adopted.
    pub fn merge_own_from(
        &mut self,
        truth: &GatewayLiveness,
        topo: &impl Topology,
        group: GroupId,
    ) -> bool {
        let lo = group.0 * truth.links_per_group;
        let hi = lo + truth.links_per_group;
        let own_links = &truth.links.records;
        let start = own_links.partition_point(|r| r.0 < lo);
        let own_nodes = truth
            .nodes
            .records
            .iter()
            .filter(|r| topo.router_group(topo.node_router(NodeId(r.0))) == group);
        let changed = self
            .links
            .merge(own_links[start..].iter().take_while(|r| r.0 < hi))
            | self.nodes.merge(own_nodes);
        if changed {
            self.version += 1;
        }
        changed
    }

    /// Whether this map's down-marks (links and nodes) are semantically
    /// identical to `other`'s, ignoring versions and record freshness — the
    /// convergence predicate of the flooding protocol.
    pub fn same_marks(&self, other: &GatewayLiveness) -> bool {
        self.links.down == other.links.down && self.nodes.down == other.nodes.down
    }

    /// Everything a snapshot must carry, `(version, link records, node
    /// records)`: the links-per-group stamp is the topology's, and the down
    /// marks are determined by the records; both are rebuilt by
    /// [`from_raw_parts`](Self::from_raw_parts).
    #[allow(clippy::type_complexity)]
    pub fn raw_parts(&self) -> (u64, &[(u32, u64, bool)], &[(u32, u64, bool)]) {
        (self.version, &self.links.records, &self.nodes.records)
    }

    /// Rebuild a map of `topo` from [`raw_parts`](Self::raw_parts) output.
    /// Both record vectors must be strictly sorted by key, as a live map
    /// always holds them (the snapshot decoder checks before calling).
    pub fn from_raw_parts(
        topo: &impl Topology,
        version: u64,
        link_records: Vec<(u32, u64, bool)>,
        node_records: Vec<(u32, u64, bool)>,
    ) -> Self {
        GatewayLiveness {
            links_per_group: topo.global_links_per_group(),
            version,
            links: Keyspace::from_records(link_records),
            nodes: Keyspace::from_records(node_records),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dragonfly::Dragonfly;
    use crate::params::DragonflyParams;

    fn topo() -> Dragonfly {
        Dragonfly::new(DragonflyParams::small()) // p=2, a=4, h=2, 9 groups
    }

    #[test]
    fn gateway_liveness_tracks_both_incident_groups() {
        let t = topo();
        let mut g = GatewayLiveness::new(&t);
        assert!(g.all_up());
        assert_eq!(g.version(), 0);
        let (gw, port) = t.gateway_to(GroupId(0), GroupId(1));
        g.set_global_link(&t, gw, port, false);
        assert!(!g.all_up());
        assert_eq!(g.num_down(), 2, "the link is down in both groups' spaces");
        let j01 = t.group_link_to(GroupId(0), GroupId(1));
        let j10 = t.group_link_to(GroupId(1), GroupId(0));
        assert!(!g.link_up(GroupId(0), j01));
        assert!(!g.link_up(GroupId(1), j10));
        assert!(g.link_up(GroupId(0), (j01 + 1) % t.params().global_links_per_group()));
        let v = g.version();
        // idempotent: re-marking changes nothing
        g.set_global_link(&t, gw, port, false);
        assert_eq!(g.version(), v);
        // restoring clears both entries
        g.set_global_link(&t, gw, port, true);
        assert!(g.all_up());
        assert!(g.version() > v);
    }

    #[test]
    fn gateway_liveness_ignores_non_global_ports() {
        let t = topo();
        let mut g = GatewayLiveness::new(&t);
        g.set_global_link(&t, RouterId(0), Port(0), false); // terminal
        g.set_global_link(&t, RouterId(0), Port::local(t.params(), 0), false);
        assert!(g.all_up());
        assert_eq!(g.version(), 0);
    }

    #[test]
    fn gateway_liveness_install_copies_only_on_version_change() {
        let t = topo();
        let mut truth = GatewayLiveness::new(&t);
        let mut view = GatewayLiveness::new(&t);
        let (gw, port) = t.gateway_to(GroupId(2), GroupId(5));
        truth.set_global_link(&t, gw, port, false);
        view.install_from(&truth);
        assert_eq!(view, truth);
        // a stale view re-installs after the next change
        truth.set_global_link(&t, gw, port, true);
        assert_ne!(view.version(), truth.version());
        view.install_from(&truth);
        assert!(view.all_up());
        assert_eq!(view, truth);
    }

    #[test]
    fn merge_own_from_adopts_only_the_groups_own_entries() {
        let t = topo();
        let mut truth = GatewayLiveness::new(&t);
        let (gw, port) = t.gateway_to(GroupId(0), GroupId(1));
        truth.set_global_link(&t, gw, port, false);
        let mut v0 = GatewayLiveness::new(&t);
        let mut v5 = GatewayLiveness::new(&t);
        assert!(v0.merge_own_from(&truth, &t, GroupId(0)));
        assert!(!v5.merge_own_from(&truth, &t, GroupId(5)));
        let j01 = t.group_link_to(GroupId(0), GroupId(1));
        let j10 = t.group_link_to(GroupId(1), GroupId(0));
        assert!(v0.marks_down(GroupId(0), j01));
        // group 1's entry for the same physical link originates at group 1
        assert!(!v0.marks_down(GroupId(1), j10));
        assert!(v5.all_up());
        // idempotent: a second origin injection adopts nothing
        assert!(!v0.merge_own_from(&truth, &t, GroupId(0)));
    }

    #[test]
    fn merge_from_lets_the_fresher_record_win() {
        let t = topo();
        let mut truth = GatewayLiveness::new(&t);
        let (gw, port) = t.gateway_to(GroupId(2), GroupId(3));
        truth.set_global_link(&t, gw, port, false);
        // a neighbour view that saw the down-mark
        let mut stale = GatewayLiveness::new(&t);
        stale.merge_own_from(&truth, &t, GroupId(2));
        // the link heals; the origin group observes the fresher up-record
        truth.set_global_link(&t, gw, port, true);
        let mut fresh = GatewayLiveness::new(&t);
        fresh.merge_own_from(&truth, &t, GroupId(2));
        assert!(fresh.all_up());
        // the stale down-mark cannot overwrite the fresher up-record...
        assert!(!fresh.merge_from(&stale) || fresh.all_up());
        assert!(fresh.all_up());
        // ...but the fresh up-record does clear the stale view's mark
        assert!(stale.merge_from(&fresh));
        assert!(stale.all_up());
        assert!(stale.same_marks(&truth));
    }

    #[test]
    fn node_entries_mark_merge_and_clear() {
        let t = topo();
        let mut truth = GatewayLiveness::new(&t);
        assert!(truth.node_up(NodeId(3)));
        truth.set_node(NodeId(3), false);
        assert!(!truth.node_up(NodeId(3)));
        assert!(truth.all_up(), "node failures do not mark gateway links");
        let v = truth.version();
        truth.set_node(NodeId(3), false);
        assert_eq!(truth.version(), v, "idempotent");
        // the owning group (node 3 sits on router 1, group 0) observes it
        let own_group = t.router_group(t.node_router(NodeId(3)));
        let mut view = GatewayLiveness::new(&t);
        assert!(view.merge_own_from(&truth, &t, own_group));
        assert!(!view.node_up(NodeId(3)));
        // a restore with a fresher sequence clears it through a merge
        truth.set_node(NodeId(3), true);
        let mut origin = GatewayLiveness::new(&t);
        origin.merge_own_from(&truth, &t, own_group);
        assert!(view.merge_from(&origin));
        assert!(view.node_up(NodeId(3)));
        assert!(view.same_marks(&truth));
    }
}
