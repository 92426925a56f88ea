//! Enumeration of nonminimal path candidates.
//!
//! * **Global misrouting** sends a packet to an intermediate group. Following
//!   the MM+L policy of García et al. (used by OLM and adopted by the
//!   paper's mechanisms), the candidate set contains every global link of the
//!   current group except the minimal one: links owned by the current router
//!   are reached directly through their global port, links owned by a
//!   neighbour router are reached through the local port towards that
//!   neighbour.
//! * **Local misrouting** diverts a packet to a random non-minimal router of
//!   the current group before it continues minimally (used in the
//!   intermediate and destination groups to spread load over local links).
//!
//! `global_candidates` is the one definition of the global candidates and
//! of their order — which the drawn index depends on. A selection walks the
//! router's candidate table instead (`candidate_table`): the same sequence,
//! enumerated once per router and packed, so a fired row pays a filter per
//! candidate instead of the topology arithmetic behind each.

use df_router::{CandidateLink, CandidateTable, Router};
use df_topology::{Port, RouterId, Topology};

/// A candidate nonminimal global link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GlobalCandidate {
    /// Router of the current group owning the candidate global link.
    pub gateway: RouterId,
    /// Global port of that router.
    pub gateway_port: Port,
    /// Output port of the *current* router that starts the path towards the
    /// candidate link (the global port itself if the current router owns it,
    /// otherwise the local port towards the gateway).
    pub first_hop: Port,
    /// Group-level global link index (`0..a*h`), the index used by the ECtN
    /// combined counters.
    pub link: u32,
}

/// A candidate local detour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LocalCandidate {
    /// The detour router.
    pub router: RouterId,
    /// The local output port of the current router leading to it.
    pub port: Port,
}

/// Enumerate the nonminimal global-link candidates for a packet at `router`
/// whose minimal global link (towards its destination group) is
/// `minimal_link` (pass `None` when the destination is in the current group,
/// although global misrouting is normally not considered in that case), in
/// ascending link order — so candidates behind one gateway, which share a
/// first hop, are adjacent.
///
/// When `own_links_only` is true only the global links of `router` itself are
/// returned (the restriction the paper applies to ECtN misrouting at
/// injection). The iterator allocates nothing and is `Clone`, so a
/// selection can count its eligible candidates, then walk to the drawn one.
pub(crate) fn global_candidates<T: Topology>(
    topo: &T,
    router: RouterId,
    minimal_link: Option<u32>,
    own_links_only: bool,
) -> impl Iterator<Item = GlobalCandidate> + Clone + '_ {
    let group = topo.router_group(router);
    // the router's own links are its global ports in order; all of the
    // group's are the link indices themselves
    let count = if own_links_only {
        topo.own_globals(router)
    } else {
        topo.global_links_per_group()
    };
    (0..count).filter_map(move |i| {
        let j = if own_links_only {
            topo.global_link_index(router, i)
        } else {
            i
        };
        if Some(j) == minimal_link {
            return None;
        }
        // skip links whose peer group is not populated
        topo.global_link_target_group(group, j)?;
        let (gateway, gateway_port) = topo.global_link_owner(group, j);
        debug_assert!(!own_links_only || gateway == router);
        // the topology may veto candidates it cannot start within the VC
        // ladder (e.g. a Megafly spine heading for another spine's link)
        let first_hop = topo.candidate_first_hop(router, gateway, gateway_port)?;
        Some(GlobalCandidate {
            gateway,
            gateway_port,
            first_hop,
            link: j,
        })
    })
}

/// The candidate table of `router`: its [`global_candidates`] with no
/// minimal link excluded, packed, built on the first call for the router
/// (its first global selection) and kept beside it.
pub(crate) fn candidate_table(router: &Router) -> &CandidateTable {
    router.candidate_table(|| {
        let topo = router.topology();
        let layout = topo.layout();
        let own = topo.router_local_index(router.id());
        let links: Box<[CandidateLink]> = global_candidates(topo, router.id(), None, false)
            .map(|c| CandidateLink {
                link: c.link,
                gateway_local: u16::try_from(topo.router_local_index(c.gateway))
                    .expect("a group has fewer than 2^16 routers"),
                gateway_offset: u8::try_from(c.gateway_port.class_offset(&layout))
                    .expect("a global port offset is below MAX_RADIX"),
                first_hop: u8::try_from(c.first_hop.0).expect("a port index is below MAX_RADIX"),
            })
            .collect();
        let is_own = |c: &CandidateLink| u32::from(c.gateway_local) == own;
        let start = links.iter().position(is_own).unwrap_or(0);
        let end = links.iter().rposition(is_own).map_or(0, |last| last + 1);
        CandidateTable {
            links,
            own: start..end,
        }
    })
}

/// [`global_candidates`] of `router`, read off its [`candidate_table`]: the
/// same candidates in the same order, packed.
pub(crate) fn table_candidates(
    router: &Router,
    minimal_link: Option<u32>,
    own_links_only: bool,
) -> impl Iterator<Item = CandidateLink> + Clone + '_ {
    let table = candidate_table(router);
    let own = router.topology().router_local_index(router.id());
    let range = if own_links_only {
        table.own.clone()
    } else {
        0..table.links.len()
    };
    table.links[range].iter().copied().filter(move |c| {
        Some(c.link) != minimal_link && (!own_links_only || u32::from(c.gateway_local) == own)
    })
}

/// The candidate a table entry of `router` packs.
pub(crate) fn unpack(router: &Router, c: CandidateLink) -> GlobalCandidate {
    let topo = router.topology();
    GlobalCandidate {
        gateway: topo.router_at(router.group(), u32::from(c.gateway_local)),
        gateway_port: Port::global(&topo.layout(), u32::from(c.gateway_offset)),
        first_hop: Port(u32::from(c.first_hop)),
        link: c.link,
    }
}

/// Enumerate the local-detour candidates at `router`: every other router of
/// the group except the minimal next router `exclude` (the router the minimal
/// path would visit, so a "detour" through it would not be a detour at all).
/// Allocation-free and `Clone`, like [`global_candidates`].
pub(crate) fn local_candidates<T: Topology>(
    topo: &T,
    router: RouterId,
    exclude: Option<RouterId>,
) -> impl Iterator<Item = LocalCandidate> + Clone + '_ {
    let layout = topo.layout();
    (0..topo.local_misroute_degree(router)).filter_map(move |k| {
        let neighbor = topo.local_neighbor(router, k);
        (Some(neighbor) != exclude).then(|| LocalCandidate {
            router: neighbor,
            port: Port::local(&layout, k),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_topology::{Dragonfly, DragonflyParams, GroupId, PortClass};

    fn topo() -> Dragonfly {
        Dragonfly::new(DragonflyParams::small()) // p=2,a=4,h=2 → a*h=8 links/group
    }

    #[test]
    fn global_candidates_cover_all_but_minimal_link() {
        let t = topo();
        let router = RouterId(1);
        let minimal = 3u32;
        let cands: Vec<_> = global_candidates(&t, router, Some(minimal), false).collect();
        assert_eq!(
            cands.len(),
            (t.params().global_links_per_group() - 1) as usize
        );
        assert!(cands.iter().all(|c| c.link != minimal));
        // every candidate's gateway is in the same group and owns the link
        for c in &cands {
            assert_eq!(t.router_group(c.gateway), t.router_group(router));
            let (owner, port) = t.global_link_owner(t.router_group(router), c.link);
            assert_eq!(owner, c.gateway);
            assert_eq!(port, c.gateway_port);
            // first hop is the global port itself or a local port to the gateway
            if c.gateway == router {
                assert_eq!(c.first_hop, c.gateway_port);
            } else {
                assert_eq!(c.first_hop.class(t.params()), PortClass::Local);
                let n = t.local_neighbor(router, c.first_hop.class_offset(t.params()));
                assert_eq!(n, c.gateway);
            }
        }
    }

    #[test]
    fn own_links_only_restricts_to_the_current_router() {
        let t = topo();
        let router = RouterId(2);
        let cands: Vec<_> = global_candidates(&t, router, None, true).collect();
        assert_eq!(cands.len(), t.params().h as usize);
        assert!(cands.iter().all(|c| c.gateway == router));
        assert!(cands
            .iter()
            .all(|c| c.first_hop.class(t.params()) == PortClass::Global));
    }

    #[test]
    fn partial_networks_skip_dangling_links() {
        let t = Dragonfly::new(DragonflyParams::new(2, 4, 2, 5).unwrap());
        let cands: Vec<_> = global_candidates(&t, RouterId(0), None, false).collect();
        // only links towards the 4 other populated groups remain
        assert_eq!(cands.len(), 4);
        for c in &cands {
            assert!(t.global_link_target_group(GroupId(0), c.link).is_some());
        }
    }

    /// The table is the enumerator, entry for entry and in order — a draw
    /// picks a position in the sequence — for every router of eight
    /// instances of both families, every minimal link (and none) and both
    /// scopes, against the concrete family and the `TopologyParams` made from it.
    #[test]
    fn the_candidate_table_yields_the_enumerator_sequence() {
        use df_model::NetworkConfig;
        use df_topology::{Megafly, MegaflyParams, TopologyParams};
        fn check<T: Topology + Into<TopologyParams>>(t: T) {
            let any: TopologyParams = t.into();
            for id in t.routers() {
                let router = Router::new(id, any, NetworkConfig::fast_test());
                let minimal_links = (0..t.global_links_per_group()).map(Some);
                for minimal_link in std::iter::once(None).chain(minimal_links) {
                    for own_links_only in [false, true] {
                        let table: Vec<GlobalCandidate> =
                            table_candidates(&router, minimal_link, own_links_only)
                                .map(|c| unpack(&router, c))
                                .collect();
                        let what = format!("{t:?} {id} {minimal_link:?} own {own_links_only}");
                        let family = global_candidates(&t, id, minimal_link, own_links_only);
                        assert!(table.iter().copied().eq(family), "{what}");
                        let dispatched = global_candidates(&any, id, minimal_link, own_links_only);
                        assert!(table.iter().copied().eq(dispatched), "{what}");
                    }
                }
            }
        }
        let partial = DragonflyParams::new(2, 4, 2, 5).unwrap();
        for params in [
            DragonflyParams::tiny(),
            DragonflyParams::small(),
            DragonflyParams::medium(),
            partial,
        ] {
            check(Dragonfly::new(params));
        }
        let partial = MegaflyParams::new(2, 4, 4, 2, 5).unwrap();
        for params in [
            MegaflyParams::tiny(),
            MegaflyParams::small(),
            MegaflyParams::medium(),
            partial,
        ] {
            check(Megafly::new(params));
        }
    }

    #[test]
    fn local_candidates_exclude_the_minimal_router() {
        let t = topo();
        let router = RouterId(0);
        let exclude = RouterId(2);
        let cands: Vec<_> = local_candidates(&t, router, Some(exclude)).collect();
        assert_eq!(cands.len(), (t.params().a - 2) as usize);
        assert!(cands
            .iter()
            .all(|c| c.router != exclude && c.router != router));
        for c in &cands {
            let n = t.local_neighbor(router, c.port.class_offset(t.params()));
            assert_eq!(n, c.router);
        }
    }

    #[test]
    fn local_candidates_without_exclusion() {
        let t = topo();
        let cands = local_candidates(&t, RouterId(5), None);
        assert_eq!(cands.count(), (t.params().a - 1) as usize);
    }
}
