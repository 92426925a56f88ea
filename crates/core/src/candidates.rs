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

use df_topology::{Port, RouterId, Topology};

/// A candidate nonminimal global link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalCandidate {
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
pub struct LocalCandidate {
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
pub fn global_candidates<T: Topology>(
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

/// Enumerate the local-detour candidates at `router`: every other router of
/// the group except the minimal next router `exclude` (the router the minimal
/// path would visit, so a "detour" through it would not be a detour at all).
/// Allocation-free and `Clone`, like [`global_candidates`].
pub fn local_candidates<T: Topology>(
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
