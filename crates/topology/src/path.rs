//! Router-level path computation helpers.
//!
//! The simulator routes packets hop by hop (decisions are taken at every
//! router, possibly adaptively), so these helpers are **not** used on the data
//! path. They exist to:
//!
//! * verify that hop-by-hop routing reproduces the hierarchical minimal path
//!   (`l? g? l?`) and the Valiant path (`l? g? l? l? g? l?`),
//! * compute path-length distributions for the analytical checks in the
//!   documentation and tests.

use crate::dragonfly::Dragonfly;
use crate::ids::RouterId;
use crate::port::{Port, PortClass};
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// The kind of link a hop traverses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HopKind {
    /// Intra-group hop.
    Local,
    /// Inter-group hop.
    Global,
}

/// One hop of a router-level path: the router the hop leaves from, the output
/// port used, and the router it arrives at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathHop {
    /// Router the hop departs from.
    pub from: RouterId,
    /// Output port taken at `from`.
    pub port: Port,
    /// Router the hop arrives at.
    pub to: RouterId,
    /// Link class of the hop.
    pub kind: HopKind,
}

/// Compute the hierarchical minimal path between two routers.
///
/// The canonical Dragonfly minimal path is at most `local, global, local`
/// (`lgl`): a local hop to the gateway router of the source group (if
/// needed), the single global link towards the destination group (if the
/// groups differ), and a local hop to the destination router (if needed).
pub fn minimal_path(topo: &Dragonfly, src: RouterId, dst: RouterId) -> Vec<PathHop> {
    let mut hops = Vec::with_capacity(3);
    if src == dst {
        return hops;
    }
    let src_group = topo.router_group(src);
    let dst_group = topo.router_group(dst);
    let mut current = src;
    if src_group == dst_group {
        hops.push(local_hop(topo, current, dst));
        return hops;
    }
    // 1. reach the gateway router of the source group
    let (gateway, gport) = topo.gateway_to(src_group, dst_group);
    if current != gateway {
        hops.push(local_hop(topo, current, gateway));
        current = gateway;
    }
    // 2. take the global link
    let (entry, _) = topo
        .global_neighbor(current, gport.class_offset(topo.params()))
        .expect("gateway link must be wired between populated groups");
    hops.push(PathHop {
        from: current,
        port: gport,
        to: entry,
        kind: HopKind::Global,
    });
    current = entry;
    // 3. local hop inside the destination group
    if current != dst {
        hops.push(local_hop(topo, current, dst));
    }
    hops
}

/// Compute a Valiant path: minimal to the intermediate router, then minimal to
/// the destination. The caller chooses the intermediate router (typically
/// uniformly at random in a random intermediate group, per the paper's VAL
/// implementation).
pub fn valiant_path(
    topo: &Dragonfly,
    src: RouterId,
    intermediate: RouterId,
    dst: RouterId,
) -> Vec<PathHop> {
    let mut hops = minimal_path(topo, src, intermediate);
    hops.extend(minimal_path(topo, intermediate, dst));
    hops
}

/// Number of local and global hops of a path, `(locals, globals)`.
pub fn hop_census(path: &[PathHop]) -> (usize, usize) {
    let locals = path.iter().filter(|h| h.kind == HopKind::Local).count();
    let globals = path.iter().filter(|h| h.kind == HopKind::Global).count();
    (locals, globals)
}

fn local_hop(topo: &Dragonfly, from: RouterId, to: RouterId) -> PathHop {
    debug_assert_eq!(topo.router_group(from), topo.router_group(to));
    let port = topo.local_port_to(from, to);
    PathHop {
        from,
        port,
        to,
        kind: HopKind::Local,
    }
}

/// Validate that a path is well formed: consecutive hops chain, every hop
/// follows an actual topology link, and the path ends at `dst`.
pub fn validate_path(topo: &Dragonfly, src: RouterId, dst: RouterId, path: &[PathHop]) -> bool {
    let mut current = src;
    for hop in path {
        if hop.from != current {
            return false;
        }
        match hop.port.class(topo.params()) {
            PortClass::Local => {
                if hop.kind != HopKind::Local {
                    return false;
                }
                let n = topo.local_neighbor(current, hop.port.class_offset(topo.params()));
                if n != hop.to {
                    return false;
                }
            }
            PortClass::Global => {
                if hop.kind != HopKind::Global {
                    return false;
                }
                match topo.global_neighbor(current, hop.port.class_offset(topo.params())) {
                    Some((n, _)) if n == hop.to => {}
                    _ => return false,
                }
            }
            PortClass::Terminal => return false,
        }
        current = hop.to;
    }
    current == dst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DragonflyParams;

    fn df() -> Dragonfly {
        Dragonfly::new(DragonflyParams::small())
    }

    #[test]
    fn same_router_has_empty_path() {
        let t = df();
        assert!(minimal_path(&t, RouterId(3), RouterId(3)).is_empty());
    }

    #[test]
    fn same_group_is_one_local_hop() {
        let t = df();
        let path = minimal_path(&t, RouterId(0), RouterId(2));
        assert_eq!(path.len(), 1);
        assert_eq!(path[0].kind, HopKind::Local);
        assert!(validate_path(&t, RouterId(0), RouterId(2), &path));
    }

    #[test]
    fn minimal_paths_are_at_most_lgl() {
        let t = df();
        for src in t.routers() {
            for dst in t.routers() {
                let path = minimal_path(&t, src, dst);
                assert!(path.len() <= 3, "minimal path {src}->{dst} too long");
                let (l, g) = hop_census(&path);
                assert!(l <= 2 && g <= 1);
                assert!(
                    validate_path(&t, src, dst, &path),
                    "invalid path {src}->{dst}"
                );
                // hierarchical shape: any global hop is preceded only by locals of
                // the source group and followed only by locals of the destination
                if g == 1 {
                    let gpos = path.iter().position(|h| h.kind == HopKind::Global).unwrap();
                    assert!(gpos <= 1);
                    assert!(path.len() - gpos <= 2);
                }
            }
        }
    }

    #[test]
    fn valiant_paths_are_at_most_six_hops_and_valid() {
        let t = df();
        let routers: Vec<_> = t.routers().collect();
        for (i, &src) in routers.iter().enumerate().step_by(5) {
            for (j, &dst) in routers.iter().enumerate().step_by(7) {
                let inter = routers[(i * 13 + j * 7 + 5) % routers.len()];
                let path = valiant_path(&t, src, inter, dst);
                assert!(path.len() <= 6);
                let (l, g) = hop_census(&path);
                assert!(l <= 4 && g <= 2);
                assert!(validate_path(&t, src, dst, &path));
            }
        }
    }

    #[test]
    fn validate_rejects_broken_chains() {
        let t = df();
        let mut path = minimal_path(&t, RouterId(0), RouterId(20));
        assert!(validate_path(&t, RouterId(0), RouterId(20), &path));
        // corrupt the chain
        if path.len() >= 2 {
            path.swap(0, 1);
            assert!(!validate_path(&t, RouterId(0), RouterId(20), &path));
        }
    }

    #[test]
    fn cross_group_minimal_path_uses_the_unique_gateway() {
        let t = df();
        let src = RouterId(0);
        for dst in t.routers() {
            if t.router_group(dst) == t.router_group(src) || dst == src {
                continue;
            }
            let path = minimal_path(&t, src, dst);
            let global_hops: Vec<_> = path.iter().filter(|h| h.kind == HopKind::Global).collect();
            assert_eq!(global_hops.len(), 1);
            let (gw, _) = t.gateway_to(t.router_group(src), t.router_group(dst));
            assert_eq!(global_hops[0].from, gw);
        }
    }
}
