//! Traffic patterns: who sends to whom.

use df_engine::DeterministicRng;
use df_topology::{GroupId, NodeId, Topology, TopologyParams};

/// Declarative description of a traffic pattern, used in configuration files
/// and experiment reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PatternKind {
    /// Uniform random traffic (UN).
    Uniform,
    /// Adversarial traffic ADV+`offset`: nodes of group `G` send to random
    /// nodes of group `(G + offset) mod groups`. `offset = 1` is the paper's
    /// ADV+1; `offset = h` is ADV+h, which additionally stresses local links.
    Adversarial {
        /// Group offset `i` of ADV+i.
        offset: u32,
    },
    /// Mix of adversarial and uniform traffic: each packet is uniform with
    /// probability `uniform_fraction`, adversarial (ADV+`offset`) otherwise
    /// (Figure 6).
    Mixed {
        /// Group offset of the adversarial component.
        offset: u32,
        /// Probability that a packet follows the uniform component.
        uniform_fraction: f64,
    },
    /// Random permutation traffic: a fixed-point-free permutation of the
    /// nodes, drawn once from `seed` (independent of the run seed, so the
    /// permutation is part of the workload specification). Every node always
    /// sends to the same peer, which concentrates load on a static set of
    /// paths.
    Permutation {
        /// Seed the permutation is derived from.
        seed: u64,
    },
    /// Hotspot traffic: with probability `fraction` the destination is one of
    /// `hotspots` evenly spaced hot nodes (uniform among them), otherwise
    /// uniform among all other nodes.
    Hotspot {
        /// Number of hot destination nodes (evenly spaced over the node
        /// index range, so they land in different groups).
        hotspots: u32,
        /// Probability that a packet targets the hotspot set.
        fraction: f64,
    },
    /// Bit-complement traffic: node `i` always sends to node `n-1-i`, which
    /// is the bitwise complement of `i` when the node count `n` is a power
    /// of two (and the mirrored index otherwise). Requires an even `n`.
    BitComplement,
    /// Bit-reversal traffic: node `i < m` (with `m` the largest power of two
    /// `≤ n`) sends to the node whose index reverses `i`'s `log2(m)` bits;
    /// the tail `m..n` and the palindromic indices are rotated among
    /// themselves so the map stays a fixed-point-free bijection for any `n`.
    BitReversal,
    /// Group-local versus global mix: with probability `local_fraction` the
    /// destination is uniform within the source's own group, otherwise
    /// uniform among the nodes of all other groups.
    GroupLocal {
        /// Probability that a packet stays inside its source group.
        local_fraction: f64,
    },
}

impl PatternKind {
    /// Short name used in result tables ("UN", "ADV+1", ...).
    pub fn label(&self) -> String {
        match self {
            PatternKind::Uniform => "UN".to_string(),
            PatternKind::Adversarial { offset } => format!("ADV+{offset}"),
            PatternKind::Mixed {
                offset,
                uniform_fraction,
            } => format!("MIX(ADV+{offset},{:.0}%UN)", uniform_fraction * 100.0),
            PatternKind::Permutation { seed } => format!("PERM({seed})"),
            PatternKind::Hotspot { hotspots, fraction } => {
                format!("HOT({hotspots}x{:.0}%)", fraction * 100.0)
            }
            PatternKind::BitComplement => "BITCOMP".to_string(),
            PatternKind::BitReversal => "BITREV".to_string(),
            PatternKind::GroupLocal { local_fraction } => {
                format!("LOC({:.0}%)", local_fraction * 100.0)
            }
        }
    }

    /// Check the pattern parameters against a topology without building it.
    pub fn validate(&self, topo: &impl Topology) -> Result<(), String> {
        let n = topo.num_nodes();
        match *self {
            PatternKind::Uniform | PatternKind::Permutation { .. } | PatternKind::BitReversal => {}
            PatternKind::Adversarial { .. } | PatternKind::Mixed { .. } => {
                if topo.num_groups() < 2 {
                    return Err("adversarial traffic needs at least two groups".into());
                }
            }
            PatternKind::Hotspot { hotspots, fraction } => {
                if hotspots == 0 || hotspots > n {
                    return Err(format!("hotspot count must be in 1..={n}, got {hotspots}"));
                }
                if !(0.0..=1.0).contains(&fraction) {
                    return Err(format!("hotspot fraction must be in [0,1], got {fraction}"));
                }
            }
            PatternKind::BitComplement => {
                if !n.is_multiple_of(2) {
                    return Err(format!("bit-complement needs an even node count, got {n}"));
                }
            }
            PatternKind::GroupLocal { local_fraction } => {
                if !(0.0..=1.0).contains(&local_fraction) {
                    return Err(format!(
                        "group-local fraction must be in [0,1], got {local_fraction}"
                    ));
                }
                if topo.num_groups() < 2 {
                    return Err("group-local traffic needs at least two groups".into());
                }
                let group_size = topo.nodes_per_group();
                if local_fraction > 0.0 && group_size < 2 {
                    return Err(format!(
                        "group-local traffic needs at least two nodes per group \
                         for a non-zero local fraction, got {group_size}"
                    ));
                }
            }
        }
        if let PatternKind::Mixed {
            uniform_fraction, ..
        } = *self
        {
            if !(0.0..=1.0).contains(&uniform_fraction) {
                return Err(format!(
                    "uniform fraction must be in [0,1], got {uniform_fraction}"
                ));
            }
        }
        Ok(())
    }

    /// Materialise the pattern for a topology.
    ///
    /// # Panics
    /// Panics if [`validate`](Self::validate) rejects the pattern for this
    /// topology.
    pub fn build(&self, topo: impl Into<TopologyParams>) -> TrafficPattern {
        let topo = topo.into();
        self.validate(&topo)
            .unwrap_or_else(|e| panic!("invalid pattern {self:?}: {e}"));
        let n = topo.num_nodes() as usize;
        let map = match *self {
            PatternKind::Permutation { seed } => Some(sattolo_permutation(n, seed)),
            PatternKind::BitComplement => Some(complement_map(n)),
            PatternKind::BitReversal => Some(bit_reversal_map(n)),
            _ => None,
        };
        let hotspot_nodes = match *self {
            PatternKind::Hotspot { hotspots, .. } => {
                let stride = (n as u32 / hotspots).max(1);
                Some((0..hotspots).map(|k| k * stride).collect())
            }
            _ => None,
        };
        TrafficPattern {
            kind: *self,
            topo,
            map,
            hotspot_nodes,
        }
    }
}

/// A uniformly random *cyclic* permutation of `0..n` (Sattolo's algorithm):
/// a single n-cycle, hence fixed-point-free for `n ≥ 2`.
fn sattolo_permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = DeterministicRng::new(seed).split(0x5EED_9E24);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut i = n.saturating_sub(1);
    while i > 0 {
        let j = rng.index(i); // j in [0, i): never a self-swap
        perm.swap(i, j);
        i -= 1;
    }
    perm
}

/// The mirror map `i → n-1-i`: the bitwise complement of `i` in `log2(n)`
/// bits when `n` is a power of two. An involution; fixed-point-free for even
/// `n` (enforced by [`PatternKind::validate`]).
fn complement_map(n: usize) -> Vec<u32> {
    (0..n as u32).map(|i| (n as u32 - 1) - i).collect()
}

/// Bit reversal over the largest power-of-two prefix `[0, m)`, identity on
/// the tail `[m, n)`, with every fixed point (bit palindromes plus the tail)
/// rotated one position among themselves. The rotation keeps the map a
/// bijection and removes all self-destinations; `0` and `m-1` are always
/// palindromes, so the rotation set has at least two members.
fn bit_reversal_map(n: usize) -> Vec<u32> {
    let m = if n.is_power_of_two() {
        n
    } else {
        n.next_power_of_two() / 2
    };
    let bits = m.trailing_zeros();
    let mut map: Vec<u32> = (0..n as u32)
        .map(|i| {
            if (i as usize) < m {
                i.reverse_bits() >> (32 - bits)
            } else {
                i
            }
        })
        .collect();
    let fixed: Vec<u32> = (0..n as u32).filter(|&i| map[i as usize] == i).collect();
    if fixed.len() >= 2 {
        for (k, &i) in fixed.iter().enumerate() {
            map[i as usize] = fixed[(k + 1) % fixed.len()];
        }
    }
    map
}

/// A traffic pattern bound to a topology: maps a source node (plus
/// randomness) to a destination node.
#[derive(Debug, Clone)]
pub struct TrafficPattern {
    kind: PatternKind,
    topo: TopologyParams,
    /// Precomputed destination map for permutation-style patterns.
    map: Option<Vec<u32>>,
    /// Precomputed hot destination list for [`PatternKind::Hotspot`].
    hotspot_nodes: Option<Vec<u32>>,
}

impl TrafficPattern {
    /// The declarative kind of this pattern.
    pub fn kind(&self) -> PatternKind {
        self.kind
    }

    /// The topology the pattern is bound to.
    pub fn topology(&self) -> &TopologyParams {
        &self.topo
    }

    /// Draw a destination for a packet generated at `src`.
    ///
    /// The destination is always different from `src` (self-traffic is never
    /// generated, matching FOGSim).
    pub fn destination(&self, src: NodeId, rng: &mut DeterministicRng) -> NodeId {
        match self.kind {
            PatternKind::Uniform => self.uniform_destination(src, rng),
            PatternKind::Adversarial { offset } => self.adversarial_destination(src, offset, rng),
            PatternKind::Mixed {
                offset,
                uniform_fraction,
            } => {
                if rng.bernoulli(uniform_fraction) {
                    self.uniform_destination(src, rng)
                } else {
                    self.adversarial_destination(src, offset, rng)
                }
            }
            PatternKind::Permutation { .. }
            | PatternKind::BitComplement
            | PatternKind::BitReversal => {
                let map = self
                    .map
                    .as_ref()
                    .expect("map built for deterministic pattern");
                NodeId(map[src.index()])
            }
            PatternKind::Hotspot { fraction, .. } => self.hotspot_destination(src, fraction, rng),
            PatternKind::GroupLocal { local_fraction } => {
                self.group_local_destination(src, local_fraction, rng)
            }
        }
    }

    /// The hot destination nodes of a [`PatternKind::Hotspot`] pattern.
    pub fn hotspot_nodes(&self) -> Option<&[u32]> {
        self.hotspot_nodes.as_deref()
    }

    fn uniform_destination(&self, src: NodeId, rng: &mut DeterministicRng) -> NodeId {
        let n = self.topo.num_nodes() as u64;
        debug_assert!(n > 1, "uniform traffic needs at least two nodes");
        // draw uniformly among the n-1 other nodes
        let raw = rng.below(n - 1) as u32;
        let dst = if raw >= src.0 { raw + 1 } else { raw };
        NodeId(dst)
    }

    fn adversarial_destination(
        &self,
        src: NodeId,
        offset: u32,
        rng: &mut DeterministicRng,
    ) -> NodeId {
        let groups = self.topo.num_groups();
        debug_assert!(groups > 1, "adversarial traffic needs at least two groups");
        let offset = {
            // an offset that is a multiple of the group count would be
            // self-group traffic; fold it into the valid range 1..groups
            let m = offset % groups;
            if m == 0 {
                1
            } else {
                m
            }
        };
        let src_group = self.topo.node_group(src);
        let dst_group = GroupId((src_group.0 + offset) % groups);
        // uniform node within the destination group (node ids are dense and
        // group-major in every topology, so the group's nodes start at
        // group * nodes_per_group)
        let nodes_per_group = self.topo.nodes_per_group() as u64;
        let k = rng.below(nodes_per_group) as u32;
        NodeId(dst_group.0 * self.topo.nodes_per_group() + k)
    }

    fn hotspot_destination(
        &self,
        src: NodeId,
        fraction: f64,
        rng: &mut DeterministicRng,
    ) -> NodeId {
        if rng.bernoulli(fraction) {
            let hot = self
                .hotspot_nodes
                .as_ref()
                .expect("hotspot list built for hotspot pattern");
            // pick among the hot nodes that are not the source; fall back to
            // uniform traffic when the source is the only hot node
            let others = hot.iter().filter(|&&h| h != src.0).count();
            if others > 0 {
                let mut k = rng.index(others);
                for &h in hot.iter() {
                    if h == src.0 {
                        continue;
                    }
                    if k == 0 {
                        return NodeId(h);
                    }
                    k -= 1;
                }
                unreachable!("index was drawn below the candidate count");
            }
        }
        self.uniform_destination(src, rng)
    }

    fn group_local_destination(
        &self,
        src: NodeId,
        local_fraction: f64,
        rng: &mut DeterministicRng,
    ) -> NodeId {
        let group_size = self.topo.nodes_per_group();
        let group = self.topo.node_group(src);
        let first = group.0 * group_size;
        // group_size >= 2 whenever local_fraction > 0 (enforced by validate)
        if rng.bernoulli(local_fraction) {
            // uniform among the group_size-1 other nodes of the own group
            let raw = first + rng.below((group_size - 1) as u64) as u32;
            let dst = if raw >= src.0 { raw + 1 } else { raw };
            return NodeId(dst);
        }
        // uniform among the nodes of every other group
        let n = self.topo.num_nodes();
        let raw = rng.below((n - group_size) as u64) as u32;
        let dst = if raw >= first { raw + group_size } else { raw };
        NodeId(dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_topology::{Dragonfly, DragonflyParams};

    fn topo() -> Dragonfly {
        Dragonfly::new(DragonflyParams::small()) // p=2,a=4,h=2, 9 groups, 72 nodes
    }

    fn rng() -> DeterministicRng {
        DeterministicRng::new(7)
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PatternKind::Uniform.label(), "UN");
        assert_eq!(PatternKind::Adversarial { offset: 1 }.label(), "ADV+1");
        assert_eq!(PatternKind::Adversarial { offset: 8 }.label(), "ADV+8");
        assert_eq!(
            PatternKind::Mixed {
                offset: 1,
                uniform_fraction: 0.4
            }
            .label(),
            "MIX(ADV+1,40%UN)"
        );
    }

    #[test]
    fn uniform_never_targets_self_and_covers_nodes() {
        let p = PatternKind::Uniform.build(topo());
        let mut r = rng();
        let src = NodeId(10);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5_000 {
            let d = p.destination(src, &mut r);
            assert_ne!(d, src);
            assert!(d.0 < p.topology().num_nodes());
            seen.insert(d);
        }
        // 71 possible destinations; 5000 draws should see almost all of them
        assert!(seen.len() > 65, "saw only {} destinations", seen.len());
    }

    #[test]
    fn uniform_is_roughly_uniform() {
        let p = PatternKind::Uniform.build(topo());
        let mut r = rng();
        let n = p.topology().num_nodes() as usize;
        let mut counts = vec![0u32; n];
        let draws = 71_000;
        for _ in 0..draws {
            counts[p.destination(NodeId(0), &mut r).index()] += 1;
        }
        assert_eq!(counts[0], 0, "no self traffic");
        let expected = draws as f64 / (n as f64 - 1.0);
        for (i, &c) in counts.iter().enumerate().skip(1) {
            assert!(
                (c as f64) > expected * 0.7 && (c as f64) < expected * 1.3,
                "node {i} count {c} too far from expected {expected}"
            );
        }
    }

    #[test]
    fn adversarial_targets_the_offset_group() {
        let t = topo();
        let p = PatternKind::Adversarial { offset: 1 }.build(t);
        let mut r = rng();
        for src in t.nodes() {
            let d = p.destination(src, &mut r);
            let src_group = t.node_group(src);
            let dst_group = t.node_group(d);
            assert_eq!(
                dst_group.0,
                (src_group.0 + 1) % t.num_groups(),
                "ADV+1 must target the next group"
            );
        }
    }

    #[test]
    fn adversarial_offset_h_matches_paper_advh() {
        let t = topo();
        let h = t.params().h;
        let p = PatternKind::Adversarial { offset: h }.build(t);
        let mut r = rng();
        let src = NodeId(3);
        let d = p.destination(src, &mut r);
        assert_eq!(
            t.node_group(d).0,
            (t.node_group(src).0 + h) % t.num_groups()
        );
    }

    #[test]
    fn adversarial_offset_multiple_of_groups_does_not_self_target() {
        let t = topo();
        let groups = t.num_groups();
        let p = PatternKind::Adversarial { offset: groups * 2 }.build(t);
        let mut r = rng();
        for src in [NodeId(0), NodeId(33), NodeId(71)] {
            let d = p.destination(src, &mut r);
            assert_ne!(t.node_group(d), t.node_group(src));
        }
    }

    #[test]
    fn adversarial_spreads_within_destination_group() {
        let t = topo();
        let p = PatternKind::Adversarial { offset: 1 }.build(t);
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1_000 {
            seen.insert(p.destination(NodeId(0), &mut r));
        }
        // 8 nodes per group; all should appear
        assert_eq!(seen.len(), (t.params().a * t.params().p) as usize);
    }

    #[test]
    fn mixed_fraction_controls_the_blend() {
        let t = topo();
        let p = PatternKind::Mixed {
            offset: 1,
            uniform_fraction: 0.25,
        }
        .build(t);
        let mut r = rng();
        let src = NodeId(0);
        let adv_group = GroupId((t.node_group(src).0 + 1) % t.num_groups());
        let draws = 20_000;
        let adversarial = (0..draws)
            .filter(|_| t.node_group(p.destination(src, &mut r)) == adv_group)
            .count();
        let frac = adversarial as f64 / draws as f64;
        // 75% adversarial plus a small uniform contribution landing in that
        // group by chance (1/9th of the 25%)
        let expected = 0.75 + 0.25 / 9.0;
        assert!(
            (frac - expected).abs() < 0.03,
            "adversarial fraction {frac} should be ~{expected}"
        );
    }

    #[test]
    fn mixed_extremes_degenerate_to_pure_patterns() {
        let t = topo();
        let mut r = rng();
        let all_uniform = PatternKind::Mixed {
            offset: 1,
            uniform_fraction: 1.0,
        }
        .build(t);
        let all_adv = PatternKind::Mixed {
            offset: 1,
            uniform_fraction: 0.0,
        }
        .build(t);
        let src = NodeId(20);
        let adv_group = GroupId((t.node_group(src).0 + 1) % t.num_groups());
        for _ in 0..200 {
            let d = all_adv.destination(src, &mut r);
            assert_eq!(t.node_group(d), adv_group);
        }
        let mut all_in_adv_group = true;
        for _ in 0..200 {
            let d = all_uniform.destination(src, &mut r);
            if t.node_group(d) != adv_group {
                all_in_adv_group = false;
            }
        }
        assert!(
            !all_in_adv_group,
            "uniform traffic must leave the ADV group"
        );
    }

    #[test]
    fn destinations_are_deterministic_given_seed() {
        let t = topo();
        let p = PatternKind::Uniform.build(t);
        let mut r1 = DeterministicRng::new(3);
        let mut r2 = DeterministicRng::new(3);
        for src in t.nodes() {
            assert_eq!(p.destination(src, &mut r1), p.destination(src, &mut r2));
        }
    }

    /// Exhaustively check that a map-style pattern is a fixed-point-free
    /// bijection on every node of `t`.
    fn assert_bijection(t: Dragonfly, kind: PatternKind) {
        let p = kind.build(t);
        let mut r = rng();
        let mut seen = vec![false; t.num_nodes() as usize];
        for src in t.nodes() {
            let d = p.destination(src, &mut r);
            assert_ne!(d, src, "{} maps {src} to itself", kind.label());
            assert!(d.0 < t.num_nodes());
            assert!(!seen[d.index()], "{} maps two sources to {d}", kind.label());
            seen[d.index()] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "{} is not surjective",
            kind.label()
        );
    }

    #[test]
    fn permutation_is_a_fixed_point_free_bijection() {
        for seed in 0..20 {
            assert_bijection(topo(), PatternKind::Permutation { seed });
        }
    }

    #[test]
    fn bit_complement_is_a_fixed_point_free_bijection() {
        // 72 nodes (not a power of two) and a 64-node power-of-two network
        assert_bijection(topo(), PatternKind::BitComplement);
        let pow2 = Dragonfly::new(DragonflyParams::new(2, 4, 2, 8).unwrap());
        assert_eq!(pow2.num_nodes(), 64);
        assert_bijection(pow2, PatternKind::BitComplement);
    }

    #[test]
    fn bit_reversal_is_a_fixed_point_free_bijection() {
        assert_bijection(topo(), PatternKind::BitReversal);
        let pow2 = Dragonfly::new(DragonflyParams::new(2, 4, 2, 8).unwrap());
        assert_bijection(pow2, PatternKind::BitReversal);
    }

    #[test]
    fn bit_reversal_reverses_bits_on_a_power_of_two_network() {
        let pow2 = Dragonfly::new(DragonflyParams::new(2, 4, 2, 8).unwrap());
        let p = PatternKind::BitReversal.build(pow2);
        let map = p.map.unwrap();
        // 0b000110 reversed in 6 bits is 0b011000; neither is a palindrome
        assert_eq!(map[0b000110], 0b011000);
        assert_eq!(map[0b011000], 0b000110);
    }

    #[test]
    fn bit_complement_mirrors_the_index_range() {
        let t = topo();
        let p = PatternKind::BitComplement.build(t);
        let map = p.map.unwrap();
        let n = t.num_nodes();
        for i in 0..n {
            assert_eq!(map[i as usize], n - 1 - i);
        }
    }

    #[test]
    fn permutation_is_stable_across_builds_and_varies_with_seed() {
        let a = PatternKind::Permutation { seed: 5 }.build(topo());
        let b = PatternKind::Permutation { seed: 5 }.build(topo());
        let c = PatternKind::Permutation { seed: 6 }.build(topo());
        assert_eq!(a.map, b.map);
        assert_ne!(a.map, c.map);
    }

    #[test]
    fn hotspot_respects_its_weight_split() {
        let t = topo();
        let kind = PatternKind::Hotspot {
            hotspots: 4,
            fraction: 0.6,
        };
        let p = kind.build(t);
        let hot: std::collections::HashSet<u32> =
            p.hotspot_nodes().unwrap().iter().copied().collect();
        assert_eq!(hot.len(), 4, "hot nodes must be distinct");
        let mut r = rng();
        let src = NodeId(7); // not a hot node (hot nodes are 0,18,36,54)
        assert!(!hot.contains(&src.0));
        let draws = 40_000;
        let hits = (0..draws)
            .filter(|_| hot.contains(&p.destination(src, &mut r).0))
            .count();
        let frac = hits as f64 / draws as f64;
        // 60% targeted plus the uniform branch landing on a hot node by
        // chance (40% * 4/71)
        let expected = 0.6 + 0.4 * 4.0 / 71.0;
        assert!(
            (frac - expected).abs() < 0.02,
            "hotspot fraction {frac:.3} should be ~{expected:.3}"
        );
    }

    #[test]
    fn hotspot_nodes_span_multiple_groups() {
        let t = topo();
        let p = PatternKind::Hotspot {
            hotspots: 4,
            fraction: 1.0,
        }
        .build(t);
        let groups: std::collections::HashSet<u32> = p
            .hotspot_nodes()
            .unwrap()
            .iter()
            .map(|&h| t.node_group(NodeId(h)).0)
            .collect();
        assert!(groups.len() > 1, "evenly spaced hot nodes must spread out");
    }

    #[test]
    fn hotspot_never_targets_self_even_when_source_is_hot() {
        let t = topo();
        let p = PatternKind::Hotspot {
            hotspots: 1,
            fraction: 1.0,
        }
        .build(t);
        let hot = p.hotspot_nodes().unwrap()[0];
        let mut r = rng();
        for _ in 0..2_000 {
            let d = p.destination(NodeId(hot), &mut r);
            assert_ne!(d.0, hot, "the only hot node must fall back to uniform");
        }
    }

    #[test]
    fn group_local_fraction_controls_locality() {
        let t = topo();
        let p = PatternKind::GroupLocal {
            local_fraction: 0.7,
        }
        .build(t);
        let mut r = rng();
        let src = NodeId(20);
        let own = t.node_group(src);
        let draws = 40_000;
        let mut local = 0usize;
        for _ in 0..draws {
            let d = p.destination(src, &mut r);
            assert_ne!(d, src);
            if t.node_group(d) == own {
                local += 1;
            }
        }
        let frac = local as f64 / draws as f64;
        assert!(
            (frac - 0.7).abs() < 0.02,
            "local fraction {frac:.3} should be ~0.7"
        );
    }

    #[test]
    fn group_local_extremes_are_pure() {
        let t = topo();
        let all_local = PatternKind::GroupLocal {
            local_fraction: 1.0,
        }
        .build(t);
        let all_global = PatternKind::GroupLocal {
            local_fraction: 0.0,
        }
        .build(t);
        let mut r = rng();
        for src in t.nodes() {
            let d = all_local.destination(src, &mut r);
            assert_eq!(t.node_group(d), t.node_group(src));
            assert_ne!(d, src);
            let d = all_global.destination(src, &mut r);
            assert_ne!(t.node_group(d), t.node_group(src));
        }
    }

    #[test]
    fn new_pattern_labels_are_stable() {
        assert_eq!(PatternKind::Permutation { seed: 3 }.label(), "PERM(3)");
        assert_eq!(
            PatternKind::Hotspot {
                hotspots: 4,
                fraction: 0.6
            }
            .label(),
            "HOT(4x60%)"
        );
        assert_eq!(PatternKind::BitComplement.label(), "BITCOMP");
        assert_eq!(PatternKind::BitReversal.label(), "BITREV");
        assert_eq!(
            PatternKind::GroupLocal {
                local_fraction: 0.5
            }
            .label(),
            "LOC(50%)"
        );
    }

    #[test]
    fn invalid_patterns_are_rejected() {
        let t = topo();
        assert!(PatternKind::Hotspot {
            hotspots: 0,
            fraction: 0.5
        }
        .validate(&t)
        .is_err());
        assert!(PatternKind::Hotspot {
            hotspots: 1,
            fraction: 1.5
        }
        .validate(&t)
        .is_err());
        assert!(PatternKind::GroupLocal {
            local_fraction: -0.1
        }
        .validate(&t)
        .is_err());
        assert!(PatternKind::Uniform.validate(&t).is_ok());
        assert!(PatternKind::BitReversal.validate(&t).is_ok());
        // one node per group: a non-zero local fraction has no valid
        // destination, so it must be rejected rather than silently ignored
        let single = Dragonfly::new(DragonflyParams::new(1, 1, 2, 3).unwrap());
        assert_eq!(single.params().a * single.params().p, 1);
        assert!(PatternKind::GroupLocal {
            local_fraction: 0.5
        }
        .validate(&single)
        .is_err());
        assert!(PatternKind::GroupLocal {
            local_fraction: 0.0
        }
        .validate(&single)
        .is_ok());
    }
}
