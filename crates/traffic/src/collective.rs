//! Rank-level collective workloads: declarative communication sequences with
//! causal dependencies.
//!
//! A [`TaskWorkload`] turns nodes into **ranks** executing a sequence of
//! collectives ([`CollectiveKind`]). Each collective *lowers* into per-rank
//! scripts of dependency-gated steps ([`TaskStep`]): a rank only injects a
//! step's messages once its previous step completed — all of its own sends
//! delivered AND all the messages addressed to it in that step received.
//! This is message-gated generation: the traffic the network sees is shaped
//! by the network itself (synchronized bursts, convoys, stragglers), which
//! packet-level stochastic injection cannot express.
//!
//! The lowering is a pure function of `(collective, ranks,
//! packets_per_message)` — no RNG, no topology — so the generated dependency
//! graph is identical across runs and hosts by construction. The simulation
//! layer (df-sim's task engine) owns the runtime side: tracking deliveries,
//! advancing cursors, accounting stalls.
//!
//! Lowered scripts satisfy a global conservation property checked by
//! [`validate_scripts`]: in every step, the packets sent to rank `r` across
//! all ranks equal exactly what `r` expects. Steps may be empty for a rank
//! (zero sends, zero expected receives) — e.g. the spare ranks of a
//! non-power-of-two recursive doubling — and such steps complete
//! immediately.

/// The algorithm an all-reduce lowers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllReduceAlgorithm {
    /// Ring all-reduce: `2(p-1)` steps; in each, rank `r` sends one message
    /// to `(r+1) mod p` and waits for one from `(r-1) mod p` (reduce-scatter
    /// followed by all-gather — the bandwidth-optimal schedule used by
    /// gradient exchange).
    Ring,
    /// Recursive doubling: `ceil(log2 p)` exchange rounds between partners
    /// `r XOR 2^k` (latency-optimal). Non-power-of-two rank counts fold the
    /// surplus ranks into the power-of-two core with a pre-step and unfold
    /// them with a post-step, as MPI implementations do.
    RecursiveDoubling,
}

/// One collective operation over all ranks of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CollectiveKind {
    /// Every rank sends one message to every other rank, in `p-1` phased
    /// rounds: in round `i` rank `r` sends to `(r+i) mod p` and receives
    /// from `(r-i) mod p` (the classic shifted-exchange schedule of expert
    /// dispatch / FFT transposes). Each round is gated on the previous one,
    /// so the network sees `p-1` synchronized burst waves.
    AllToAll,
    /// All-reduce with the selected algorithm.
    AllReduce(AllReduceAlgorithm),
    /// Dissemination barrier: `ceil(log2 p)` rounds; in round `k` rank `r`
    /// signals `(r + 2^k) mod p` and waits for `(r - 2^k) mod p`. After the
    /// last round every rank transitively depends on every other.
    Barrier,
    /// One halo exchange of a 1-D sweep: rank `r` exchanges one message with
    /// each existing neighbor `r-1` / `r+1` (non-wrapping).
    SweepNeighbors,
}

impl CollectiveKind {
    /// Short stable label for tables, CSV rows and corpus keys.
    pub fn label(&self) -> &'static str {
        match self {
            CollectiveKind::AllToAll => "all-to-all",
            CollectiveKind::AllReduce(AllReduceAlgorithm::Ring) => "all-reduce-ring",
            CollectiveKind::AllReduce(AllReduceAlgorithm::RecursiveDoubling) => "all-reduce-rd",
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::SweepNeighbors => "sweep-neighbors",
        }
    }

    /// Lower this collective for `ranks` ranks into per-rank step lists,
    /// `packets` packets per logical message. `scripts[r]` is rank `r`'s
    /// sequence; all ranks get the same number of steps (possibly empty for
    /// some ranks in some steps).
    pub fn lower(&self, ranks: u32, packets: u32) -> Vec<Vec<TaskStep>> {
        let p = ranks as usize;
        let mut scripts: Vec<Vec<TaskStep>> = vec![Vec::new(); p];
        match self {
            CollectiveKind::AllToAll => {
                for round in 1..p {
                    for (r, script) in scripts.iter_mut().enumerate() {
                        script.push(TaskStep {
                            sends: vec![(((r + round) % p) as u32, packets)],
                            expected_packets: packets,
                        });
                    }
                }
            }
            CollectiveKind::AllReduce(AllReduceAlgorithm::Ring) => {
                // saturating: degenerate rank counts (0 or 1) lower to
                // empty/ step-free scripts instead of underflowing
                for _ in 0..2 * p.saturating_sub(1) {
                    for (r, script) in scripts.iter_mut().enumerate() {
                        script.push(TaskStep {
                            sends: vec![(((r + 1) % p) as u32, packets)],
                            expected_packets: packets,
                        });
                    }
                }
            }
            CollectiveKind::AllReduce(AllReduceAlgorithm::RecursiveDoubling) => {
                // m = largest power of two <= p; ranks m..p are folded into
                // partner r-m for the core rounds
                let m = if p == 0 { 0 } else { prev_power_of_two(p) };
                let extras = p - m;
                if extras > 0 {
                    for (r, script) in scripts.iter_mut().enumerate() {
                        let (sends, expected) = if r >= m {
                            (vec![((r - m) as u32, packets)], 0)
                        } else if r < extras {
                            (Vec::new(), packets)
                        } else {
                            (Vec::new(), 0)
                        };
                        script.push(TaskStep {
                            sends,
                            expected_packets: expected,
                        });
                    }
                }
                let mut distance = 1;
                while distance < m {
                    for (r, script) in scripts.iter_mut().enumerate() {
                        let (sends, expected) = if r < m {
                            (vec![((r ^ distance) as u32, packets)], packets)
                        } else {
                            (Vec::new(), 0)
                        };
                        script.push(TaskStep {
                            sends,
                            expected_packets: expected,
                        });
                    }
                    distance *= 2;
                }
                if extras > 0 {
                    for (r, script) in scripts.iter_mut().enumerate() {
                        let (sends, expected) = if r < extras {
                            (vec![((r + m) as u32, packets)], 0)
                        } else if r >= m {
                            (Vec::new(), packets)
                        } else {
                            (Vec::new(), 0)
                        };
                        script.push(TaskStep {
                            sends,
                            expected_packets: expected,
                        });
                    }
                }
            }
            CollectiveKind::Barrier => {
                let mut distance = 1;
                while distance < p {
                    for (r, script) in scripts.iter_mut().enumerate() {
                        script.push(TaskStep {
                            sends: vec![(((r + distance) % p) as u32, packets)],
                            expected_packets: packets,
                        });
                    }
                    distance *= 2;
                }
            }
            CollectiveKind::SweepNeighbors => {
                for (r, script) in scripts.iter_mut().enumerate() {
                    let mut sends = Vec::new();
                    let mut expected = 0;
                    if r > 0 {
                        sends.push(((r - 1) as u32, packets));
                        expected += packets;
                    }
                    if r + 1 < p {
                        sends.push(((r + 1) as u32, packets));
                        expected += packets;
                    }
                    script.push(TaskStep {
                        sends,
                        expected_packets: expected,
                    });
                }
            }
        }
        scripts
    }
}

/// Largest power of two `<= n` (`n >= 1`).
fn prev_power_of_two(n: usize) -> usize {
    let mut m = 1;
    while m * 2 <= n {
        m *= 2;
    }
    m
}

/// One dependency-gated step of a rank's script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskStep {
    /// Messages this rank injects when the step starts: `(destination rank,
    /// packet count)`. Multiple entries to the same destination are allowed
    /// and additive.
    pub sends: Vec<(u32, u32)>,
    /// Packets addressed to this rank in this step (across all senders) that
    /// must arrive before the step completes.
    pub expected_packets: u32,
}

impl TaskStep {
    /// Total packets this step injects.
    pub fn send_packets(&self) -> u32 {
        self.sends.iter().map(|&(_, n)| n).sum()
    }
}

/// How ranks map onto nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankPlacement {
    /// Rank `r` runs on node `r`: consecutive ranks share routers and
    /// groups, so ring/neighbor traffic stays local.
    Block,
    /// Consecutive ranks are spread round-robin across the `g` groups:
    /// rank `r` runs on node `(r mod g) * s + r / g` with `s` nodes per
    /// group — neighbor exchanges become global traffic, the adversarial
    /// placement for a Dragonfly.
    GroupSpread,
}

impl RankPlacement {
    /// Node index hosting `rank`, for a topology with `groups` groups of
    /// `nodes_per_group` nodes. The map is injective for
    /// `rank < groups * nodes_per_group`.
    pub fn node_of_rank(&self, rank: u32, groups: u32, nodes_per_group: u32) -> u32 {
        match self {
            RankPlacement::Block => rank,
            RankPlacement::GroupSpread => (rank % groups) * nodes_per_group + rank / groups,
        }
    }
}

/// A multi-step application workload: a sequence of collectives executed by
/// `ranks` ranks, each message `packets_per_message` packets. Where the
/// ranks live is not the workload's business: a [`crate::JobSpec`] pairs it
/// with a [`crate::JobPlacement`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaskWorkload {
    /// Number of ranks (each mapped onto one distinct node).
    pub ranks: u32,
    /// Collectives executed in order; each is globally ordered after the
    /// previous one through its own dependency structure plus the step
    /// gating (a rank enters collective `i+1` only after finishing its part
    /// of collective `i` — ranks may skew, the dependencies keep it sound).
    pub sequence: Vec<CollectiveKind>,
    /// Packets per logical message.
    pub packets_per_message: u32,
}

impl TaskWorkload {
    /// A single-collective workload.
    pub fn single(kind: CollectiveKind, ranks: u32, packets_per_message: u32) -> Self {
        TaskWorkload {
            ranks,
            sequence: vec![kind],
            packets_per_message,
        }
    }

    /// Lower the whole sequence into per-rank scripts (collectives
    /// concatenated in order). `scripts[r].len()` is identical for all `r`.
    pub fn lower(&self) -> Vec<Vec<TaskStep>> {
        let mut scripts: Vec<Vec<TaskStep>> = vec![Vec::new(); self.ranks as usize];
        for kind in &self.sequence {
            for (rank, steps) in kind
                .lower(self.ranks, self.packets_per_message)
                .into_iter()
                .enumerate()
            {
                scripts[rank].extend(steps);
            }
        }
        scripts
    }

    /// Total steps per rank across the sequence: the length of every rank's
    /// lowered script (0 for a zero-rank workload).
    pub fn total_steps(&self) -> usize {
        self.lower().first().map_or(0, Vec::len)
    }

    /// Total packets the workload injects across all ranks and steps.
    pub fn total_packets(&self) -> u64 {
        self.lower()
            .iter()
            .flat_map(|script| script.iter())
            .map(|s| s.send_packets() as u64)
            .sum()
    }

    /// Stable label for tables and corpus keys.
    pub fn label(&self) -> String {
        let kinds: Vec<&str> = self.sequence.iter().map(|k| k.label()).collect();
        format!("{}x{}", kinds.join("+"), self.ranks)
    }

    /// Check the workload against a topology of `groups * nodes_per_group`
    /// nodes. Errors name the offending field.
    pub fn validate(&self, groups: u32, nodes_per_group: u32) -> Result<(), String> {
        let nodes = groups * nodes_per_group;
        if self.ranks < 2 {
            return Err(format!(
                "a workload needs at least 2 ranks, got {}",
                self.ranks
            ));
        }
        if self.ranks > nodes {
            return Err(format!(
                "workload has {} ranks but the topology only has {nodes} nodes",
                self.ranks
            ));
        }
        if self.sequence.is_empty() {
            return Err("a workload needs at least one collective".into());
        }
        if self.packets_per_message == 0 {
            return Err("packets_per_message must be at least 1".into());
        }
        validate_scripts(&self.lower())
    }
}

/// Check the global conservation property of lowered scripts: every step's
/// sends to rank `r`, summed over all ranks, must equal what `r` expects in
/// that step, and all ranks must have equally long scripts.
pub fn validate_scripts(scripts: &[Vec<TaskStep>]) -> Result<(), String> {
    let p = scripts.len();
    let steps = scripts.first().map_or(0, |s| s.len());
    for (r, script) in scripts.iter().enumerate() {
        if script.len() != steps {
            return Err(format!(
                "rank {r} has {} steps, rank 0 has {steps}",
                script.len()
            ));
        }
    }
    for step in 0..steps {
        let mut incoming = vec![0u64; p];
        for script in scripts {
            for &(dst, n) in &script[step].sends {
                if dst as usize >= p {
                    return Err(format!("step {step} sends to nonexistent rank {dst}"));
                }
                incoming[dst as usize] += n as u64;
            }
        }
        for (r, script) in scripts.iter().enumerate() {
            if incoming[r] != script[step].expected_packets as u64 {
                return Err(format!(
                    "step {step}: rank {r} expects {} packets but the other \
                     ranks send it {}",
                    script[step].expected_packets, incoming[r]
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [CollectiveKind; 5] = [
        CollectiveKind::AllToAll,
        CollectiveKind::AllReduce(AllReduceAlgorithm::Ring),
        CollectiveKind::AllReduce(AllReduceAlgorithm::RecursiveDoubling),
        CollectiveKind::Barrier,
        CollectiveKind::SweepNeighbors,
    ];

    #[test]
    fn every_collective_lowers_to_conserving_scripts_at_any_rank_count() {
        for kind in KINDS {
            for ranks in 2..=33u32 {
                let scripts = kind.lower(ranks, 3);
                assert_eq!(scripts.len(), ranks as usize);
                // a job's completion cycle is its last step's, so there is
                // one
                assert!(!scripts[0].is_empty(), "{} at {ranks} ranks", kind.label());
                validate_scripts(&scripts).unwrap_or_else(|e| {
                    panic!("{} at {ranks} ranks: {e}", kind.label());
                });
            }
        }
    }

    #[test]
    fn all_to_all_sends_to_every_peer_exactly_once() {
        let p = 7u32;
        let scripts = CollectiveKind::AllToAll.lower(p, 2);
        for (r, script) in scripts.iter().enumerate() {
            let mut dsts: Vec<u32> = script
                .iter()
                .flat_map(|s| s.sends.iter().map(|&(d, _)| d))
                .collect();
            dsts.sort_unstable();
            let expected: Vec<u32> = (0..p).filter(|&d| d != r as u32).collect();
            assert_eq!(dsts, expected, "rank {r} must hit every other rank once");
        }
    }

    #[test]
    fn ring_all_reduce_has_bandwidth_optimal_volume() {
        let p = 9u32;
        let w = TaskWorkload::single(CollectiveKind::AllReduce(AllReduceAlgorithm::Ring), p, 1);
        // 2(p-1) messages per rank
        assert_eq!(w.total_packets(), (2 * (p - 1) * p) as u64);
    }

    #[test]
    fn recursive_doubling_handles_non_powers_of_two() {
        for p in [2usize, 3, 4, 6, 8, 12, 16, 23] {
            let kind = CollectiveKind::AllReduce(AllReduceAlgorithm::RecursiveDoubling);
            let scripts = kind.lower(p as u32, 1);
            validate_scripts(&scripts).unwrap();
            let m = prev_power_of_two(p);
            let expected_steps = if p == m {
                m.trailing_zeros() as usize
            } else {
                m.trailing_zeros() as usize + 2
            };
            assert_eq!(scripts[0].len(), expected_steps, "p = {p}");
            // core ranks exchange in every core round; surplus ranks only
            // speak in the fold/unfold steps
            if p != m {
                let surplus = &scripts[m];
                let speaking = surplus
                    .iter()
                    .filter(|s| !s.sends.is_empty() || s.expected_packets > 0)
                    .count();
                assert_eq!(speaking, 2, "surplus rank speaks only in fold/unfold");
            }
        }
    }

    #[test]
    fn barrier_rounds_are_logarithmic() {
        let scripts = CollectiveKind::Barrier.lower(20, 1);
        assert_eq!(scripts[0].len(), 5); // ceil(log2 20)
        for script in &scripts {
            for step in script {
                assert_eq!(step.send_packets(), 1);
                assert_eq!(step.expected_packets, 1);
            }
        }
    }

    #[test]
    fn sweep_edge_ranks_have_one_neighbor() {
        let scripts = CollectiveKind::SweepNeighbors.lower(6, 4);
        assert_eq!(scripts[0][0].sends, vec![(1, 4)]);
        assert_eq!(scripts[0][0].expected_packets, 4);
        assert_eq!(scripts[5][0].sends, vec![(4, 4)]);
        assert_eq!(scripts[3][0].sends, vec![(2, 4), (4, 4)]);
        assert_eq!(scripts[3][0].expected_packets, 8);
    }

    #[test]
    fn group_spread_placement_is_injective_and_spreads_neighbors() {
        let (groups, per_group) = (9, 8);
        let mut seen = std::collections::BTreeSet::new();
        for rank in 0..groups * per_group {
            let node = RankPlacement::GroupSpread.node_of_rank(rank, groups, per_group);
            assert!(node < groups * per_group);
            assert!(seen.insert(node), "rank {rank} collides");
        }
        // consecutive ranks land in different groups
        let n0 = RankPlacement::GroupSpread.node_of_rank(0, groups, per_group);
        let n1 = RankPlacement::GroupSpread.node_of_rank(1, groups, per_group);
        assert_ne!(n0 / per_group, n1 / per_group);
    }

    #[test]
    fn validation_rejects_bad_workloads() {
        let ok = TaskWorkload::single(CollectiveKind::Barrier, 8, 1);
        assert!(ok.validate(9, 8).is_ok());
        assert!(TaskWorkload::single(CollectiveKind::Barrier, 1, 1)
            .validate(9, 8)
            .is_err());
        assert!(TaskWorkload::single(CollectiveKind::Barrier, 100, 1)
            .validate(9, 8)
            .is_err());
        assert!(TaskWorkload::single(CollectiveKind::Barrier, 8, 0)
            .validate(9, 8)
            .is_err());
        let empty = TaskWorkload {
            ranks: 8,
            sequence: Vec::new(),
            packets_per_message: 1,
        };
        assert!(empty.validate(9, 8).is_err());
    }

    #[test]
    fn multi_collective_sequences_concatenate() {
        let w = TaskWorkload {
            ranks: 8,
            sequence: vec![
                CollectiveKind::AllReduce(AllReduceAlgorithm::RecursiveDoubling),
                CollectiveKind::Barrier,
                CollectiveKind::AllToAll,
            ],
            packets_per_message: 2,
        };
        let scripts = w.lower();
        validate_scripts(&scripts).unwrap();
        assert_eq!(scripts[0].len(), 3 + 3 + 7);
        assert_eq!(w.total_steps(), 13);
    }
}
