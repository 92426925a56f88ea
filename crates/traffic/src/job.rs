//! Job sets: one or more collective applications with distinct placements
//! sharing one network.
//!
//! A [`JobSpec`] wraps a [`TaskWorkload`] with *where* it runs (a
//! [`JobPlacement`]: a base node plus a rank-spreading strategy), *when* it
//! starts (`start_cycle`) and *how fast* its ranks compute between
//! communication steps (`compute_delay`, cycles of modelled computation a
//! rank performs after finishing a step before it may inject the next one —
//! the compute half of a mini-app's compute/communicate alternation, per
//! caminos-lib's `mini_apps`).
//!
//! Placements of concurrent jobs must be node-disjoint; the simulation
//! configuration validates this at build time so an overlap is a
//! `ConfigError`, never a runtime surprise. Jobs layer *over* background
//! stochastic injection: a job set contends both with the other jobs and
//! with whatever synthetic pattern the configuration injects. A closed
//! run — one collective alone on the network — is a one-job set at offered
//! load 0.

use crate::collective::{AllReduceAlgorithm, CollectiveKind, RankPlacement, TaskWorkload};

/// Where a job's ranks live: a rank-spreading strategy offset to a base
/// node, so several jobs can use the same strategy on disjoint node ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPlacement {
    /// How consecutive ranks spread over the topology (relative map).
    pub strategy: RankPlacement,
    /// Node index added to the strategy's relative map: rank `r` runs on
    /// node `base_node + strategy.node_of_rank(r, ..)`.
    pub base_node: u32,
}

impl JobPlacement {
    /// Block placement starting at `base_node` (ranks occupy the contiguous
    /// node range `base_node..base_node + ranks`).
    pub fn block(base_node: u32) -> Self {
        JobPlacement {
            strategy: RankPlacement::Block,
            base_node,
        }
    }

    /// Group-spread placement offset by `base_node`.
    pub fn group_spread(base_node: u32) -> Self {
        JobPlacement {
            strategy: RankPlacement::GroupSpread,
            base_node,
        }
    }

    /// Node hosting `rank` under this placement, for a topology with
    /// `groups` groups of `nodes_per_group` nodes.
    pub fn node_of_rank(&self, rank: u32, groups: u32, nodes_per_group: u32) -> u32 {
        self.base_node + self.strategy.node_of_rank(rank, groups, nodes_per_group)
    }
}

/// One job of a multi-job traffic mix.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The collective sequence the job's ranks execute.
    pub workload: TaskWorkload,
    /// Rank-to-node mapping for this job.
    pub placement: JobPlacement,
    /// Cycle the job starts executing (ranks are idle before it).
    pub start_cycle: u64,
    /// Cycles of modelled computation a rank performs after completing a
    /// step before it may inject the next step's messages (0 = pure
    /// communication).
    pub compute_delay: u64,
}

impl JobSpec {
    /// A job starting at cycle 0 with no compute delay.
    pub fn new(workload: TaskWorkload, placement: JobPlacement) -> Self {
        JobSpec {
            workload,
            placement,
            start_cycle: 0,
            compute_delay: 0,
        }
    }

    /// Set the start cycle (builder style).
    pub fn starting_at(mut self, cycle: u64) -> Self {
        self.start_cycle = cycle;
        self
    }

    /// Set the per-step compute delay (builder style).
    pub fn with_compute_delay(mut self, cycles: u64) -> Self {
        self.compute_delay = cycles;
        self
    }

    /// The node set this job's ranks occupy (sorted, for disjointness
    /// checks and reporting).
    pub fn nodes(&self, groups: u32, nodes_per_group: u32) -> Vec<u32> {
        let mut nodes: Vec<u32> = (0..self.workload.ranks)
            .map(|r| self.placement.node_of_rank(r, groups, nodes_per_group))
            .collect();
        nodes.sort_unstable();
        nodes
    }

    /// Stable label for tables, CSV rows and corpus keys.
    pub fn label(&self) -> String {
        format!("{}@{}", self.workload.label(), self.placement.base_node)
    }

    /// Check the job against a topology of `groups * nodes_per_group`
    /// nodes: the workload itself must be valid and every rank's node must
    /// exist. Errors name the offending field.
    pub fn validate(&self, groups: u32, nodes_per_group: u32) -> Result<(), String> {
        self.workload.validate(groups, nodes_per_group)?;
        let num_nodes = groups * nodes_per_group;
        for r in 0..self.workload.ranks {
            let node = self.placement.node_of_rank(r, groups, nodes_per_group);
            if node >= num_nodes {
                return Err(format!(
                    "job {}: rank {r} maps to node {node} but the topology \
                     only has {num_nodes} nodes",
                    self.label()
                ));
            }
        }
        Ok(())
    }
}

/// Check that the node sets of a job list are pairwise disjoint. Returns
/// the first overlapping `(job_a, job_b, node)` as an error string.
pub fn validate_job_disjointness(
    jobs: &[JobSpec],
    groups: u32,
    nodes_per_group: u32,
) -> Result<(), String> {
    let mut owner: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
    for (i, job) in jobs.iter().enumerate() {
        for node in job.nodes(groups, nodes_per_group) {
            if let Some(&j) = owner.get(&node) {
                return Err(format!(
                    "jobs {} (#{j}) and {} (#{i}) both place a rank on node {node}",
                    jobs[j].label(),
                    job.label()
                ));
            }
            owner.insert(node, i);
        }
    }
    Ok(())
}

impl TaskWorkload {
    /// A mini-app skeleton: `phases` stencil sweep phases, each a halo
    /// exchange ([`CollectiveKind::SweepNeighbors`]) followed by an
    /// all-reduce (the convergence check of an iterative solver), as in
    /// caminos-lib's `mini_apps`. Pair with [`JobSpec::with_compute_delay`]
    /// to model the computation between communication phases.
    pub fn mini_app(
        ranks: u32,
        phases: u32,
        algorithm: AllReduceAlgorithm,
        packets_per_message: u32,
    ) -> Self {
        let mut sequence = Vec::with_capacity(2 * phases as usize);
        for _ in 0..phases {
            sequence.push(CollectiveKind::SweepNeighbors);
            sequence.push(CollectiveKind::AllReduce(algorithm));
        }
        TaskWorkload {
            ranks,
            sequence,
            packets_per_message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::validate_scripts;

    #[test]
    fn job_placement_offsets_the_strategy_map() {
        let p = JobPlacement::block(16);
        assert_eq!(p.node_of_rank(0, 9, 8), 16);
        assert_eq!(p.node_of_rank(5, 9, 8), 21);
        let s = JobPlacement::group_spread(1);
        // GroupSpread rank 1 of (9 groups, 8/group) lands on node 8
        assert_eq!(s.node_of_rank(1, 9, 8), 9);
    }

    #[test]
    fn disjointness_accepts_separated_blocks_and_rejects_overlap() {
        let w = TaskWorkload::single(CollectiveKind::Barrier, 8, 1);
        let a = JobSpec::new(w.clone(), JobPlacement::block(0));
        let b = JobSpec::new(w.clone(), JobPlacement::block(8));
        assert!(validate_job_disjointness(&[a.clone(), b], 9, 8).is_ok());
        let c = JobSpec::new(w, JobPlacement::block(4));
        let err = validate_job_disjointness(&[a, c], 9, 8).unwrap_err();
        assert!(err.contains("node 4"), "error names the node: {err}");
    }

    #[test]
    fn job_validation_rejects_out_of_range_placements() {
        let w = TaskWorkload::single(CollectiveKind::Barrier, 8, 1);
        let job = JobSpec::new(w, JobPlacement::block(70));
        let err = job.validate(9, 8).unwrap_err();
        assert!(err.contains("node 7"), "error names the node: {err}");
    }

    #[test]
    fn mini_app_interleaves_sweep_and_all_reduce_and_conserves() {
        let w = TaskWorkload::mini_app(8, 3, AllReduceAlgorithm::RecursiveDoubling, 2);
        assert_eq!(w.sequence.len(), 6);
        assert_eq!(w.sequence[0], CollectiveKind::SweepNeighbors);
        assert_eq!(
            w.sequence[1],
            CollectiveKind::AllReduce(AllReduceAlgorithm::RecursiveDoubling)
        );
        validate_scripts(&w.lower()).unwrap();
        assert!(w.validate(9, 8).is_ok());
    }

    #[test]
    fn start_cycle_and_compute_delay_builders() {
        let w = TaskWorkload::single(CollectiveKind::Barrier, 4, 1);
        let job = JobSpec::new(w, JobPlacement::block(0))
            .starting_at(500)
            .with_compute_delay(25);
        assert_eq!(job.start_cycle, 500);
        assert_eq!(job.compute_delay, 25);
    }
}
