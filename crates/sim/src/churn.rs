//! Seeded stochastic fault generation: MTBF/MTTR churn lowered into a
//! validated [`FaultPlan`].
//!
//! A [`ChurnModel`] describes *sustained failure churn* the way an operator
//! would: per-entity-class mean time between failures (MTBF) and mean time
//! to repair (MTTR), both in cycles, drawn from exponential distributions.
//! It is **not** interpreted online by the kernel — it *lowers* into the
//! existing declarative [`FaultPlan`] at configuration-build time, so churn
//! runs inherit every property the explicit fault subsystem already has:
//! plan validation, and fault application at exact cycles.
//!
//! # Determinism
//!
//! The model carries its own `seed`, independent of the traffic seed, and
//! every entity (each link, router and node) draws its failure timeline
//! from its own [`DeterministicRng::split`] sub-stream. Lowering therefore
//! depends only on `(seed, topology, rates, window)` — never on iteration
//! order or how many draws another entity made — so the same model always
//! lowers to the same plan and failure rate becomes a sweepable axis:
//! rerunning a cell, or running it under a different routing, replays the
//! *identical* fault trajectory.
//!
//! # Lowering rules
//!
//! Per entity, alternating up/down interval lengths are drawn from
//! `Exp(mtbf)` / `Exp(mttr)`, rounded to whole cycles and clamped to at
//! least one cycle (so per-entity events are strictly ordered and plan
//! validation's same-cycle rule holds by construction). Events are emitted
//! only inside `[start, start + horizon)`; a repair that would land beyond
//! the window is *not* emitted — the network finishes in the degraded
//! state, which is exactly what the conservation counters report.
//!
//! Node failures need a live spare for their reroute-to-spare semantics
//! (see [`FaultKind::NodeFail`]). Lowering walks the merged node timeline
//! in cycle order, maintaining the failed set, and assigns each failure the
//! first live node scanning upward from `node + 1` (wrapping). A failure
//! with no live spare anywhere — only possible when every other node is
//! simultaneously down — is skipped along with its repair.
//!
//! [`FaultKind::NodeFail`]: crate::fault::FaultKind::NodeFail

use crate::fault::FaultPlan;
use df_engine::DeterministicRng;
use df_model::Cycle;
use df_topology::{NodeId, Port, PortLayout, PortPeer, Topology};

/// Mean time between failures / mean time to repair, in cycles, for one
/// entity class. Both means parameterise exponential distributions and must
/// be positive and finite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnRate {
    /// Mean up-time between failures (cycles).
    pub mtbf: f64,
    /// Mean down-time until repair (cycles).
    pub mttr: f64,
}

impl ChurnRate {
    /// A churn rate with the given MTBF and MTTR (cycles).
    pub fn new(mtbf: f64, mttr: f64) -> Self {
        ChurnRate { mtbf, mttr }
    }

    fn validate(&self, class: &str) -> Result<(), String> {
        for (name, v) in [("mtbf", self.mtbf), ("mttr", self.mttr)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!(
                    "churn model: {class} {name} must be positive and finite, got {v}"
                ));
            }
        }
        Ok(())
    }
}

/// A seeded MTBF/MTTR churn model over the network's entity classes.
///
/// Attach one to a scenario (`Scenario::churn`) or a configuration builder;
/// it lowers into the scenario's [`FaultPlan`] when the configuration is
/// built. See the module docs for semantics and determinism guarantees.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnModel {
    /// Seed of the churn random streams (independent of the traffic seed).
    pub seed: u64,
    /// First cycle of the churn window (no event fires before it).
    pub start: Cycle,
    /// Length of the churn window: events fire in `[start, start + horizon)`.
    pub horizon: Cycle,
    /// Churn on global (inter-group) links, if any.
    pub global_links: Option<ChurnRate>,
    /// Churn on local (intra-group) links, if any.
    pub local_links: Option<ChurnRate>,
    /// Churn on routers (graceful source drain / restore), if any.
    pub routers: Option<ChurnRate>,
    /// Churn on compute nodes (fail to spare / restore), if any.
    pub nodes: Option<ChurnRate>,
}

/// Disjoint high-bit tags keep every entity class in its own family of
/// split streams regardless of entity index.
const STREAM_GLOBAL_LINK: u64 = 1 << 40;
const STREAM_LOCAL_LINK: u64 = 2 << 40;
const STREAM_ROUTER: u64 = 3 << 40;
const STREAM_NODE: u64 = 4 << 40;

impl ChurnModel {
    /// A churn model with the given seed and window and no rates (lowering
    /// an all-`None` model yields an empty plan).
    pub fn new(seed: u64, start: Cycle, horizon: Cycle) -> Self {
        ChurnModel {
            seed,
            start,
            horizon,
            global_links: None,
            local_links: None,
            routers: None,
            nodes: None,
        }
    }

    /// Set the global-link churn rate.
    pub fn global_links(mut self, rate: ChurnRate) -> Self {
        self.global_links = Some(rate);
        self
    }

    /// Set the local-link churn rate.
    pub fn local_links(mut self, rate: ChurnRate) -> Self {
        self.local_links = Some(rate);
        self
    }

    /// Set the router (drain/restore) churn rate.
    pub fn routers(mut self, rate: ChurnRate) -> Self {
        self.routers = Some(rate);
        self
    }

    /// Set the node (fail-to-spare/restore) churn rate.
    pub fn nodes(mut self, rate: ChurnRate) -> Self {
        self.nodes = Some(rate);
        self
    }

    /// Check the model's parameters (positive finite rates, non-empty
    /// window when any rate is set).
    pub(crate) fn validate(&self) -> Result<(), String> {
        let classes = [
            ("global-link", &self.global_links),
            ("local-link", &self.local_links),
            ("router", &self.routers),
            ("node", &self.nodes),
        ];
        for (class, rate) in classes {
            if let Some(rate) = rate {
                rate.validate(class)?;
            }
        }
        let any = classes.iter().any(|(_, r)| r.is_some());
        if any && self.horizon == 0 {
            return Err("churn model: horizon must be positive when any rate is set".into());
        }
        Ok(())
    }

    /// Lower the model into a [`FaultPlan`] for `topo`. Deterministic in
    /// `(seed, topology, rates, window)`; the result always passes
    /// [`FaultPlan::validate`] (guarded by a debug assertion here and by
    /// configuration validation at build time).
    pub fn generate(&self, topo: &impl Topology) -> FaultPlan {
        let root = DeterministicRng::new(self.seed);
        let end = self.start.saturating_add(self.horizon);
        let mut plan = FaultPlan::new();

        if let Some(rate) = &self.global_links {
            plan = self.churn_links(plan, topo, rate, &root, STREAM_GLOBAL_LINK, true);
        }
        if let Some(rate) = &self.local_links {
            plan = self.churn_links(plan, topo, rate, &root, STREAM_LOCAL_LINK, false);
        }
        if let Some(rate) = &self.routers {
            for router in topo.routers() {
                let mut rng = root.split(STREAM_ROUTER | u64::from(router.0));
                for (fail_at, restore_at) in intervals(&mut rng, rate, self.start, end) {
                    plan = plan.router_drain(fail_at, router);
                    if let Some(at) = restore_at {
                        plan = plan.router_restore(at, router);
                    }
                }
            }
        }
        if let Some(rate) = &self.nodes {
            plan = self.churn_nodes(plan, topo, rate, &root);
        }

        debug_assert_eq!(plan.validate(topo), Ok(()));
        plan
    }

    /// Churn one link class. Each bidirectional link is owned by its
    /// lexicographically smaller `(router, port)` endpoint so it gets
    /// exactly one stream; the stream index is the owning endpoint's flat
    /// port number, which is stable under topology iteration order.
    fn churn_links(
        &self,
        mut plan: FaultPlan,
        topo: &impl Topology,
        rate: &ChurnRate,
        root: &DeterministicRng,
        stream_tag: u64,
        global: bool,
    ) -> FaultPlan {
        let layout = topo.layout();
        let end = self.start.saturating_add(self.horizon);
        for router in topo.routers() {
            let offsets = if global {
                layout.globals()
            } else {
                layout.locals()
            };
            for k in 0..offsets {
                let port = if global {
                    Port::global(&layout, k)
                } else {
                    Port::local(&layout, k)
                };
                let PortPeer::Router(peer, back) = topo.peer(router, port) else {
                    continue; // dangling link of a partially-populated network
                };
                if (peer.0, back.0) < (router.0, port.0) {
                    continue; // owned (and churned) by the other endpoint
                }
                let flat = u64::from(router.0) * u64::from(layout.radix()) + u64::from(port.0);
                let mut rng = root.split(stream_tag | flat);
                for (fail_at, restore_at) in intervals(&mut rng, rate, self.start, end) {
                    plan = plan.link_down(fail_at, router, port);
                    if let Some(at) = restore_at {
                        plan = plan.link_up(at, router, port);
                    }
                }
            }
        }
        plan
    }

    /// Churn the nodes: draw per-node fail/repair intervals, then walk the
    /// merged timeline in cycle order assigning each failure the first live
    /// spare scanning upward from `node + 1` (wrapping). Restores sort
    /// before failures within a cycle so a node repaired in cycle `c` can
    /// immediately serve as a spare in cycle `c`.
    fn churn_nodes(
        &self,
        mut plan: FaultPlan,
        topo: &impl Topology,
        rate: &ChurnRate,
        root: &DeterministicRng,
    ) -> FaultPlan {
        use std::collections::BTreeSet;
        let num_nodes = topo.num_nodes();
        let end = self.start.saturating_add(self.horizon);

        // (cycle, is_fail, node, paired restore cycle if any)
        let mut timeline: Vec<(Cycle, bool, u32, Option<Cycle>)> = Vec::new();
        for n in 0..num_nodes {
            let mut rng = root.split(STREAM_NODE | u64::from(n));
            for (fail_at, restore_at) in intervals(&mut rng, rate, self.start, end) {
                timeline.push((fail_at, true, n, restore_at));
                if let Some(at) = restore_at {
                    timeline.push((at, false, n, None));
                }
            }
        }
        timeline.sort_unstable_by_key(|&(at, is_fail, node, _)| (at, is_fail, node));

        let mut failed: BTreeSet<u32> = BTreeSet::new();
        let mut skipped_restores: BTreeSet<(Cycle, u32)> = BTreeSet::new();
        for (at, is_fail, node, restore_at) in timeline {
            if is_fail {
                let spare = (1..num_nodes)
                    .map(|d| (node + d) % num_nodes)
                    .find(|cand| !failed.contains(cand));
                match spare {
                    Some(spare) => {
                        plan = plan.node_fail(at, NodeId(node), NodeId(spare));
                        failed.insert(node);
                    }
                    None => {
                        // no live spare anywhere: drop the whole interval
                        if let Some(r) = restore_at {
                            skipped_restores.insert((r, node));
                        }
                    }
                }
            } else if skipped_restores.remove(&(at, node)) {
                // repair of a skipped failure: nothing to restore
            } else {
                plan = plan.node_restore(at, NodeId(node));
                failed.remove(&node);
            }
        }
        plan
    }
}

/// Alternating up/down intervals for one entity: `(fail_at, restore_at)`
/// pairs inside `[start, end)`, whole cycles, every interval at least one
/// cycle long. A repair landing at or beyond `end` is reported as `None`
/// (degraded end state) and terminates the timeline.
fn intervals(
    rng: &mut DeterministicRng,
    rate: &ChurnRate,
    start: Cycle,
    end: Cycle,
) -> Vec<(Cycle, Option<Cycle>)> {
    let mut out = Vec::new();
    let mut t = start;
    loop {
        t = t.saturating_add(draw_cycles(rng, rate.mtbf));
        if t >= end {
            break;
        }
        let fail_at = t;
        t = t.saturating_add(draw_cycles(rng, rate.mttr));
        if t >= end {
            out.push((fail_at, None));
            break;
        }
        out.push((fail_at, Some(t)));
    }
    out
}

/// One exponential draw rounded to whole cycles, clamped to `[1, 2^53]` so
/// per-entity events stay strictly ordered and casts stay exact.
fn draw_cycles(rng: &mut DeterministicRng, mean: f64) -> Cycle {
    rng.exponential(mean).round().clamp(1.0, 9.0e15) as Cycle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use df_topology::{Dragonfly, DragonflyParams};

    fn topo() -> Dragonfly {
        Dragonfly::new(DragonflyParams::small())
    }

    fn busy_model() -> ChurnModel {
        ChurnModel::new(7, 100, 2_000)
            .global_links(ChurnRate::new(3_000.0, 400.0))
            .local_links(ChurnRate::new(8_000.0, 400.0))
            .routers(ChurnRate::new(10_000.0, 500.0))
            .nodes(ChurnRate::new(5_000.0, 600.0))
    }

    #[test]
    fn lowering_is_deterministic_and_valid() {
        let t = topo();
        let model = busy_model();
        let a = model.generate(&t);
        let b = model.generate(&t);
        assert_eq!(a, b, "same model must lower to the same plan");
        assert!(
            !a.events().is_empty(),
            "rates are high enough to produce events"
        );
        assert_eq!(a.validate(&t), Ok(()));
        // every event inside the window
        let end = 100 + 2_000;
        assert!(a.events().iter().all(|e| e.at >= 100 && e.at < end));
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let t = topo();
        let a = busy_model().generate(&t);
        let b = ChurnModel {
            seed: 8,
            ..busy_model()
        }
        .generate(&t);
        assert_ne!(a, b);
    }

    #[test]
    fn all_entity_classes_appear_under_heavy_churn() {
        let t = topo();
        let plan = ChurnModel::new(3, 0, 20_000)
            .global_links(ChurnRate::new(2_000.0, 300.0))
            .local_links(ChurnRate::new(2_000.0, 300.0))
            .routers(ChurnRate::new(2_000.0, 300.0))
            .nodes(ChurnRate::new(2_000.0, 300.0))
            .generate(&t);
        assert_eq!(plan.validate(&t), Ok(()));
        let mut saw = [false; 4];
        for e in plan.events() {
            match e.kind {
                FaultKind::LinkDown { .. } | FaultKind::LinkUp { .. } => saw[0] = true,
                FaultKind::RouterDrain { .. } => saw[1] = true,
                FaultKind::RouterRestore { .. } => saw[2] = true,
                FaultKind::NodeFail { .. } => saw[3] = true,
                FaultKind::NodeRestore { .. } => {}
            }
        }
        assert_eq!(saw, [true; 4], "expected events of every class");
    }

    #[test]
    fn node_spares_are_live_at_their_fail_cycle() {
        let t = topo();
        // brutal node churn: long repairs force many concurrent failures,
        // stressing the spare-scan against the failed set
        let plan = ChurnModel::new(11, 0, 50_000)
            .nodes(ChurnRate::new(1_000.0, 20_000.0))
            .generate(&t);
        // validate() walks the timeline and rejects any dead spare
        assert_eq!(plan.validate(&t), Ok(()));
        assert!(
            plan.events()
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::NodeFail { .. }))
                .count()
                > 10,
            "churn heavy enough to overlap failures"
        );
    }

    #[test]
    fn empty_model_lowers_to_an_empty_plan() {
        let t = topo();
        let plan = ChurnModel::new(5, 0, 10_000).generate(&t);
        assert!(plan.events().is_empty());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let m = ChurnModel::new(1, 0, 100).nodes(ChurnRate::new(0.0, 10.0));
        assert!(m.validate().unwrap_err().contains("positive"));
        let m = ChurnModel::new(1, 0, 100).nodes(ChurnRate::new(10.0, f64::NAN));
        assert!(m.validate().unwrap_err().contains("finite"));
        let m = ChurnModel::new(1, 0, 0).nodes(ChurnRate::new(10.0, 10.0));
        assert!(m.validate().unwrap_err().contains("horizon"));
        assert!(ChurnModel::new(1, 0, 0).validate().is_ok());
        assert!(busy_model().validate().is_ok());
    }

    #[test]
    fn builders_compose_and_new_starts_empty() {
        let m = ChurnModel::new(9, 50, 500);
        assert_eq!(
            (m.global_links, m.local_links, m.routers, m.nodes),
            (None, None, None, None)
        );
        let m = m.nodes(ChurnRate::new(100.0, 10.0));
        assert_eq!(m.nodes, Some(ChurnRate::new(100.0, 10.0)));
        assert_eq!((m.seed, m.start, m.horizon), (9, 50, 500));
    }
}
