//! Deterministic fault injection: declarative, timed link, router and node
//! failures attached to a scenario.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultEvent`]s — `LinkDown` /
//! `LinkUp` on a (bidirectional) router-to-router link, `RouterDrain` /
//! `RouterRestore` on a router's traffic sources, and `NodeFail` /
//! `NodeRestore` on a compute node (drain-at-source plus reroute-to-spare).
//! The plan is part of the workload description: each event is applied at
//! the *start* of its cycle, before link events are delivered (time
//! advances only in `Network::step`, so no cycle is ever skipped). Plans
//! can be written by hand or generated stochastically — see
//! [`ChurnModel`](crate::churn::ChurnModel), which lowers seeded MTBF/MTTR
//! churn into this same validated representation.
//!
//! # Failure semantics
//!
//! * **`LinkDown`** takes both directions of the link out of service:
//!   * the allocator stops granting the dead output ports, whatever the
//!     routing policy requested; adaptive policies treat the dead minimal
//!     port as infinitely contended and misroute around it, committed
//!     continuations *re-commit* (the failure-aware routing layer — see
//!     `docs/ARCHITECTURE.md`), and packets with no VC-feasible live
//!     escape are discarded as unroutable;
//!   * packets staged in an output buffer behind the dead link are lost
//!     with it (the serialisation buffer dies with the link) and their
//!     consumed downstream credits are ledgered like in-flight drops;
//!   * packets and credit messages **in flight on the link** when it fails
//!     (arrival scheduled while the link is down) are *dropped* and
//!     accounted in the `DroppedOnFault` counters, so phit conservation
//!     stays a checkable equality:
//!     `injected = delivered + in-flight + dropped_on_fault`;
//!   * the credits each dropped phit had consumed upstream are remembered
//!     in a per-link ledger.
//! * **`LinkUp`** restores both directions and returns the ledger credits
//!   to the upstream output ports — the downstream buffer space the dropped
//!   packets had reserved was never used, so after restoration the credit
//!   invariant (`free credits = capacity − downstream occupancy − in-flight
//!   reservations`) is exact again.
//! * **`RouterDrain`** gracefully drains the traffic *sourced* at a router:
//!   its attached nodes stop generating new packets at the fault cycle,
//!   while already-queued packets still inject and flush, and transit
//!   traffic is unaffected. Compose with `LinkDown` events to model harder
//!   router failures. **`RouterRestore`** re-enables generation.
//! * **`NodeFail`** models a compute-node failure with
//!   *drain-at-source + reroute-to-spare* semantics:
//!   * the failed node stops generating new packets (drain at the source;
//!     packets already queued at its NIC still inject and flush);
//!   * traffic *addressed to* the failed node is retargeted at injection
//!     time to the designated `spare` node (the workload's hot standby), so
//!     every packet in the network always has a live ejection path and the
//!     conservation equalities (`injected = delivered + in-flight +
//!     dropped`, in packets and in phits) stay exact — this is how the
//!     terminal-link restriction is lifted without making conservation
//!     undecidable;
//!   * packets already in flight toward the failed node when it fails are
//!     still delivered to its NIC (the drain window of a real failover);
//!   * validation requires the spare to be a *live* node at the fail cycle,
//!     so retarget chains (`a -> b` where `b` later fails to `c`) resolve
//!     by following spares in fail order and can never cycle.
//!
//!   **`NodeRestore`** brings the node back: it resumes generating and new
//!   packets address it directly again.
//!
//! Events fire only within simulated time: if a run (or a drain) ends
//! before an event's cycle, the network finishes in the degraded state —
//! a `LinkUp` that was never reached leaves its link down and its lost
//! credits ledgered, which is exactly what the conservation counters
//! report. Resuming stepping applies the remaining events on schedule.

use df_model::Cycle;
use df_topology::{GroupId, NodeId, Port, PortClass, PortLayout, PortPeer, RouterId, Topology};

/// What a fault event does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Take the bidirectional link attached at `(router, port)` out of
    /// service (both directions). `port` must be a local or global port.
    LinkDown {
        /// One endpoint router of the link.
        router: RouterId,
        /// The (local or global) port of that router.
        port: Port,
    },
    /// Restore the bidirectional link attached at `(router, port)` and
    /// return the credits lost to drops on it.
    LinkUp {
        /// One endpoint router of the link.
        router: RouterId,
        /// The (local or global) port of that router.
        port: Port,
    },
    /// Stop traffic generation at the nodes attached to `router` (graceful
    /// drain; queued packets still flush).
    RouterDrain {
        /// The router being drained.
        router: RouterId,
    },
    /// Re-enable traffic generation at the nodes attached to `router`.
    RouterRestore {
        /// The router being restored.
        router: RouterId,
    },
    /// Fail node `node`: it stops generating, and traffic addressed to it
    /// is retargeted to the live `spare` node at injection time
    /// (drain-at-source + reroute-to-spare; see the module docs).
    NodeFail {
        /// The node that fails.
        node: NodeId,
        /// The live node that stands in as the failed node's destination.
        spare: NodeId,
    },
    /// Restore node `node`: it resumes generating and is addressed directly
    /// again.
    NodeRestore {
        /// The node being restored.
        node: NodeId,
    },
}

/// One timed fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Cycle at which the fault takes effect (start of the cycle, before
    /// link-event delivery).
    pub at: Cycle,
    /// What happens.
    pub kind: FaultKind,
}

/// A declarative list of timed fault events (see the module docs for the
/// exact semantics of each kind).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (the healthy-network default).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Append an arbitrary event.
    pub(crate) fn push(mut self, at: Cycle, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Append a `LinkDown` at `at` on the link attached at `(router, port)`.
    pub fn link_down(self, at: Cycle, router: RouterId, port: Port) -> Self {
        self.push(at, FaultKind::LinkDown { router, port })
    }

    /// Append a `LinkUp` at `at` on the link attached at `(router, port)`.
    pub fn link_up(self, at: Cycle, router: RouterId, port: Port) -> Self {
        self.push(at, FaultKind::LinkUp { router, port })
    }

    /// Append a `RouterDrain` at `at`.
    pub fn router_drain(self, at: Cycle, router: RouterId) -> Self {
        self.push(at, FaultKind::RouterDrain { router })
    }

    /// Append a `RouterRestore` at `at`.
    pub fn router_restore(self, at: Cycle, router: RouterId) -> Self {
        self.push(at, FaultKind::RouterRestore { router })
    }

    /// Append a `NodeFail` at `at` retargeting `node`'s traffic to `spare`.
    pub fn node_fail(self, at: Cycle, node: NodeId, spare: NodeId) -> Self {
        self.push(at, FaultKind::NodeFail { node, spare })
    }

    /// Append a `NodeRestore` at `at`.
    pub(crate) fn node_restore(self, at: Cycle, node: NodeId) -> Self {
        self.push(at, FaultKind::NodeRestore { node })
    }

    /// Append every event of `other` (insertion order preserved per plan) —
    /// used to merge explicit scenario faults with churn-generated ones.
    pub(crate) fn merged(mut self, other: FaultPlan) -> Self {
        self.events.extend(other.events);
        self
    }

    /// The endpoint `(router, port)` of the unique global link connecting
    /// two distinct groups — a convenience for building plans that degrade
    /// specific group pairs.
    pub fn global_link_between(topo: &impl Topology, g1: GroupId, g2: GroupId) -> (RouterId, Port) {
        topo.gateway_to(g1, g2)
    }

    /// The events in plan order (insertion order; lowering sorts them by
    /// cycle with a stable sort, so same-cycle events apply in insertion
    /// order).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The events sorted by cycle (stable: same-cycle events keep insertion
    /// order) — the form the simulation kernel consumes.
    pub(crate) fn sorted_events(&self) -> Vec<FaultEvent> {
        let mut events = self.events.clone();
        events.sort_by_key(|e| e.at);
        events
    }

    /// Validate the plan against a topology:
    ///
    /// * router ids, node ids and ports must exist, and link faults must
    ///   name router-to-router links — a terminal link never fails on its
    ///   own; model node failure as a `NodeFail` event, whose
    ///   drain-at-source + reroute-to-spare semantics keep every packet's
    ///   ejection path live and conservation decidable;
    /// * the per-link event sequence must be consistent: no two events on
    ///   the same link in the same cycle (their order would be
    ///   insertion-dependent), no `LinkUp` for a link that is not down at
    ///   that point in the (cycle-sorted) plan, and no `LinkDown` for a
    ///   link that is already down;
    /// * the per-node event sequence must be consistent: no two events on
    ///   the same node in the same cycle, no `NodeFail` on a node that is
    ///   already failed, no `NodeRestore` on a live node, the spare must be
    ///   a different node, and the spare must be *live* at the fail cycle
    ///   (so retarget chains can never cycle).
    pub fn validate(&self, topo: &impl Topology) -> Result<(), String> {
        let (layout, num_nodes) = (topo.layout(), topo.num_nodes());
        for (i, event) in self.events.iter().enumerate() {
            let problem = match event.kind {
                FaultKind::LinkDown { router, .. }
                | FaultKind::LinkUp { router, .. }
                | FaultKind::RouterDrain { router }
                | FaultKind::RouterRestore { router }
                    if router.0 >= topo.num_routers() =>
                {
                    format!("router {router} out of range")
                }
                FaultKind::LinkDown { port, .. } | FaultKind::LinkUp { port, .. }
                    if port.0 >= layout.radix() =>
                {
                    format!("port {port} out of range")
                }
                FaultKind::LinkDown { router, port } | FaultKind::LinkUp { router, port }
                    if port.class(&layout) == PortClass::Terminal =>
                {
                    format!(
                        "terminal links cannot fail on their own (router {router} port \
                         {port}) — model node failure as a NodeFail event (drain-at-source \
                         + reroute-to-spare), which keeps every packet's ejection path live \
                         and conservation decidable"
                    )
                }
                FaultKind::LinkDown { router, port } | FaultKind::LinkUp { router, port }
                    if !matches!(topo.peer(router, port), PortPeer::Router(..)) =>
                {
                    format!("router {router} port {port} is not wired")
                }
                FaultKind::NodeFail { node, .. } | FaultKind::NodeRestore { node }
                    if node.0 >= num_nodes =>
                {
                    format!("node {node} out of range")
                }
                FaultKind::NodeFail { spare, .. } if spare.0 >= num_nodes => {
                    format!("spare node {spare} out of range")
                }
                FaultKind::NodeFail { node, spare } if spare == node => {
                    format!("node {node} cannot be its own spare")
                }
                _ => continue,
            };
            return Err(format!("fault event {i}: {problem}"));
        }
        self.validate_sequences(topo)
    }

    /// Walk the cycle-sorted plan once and check each link's and each
    /// node's event sequence (see [`validate`](Self::validate)). A link is
    /// keyed by its lexicographically smaller directed end, so the two
    /// endpoint namings of one bidirectional link collide as intended.
    fn validate_sequences(&self, topo: &impl Topology) -> Result<(), String> {
        // per `(false, link end)` or `(true, node, 0)`: (is down or failed,
        // cycle of the last event touching it)
        let mut state = std::collections::BTreeMap::new();
        for FaultEvent { at, kind } in self.sorted_events() {
            let (key, down, name, down_word, order) = match kind {
                FaultKind::LinkDown { router, port } | FaultKind::LinkUp { router, port } => {
                    let end = (router.0, port.0);
                    let (r, p) = match topo.peer(router, port) {
                        PortPeer::Router(peer, back) => end.min((peer.0, back.0)),
                        _ => end,
                    };
                    let down = matches!(kind, FaultKind::LinkDown { .. });
                    let name = if down { "LinkDown" } else { "LinkUp" };
                    ((false, r, p), down, name, "down", "up-before-down")
                }
                FaultKind::NodeFail { node, .. } | FaultKind::NodeRestore { node } => {
                    let down = matches!(kind, FaultKind::NodeFail { .. });
                    let name = if down { "NodeFail" } else { "NodeRestore" };
                    let key = (true, node.0, 0);
                    (key, down, name, "failed", "restore-before-fail")
                }
                FaultKind::RouterDrain { .. } | FaultKind::RouterRestore { .. } => continue,
            };
            match state.get(&key) {
                Some(&(_, last)) if last == at => {
                    return Err(format!(
                        "fault plan: two events on {} in the same cycle {at} (order would be \
                         insertion-dependent)",
                        kind.subject()
                    ));
                }
                Some(&(true, _)) if down => {
                    return Err(format!(
                        "fault plan: {name} at cycle {at} on {}, which is already {down_word}",
                        kind.subject()
                    ));
                }
                Some(&(false, _)) | None if !down => {
                    return Err(format!(
                        "fault plan: {name} at cycle {at} on {}, which is not {down_word} \
                         ({order})",
                        kind.subject()
                    ));
                }
                _ => {}
            }
            if let FaultKind::NodeFail { spare, .. } = kind {
                if matches!(state.get(&(true, spare.0, 0)), Some(&(true, _))) {
                    return Err(format!(
                        "fault plan: NodeFail at cycle {at} names spare {spare}, which is \
                         itself failed at that point — spares must be live so retarget \
                         chains cannot cycle"
                    ));
                }
            }
            state.insert(key, (down, at));
        }
        Ok(())
    }
}

impl FaultKind {
    /// What the event acts on, as validation errors name it.
    fn subject(self) -> String {
        match self {
            FaultKind::LinkDown { router, port } | FaultKind::LinkUp { router, port } => {
                format!("the link at router {router} port {port}")
            }
            FaultKind::RouterDrain { router } | FaultKind::RouterRestore { router } => {
                format!("router {router}")
            }
            FaultKind::NodeFail { node, .. } | FaultKind::NodeRestore { node } => {
                format!("node {node}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_topology::{Dragonfly, DragonflyParams};

    fn topo() -> Dragonfly {
        Dragonfly::new(DragonflyParams::small())
    }

    fn cycles(events: &[FaultEvent]) -> Vec<Cycle> {
        events.iter().map(|e| e.at).collect()
    }

    #[test]
    fn empty_plan_is_the_default() {
        let plan = FaultPlan::new();
        assert!(plan.events().is_empty());
        assert!(plan.validate(&topo()).is_ok());
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn builder_accumulates_events_in_order() {
        let t = topo();
        let (gw, port) = FaultPlan::global_link_between(&t, GroupId(0), GroupId(4));
        let plan = FaultPlan::new()
            .link_down(150, gw, port)
            .router_drain(200, RouterId(3))
            .link_up(450, gw, port)
            .router_restore(500, RouterId(3));
        assert_eq!(plan.events().len(), 4);
        assert_eq!(cycles(plan.events()), vec![150, 200, 450, 500]);
        assert!(plan.validate(&t).is_ok());
        assert_eq!(
            plan.events()[0].kind,
            FaultKind::LinkDown { router: gw, port }
        );
    }

    #[test]
    fn sorted_events_are_stable_within_a_cycle() {
        let t = topo();
        let port = Port::local(t.params(), 0);
        let plan = FaultPlan::new()
            .link_down(300, RouterId(1), port)
            .link_down(100, RouterId(2), port)
            .router_drain(100, RouterId(5));
        let sorted = plan.sorted_events();
        assert_eq!(sorted[0].at, 100);
        assert_eq!(
            sorted[0].kind,
            FaultKind::LinkDown {
                router: RouterId(2),
                port
            }
        );
        assert_eq!(
            sorted[1].kind,
            FaultKind::RouterDrain {
                router: RouterId(5)
            }
        );
        assert_eq!(cycles(&sorted), vec![100, 100, 300]);
        assert_eq!(cycles(plan.events()), vec![300, 100, 100]);
    }

    #[test]
    fn validation_rejects_bad_targets() {
        let t = topo();
        // terminal link
        let plan = FaultPlan::new().link_down(10, RouterId(0), Port(0));
        assert!(plan.validate(&t).unwrap_err().contains("terminal"));
        // out-of-range router
        let plan = FaultPlan::new().router_drain(10, RouterId(999));
        assert!(plan.validate(&t).unwrap_err().contains("out of range"));
        // out-of-range port
        let plan = FaultPlan::new().link_up(10, RouterId(0), Port(99));
        assert!(plan.validate(&t).unwrap_err().contains("out of range"));
        // a dangling global port of a partially-populated network
        let partial = Dragonfly::new(DragonflyParams::new(2, 4, 2, 5).unwrap());
        let dangling = partial
            .routers()
            .flat_map(|r| {
                let params = *partial.params();
                (0..params.h).map(move |k| (r, Port::global(&params, k)))
            })
            .find(|(r, p)| {
                partial
                    .global_neighbor(*r, p.class_offset(partial.params()))
                    .is_none()
            })
            .expect("a dangling link exists");
        let plan = FaultPlan::new().link_down(10, dangling.0, dangling.1);
        assert!(plan.validate(&partial).unwrap_err().contains("not wired"));
    }

    #[test]
    fn node_event_validation_enforces_liveness_and_alternation() {
        let t = topo();
        // valid fail -> restore, plus a chain whose spare is live at fail time
        let plan = FaultPlan::new()
            .node_fail(100, NodeId(3), NodeId(4))
            .node_restore(400, NodeId(3))
            .node_fail(500, NodeId(4), NodeId(3));
        assert!(plan.validate(&t).is_ok());
        // out-of-range node / spare
        let plan = FaultPlan::new().node_fail(10, NodeId(999), NodeId(0));
        assert!(plan.validate(&t).unwrap_err().contains("out of range"));
        let plan = FaultPlan::new().node_fail(10, NodeId(0), NodeId(999));
        assert!(plan.validate(&t).unwrap_err().contains("out of range"));
        // self-spare
        let plan = FaultPlan::new().node_fail(10, NodeId(5), NodeId(5));
        assert!(plan.validate(&t).unwrap_err().contains("own spare"));
        // double fail
        let plan = FaultPlan::new()
            .node_fail(10, NodeId(5), NodeId(6))
            .node_fail(20, NodeId(5), NodeId(7));
        assert!(plan.validate(&t).unwrap_err().contains("already failed"));
        // restore-before-fail
        let plan = FaultPlan::new().node_restore(10, NodeId(5));
        assert!(plan
            .validate(&t)
            .unwrap_err()
            .contains("restore-before-fail"));
        // same-cycle double event
        let plan = FaultPlan::new()
            .node_fail(10, NodeId(5), NodeId(6))
            .node_restore(10, NodeId(5));
        assert!(plan.validate(&t).unwrap_err().contains("same cycle"));
        // spare failed at the fail cycle
        let plan = FaultPlan::new()
            .node_fail(10, NodeId(6), NodeId(7))
            .node_fail(20, NodeId(5), NodeId(6));
        assert!(plan
            .validate(&t)
            .unwrap_err()
            .contains("spares must be live"));
        // ... but fine again once the spare is restored
        let plan = FaultPlan::new()
            .node_fail(10, NodeId(6), NodeId(7))
            .node_restore(15, NodeId(6))
            .node_fail(20, NodeId(5), NodeId(6));
        assert!(plan.validate(&t).is_ok());
    }

    #[test]
    fn merged_appends_the_other_plans_events() {
        let t = topo();
        let (gw, port) = FaultPlan::global_link_between(&t, GroupId(1), GroupId(2));
        let explicit = FaultPlan::new().link_down(150, gw, port);
        let churned = FaultPlan::new().node_fail(300, NodeId(9), NodeId(10));
        let merged = explicit.merged(churned);
        assert_eq!(merged.events().len(), 2);
        assert_eq!(cycles(merged.events()), vec![150, 300]);
        assert!(merged.validate(&t).is_ok());
    }

    #[test]
    fn global_link_between_matches_the_gateway() {
        let t = topo();
        let (gw, port) = FaultPlan::global_link_between(&t, GroupId(2), GroupId(7));
        assert_eq!(t.router_group(gw), GroupId(2));
        assert_eq!(port.class(t.params()), PortClass::Global);
    }
}
