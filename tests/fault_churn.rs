//! Churn-subsystem suite: seeded MTBF/MTTR fault generation, node-failure
//! semantics (drain-at-source + reroute-to-spare), and the hop-delayed
//! link-state flooding that disseminates both.
//!
//! The headline property: under ECtN's 100-cycle broadcast cadence, every
//! router's gateway-liveness view lags the simulator's ground truth by
//! **exactly** `(1 + live-hop-distance) × cadence` cycles — the flood moves
//! one live group-hop per exchange, no faster (views are only installed at
//! exchanges) and no slower (per-entry sequence numbers make merges
//! conflict-free) — verified against a BFS oracle over seeded random fault
//! masks that mix link cuts and node failures.

use contention_dragonfly::prelude::*;
use df_sim::FaultPlan;

#[path = "common/golden_corpus.rs"]
#[allow(dead_code)] // only the churn slice of the shared corpus is used here
mod golden_corpus;

#[path = "common/frozen.rs"]
#[allow(dead_code)] // the drain helpers are used by the drain suites
mod frozen;

use golden_corpus::{base_builder, churn_fingerprint, churn_routings, churn_scenarios};

// -------------------------------------------------------------------------
// 1. churn runs reproduce the retired seed kernel
// -------------------------------------------------------------------------

#[test]
fn churn_corpus_matches_the_frozen_digests() {
    // A churn run's full fingerprint — drops, retargets, strandings, final
    // cycle, latency bits — must be what the retired seed kernel produced.
    const FROZEN: [u64; 6] = [
        0xC5DD_22B4_92B4_1827,
        0x5CE3_72F3_58D3_B65E,
        0xB6E5_46BB_A8B9_1BEB,
        0x69EA_8A2B_3842_95D1,
        0x5A68_7A91_08BA_49B1,
        0xBEBE_9EE9_2301_8EA0,
    ];
    let mut cells = Vec::new();
    for scenario in churn_scenarios() {
        for routing in churn_routings() {
            let cfg = base_builder()
                .routing(routing)
                .scenario(&scenario)
                .build()
                .expect("valid configuration");
            let reference = churn_fingerprint(cfg);
            cells.push((format!("{}/{}", scenario.name, routing.label()), reference));
        }
    }
    frozen::assert_all_frozen("churn corpus", &cells, &FROZEN);
}

#[test]
fn churn_corpus_drains_to_zero_in_flight_for_every_mechanism() {
    // The PR-5 re-commit rule originally covered only the commitment paths
    // shared by the adaptive mechanisms; PB's source-routed minimal
    // continuations could still stall forever on links that stayed down
    // through the drain window (9 and 45 packets stranded at the 20k-cycle
    // drain bound in the pinned corpus). With the PB re-commit/discard
    // path in place, every mechanism must drain the churn corpus
    // completely: zero in-flight packets well before the bound, with exact
    // packet + phit conservation (asserted inside `churn_fingerprint`).
    for scenario in churn_scenarios() {
        for routing in churn_routings() {
            let cfg = base_builder()
                .routing(routing)
                .scenario(&scenario)
                .build()
                .expect("valid configuration");
            let drain_bound = cfg.warmup_cycles + cfg.measurement_cycles + 20_000;
            let (_, _, _, in_flight, final_cycle, _) = churn_fingerprint(cfg);
            assert_eq!(
                in_flight,
                0,
                "{}/{}: packets stranded at the drain bound",
                scenario.name,
                routing.label()
            );
            assert!(
                final_cycle < drain_bound,
                "{}/{}: the drain must terminate before the bound, not at it \
                 (final cycle {final_cycle}, bound {drain_bound})",
                scenario.name,
                routing.label()
            );
        }
    }
}

#[test]
fn churn_corpus_cells_see_node_failures_and_retargets() {
    // the acceptance bar demands the pinned churn scenarios actually
    // exercise node-failure semantics, not just link churn
    for scenario in churn_scenarios() {
        let churn = scenario
            .churn_model()
            .expect("churn scenarios carry a model");
        let topo = Dragonfly::new(DragonflyParams::small());
        let plan = churn.generate(&topo);
        let node_fails = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::NodeFail { .. }))
            .count();
        assert!(
            node_fails >= 1,
            "{}: the lowered plan must contain at least one NodeFail, got {node_fails}",
            scenario.name
        );
        let cfg = base_builder()
            .routing(RoutingKind::Ectn)
            .scenario(&scenario)
            .build()
            .unwrap();
        let (_, _, retargeted, _, _, _) = churn_fingerprint(cfg);
        assert!(
            retargeted > 0,
            "{}: packets addressed to failed nodes must retarget to spares",
            scenario.name
        );
    }
}

// -------------------------------------------------------------------------
// 2. the staleness bound: one live group-hop per exchange, exactly
// -------------------------------------------------------------------------

/// BFS distances over the *live* group graph: edges are the inter-group
/// links that are up in `truth` (an entry's flood path never uses a dead
/// link — the exchange it rides is skipped).
fn live_group_distances(topo: &Dragonfly, truth: &GatewayLiveness, from: GroupId) -> Vec<u32> {
    let n = topo.num_groups();
    let mut dist = vec![u32::MAX; n as usize];
    dist[from.0 as usize] = 0;
    let mut frontier = vec![from];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &g in &frontier {
            for h in 0..n {
                if h == g.0 || dist[h as usize] != u32::MAX {
                    continue;
                }
                let j_gh = topo.group_link_to(g, GroupId(h));
                let j_hg = topo.group_link_to(GroupId(h), g);
                // both directions' marks describe the same physical link,
                // and the flood merges only over links the truth holds up
                if truth.link_up(g, j_gh) && truth.link_up(GroupId(h), j_hg) {
                    dist[h as usize] = dist[g.0 as usize] + 1;
                    next.push(GroupId(h));
                }
            }
        }
        frontier = next;
    }
    dist
}

/// One entry of a fault mask: which group owns the down-mark and a closure
/// checking whether a view has adopted it.
enum MaskEntry {
    Link { owner: GroupId, j: u32 },
    Node { owner: GroupId, node: NodeId },
}

impl MaskEntry {
    fn marked_down(&self, view: &GatewayLiveness) -> bool {
        match *self {
            MaskEntry::Link { owner, j } => !view.link_up(owner, j),
            MaskEntry::Node { node, .. } => !view.node_up(node),
        }
    }

    fn owner(&self) -> GroupId {
        match *self {
            MaskEntry::Link { owner, .. } | MaskEntry::Node { owner, .. } => owner,
        }
    }
}

#[test]
fn liveness_views_lag_truth_by_exactly_hop_distance_times_cadence() {
    // Seeded random masks of global-link cuts plus node failures, all fired
    // at cycle 150 under ECtN (exchange cadence 100, exchanges at 200, 300,
    // …). For every mask entry owned by group `g` and every observer group
    // `G`, the installed view of `G`'s routers must adopt the down-mark at
    // exchange `1 + dist(g, G)` — not one exchange earlier, not one later —
    // where `dist` is BFS distance in the post-fault live group graph.
    let topo = Dragonfly::new(DragonflyParams::small());
    let params = *topo.params();
    let num_nodes = topo.num_nodes();
    let mut rng = DeterministicRng::new(0xC4_52);
    for trial in 0..12u32 {
        // ---- build a valid random mask: 1..=4 global links, 0..=2 nodes
        let mut plan = FaultPlan::new();
        let mut cut_links: Vec<(RouterId, Port)> = Vec::new();
        let cuts = 1 + rng.below(4) as usize;
        while cut_links.len() < cuts {
            let r = RouterId(rng.below(topo.num_routers() as u64) as u32);
            let k = rng.below(params.h as u64) as u32;
            let port = Port::global(&params, k);
            let Some((peer, back)) = topo.global_neighbor(r, k) else {
                continue;
            };
            let canonical = if (peer.0, back.0) < (r.0, port.0) {
                (peer, back)
            } else {
                (r, port)
            };
            if cut_links.contains(&canonical) {
                continue;
            }
            cut_links.push(canonical);
            plan = plan.link_down(150, canonical.0, canonical.1);
        }
        let mut failed_nodes: Vec<NodeId> = Vec::new();
        for _ in 0..rng.below(3) {
            let node = NodeId(rng.below(num_nodes as u64) as u32);
            let spare = NodeId((node.0 + 1) % num_nodes);
            if failed_nodes.contains(&node) || failed_nodes.contains(&spare) {
                continue;
            }
            failed_nodes.push(node);
            plan = plan.node_fail(150, node, spare);
        }
        assert_eq!(plan.validate(&topo), Ok(()), "trial {trial}: mask invalid");

        // ---- the oracle: owner group and live-graph distances per entry
        let cfg = base_builder()
            .routing(RoutingKind::Ectn)
            .pattern(PatternKind::Uniform)
            .offered_load(0.0)
            .faults(plan)
            .build()
            .unwrap();
        let mut net = Network::new(cfg);
        net.run_cycles(160); // the mask has fired; no exchange since
        let truth = net.linkview_truth().clone();
        let mut entries: Vec<MaskEntry> = Vec::new();
        for &(r, port) in &cut_links {
            // both incident groups own a directed entry for the cut link
            let g = topo.router_group(r);
            let j = topo.global_link_index(r, port.class_offset(&params));
            assert!(!truth.link_up(g, j), "trial {trial}: truth lost the cut");
            entries.push(MaskEntry::Link { owner: g, j });
            if let df_topology::PortPeer::Router(peer, back) = topo.peer(r, port) {
                let gp = topo.router_group(peer);
                let jp = topo.global_link_index(peer, back.class_offset(&params));
                entries.push(MaskEntry::Link { owner: gp, j: jp });
            }
        }
        for &node in &failed_nodes {
            let owner = topo.router_group(topo.node_router(node));
            entries.push(MaskEntry::Node { owner, node });
        }
        let distances: Vec<Vec<u32>> = (0..topo.num_groups())
            .map(|g| live_group_distances(&topo, &truth, GroupId(g)))
            .collect();

        // ---- step exchange by exchange and compare against the oracle
        let max_dist = entries
            .iter()
            .flat_map(|e| distances[e.owner().0 as usize].iter().copied())
            .filter(|&d| d != u32::MAX)
            .max()
            .unwrap_or(0);
        for exchange in 0..=(1 + max_dist) {
            // exchange k happens at cycle 200 + (k-1)*100; net is at
            // 160 + 100*(k already run), so advance to just past it
            if exchange > 0 {
                let target = 200 + (exchange as u64 - 1) * 100 + 1;
                net.run_cycles(target - net.cycle());
            }
            for g in 0..topo.num_groups() {
                let observer = GroupId(g);
                let probe = topo.routers_in_group(observer).next().unwrap();
                let view = net.router(probe).link_view();
                for entry in &entries {
                    let d = distances[entry.owner().0 as usize][g as usize];
                    let expect_known = d != u32::MAX && exchange > d;
                    assert_eq!(
                        entry.marked_down(view),
                        expect_known,
                        "trial {trial}, exchange {exchange}, group {g}: entry owned by \
                         {} at live distance {d} must be known iff {exchange} >= 1 + {d}",
                        entry.owner()
                    );
                }
            }
        }
        // after the bound every reachable router's marks equal the truth
        for r in topo.routers() {
            assert!(
                net.router(r).link_view().same_marks(net.linkview_truth()),
                "trial {trial}: router {r} still stale past the staleness bound"
            );
        }
    }
}

// -------------------------------------------------------------------------
// 3. node-failure semantics: drain-at-source + reroute-to-spare
// -------------------------------------------------------------------------

#[test]
fn node_failure_drains_at_source_and_retargets_to_the_spare() {
    // node 5 fails at 100 with node 6 as spare: traffic addressed to 5
    // retargets to 6 at injection time, node 5 stops generating, and the
    // run keeps exact packet + phit conservation with nothing dropped
    // (ejection paths stay live — a NodeFail never kills a link)
    let scenario = Scenario::named("UN-nodefail")
        .hold(PatternKind::Uniform)
        .node_fail(100, NodeId(5), NodeId(6))
        .node_restore(450, NodeId(5));
    let cfg = base_builder()
        .routing(RoutingKind::Ectn)
        .scenario(&scenario)
        .build()
        .unwrap();
    let mut net = Network::new(cfg);
    net.run_cycles(200);
    assert!(net.node_failed(NodeId(5)), "the failure applied");
    assert!(!net.node_failed(NodeId(6)), "the spare is live");
    net.run_cycles(300); // past the restore at 450
    assert!(!net.node_failed(NodeId(5)), "the restore applied");
    assert!(
        net.drain(20_000),
        "a node failure must never strand packets"
    );
    assert!(
        net.metrics().retargeted_packets() > 0,
        "uniform traffic must have addressed the failed node"
    );
    assert_eq!(
        net.metrics().dropped_on_fault_packets(),
        0,
        "a pure node failure drops nothing: sources drain, spares absorb"
    );
    assert_eq!(
        net.injected_packets_total(),
        net.metrics().delivered_packets_total() + net.in_flight(),
        "exact packet conservation"
    );
    assert_eq!(
        net.injected_phits_total(),
        net.metrics().delivered_phits_total() + net.in_flight_phits(),
        "exact phit conservation"
    );
}

#[test]
fn retarget_chains_follow_spares_of_spares() {
    // 5 fails onto 6, then 6 fails onto 7: traffic to 5 must end at 7
    // (the injection-time walk follows the spare chain), and the chain
    // cannot cycle because validation requires every spare live at its
    // fail cycle
    let scenario = Scenario::named("UN-chain")
        .hold(PatternKind::Uniform)
        .node_fail(100, NodeId(5), NodeId(6))
        .node_fail(200, NodeId(6), NodeId(7));
    let cfg = base_builder()
        .routing(RoutingKind::Base)
        .scenario(&scenario)
        .build()
        .unwrap();
    let mut net = Network::new(cfg);
    net.run_cycles(600);
    assert!(net.node_failed(NodeId(5)));
    assert!(net.node_failed(NodeId(6)));
    assert!(!net.node_failed(NodeId(7)));
    assert!(net.drain(20_000));
    assert!(net.metrics().retargeted_packets() > 0);
    assert_eq!(
        net.injected_packets_total(),
        net.metrics().delivered_packets_total() + net.in_flight()
    );
}

#[test]
fn node_failures_flood_like_link_entries() {
    // a NodeFail's down-mark floods through the same per-group views on
    // the same cadence: the owning group knows at the first exchange, a
    // remote group one exchange later (all group links live, distance 1)
    let node = NodeId(5); // attached to router 2, group 0
    let scenario = Scenario::named("UN-nodeflood")
        .hold(PatternKind::Uniform)
        .node_fail(150, node, NodeId(6));
    let cfg = base_builder()
        .routing(RoutingKind::Ectn)
        .scenario(&scenario)
        .build()
        .unwrap();
    let mut net = Network::new(cfg);
    let topo = *net.topology();
    let owner_probe = RouterId(3); // group 0
    let remote_probe = RouterId(22); // group 5
    assert_eq!(topo.router_group(topo.node_router(node)), GroupId(0));
    net.run_cycles(200);
    assert!(net.router(owner_probe).link_view().node_up(node));
    net.run_cycles(1); // the exchange at 200
    assert!(
        !net.router(owner_probe).link_view().node_up(node),
        "the owning group learns the node failure at the first exchange"
    );
    assert!(
        net.router(remote_probe).link_view().node_up(node),
        "a remote group lags one exchange behind"
    );
    net.run_cycles(100); // the exchange at 300
    assert!(!net.router(remote_probe).link_view().node_up(node));
}

// -------------------------------------------------------------------------
// 4. churn end-state: unrepaired failures persist past the horizon
// -------------------------------------------------------------------------

#[test]
fn churn_leaves_the_network_degraded_when_repairs_fall_past_the_horizon() {
    // an MTTR far longer than the horizon means failures stay unrepaired:
    // the lowered plan ends with at least one un-restored failure, and the
    // truth still marks it down at the end of the run
    let churn = ChurnModel::new(11, 0, 2_000).global_links(ChurnRate::new(600.0, 1_000_000.0));
    let topo = Dragonfly::new(DragonflyParams::small());
    let plan = churn.generate(&topo);
    let downs = plan
        .events()
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::LinkDown { .. }))
        .count();
    let ups = plan
        .events()
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::LinkUp { .. }))
        .count();
    assert!(
        downs > 0,
        "a 600-cycle MTBF over 72 links must cut something"
    );
    assert!(
        ups < downs,
        "with MTTR ≫ horizon most repairs fall past the horizon ({ups} ups vs {downs} downs)"
    );
    let cfg = base_builder()
        .routing(RoutingKind::Ectn)
        .pattern(PatternKind::Uniform)
        .offered_load(0.05)
        .churn(churn)
        .build()
        .unwrap();
    let mut net = Network::new(cfg);
    net.run_cycles(2_100);
    assert!(
        net.linkview_truth().num_down() > 0,
        "the degraded end state persists"
    );
}
