//! Adversarial fault-routing suite (PR 5): the re-commit rule, unroutable
//! discards and link-state dissemination through PB/ECtN.
//!
//! The headline contract: the pinned `ADV-cut2` double-cut — which used to
//! strand 54–75 committed packets forever — drains to **zero** stranded
//! packets under every fault-corpus mechanism, with packet and phit
//! conservation holding as exact equalities, and bit-identically to the
//! digests frozen from the retired seed kernel.

use contention_dragonfly::prelude::*;
use df_sim::FaultPlan;

#[path = "common/frozen.rs"]
#[allow(dead_code)] // the drain helpers are used by the drain suites
mod frozen;

// -------------------------------------------------------------------------
// helpers
// -------------------------------------------------------------------------

fn small_topo() -> Dragonfly {
    Dragonfly::new(DragonflyParams::small())
}

/// The endpoint of the unique global link between two groups.
fn link_between(g1: u32, g2: u32) -> (RouterId, Port) {
    FaultPlan::global_link_between(&small_topo(), GroupId(g1), GroupId(g2))
}

/// The ADV-cut2 fault plan of the golden corpus: both global links of the
/// adversarial hot path (0→1 and 1→2) die at cycle 100 and never recover.
fn cut2_plan() -> FaultPlan {
    let (gw01, port01) = link_between(0, 1);
    let (gw12, port12) = link_between(1, 2);
    FaultPlan::new()
        .link_down(100, gw01, port01)
        .link_down(100, gw12, port12)
}

fn corpus_builder() -> df_sim::SimulationConfigBuilder {
    SimulationConfig::builder()
        .topology(DragonflyParams::small())
        .network(NetworkConfig::fast_test())
        .offered_load(0.2)
        .warmup_cycles(200)
        .measurement_cycles(400)
        .seed(11)
}

/// The exact conservation equalities every faulted run must satisfy.
fn check_exact_conservation(net: &Network) {
    assert_eq!(
        net.injected_packets_total(),
        net.metrics().delivered_packets_total()
            + net.in_flight()
            + net.metrics().dropped_on_fault_packets(),
        "packet conservation must hold as an exact equality"
    );
    assert_eq!(
        net.injected_phits_total(),
        net.metrics().delivered_phits_total()
            + net.in_flight_phits()
            + net.metrics().dropped_on_fault_phits(),
        "phit conservation must hold as an exact equality"
    );
}

// -------------------------------------------------------------------------
// 1. the tentpole: ADV-cut2 drains to zero stranded packets
// -------------------------------------------------------------------------

#[test]
fn adv_cut2_drains_to_zero_stranded_under_every_corpus_mechanism() {
    for routing in [RoutingKind::Base, RoutingKind::Olm, RoutingKind::Ectn] {
        let cfg = corpus_builder()
            .routing(routing)
            .pattern(PatternKind::Adversarial { offset: 1 })
            .faults(cut2_plan())
            .build()
            .unwrap();
        let mut net = Network::new(cfg);
        net.run_cycles(600);
        assert!(
            net.drain(20_000),
            "{routing}: the cut network must drain completely under re-commit"
        );
        assert_eq!(net.in_flight(), 0, "{routing}: zero stranded packets");
        assert_eq!(net.in_flight_phits(), 0);
        check_exact_conservation(&net);
        let m = net.metrics();
        if routing != RoutingKind::Ectn {
            // ECtN's injection-time misroutes commit to the source router's
            // *own* global ports and are consumed at the very next grant,
            // so (unlike Base/OLM, which commit to remote gateways) it may
            // legitimately have no pending commitment for the cut to catch.
            assert!(
                m.recommitted_packets() > 0,
                "{routing}: committed packets at the dead gateways must re-commit"
            );
        }
        assert!(
            m.dropped_unroutable_packets() > 0,
            "{routing}: packets already misrouted into the cut-off group are \
             unroutable within the VC budget and must be discarded"
        );
        assert!(
            m.dropped_staged_packets() > 0,
            "{routing}: packets staged behind the dying links are lost with them"
        );
        // every input VC and output buffer in the network is empty
        let topo = *net.topology();
        for r in topo.routers() {
            assert_eq!(net.router(r).queued_packets(), 0, "{routing}: router {r}");
        }
    }
}

#[test]
fn adv_cut2_matches_the_frozen_digests() {
    for (routing, frozen) in [
        (RoutingKind::Base, 0x5240_609D_2664_8A49),
        (RoutingKind::Ectn, 0x7C86_2287_6E62_1A66),
    ] {
        let cfg = corpus_builder()
            .routing(routing)
            .pattern(PatternKind::Adversarial { offset: 1 })
            .faults(cut2_plan())
            .build()
            .unwrap();
        let mut net = Network::new(cfg);
        net.metrics_mut().start_measurement(0);
        net.run_cycles(600);
        net.drain(20_000);
        let s = net.metrics().window_summary();
        let reference = (
            s.delivered_packets,
            s.avg_packet_latency.to_bits(),
            net.metrics().dropped_on_fault_packets(),
            net.metrics().dropped_staged_packets(),
            net.metrics().dropped_unroutable_packets(),
            net.metrics().recommitted_packets(),
            net.in_flight(),
            net.cycle(),
            net.pending_events(),
        );
        assert_eq!(reference.6, 0, "{routing}: drains to zero");
        assert!(reference.4 > 0, "{routing}: unroutable discards happen");
        if routing == RoutingKind::Base {
            assert!(reference.5 > 0, "{routing}: re-commits happen");
        }
        frozen::assert_frozen(&format!("{routing}: ADV+1 cut2"), &reference, frozen);
    }
}

// -------------------------------------------------------------------------
// 2. link-state dissemination vs discover-at-gateway
// -------------------------------------------------------------------------

#[test]
fn linkstate_mechanisms_lose_less_traffic_than_gateway_discovery() {
    // Under the permanent double cut, Base keeps committing group-1-bound
    // packets into the cut-off intermediate group until backpressure stops
    // it (each one discarded as unroutable at the dead gateway), while
    // ECtN's piggybacked gateway-liveness bits steer injections away at the
    // source and PB's view diverts its Valiant picks. Everyone drains to
    // zero; the mechanisms differ in how much traffic the failure costs.
    let run = |routing: RoutingKind| {
        let cfg = corpus_builder()
            .routing(routing)
            .pattern(PatternKind::Adversarial { offset: 1 })
            .faults(cut2_plan())
            .build()
            .unwrap();
        let mut net = Network::new(cfg);
        net.run_cycles(600);
        net.drain(20_000);
        check_exact_conservation(&net);
        // "stranded or lost": whatever was injected but never delivered
        net.in_flight() + net.metrics().dropped_on_fault_packets()
    };
    let base = run(RoutingKind::Base);
    let ectn = run(RoutingKind::Ectn);
    let pb = run(RoutingKind::PiggyBacking);
    assert!(base > 0, "the cut must cost Base traffic");
    assert!(
        ectn < base,
        "ECtN's link-state view must lose fewer packets than Base's \
         gateway discovery ({ectn} vs {base})"
    );
    assert!(
        pb < base,
        "PB's link-state view must lose fewer packets than Base's \
         gateway discovery ({pb} vs {base})"
    );
}

#[test]
fn ectn_flooding_disseminates_faults_one_live_hop_per_exchange() {
    // ECtN broadcasts every 100 cycles, and the gateway-liveness entries
    // ride the same exchanges as a per-group *flood*: each exchange carries
    // an entry one live group-hop further from the group that owns it. With
    // the 0↔1 link cut at cycle 150:
    //   * the incident groups observe their own side directly, so they
    //     learn it at the first post-fault exchange (cycle 200);
    //   * every other group is one live hop from each incident group and
    //     learns both sides one exchange later (cycle 300);
    //   * each incident group's live path to the *far* group is two hops
    //     (the direct link is the dead one), so it learns the far-side
    //     entry at cycle 400.
    // The recovery at 450 retraces the same hops: own side at 500,
    // everywhere by 600.
    let (gw01, port01) = link_between(0, 1);
    let cfg = corpus_builder()
        .routing(RoutingKind::Ectn)
        .pattern(PatternKind::Uniform)
        .faults(
            FaultPlan::new()
                .link_down(150, gw01, port01)
                .link_up(450, gw01, port01),
        )
        .build()
        .unwrap();
    let mut net = Network::new(cfg);
    let topo = *net.topology();
    let j01 = topo.group_link_to(GroupId(0), GroupId(1));
    let j10 = topo.group_link_to(GroupId(1), GroupId(0));
    let probe0 = RouterId(3); // a non-gateway router of incident group 0
    let probe5 = RouterId(22); // a router of group 5, distance 1 from both
    net.run_cycles(200); // cycles 0..199: fault fired, no exchange since
    assert!(
        net.router(probe0).link_view().link_up(GroupId(0), j01),
        "the exchange at 200 has not run yet; the view is still pre-fault"
    );
    net.run_cycles(1); // the exchange at 200
    assert!(
        !net.router(probe0).link_view().link_up(GroupId(0), j01),
        "the incident group learns its own side at the first exchange"
    );
    assert!(
        net.router(probe5).link_view().link_up(GroupId(0), j01),
        "a distance-one group has not heard yet: the flood moves one live \
         hop per exchange, not network-wide in one step"
    );
    assert!(
        net.router(probe0).link_view().link_up(GroupId(1), j10),
        "the far-side entry is two live hops from group 0 (the direct link \
         is the dead one) and cannot have arrived yet"
    );
    net.run_cycles(100); // the exchange at 300
    assert!(!net.router(probe5).link_view().link_up(GroupId(0), j01));
    assert!(!net.router(probe5).link_view().link_up(GroupId(1), j10));
    net.run_cycles(100); // the exchange at 400: full convergence
    for r in topo.routers() {
        assert!(!net.router(r).link_view().link_up(GroupId(0), j01));
        assert!(!net.router(r).link_view().link_up(GroupId(1), j10));
    }
    net.run_cycles(200); // through the exchanges at 500 and 600
    for r in topo.routers() {
        assert!(
            net.router(r).link_view().link_up(GroupId(0), j01),
            "router {r}: the view recovers after LinkUp"
        );
        assert!(net.router(r).link_view().link_up(GroupId(1), j10));
    }
    // The staleness metric counts exactly the cycles where some view still
    // lags the truth: 150..400 after the fault (250 cycles, converging at
    // the exchange at 400) plus 450..600 after the repair (150 cycles) —
    // within the (1 + max live hop distance) × period bound per event.
    assert_eq!(net.metrics().stale_linkstate_cycles(), 250 + 150);
}

#[test]
fn mechanisms_without_dissemination_keep_a_pristine_view() {
    // Base has no control-plane exchange: its routers must never install
    // link state (discover-at-gateway is part of the mechanism comparison).
    let cfg = corpus_builder()
        .routing(RoutingKind::Base)
        .pattern(PatternKind::Adversarial { offset: 1 })
        .faults(cut2_plan())
        .build()
        .unwrap();
    let mut net = Network::new(cfg);
    net.run_cycles(600);
    let topo = *net.topology();
    for r in topo.routers() {
        assert!(
            net.router(r).link_view().all_up(),
            "Base router {r} must hold a pristine (never-installed) view"
        );
    }
    assert_eq!(
        net.metrics().stale_linkstate_cycles(),
        0,
        "staleness is only metered for disseminating mechanisms"
    );
}

// -------------------------------------------------------------------------
// 3. recovery after LinkUp returns to the healthy fingerprint
// -------------------------------------------------------------------------

#[test]
fn recovery_after_linkup_returns_to_the_healthy_fingerprint() {
    // A link that dies and recovers while the network carries no traffic
    // must leave zero residue: the exact same delivered/latency/final-cycle
    // fingerprint as a run that never had the fault — proving the credit
    // ledger, the link flags, the activity gate and the disseminated view
    // all return to the healthy state bit-for-bit.
    let (gw01, port01) = link_between(0, 1);
    for routing in [
        RoutingKind::Base,
        RoutingKind::Ectn,
        RoutingKind::PiggyBacking,
        RoutingKind::Olm,
    ] {
        let run = |faults: FaultPlan| {
            let scenario = Scenario::named("quiet-then-un")
                .phase_at_load(PatternKind::Uniform, 0.0, 120)
                .hold(PatternKind::Uniform);
            let cfg = corpus_builder()
                .routing(routing)
                .scenario(&scenario)
                .faults(faults)
                .build()
                .unwrap();
            let mut net = Network::new(cfg);
            net.run_cycles(200);
            let start = net.cycle();
            net.metrics_mut().start_measurement(start);
            net.run_cycles(400);
            assert!(net.drain(50_000));
            let s = net.metrics().window_summary();
            (
                s.delivered_packets,
                s.avg_packet_latency.to_bits(),
                net.cycle(),
                net.metrics().dropped_on_fault_packets(),
            )
        };
        let faulted = run(FaultPlan::new()
            .link_down(20, gw01, port01)
            .link_up(80, gw01, port01));
        let healthy = run(FaultPlan::new());
        assert_eq!(
            faulted, healthy,
            "{routing}: a fault healed before traffic starts must leave the \
             trajectory byte-identical to a healthy run"
        );
        assert_eq!(faulted.3, 0, "{routing}: nothing was dropped");
    }
}

#[test]
fn recovery_with_traffic_restores_full_credit_conservation() {
    // The harder recovery case: the double cut *with* traffic, recommits,
    // discards and staged drops, then both LinkUps — after the drain every
    // credit is back, every counter zero, the ledger empty.
    let (gw01, port01) = link_between(0, 1);
    let (gw12, port12) = link_between(1, 2);
    for routing in [RoutingKind::Base, RoutingKind::Ectn] {
        let cfg = corpus_builder()
            .routing(routing)
            .pattern(PatternKind::Adversarial { offset: 1 })
            .faults(
                FaultPlan::new()
                    .link_down(100, gw01, port01)
                    .link_down(100, gw12, port12)
                    .link_up(450, gw01, port01)
                    .link_up(450, gw12, port12),
            )
            .build()
            .unwrap();
        let mut net = Network::new(cfg);
        net.run_cycles(600);
        assert!(net.drain(50_000), "{routing}: restored network drains");
        check_exact_conservation(&net);
        assert_eq!(net.fault_lost_credits(), 0, "{routing}: ledger returned");
        assert_eq!(net.total_contention(), 0);
        let topo = *net.topology();
        let params = topo.layout();
        for router_id in topo.routers() {
            let router = net.router(router_id);
            for port in Port::all(&params) {
                let output = router.output(port);
                for vc in 0..output.num_downstream_vcs() {
                    assert_eq!(
                        output.credits(VcId(vc as u8)),
                        output.credit_capacity(VcId(vc as u8)),
                        "{routing}: router {router_id} port {port} vc {vc}"
                    );
                }
            }
        }
    }
}

// -------------------------------------------------------------------------
// 4. Valiant re-picks dead waypoints
// -------------------------------------------------------------------------

#[test]
fn valiant_repicks_waypoints_blocked_by_a_dead_link() {
    // Under uniform traffic with the 0↔1 link down, VAL packets committed
    // to waypoints reached through it re-pick a live intermediate at the
    // source instead of stalling on the dead port. VAL stays oblivious past
    // the waypoint (a post-waypoint minimal leg over the dead link still
    // waits — like MIN), so the fault heals at 450 and everything drains.
    let (gw01, port01) = link_between(0, 1);
    let run = |faults: FaultPlan| {
        let cfg = corpus_builder()
            .routing(RoutingKind::Valiant)
            .pattern(PatternKind::Uniform)
            .faults(faults)
            .build()
            .unwrap();
        let mut net = Network::new(cfg);
        net.run_cycles(600);
        assert!(net.drain(50_000), "VAL drains after the link heals");
        check_exact_conservation(&net);
        net.metrics().recommitted_packets()
    };
    let repicked = run(FaultPlan::new()
        .link_down(150, gw01, port01)
        .link_up(450, gw01, port01));
    assert!(
        repicked > 0,
        "waypoints behind the dead link must have been re-picked"
    );
    assert_eq!(run(FaultPlan::new()), 0, "healthy runs never re-commit");
}

// -------------------------------------------------------------------------
// 5. FaultPlan validation rejection paths
// -------------------------------------------------------------------------

#[test]
fn fault_plan_rejects_bare_terminal_links_and_points_at_node_fail() {
    let err = FaultPlan::new()
        .link_down(10, RouterId(0), Port(0))
        .validate(&small_topo())
        .unwrap_err();
    assert!(err.contains("terminal links cannot fail"), "{err}");
    assert!(
        err.contains("NodeFail") && err.contains("drain-at-source"),
        "the rejection must point at the NodeFail drain-at-source semantics: {err}"
    );
}

#[test]
fn fault_plan_rejects_same_cycle_duplicates_on_one_link() {
    let topo = small_topo();
    let (gw, port) = link_between(0, 1);
    // down + up in the same cycle: insertion-order-dependent, rejected
    let err = FaultPlan::new()
        .link_down(100, gw, port)
        .link_up(100, gw, port)
        .validate(&topo)
        .unwrap_err();
    assert!(err.contains("same cycle"), "{err}");
    // the same physical link named from both of its ends collides too
    let (peer, back) = match topo.peer(gw, port) {
        df_topology::PortPeer::Router(p, b) => (p, b),
        _ => unreachable!("global links are wired"),
    };
    let err = FaultPlan::new()
        .link_down(100, gw, port)
        .link_down(100, peer, back)
        .validate(&topo)
        .unwrap_err();
    assert!(err.contains("same cycle"), "{err}");
}

#[test]
fn fault_plan_rejects_up_before_down_and_double_down() {
    let topo = small_topo();
    let (gw, port) = link_between(0, 1);
    let err = FaultPlan::new()
        .link_up(100, gw, port)
        .validate(&topo)
        .unwrap_err();
    assert!(err.contains("up-before-down"), "{err}");
    // an up whose matching down comes later on the sorted clock is the
    // same mistake
    let err = FaultPlan::new()
        .link_down(300, gw, port)
        .link_up(100, gw, port)
        .validate(&topo)
        .unwrap_err();
    assert!(err.contains("up-before-down"), "{err}");
    let err = FaultPlan::new()
        .link_down(100, gw, port)
        .link_down(200, gw, port)
        .validate(&topo)
        .unwrap_err();
    assert!(err.contains("already down"), "{err}");
    // and the well-formed sequence passes
    assert!(FaultPlan::new()
        .link_down(100, gw, port)
        .link_up(200, gw, port)
        .link_down(300, gw, port)
        .validate(&topo)
        .is_ok());
}

#[test]
fn fault_plan_rejects_unknown_routers_and_ports() {
    let topo = small_topo();
    let err = FaultPlan::new()
        .link_down(10, RouterId(999), Port(5))
        .validate(&topo)
        .unwrap_err();
    assert!(
        err.contains("router") && err.contains("out of range"),
        "{err}"
    );
    let err = FaultPlan::new()
        .link_down(10, RouterId(0), Port(99))
        .validate(&topo)
        .unwrap_err();
    assert!(
        err.contains("port") && err.contains("out of range"),
        "{err}"
    );
    let err = FaultPlan::new()
        .router_restore(10, RouterId(999))
        .validate(&topo)
        .unwrap_err();
    assert!(err.contains("out of range"), "{err}");
}
