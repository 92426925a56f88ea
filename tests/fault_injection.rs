//! End-to-end tests of the deterministic fault-injection subsystem:
//! conservation equalities under link loss, recovery after `LinkUp`,
//! graceful router drains, faults firing inside a drain window, and the
//! frozen digest of a faulted run.

use contention_dragonfly::prelude::*;
use df_sim::FaultPlan;

#[path = "common/frozen.rs"]
#[allow(dead_code)] // the table helper is used by other suites
mod frozen;

use frozen::assert_frozen;

fn base_builder() -> df_sim::SimulationConfigBuilder {
    SimulationConfig::builder()
        .topology(DragonflyParams::small())
        .network(NetworkConfig::fast_test())
        .offered_load(0.25)
        .warmup_cycles(0)
        .measurement_cycles(600)
        .seed(7)
}

/// The exact packet/phit conservation equalities under faults:
/// `injected = delivered + in-flight + dropped-on-fault`.
fn check_fault_conservation(net: &Network) {
    assert_eq!(
        net.injected_packets_total(),
        net.metrics().delivered_packets_total()
            + net.in_flight()
            + net.metrics().dropped_on_fault_packets(),
        "packet conservation violated"
    );
    assert_eq!(
        net.injected_phits_total(),
        net.metrics().delivered_phits_total()
            + net.in_flight_phits()
            + net.metrics().dropped_on_fault_phits(),
        "phit conservation violated"
    );
}

/// Full healthy-state conservation (credits, counters, buffers) — only
/// valid once every failed link has been restored and the network drained.
fn check_full_conservation(net: &Network) {
    assert_eq!(net.in_flight(), 0);
    assert_eq!(net.in_flight_phits(), 0);
    assert_eq!(net.fault_lost_credits(), 0, "all ledger credits returned");
    assert_eq!(net.total_contention(), 0);
    let topo = net.topology();
    let layout = topo.layout();
    for router_id in topo.routers() {
        let router = net.router(router_id);
        for port in Port::all(&layout) {
            let output = router.output(port);
            for vc in 0..output.num_downstream_vcs() {
                assert_eq!(
                    output.credits(VcId(vc as u8)),
                    output.credit_capacity(VcId(vc as u8)),
                    "router {router_id} port {port} vc {vc}: credits not fully returned"
                );
            }
            assert_eq!(output.buffer_occupancy_phits(), 0);
        }
    }
}

/// Every directed link end currently down, in ascending `(router, port)`
/// order, read from the routers' own link flags.
fn down_ends(net: &Network) -> Vec<(RouterId, Port)> {
    let topo = net.topology();
    let layout = topo.layout();
    topo.routers()
        .flat_map(|r| Port::all(&layout).map(move |p| (r, p)))
        .filter(|&(r, p)| !net.router(r).link_is_up(p))
        .collect()
}

/// Both directed ends of the link at `(router, port)`, ascending.
fn ends_of(net: &Network, router: RouterId, port: Port) -> Vec<(RouterId, Port)> {
    let PortPeer::Router(peer, back) = net.topology().peer(router, port) else {
        panic!("{router} port {port} is not a router-to-router link");
    };
    let mut ends = vec![(router, port), (peer, back)];
    ends.sort();
    ends
}

/// The global link between two groups, as a fault target.
fn link_between(g1: u32, g2: u32) -> (RouterId, Port) {
    let topo = Dragonfly::new(DragonflyParams::small());
    FaultPlan::global_link_between(&topo, GroupId(g1), GroupId(g2))
}

#[test]
fn link_loss_drops_in_flight_phits_and_conserves_exactly() {
    // fail a busy global link mid-run, never restore it: whatever was on
    // the wire is dropped and accounted; the rest of the network keeps
    // delivering. ADV+1 concentrates every group-0 flow on the 0->1 link,
    // so traffic is guaranteed to be in flight on it at the fault cycle.
    let (gw, port) = link_between(0, 1);
    let cfg = base_builder()
        .routing(RoutingKind::Base)
        .pattern(PatternKind::Adversarial { offset: 1 })
        .faults(FaultPlan::new().link_down(200, gw, port))
        .build()
        .unwrap();
    let mut net = Network::new(cfg);
    // in-flight is counted where the packets are (router buffers and link
    // events), so the equality is checked against the drops at every step
    for _ in 0..600 {
        net.step();
        check_fault_conservation(&net);
    }
    let dropped = net.metrics().dropped_on_fault_packets();
    assert!(
        dropped > 0,
        "a busy link must have traffic in flight when it fails"
    );
    assert!(
        net.metrics().delivered_packets_total() > 100,
        "the rest of the network keeps delivering"
    );
    assert_eq!(
        down_ends(&net),
        ends_of(&net, gw, port),
        "both directions are down, nothing else"
    );
    // the ledger remembers the credits of every phit dropped on the dead
    // link itself — in flight on the wire or staged behind it — plus any
    // credit-return messages that were on the wire, while the link stays
    // down. Unroutable discards consumed no credits on the dead link, so
    // they are excluded from the bound.
    assert!(
        net.fault_lost_credits()
            >= net.metrics().dropped_on_fault_phits() - net.metrics().dropped_unroutable_phits(),
        "every phit dropped on the dead link has its credits ledgered until LinkUp"
    );
    // drain what can still be delivered; conservation holds throughout
    net.drain(20_000);
    check_fault_conservation(&net);
    assert!(
        net.metrics().dropped_staged_packets() > 0
            && net.metrics().dropped_unroutable_packets() > 0,
        "the run drops on the wire, from a dead link's stage and as unroutable"
    );
}

#[test]
fn link_up_restores_credits_and_full_conservation() {
    // down for a 300-cycle window, then restored: after the drain the
    // network must be byte-for-byte healthy again (all credits back, no
    // ledger leftovers), with the drops still on the books
    let (gw, port) = link_between(0, 1);
    let cfg = base_builder()
        .routing(RoutingKind::Base)
        .pattern(PatternKind::Adversarial { offset: 1 })
        .faults(
            FaultPlan::new()
                .link_down(200, gw, port)
                .link_up(500, gw, port),
        )
        .build()
        .unwrap();
    let mut net = Network::new(cfg);
    net.run_cycles(600);
    assert!(down_ends(&net).is_empty(), "the link came back");
    assert!(
        net.drain(50_000),
        "a restored network must drain completely"
    );
    assert!(net.metrics().dropped_on_fault_packets() > 0);
    check_fault_conservation(&net);
    check_full_conservation(&net);
    assert_eq!(
        net.injected_packets_total(),
        net.metrics().delivered_packets_total() + net.metrics().dropped_on_fault_packets()
    );
}

#[test]
fn adaptive_routing_routes_around_a_dead_link() {
    // under MIN the unique minimal path through the dead link stalls its
    // packets until the link returns; contention-based adaptive routing
    // misroutes around the failure and keeps (nearly) everything moving
    let run = |routing: RoutingKind| {
        let (gw, port) = link_between(0, 4);
        let cfg = base_builder()
            .routing(routing)
            .pattern(PatternKind::Uniform)
            .faults(FaultPlan::new().link_down(150, gw, port))
            .build()
            .unwrap();
        let mut net = Network::new(cfg);
        net.run_cycles(600);
        net.drain(20_000);
        check_fault_conservation(&net);
        (net.metrics().delivered_packets_total(), net.in_flight())
    };
    let (min_delivered, min_stuck) = run(RoutingKind::Minimal);
    let (base_delivered, base_stuck) = run(RoutingKind::Base);
    assert!(
        min_stuck > 0,
        "minimal routing must strand packets behind the unique dead minimal path"
    );
    assert!(
        base_stuck < min_stuck,
        "contention-based routing must strand fewer packets ({base_stuck} vs {min_stuck})"
    );
    assert!(base_delivered > min_delivered);
}

#[test]
fn router_drain_stops_generation_and_flushes() {
    // drain router 2 at cycle 150: its nodes stop generating, already
    // queued traffic flushes, transit traffic is unaffected, and the
    // network drains completely (no drops: nothing was in flight on a
    // failed link)
    let cfg = base_builder()
        .routing(RoutingKind::Base)
        .pattern(PatternKind::Uniform)
        .faults(FaultPlan::new().router_drain(150, RouterId(2)))
        .build()
        .unwrap();
    let mut net = Network::new(cfg);
    net.run_cycles(600);
    let topo = *net.topology();
    let drained_generated: u64 = topo
        .nodes_of_router(RouterId(2))
        .map(|n| net.node(n).generated_phits())
        .sum();
    // ~150 cycles at load 0.25 over 2 nodes ≈ 75 phits; far below the
    // ~300 phits an undrained router pair would generate in 600 cycles
    assert!(drained_generated > 0, "generation ran before the drain");
    assert!(
        drained_generated < 150,
        "generation must stop at the drain cycle (got {drained_generated})"
    );
    assert!(net.drain(20_000), "a drained router flushes completely");
    assert_eq!(net.metrics().dropped_on_fault_packets(), 0);
    check_fault_conservation(&net);
    check_full_conservation(&net);
    // the drained nodes' source queues flushed too
    for n in topo.nodes_of_router(RouterId(2)) {
        assert_eq!(net.node(n).queue_len(), 0);
    }
}

#[test]
fn router_restore_resumes_generation() {
    let cfg = base_builder()
        .routing(RoutingKind::Minimal)
        .pattern(PatternKind::Uniform)
        .faults(
            FaultPlan::new()
                .router_drain(100, RouterId(3))
                .router_restore(400, RouterId(3)),
        )
        .build()
        .unwrap();
    let mut net = Network::new(cfg.clone());
    net.run_cycles(400);
    let topo = *net.topology();
    let at_restore: u64 = topo
        .nodes_of_router(RouterId(3))
        .map(|n| net.node(n).generated_phits())
        .sum();
    net.run_cycles(200);
    let after: u64 = topo
        .nodes_of_router(RouterId(3))
        .map(|n| net.node(n).generated_phits())
        .sum();
    assert!(
        after > at_restore,
        "generation must resume after RouterRestore ({after} vs {at_restore})"
    );
    assert!(net.drain(20_000));
    check_full_conservation(&net);
}

#[test]
fn drain_observes_a_fault_at_its_exact_cycle() {
    // A LinkDown scheduled inside the drain window must fire at its cycle
    // and drop the traffic then in flight on the link — the long Table-I
    // global links keep packets on the wire for many cycles in which every
    // router is idle. The digest is the end state the retired seed kernel
    // reached on the same plan.
    let (gw, port) = link_between(0, 4);
    let cfg = base_builder()
        .routing(RoutingKind::Minimal)
        .pattern(PatternKind::Uniform)
        .network(NetworkConfig::paper_table1())
        .measurement_cycles(300)
        .faults(
            FaultPlan::new()
                .link_down(320, gw, port)
                .link_up(800, gw, port),
        )
        .build()
        .unwrap();
    let mut net = Network::new(cfg);
    net.run_cycles(300);
    let drained = net.drain(50_000);
    let end = (
        drained,
        net.cycle(),
        net.metrics().delivered_packets_total(),
        net.metrics().dropped_on_fault_packets(),
        net.metrics().dropped_on_fault_phits(),
    );
    assert!(
        end.3 > 0,
        "the fault fired during the drain window and dropped in-flight traffic"
    );
    assert!(end.0, "the restored network drains");
    assert_frozen("drain across a fault window", &end, 0x61CE_BE1E_DF0D_072F);
}

#[test]
fn faulted_run_matches_the_frozen_digest() {
    // the acceptance bar: a faulted scenario produces the trajectory frozen
    // from the retired seed kernel
    let (gw, port) = link_between(0, 1);
    let cfg = base_builder()
        .routing(RoutingKind::Base)
        .pattern(PatternKind::Adversarial { offset: 1 })
        .faults(
            FaultPlan::new()
                .link_down(150, gw, port)
                .router_drain(200, RouterId(5))
                .link_up(400, gw, port)
                .router_restore(450, RouterId(5)),
        )
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
        net.metrics().dropped_on_fault_phits(),
        net.cycle(),
        net.in_flight(),
    );
    assert!(reference.2 > 0, "the scenario must exercise drops");
    assert_frozen("faulted run", &reference, 0x2F37_2633_653D_5917);
}

#[test]
fn medium_scale_link_failure_conserves_phits_and_credits_exactly() {
    // the 1,056-node acceptance criterion: fail a link mid-run at medium
    // scale, restore it, and require (a) the exact packet/phit equalities
    // while degraded and (b) full credit conservation after recovery
    let topo = Dragonfly::new(DragonflyParams::medium());
    let (gw, port) = FaultPlan::global_link_between(&topo, GroupId(0), GroupId(1));
    let cfg = SimulationConfig::builder()
        .topology(DragonflyParams::medium())
        .network(NetworkConfig::fast_test())
        .routing(RoutingKind::Base)
        .pattern(PatternKind::Adversarial { offset: 1 })
        .offered_load(0.25)
        .warmup_cycles(0)
        .measurement_cycles(300)
        .seed(17)
        .faults(
            FaultPlan::new()
                .link_down(100, gw, port)
                .link_up(220, gw, port),
        )
        .build()
        .unwrap();
    let mut net = Network::new(cfg);
    net.metrics_mut().start_measurement(0);
    // step through the degraded window checking the equality as we go
    for _ in 0..30 {
        net.run_cycles(10);
        check_fault_conservation(&net);
    }
    assert!(
        net.metrics().dropped_on_fault_packets() > 0,
        "an adversarial-loaded link must drop in-flight traffic when it fails"
    );
    assert!(net.drain(100_000), "the restored medium network drains");
    check_fault_conservation(&net);
    check_full_conservation(&net);
}

#[test]
fn degraded_connectivity_queries_track_the_fault_plan() {
    let (gw, port) = link_between(0, 4);
    let cfg = base_builder()
        .routing(RoutingKind::Base)
        .pattern(PatternKind::Uniform)
        .faults(
            FaultPlan::new()
                .link_down(50, gw, port)
                .link_up(150, gw, port),
        )
        .build()
        .unwrap();
    let mut net = Network::new(cfg);
    let ends = ends_of(&net, gw, port);
    let up = |net: &Network| {
        ends.iter()
            .map(|&(r, p)| net.router(r).link_is_up(p))
            .collect::<Vec<_>>()
    };
    assert_eq!(up(&net), [true, true]);
    net.run_cycles(60);
    assert_eq!(up(&net), [false, false], "both ends fail together");
    assert_eq!(down_ends(&net), ends, "and nothing else does");
    net.run_cycles(100);
    assert_eq!(up(&net), [true, true]);
    assert!(down_ends(&net).is_empty());
}
