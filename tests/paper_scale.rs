//! Smoke coverage for the paper's full Table I instance.
//!
//! `DragonflyParams::paper_table1()` and `Scale::paper()` describe the
//! 16,512-node network every headline result of the paper is measured on,
//! but until this suite nothing ever *built* it — a regression (an
//! overflowing radix computation, a mis-sized buffer, a wiring error that
//! only appears at 129 groups) would have gone unnoticed until someone
//! started a multi-hour run. The construction checks below are cheap and
//! always on; the short simulation smokes are `--ignored` (tens of seconds
//! of wall clock) and run with
//!
//! ```text
//! cargo test --release --test paper_scale -- --ignored
//! ```

use contention_dragonfly::prelude::*;

/// Always-on: the full topology must construct with consistent wiring-level
/// invariants, and the named experiment scale must agree with it.
#[test]
fn paper_table1_topology_constructs_consistently() {
    let params = DragonflyParams::paper_table1();
    assert_eq!(params.num_nodes(), 16_512);
    assert_eq!(params.num_routers(), 2_064);
    assert_eq!(params.num_groups(), 129);
    assert_eq!(params.radix(), 31);
    assert!(params.is_fully_populated());

    let topo = Dragonfly::new(params);
    assert_eq!(topo.num_routers(), 2_064);
    // spot-check global wiring symmetry at the far corner of the id space
    let last = RouterId(topo.num_routers() - 1);
    for k in 0..params.h {
        let (peer, pport) = topo.global_neighbor(last, k).unwrap();
        let (back, _) = topo
            .global_neighbor(peer, pport.class_offset(topo.params()))
            .unwrap();
        assert_eq!(back, last, "global link {k} of {last} is not symmetric");
    }

    // a full-radix router constructs with the Table I buffer configuration
    let router = Router::new(RouterId(0), topo, NetworkConfig::paper_table1());
    assert_eq!(router.num_ports(), 31);

    let scale = df_bench::Scale::paper();
    assert_eq!(scale.topology, params);
    assert_eq!(scale.seeds, 10);
    assert_eq!(scale.measure, 15_000);
}

/// Always-on: a router's static footprint is its state, not its
/// allocations — struct plus every heap buffer's capacity, in at most 16
/// buffers. A fresh Table I router (100 input VCs, 76 credit counters, 31
/// ports) stays within 7.5 KB; a fresh medium router (radix 15) within
/// 3.5 KB.
#[test]
fn a_fresh_router_is_its_state_not_its_allocations() {
    for (params, bound) in [
        (DragonflyParams::paper_table1(), 7_680),
        (DragonflyParams::medium(), 3_584),
    ] {
        let topo = Dragonfly::new(params);
        let router = Router::new(RouterId(0), topo, NetworkConfig::paper_table1());
        let footprint = router.footprint();
        assert!(
            footprint.total() <= bound && footprint.buffers <= 16,
            "radix {}: {footprint:?} ({} bytes, bound {bound})",
            router.num_ports(),
            footprint.total()
        );
    }
}

fn paper_config(routing: RoutingKind, load: f64, cycles: u64) -> SimulationConfig {
    SimulationConfig::builder()
        .topology(DragonflyParams::paper_table1())
        .network(NetworkConfig::paper_table1())
        .routing(routing)
        .pattern(PatternKind::Uniform)
        .offered_load(load)
        .warmup_cycles(0)
        .measurement_cycles(cycles)
        .seed(1)
        .build()
        .expect("the paper-scale configuration must validate")
}

/// `--ignored`: the 16,512-node network runs a short window and actually
/// delivers traffic.
#[test]
#[ignore = "paper-scale smoke (tens of seconds); run with --ignored"]
fn paper_scale_runs_and_delivers() {
    let mut net = Network::new(paper_config(RoutingKind::Base, 0.1, 300));
    net.metrics_mut().start_measurement(0);
    net.run_cycles(300);
    assert_eq!(net.topology().num_routers(), 2_064);
    assert!(
        net.metrics().delivered_packets_total() > 10_000,
        "a 16,512-node network at 10% load must deliver plenty in 300 cycles, got {}",
        net.metrics().delivered_packets_total()
    );
    assert!(!net.stalled(200), "no deadlock at paper scale");
    let summary = net.metrics().window_summary();
    assert!(summary.avg_hops <= 6.0);
    assert!(summary.avg_packet_latency > 0.0);
}

/// `--ignored`: a router's packet store grows to its peak buffered packets,
/// not to the VCs it has touched — at UN 0.01 over 2,000 cycles every
/// router of the Table I network stays within a few slots on average. Also
/// prints the bytes a router holds by then (`Footprint::total`).
#[test]
#[ignore = "paper-scale footprint (tens of seconds); run with --ignored"]
fn paper_scale_packet_slots_follow_live_packets() {
    let mut net = Network::new(paper_config(RoutingKind::Base, 0.01, 2_000));
    net.run_cycles(2_000);
    let topo = *net.topology();
    let slots: usize = topo.routers().map(|r| net.router(r).packet_slots()).sum();
    let routers = topo.num_routers() as usize;
    assert!(net.metrics().delivered_packets_total() > 0);
    assert!(
        slots <= 8 * routers,
        "{slots} packet slots over {routers} routers"
    );
    let bytes: usize = topo
        .routers()
        .map(|r| net.router(r).footprint().total())
        .sum();
    println!(
        "{:.2} packet slots and {:.0} bytes per router",
        slots as f64 / routers as f64,
        bytes as f64 / routers as f64
    );
}
