//! Cross-crate invariant tests: conservation laws that must hold for *any*
//! topology, routing mechanism, traffic pattern and seed.
//!
//! The property-style tests sweep a deterministic grid of small
//! configurations (routing × pattern × load × seed, and exhaustive `(p, a,
//! h)` topology ranges) and check, after the network drains:
//!
//! * no packet is lost or duplicated (everything generated is delivered),
//! * every contention counter and every ECtN partial counter returns to zero,
//! * every credit counter returns to the downstream buffer capacity,
//! * delivered packets respect the hop bounds of the misrouting policy.

use contention_dragonfly::prelude::*;

/// Run a short simulation and drain it, returning the network for
/// inspection.
fn run_and_drain(
    params: DragonflyParams,
    routing: RoutingKind,
    pattern: PatternKind,
    load: f64,
    cycles: u64,
    seed: u64,
) -> Network {
    let config = SimulationConfig::builder()
        .topology(params)
        .network(NetworkConfig::fast_test())
        .routing(routing)
        .pattern(pattern)
        .offered_load(load)
        .warmup_cycles(0)
        .measurement_cycles(cycles)
        .seed(seed)
        .build()
        .expect("valid configuration");
    let mut net = Network::new(config);
    net.metrics_mut().start_measurement(0);
    net.run_cycles(cycles);
    let drained = net.drain(100_000);
    assert!(drained, "network must drain after traffic stops");
    net
}

fn check_conservation(net: &Network) {
    // nothing in flight, all counters at zero
    assert_eq!(net.in_flight(), 0);
    assert_eq!(
        net.total_contention(),
        0,
        "contention counters must drain to zero"
    );
    let topo = net.topology();
    let layout = topo.layout();
    for router_id in topo.routers() {
        let router = net.router(router_id);
        // ECtN partial counters drained
        assert!(
            router.ectn().partial_all_zero(),
            "router {router_id} has non-zero ECtN partial counters after drain"
        );
        // every credit returned
        for port in Port::all(&layout) {
            let output = router.output(port);
            for vc in 0..output.num_downstream_vcs() {
                assert_eq!(
                    output.credits(VcId(vc as u8)),
                    output.credit_capacity(VcId(vc as u8)),
                    "router {router_id} port {port} vc {vc}: credits not fully returned"
                );
            }
            assert_eq!(
                output.buffer_occupancy_phits(),
                0,
                "router {router_id} port {port}: output buffer not empty"
            );
        }
        // every input VC empty
        for port in Port::all(&layout) {
            let input = router.input(port);
            for vc in 0..input.num_vcs() {
                assert!(
                    input.vc(vc).is_empty(),
                    "router {router_id} {port} vc{vc} not empty"
                );
            }
        }
    }
}

#[test]
fn conservation_after_drain_for_every_routing() {
    for routing in RoutingKind::ALL {
        let net = run_and_drain(
            DragonflyParams::small(),
            routing,
            PatternKind::Adversarial { offset: 1 },
            0.3,
            1_500,
            11,
        );
        check_conservation(&net);
        let generated = net.generated_phits_total() / 8;
        assert_eq!(
            net.metrics().delivered_packets_total(),
            generated,
            "{routing:?}: every generated packet must eventually be delivered"
        );
    }
}

#[test]
fn hop_counts_stay_within_the_policy_bounds() {
    // the worst allowed path is l g l l g l = 6 hops
    for routing in [RoutingKind::Valiant, RoutingKind::Base, RoutingKind::Ectn] {
        let config = SimulationConfig::builder()
            .topology(DragonflyParams::small())
            .network(NetworkConfig::fast_test())
            .routing(routing)
            .pattern(PatternKind::Adversarial { offset: 1 })
            .offered_load(0.3)
            .warmup_cycles(500)
            .measurement_cycles(1_500)
            .seed(13)
            .build()
            .unwrap();
        let report = run_steady_state(&config);
        assert!(report.delivered_packets > 50);
        assert!(
            report.avg_hops <= 6.0,
            "{routing:?}: average hops {:.2} exceeds the 6-hop worst case",
            report.avg_hops
        );
    }
}

#[test]
fn sampled_small_simulations_conserve_packets() {
    // Deterministic grid standing in for the former proptest sampling:
    // every (routing mechanism × pattern family) pair, with the load and
    // seed varied across the grid.
    let loads = [0.08, 0.2, 0.35, 0.45];
    let patterns = [
        PatternKind::Uniform,
        PatternKind::Adversarial { offset: 1 },
        PatternKind::Mixed {
            offset: 1,
            uniform_fraction: 0.5,
        },
    ];
    let mut case = 0usize;
    for routing in RoutingKind::ALL {
        for pattern in patterns {
            let load = loads[case % loads.len()];
            let seed = 100 + 37 * case as u64;
            case += 1;
            let net = run_and_drain(DragonflyParams::small(), routing, pattern, load, 600, seed);
            check_conservation(&net);
            let generated = net.generated_phits_total() / 8;
            assert_eq!(
                net.metrics().delivered_packets_total(),
                generated,
                "{routing:?} {pattern:?} load {load} seed {seed}: packets lost or duplicated"
            );
        }
    }
}

#[test]
fn all_small_topologies_have_consistent_wiring() {
    // Exhaustive over the ranges the proptest version sampled from.
    for p in 1u32..4 {
        for a in 2u32..7 {
            for h in 1u32..4 {
                let params = DragonflyParams::canonical(p, a, h).unwrap();
                let topo = Dragonfly::new(params);
                // global wiring symmetry for every router
                for r in topo.routers() {
                    for k in 0..h {
                        let (peer, pport) = topo.global_neighbor(r, k).unwrap();
                        let (back, bport) = topo
                            .global_neighbor(peer, pport.class_offset(topo.params()))
                            .unwrap();
                        assert_eq!(back, r);
                        assert_eq!(bport.class_offset(topo.params()), k);
                    }
                }
                // every pair of groups connected by exactly one link
                for g1 in topo.groups() {
                    for g2 in topo.groups() {
                        if g1 != g2 {
                            let (gw, port) = topo.gateway_to(g1, g2);
                            assert_eq!(topo.router_group(gw), g1);
                            let (peer, _) = topo
                                .global_neighbor(gw, port.class_offset(topo.params()))
                                .unwrap();
                            assert_eq!(topo.router_group(peer), g2);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn conservation_holds_at_mid_size_scale() {
    // The conservation laws on the 1,056-node medium topology: no packet
    // lost or duplicated, every phit accounted, every credit returned,
    // every counter drained.
    for routing in [RoutingKind::Base, RoutingKind::Ectn] {
        let net = run_and_drain(
            DragonflyParams::medium(),
            routing,
            PatternKind::Adversarial { offset: 1 },
            0.25,
            250,
            17,
        );
        check_conservation(&net);
        let generated = net.generated_phits_total() / 8;
        assert_eq!(
            net.metrics().delivered_packets_total(),
            generated,
            "{routing:?}: packets lost or duplicated at mid-size scale"
        );
        assert!(generated > 500, "the mid-size run must carry real traffic");
    }
}

#[test]
fn minimal_paths_are_valid_and_short_on_all_small_topologies() {
    for p in 1u32..3 {
        for a in 2u32..6 {
            for h in 1u32..4 {
                let params = DragonflyParams::canonical(p, a, h).unwrap();
                let topo = Dragonfly::new(params);
                for s in 0..topo.num_routers() {
                    for d in 0..topo.num_routers() {
                        let src = RouterId(s);
                        let dst = RouterId(d);
                        let path = df_topology::path::minimal_path(&topo, src, dst);
                        assert!(path.len() <= 3, "p={p} a={a} h={h} {src}->{dst}");
                        assert!(
                            df_topology::path::validate_path(&topo, src, dst, &path),
                            "p={p} a={a} h={h} {src}->{dst}: invalid minimal path"
                        );
                    }
                }
            }
        }
    }
}
