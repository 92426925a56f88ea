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

/// Run a short simulation under `kernel` and drain it, returning the
/// network for inspection.
#[allow(clippy::too_many_arguments)]
fn run_and_drain_kernel(
    params: DragonflyParams,
    routing: RoutingKind,
    pattern: PatternKind,
    load: f64,
    cycles: u64,
    seed: u64,
    kernel: KernelMode,
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
        .kernel(kernel)
        .build()
        .expect("valid configuration");
    let mut net = Network::new(config);
    net.metrics_mut().start_measurement(0);
    net.run_cycles(cycles);
    let drained = net.drain(100_000);
    assert!(drained, "network must drain after traffic stops");
    net
}

/// Run a short simulation (environment-default kernel) and drain it.
fn run_and_drain(
    params: DragonflyParams,
    routing: RoutingKind,
    pattern: PatternKind,
    load: f64,
    cycles: u64,
    seed: u64,
) -> Network {
    run_and_drain_kernel(
        params,
        routing,
        pattern,
        load,
        cycles,
        seed,
        KernelMode::from_env(),
    )
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
        let generated = net.metrics().generated_phits_total / 8;
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
            let generated = net.metrics().generated_phits_total / 8;
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
fn parallel_kernel_conserves_phits_credits_and_packets_at_mid_size_scale() {
    // The conservation laws under the sharded kernel on the 1,056-node
    // medium topology: no packet lost or duplicated, every phit accounted,
    // every credit returned, every counter drained — with the work actually
    // split across a 3-shard pool (groups and routers do not divide evenly).
    for routing in [RoutingKind::Base, RoutingKind::Ectn] {
        let net = run_and_drain_kernel(
            DragonflyParams::medium(),
            routing,
            PatternKind::Adversarial { offset: 1 },
            0.25,
            250,
            17,
            KernelMode::Parallel { workers: 3 },
        );
        check_conservation(&net);
        let generated = net.metrics().generated_phits_total / 8;
        assert_eq!(
            net.metrics().delivered_packets_total(),
            generated,
            "{routing:?}: packets lost or duplicated under the parallel kernel"
        );
        assert!(generated > 500, "the mid-size run must carry real traffic");
    }
}

#[test]
fn parallel_kernel_invariants_hold_for_every_routing_mechanism() {
    // Every mechanism (including PB's every-cycle dissemination and ECtN's
    // periodic broadcast) through the sharded control-plane phases.
    for routing in RoutingKind::ALL {
        let net = run_and_drain_kernel(
            DragonflyParams::small(),
            routing,
            PatternKind::Adversarial { offset: 1 },
            0.3,
            600,
            23,
            KernelMode::Parallel { workers: 4 },
        );
        check_conservation(&net);
        let generated = net.metrics().generated_phits_total / 8;
        assert_eq!(
            net.metrics().delivered_packets_total(),
            generated,
            "{routing:?}: conservation violated under the parallel kernel"
        );
    }
}

#[test]
fn latency_histograms_are_identical_across_one_to_eight_workers() {
    // Stress the worker-count-independence contract on the *full* latency
    // distribution, not just summary statistics: the same congested
    // configuration on 1..=8 workers must produce bin-for-bin identical
    // histograms (and identical totals) to the sequential optimized kernel.
    let run = |kernel: KernelMode| {
        let config = SimulationConfig::builder()
            .topology(DragonflyParams::small())
            .network(NetworkConfig::fast_test())
            .routing(RoutingKind::Base)
            .pattern(PatternKind::Adversarial { offset: 1 })
            .offered_load(0.35)
            .warmup_cycles(100)
            .measurement_cycles(500)
            .seed(29)
            .kernel(kernel)
            .build()
            .expect("valid configuration");
        let mut net = Network::new(config);
        net.run_cycles(100);
        let start = net.cycle();
        net.metrics_mut().start_measurement(start);
        net.run_cycles(500);
        assert!(net.drain(100_000));
        (
            net.metrics().latency_histogram().bins().to_vec(),
            net.metrics().latency_histogram().count(),
            net.metrics().delivered_packets_total(),
        )
    };
    let reference = run(KernelMode::Optimized);
    assert!(reference.1 > 0, "the reference run must record latencies");
    for workers in 1..=8usize {
        let parallel = run(KernelMode::Parallel { workers });
        assert_eq!(
            parallel.1, reference.1,
            "parallel({workers}): histogram totals diverged"
        );
        assert_eq!(
            parallel.2, reference.2,
            "parallel({workers}): delivered totals diverged"
        );
        for (bin, (p, r)) in parallel.0.iter().zip(reference.0.iter()).enumerate() {
            assert_eq!(
                p, r,
                "parallel({workers}): histogram bin {bin} diverged from the optimized kernel"
            );
        }
        assert_eq!(parallel.0.len(), reference.0.len());
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
