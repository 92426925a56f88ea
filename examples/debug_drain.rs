//! Diagnostic harness: run every routing mechanism under adversarial traffic
//! and verify the network drains, printing where packets are stuck if not.
//! Useful when developing new routing policies.

use contention_dragonfly::prelude::*;

fn main() {
    for routing in RoutingKind::ALL {
        let config = SimulationConfig::builder()
            .topology(DragonflyParams::small())
            .network(NetworkConfig::fast_test())
            .routing(routing)
            .pattern(PatternKind::Adversarial { offset: 1 })
            .offered_load(0.3)
            .warmup_cycles(0)
            .measurement_cycles(1_500)
            .seed(11)
            .build()
            .unwrap();
        let mut net = Network::new(config);
        net.metrics_mut().start_measurement(0);
        net.run_cycles(1_500);
        let drained = net.drain(100_000);
        println!(
            "{:>6}: drained={} in_flight={} delivered={} generated={} contention={}",
            routing.label(),
            drained,
            net.in_flight(),
            net.metrics().delivered_packets_total(),
            net.generated_phits_total() / 8,
            net.total_contention(),
        );
        if !drained {
            // print where packets are stuck
            let topo = *net.topology();
            let mut stuck = 0;
            for r in topo.routers() {
                let router = net.router(r);
                for port in Port::all(&topo.layout()) {
                    let input = router.input(port);
                    for vc in 0..input.num_vcs() {
                        if !input.vc(vc).is_empty() {
                            let head = router.head(port, VcId(vc as u8)).unwrap();
                            stuck += 1;
                            if stuck <= 300 {
                                println!(
                                    "  stuck at {r} {port}({:?}) vc{vc}: {} pkts, head dst={} hops l{}g{} state={:?}",
                                    input.class(),
                                    input.vc(vc).len(),
                                    head.dst,
                                    head.routing.local_hops,
                                    head.routing.global_hops,
                                    (head.routing.nonminimal_global, head.routing.local_detour, head.routing.intermediate_router),
                                );
                            }
                        }
                    }
                    let output = router.output(port);
                    if output.staged_packets() > 0 {
                        println!(
                            "  output {r} {port}: {} staged, link_free_at={}",
                            output.staged_packets(),
                            output.link_free_at()
                        );
                    }
                }
            }
            println!("  total occupied input VCs: {stuck}");
            // credit state of the first few routers
            for r in topo.routers() {
                let router = net.router(r);
                for port in Port::all(&topo.layout()) {
                    let out = router.output(port);
                    let creds: Vec<u32> = (0..out.num_downstream_vcs())
                        .map(|v| out.credits(VcId(v as u8)))
                        .collect();
                    if out.staged_packets() > 0
                        || creds
                            .iter()
                            .zip(0..)
                            .any(|(c, v)| *c != out.credit_capacity(VcId(v as u8)))
                    {
                        println!(
                            "  credits {r} {port} ({:?}): staged={} buf={}/{} credits={:?} link_free_at={}",
                            port.class(&topo.layout()),
                            out.staged_packets(),
                            out.buffer_occupancy_phits(),
                            out.buffer_capacity_phits(),
                            creds,
                            out.link_free_at(),
                        );
                    }
                }
            }
            for node in topo.nodes() {
                let n = net.node(node);
                if n.queue_len() > 0 && stuck <= 40 {
                    println!("  node {node}: source queue {}", n.queue_len());
                }
            }
        }
    }
}
