//! Building and inspecting custom Dragonfly topologies, and running the
//! simulator programmatically cycle by cycle.
//!
//! Run with:
//! ```text
//! cargo run --release --example custom_topology
//! ```

use contention_dragonfly::prelude::*;
use df_topology::path::{hop_census, minimal_path, valiant_path};

fn main() {
    // --- 1. a custom, partially-populated Dragonfly ---------------------
    // Constructing the concrete `Dragonfly` directly is fine for
    // family-specific inspection like this; topology-agnostic code should
    // instead take a `TopologyParams`, which implements the `Topology`
    // trait for either family (see `MegaflyParams` for the second).
    let params = DragonflyParams::new(3, 6, 3, 13).expect("valid parameters");
    let topo = Dragonfly::new(params);
    println!(
        "custom Dragonfly: p={} a={} h={} groups={} (of max {}), {} nodes, radix {}",
        params.p,
        params.a,
        params.h,
        params.groups,
        params.a * params.h + 1,
        topo.num_nodes(),
        params.radix()
    );

    // path-length census over a sample of router pairs
    let mut minimal_hops = RunningStats::new();
    let mut valiant_hops = RunningStats::new();
    let routers: Vec<RouterId> = topo.routers().collect();
    for (i, &src) in routers.iter().enumerate() {
        for &dst in routers.iter().skip(i + 1).step_by(7) {
            let min = minimal_path(&topo, src, dst);
            let (l, g) = hop_census(&min);
            minimal_hops.push((l + g) as f64);
            let inter = routers[(i * 31 + 7) % routers.len()];
            let val = valiant_path(&topo, src, inter, dst);
            valiant_hops.push(val.len() as f64);
        }
    }
    println!(
        "minimal path hops: mean {:.2}, max {:.0}; Valiant path hops: mean {:.2}, max {:.0}\n",
        minimal_hops.mean(),
        minimal_hops.max(),
        valiant_hops.mean(),
        valiant_hops.max()
    );

    // --- 2. drive the simulator manually --------------------------------
    let config = SimulationConfig::builder()
        .topology(params)
        .routing(RoutingKind::Base)
        .pattern(PatternKind::Uniform)
        .offered_load(0.25)
        .warmup_cycles(0)
        .measurement_cycles(4_000)
        .seed(7)
        .build()
        .expect("valid configuration");
    let mut net = Network::new(config);
    net.metrics_mut().start_measurement(0);

    // step cycle by cycle and sample the total contention every 500 cycles —
    // the kind of instrumentation a routing researcher would add
    for cycle in 0..4_000u64 {
        net.step();
        if cycle % 500 == 499 {
            println!(
                "cycle {:>5}: delivered {:>6} packets, {:>5} in flight, total contention {}",
                cycle + 1,
                net.metrics().delivered_packets_total(),
                net.in_flight(),
                net.total_contention()
            );
        }
    }
    let summary = net.metrics().window_summary();
    println!(
        "\nfinal: latency {:.1} cycles (p99 {:.0}), accepted load {:.3} phits/node/cycle, \
         {:.1}% globally misrouted",
        summary.avg_packet_latency,
        summary.p99_latency,
        net.metrics().accepted_load(topo.num_nodes(), 4_000),
        summary.global_misroute_fraction * 100.0
    );

    // --- 3. drain and verify the invariants ------------------------------
    let drained = net.drain(50_000);
    println!(
        "drained: {drained}, in flight {}, total contention {}",
        net.in_flight(),
        net.total_contention()
    );
    assert!(drained, "the network must drain once traffic stops");
    assert_eq!(net.total_contention(), 0);
}
