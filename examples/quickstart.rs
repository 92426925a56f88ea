//! Quickstart: simulate a small Dragonfly under adversarial traffic and
//! compare minimal routing with the paper's contention-based Base mechanism.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use contention_dragonfly::prelude::*;

fn main() {
    // A 9-group, 72-node Dragonfly (p=2, a=4, h=2) keeps the example fast;
    // swap in `DragonflyParams::paper_table1()` for the 16,512-node network
    // of the paper (and expect a long run).
    let topology = DragonflyParams::small();
    println!(
        "Dragonfly p={} a={} h={}: {} groups, {} routers, {} nodes, radix {}",
        topology.p,
        topology.a,
        topology.h,
        topology.num_groups(),
        topology.num_routers(),
        topology.num_nodes(),
        topology.radix()
    );

    // ADV+1: every node sends to the next group, saturating one global link
    // per group under minimal routing.
    let pattern = PatternKind::Adversarial { offset: 1 };
    let load = 0.30; // phits per node per cycle

    let mut table = Table::new(
        format!("{} at load {:.2}", pattern.label(), load),
        &[
            "routing",
            "latency (cycles)",
            "accepted load",
            "% misrouted",
        ],
    );

    for routing in [
        RoutingKind::Minimal,
        RoutingKind::Valiant,
        RoutingKind::Base,
    ] {
        let config = SimulationConfig::builder()
            .topology(topology)
            .routing(routing)
            .pattern(pattern)
            .offered_load(load)
            .warmup_cycles(3_000)
            .measurement_cycles(6_000)
            .seed(1)
            .build()
            .expect("valid configuration");
        let report = run_steady_state(&config);
        table.push_row(vec![
            routing.label().to_string(),
            format!("{:.1}", report.avg_packet_latency),
            format!("{:.3}", report.accepted_load),
            format!("{:.0}%", report.global_misroute_fraction * 100.0),
        ]);
    }

    println!("\n{}", table.to_text());
    println!(
        "Expected shape (paper, Figure 5b): MIN saturates at ~1/(a*p) = {:.3} phits/node/cycle,\n\
         VAL and Base sustain close to the 0.5 Valiant limit, and Base keeps latency competitive\n\
         because contention counters divert traffic before queues fill.",
        topology.adversarial_min_throughput_limit()
    );
}
