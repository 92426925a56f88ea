//! Throughput during and after a link loss: the fault-injection recovery
//! curve.
//!
//! Fails the busiest ADV+1 global link (group 0 → group 1) at the end of
//! warm-up, restores it a third of the way into the measurement window, and
//! records the per-bin delivered throughput of every routing mechanism
//! around the outage — the fault-injection analogue of the paper's
//! transient figures (response to a *topology* change instead of a traffic
//! change).
//!
//! Usage:
//! ```text
//! cargo run --release -p df-bench --bin fault_recovery -- [small|medium|paper] [csv]
//! ```
//!
//! Prints a during/after summary per mechanism on stderr, then a table
//! (CSV under `csv`, aligned text otherwise) with one row per time bin
//! (cycles relative to the fault) and one column per routing mechanism
//! (delivered phits per node·cycle in the bin). Deterministic: rerun and
//! diff.

use df_bench::Scale;
use df_engine::Table;
use df_routing::RoutingKind;
use df_sim::{FaultPlan, Network, SimulationConfig};
use df_topology::{Dragonfly, GroupId};
use df_traffic::PatternKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args_dragonfly_only("fault_recovery", &["csv"], &args);
    let csv = args.iter().any(|a| a == "csv");

    let warmup = scale.warmup;
    let measure = scale.measure;
    let down_at = warmup;
    let up_at = warmup + measure / 3;
    let load = 0.15;

    // NOTE: deliberately pinned to the concrete Dragonfly family (the
    // recovery curve is a paper artifact); new code should take
    // `scale.topology_params()`, which is itself a `Topology`.
    let topo = Dragonfly::new(scale.topology);
    let (gw, gport) = FaultPlan::global_link_between(&topo, GroupId(0), GroupId(1));
    let routings = [
        RoutingKind::Minimal,
        RoutingKind::Olm,
        RoutingKind::Base,
        RoutingKind::Ectn,
    ];

    eprintln!(
        "fault recovery: {} topology, ADV+1 at load {load}, link g0->g1 down @{down_at} up @{up_at}",
        scale.name
    );

    let num_nodes = scale.topology.num_nodes() as f64;
    let packet_phits = scale.network.packet_size_phits as u64;
    let mut bin_width = 0u64;
    let mut series: Vec<(RoutingKind, Vec<(i64, u64)>)> = Vec::new();
    for routing in routings {
        let cfg = SimulationConfig::builder()
            .topology(scale.topology)
            .network(scale.network)
            .routing(routing)
            .pattern(PatternKind::Adversarial { offset: 1 })
            .offered_load(load)
            .warmup_cycles(warmup)
            .measurement_cycles(measure)
            .seed(1)
            .faults(
                FaultPlan::new()
                    .link_down(down_at, gw, gport)
                    .link_up(up_at, gw, gport),
            )
            .build()
            .expect("valid configuration");
        let mut net = Network::new(cfg);
        net.run_cycles(warmup + measure);
        // the transient series origin is the end of warm-up for a constant
        // schedule — exactly the fault cycle
        let counts = net.metrics().delivery_count_series();
        bin_width = net.metrics().series_bin_width();
        let accepted = |from: i64, to: i64| -> f64 {
            if to <= from {
                return f64::NAN;
            }
            let phits: u64 = counts
                .iter()
                .filter(|(t, _)| *t >= from && *t < to)
                .map(|(_, n)| n * packet_phits)
                .sum();
            phits as f64 / (num_nodes * (to - from) as f64)
        };
        let outage = (up_at - down_at) as i64;
        // post-repair settling margin, clamped so short smoke scales keep a
        // non-empty window
        let settle = (measure as i64 / 4).clamp(1, 200);
        let after_from = (outage + settle).min(measure as i64 - 1);
        let before = accepted(-(warmup as i64) / 2, 0);
        let during = accepted(0, outage);
        let after = accepted(after_from, measure as i64);
        eprintln!(
            "  {:8}: accepted before {before:.4}  during outage {during:.4}  after repair {after:.4}  (dropped {} packets)",
            routing.label(),
            net.metrics().dropped_on_fault_packets(),
        );
        series.push((routing, counts));
    }

    // merged table: one row per bin present in any series
    let mut times: Vec<i64> = series
        .iter()
        .flat_map(|(_, s)| s.iter().map(|(t, _)| *t))
        .collect();
    times.sort_unstable();
    times.dedup();
    let header: Vec<&str> = std::iter::once("cycles_since_fault")
        .chain(series.iter().map(|(r, _)| r.label()))
        .collect();
    let mut table = Table::new(
        "fault recovery: accepted load per bin, phits/(node·cycle)",
        &header,
    );
    for t in times {
        let mut row = vec![t.to_string()];
        for (_, s) in &series {
            let phits = s
                .iter()
                .find(|(st, _)| *st == t)
                .map(|(_, n)| n * packet_phits)
                .unwrap_or(0);
            // per-bin accepted load in phits/(node·cycle)
            row.push(format!(
                "{:.5}",
                phits as f64 / (num_nodes * bin_width.max(1) as f64)
            ));
        }
        table.push_row(row);
    }
    if csv {
        print!("{}", table.to_csv());
    } else {
        println!("{}", table.to_text());
    }
}
