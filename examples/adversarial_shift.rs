//! Transient adaptation: how fast does each misrouting trigger react when the
//! traffic pattern suddenly turns adversarial?
//!
//! Reproduces the scenario of the paper's Figure 7 at reduced scale: the
//! network warms up with uniform traffic at 20 % load and switches to ADV+1
//! at cycle 0. Credit-based triggers (OLM, PB) need the minimal-path queues
//! to fill before they react; contention counters (Base, ECtN) see the demand
//! at the queue heads immediately.
//!
//! Run with:
//! ```text
//! cargo run --release --example adversarial_shift
//! ```

use contention_dragonfly::prelude::*;

fn main() {
    let topology = DragonflyParams::small();
    let switch_at = 4_000u64;
    let follow = 2_000u64;
    let load = 0.20;

    let mut table = Table::new(
        "UN -> ADV+1 transient at 20% load (relative cycles)",
        &[
            "routing",
            "latency before",
            "latency 0..200",
            "latency 200..1000",
            "% misrouted 200..1000",
            "cycles to 50% misrouted",
        ],
    );

    for routing in [
        RoutingKind::PiggyBacking,
        RoutingKind::Olm,
        RoutingKind::Base,
        RoutingKind::Hybrid,
        RoutingKind::Ectn,
    ] {
        let schedule = TrafficSchedule::switch_at(
            PatternKind::Uniform,
            PatternKind::Adversarial { offset: 1 },
            switch_at,
        );
        let config = SimulationConfig::builder()
            .topology(topology)
            .routing(routing)
            .schedule(schedule)
            .offered_load(load)
            .warmup_cycles(switch_at)
            .measurement_cycles(follow)
            .seed(1)
            .build()
            .expect("valid configuration");
        let report = run_transient(&config);
        let reach = report
            .misroute_reaches(50.0)
            .map(|c| c.to_string())
            .unwrap_or_else(|| "never".to_string());
        table.push_row(vec![
            routing.label().to_string(),
            format!("{:.0}", report.mean_latency_between(-1_000, 0)),
            format!("{:.0}", report.mean_latency_between(0, 200)),
            format!("{:.0}", report.mean_latency_between(200, 1_000)),
            format!("{:.0}%", report.mean_misroute_between(200, 1_000)),
            reach,
        ]);
    }

    println!("{}", table.to_text());
    println!(
        "Expected shape (paper, Figure 7): Base/Hybrid commit to misrouting within a few tens of\n\
         cycles after the change, ECtN follows Base until the next partial-array broadcast, while\n\
         OLM and PB need hundreds of cycles for their buffers to fill and their latency spike is\n\
         correspondingly longer."
    );
}
