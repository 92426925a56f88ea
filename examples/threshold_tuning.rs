//! Misrouting-threshold sensitivity of the Base mechanism (paper §VI-A and
//! Figure 10).
//!
//! Low thresholds misroute too eagerly and hurt uniform traffic; high
//! thresholds react too late (or never) under adversarial traffic. The paper
//! picks the lowest threshold that does not degrade uniform traffic:
//! th = 2 × (mean VCs per input port).
//!
//! Run with:
//! ```text
//! cargo run --release --example threshold_tuning
//! ```

use contention_dragonfly::prelude::*;

fn main() {
    let topology = DragonflyParams::small();
    let vcs = NetworkConfig::paper_table1().vcs;

    println!(
        "Analytical guidance (paper §VI-A): mean VCs/port = {:.2}, suggested lower bound = {}, \
         adversarial upper bound = {}\n",
        df_routing::analysis::expected_saturation_counter(&topology, &vcs),
        df_routing::analysis::threshold_lower_bound(&topology, &vcs),
        df_routing::analysis::threshold_upper_bound(&topology, &vcs),
    );

    let thresholds = [2u32, 3, 4, 5, 6];
    let mut table = Table::new(
        "Base threshold sensitivity (latency in cycles / accepted load)",
        &[
            "th",
            "UN @0.30",
            "UN accepted @0.60",
            "ADV+1 @0.20",
            "ADV+1 accepted @0.40",
        ],
    );

    for th in thresholds {
        let routing_config =
            RoutingConfig::calibrated_for(&topology, &vcs).with_contention_threshold(th);
        let run = |pattern: PatternKind, load: f64, measure_latency: bool| -> f64 {
            let config = SimulationConfig::builder()
                .topology(topology)
                .routing(RoutingKind::Base)
                .routing_config(routing_config)
                .pattern(pattern)
                .offered_load(load)
                .warmup_cycles(3_000)
                .measurement_cycles(5_000)
                .seed(2)
                .build()
                .expect("valid configuration");
            let report = run_steady_state(&config);
            if measure_latency {
                report.avg_packet_latency
            } else {
                report.accepted_load
            }
        };
        table.push_row(vec![
            th.to_string(),
            format!("{:.0}", run(PatternKind::Uniform, 0.30, true)),
            format!("{:.3}", run(PatternKind::Uniform, 0.60, false)),
            format!(
                "{:.0}",
                run(PatternKind::Adversarial { offset: 1 }, 0.20, true)
            ),
            format!(
                "{:.3}",
                run(PatternKind::Adversarial { offset: 1 }, 0.40, false)
            ),
        ]);
    }

    println!("{}", table.to_text());
    println!(
        "Expected shape (paper, Figure 10): uniform-traffic latency/throughput improve as th grows\n\
         (fewer spurious misroutes), adversarial latency degrades once th is too high to be reached\n\
         by the injection ports' demand. Pick the lowest threshold that keeps UN unharmed."
    );
}
