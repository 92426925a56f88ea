//! Routing oscillations: ECN-style feedback (PiggyBacking) versus Explicit
//! Contention Notification (ECtN) — the paper's Figure 9.
//!
//! PB's routing decision depends on congestion state that its own decisions
//! create (a feedback loop closed over the queue drain time), so after a
//! traffic change its latency oscillates before settling. ECtN's control
//! variable — contention, the demand observed at queue heads — does not
//! depend on which path the packets finally take, so after the first
//! partial-array broadcast its latency is flat.
//!
//! Run with:
//! ```text
//! cargo run --release --example ectn_oscillation
//! ```

use contention_dragonfly::prelude::*;

fn main() {
    let topology = DragonflyParams::small();
    let switch_at = 4_000u64;
    let follow = 6_000u64;

    let mut reports = Vec::new();
    for routing in [RoutingKind::PiggyBacking, RoutingKind::Ectn] {
        let schedule = TrafficSchedule::switch_at(
            PatternKind::Uniform,
            PatternKind::Adversarial { offset: 1 },
            switch_at,
        );
        let config = SimulationConfig::builder()
            .topology(topology)
            .routing(routing)
            .schedule(schedule)
            .offered_load(0.20)
            .warmup_cycles(switch_at)
            .measurement_cycles(follow)
            .seed(4)
            .build()
            .expect("valid configuration");
        reports.push(run_transient(&config));
    }

    // print the latency evolution side by side, in 250-cycle windows
    let mut table = Table::new(
        "Latency after the UN->ADV+1 change (250-cycle windows)",
        &["window start", "PB", "ECtN"],
    );
    let mut window = 0i64;
    while window < follow as i64 - 250 {
        table.push_row(vec![
            window.to_string(),
            format!(
                "{:.0}",
                reports[0].mean_latency_between(window, window + 250)
            ),
            format!(
                "{:.0}",
                reports[1].mean_latency_between(window, window + 250)
            ),
        ]);
        window += 250;
    }
    println!("{}", table.to_text());

    // quantify the oscillation: standard deviation of the window means after
    // convergence (skip the first 1000 cycles)
    for report in &reports {
        let mut stats = RunningStats::new();
        let mut w = 1_000i64;
        while w < follow as i64 - 250 {
            let m = report.mean_latency_between(w, w + 250);
            if m.is_finite() {
                stats.push(m);
            }
            w += 250;
        }
        println!(
            "{:>4}: post-convergence window-mean latency = {:.0} ± {:.1} cycles (std dev)",
            report.routing.label(),
            stats.mean(),
            stats.std_dev()
        );
    }
    println!(
        "\nExpected shape (paper, Figure 9): PB's latency swings periodically as the saturation\n\
         flags flip with the queue levels; ECtN converges to a flat line after the first\n\
         partial-counter broadcast."
    );
}
