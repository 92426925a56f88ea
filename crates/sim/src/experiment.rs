//! Experiment runners: steady-state and transient, as in the paper's §IV-B.
//!
//! * **Steady state** — warm the network up, open the measurement window,
//!   simulate for a fixed number of cycles, and report average packet latency
//!   and accepted throughput (Figures 5, 6 and 10).
//! * **Transient** — warm up with one traffic pattern, switch to another at a
//!   known cycle, and record the time evolution of latency and of the
//!   percentage of misrouted packets (Figures 7, 8 and 9).

use df_engine::RunningStats;
use df_routing::RoutingKind;
use df_traffic::PatternKind;
use serde::{Deserialize, Serialize};

use crate::config::SimulationConfig;
use crate::network::Network;

/// Result of one steady-state run (or the average of several seeds).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SteadyStateReport {
    /// Routing mechanism used.
    pub routing: RoutingKind,
    /// Traffic pattern (of the first schedule phase).
    pub pattern: PatternKind,
    /// Offered load in phits/(node·cycle).
    pub offered_load: f64,
    /// Accepted load in phits/(node·cycle) over the measurement window.
    pub accepted_load: f64,
    /// Mean packet latency (generation → delivery), cycles.
    pub avg_packet_latency: f64,
    /// 95 % confidence half-width of the latency mean (within-run for single
    /// runs, across seeds for averaged runs).
    pub latency_ci95: f64,
    /// 99th-percentile packet latency, cycles.
    pub p99_latency: f64,
    /// Mean hop count.
    pub avg_hops: f64,
    /// Fraction of delivered packets that were globally misrouted.
    pub global_misroute_fraction: f64,
    /// Fraction of delivered packets that took a local detour.
    pub local_misroute_fraction: f64,
    /// Packets delivered in the measurement window.
    pub delivered_packets: u64,
    /// Packets lost to faults over the whole run (0 on healthy networks;
    /// summed when averaging seeds).
    pub dropped_on_fault_packets: u64,
    /// Packets retargeted to a failed destination's spare over the whole run
    /// (summed when averaging seeds).
    pub retargeted_packets: u64,
    /// Packets injected over the whole run — the denominator of loss rates
    /// (summed when averaging seeds).
    pub injected_packets: u64,
    /// Seed of the run (or the number of seeds averaged, for averaged
    /// reports).
    pub seed: u64,
}

impl SteadyStateReport {
    /// Read the report off a network that has just finished its configured
    /// warm-up and measurement window (identification fields and the window
    /// length come from the network's configuration).
    pub(crate) fn measure(net: &Network) -> Self {
        let config = net.config();
        let metrics = net.metrics();
        let summary = metrics.window_summary();
        SteadyStateReport {
            routing: config.routing,
            pattern: config.schedule.phases()[0].pattern,
            offered_load: config.offered_load,
            accepted_load: metrics
                .accepted_load(config.topology.num_nodes(), config.measurement_cycles),
            avg_packet_latency: summary.avg_packet_latency,
            latency_ci95: summary.latency_ci95,
            p99_latency: summary.p99_latency,
            avg_hops: summary.avg_hops,
            global_misroute_fraction: summary.global_misroute_fraction,
            local_misroute_fraction: summary.local_misroute_fraction,
            delivered_packets: summary.delivered_packets,
            dropped_on_fault_packets: metrics.dropped_on_fault_packets(),
            retargeted_packets: metrics.retargeted_packets(),
            injected_packets: net.injected_packets_total(),
            seed: config.seed,
        }
    }
}

/// A steady-state experiment: one configuration, one run.
#[derive(Debug, Clone)]
pub struct SteadyStateExperiment {
    config: SimulationConfig,
}

impl SteadyStateExperiment {
    /// Create the experiment.
    pub fn new(config: SimulationConfig) -> Self {
        SteadyStateExperiment { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Run warm-up plus measurement and report.
    pub fn run(&self) -> SteadyStateReport {
        let mut net = Network::new(self.config.clone());
        net.run_cycles(self.config.warmup_cycles);
        let start = net.cycle();
        net.metrics_mut().start_measurement(start);
        net.run_cycles(self.config.measurement_cycles);
        SteadyStateReport::measure(&net)
    }

    /// Run the same experiment with `num_seeds` consecutive seeds (starting
    /// at the configured seed) and average the reported metrics, as the paper
    /// does with its 10 simulations per point.
    pub fn run_averaged(&self, num_seeds: u64) -> SteadyStateReport {
        assert!(num_seeds > 0, "need at least one seed");
        let reports: Vec<SteadyStateReport> = (0..num_seeds)
            .map(|s| {
                let mut config = self.config.clone();
                config.seed = self.config.seed + s;
                SteadyStateExperiment::new(config).run()
            })
            .collect();
        average_reports(&self.config, &reports)
    }
}

/// Average per-seed steady-state reports into one (the shape
/// [`SteadyStateExperiment::run_averaged`] and the sweep runner both
/// produce): metric means with an across-seed latency confidence interval,
/// summed deliveries, and the seed count in the `seed` field.
pub fn average_reports(
    config: &SimulationConfig,
    reports: &[SteadyStateReport],
) -> SteadyStateReport {
    assert!(!reports.is_empty(), "need at least one report to average");
    let mut latency = RunningStats::new();
    let mut accepted = RunningStats::new();
    let mut p99 = RunningStats::new();
    let mut hops = RunningStats::new();
    let mut misroute_g = RunningStats::new();
    let mut misroute_l = RunningStats::new();
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    let mut retargeted = 0u64;
    let mut injected = 0u64;
    for report in reports {
        latency.push(report.avg_packet_latency);
        accepted.push(report.accepted_load);
        p99.push(report.p99_latency);
        hops.push(report.avg_hops);
        misroute_g.push(report.global_misroute_fraction);
        misroute_l.push(report.local_misroute_fraction);
        delivered += report.delivered_packets;
        dropped += report.dropped_on_fault_packets;
        retargeted += report.retargeted_packets;
        injected += report.injected_packets;
    }
    SteadyStateReport {
        routing: config.routing,
        pattern: config.schedule.phases()[0].pattern,
        offered_load: config.offered_load,
        accepted_load: accepted.mean(),
        avg_packet_latency: latency.mean(),
        latency_ci95: latency.ci95_half_width(),
        p99_latency: p99.mean(),
        avg_hops: hops.mean(),
        global_misroute_fraction: misroute_g.mean(),
        local_misroute_fraction: misroute_l.mean(),
        delivered_packets: delivered,
        dropped_on_fault_packets: dropped,
        retargeted_packets: retargeted,
        injected_packets: injected,
        seed: reports.len() as u64,
    }
}

/// Result of a transient experiment: time series centred on the
/// traffic-change cycle (x = 0).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransientReport {
    /// Routing mechanism used.
    pub routing: RoutingKind,
    /// Cycle (absolute) at which the traffic pattern changed.
    pub switch_cycle: u64,
    /// `(cycles since the change, mean latency of packets delivered in the
    /// bin)`.
    pub latency_series: Vec<(i64, f64)>,
    /// `(cycles since the change, percentage of packets committing to a
    /// nonminimal global path in the bin)`.
    pub misroute_series: Vec<(i64, f64)>,
}

impl TransientReport {
    /// Mean latency over the bins inside `[from, to)` relative to the change.
    pub fn mean_latency_between(&self, from: i64, to: i64) -> f64 {
        mean_between(&self.latency_series, from, to)
    }

    /// Mean misrouted percentage over the bins inside `[from, to)`.
    pub fn mean_misroute_between(&self, from: i64, to: i64) -> f64 {
        mean_between(&self.misroute_series, from, to)
    }

    /// The first bin (relative cycle) after the change at which the misrouted
    /// percentage reaches `level`, if any — the adaptation delay of Figure 7b.
    pub fn misroute_reaches(&self, level: f64) -> Option<i64> {
        self.misroute_series
            .iter()
            .find(|(t, v)| *t >= 0 && *v >= level)
            .map(|(t, _)| *t)
    }
}

fn mean_between(series: &[(i64, f64)], from: i64, to: i64) -> f64 {
    let vals: Vec<f64> = series
        .iter()
        .filter(|(t, _)| *t >= from && *t < to)
        .map(|(_, v)| *v)
        .collect();
    if vals.is_empty() {
        f64::NAN
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// A transient experiment. The configuration's schedule must contain at least
/// one pattern change; the series are centred on the first one.
#[derive(Debug, Clone)]
pub struct TransientExperiment {
    config: SimulationConfig,
    /// Cycles simulated after the traffic change.
    pub follow_cycles: u64,
}

impl TransientExperiment {
    /// Create the experiment; `follow_cycles` is how long to keep simulating
    /// after the change (the x-axis extent of Figures 7–9).
    pub fn new(config: SimulationConfig, follow_cycles: u64) -> Self {
        assert!(
            !config.schedule.change_points().is_empty(),
            "a transient experiment needs a schedule with a pattern change"
        );
        TransientExperiment {
            config,
            follow_cycles,
        }
    }

    /// Run and report the time series.
    pub fn run(&self) -> TransientReport {
        let switch = self.config.schedule.change_points()[0];
        let mut net = Network::new(self.config.clone());
        net.run_cycles(switch + self.follow_cycles);
        TransientReport {
            routing: self.config.routing,
            switch_cycle: switch,
            latency_series: net.metrics().latency_series(),
            misroute_series: net.metrics().misroute_series(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_model::NetworkConfig;
    use df_topology::DragonflyParams;
    use df_traffic::TrafficSchedule;

    fn base_builder() -> crate::config::SimulationConfigBuilder {
        SimulationConfig::builder()
            .topology(DragonflyParams::small())
            .network(NetworkConfig::fast_test())
            .warmup_cycles(200)
            .measurement_cycles(400)
            .seed(3)
    }

    #[test]
    fn steady_state_reports_sane_numbers() {
        let config = base_builder()
            .routing(RoutingKind::Minimal)
            .pattern(PatternKind::Uniform)
            .offered_load(0.1)
            .build()
            .unwrap();
        let report = SteadyStateExperiment::new(config).run();
        assert!(report.delivered_packets > 0);
        assert!(report.avg_packet_latency > 0.0);
        assert!(report.accepted_load > 0.0);
        assert!(
            report.accepted_load <= 0.15,
            "accepted cannot exceed offered by much"
        );
        assert!(report.avg_hops <= 3.0 + 1e-9);
        assert_eq!(report.routing, RoutingKind::Minimal);
        assert_eq!(report.pattern, PatternKind::Uniform);
    }

    #[test]
    fn averaging_over_seeds_tightens_the_report() {
        let config = base_builder()
            .routing(RoutingKind::Base)
            .pattern(PatternKind::Uniform)
            .offered_load(0.1)
            .build()
            .unwrap();
        let avg = SteadyStateExperiment::new(config).run_averaged(3);
        assert!(avg.delivered_packets > 0);
        assert!(avg.avg_packet_latency > 0.0);
        assert_eq!(avg.seed, 3, "averaged reports carry the seed count");
    }

    #[test]
    fn transient_experiment_produces_series_around_the_switch() {
        let schedule = TrafficSchedule::switch_at(
            PatternKind::Uniform,
            PatternKind::Adversarial { offset: 1 },
            400,
        );
        let config = base_builder()
            .routing(RoutingKind::Base)
            .schedule(schedule)
            .offered_load(0.2)
            .build()
            .unwrap();
        let report = TransientExperiment::new(config, 400).run();
        assert_eq!(report.switch_cycle, 400);
        assert!(!report.latency_series.is_empty());
        // there must be data both before and after the switch
        assert!(report.latency_series.iter().any(|(t, _)| *t < 0));
        assert!(report.latency_series.iter().any(|(t, _)| *t >= 0));
        let pre = report.mean_latency_between(-200, 0);
        assert!(pre.is_finite() && pre > 0.0);
    }

    #[test]
    #[should_panic(expected = "pattern change")]
    fn transient_requires_a_schedule_with_a_change() {
        let config = base_builder()
            .pattern(PatternKind::Uniform)
            .build()
            .unwrap();
        let _ = TransientExperiment::new(config, 100);
    }

    #[test]
    fn report_helpers_handle_empty_ranges() {
        let report = TransientReport {
            routing: RoutingKind::Base,
            switch_cycle: 0,
            latency_series: vec![(0, 100.0), (20, 200.0)],
            misroute_series: vec![(0, 0.0), (20, 80.0)],
        };
        assert_eq!(report.mean_latency_between(0, 40), 150.0);
        assert!(report.mean_latency_between(500, 600).is_nan());
        assert_eq!(report.misroute_reaches(50.0), Some(20));
        assert_eq!(report.misroute_reaches(99.0), None);
    }
}
