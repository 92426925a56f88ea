//! Experiment runners: steady-state and transient, as in the paper's §IV-B.
//!
//! * **Steady state** — warm the network up, open the measurement window,
//!   simulate for a fixed number of cycles, and report average packet latency
//!   and accepted throughput (Figures 5, 6 and 10).
//! * **Transient** — warm up with one traffic pattern, switch to another at a
//!   known cycle, and record the time evolution of latency and of the
//!   percentage of misrouted packets (Figures 7, 8 and 9).

use df_engine::{CodecError, Decoder, Encoder, RunningStats};
use df_routing::RoutingKind;
use df_topology::Topology;
use df_traffic::PatternKind;

use crate::config::SimulationConfig;
use crate::metrics::accepted_load;
use crate::network::Network;
use crate::runner::run_subrun;

/// Result of one steady-state run (or the average of several seeds).
#[derive(Debug, Clone)]
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
            accepted_load: window_accepted_load(config, summary.delivered_packets),
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

    /// Append the measured (seed-dependent) fields as exact bit patterns —
    /// the payload of a sweep-journal sub-run record. No field the record's
    /// configuration and seed index give is written: the identification
    /// fields, the seed and the accepted load (the delivered packets over
    /// the window) are rebuilt by [`decode_measured`](Self::decode_measured).
    pub(crate) fn encode_measured(&self, e: &mut Encoder) {
        e.f64(self.avg_packet_latency);
        e.f64(self.latency_ci95);
        e.f64(self.p99_latency);
        e.f64(self.avg_hops);
        e.f64(self.global_misroute_fraction);
        e.f64(self.local_misroute_fraction);
        e.u64(self.delivered_packets);
        e.u64(self.dropped_on_fault_packets);
        e.u64(self.retargeted_packets);
        e.u64(self.injected_packets);
    }

    /// Inverse of [`encode_measured`](Self::encode_measured) for seed
    /// `seed_idx` of the sweep point `config`, whose seeds run consecutively
    /// from its own.
    pub(crate) fn decode_measured(
        config: &SimulationConfig,
        seed_idx: u64,
        d: &mut Decoder,
    ) -> Result<Self, CodecError> {
        let mut report = SteadyStateReport {
            routing: config.routing,
            pattern: config.schedule.phases()[0].pattern,
            offered_load: config.offered_load,
            accepted_load: 0.0,
            avg_packet_latency: d.f64()?,
            latency_ci95: d.f64()?,
            p99_latency: d.f64()?,
            avg_hops: d.f64()?,
            global_misroute_fraction: d.f64()?,
            local_misroute_fraction: d.f64()?,
            delivered_packets: d.u64()?,
            dropped_on_fault_packets: d.u64()?,
            retargeted_packets: d.u64()?,
            injected_packets: d.u64()?,
            seed: config.seed + seed_idx,
        };
        report.accepted_load = window_accepted_load(config, report.delivered_packets);
        Ok(report)
    }
}

/// Accepted load of `delivered_packets` over `config`'s measurement window.
fn window_accepted_load(config: &SimulationConfig, delivered_packets: u64) -> f64 {
    let nodes = config.topology.num_nodes();
    let size = config.network.packet_size_phits;
    accepted_load(delivered_packets, size, nodes, config.measurement_cycles)
}

/// Run `config`'s warm-up plus measurement window and report: one in-memory
/// sub-run of the sweep pool's loop. Averaging over seeds is the pool's job
/// ([`run_sweep`](crate::sweep::run_sweep) with `seeds_per_point > 1`).
pub fn run_steady_state(config: &SimulationConfig) -> SteadyStateReport {
    match run_subrun(config, None) {
        Ok(Some(end)) => end.report,
        _ => unreachable!("only a durable sub-run writes checkpoints or can be interrupted"),
    }
}

/// Average the per-seed reports of one sweep point into one, as the paper
/// does with its 10 simulations per point: metric means with an across-seed
/// latency confidence interval, summed deliveries, and the seed count in
/// the `seed` field.
pub(crate) fn average_reports(
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
#[derive(Debug, Clone)]
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

/// Run a transient experiment: simulate `config.total_cycles()` and report
/// the time series centred on the schedule's first pattern change (which it
/// must contain). By convention the change sits at `warmup_cycles`, so
/// `measurement_cycles` is how long the run follows it — the x-axis extent
/// of Figures 7–9.
pub fn run_transient(config: &SimulationConfig) -> TransientReport {
    let switch_cycle = *config
        .schedule
        .change_points()
        .first()
        .expect("a transient experiment needs a schedule with a pattern change");
    let mut net = Network::new(config.clone());
    net.run_cycles(config.total_cycles());
    TransientReport {
        routing: config.routing,
        switch_cycle,
        latency_series: net.metrics().latency_series(),
        misroute_series: net.metrics().misroute_series(),
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
        let report = run_steady_state(&config);
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

    /// Every field equal, floats by bit pattern.
    fn assert_bit_identical(a: &SteadyStateReport, b: &SteadyStateReport) {
        assert_eq!(a.routing, b.routing);
        assert_eq!(a.pattern, b.pattern);
        for (x, y) in [
            (a.offered_load, b.offered_load),
            (a.accepted_load, b.accepted_load),
            (a.avg_packet_latency, b.avg_packet_latency),
            (a.latency_ci95, b.latency_ci95),
            (a.p99_latency, b.p99_latency),
            (a.avg_hops, b.avg_hops),
            (a.global_misroute_fraction, b.global_misroute_fraction),
            (a.local_misroute_fraction, b.local_misroute_fraction),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{a:?} vs {b:?}");
        }
        assert_eq!(a.delivered_packets, b.delivered_packets);
        assert_eq!(a.dropped_on_fault_packets, b.dropped_on_fault_packets);
        assert_eq!(a.retargeted_packets, b.retargeted_packets);
        assert_eq!(a.injected_packets, b.injected_packets);
        assert_eq!(a.seed, b.seed);
    }

    #[test]
    fn a_multi_seed_sweep_point_is_the_average_of_its_single_seed_runs() {
        let config = base_builder()
            .routing(RoutingKind::Base)
            .pattern(PatternKind::Uniform)
            .offered_load(0.1)
            .build()
            .unwrap();
        // the pool schedules the three seeds as separate sub-runs on up to
        // four threads; the point must not depend on who ran which
        let swept = crate::sweep::run_sweep(std::slice::from_ref(&config), 3, 4);
        let singles: Vec<SteadyStateReport> = (0..3)
            .map(|s| {
                let mut c = config.clone();
                c.seed += s;
                run_steady_state(&c)
            })
            .collect();
        assert_eq!(swept.len(), 1);
        assert_bit_identical(&swept[0], &average_reports(&config, &singles));
        assert_eq!(swept[0].seed, 3, "averaged reports carry the seed count");
        assert!(swept[0].delivered_packets > singles[0].delivered_packets);
    }

    #[test]
    fn measured_fields_round_trip_through_the_journal_codec() {
        let config = base_builder()
            .routing(RoutingKind::PiggyBacking)
            .pattern(PatternKind::Adversarial { offset: 1 })
            .offered_load(0.3)
            .build()
            .unwrap();
        let mut report = run_steady_state(&config);
        // bit patterns text would lose, and counters nothing else sets here
        report.latency_ci95 = f64::NAN;
        report.avg_hops = -0.0;
        report.p99_latency = f64::INFINITY;
        report.dropped_on_fault_packets = 7;
        report.retargeted_packets = u64::MAX;
        let mut e = Encoder::new();
        report.encode_measured(&mut e);
        let bytes = e.into_bytes();
        assert_eq!(bytes.len(), 10 * 8, "record layout: 6 f64 + 4 u64");
        let mut d = Decoder::new(&bytes);
        let decoded = SteadyStateReport::decode_measured(&config, 0, &mut d).expect("decodes");
        assert_bit_identical(&decoded, &report);
        // the seed is the point's plus the index; the accepted load is
        // rebuilt from the delivered packets, bit for bit
        let mut d = Decoder::new(&bytes);
        let third = SteadyStateReport::decode_measured(&config, 2, &mut d).expect("decodes");
        assert_eq!(third.seed, config.seed + 2);
        assert!(report.accepted_load > 0.0);
        // a hostile delivered count rebuilds a load without overflowing
        report.delivered_packets = u64::MAX;
        let mut e = Encoder::new();
        report.encode_measured(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let huge = SteadyStateReport::decode_measured(&config, 0, &mut d).expect("decodes");
        assert!(huge.accepted_load.is_finite());
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
            .warmup_cycles(400)
            .build()
            .unwrap();
        let report = run_transient(&config);
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
        let _ = run_transient(&config);
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
