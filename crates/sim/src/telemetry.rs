//! Streaming run telemetry: fixed-width cycle windows with per-window
//! delivery throughput, latency quantiles and simulation speed.
//!
//! The collector is a pure observer: it differences the network's cumulative
//! counters (and its always-on latency histogram) between window boundaries,
//! so attaching it never perturbs the simulation — a run produces the same
//! results, bit for bit, with or without telemetry.

use df_model::Cycle;

use crate::network::Network;

/// One closed telemetry window.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Window index (0-based).
    pub index: usize,
    /// First cycle of the window.
    pub start_cycle: Cycle,
    /// One past the last cycle of the window.
    pub end_cycle: Cycle,
    /// Packets delivered inside the window.
    pub delivered_packets: u64,
    /// Phits delivered inside the window.
    pub delivered_phits: u64,
    /// Delivered throughput in phits/(node·cycle).
    pub throughput: f64,
    /// Phits generated inside the window.
    pub generated_phits: u64,
    /// Packets in flight at the window boundary.
    pub in_flight: u64,
    /// Mean latency of the window's deliveries (cycles; NaN if none).
    pub avg_latency: f64,
    /// Median latency of the window's deliveries (cycles; NaN if none).
    pub p50_latency: f64,
    /// 99th-percentile latency of the window's deliveries (cycles; NaN if
    /// none; [`f64::INFINITY`] when the rank falls past the telemetry
    /// histogram's top edge — the true percentile is unbounded above, never
    /// silently clamped).
    pub p99_latency: f64,
    /// Wall-clock seconds the window took to simulate.
    pub wall_seconds: f64,
    /// Simulation speed over the window (cycles per wall-clock second; NaN
    /// when the window closed with zero measurable wall time, so means over
    /// windows propagate NaN instead of being poisoned by an infinity).
    pub cycles_per_second: f64,
}

impl WindowStats {
    /// Render the window as a single log line (the streaming service's
    /// progress output).
    pub fn log_line(&self) -> String {
        format!(
            "window {:>3} [{:>7}, {:>7}): delivered {:>6} pkts ({:.4} phits/node/cycle), \
             latency avg {:.1} p50 {:.1} p99 {:.1}, {:.0} cycles/s",
            self.index,
            self.start_cycle,
            self.end_cycle,
            self.delivered_packets,
            self.throughput,
            self.avg_latency,
            self.p50_latency,
            self.p99_latency,
            self.cycles_per_second
        )
    }
}

/// Cumulative-counter marks taken at a window boundary.
#[derive(Debug, Clone)]
struct Marks {
    cycle: Cycle,
    delivered_packets: u64,
    delivered_phits: u64,
    generated_phits: u64,
    latency_bins: Vec<u64>,
    latency_underflow: u64,
    latency_overflow: u64,
    latency_count: u64,
    latency_sum: f64,
}

impl Marks {
    fn take(net: &Network) -> Self {
        let m = net.metrics();
        let h = m.telemetry_histogram();
        Marks {
            cycle: net.cycle(),
            delivered_packets: m.delivered_packets_total(),
            delivered_phits: m.delivered_phits_total(),
            generated_phits: m.generated_phits_total,
            latency_bins: h.bins().to_vec(),
            latency_underflow: h.underflow(),
            latency_overflow: h.overflow(),
            latency_count: h.count(),
            latency_sum: h.sum(),
        }
    }
}

/// Streaming telemetry collector over a [`Network`].
#[derive(Debug)]
pub struct StreamingTelemetry {
    window_cycles: u64,
    num_nodes: u32,
    histogram_low: f64,
    histogram_bin_width: f64,
    closed: usize,
    last: Marks,
    last_instant: std::time::Instant,
}

impl StreamingTelemetry {
    /// Attach a collector to `net`, anchoring the first window at the
    /// network's current cycle. `window_cycles` is the window width.
    ///
    /// # Panics
    /// Panics if `window_cycles` is zero.
    pub fn new(net: &Network, window_cycles: u64) -> Self {
        assert!(window_cycles > 0, "telemetry windows need a nonzero width");
        let h = net.metrics().telemetry_histogram();
        let (low, width) = h
            .iter_bins()
            .next()
            .map(|(lo, hi, _)| (lo, hi - lo))
            .unwrap_or((0.0, 1.0));
        StreamingTelemetry {
            window_cycles,
            num_nodes: net.config().topology.num_nodes(),
            histogram_low: low,
            histogram_bin_width: width,
            closed: 0,
            last: Marks::take(net),
            last_instant: std::time::Instant::now(),
        }
    }

    /// The configured window width in cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    /// Close a window at the network's current position (the caller advanced
    /// the network itself — e.g. the sweep runner, which interleaves
    /// checkpoints with windows).
    pub fn close_window(&mut self, net: &Network) -> WindowStats {
        let now = Marks::take(net);
        let instant = std::time::Instant::now();
        let wall = instant.duration_since(self.last_instant).as_secs_f64();
        let cycles = now.cycle.saturating_sub(self.last.cycle);

        let delivered_packets = now.delivered_packets - self.last.delivered_packets;
        let delivered_phits = now.delivered_phits - self.last.delivered_phits;
        let delta_count = now.latency_count - self.last.latency_count;
        let delta_sum = now.latency_sum - self.last.latency_sum;
        let avg_latency = if delta_count > 0 {
            delta_sum / delta_count as f64
        } else {
            f64::NAN
        };
        let delta_bins: Vec<u64> = now
            .latency_bins
            .iter()
            .zip(&self.last.latency_bins)
            .map(|(&a, &b)| a - b)
            .collect();
        let delta_underflow = now.latency_underflow - self.last.latency_underflow;
        let delta_overflow = now.latency_overflow - self.last.latency_overflow;
        let p50 = self.delta_percentile(&delta_bins, delta_underflow, delta_overflow, 50.0);
        let p99 = self.delta_percentile(&delta_bins, delta_underflow, delta_overflow, 99.0);

        let stats = WindowStats {
            index: self.closed,
            start_cycle: self.last.cycle,
            end_cycle: now.cycle,
            delivered_packets,
            delivered_phits,
            throughput: if cycles > 0 {
                delivered_phits as f64 / (self.num_nodes as f64 * cycles as f64)
            } else {
                0.0
            },
            generated_phits: now.generated_phits - self.last.generated_phits,
            in_flight: net.in_flight(),
            avg_latency,
            p50_latency: p50,
            p99_latency: p99,
            wall_seconds: wall,
            cycles_per_second: window_cycles_per_second(cycles, wall),
        };
        self.last = now;
        self.last_instant = instant;
        self.closed += 1;
        stats
    }

    /// Percentile over a windowed (differenced) histogram, mirroring
    /// [`df_engine::Histogram::percentile`]: the upper edge of the bin
    /// holding the requested rank, NaN when the window delivered nothing,
    /// and [`f64::INFINITY`] when the rank lands in the overflow bucket —
    /// all the histogram knows there is "above the top edge", and clamping
    /// to the edge would under-report tail latency exactly when it explodes.
    fn delta_percentile(&self, bins: &[u64], underflow: u64, overflow: u64, pct: f64) -> f64 {
        let total = bins.iter().sum::<u64>() + underflow + overflow;
        if total == 0 {
            return f64::NAN;
        }
        let target = (pct.clamp(0.0, 100.0) / 100.0 * total as f64).ceil() as u64;
        let mut seen = underflow;
        if seen >= target {
            return self.histogram_low;
        }
        for (i, &c) in bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.histogram_low + (i as f64 + 1.0) * self.histogram_bin_width;
            }
        }
        f64::INFINITY
    }
}

/// Simulation speed over a window. Zero wall time (fast host, tiny window,
/// coarse clock) must not produce an infinity: a single such window would
/// poison any mean over windows, while NaN propagates visibly.
fn window_cycles_per_second(cycles: u64, wall_seconds: f64) -> f64 {
    if wall_seconds > 0.0 {
        cycles as f64 / wall_seconds
    } else {
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimulationConfig;
    use df_model::NetworkConfig;
    use df_routing::RoutingKind;
    use df_topology::DragonflyParams;
    use df_traffic::PatternKind;

    fn config(load: f64) -> SimulationConfig {
        SimulationConfig::builder()
            .topology(DragonflyParams::small())
            .network(NetworkConfig::fast_test())
            .routing(RoutingKind::Base)
            .pattern(PatternKind::Uniform)
            .offered_load(load)
            .warmup_cycles(100)
            .measurement_cycles(400)
            .seed(9)
            .build()
            .expect("valid configuration")
    }

    /// Advance `net` by one window and close it.
    fn step_window(telemetry: &mut StreamingTelemetry, net: &mut Network) -> WindowStats {
        net.run_cycles(telemetry.window_cycles());
        telemetry.close_window(net)
    }

    #[test]
    fn windows_partition_the_run_and_sum_to_the_totals() {
        let mut net = Network::new(config(0.3));
        let mut telemetry = StreamingTelemetry::new(&net, 200);
        let windows: Vec<WindowStats> = (0..5)
            .map(|_| step_window(&mut telemetry, &mut net))
            .collect();
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.index, i);
            assert_eq!(w.start_cycle, 200 * i as u64);
            assert_eq!(w.end_cycle, 200 * (i + 1) as u64);
        }
        let total: u64 = windows.iter().map(|w| w.delivered_packets).sum();
        assert_eq!(total, net.metrics().delivered_packets_total());
        // a moderately loaded network delivers in every window after the first
        assert!(windows[1..].iter().all(|w| w.delivered_packets > 0));
        let w = &windows[3];
        assert!(w.avg_latency > 0.0);
        assert!(w.p50_latency > 0.0 && w.p50_latency <= w.p99_latency);
        assert!(w.throughput > 0.0 && w.throughput < 1.0);
        assert!(w.log_line().starts_with("window   3 [    600,     800)"));
    }

    #[test]
    fn telemetry_does_not_perturb_the_simulation() {
        let mut plain = Network::new(config(0.3));
        plain.run_cycles(1_000);

        let mut observed = Network::new(config(0.3));
        let mut telemetry = StreamingTelemetry::new(&observed, 100);
        for _ in 0..10 {
            step_window(&mut telemetry, &mut observed);
        }
        assert_eq!(plain.cycle(), observed.cycle());
        assert_eq!(
            plain.metrics().delivered_packets_total(),
            observed.metrics().delivered_packets_total()
        );
        assert_eq!(plain.snapshot(), observed.snapshot());
    }

    #[test]
    fn overflow_tail_reports_infinity_not_the_histogram_top_edge() {
        use df_model::{Packet, PacketId};
        use df_topology::NodeId;
        // idle network: every latency sample in this window is fabricated
        let mut net = Network::new(config(0.0));
        let mut telemetry = StreamingTelemetry::new(&net, 100);
        let top_edge = 5_000.0; // Metrics::new telemetry histogram range
                                // 98 in-range deliveries and 2 far past the top edge: p50 stays a
                                // real bin edge, but the p99 rank lands in the overflow bucket
        for i in 0..100u64 {
            let latency = if i < 98 { 40 } else { 9_000 };
            let p = Packet::new(PacketId(i), NodeId(0), NodeId(9), 8, 0);
            net.metrics_mut().record_delivery(&p, latency);
        }
        net.run_cycles(100);
        let w = step_window(&mut telemetry, &mut net);
        assert!(w.p50_latency.is_finite() && w.p50_latency <= top_edge);
        assert!(
            w.p99_latency.is_infinite() && w.p99_latency > 0.0,
            "an overflow-bucket rank must surface as +inf, not clamp to the \
             top edge (got p99 = {})",
            w.p99_latency
        );
        // the mean stays finite (the histogram sums overflow samples too)
        assert!(w.avg_latency.is_finite());
    }

    #[test]
    fn zero_wall_window_speed_is_nan_not_infinity() {
        assert!(window_cycles_per_second(500, 0.0).is_nan());
        assert!(window_cycles_per_second(0, 0.0).is_nan());
        assert_eq!(window_cycles_per_second(500, 2.0), 250.0);
        // a NaN window no longer poisons a mean into infinity; it stays NaN,
        // which downstream consumers can detect (infinity cannot be told
        // apart from "very fast")
        let windows = [window_cycles_per_second(500, 0.0), 250.0];
        let mean = windows.iter().sum::<f64>() / windows.len() as f64;
        assert!(mean.is_nan());
    }

    #[test]
    fn empty_windows_report_nan_latency() {
        let mut net = Network::new(config(0.0));
        let mut telemetry = StreamingTelemetry::new(&net, 100);
        for _ in 0..4 {
            let w = step_window(&mut telemetry, &mut net);
            assert_eq!(w.delivered_packets, 0);
            assert!(w.avg_latency.is_nan() && w.p99_latency.is_nan());
        }
    }
}
