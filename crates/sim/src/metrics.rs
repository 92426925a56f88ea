//! Measurement: latency, throughput, misrouting and transient time series.

use df_engine::{BinnedSeries, Histogram, RunningStats};
use df_model::{Cycle, Packet};

/// Collects everything the experiments report. Counts the network holds
/// are not kept here: generation is the nodes', in-flight the routers' and
/// the links' (`Network::{generated_phits_total, in_flight}`). Every packet
/// of a run has the configured size, so each phit count is its packet count
/// times that size, and the window's delivery count is `latency`'s.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// The configured packet size (configuration, not run state).
    packet_size_phits: u32,
    /// Cycle at which the measurement window opened (`None` while warming
    /// up).
    window_start: Option<Cycle>,
    /// Origin of the transient time series (x = 0, the traffic-change
    /// instant); exported series times are relative to it.
    series_origin: i64,
    // ---- measurement window ----
    latency: RunningStats,
    hops: RunningStats,
    misrouted_global: u64,
    misrouted_local: u64,
    // ---- whole-run counters (used by the progress watchdog) ----
    delivered_packets_total: u64,
    // ---- fault accounting (whole run) ----
    /// Packets lost to link failures, whatever the mechanism: in flight on
    /// the wire, staged in a dead link's output buffer, or discarded as
    /// unroutable. Together with `delivered` and `in-flight` these make
    /// packet conservation under faults a checkable equality.
    dropped_on_fault_packets: u64,
    /// Of the dropped packets, those that were staged in an output buffer
    /// behind a link when it failed (the serialisation buffer is lost with
    /// the link).
    dropped_staged_packets: u64,
    /// Of the dropped packets, those the routing layer discarded as
    /// unroutable (dead minimal continuation and no policy-legal live
    /// alternative). Unlike wire/staged drops these consumed no credits on
    /// the dead link, so the lost-credit ledger bound excludes them.
    dropped_unroutable_packets: u64,
    /// Packets whose dead committed continuation was re-committed (replaced
    /// or abandoned) by the failure-aware routing layer.
    recommitted_packets: u64,
    /// Cycles during which at least one router's gateway-liveness view
    /// lagged the true link state (only meaningful for mechanisms with a
    /// dissemination channel; 0 on healthy runs).
    stale_linkstate_cycles: u64,
    /// Packets whose destination node had failed and that were retargeted
    /// to its designated spare at injection time (node failure:
    /// drain-at-source + reroute-to-spare).
    retargeted_packets: u64,
    /// Cumulative rank-cycles the task layer spent blocked on the network
    /// (sends handed over, completion conditions unmet; summed over ranks.
    /// 0 without a workload).
    rank_stall_cycles: u64,
    // ---- transient series ----
    latency_series: BinnedSeries,
    misroute_series: BinnedSeries,
    // ---- distribution ----
    latency_histogram: Histogram,
}

/// Final figures of a measurement window.
#[derive(Debug, Clone)]
pub struct WindowSummary {
    /// Packets delivered inside the window.
    pub delivered_packets: u64,
    /// Phits delivered inside the window.
    pub delivered_phits: u64,
    /// Mean packet latency (generation to delivery), cycles.
    pub avg_packet_latency: f64,
    /// 95 % confidence half-width of the latency mean.
    pub latency_ci95: f64,
    /// 99th-percentile latency approximated from the histogram.
    pub p99_latency: f64,
    /// Mean hop count of delivered packets.
    pub avg_hops: f64,
    /// Fraction of delivered packets that were globally misrouted.
    pub global_misroute_fraction: f64,
    /// Fraction of delivered packets that took a local detour.
    pub local_misroute_fraction: f64,
}

impl Metrics {
    /// Create a collector. `series_origin` is the cycle that becomes x = 0 in
    /// the transient time series (the traffic-change instant), and
    /// `series_bin` the bin width in cycles; `packet_size_phits` is the
    /// configured size of every packet.
    pub(crate) fn new(series_origin: i64, series_bin: u64, packet_size_phits: u32) -> Self {
        Metrics {
            packet_size_phits,
            window_start: None,
            series_origin,
            latency: RunningStats::new(),
            hops: RunningStats::new(),
            misrouted_global: 0,
            misrouted_local: 0,
            delivered_packets_total: 0,
            dropped_on_fault_packets: 0,
            dropped_staged_packets: 0,
            dropped_unroutable_packets: 0,
            recommitted_packets: 0,
            stale_linkstate_cycles: 0,
            retargeted_packets: 0,
            rank_stall_cycles: 0,
            latency_series: BinnedSeries::new(series_origin, series_bin),
            misroute_series: BinnedSeries::new(series_origin, series_bin),
            latency_histogram: Histogram::new(0.0, 5_000.0, 500),
        }
    }

    /// Open the measurement window at `cycle` (typically after warm-up).
    pub fn start_measurement(&mut self, cycle: Cycle) {
        self.window_start = Some(cycle);
        self.latency = RunningStats::new();
        self.hops = RunningStats::new();
        self.misrouted_global = 0;
        self.misrouted_local = 0;
        self.latency_histogram = Histogram::new(0.0, 5_000.0, 500);
    }

    /// Whether the measurement window is open.
    pub(crate) fn measuring(&self) -> bool {
        self.window_start.is_some()
    }

    /// Record a packet delivered to its destination node at `now`.
    pub(crate) fn record_delivery(&mut self, packet: &Packet, now: Cycle) {
        self.delivered_packets_total += 1;
        let latency = (now - packet.generated_at) as f64;
        self.latency_series.record(now as i64, latency);
        if self.measuring() {
            self.latency.push(latency);
            self.hops.push(packet.hops() as f64);
            self.latency_histogram.record(latency);
            if packet.routing.flags.global {
                self.misrouted_global += 1;
            }
            if packet.routing.flags.local {
                self.misrouted_local += 1;
            }
        }
    }

    /// Record a min-vs-nonmin commitment (a packet crossed a global link):
    /// feeds the transient misrouting-percentage series.
    pub(crate) fn record_commit(&mut self, now: Cycle, misrouted: bool) {
        self.misroute_series
            .record(now as i64, if misrouted { 100.0 } else { 0.0 });
    }

    /// Record a packet dropped because its link failed while it was in
    /// flight (fault injection).
    pub(crate) fn record_dropped_on_fault(&mut self) {
        self.dropped_on_fault_packets += 1;
    }

    /// Record a packet dropped because it was staged in an output buffer
    /// behind a link when the link failed (counts into the dropped-on-fault
    /// totals and the staged sub-counter).
    pub(crate) fn record_dropped_staged(&mut self) {
        self.record_dropped_on_fault();
        self.dropped_staged_packets += 1;
    }

    /// Record a packet the routing layer discarded as unroutable (counts
    /// into the dropped-on-fault totals and the unroutable sub-counter).
    pub(crate) fn record_dropped_unroutable(&mut self) {
        self.record_dropped_on_fault();
        self.dropped_unroutable_packets += 1;
    }

    /// Record a fault re-commit (a committed continuation replaced or
    /// abandoned because its link died).
    pub(crate) fn record_recommitted(&mut self) {
        self.recommitted_packets += 1;
    }

    /// Record one cycle during which the disseminated gateway-liveness view
    /// lagged the true link state.
    pub(crate) fn record_stale_linkstate_cycle(&mut self) {
        self.stale_linkstate_cycles += 1;
    }

    /// Record a packet retargeted from its failed destination node to the
    /// node's designated spare at injection time.
    pub(crate) fn record_retargeted(&mut self) {
        self.retargeted_packets += 1;
    }

    /// Record `ranks` ranks blocked on the network for the current cycle
    /// (task layer).
    pub(crate) fn record_rank_stalls(&mut self, ranks: u64) {
        self.rank_stall_cycles += ranks;
    }

    /// Total packets delivered since the beginning of the run (not just the
    /// window); used by the progress watchdog.
    pub fn delivered_packets_total(&self) -> u64 {
        self.delivered_packets_total
    }

    /// Total phits delivered since the beginning of the run.
    pub fn delivered_phits_total(&self) -> u64 {
        self.phits(self.delivered_packets_total)
    }

    /// Packets dropped by link failures since the beginning of the run.
    pub fn dropped_on_fault_packets(&self) -> u64 {
        self.dropped_on_fault_packets
    }

    /// Phits dropped by link failures since the beginning of the run.
    pub fn dropped_on_fault_phits(&self) -> u64 {
        self.phits(self.dropped_on_fault_packets)
    }

    /// Packets dropped from dead links' output stages (subset of
    /// [`dropped_on_fault_packets`](Self::dropped_on_fault_packets)).
    pub fn dropped_staged_packets(&self) -> u64 {
        self.dropped_staged_packets
    }

    /// Packets discarded as unroutable by the failure-aware routing layer
    /// (subset of [`dropped_on_fault_packets`](Self::dropped_on_fault_packets)).
    pub fn dropped_unroutable_packets(&self) -> u64 {
        self.dropped_unroutable_packets
    }

    /// Phits of the unroutable discards.
    pub fn dropped_unroutable_phits(&self) -> u64 {
        self.phits(self.dropped_unroutable_packets)
    }

    /// Committed continuations re-committed around a dead link.
    pub fn recommitted_packets(&self) -> u64 {
        self.recommitted_packets
    }

    /// Cycles the disseminated gateway-liveness view lagged the truth.
    pub fn stale_linkstate_cycles(&self) -> u64 {
        self.stale_linkstate_cycles
    }

    /// Packets retargeted to a spare because their destination node failed.
    pub fn retargeted_packets(&self) -> u64 {
        self.retargeted_packets
    }

    /// Cumulative rank-cycles spent blocked on the network (task layer).
    pub fn rank_stall_cycles(&self) -> u64 {
        self.rank_stall_cycles
    }

    /// Phits of `packets` packets of the configured size (a restored count
    /// is outside input: saturating, never a panic).
    fn phits(&self, packets: u64) -> u64 {
        packets.saturating_mul(u64::from(self.packet_size_phits))
    }

    /// The latency histogram of the measurement window (records only while
    /// the window is open; used by the determinism regression tests to
    /// compare full distributions, not just summary statistics).
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency_histogram
    }

    /// Summarise the measurement window.
    pub fn window_summary(&self) -> WindowSummary {
        let delivered_packets = self.latency.count();
        WindowSummary {
            delivered_packets,
            delivered_phits: self.phits(delivered_packets),
            avg_packet_latency: self.latency.mean(),
            latency_ci95: self.latency.ci95_half_width(),
            p99_latency: self.latency_histogram.percentile(99.0),
            avg_hops: self.hops.mean(),
            global_misroute_fraction: if delivered_packets == 0 {
                0.0
            } else {
                self.misrouted_global as f64 / delivered_packets as f64
            },
            local_misroute_fraction: if delivered_packets == 0 {
                0.0
            } else {
                self.misrouted_local as f64 / delivered_packets as f64
            },
        }
    }

    /// Accepted load in phits/(node·cycle) over the measurement window.
    pub fn accepted_load(&self, num_nodes: u32, window_cycles: u64) -> f64 {
        let delivered = self.latency.count();
        accepted_load(delivered, self.packet_size_phits, num_nodes, window_cycles)
    }

    /// Per-bin mean latency around the series origin (transient figures).
    /// Times are relative to the origin (the traffic-change cycle is 0).
    pub(crate) fn latency_series(&self) -> Vec<(i64, f64)> {
        let origin = self.series_origin;
        self.latency_series
            .iter_means()
            .map(|(t, m, _)| (t - origin, m))
            .collect()
    }

    /// Width of the transient-series bins in cycles (consumers converting
    /// per-bin counts into rates must use this, not a hardcoded constant).
    pub fn series_bin_width(&self) -> u64 {
        self.latency_series.bin_width()
    }

    /// Per-bin delivered-packet counts around the series origin (the
    /// throughput view of the transient series; used by the fault-recovery
    /// curve). Times are relative to the origin.
    pub fn delivery_count_series(&self) -> Vec<(i64, u64)> {
        let origin = self.series_origin;
        self.latency_series
            .iter_means()
            .map(|(t, _, n)| (t - origin, n))
            .collect()
    }

    /// Per-bin percentage of globally misrouted commitments (transient
    /// figures). Times are relative to the origin.
    pub(crate) fn misroute_series(&self) -> Vec<(i64, f64)> {
        let origin = self.series_origin;
        self.misroute_series
            .iter_means()
            .map(|(t, m, _)| (t - origin, m))
            .collect()
    }

    /// Serialise the whole collector (counters, running statistics, series
    /// and histogram). The series origin and bin width and the histogram's
    /// shape are configuration, not run state, and are not written.
    pub(crate) fn save_state(&self, e: &mut df_engine::Encoder) {
        e.option(self.window_start, df_engine::Encoder::u64);
        self.latency.encode(e);
        self.hops.encode(e);
        e.u64(self.misrouted_global);
        e.u64(self.misrouted_local);
        e.u64(self.delivered_packets_total);
        e.u64(self.dropped_on_fault_packets);
        e.u64(self.dropped_staged_packets);
        e.u64(self.dropped_unroutable_packets);
        e.u64(self.recommitted_packets);
        e.u64(self.stale_linkstate_cycles);
        e.u64(self.retargeted_packets);
        e.u64(self.rank_stall_cycles);
        self.latency_series.encode(e);
        self.misroute_series.encode(e);
        self.latency_histogram.encode(e);
    }

    /// Restore the state written by [`Metrics::save_state`] at cycle `now`
    /// into the collector [`Metrics::new`] configured: the bytes fill it in,
    /// they do not reshape it. The series may only hold bins a run of `now`
    /// cycles can have touched, and the window's records must agree with
    /// its delivery count and the run's.
    pub(crate) fn restore_state(
        &mut self,
        d: &mut df_engine::Decoder,
        now: Cycle,
    ) -> Result<(), df_engine::CodecError> {
        self.window_start = d.option(df_engine::Decoder::u64)?;
        self.latency = RunningStats::decode(d)?;
        self.hops = RunningStats::decode(d)?;
        self.misrouted_global = d.u64()?;
        self.misrouted_local = d.u64()?;
        self.delivered_packets_total = d.u64()?;
        self.dropped_on_fault_packets = d.u64()?;
        self.dropped_staged_packets = d.u64()?;
        self.dropped_unroutable_packets = d.u64()?;
        self.recommitted_packets = d.u64()?;
        self.stale_linkstate_cycles = d.u64()?;
        self.retargeted_packets = d.u64()?;
        self.rank_stall_cycles = d.u64()?;
        let last_time = i64::try_from(now).map_err(|_| {
            df_engine::CodecError::Invalid(format!("snapshot cycle {now} out of range"))
        })?;
        self.latency_series.decode(d, last_time)?;
        self.misroute_series.decode(d, last_time)?;
        self.latency_histogram.decode(d)?;
        // the window's delivery count is `latency`'s; its other records agree
        // and the run delivered at least as many
        let delivered = self.latency.count();
        let (hops, histogram) = (self.hops.count(), self.latency_histogram.count());
        let (global, local) = (self.misrouted_global, self.misrouted_local);
        if hops != delivered || histogram != delivered || global.max(local) > delivered {
            return Err(df_engine::CodecError::Invalid(format!(
                "metrics window of {delivered} deliveries holds {hops} hop counts, \
                 {histogram} histogram entries and {global}/{local} global/local misroutes"
            )));
        }
        if self.delivered_packets_total < delivered {
            return Err(df_engine::CodecError::Invalid(format!(
                "metrics window of {delivered} deliveries in a run that delivered {}",
                self.delivered_packets_total
            )));
        }
        Ok(())
    }
}

/// Accepted load in phits/(node·cycle): `packets` delivered packets of
/// `size` phits over `nodes` nodes and `cycles` cycles (0 for an empty
/// window) — the one formula behind a report's accepted load, measured or
/// rebuilt from a sweep-journal record.
pub(crate) fn accepted_load(packets: u64, size: u32, nodes: u32, cycles: u64) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    // in f64, exact below 2^53 phits: a journal's count cannot overflow it
    packets as f64 * f64::from(size) / (nodes as f64 * cycles as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_model::PacketId;
    use df_topology::NodeId;

    fn packet(id: u64, generated_at: Cycle) -> Packet {
        Packet::new(PacketId(id), NodeId(0), NodeId(9), 8, generated_at)
    }

    #[test]
    fn deliveries_before_measurement_do_not_count_in_the_window() {
        let mut m = Metrics::new(0, 10, 8);
        m.record_delivery(&packet(1, 0), 100);
        assert_eq!(m.delivered_packets_total(), 1);
        assert_eq!(m.window_summary().delivered_packets, 0);
        m.start_measurement(200);
        m.record_delivery(&packet(2, 150), 250);
        let s = m.window_summary();
        assert_eq!(s.delivered_packets, 1);
        assert_eq!(s.avg_packet_latency, 100.0);
        assert_eq!(s.delivered_phits, 8);
    }

    #[test]
    fn misroute_fractions() {
        let mut m = Metrics::new(0, 10, 8);
        m.start_measurement(0);
        let mut a = packet(1, 0);
        a.routing.flags.global = true;
        let mut b = packet(2, 0);
        b.routing.flags.local = true;
        let c = packet(3, 0);
        m.record_delivery(&a, 50);
        m.record_delivery(&b, 60);
        m.record_delivery(&c, 70);
        let s = m.window_summary();
        assert!((s.global_misroute_fraction - 1.0 / 3.0).abs() < 1e-9);
        assert!((s.local_misroute_fraction - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn accepted_load_normalises_by_nodes_and_cycles() {
        let mut m = Metrics::new(0, 10, 8);
        m.start_measurement(0);
        for i in 0..10 {
            m.record_delivery(&packet(i, 0), 10);
        }
        // 80 phits over 4 nodes × 20 cycles = 1.0
        assert!((m.accepted_load(4, 20) - 1.0).abs() < 1e-9);
        assert_eq!(m.accepted_load(4, 0), 0.0);
    }

    #[test]
    fn series_are_binned_around_the_origin() {
        let mut m = Metrics::new(1_000, 50, 8);
        m.record_delivery(&packet(1, 900), 990); // bin -100..-50? latency 90 at t=990 → bin -50..0
        m.record_delivery(&packet(2, 1_000), 1_020);
        m.record_commit(1_010, true);
        m.record_commit(1_010, false);
        let lat = m.latency_series();
        assert_eq!(lat.len(), 2);
        assert_eq!(lat[0].0, -50);
        assert_eq!(lat[1].0, 0);
        let mis = m.misroute_series();
        assert_eq!(mis.len(), 1);
        assert!(
            (mis[0].1 - 50.0).abs() < 1e-9,
            "50% of commits were misroutes"
        );
    }

    #[test]
    fn fault_drop_subcounters_feed_the_conservation_totals() {
        let mut m = Metrics::new(0, 10, 8);
        m.record_dropped_on_fault(); // wire drop
        m.record_dropped_staged();
        m.record_dropped_unroutable();
        assert_eq!(m.dropped_on_fault_packets(), 3);
        assert_eq!(m.dropped_on_fault_phits(), 24);
        assert_eq!(m.dropped_staged_packets(), 1);
        assert_eq!(m.dropped_unroutable_packets(), 1);
        assert_eq!(m.dropped_unroutable_phits(), 8);
    }

    #[test]
    fn recommit_and_staleness_counters_accumulate() {
        let mut m = Metrics::new(0, 10, 8);
        assert_eq!(m.recommitted_packets(), 0);
        assert_eq!(m.stale_linkstate_cycles(), 0);
        m.record_recommitted();
        m.record_recommitted();
        m.record_stale_linkstate_cycle();
        assert_eq!(m.recommitted_packets(), 2);
        assert_eq!(m.stale_linkstate_cycles(), 1);
    }
}
