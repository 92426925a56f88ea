//! Figure-regeneration functions: one per table/figure of the paper's
//! evaluation section (§V and §VI-A).
//!
//! Every function returns [`Table`]s whose rows/series mirror what the paper
//! plots; `--bin fig -- <5|6|7|8|9|10|table1>` prints them, and
//! `tests/paper_claims.rs` pins the paper's qualitative orderings.

use df_engine::Table;
use df_model::{NetworkConfig, ALLOCATOR_SPEEDUP};
use df_routing::config::{
    ECTN_UPDATE_PERIOD, HYBRID_CONGESTION_FRACTION, OLM_CONGESTION_FRACTION,
    PB_UGAL_THRESHOLD_PACKETS,
};
use df_routing::{RoutingConfig, RoutingKind};
use df_sim::{run_sweep, run_transient, SimulationConfig, SteadyStateReport, TransientReport};
use df_traffic::{PatternKind, TrafficSchedule};

use crate::scale::Scale;

/// The five adaptive mechanisms of Figures 5–8, in the paper's order: the
/// two credit-based (PB, OLM) and the three contention-based (Base, Hybrid,
/// ECtN).
const ADAPTIVE: [RoutingKind; 5] = [
    RoutingKind::PiggyBacking,
    RoutingKind::Olm,
    RoutingKind::Base,
    RoutingKind::Hybrid,
    RoutingKind::Ectn,
];

/// The oblivious reference a load sweep is plotted against: MIN for UN,
/// VAL for ADV.
fn reference(pattern: PatternKind) -> RoutingKind {
    match pattern {
        PatternKind::Uniform => RoutingKind::Minimal,
        _ => RoutingKind::Valiant,
    }
}

/// The offered loads a load sweep under `pattern` visits.
fn loads(scale: &Scale, pattern: PatternKind) -> &[f64] {
    match pattern {
        PatternKind::Uniform => &scale.uniform_loads,
        _ => &scale.adversarial_loads,
    }
}

/// The mechanisms plotted in Figure 5: the oblivious reference, then the
/// five adaptive ones.
fn figure5_routings(pattern: PatternKind) -> Vec<RoutingKind> {
    [&[reference(pattern)][..], &ADAPTIVE].concat()
}

/// A table whose first column is `first`, followed by `columns`.
fn series_table(title: String, first: &str, columns: &[&str]) -> Table {
    Table::new(title, &[&[first], columns].concat())
}

fn base_config(
    scale: &Scale,
    routing: RoutingKind,
    pattern: PatternKind,
    load: f64,
) -> SimulationConfig {
    SimulationConfig::builder()
        .topology(scale.topology)
        .network(scale.network)
        .routing(routing)
        .pattern(pattern)
        .offered_load(load)
        .warmup_cycles(scale.warmup)
        .measurement_cycles(scale.measure)
        .seed(1)
        .build()
        .expect("scale configurations are valid")
}

/// Run the configuration of every `outer × inner` pair in one sweep — the
/// pool sees the whole figure at once — and return the reports one `Vec`
/// per `outer` item, in `inner` order.
fn sweep_grid<O, I>(
    scale: &Scale,
    outer: &[O],
    inner: &[I],
    config: impl Fn(&O, &I) -> SimulationConfig,
) -> Vec<Vec<SteadyStateReport>> {
    let config = &config;
    let configs: Vec<SimulationConfig> = outer
        .iter()
        .flat_map(|o| inner.iter().map(move |i| config(o, i)))
        .collect();
    run_sweep(&configs, scale.seeds, df_sim::num_threads())
        .chunks(inner.len())
        .map(<[SteadyStateReport]>::to_vec)
        .collect()
}

/// The latency and accepted-load pair of Figures 5 and 10: one row per
/// offered load, one column per series of reports.
fn load_tables(
    titles: [String; 2],
    columns: &[&str],
    loads: &[f64],
    series: &[Vec<SteadyStateReport>],
) -> (Table, Table) {
    let [mut latency, mut throughput] =
        titles.map(|title| series_table(title, "offered_load", columns));
    for (i, &load) in loads.iter().enumerate() {
        let row = |value: fn(&SteadyStateReport) -> f64| -> Vec<f64> {
            std::iter::once(load)
                .chain(series.iter().map(|s| value(&s[i])))
                .collect()
        };
        latency.push_numeric_row(&row(|r| r.avg_packet_latency), 2);
        throughput.push_numeric_row(&row(|r| r.accepted_load), 4);
    }
    (latency, throughput)
}

/// Table I: the simulation parameters of the given scale (the paper's table
/// is reproduced exactly by `Scale::paper()`).
pub fn table1(scale: &Scale) -> Table {
    let t = &scale.topology;
    let n = &scale.network;
    let rc = RoutingConfig::calibrated_for(t, &n.vcs);
    let mut table = Table::new(
        format!("Table I — simulation parameters ({} scale)", scale.name),
        &["parameter", "value"],
    );
    let rows: Vec<(String, String)> = vec![
        (
            "Router size".into(),
            format!(
                "{} ports (h={} global, p={} injection, {} local)",
                t.radix(),
                t.h,
                t.p,
                t.a - 1
            ),
        ),
        (
            "Router latency".into(),
            format!("{} cycles", n.latencies.router_pipeline),
        ),
        ("Frequency speedup".into(), format!("{ALLOCATOR_SPEEDUP}x")),
        (
            "Group size".into(),
            format!("{} routers, {} computing nodes", t.a, t.a * t.p),
        ),
        (
            "System size".into(),
            format!(
                "{} groups, {} computing nodes",
                t.num_groups(),
                t.num_nodes()
            ),
        ),
        ("Global link arrangement".into(), "Palmtree".into()),
        (
            "Link latency".into(),
            format!(
                "{} (local), {} (global) cycles",
                n.latencies.local_link, n.latencies.global_link
            ),
        ),
        (
            "Virtual channels".into(),
            format!(
                "{} (global ports), {} (injection ports), {} (local ports)",
                n.vcs.global, n.vcs.injection, n.vcs.local
            ),
        ),
        ("Switching".into(), "Virtual Cut-Through".into()),
        (
            "Buffer size (phits)".into(),
            format!(
                "{} (output), {} (local input/VC), {} (global input/VC)",
                n.buffers.output_buffer,
                n.buffers.local_input_per_vc,
                n.buffers.global_input_per_vc
            ),
        ),
        (
            "Packet size".into(),
            format!("{} phits", n.packet_size_phits),
        ),
        (
            "Congestion thresholds".into(),
            format!(
                "{:.0}% (OLM), {:.0}% (Hybrid), T = {} (PB)",
                100.0 * OLM_CONGESTION_FRACTION,
                100.0 * HYBRID_CONGESTION_FRACTION,
                PB_UGAL_THRESHOLD_PACKETS
            ),
        ),
        (
            "Contention thresholds".into(),
            format!(
                "{} (Base, ECtN), {} (Hybrid), {} (ECtN combined)",
                rc.contention_threshold, rc.hybrid_contention_threshold, rc.ectn_combined_threshold
            ),
        ),
        (
            "ECtN partial update".into(),
            format!("{ECTN_UPDATE_PERIOD} cycles"),
        ),
    ];
    for (k, v) in rows {
        table.push_row(vec![k, v]);
    }
    table
}

/// Figure 5 (a: UN, b: ADV+1, c: ADV+h): average packet latency and accepted
/// load versus offered load, one series per routing mechanism. Returns
/// `(latency_table, throughput_table)`.
pub fn figure5(scale: &Scale, pattern: PatternKind) -> (Table, Table) {
    let routings = figure5_routings(pattern);
    let loads = loads(scale, pattern);
    let series = sweep_grid(scale, &routings, loads, |&routing, &load| {
        base_config(scale, routing, pattern, load)
    });
    let label = pattern.label();
    load_tables(
        [
            format!("Figure 5 ({label}) — average packet latency (cycles)"),
            format!("Figure 5 ({label}) — accepted load (phits/node/cycle)"),
        ],
        &routings.iter().map(|r| r.label()).collect::<Vec<_>>(),
        loads,
        &series,
    )
}

/// Figure 6: average latency under an ADV+1/UN mix at a fixed total load,
/// versus the percentage of uniform traffic.
pub fn figure6(scale: &Scale, total_load: f64) -> Table {
    let fractions = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let rows = sweep_grid(scale, &fractions, &ADAPTIVE, |&frac, &routing| {
        let pattern = PatternKind::Mixed {
            offset: 1,
            uniform_fraction: frac,
        };
        base_config(scale, routing, pattern, total_load)
    });
    let mut table = series_table(
        format!("Figure 6 — latency with mixed ADV+1/UN traffic at load {total_load:.2}"),
        "pct_uniform",
        &ADAPTIVE.map(|r| r.label()),
    );
    for (frac, reports) in fractions.iter().zip(&rows) {
        let mut row = vec![frac * 100.0];
        row.extend(reports.iter().map(|r| r.avg_packet_latency));
        table.push_numeric_row(&row, 2);
    }
    table
}

/// One transient run (UN → ADV+1 at the end of warm-up) for one mechanism.
fn transient_run(
    scale: &Scale,
    routing: RoutingKind,
    network: NetworkConfig,
    load: f64,
    follow: u64,
) -> TransientReport {
    let schedule = TrafficSchedule::switch_at(
        PatternKind::Uniform,
        PatternKind::Adversarial { offset: 1 },
        scale.warmup,
    );
    let config = SimulationConfig::builder()
        .topology(scale.topology)
        .network(network)
        .routing(routing)
        .schedule(schedule)
        .offered_load(load)
        .warmup_cycles(scale.warmup)
        .measurement_cycles(follow)
        .seed(1)
        .build()
        .expect("valid configuration");
    run_transient(&config)
}

/// Figures 7a/7b (and 8, 9 via the `network`/`follow`/`window` arguments):
/// latency and misrouted-percentage evolution after a UN→ADV+1 change.
/// Returns `(latency_table, misroute_table)`.
pub fn figure7(
    scale: &Scale,
    network: NetworkConfig,
    load: f64,
    follow: u64,
    window: i64,
    title: &str,
) -> (Table, Table) {
    let reports: Vec<TransientReport> = ADAPTIVE
        .iter()
        .map(|&r| transient_run(scale, r, network, load, follow))
        .collect();
    let columns = ADAPTIVE.map(|r| r.label());
    let [mut latency, mut misroute] = ["average latency (cycles)", "misrouted packets (%)"]
        .map(|what| series_table(format!("{title} — {what}"), "cycle", &columns));

    let start = -(window / 4);
    let mut t = start;
    while t < follow as i64 {
        let mut lat_row = vec![t as f64];
        let mut mis_row = vec![t as f64];
        for report in &reports {
            lat_row.push(report.mean_latency_between(t, t + window));
            mis_row.push(report.mean_misroute_between(t, t + window));
        }
        latency.push_numeric_row(&lat_row, 1);
        misroute.push_numeric_row(&mis_row, 1);
        t += window;
    }
    (latency, misroute)
}

/// Figure 9: long-timescale latency evolution for PB versus ECtN, exposing
/// PB's oscillations. Returns the latency table plus a summary table with the
/// post-convergence oscillation amplitude (std-dev of window means).
pub fn figure9(scale: &Scale, load: f64, follow: u64, window: i64) -> (Table, Table) {
    let routings = [RoutingKind::PiggyBacking, RoutingKind::Ectn];
    let reports: Vec<TransientReport> = routings
        .iter()
        .map(|&r| transient_run(scale, r, scale.network, load, follow))
        .collect();
    let mut latency = Table::new(
        "Figure 9 — latency evolution, PB vs ECtN".to_string(),
        &["cycle", "PB", "ECtN"],
    );
    let mut t = 0i64;
    while t < follow as i64 {
        latency.push_numeric_row(
            &[
                t as f64,
                reports[0].mean_latency_between(t, t + window),
                reports[1].mean_latency_between(t, t + window),
            ],
            1,
        );
        t += window;
    }
    let mut summary = Table::new(
        "Figure 9 — post-convergence oscillation (std-dev of window-mean latency)",
        &["routing", "mean latency", "std dev"],
    );
    for report in &reports {
        let mut stats = df_engine::RunningStats::new();
        let mut w = (follow as i64) / 3;
        while w < follow as i64 {
            let m = report.mean_latency_between(w, w + window);
            if m.is_finite() {
                stats.push(m);
            }
            w += window;
        }
        summary.push_row(vec![
            report.routing.label().to_string(),
            format!("{:.1}", stats.mean()),
            format!("{:.2}", stats.std_dev()),
        ]);
    }
    (latency, summary)
}

/// Figure 10 (a: UN, b: ADV+1): sensitivity of Base to the misrouting
/// threshold. Returns `(latency_table, throughput_table)`.
pub fn figure10(scale: &Scale, pattern: PatternKind, thresholds: &[u32]) -> (Table, Table) {
    let loads = loads(scale, pattern);
    let reference = reference(pattern);
    // one load sweep per threshold, then the oblivious reference
    let series: Vec<Option<u32>> = thresholds.iter().copied().map(Some).chain([None]).collect();
    let reports = sweep_grid(scale, &series, loads, |threshold, &load| match threshold {
        Some(th) => {
            let mut c = base_config(scale, RoutingKind::Base, pattern, load);
            c.routing_config = c.routing_config.with_contention_threshold(*th);
            c
        }
        None => base_config(scale, reference, pattern, load),
    });
    let names: Vec<String> = thresholds.iter().map(|t| format!("th={t}")).collect();
    let columns: Vec<&str> = names.iter().map(String::as_str).collect();
    let label = pattern.label();
    load_tables(
        [
            format!("Figure 10 ({label}) — Base threshold sensitivity, latency (cycles)"),
            format!(
                "Figure 10 ({label}) — Base threshold sensitivity, accepted load (phits/node/cycle)"
            ),
        ],
        &[&columns[..], &[reference.label()]].concat(),
        loads,
        &reports,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_sets_match_the_paper_figures() {
        let un = figure5_routings(PatternKind::Uniform);
        assert_eq!(un[0], RoutingKind::Minimal);
        assert_eq!(un.len(), 6);
        let adv = figure5_routings(PatternKind::Adversarial { offset: 1 });
        assert_eq!(adv[0], RoutingKind::Valiant);
    }

    #[test]
    fn table1_lists_every_parameter_row() {
        let t = table1(&Scale::paper());
        assert_eq!(t.num_rows(), 14);
        assert_eq!(
            t.cell(0, 1).unwrap(),
            "31 ports (h=8 global, p=8 injection, 15 local)"
        );
        assert!(t.cell(4, 1).unwrap().contains("129 groups, 16512"));
    }

    /// The text of Table I at two scales, captured when the fixed
    /// parameters were configuration fields: the constants print the same
    /// table.
    #[test]
    fn table1_text_is_pinned() {
        let small = concat!(
            "# Table I — simulation parameters (small scale)\n",
            "              parameter                                                    value\n",
            "--------------------------------------------------------------------------------\n",
            "            Router size             7 ports (h=2 global, p=2 injection, 3 local)\n",
            "         Router latency                                                 5 cycles\n",
            "      Frequency speedup                                                       2x\n",
            "             Group size                             4 routers, 8 computing nodes\n",
            "            System size                             9 groups, 72 computing nodes\n",
            "Global link arrangement                                                 Palmtree\n",
            "           Link latency                          10 (local), 100 (global) cycles\n",
            "       Virtual channels   2 (global ports), 3 (injection ports), 4 (local ports)\n",
            "              Switching                                      Virtual Cut-Through\n",
            "    Buffer size (phits)  32 (output), 32 (local input/VC), 256 (global input/VC)\n",
            "            Packet size                                                  8 phits\n",
            "  Congestion thresholds                      50% (OLM), 35% (Hybrid), T = 3 (PB)\n",
            "  Contention thresholds            3 (Base, ECtN), 4 (Hybrid), 5 (ECtN combined)\n",
            "    ECtN partial update                                               100 cycles\n",
        );
        let paper = concat!(
            "# Table I — simulation parameters (paper scale)\n",
            "              parameter                                                    value\n",
            "--------------------------------------------------------------------------------\n",
            "            Router size           31 ports (h=8 global, p=8 injection, 15 local)\n",
            "         Router latency                                                 5 cycles\n",
            "      Frequency speedup                                                       2x\n",
            "             Group size                          16 routers, 128 computing nodes\n",
            "            System size                        129 groups, 16512 computing nodes\n",
            "Global link arrangement                                                 Palmtree\n",
            "           Link latency                          10 (local), 100 (global) cycles\n",
            "       Virtual channels   2 (global ports), 3 (injection ports), 4 (local ports)\n",
            "              Switching                                      Virtual Cut-Through\n",
            "    Buffer size (phits)  32 (output), 32 (local input/VC), 256 (global input/VC)\n",
            "            Packet size                                                  8 phits\n",
            "  Congestion thresholds                      50% (OLM), 35% (Hybrid), T = 3 (PB)\n",
            "  Contention thresholds           7 (Base, ECtN), 8 (Hybrid), 12 (ECtN combined)\n",
            "    ECtN partial update                                               100 cycles\n",
        );
        assert_eq!(table1(&Scale::small()).to_text(), small);
        assert_eq!(table1(&Scale::paper()).to_text(), paper);
    }

    #[test]
    fn figure5_bench_scale_produces_full_tables() {
        let scale = Scale::bench();
        let (lat, thr) = figure5(&scale, PatternKind::Uniform);
        assert_eq!(lat.num_rows(), scale.uniform_loads.len());
        assert_eq!(thr.num_rows(), scale.uniform_loads.len());
        assert_eq!(lat.headers().len(), 7);
        // latency numbers are positive and finite at the lowest load
        let first = lat.cell(0, 1).unwrap().parse::<f64>().unwrap();
        assert!(first > 0.0);
    }

    #[test]
    fn figure7_bench_scale_produces_series() {
        let scale = Scale::bench();
        let (lat, mis) = figure7(&scale, scale.network, 0.2, 300, 50, "Figure 7 (bench)");
        assert!(lat.num_rows() > 3);
        assert_eq!(lat.num_rows(), mis.num_rows());
        assert_eq!(lat.headers().len(), 6);
    }
}
