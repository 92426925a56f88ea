//! Availability under sustained failure churn: throughput retained and
//! packet loss versus failure rate × repair time, per routing mechanism —
//! now executed through the crash-recoverable sweep service with multiple
//! seeds per cell.
//!
//! Each (MTBF, MTTR) cell is a matrix scenario carrying a seeded
//! [`ChurnModel`] — exponential failure/repair processes over global links,
//! local links and nodes. The churn seed depends only on the cell, never on
//! the routing or traffic seed, so discovery-only Base and both
//! link-state-flooding mechanisms (PB, ECtN) replay the identical failure
//! sequence, and every traffic seed measures the same outage trace.
//! Throughput retained is the cell's pooled measured-window delivery over
//! the same routing's churn-free pool, so congestion differences between
//! mechanisms divide out; packet loss is dropped-on-fault packets over
//! everything injected. Latency is reported as the across-seed mean ± ci95.
//!
//! Usage:
//! ```text
//! cargo run --release -p df-bench --bin availability -- \
//!     [small|medium|paper] [run-dir=DIR] [seeds=N] [threads=N]
//! ```
//!
//! A mistyped scale or `key=`, `seeds=0`, or a `--topology=` selection (the
//! sweep is built on the canonical Dragonfly), aborts with exit code 2. Runs
//! are journaled and checkpointed under the run directory
//! (default `target/availability-run`): kill the process at any point and
//! rerun the same command to resume; the finished surface is byte-identical
//! either way. Prints the table and writes `AVAILABILITY.csv` into the
//! working directory.

use std::path::PathBuf;

use df_bench::{parse_kv, parse_seeds, run_service_or_exit, write_or_exit, Scale};
use df_engine::Table;
use df_routing::RoutingKind;
use df_sim::{ChurnModel, ChurnRate, RunnerOptions, Scenario, ScenarioMatrix, SimulationConfig};
use df_traffic::PatternKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale =
        Scale::from_args_dragonfly_only("availability", &["seeds=", "run-dir=", "threads="], &args);
    let seeds = parse_seeds(&args, 5);
    let run_dir = args
        .iter()
        .find_map(|a| a.strip_prefix("run-dir="))
        .unwrap_or("target/availability-run");

    let warmup = 200u64;
    let measure = scale.measure.max(500);
    // Global-link MTBFs from gentle to harsh (per-link failure rate
    // 1/MTBF per cycle); local links fail half as often, nodes a quarter.
    let mtbfs = [8_000.0, 4_000.0, 2_000.0];
    let mttrs = [250.0, 500.0];
    let routings = [
        RoutingKind::Base,
        RoutingKind::PiggyBacking,
        RoutingKind::Ectn,
    ];

    // One healthy reference scenario (the denominator of "retained") plus
    // one churn scenario per (MTBF, MTTR) cell. The churn seed depends only
    // on the cell, so every routing and every traffic seed replays the
    // identical failure sequence.
    let mut scenarios =
        vec![Scenario::named("healthy").hold(PatternKind::Adversarial { offset: 1 })];
    let mut cell_of: Vec<(String, f64, f64)> = Vec::new();
    for (i, &mtbf) in mtbfs.iter().enumerate() {
        for (j, &mttr) in mttrs.iter().enumerate() {
            let seed = 31 + (i as u64) * 10 + j as u64;
            let name = format!("churn-m{}-r{}", mtbf as u64, mttr as u64);
            cell_of.push((name.clone(), mtbf, mttr));
            scenarios.push(
                Scenario::named(name)
                    .hold(PatternKind::Adversarial { offset: 1 })
                    .churn(
                        ChurnModel::new(seed, warmup, warmup + measure)
                            .global_links(ChurnRate::new(mtbf, mttr))
                            .local_links(ChurnRate::new(2.0 * mtbf, mttr))
                            .nodes(ChurnRate::new(4.0 * mtbf, mttr)),
                    ),
            );
        }
    }

    let base = SimulationConfig::builder()
        .topology(scale.topology)
        .network(scale.network)
        .warmup_cycles(warmup)
        .measurement_cycles(measure)
        .seed(11)
        .build()
        .expect("valid availability configuration");
    let matrix = ScenarioMatrix {
        base,
        scenarios,
        loads: vec![0.2],
        routings: routings.to_vec(),
        seeds_per_cell: seeds,
    };

    eprintln!(
        "availability: {} topology, ADV+1 at load 0.2, churn over [{warmup}, {}), \
         MTBF sweep {mtbfs:?} x MTTR {mttrs:?}, {seeds} seeds/cell -> {run_dir}",
        scale.name,
        warmup + measure
    );

    let mut options = RunnerOptions::new(PathBuf::from(run_dir));
    options.threads = parse_kv(&args, "threads").unwrap_or(df_sim::num_threads() as u64) as usize;
    let cells = run_service_or_exit("availability", &matrix, &options);
    let report = |scenario: &str, routing: RoutingKind| {
        let cell = cells
            .iter()
            .find(|c| c.key.scenario == scenario && c.key.routing == routing);
        &cell.expect("every matrix cell is present").report
    };
    // Pooled delivery of the churn-free scenario, per routing.
    let healthy = |routing| report("healthy", routing).delivered_packets;

    let header = "routing,mtbf_cycles,mttr_cycles,failure_rate_per_link_cycle,seeds,\
         delivered_window,healthy_window,throughput_retained,avg_latency,latency_ci95,\
         dropped_packets,retargeted_packets,injected_packets,packet_loss";
    let header: Vec<&str> = header.split(',').collect();
    let mut table = Table::new("availability under failure churn", &header);
    for (name, mtbf, mttr) in &cell_of {
        for routing in routings {
            let r = report(name, routing);
            let healthy = healthy(routing);
            let retained = r.delivered_packets as f64 / healthy as f64;
            let loss = r.dropped_on_fault_packets as f64 / r.injected_packets as f64;
            table.push_row(vec![
                routing.label().to_string(),
                mtbf.to_string(),
                mttr.to_string(),
                format!("{:.6e}", 1.0 / mtbf),
                seeds.to_string(),
                r.delivered_packets.to_string(),
                healthy.to_string(),
                format!("{retained:.4}"),
                format!("{:.2}", r.avg_packet_latency),
                format!("{:.2}", r.latency_ci95),
                r.dropped_on_fault_packets.to_string(),
                r.retargeted_packets.to_string(),
                r.injected_packets.to_string(),
                format!("{loss:.6}"),
            ]);
        }
    }
    let csv = table.to_csv();
    print!("{csv}");
    write_or_exit("AVAILABILITY.csv", &csv);
    eprintln!("wrote AVAILABILITY.csv");

    // The availability headline: at every failure rate, the mechanisms
    // that flood link state must retain at least as much throughput as
    // discovery-only Base. Report the comparison so a regression is
    // visible in the bench output, not just in the committed CSV.
    for (name, mtbf, mttr) in &cell_of {
        let retained =
            |routing| report(name, routing).delivered_packets as f64 / healthy(routing) as f64;
        let base = retained(RoutingKind::Base);
        let pb = retained(RoutingKind::PiggyBacking);
        let ectn = retained(RoutingKind::Ectn);
        eprintln!(
            "  mtbf {mtbf:>6} mttr {mttr:>4}: retained Base {base:.4}  PB {pb:.4} ({})  \
             ECtN {ectn:.4} ({})",
            if pb > base { "ahead" } else { "BEHIND" },
            if ectn > base { "ahead" } else { "BEHIND" },
        );
    }
}
