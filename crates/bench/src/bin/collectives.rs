//! Collective-workload benchmark: application completion time, per-rank
//! stall totals and packet latency for a set of task-layer collectives
//! (all-to-all, both all-reduce algorithms, barriers, neighbor sweeps and
//! a barrier-gated sequence) under each contention/credit-based routing
//! mechanism. Prints the table and writes `COLLECTIVES.csv` into the
//! working directory; every cell is seeded and deterministic, so the CSV
//! reproduces bit-for-bit on any machine (CI regenerates it and diffs
//! against the committed copy).
//!
//! Usage:
//! ```text
//! cargo run --release -p df-bench --bin collectives -- [small|medium|paper] [csv]
//! ```

use df_bench::{write_or_exit, Scale};
use df_engine::Table;
use df_routing::RoutingKind;
use df_sim::{run_job_set, SimulationConfig};
use df_traffic::{
    AllReduceAlgorithm, CollectiveKind, JobPlacement, JobSpec, PatternKind, TaskWorkload,
};

/// The workload mix, each a job of its own: every collective kind, both
/// all-reduce algorithms, both placements, and a barrier-gated sequence.
/// Rank counts stay valid on every scale (the smallest topology has 72
/// nodes).
fn jobs() -> Vec<JobSpec> {
    let spread = JobPlacement::group_spread(0);
    let block = JobPlacement::block(0);
    let rd = CollectiveKind::AllReduce(AllReduceAlgorithm::RecursiveDoubling);
    vec![
        JobSpec::new(
            TaskWorkload::single(CollectiveKind::AllToAll, 16, 2),
            spread,
        ),
        JobSpec::new(
            TaskWorkload::single(CollectiveKind::AllReduce(AllReduceAlgorithm::Ring), 16, 2),
            block,
        ),
        JobSpec::new(TaskWorkload::single(rd, 16, 2), spread),
        JobSpec::new(TaskWorkload::single(CollectiveKind::Barrier, 32, 1), spread),
        JobSpec::new(
            TaskWorkload::single(CollectiveKind::SweepNeighbors, 16, 4),
            block,
        ),
        JobSpec::new(
            TaskWorkload {
                ranks: 16,
                sequence: vec![CollectiveKind::Barrier, rd],
                packets_per_message: 2,
            },
            spread,
        ),
    ]
}

const ROUTINGS: [RoutingKind; 4] = [
    RoutingKind::Base,
    RoutingKind::PiggyBacking,
    RoutingKind::Ectn,
    RoutingKind::Olm,
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args_dragonfly_only("collectives", &["csv"], &args);
    let csv_stdout = args.iter().any(|a| a == "csv");

    let mut table = Table::new(
        format!(
            "Collective workloads — application completion time ({} scale)",
            scale.name
        ),
        &[
            "workload",
            "routing",
            "ranks",
            "steps",
            "completion_cycle",
            "delivered_packets",
            "total_stall_cycles",
            "max_rank_stall",
            "mean_rank_stall",
            "avg_packet_latency",
        ],
    );
    for job in jobs() {
        let workload = &job.workload;
        for routing in ROUTINGS {
            // a closed run: the collective alone on the network (offered
            // load 0 switches the stochastic injectors off)
            let config = SimulationConfig::builder()
                .topology(scale.topology)
                .network(scale.network)
                .routing(routing)
                .pattern(PatternKind::Uniform)
                .offered_load(0.0)
                .warmup_cycles(200)
                .measurement_cycles(400)
                .seed(11)
                .job(job.clone())
                .build()
                .expect("valid collective configuration");
            let net = run_job_set(config, 2_000_000);
            let report = &net.jobs().expect("a one-job set").jobs()[0];
            assert!(
                report.is_complete(),
                "{} under {} must complete within the cycle budget",
                workload.label(),
                routing.label()
            );
            let stalls = report.stall_cycles();
            let total_stalls: u64 = stalls.iter().sum();
            table.push_row(vec![
                workload.label(),
                routing.label().to_string(),
                workload.ranks.to_string(),
                report.total_steps().to_string(),
                report.completion_cycle().expect("completed").to_string(),
                net.metrics().delivered_packets_total().to_string(),
                total_stalls.to_string(),
                stalls.iter().copied().max().unwrap_or(0).to_string(),
                format!("{:.2}", total_stalls as f64 / stalls.len().max(1) as f64),
                format!("{:.3}", net.metrics().window_summary().avg_packet_latency),
            ]);
        }
    }

    if csv_stdout {
        print!("{}", table.to_csv());
    } else {
        println!("{}", table.to_text());
    }
    write_or_exit("COLLECTIVES.csv", &table.to_csv());
    eprintln!("wrote COLLECTIVES.csv");
}
