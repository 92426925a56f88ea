//! Multi-job interference benchmark: per-job slowdown versus an isolated
//! solo run for a set of concurrent collective job mixes sharing one
//! network under background uniform traffic. Each mix is run once shared
//! (all jobs contending) and once per job solo (identical configuration
//! with only the other jobs removed); the table reports both completion
//! times and the slowdown ratio per job and routing mechanism. Prints the
//! table and writes `INTERFERENCE.csv` into the working directory; every
//! cell is seeded and deterministic, so the CSV reproduces bit-for-bit on
//! any machine (CI regenerates it and diffs against the committed copy).
//!
//! Topology-aware: `--topology=megafly` runs the same mixes on the
//! Dragonfly+ instance.
//!
//! Usage:
//! ```text
//! cargo run --release -p df-bench --bin interference -- [small|medium|paper] [csv] [--topology=...]
//! ```

use df_bench::{or_exit_2, write_or_exit, Scale};
use df_engine::Table;
use df_routing::RoutingKind;
use df_sim::{run_interference, SimulationConfig};
use df_traffic::{
    AllReduceAlgorithm, CollectiveKind, JobPlacement, JobSpec, PatternKind, TaskWorkload,
};

/// The job mixes: a symmetric bandwidth-heavy pair on interleaved
/// group-spread placements (ranks share routers and global links), an
/// asymmetric heavy/light pair, and a three-job mix with a deferred
/// mini-app exercising start cycles and compute delays. Rank counts stay
/// valid on every scale (the smallest topology has 72 nodes).
fn mixes() -> Vec<(&'static str, Vec<JobSpec>)> {
    let a2a = |packets| TaskWorkload::single(CollectiveKind::AllToAll, 8, packets);
    let ring = TaskWorkload::single(CollectiveKind::AllReduce(AllReduceAlgorithm::Ring), 8, 2);
    let mini = TaskWorkload::mini_app(8, 2, AllReduceAlgorithm::RecursiveDoubling, 1);
    vec![
        (
            "a2a+a2a",
            vec![
                JobSpec::new(a2a(6), JobPlacement::group_spread(0)),
                JobSpec::new(a2a(6), JobPlacement::group_spread(1)),
            ],
        ),
        (
            "a2a+ring",
            vec![
                JobSpec::new(a2a(2), JobPlacement::block(0)),
                JobSpec::new(ring.clone(), JobPlacement::block(8)),
            ],
        ),
        (
            "3job",
            vec![
                JobSpec::new(a2a(2), JobPlacement::block(0)),
                JobSpec::new(ring, JobPlacement::block(8)),
                JobSpec::new(mini, JobPlacement::block(16))
                    .starting_at(50)
                    .with_compute_delay(5),
            ],
        ),
    ]
}

const ROUTINGS: [RoutingKind; 3] = [
    RoutingKind::Base,
    RoutingKind::PiggyBacking,
    RoutingKind::Ectn,
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = or_exit_2(Scale::from_arg_list(Scale::small(), &["csv"], &args));
    let csv_stdout = args.iter().any(|a| a == "csv");

    let mut table = Table::new(
        format!(
            "Multi-job interference — per-job slowdown vs isolation ({} scale, {:?})",
            scale.name, scale.topology_kind
        ),
        &[
            "mix",
            "job",
            "routing",
            "ranks",
            "start_cycle",
            "solo_elapsed",
            "shared_elapsed",
            "slowdown",
            "solo_stalls",
            "shared_stalls",
        ],
    );
    for (mix, jobs) in mixes() {
        for routing in ROUTINGS {
            let config = SimulationConfig::builder()
                .topology(scale.topology_params())
                .network(scale.network)
                .routing(routing)
                .pattern(PatternKind::Uniform)
                .offered_load(0.2)
                .warmup_cycles(200)
                .measurement_cycles(400)
                .seed(11)
                .jobs(jobs.clone())
                .build()
                .expect("valid multi-job configuration");
            let report = run_interference(config, 2_000_000);
            assert!(
                report.shared.all_completed,
                "{mix} under {} must complete within the cycle budget",
                routing.label()
            );
            for (i, spec) in jobs.iter().enumerate() {
                let shared = &report.shared.jobs[i];
                let solo = &report.solo[i];
                table.push_row(vec![
                    mix.to_string(),
                    spec.label(),
                    routing.label().to_string(),
                    spec.workload.ranks.to_string(),
                    spec.start_cycle.to_string(),
                    solo.elapsed_cycles.expect("solo run completed").to_string(),
                    shared
                        .elapsed_cycles
                        .expect("shared run completed")
                        .to_string(),
                    format!("{:.4}", report.slowdown(i).expect("both completed")),
                    solo.total_stall_cycles.to_string(),
                    shared.total_stall_cycles.to_string(),
                ]);
            }
        }
    }

    if csv_stdout {
        print!("{}", table.to_csv());
    } else {
        println!("{}", table.to_text());
    }
    write_or_exit("INTERFERENCE.csv", &table.to_csv());
    eprintln!("wrote INTERFERENCE.csv");
}
