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
//! Each row is one seed and the table has no ci95 column, so a slowdown
//! within a few percent of 1 is not resolved: it cannot be told from the
//! seed-to-seed spread of either run (the PB mini-app row of the 3-job mix
//! reads 0.9739, a job that finished sooner shared than alone).
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
use df_sim::{run_job_set, SimulationConfig};
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
            let net = run_job_set(config.clone(), 2_000_000);
            let set = net.jobs().expect("a job set");
            assert!(
                set.is_complete(),
                "{mix} under {} must complete within the cycle budget",
                routing.label()
            );
            for (spec, shared) in jobs.iter().zip(set.jobs()) {
                // the same configuration with every other job removed
                let alone = SimulationConfig {
                    jobs: vec![spec.clone()],
                    ..config.clone()
                };
                let solo = run_job_set(alone, 2_000_000);
                let solo = &solo.jobs().expect("a one-job set").jobs()[0];
                let solo_elapsed = solo.elapsed_cycles().expect("solo run completed");
                let shared_elapsed = shared.elapsed_cycles().expect("shared run completed");
                table.push_row(vec![
                    mix.to_string(),
                    spec.label(),
                    routing.label().to_string(),
                    spec.workload.ranks.to_string(),
                    spec.start_cycle.to_string(),
                    solo_elapsed.to_string(),
                    shared_elapsed.to_string(),
                    format!("{:.4}", shared_elapsed as f64 / solo_elapsed as f64),
                    solo.stall_cycles().iter().sum::<u64>().to_string(),
                    shared.stall_cycles().iter().sum::<u64>().to_string(),
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
