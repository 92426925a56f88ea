//! Multi-job traffic suite: concurrent collective applications with
//! node-disjoint placements sharing one network, layered over background
//! stochastic injection.
//!
//! Extends every correctness contract of the task layer to job sets:
//!
//! 1. **Completion and layering** — every corpus mix completes under every
//!    contention mechanism while background traffic keeps flowing (the
//!    delivered count strictly exceeds the jobs' lowered packets), with
//!    per-job completion cycles, stall distributions and labels.
//! 2. **The pinned corpus** — `GOLDEN_JOBS` in
//!    `tests/common/golden_corpus.rs` fingerprints every mix × routing cell
//!    on both topologies.
//! 3. **Frozen digests** — job-set fingerprints against the digests frozen
//!    from the retired seed kernel.
//! 4. **Snapshot/resume mid-run (format v4)** — a snapshot taken with jobs
//!    mid-collective resumes bit-identically, and re-snapshotting a
//!    restored network reproduces the bytes exactly.
//! 5. **Interference** — the pinned 2-job cell's per-job completion time is
//!    strictly worse shared than solo (each job run alone under the same
//!    configuration), so its slowdown exceeds 1.
//! 6. **Degenerate inputs** — zero-rank and single-rank collectives are
//!    rejected at validation (and their lowerings cannot panic), a job
//!    whose `start_cycle` falls after the cycle budget reports honestly,
//!    and overlapping placements are a build-time [`ConfigError`].
//!
//! Regenerate the pinned table after an intentional semantics change with
//!
//! ```text
//! cargo test --release --test multi_job -- --ignored --nocapture
//! ```
//!
//! and paste the printed constants into `tests/common/golden_corpus.rs` in
//! the same commit.
//!
//! [`ConfigError`]: contention_dragonfly::prelude::ConfigError

use contention_dragonfly::prelude::*;

#[path = "common/frozen.rs"]
#[allow(dead_code)] // the drain helpers are used by the drain suites
mod frozen;

#[path = "common/golden_corpus.rs"]
#[allow(dead_code)]
mod golden_corpus;

use golden_corpus::{
    interference_jobs, job_mixes, job_routings, job_set_config, job_set_fingerprint,
    megafly_job_set_config, GOLDEN_JOBS,
};

// ---------------------------------------------------------------------------
// 1. completion and layering over background traffic
// ---------------------------------------------------------------------------

#[test]
fn every_job_mix_completes_under_every_mechanism() {
    for (mix, jobs) in job_mixes() {
        let task_packets: u64 = jobs.iter().map(|j| j.workload.total_packets()).sum();
        for routing in job_routings() {
            let cfg = job_set_config(jobs.clone(), routing);
            let net = run_job_set(cfg, 200_000);
            let engine = net.jobs().expect("a job set");
            let label = format!("{mix} under {}", routing.label());
            assert!(engine.is_complete(), "{label} did not complete");
            assert_eq!(engine.jobs().len(), jobs.len(), "{label}: job count");
            for (job, spec) in engine.jobs().iter().zip(&jobs) {
                let name = job.spec().label();
                assert_eq!(name, spec.label(), "{label}: job labels");
                assert!(job.is_complete(), "{label}: job {name} incomplete");
                let done = job.completion_cycle().unwrap();
                assert!(
                    done >= spec.start_cycle,
                    "{label}: job {name} finished before it started"
                );
                assert_eq!(job.elapsed_cycles(), Some(done - spec.start_cycle));
                assert!(
                    job.stall_cycles().iter().sum::<u64>() > 0,
                    "{label}: ranks of {name} crossed a real network"
                );
            }
            // jobs layer OVER stochastic generation: background packets
            // must have been delivered on top of the lowered task packets
            let delivered = net.metrics().delivered_packets_total();
            assert!(
                delivered > task_packets,
                "{label}: background traffic must keep flowing \
                 ({delivered} delivered vs {task_packets} task packets)"
            );
        }
    }
}

#[test]
fn jobs_ride_the_scenario_matrix_axis() {
    let jobs = job_mixes().remove(0).1;
    let scenario = Scenario::named("2job-mix").hold(PatternKind::Uniform);
    let scenario = jobs.iter().cloned().fold(scenario, Scenario::job);
    let base = job_set_config(jobs, RoutingKind::Base);
    let matrix = ScenarioMatrix {
        scenarios: vec![scenario],
        loads: vec![0.2],
        routings: vec![RoutingKind::Base, RoutingKind::Ectn],
        ..ScenarioMatrix::new(base)
    };
    let cells = matrix.cells();
    assert_eq!(cells.len(), 2);
    for (key, cfg) in cells {
        assert_eq!(cfg.jobs.len(), 2, "cell {key:?} lost the scenario's jobs");
        cfg.validate().expect("matrix cells stay valid");
    }
}

// ---------------------------------------------------------------------------
// 2. the pinned corpus
// ---------------------------------------------------------------------------

/// Every corpus cell in pinned order: Dragonfly mixes × routings, Megafly
/// mixes × routings, then the interference cell under Base on both
/// topologies.
fn corpus_cells() -> Vec<(&'static str, String, &'static str, SimulationConfig)> {
    let mut cells = Vec::new();
    for (mix, jobs) in job_mixes() {
        for routing in job_routings() {
            cells.push((
                "dragonfly",
                mix.to_string(),
                routing.label(),
                job_set_config(jobs.clone(), routing),
            ));
        }
    }
    for (mix, jobs) in job_mixes() {
        for routing in job_routings() {
            cells.push((
                "megafly",
                mix.to_string(),
                routing.label(),
                megafly_job_set_config(jobs.clone(), routing),
            ));
        }
    }
    cells.push((
        "dragonfly",
        "interfere".to_string(),
        RoutingKind::Base.label(),
        job_set_config(interference_jobs(), RoutingKind::Base),
    ));
    cells.push((
        "megafly",
        "interfere".to_string(),
        RoutingKind::Base.label(),
        megafly_job_set_config(interference_jobs(), RoutingKind::Base),
    ));
    cells
}

#[test]
fn golden_multi_job_corpus() {
    let mut expected = GOLDEN_JOBS.iter();
    for (topo, mix, routing, cfg) in corpus_cells() {
        let got = job_set_fingerprint(cfg);
        let &(et, em, er, makespan, sum, delivered, stalls, lat) =
            expected.next().expect("one row per corpus cell");
        assert_eq!(
            (et, em, er),
            (topo, mix.as_str(), routing),
            "table order drifted"
        );
        assert_eq!(
            got,
            (makespan, sum, delivered, stalls, lat),
            "{mix} under {routing} on {topo} diverged from the pinned corpus"
        );
    }
    assert!(expected.next().is_none(), "stale rows in the pinned table");
}

/// Regeneration helper (see the module docs).
#[test]
#[ignore = "regenerates the pinned multi-job corpus"]
fn regenerate_multi_job_corpus() {
    println!("pub const GOLDEN_JOBS: &[(&str, &str, &str, u64, u64, u64, u64, u64)] = &[");
    println!(
        "    // (topology, mix, routing, makespan, completion_sum, delivered, job_stalls, latency_bits)"
    );
    for (topo, mix, routing, cfg) in corpus_cells() {
        let (makespan, sum, delivered, stalls, lat) = job_set_fingerprint(cfg);
        println!(
            "    ({topo:?}, {mix:?}, {routing:?}, {makespan}, {sum}, {delivered}, {stalls}, {lat:#018X}),"
        );
    }
    println!("];");
}

// ---------------------------------------------------------------------------
// 3. frozen digests
// ---------------------------------------------------------------------------

#[test]
fn job_sets_match_the_frozen_digests() {
    let (_, jobs) = job_mixes().remove(1);
    for (routing, frozen) in [
        (RoutingKind::Base, 0xF1FC_0DF9_C169_925A),
        (RoutingKind::PiggyBacking, 0xC5A7_F336_A79A_8442),
    ] {
        let reference = job_set_fingerprint(job_set_config(jobs.clone(), routing));
        frozen::assert_frozen(
            &format!("3-job mix under {}", routing.label()),
            &reference,
            frozen,
        );
    }
}

// ---------------------------------------------------------------------------
// 4. snapshot / resume mid-run (format v4)
// ---------------------------------------------------------------------------

#[test]
fn snapshot_mid_jobs_resumes_bit_identically() {
    let (_, jobs) = job_mixes().remove(1);
    let cfg = job_set_config(jobs, RoutingKind::PiggyBacking);

    // uninterrupted reference
    let mut reference = Network::new(cfg.clone());
    reference.metrics_mut().start_measurement(0);
    let done = reference
        .run_until_jobs_complete(200_000)
        .expect("reference completes");

    // interrupted run: snapshot halfway, with jobs mid-collective
    let mut first = Network::new(cfg.clone());
    first.metrics_mut().start_measurement(0);
    first.run_cycles(done / 2);
    let engine = first.jobs().expect("jobs configured");
    assert!(
        engine.pending_packets() > 0 && !engine.is_complete(),
        "checkpoint must land mid-collective for this test to bite"
    );
    let bytes = first.snapshot();
    drop(first);

    let mut resumed = Network::restore(cfg.clone(), &bytes).expect("snapshot restores");
    let resumed_done = resumed
        .run_until_jobs_complete(200_000)
        .expect("resumed run completes");
    assert_eq!(resumed_done, done, "makespan must match");
    assert_eq!(
        resumed.metrics().delivered_packets_total(),
        reference.metrics().delivered_packets_total()
    );
    let pairs = resumed.jobs().unwrap().jobs().iter();
    for (i, (got, want)) in pairs.zip(reference.jobs().unwrap().jobs()).enumerate() {
        assert_eq!(
            got.completion_cycle(),
            want.completion_cycle(),
            "job {i} completion cycle must match"
        );
        assert_eq!(
            got.stall_cycles(),
            want.stall_cycles(),
            "job {i} per-rank stall totals must match"
        );
    }
    // restore followed by snapshot reproduces the bytes exactly
    let restored = Network::restore(cfg.clone(), &bytes).expect("snapshot restores");
    assert_eq!(
        restored.snapshot(),
        bytes,
        "v4 round-trip is byte-identical"
    );

    // and where the retired seed kernel landed from the same snapshot
    frozen::assert_frozen(
        "resumed job set",
        &(done, reference.metrics().delivered_packets_total()),
        0x3449_1BD7_F097_E2DD,
    );
}

#[test]
fn job_snapshot_rejects_configuration_disagreement() {
    let (_, jobs) = job_mixes().remove(0);
    let cfg = job_set_config(jobs, RoutingKind::Base);
    let mut net = Network::new(cfg.clone());
    net.run_cycles(50);
    let bytes = net.snapshot();

    // same topology and traffic, but no job set: the restore must refuse.
    // The job list is part of the configuration fingerprint, so the
    // refusal happens at the outermost guard (the per-section presence
    // check behind it is defence in depth).
    let mut plain = cfg.clone();
    plain.jobs = Vec::new();
    let err = match Network::restore(plain, &bytes) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("restore without the job set must be refused"),
    };
    assert!(
        err.contains("different configuration"),
        "error must name the configuration disagreement: {err}"
    );
}

// ---------------------------------------------------------------------------
// 5. interference: shared strictly worse than solo
// ---------------------------------------------------------------------------

#[test]
fn pinned_interference_cell_is_strictly_worse_than_solo() {
    let cfg = job_set_config(interference_jobs(), RoutingKind::Base);
    let net = run_job_set(cfg.clone(), 200_000);
    let shared = net.jobs().expect("a job set").jobs();
    // each job alone: the same configuration with every other job removed
    let solo_runs: Vec<Network> = cfg
        .jobs
        .iter()
        .map(|job| {
            let alone = SimulationConfig {
                jobs: vec![job.clone()],
                ..cfg.clone()
            };
            run_job_set(alone, 200_000)
        })
        .collect();
    let solo: Vec<&Job> = solo_runs
        .iter()
        .map(|n| &n.jobs().unwrap().jobs()[0])
        .collect();
    for (shared, solo) in shared.iter().zip(&solo) {
        assert!(
            shared.is_complete() && solo.is_complete(),
            "both runs complete"
        );
        let (shared_elapsed, solo_elapsed) = (shared.elapsed_cycles(), solo.elapsed_cycles());
        let name = shared.spec().label();
        assert!(
            shared_elapsed.unwrap() > solo_elapsed.unwrap(),
            "job {name} must be strictly slower shared ({shared_elapsed:?}) than solo ({solo_elapsed:?})"
        );
        let slowdown = shared_elapsed.unwrap() as f64 / solo_elapsed.unwrap() as f64;
        assert!(
            slowdown > 1.0,
            "job {name} slowdown must exceed 1.0, got {slowdown}"
        );
    }

    // the comparison itself is pinned
    let expected: Vec<(Option<u64>, Option<u64>)> = shared
        .iter()
        .zip(&solo)
        .map(|(shared, solo)| (shared.elapsed_cycles(), solo.elapsed_cycles()))
        .collect();
    frozen::assert_frozen("interference cell", &expected, 0xD3E9_9DB5_A9FA_9C7F);

    // and survives a mid-run snapshot/resume byte-identically
    let mut first = Network::new(cfg.clone());
    first.metrics_mut().start_measurement(0);
    let done = net.jobs().unwrap().completion_cycle().unwrap();
    first.run_cycles(done / 2);
    assert!(!first.jobs().unwrap().is_complete());
    let bytes = first.snapshot();
    let restored = Network::restore(cfg.clone(), &bytes).expect("snapshot restores");
    assert_eq!(restored.snapshot(), bytes);
    let mut resumed = Network::restore(cfg, &bytes).expect("snapshot restores");
    assert_eq!(resumed.run_until_jobs_complete(200_000), Some(done));
}

// ---------------------------------------------------------------------------
// 6. degenerate inputs
// ---------------------------------------------------------------------------

#[test]
fn zero_and_single_rank_collectives_are_rejected_but_cannot_panic() {
    for ranks in [0, 1] {
        for kind in [
            CollectiveKind::AllToAll,
            CollectiveKind::AllReduce(AllReduceAlgorithm::Ring),
            CollectiveKind::AllReduce(AllReduceAlgorithm::RecursiveDoubling),
            CollectiveKind::Barrier,
            CollectiveKind::SweepNeighbors,
        ] {
            let w = TaskWorkload::single(kind, ranks, 1);
            assert!(
                w.validate(9, 8).is_err(),
                "{} with {ranks} ranks must be rejected",
                w.label()
            );
            // the lowering and step accounting must not underflow even for
            // inputs validation rejects (defence in depth)
            let scripts = w.lower();
            assert_eq!(scripts.len(), ranks as usize);
            let _ = w.total_steps();
            let _ = w.total_packets();
        }
    }
}

#[test]
fn job_with_zero_rank_workload_is_a_config_error() {
    let jobs = vec![JobSpec::new(
        TaskWorkload::single(CollectiveKind::Barrier, 0, 1),
        JobPlacement::block(0),
    )];
    let err = SimulationConfig::builder()
        .topology(DragonflyParams::small())
        .network(NetworkConfig::fast_test())
        .routing(RoutingKind::Base)
        .pattern(PatternKind::Uniform)
        .offered_load(0.2)
        .warmup_cycles(100)
        .measurement_cycles(100)
        .seed(1)
        .jobs(jobs)
        .build()
        .unwrap_err();
    assert!(matches!(err, ConfigError::Workload(_)), "got {err:?}");
}

#[test]
fn job_starting_after_the_cycle_budget_reports_honestly() {
    let jobs = vec![JobSpec::new(
        TaskWorkload::single(CollectiveKind::Barrier, 4, 1),
        JobPlacement::block(0),
    )
    .starting_at(10_000)];
    let cfg = job_set_config(jobs, RoutingKind::Base);
    let net = run_job_set(cfg, 500);
    let engine = net.jobs().expect("a job set");
    assert!(!engine.is_complete(), "the job never started");
    assert!(engine.completion_cycle().is_none());
    let job = &engine.jobs()[0];
    assert!(!job.is_complete());
    assert_eq!(job.completion_cycle(), None);
    assert_eq!(job.elapsed_cycles(), None);
    assert_eq!(
        job.stall_cycles().iter().sum::<u64>(),
        0,
        "a job that never starts cannot have stalled"
    );
}

#[test]
fn overlapping_job_placements_are_a_build_time_config_error() {
    let w = TaskWorkload::single(CollectiveKind::Barrier, 8, 1);
    let jobs = vec![
        JobSpec::new(w.clone(), JobPlacement::block(0)),
        JobSpec::new(w, JobPlacement::block(4)),
    ];
    let err = job_set_config_err(jobs);
    match err {
        ConfigError::Workload(msg) => {
            assert!(msg.contains("node 4"), "error names the node: {msg}");
        }
        other => panic!("expected a Workload error, got {other:?}"),
    }
}

/// Build the corpus configuration without panicking on validation failure.
fn job_set_config_err(jobs: Vec<JobSpec>) -> ConfigError {
    SimulationConfig::builder()
        .topology(DragonflyParams::small())
        .network(NetworkConfig::fast_test())
        .routing(RoutingKind::Base)
        .pattern(PatternKind::Uniform)
        .offered_load(0.2)
        .warmup_cycles(200)
        .measurement_cycles(400)
        .seed(11)
        .jobs(jobs)
        .build()
        .unwrap_err()
}
