//! Collective task-layer suite: rank-level workloads (all-to-all,
//! all-reduce, barriers, neighbour sweeps) executed on the packet engine,
//! each as a closed run — a one-job set alone on the network (offered load
//! 0).
//!
//! Extends every correctness contract of the simulator to the task layer:
//!
//! 1. **Completion** — every collective completes under every contention
//!    mechanism, reporting an application completion time, a per-step
//!    timeline and rank stall cycles, with exact packet conservation
//!    (offered load 0 generates no stochastic traffic, so injected ==
//!    delivered == the job set's lowered packet count).
//! 2. **The pinned corpus** — `GOLDEN_COLLECTIVES` in
//!    `tests/common/golden_corpus.rs` fingerprints every workload ×
//!    routing cell.
//! 3. **Frozen digests** — fingerprints of the same workloads against the
//!    digests frozen from the retired seed kernel.
//! 4. **Snapshot/resume mid-collective** — a snapshot taken with sends
//!    outstanding and a partially executed script resumes bit-identically.
//! 5. **Behaviour under faults** — a router drain mid-collective delays
//!    but cannot lose traffic (completion guaranteed); a permanently
//!    failed rank stalls its peers honestly (bounded budget, no hang, no
//!    spurious completion).
//!
//! Regenerate the pinned table after an intentional semantics change with
//!
//! ```text
//! cargo test --release --test collectives -- --ignored --nocapture
//! ```
//!
//! and paste the printed constants into `tests/common/golden_corpus.rs` in
//! the same commit.

use contention_dragonfly::prelude::*;

#[path = "common/frozen.rs"]
#[allow(dead_code)] // the drain helpers are used by the drain suites
mod frozen;

#[path = "common/golden_corpus.rs"]
#[allow(dead_code)]
mod golden_corpus;

use golden_corpus::{
    collective_config, collective_fingerprint, collective_routings, collective_workloads,
    job_mixes, job_set_config, GOLDEN_COLLECTIVES,
};

fn a2a_spread() -> JobSpec {
    JobSpec::new(
        TaskWorkload::single(CollectiveKind::AllToAll, 8, 2),
        JobPlacement::group_spread(0),
    )
}

fn ring(placement: JobPlacement) -> JobSpec {
    JobSpec::new(
        TaskWorkload::single(CollectiveKind::AllReduce(AllReduceAlgorithm::Ring), 8, 2),
        placement,
    )
}

// ---------------------------------------------------------------------------
// 1. completion, conservation and the application-level report
// ---------------------------------------------------------------------------

#[test]
fn every_collective_completes_under_every_mechanism() {
    for job in collective_workloads() {
        let workload = &job.workload;
        let total_packets = workload.total_packets();
        let total_steps = workload.total_steps();
        for routing in collective_routings() {
            let cfg = collective_config(job.clone(), routing);
            let net = run_job_set(cfg, 200_000);
            let report = &net.jobs().expect("a job set").jobs()[0];
            let label = format!("{} under {}", workload.label(), routing.label());
            assert!(report.is_complete(), "{label} did not complete");
            assert_eq!(report.total_steps(), total_steps, "{label}: step count");
            assert_eq!(
                report.steps_completed(),
                total_steps,
                "{label}: unfinished steps"
            );
            assert_eq!(
                net.metrics().delivered_packets_total(),
                total_packets,
                "{label}: a closed run must deliver exactly the lowered packets"
            );
            // the step timeline is monotone and ends at the completion cycle
            let cycles: Vec<u64> = report
                .step_completion_cycles()
                .iter()
                .map(|c| c.expect("every step completed"))
                .collect();
            assert!(
                cycles.windows(2).all(|w| w[0] <= w[1]),
                "{label}: step completion cycles must be monotone"
            );
            assert_eq!(
                cycles.last().copied(),
                report.completion_cycle(),
                "{label}: the last step completes at the application completion time"
            );
            // messages traverse a real network: some rank must have waited
            assert!(
                report.stall_cycles().iter().sum::<u64>() > 0,
                "{label}: rank stalls cannot all be zero"
            );
            assert!(
                net.metrics().window_summary().avg_packet_latency > 0.0,
                "{label}: latency"
            );
        }
    }
}

#[test]
fn job_set_at_offered_load_zero_injects_exactly_the_lowered_packets() {
    let two_jobs = job_mixes().swap_remove(0).1;
    for jobs in [vec![a2a_spread()], two_jobs] {
        let total: u64 = jobs.iter().map(|j| j.workload.total_packets()).sum();
        let mut cfg = job_set_config(jobs, RoutingKind::Base);
        // the corpus load (0.2) would generate thousands of packets in that
        // span — at load 0 only the lowered task packets may exist
        cfg.offered_load = 0.0;
        let mut net = Network::new(cfg);
        net.run_until_jobs_complete(200_000)
            .expect("job set completes");
        assert_eq!(net.injected_packets_total(), total);
        assert_eq!(net.metrics().delivered_packets_total(), total);
        assert_eq!(net.in_flight(), 0);
        let engine = net.jobs().expect("job set configured");
        assert_eq!(engine.pending_packets(), 0);
        let tasks = engine.jobs();
        assert!(tasks.iter().all(|t| t.steps_completed() == t.total_steps()));
        assert_eq!(
            net.metrics().rank_stall_cycles(),
            tasks.iter().flat_map(|t| t.stall_cycles()).sum::<u64>()
        );
    }
}

// ---------------------------------------------------------------------------
// 2. the pinned corpus
// ---------------------------------------------------------------------------

#[test]
fn golden_collective_corpus() {
    let mut expected = GOLDEN_COLLECTIVES.iter();
    for job in collective_workloads() {
        let workload = &job.workload;
        for routing in collective_routings() {
            let cfg = collective_config(job.clone(), routing);
            let got = collective_fingerprint(cfg);
            let &(ew, er, done, delivered, stalls, lat) =
                expected.next().expect("one row per workload x routing");
            assert_eq!(
                (ew, er),
                (workload.label().as_str(), routing.label()),
                "table order drifted"
            );
            assert_eq!(
                got,
                (done, delivered, stalls, lat),
                "{} under {} diverged from the pinned corpus",
                workload.label(),
                routing.label()
            );
        }
    }
    assert!(expected.next().is_none(), "stale rows in the pinned table");
}

/// Regeneration helper (see the module docs).
#[test]
#[ignore = "regenerates the pinned collective corpus"]
fn regenerate_collective_corpus() {
    println!("pub const GOLDEN_COLLECTIVES: &[(&str, &str, u64, u64, u64, u64)] = &[");
    println!(
        "    // (workload, routing, completion_cycle, delivered, rank_stall_cycles, latency_bits)"
    );
    for job in collective_workloads() {
        let workload = &job.workload;
        for routing in collective_routings() {
            let cfg = collective_config(job.clone(), routing);
            let (done, delivered, stalls, lat) = collective_fingerprint(cfg);
            println!(
                "    ({:?}, {:?}, {done}, {delivered}, {stalls}, {lat:#018X}),",
                workload.label(),
                routing.label()
            );
        }
    }
    println!("];");
}

// ---------------------------------------------------------------------------
// 3. frozen digests
// ---------------------------------------------------------------------------

#[test]
fn collectives_match_the_frozen_digests() {
    const FROZEN: [u64; 6] = [
        0xF3AA_64EA_5157_7B12,
        0x5902_D405_5B45_1198,
        0xD5A1_1611_AAD6_61DC,
        0xD5A1_1611_AAD6_61DC,
        0xA97F_B3FC_F1D4_EE47,
        0x54F2_932A_F7E3_B8DE,
    ];
    let mut cells = Vec::new();
    for job in [
        a2a_spread(),
        ring(JobPlacement::block(0)),
        JobSpec::new(
            TaskWorkload::single(
                CollectiveKind::AllReduce(AllReduceAlgorithm::RecursiveDoubling),
                12,
                2,
            ),
            JobPlacement::block(0),
        ),
    ] {
        let workload = &job.workload;
        for routing in [RoutingKind::Base, RoutingKind::PiggyBacking] {
            let reference = collective_fingerprint(collective_config(job.clone(), routing));
            cells.push((
                format!("{} under {}", workload.label(), routing.label()),
                reference,
            ));
        }
    }
    frozen::assert_all_frozen("collectives", &cells, &FROZEN);
}

// ---------------------------------------------------------------------------
// 4. snapshot / resume mid-collective
// ---------------------------------------------------------------------------

#[test]
fn snapshot_mid_collective_resumes_bit_identically() {
    let cfg = collective_config(
        ring(JobPlacement::group_spread(0)),
        RoutingKind::PiggyBacking,
    );

    // uninterrupted reference
    let mut reference = Network::new(cfg.clone());
    reference.metrics_mut().start_measurement(0);
    let done = reference
        .run_until_jobs_complete(200_000)
        .expect("reference completes");

    // interrupted run: snapshot halfway, with the script partially executed
    let mut first = Network::new(cfg.clone());
    first.metrics_mut().start_measurement(0);
    first.run_cycles(done / 2);
    let task = &first.jobs().expect("job configured").jobs()[0];
    assert!(
        task.pending_packets() > 0 && !task.is_complete(),
        "checkpoint must land mid-collective for this test to bite"
    );
    let bytes = first.snapshot();
    drop(first);

    let mut resumed = Network::restore(cfg.clone(), &bytes).expect("snapshot restores");
    let resumed_done = resumed
        .run_until_jobs_complete(200_000)
        .expect("resumed run completes");
    assert_eq!(resumed_done, done, "completion cycle must match");
    assert_eq!(
        resumed.metrics().delivered_packets_total(),
        reference.metrics().delivered_packets_total()
    );
    assert_eq!(
        resumed.jobs().unwrap().jobs()[0].stall_cycles(),
        reference.jobs().unwrap().jobs()[0].stall_cycles(),
        "per-rank stall totals must match"
    );
    assert_eq!(
        resumed.metrics().window_summary().avg_packet_latency,
        reference.metrics().window_summary().avg_packet_latency
    );
    // restore followed by snapshot reproduces the bytes exactly
    let restored = Network::restore(cfg.clone(), &bytes).expect("snapshot restores");
    assert_eq!(restored.snapshot(), bytes);

    // and where the retired seed kernel landed from the same snapshot
    frozen::assert_frozen(
        "resumed collective",
        &(done, reference.metrics().delivered_packets_total()),
        0x4CDE_698E_4734_0A3C,
    );
}

#[test]
fn retired_v4_snapshot_is_refused_by_version_not_misread() {
    // a v4 payload carried a separate single-workload task section ahead of
    // the job section, a v5 payload the duplicated fault facts v6 derives,
    // a v6 payload the fault facts and counters v7 derives, a v7 payload
    // the two dead fields v8 drops, a v8 payload the duplicated counts v9
    // derives, a v9 payload the phit and window counts v10 derives, a v10
    // payload the lengths, shapes and group copies v11 takes from the
    // configuration and a v11 payload no injector gaps; there is no loader
    // for any, so a frame
    // stamped with a retired version must stop at the codec's typed
    // version check
    let cfg = collective_config(a2a_spread(), RoutingKind::Base);
    let mut net = Network::new(cfg.clone());
    net.run_cycles(100);
    let mut bytes = net.snapshot();
    assert_eq!(contention_dragonfly::sim::SNAPSHOT_VERSION, 12);
    for retired in [4u32, 5, 6, 7, 8, 9, 10, 11] {
        bytes[8..12].copy_from_slice(&retired.to_le_bytes());
        let err = Network::restore(cfg.clone(), &bytes).err();
        assert!(
            matches!(
                err,
                Some(contention_dragonfly::engine::CodecError::UnsupportedVersion {
                    supported: 12,
                    found
                }) if found == retired
            ),
            "version {retired}: {err:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// 5. behaviour under faults
// ---------------------------------------------------------------------------

#[test]
fn router_drain_mid_collective_delays_but_completes() {
    let job = a2a_spread();
    for routing in [RoutingKind::Base, RoutingKind::Ectn] {
        let healthy = run_job_set(collective_config(job.clone(), routing), 200_000);
        let done = healthy
            .jobs()
            .unwrap()
            .completion_cycle()
            .expect("healthy run completes");

        // drain router 0 (hosting ranks) through the middle of the run: its
        // nodes pause, nothing is lost, and the collective finishes late
        let mut cfg = collective_config(job.clone(), routing);
        cfg.faults = FaultPlan::new()
            .router_drain(done / 4, RouterId(0))
            .router_restore(done + 50, RouterId(0));
        cfg.validate().expect("fault plan is valid");
        let faulted = run_job_set(cfg, 400_000);
        let Some(faulted_done) = faulted.jobs().unwrap().completion_cycle() else {
            panic!(
                "a drain cannot lose task packets, so the collective must finish ({})",
                routing.label()
            );
        };
        assert!(
            faulted_done > done,
            "pausing rank hosts must delay completion ({})",
            routing.label()
        );
        let delivered = |net: &Network| net.metrics().delivered_packets_total();
        assert_eq!(delivered(&faulted), delivered(&healthy));
        let stalls =
            |net: &Network| -> u64 { net.jobs().unwrap().jobs()[0].stall_cycles().iter().sum() };
        assert!(
            stalls(&faulted) >= stalls(&healthy),
            "peers wait for the drained ranks ({})",
            routing.label()
        );
    }
}

#[test]
fn failed_rank_stalls_peers_without_hanging_or_lying() {
    // permanently fail rank 3's node before it can run: the collective can
    // never finish, the budgeted runner must say so, and progress must be
    // exactly the steps that don't depend on the dead rank
    let mut cfg = collective_config(ring(JobPlacement::block(0)), RoutingKind::Base);
    // block placement: rank 3 lives on node 3
    cfg.faults = FaultPlan::new().node_fail(10, NodeId(3), NodeId(70));
    cfg.validate().expect("fault plan is valid");
    let mut net = Network::new(cfg);
    assert_eq!(
        net.run_until_jobs_complete(20_000),
        None,
        "a dead rank must not complete"
    );
    let task = &net.jobs().expect("job configured").jobs()[0];
    assert!(!task.is_complete());
    assert!(
        task.steps_completed() < task.total_steps(),
        "some steps must remain incomplete"
    );
    // live neighbours piled up stall cycles waiting on the dead rank
    assert!(net.metrics().rank_stall_cycles() > 0);
}
