//! The pinned fingerprint corpus shared by the golden regression suites.
//!
//! `tests/scenario_matrix.rs` pins the kernel's results to these tables;
//! the collective, multi-job and fault suites reuse their builders and
//! fingerprints. Included via `#[path]` from each test binary (files under
//! `tests/common/` are not test roots themselves).
//!
//! If a fingerprint changes after an intentional semantics change,
//! regenerate with
//!
//! ```text
//! cargo test --release --test scenario_matrix -- --ignored --nocapture
//! ```
//!
//! and paste the printed constants in the same commit, calling the update
//! out in the PR description.

use contention_dragonfly::prelude::*;

/// Offered load every corpus run uses.
pub const LOAD: f64 = 0.2;
/// Seed every corpus run uses.
pub const SEED: u64 = 11;

/// Every pattern the matrix covers, with stable labels.
pub fn all_patterns() -> Vec<PatternKind> {
    vec![
        PatternKind::Uniform,
        PatternKind::Adversarial { offset: 1 },
        PatternKind::Mixed {
            offset: 1,
            uniform_fraction: 0.5,
        },
        PatternKind::Permutation { seed: 17 },
        PatternKind::Hotspot {
            hotspots: 4,
            fraction: 0.5,
        },
        PatternKind::BitComplement,
        PatternKind::BitReversal,
        PatternKind::GroupLocal {
            local_fraction: 0.6,
        },
    ]
}

/// The non-Bernoulli injectors and multi-phase scenarios the golden suite
/// covers, each under two contention-based routings.
pub fn special_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::named("UN-bursty")
            .injection(InjectionKind::Bursty {
                mean_on: 50.0,
                mean_off: 50.0,
            })
            .hold(PatternKind::Uniform),
        Scenario::named("UN-ramp")
            .injection(InjectionKind::Ramp {
                start_fraction: 0.0,
                ramp_cycles: 300,
            })
            .hold(PatternKind::Uniform),
        Scenario::transient(
            PatternKind::Uniform,
            PatternKind::Adversarial { offset: 1 },
            300,
        ),
        Scenario::named("UN-storm-UN")
            .phase(PatternKind::Uniform, 250)
            .phase_at_load(PatternKind::Adversarial { offset: 1 }, 0.35, 200)
            .hold(PatternKind::Uniform),
    ]
}

/// The fault-injection corpus: deterministic link/router failures layered
/// over steady workloads, each replayed under three routing mechanisms.
/// Cycles are absolute on the corpus clock (warm-up 200 + measure 400 +
/// drain).
pub fn fault_scenarios() -> Vec<Scenario> {
    let topo = Dragonfly::new(DragonflyParams::small());
    // ADV+1 concentrates every group-0 flow on the 0->1 global link, so
    // failing it guarantees in-flight drops; UN spreads traffic and
    // exercises the sparse-drop path.
    let (gw01, port01) = df_sim::FaultPlan::global_link_between(&topo, GroupId(0), GroupId(1));
    let (gw12, port12) = df_sim::FaultPlan::global_link_between(&topo, GroupId(1), GroupId(2));
    // a local (intra-group) link, for the detour re-commit paths
    let local_port = Port::local(topo.params(), 0);
    vec![
        Scenario::named("ADV-gldown")
            .hold(PatternKind::Adversarial { offset: 1 })
            .link_down(150, gw01, port01)
            .link_up(450, gw01, port01),
        Scenario::named("UN-gldown")
            .hold(PatternKind::Uniform)
            .link_down(150, gw01, port01)
            .link_up(450, gw01, port01),
        Scenario::named("UN-drain")
            .hold(PatternKind::Uniform)
            .router_drain(150, RouterId(2))
            .router_restore(400, RouterId(2)),
        Scenario::named("ADV-cut2")
            .hold(PatternKind::Adversarial { offset: 1 })
            .link_down(100, gw01, port01)
            .link_down(100, gw12, port12),
        // PR-5 re-commit/link-state cells: the double cut *with recovery*
        // (re-commit drains the committed packets, the LinkUps restore full
        // credit conservation mid-run) and a local-link failure in the
        // adversarial hot group (exercises detour re-commit and the
        // dead-local trigger paths).
        Scenario::named("ADV-cut2up")
            .hold(PatternKind::Adversarial { offset: 1 })
            .link_down(100, gw01, port01)
            .link_down(100, gw12, port12)
            .link_up(450, gw01, port01)
            .link_up(450, gw12, port12),
        Scenario::named("ADV-lldown")
            .hold(PatternKind::Adversarial { offset: 1 })
            .link_down(150, RouterId(0), local_port)
            .link_up(500, RouterId(0), local_port),
    ]
}

/// The routing mechanisms the fault corpus is replayed under.
pub fn fault_routings() -> [RoutingKind; 3] {
    [RoutingKind::Base, RoutingKind::Olm, RoutingKind::Ectn]
}

/// The churn corpus: sustained MTBF/MTTR failure processes lowered from
/// seeded [`ChurnModel`]s — link churn, node failures with
/// reroute-to-spare, and (in the heavy cell) router drains — over steady
/// workloads on the corpus clock. The models generate events in
/// `[100, 600)`, so failures keep firing through the whole measured window
/// and some are still unrepaired when it closes.
pub fn churn_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::named("UN-churn")
            .hold(PatternKind::Uniform)
            .churn(
                ChurnModel::new(23, 100, 500)
                    .global_links(ChurnRate::new(2_500.0, 250.0))
                    .nodes(ChurnRate::new(2_000.0, 300.0)),
            ),
        Scenario::named("ADV-churn")
            .hold(PatternKind::Adversarial { offset: 1 })
            .churn(
                ChurnModel::new(29, 100, 500)
                    .global_links(ChurnRate::new(3_000.0, 300.0))
                    .local_links(ChurnRate::new(6_000.0, 300.0))
                    .nodes(ChurnRate::new(2_500.0, 300.0)),
            ),
    ]
}

/// The routing mechanisms the churn corpus is replayed under: discovery-only
/// Base plus both mechanisms that flood link state (PB on every cycle, ECtN
/// on its broadcast cadence).
pub fn churn_routings() -> [RoutingKind; 3] {
    [
        RoutingKind::Base,
        RoutingKind::PiggyBacking,
        RoutingKind::Ectn,
    ]
}

/// `(delivered packets in the window, dropped-on-fault packets, in-flight
/// after a bounded drain, final cycle, mean-latency f64 bits)` — the
/// fingerprint of a faulted corpus run. Unlike [`fingerprint`] this does
/// not require the network to drain: scenarios with permanent link loss
/// may legitimately strand committed packets behind the cut, and the
/// stranded count is part of the pinned behaviour.
pub fn fault_fingerprint(cfg: SimulationConfig) -> (u64, u64, u64, u64, u64) {
    let mut net = Network::new(cfg.clone());
    net.run_cycles(cfg.warmup_cycles);
    let start = net.cycle();
    net.metrics_mut().start_measurement(start);
    net.run_cycles(cfg.measurement_cycles);
    net.drain(20_000);
    // the conservation equality must hold for every corpus cell, drained
    // or not
    assert_eq!(
        net.injected_packets_total(),
        net.metrics().delivered_packets_total()
            + net.in_flight()
            + net.metrics().dropped_on_fault_packets(),
        "packet conservation violated in a fault corpus run"
    );
    let summary = net.metrics().window_summary();
    (
        summary.delivered_packets,
        net.metrics().dropped_on_fault_packets(),
        net.in_flight(),
        net.cycle(),
        summary.avg_packet_latency.to_bits(),
    )
}

/// `(delivered packets in the window, dropped-on-fault packets, retargeted
/// packets, in-flight after a bounded drain, final cycle, mean-latency f64
/// bits)` — the fingerprint of a churn corpus run. Extends
/// [`fault_fingerprint`] with the node-failure retarget counter and checks
/// conservation for phits as well as packets.
pub fn churn_fingerprint(cfg: SimulationConfig) -> (u64, u64, u64, u64, u64, u64) {
    let mut net = Network::new(cfg.clone());
    net.run_cycles(cfg.warmup_cycles);
    let start = net.cycle();
    net.metrics_mut().start_measurement(start);
    net.run_cycles(cfg.measurement_cycles);
    net.drain(20_000);
    assert_eq!(
        net.injected_packets_total(),
        net.metrics().delivered_packets_total()
            + net.in_flight()
            + net.metrics().dropped_on_fault_packets(),
        "packet conservation violated in a churn corpus run"
    );
    assert_eq!(
        net.injected_phits_total(),
        net.metrics().delivered_phits_total()
            + net.in_flight_phits()
            + net.metrics().dropped_on_fault_phits(),
        "phit conservation violated in a churn corpus run"
    );
    let summary = net.metrics().window_summary();
    (
        summary.delivered_packets,
        net.metrics().dropped_on_fault_packets(),
        net.metrics().retargeted_packets(),
        net.in_flight(),
        net.cycle(),
        summary.avg_packet_latency.to_bits(),
    )
}

/// The common builder every corpus run starts from.
pub fn base_builder() -> df_sim::SimulationConfigBuilder {
    SimulationConfig::builder()
        .topology(DragonflyParams::small())
        .network(NetworkConfig::fast_test())
        .offered_load(LOAD)
        .warmup_cycles(200)
        .measurement_cycles(400)
        .seed(SEED)
}

/// `(delivered packets in the window, final cycle after drain, mean-latency
/// f64 bits)` — the fingerprint every golden table pins.
pub fn fingerprint(cfg: SimulationConfig) -> (u64, u64, u64) {
    let mut net = Network::new(cfg.clone());
    net.run_cycles(cfg.warmup_cycles);
    let start = net.cycle();
    net.metrics_mut().start_measurement(start);
    net.run_cycles(cfg.measurement_cycles);
    assert!(net.drain(100_000), "golden runs must drain");
    let summary = net.metrics().window_summary();
    (
        summary.delivered_packets,
        net.cycle(),
        summary.avg_packet_latency.to_bits(),
    )
}

/// Pinned on `DragonflyParams::small()` + `NetworkConfig::fast_test()`,
/// load 0.2, seed 11, warmup 200 + measure 400 + drain.
#[rustfmt::skip]
pub const GOLDEN_ROUTING_PATTERN: &[(&str, &str, u64, u64, u64)] = &[
    // (routing, pattern, delivered_window, final_cycle, latency_bits)
    ("MIN", "UN", 779, 658, 0x4046AAB8B024CE63),
    ("MIN", "ADV+1", 875, 1110, 0x406E1BD4B30DC03E),
    ("MIN", "MIX(ADV+1,50%UN)", 795, 719, 0x404CA439F656F185),
    ("MIN", "PERM(17)", 766, 651, 0x4046D5B92619664A),
    ("MIN", "HOT(4x50%)", 844, 1354, 0x40708865EA29404E),
    ("MIN", "BITCOMP", 863, 1102, 0x406DA4601C7A3728),
    ("MIN", "BITREV", 760, 658, 0x4046D1AF286BCA1A),
    ("MIN", "LOC(60%)", 756, 651, 0x404068F93A3E4E92),
    ("VAL", "UN", 846, 702, 0x40560C1AA0FBC375),
    ("VAL", "ADV+1", 846, 714, 0x4056B7397E7CABE1),
    ("VAL", "MIX(ADV+1,50%UN)", 862, 703, 0x40569A817C23A357),
    ("VAL", "PERM(17)", 855, 711, 0x40569B18D9F969C4),
    ("VAL", "HOT(4x50%)", 902, 1405, 0x4072988CC588CC58),
    ("VAL", "BITCOMP", 846, 701, 0x4056BB3BEA3677D1),
    ("VAL", "BITREV", 844, 695, 0x4055490610FC5C2F),
    ("VAL", "LOC(60%)", 840, 701, 0x4054B35A35A35A39),
    ("PB", "UN", 784, 677, 0x40487F05397829C9),
    ("PB", "ADV+1", 812, 689, 0x4051C8D3DCB08D3A),
    ("PB", "MIX(ADV+1,50%UN)", 797, 689, 0x404BF446AA3D0760),
    ("PB", "PERM(17)", 777, 688, 0x4049E622EC8FA669),
    ("PB", "HOT(4x50%)", 846, 1354, 0x4070A6AD166476A1),
    ("PB", "BITCOMP", 803, 685, 0x40509C5FA42F2EDB),
    ("PB", "BITREV", 776, 684, 0x404A23CB376C34C6),
    ("PB", "LOC(60%)", 758, 679, 0x4040FB9C081B04B6),
    ("OLM", "UN", 797, 691, 0x404EFBD30807B57A),
    ("OLM", "ADV+1", 807, 692, 0x4050806583037D57),
    ("OLM", "MIX(ADV+1,50%UN)", 806, 685, 0x404FF34B97D24354),
    ("OLM", "PERM(17)", 804, 684, 0x404F1C569B6211D5),
    ("OLM", "HOT(4x50%)", 855, 1354, 0x40708E3DADF5D1E5),
    ("OLM", "BITCOMP", 796, 692, 0x40513D2F9915DE91),
    ("OLM", "BITREV", 796, 678, 0x404EBD9683375109),
    ("OLM", "LOC(60%)", 763, 679, 0x4042FDA6C0964FDE),
    ("Base", "UN", 779, 658, 0x4046AAB8B024CE63),
    ("Base", "ADV+1", 843, 773, 0x405A3207E546C1BF),
    ("Base", "MIX(ADV+1,50%UN)", 795, 687, 0x404B93A48C65C183),
    ("Base", "PERM(17)", 766, 651, 0x4046D5B92619664A),
    ("Base", "HOT(4x50%)", 844, 1354, 0x407089D1E54EDCD0),
    ("Base", "BITCOMP", 849, 751, 0x405905E13E6ABDF9),
    ("Base", "BITREV", 760, 658, 0x4046D1AF286BCA1A),
    ("Base", "LOC(60%)", 756, 651, 0x404068F93A3E4E92),
    ("Hybrid", "UN", 795, 692, 0x404E8FC75366B8D0),
    ("Hybrid", "ADV+1", 805, 682, 0x4050561A13B77E44),
    ("Hybrid", "MIX(ADV+1,50%UN)", 810, 691, 0x404FBD27D27D27D4),
    ("Hybrid", "PERM(17)", 797, 675, 0x404EEFF09509F50E),
    ("Hybrid", "HOT(4x50%)", 856, 1354, 0x40706DD4EF409922),
    ("Hybrid", "BITCOMP", 797, 693, 0x4050D509F5143C5D),
    ("Hybrid", "BITREV", 799, 686, 0x404E98FDC1D7A127),
    ("Hybrid", "LOC(60%)", 763, 671, 0x40430A919D5B98A9),
    ("ECtN", "UN", 779, 658, 0x4046AAB8B024CE63),
    ("ECtN", "ADV+1", 843, 773, 0x405A3207E546C1BF),
    ("ECtN", "MIX(ADV+1,50%UN)", 795, 687, 0x404B93A48C65C183),
    ("ECtN", "PERM(17)", 766, 651, 0x4046D5B92619664A),
    ("ECtN", "HOT(4x50%)", 844, 1354, 0x407089D1E54EDCD0),
    ("ECtN", "BITCOMP", 849, 751, 0x405905E13E6ABDF9),
    ("ECtN", "BITREV", 760, 658, 0x4046D1AF286BCA1A),
    ("ECtN", "LOC(60%)", 756, 651, 0x404068F93A3E4E92),
];

/// Pinned fault-corpus fingerprints: every [`fault_scenarios`] cell under
/// every [`fault_routings`] mechanism, same base configuration as the other
/// tables. Regenerate together with them (see the module docs).
/// Regenerated for PR 5 (failure-aware routing): staged packets behind a
/// dead link are dropped at the fault, committed continuations re-commit,
/// unroutable packets are discarded, and PB/ECtN steer by the disseminated
/// link state — so every link-fault cell's trajectory changed (UN-drain,
/// which fails no links, is byte-identical to PR 4). The headline rows:
/// ADV-cut2 now drains to **zero stranded packets** under every mechanism
/// (was 75/54/71), and ECtN's link-state view loses markedly fewer packets
/// than discover-at-gateway Base under the double cut (18 vs 105 dropped).
///
/// Regenerated again for the churn subsystem: hop-delayed per-group
/// flooding replaced the published-copy one-exchange dissemination, so the
/// incident groups now learn their own entries a full exchange *earlier*
/// (and remote entries per live hop). Only the ECtN link-fault rows moved —
/// ADV-cut2's ECtN drops improved 31 → 18 — while every Base/OLM row and
/// every healthy table stayed byte-identical (healthy runs never flood).
#[rustfmt::skip]
pub const GOLDEN_FAULTS: &[(&str, &str, u64, u64, u64, u64, u64)] = &[
    // (scenario, routing, delivered_window, dropped, in_flight, final_cycle, latency_bits)
    ("ADV-gldown", "Base", 837, 10, 0, 773, 0x4059D30A17DB4C22),
    ("ADV-gldown", "OLM", 798, 13, 0, 681, 0x4050C133F84CFE15),
    ("ADV-gldown", "ECtN", 838, 9, 0, 773, 0x40598B883F8AB12B),
    ("UN-gldown", "Base", 779, 2, 0, 658, 0x4046DD005420DCE1),
    ("UN-gldown", "OLM", 794, 3, 0, 693, 0x404F7BCEFE10C401),
    ("UN-gldown", "ECtN", 779, 2, 0, 658, 0x4046DA5F4D3A2AB6),
    ("UN-drain", "Base", 765, 0, 0, 658, 0x4046A97ED4297EDA),
    ("UN-drain", "OLM", 783, 0, 0, 680, 0x404F5B8B9B4CD52F),
    ("UN-drain", "ECtN", 765, 0, 0, 658, 0x4046A97ED4297EDA),
    ("ADV-cut2", "Base", 769, 94, 0, 868, 0x405BE7B2C4693243),
    ("ADV-cut2", "OLM", 762, 57, 0, 692, 0x405186B81AE06B7D),
    ("ADV-cut2", "ECtN", 833, 23, 0, 773, 0x40582CA37EECA380),
    ("ADV-cut2up", "Base", 804, 59, 0, 765, 0x405A6D226357E16D),
    ("ADV-cut2up", "OLM", 780, 39, 0, 692, 0x4051142F42F42F3B),
    ("ADV-cut2up", "ECtN", 833, 23, 0, 773, 0x4058864CD4AADF1E),
    ("ADV-lldown", "Base", 839, 5, 0, 773, 0x4059E70E57440AFE),
    ("ADV-lldown", "OLM", 801, 6, 0, 679, 0x4050746A1B7C531B),
    ("ADV-lldown", "ECtN", 840, 4, 0, 773, 0x4059ED2E52E52E4E),
];

/// Pinned churn-corpus fingerprints: every [`churn_scenarios`] cell under
/// every [`churn_routings`] mechanism. Introduced with the churn subsystem
/// (seeded MTBF/MTTR lowering, node failures with reroute-to-spare,
/// hop-delayed link-state flooding); regenerate together with the other
/// tables (see the module docs).
#[rustfmt::skip]
#[allow(clippy::type_complexity)]
pub const GOLDEN_CHURN: &[(&str, &str, u64, u64, u64, u64, u64, u64)] = &[
    // (scenario, routing, delivered_window, dropped, retargeted, in_flight, final_cycle, latency_bits)
    ("UN-churn", "Base", 692, 22, 66, 0, 684, 0x4047780BD6910474),
    ("UN-churn", "PB", 706, 13, 66, 0, 695, 0x4049A89CA5593378),
    ("UN-churn", "ECtN", 700, 14, 66, 0, 684, 0x404762608C6F2D57),
    ("ADV-churn", "Base", 734, 45, 74, 0, 730, 0x405786A06F9B8D92),
    ("ADV-churn", "PB", 689, 58, 74, 0, 691, 0x40522F005F1E188A),
    ("ADV-churn", "ECtN", 736, 43, 74, 0, 708, 0x4056C4DE9BD37A73),
];

/// The collective corpus: closed collective runs (rank-level communication
/// scripts executed by the task layer, each a one-job set alone on the
/// network) on the small topology. Labels come from
/// [`TaskWorkload::label`]. The mix covers every collective kind, both
/// all-reduce algorithms, a non-power-of-two rank count (recursive
/// doubling's fold/unfold path), both placements and a multi-collective
/// sequence.
pub fn collective_workloads() -> Vec<JobSpec> {
    let spread = JobPlacement::group_spread(0);
    let block = JobPlacement::block(0);
    let rd = CollectiveKind::AllReduce(AllReduceAlgorithm::RecursiveDoubling);
    vec![
        JobSpec::new(TaskWorkload::single(CollectiveKind::AllToAll, 8, 2), spread),
        JobSpec::new(
            TaskWorkload::single(CollectiveKind::AllReduce(AllReduceAlgorithm::Ring), 8, 2),
            block,
        ),
        JobSpec::new(TaskWorkload::single(rd, 12, 2), spread),
        JobSpec::new(TaskWorkload::single(CollectiveKind::Barrier, 16, 1), spread),
        JobSpec::new(
            TaskWorkload::single(CollectiveKind::SweepNeighbors, 8, 4),
            block,
        ),
        JobSpec::new(
            TaskWorkload {
                ranks: 8,
                sequence: vec![CollectiveKind::Barrier, rd],
                packets_per_message: 2,
            },
            spread,
        ),
    ]
}

/// The routing mechanisms the collective corpus is replayed under.
pub fn collective_routings() -> [RoutingKind; 3] {
    [
        RoutingKind::Base,
        RoutingKind::PiggyBacking,
        RoutingKind::Ectn,
    ]
}

/// The common configuration every collective corpus run uses: the job alone on the network — offered
/// load 0 switches the stochastic injectors off, so the pattern is a
/// placeholder.
pub fn collective_config(job: JobSpec, routing: RoutingKind) -> SimulationConfig {
    base_builder()
        .routing(routing)
        .pattern(PatternKind::Uniform)
        .offered_load(0.0)
        .job(job)
        .build()
        .expect("valid collective configuration")
}

/// `(application completion cycle, delivered packets, rank stall cycles,
/// mean-latency f64 bits)` — the fingerprint of a collective corpus run.
/// Completion is mandatory and implies the network drained (the last
/// step's sends must all deliver for their ranks to finish, and no other
/// traffic exists at offered load 0).
pub fn collective_fingerprint(cfg: SimulationConfig) -> (u64, u64, u64, u64) {
    let mut net = Network::new(cfg);
    net.metrics_mut().start_measurement(0);
    let done = net
        .run_until_jobs_complete(200_000)
        .expect("corpus collectives must complete");
    assert_eq!(net.in_flight(), 0, "completion implies an empty network");
    let task = &net.jobs().expect("corpus runs carry a job").jobs()[0];
    assert_eq!(
        task.steps_completed(),
        task.total_steps(),
        "every step must be globally complete"
    );
    (
        done,
        net.metrics().delivered_packets_total(),
        net.metrics().rank_stall_cycles(),
        net.metrics().window_summary().avg_packet_latency.to_bits(),
    )
}

/// Pinned collective-corpus fingerprints: every [`collective_workloads`]
/// cell under every [`collective_routings`] mechanism, same base
/// configuration and seed as the other tables. Introduced with the task
/// layer; regenerate together with them (see the module docs — the regen
/// helper lives in `tests/collectives.rs`).
#[rustfmt::skip]
pub const GOLDEN_COLLECTIVES: &[(&str, &str, u64, u64, u64, u64)] = &[
    // (workload, routing, completion_cycle, delivered, rank_stall_cycles, latency_bits)
    ("all-to-allx8", "Base", 389, 112, 2964, 0x4048800000000000),
    ("all-to-allx8", "PB", 620, 112, 4764, 0x404E9B6DB6DB6DB9),
    ("all-to-allx8", "ECtN", 389, 112, 2964, 0x4048800000000000),
    ("all-reduce-ringx8", "Base", 434, 224, 3248, 0x4035000000000003),
    ("all-reduce-ringx8", "PB", 434, 224, 3248, 0x4035000000000003),
    ("all-reduce-ringx8", "ECtN", 434, 224, 3248, 0x4035000000000003),
    ("all-reduce-rdx12", "Base", 247, 64, 2712, 0x40473FFFFFFFFFFF),
    ("all-reduce-rdx12", "PB", 432, 64, 4468, 0x404DB20000000000),
    ("all-reduce-rdx12", "ECtN", 247, 64, 2712, 0x40473FFFFFFFFFFF),
    ("barrierx16", "Base", 192, 64, 2976, 0x4045AFFFFFFFFFFF),
    ("barrierx16", "PB", 260, 64, 4000, 0x40480C0000000001),
    ("barrierx16", "ECtN", 192, 64, 2976, 0x4045AFFFFFFFFFFF),
    ("sweep-neighborsx8", "Base", 71, 56, 436, 0x4043124924924925),
    ("sweep-neighborsx8", "PB", 71, 56, 436, 0x4043124924924925),
    ("sweep-neighborsx8", "ECtN", 71, 56, 436, 0x4043124924924925),
    ("barrier+all-reduce-rdx8", "Base", 318, 96, 2448, 0x4047C00000000000),
    ("barrier+all-reduce-rdx8", "PB", 552, 96, 4200, 0x404EA00000000001),
    ("barrier+all-reduce-rdx8", "ECtN", 318, 96, 2448, 0x4047C00000000000),
];

#[rustfmt::skip]
pub const GOLDEN_SPECIAL: &[(&str, &str, u64, u64, u64)] = &[
    // (scenario, routing, delivered_window, final_cycle, latency_bits)
    ("UN-bursty", "Base", 824, 648, 0x4046E5979C95204C),
    ("UN-bursty", "ECtN", 824, 648, 0x4046E5979C95204C),
    ("UN-ramp", "Base", 748, 657, 0x40467F24F66AC7DF),
    ("UN-ramp", "ECtN", 748, 657, 0x40467F24F66AC7DF),
    ("UN->ADV+1", "Base", 805, 764, 0x405392AEE826295C),
    ("UN->ADV+1", "ECtN", 805, 764, 0x405392AEE826295C),
    ("UN-storm-UN", "Base", 1098, 664, 0x40547D15EA8CD2C7),
    ("UN-storm-UN", "ECtN", 1098, 672, 0x405467670D85D42E),
];

// ---------------------------------------------------------------------------
// Trigger-table slice: the four in-transit adaptive mechanisms, triggered
// ---------------------------------------------------------------------------

/// Offered load of the trigger-table slice. The main corpus runs at
/// [`LOAD`] = 0.2, where ECtN's combined-counter stage never changes an
/// outcome (every ECtN row above is bit-equal to its Base row); under ADV+1
/// ECtN first diverges from Base at load 0.3, so this slice runs at 0.4.
pub const TRIGGER_TABLE_LOAD: f64 = 0.4;

/// The trigger-table cell for one mechanism: [`base_builder`] under ADV+1
/// at [`TRIGGER_TABLE_LOAD`].
pub fn trigger_table_builder(routing: RoutingKind) -> df_sim::SimulationConfigBuilder {
    base_builder()
        .routing(routing)
        .pattern(PatternKind::Adversarial { offset: 1 })
        .offered_load(TRIGGER_TABLE_LOAD)
}

/// One row per mechanism of the paper's trigger table (OLM / Base / Hybrid
/// / ECtN), each with its misroute trigger actually firing — the slice that
/// tells the four selection pipelines apart.
#[rustfmt::skip]
pub const GOLDEN_TRIGGER_TABLE: &[(RoutingKind, u64, u64, u64)] = &[
    // (routing, delivered_window, final_cycle, latency_bits)
    (RoutingKind::Olm, 1701, 711, 0x405341948B0FCD71),
    (RoutingKind::Base, 1816, 813, 0x405DF41F93BC55AB),
    (RoutingKind::Hybrid, 1694, 699, 0x4053020A46B993CC),
    (RoutingKind::Ectn, 1804, 797, 0x405C4C981FC981F2),
];

// ---------------------------------------------------------------------------
// Megafly / Dragonfly+ corpus slice
// ---------------------------------------------------------------------------

/// The common builder every Megafly corpus run starts from: the second
/// [`Topology`] instance, sized like the Dragonfly `small()` corpus
/// (`p=2, l=s=4, h=2`, 9 groups, 72 nodes), same load, seed and windows.
pub fn megafly_base_builder() -> df_sim::SimulationConfigBuilder {
    SimulationConfig::builder()
        .topology(MegaflyParams::small())
        .network(NetworkConfig::fast_test())
        .offered_load(LOAD)
        .warmup_cycles(200)
        .measurement_cycles(400)
        .seed(SEED)
}

/// Patterns the Megafly slice covers: the two paper workloads plus the
/// group-local mix, whose intra-group traffic exercises the two-hop
/// leaf→spine→leaf minimal path that does not exist on the Dragonfly.
pub fn megafly_patterns() -> Vec<PatternKind> {
    vec![
        PatternKind::Uniform,
        PatternKind::Adversarial { offset: 1 },
        PatternKind::GroupLocal {
            local_fraction: 0.6,
        },
    ]
}

/// Routings the Megafly pattern slice is replayed under. Local misrouting
/// is structurally disabled on Megafly (`local_misroute_degree() == 0`), so
/// this covers each distinct decision family: minimal, oblivious Valiant,
/// contention-based Base, link-utilisation PB and the ECtN broadcast.
pub fn megafly_routings() -> [RoutingKind; 5] {
    [
        RoutingKind::Minimal,
        RoutingKind::Valiant,
        RoutingKind::Base,
        RoutingKind::PiggyBacking,
        RoutingKind::Ectn,
    ]
}

/// The Megafly link-fault slice: an outage window on the ADV+1 hot global
/// link (owned by a spine router) under discovery-only Base and link-state
/// flooding ECtN — the pair whose drop counts bracket the fault corpus.
pub fn megafly_fault_scenarios() -> Vec<Scenario> {
    let topo = Megafly::new(MegaflyParams::small());
    let (gw01, port01) = df_sim::FaultPlan::global_link_between(&topo, GroupId(0), GroupId(1));
    vec![
        Scenario::named("MF-ADV-gldown")
            .hold(PatternKind::Adversarial { offset: 1 })
            .link_down(150, gw01, port01)
            .link_up(450, gw01, port01),
        Scenario::named("MF-UN-gldown")
            .hold(PatternKind::Uniform)
            .link_down(150, gw01, port01)
            .link_up(450, gw01, port01),
    ]
}

/// The routing mechanisms the Megafly fault slice is replayed under.
pub fn megafly_fault_routings() -> [RoutingKind; 2] {
    [RoutingKind::Base, RoutingKind::Ectn]
}

/// The Megafly collective slice: one all-to-all spread across groups (every
/// rank pair crosses a spine) and one ring all-reduce packed into leaves.
pub fn megafly_collective_workloads() -> Vec<JobSpec> {
    vec![
        JobSpec::new(
            TaskWorkload::single(CollectiveKind::AllToAll, 8, 2),
            JobPlacement::group_spread(0),
        ),
        JobSpec::new(
            TaskWorkload::single(CollectiveKind::AllReduce(AllReduceAlgorithm::Ring), 8, 2),
            JobPlacement::block(0),
        ),
    ]
}

/// The common configuration every Megafly collective corpus run uses (the
/// twin of [`collective_config`]).
pub fn megafly_collective_config(job: JobSpec, routing: RoutingKind) -> SimulationConfig {
    megafly_base_builder()
        .routing(routing)
        .pattern(PatternKind::Uniform)
        .offered_load(0.0)
        .job(job)
        .build()
        .expect("valid megafly collective configuration")
}

/// Pinned on `MegaflyParams::small()` + `NetworkConfig::fast_test()`, load
/// 0.2, seed 11, warmup 200 + measure 400 + drain. Introduced with the
/// `Topology` trait (topology pluralism); regenerate together with the
/// other tables (see the module docs).
#[rustfmt::skip]
pub const GOLDEN_MEGAFLY: &[(&str, &str, u64, u64, u64)] = &[
    // (routing, pattern, delivered_window, final_cycle, latency_bits)
    ("MIN", "UN", 791, 656, 0x404973B39EE85FCF),
    ("MIN", "ADV+1", 880, 1117, 0x406ED62E8BA2E8B7),
    ("MIN", "LOC(60%)", 770, 651, 0x40446A392F35DC16),
    ("VAL", "UN", 856, 710, 0x405840991F1A5151),
    ("VAL", "ADV+1", 861, 702, 0x4058BFFFFFFFFFFE),
    ("VAL", "LOC(60%)", 857, 703, 0x40568E1D4632C82B),
    ("Base", "UN", 791, 656, 0x404973B39EE85FCF),
    ("Base", "ADV+1", 863, 783, 0x405D26EF176F3D68),
    ("Base", "LOC(60%)", 770, 651, 0x40446A392F35DC16),
    ("PB", "UN", 799, 690, 0x404C4586E37BFEAD),
    ("PB", "ADV+1", 828, 697, 0x405492519F894682),
    ("PB", "LOC(60%)", 772, 679, 0x404581FD58DED6E0),
    ("ECtN", "UN", 791, 656, 0x404973B39EE85FCF),
    ("ECtN", "ADV+1", 863, 783, 0x405D26EF176F3D68),
    ("ECtN", "LOC(60%)", 770, 651, 0x40446A392F35DC16),
];

/// Pinned Megafly fault-slice fingerprints; same clock and conservation
/// checks as [`GOLDEN_FAULTS`].
#[rustfmt::skip]
pub const GOLDEN_MEGAFLY_FAULTS: &[(&str, &str, u64, u64, u64, u64, u64)] = &[
    // (scenario, routing, delivered_window, dropped, in_flight, final_cycle, latency_bits)
    ("MF-ADV-gldown", "Base", 848, 19, 0, 783, 0x405D26439F656F16),
    ("MF-ADV-gldown", "ECtN", 853, 14, 0, 783, 0x405CD83C060099A7),
    ("MF-UN-gldown", "Base", 791, 2, 0, 656, 0x40499B0626308BD5),
    ("MF-UN-gldown", "ECtN", 791, 2, 0, 656, 0x4049C014B6889393),
];

/// Pinned Megafly collective-slice fingerprints; same completion contract
/// as [`GOLDEN_COLLECTIVES`].
#[rustfmt::skip]
pub const GOLDEN_MEGAFLY_COLLECTIVES: &[(&str, &str, u64, u64, u64, u64)] = &[
    // (workload, routing, completion_cycle, delivered, rank_stall_cycles, latency_bits)
    ("all-to-allx8", "Base", 413, 112, 3192, 0x404B7FFFFFFFFFFF),
    ("all-to-allx8", "ECtN", 413, 112, 3192, 0x404B7FFFFFFFFFFF),
    ("all-reduce-ringx8", "Base", 602, 224, 4592, 0x403B000000000000),
    ("all-reduce-ringx8", "ECtN", 602, 224, 4592, 0x403B000000000000),
];

// ---------------------------------------------------------------------------
// Multi-job corpus
// ---------------------------------------------------------------------------

/// The multi-job mixes: concurrent collective applications with
/// node-disjoint placements sharing one network, layered over the corpus'
/// uniform background traffic at load 0.2. The 2-job mix packs an
/// all-to-all and a ring all-reduce into adjacent node blocks; the 3-job
/// mix adds a deferred mini-app (stencil sweeps interleaved with
/// all-reduces) whose `start_cycle` and per-step compute delay exercise
/// the job-scheduling and readiness-clock paths.
pub fn job_mixes() -> Vec<(&'static str, Vec<JobSpec>)> {
    let a2a = TaskWorkload::single(CollectiveKind::AllToAll, 8, 2);
    let ring = TaskWorkload::single(CollectiveKind::AllReduce(AllReduceAlgorithm::Ring), 8, 2);
    let mini = TaskWorkload::mini_app(8, 2, AllReduceAlgorithm::RecursiveDoubling, 1);
    vec![
        (
            "2job",
            vec![
                JobSpec::new(a2a.clone(), JobPlacement::block(0)),
                JobSpec::new(ring.clone(), JobPlacement::block(8)),
            ],
        ),
        (
            "3job",
            vec![
                JobSpec::new(a2a, JobPlacement::block(0)),
                JobSpec::new(ring, JobPlacement::block(8)),
                JobSpec::new(mini, JobPlacement::block(16))
                    .starting_at(50)
                    .with_compute_delay(5),
            ],
        ),
    ]
}

/// The routing mechanisms the multi-job corpus is replayed under.
pub fn job_routings() -> [RoutingKind; 3] {
    [
        RoutingKind::Base,
        RoutingKind::PiggyBacking,
        RoutingKind::Ectn,
    ]
}

/// The common Dragonfly configuration every multi-job corpus run uses.
/// Unlike the collective corpus the stochastic injectors stay on: jobs
/// contend with uniform background traffic at the corpus load.
pub fn job_set_config(jobs: Vec<JobSpec>, routing: RoutingKind) -> SimulationConfig {
    base_builder()
        .routing(routing)
        .pattern(PatternKind::Uniform)
        .jobs(jobs)
        .build()
        .expect("valid multi-job configuration")
}

/// The Megafly twin of [`job_set_config`].
pub fn megafly_job_set_config(jobs: Vec<JobSpec>, routing: RoutingKind) -> SimulationConfig {
    megafly_base_builder()
        .routing(routing)
        .pattern(PatternKind::Uniform)
        .jobs(jobs)
        .build()
        .expect("valid megafly multi-job configuration")
}

/// `(makespan, sum of per-job completion cycles, delivered packets at the
/// makespan, total job stall cycles, mean-latency f64 bits)` — the
/// fingerprint of a multi-job corpus run. Every job must complete; the
/// network does *not* drain (background injectors keep running), so
/// delivery counts are read at the makespan cycle.
pub fn job_set_fingerprint(cfg: SimulationConfig) -> (u64, u64, u64, u64, u64) {
    let net = run_job_set(cfg, 200_000);
    let engine = net.jobs().expect("a job set");
    let makespan = engine
        .completion_cycle()
        .expect("corpus job sets must complete");
    let completion_sum: u64 = engine
        .jobs()
        .iter()
        .map(|j| j.completion_cycle().expect("every job completed"))
        .sum();
    let stall_total: u64 = engine.jobs().iter().flat_map(|j| j.stall_cycles()).sum();
    (
        makespan,
        completion_sum,
        net.metrics().delivered_packets_total(),
        stall_total,
        net.metrics().window_summary().avg_packet_latency.to_bits(),
    )
}

/// The pinned interference cell: two bandwidth-heavy all-to-all jobs on
/// interleaved group-spread placements — their ranks share routers (two
/// nodes per router on the small topologies) and the same local and
/// global links, so each job's completion time must be strictly worse
/// than its solo-run baseline under the same background traffic.
pub fn interference_jobs() -> Vec<JobSpec> {
    vec![
        JobSpec::new(
            TaskWorkload::single(CollectiveKind::AllToAll, 8, 6),
            JobPlacement::group_spread(0),
        ),
        JobSpec::new(
            TaskWorkload::single(CollectiveKind::AllToAll, 8, 6),
            JobPlacement::group_spread(1),
        ),
    ]
}

/// Pinned multi-job fingerprints: every [`job_mixes`] cell under every
/// [`job_routings`] mechanism, Dragonfly then Megafly, plus the
/// [`interference_jobs`] cell under Base on both topologies. Introduced
/// with the multi-job traffic layer; regenerate together with the other
/// tables (the regen helper lives in `tests/multi_job.rs`).
#[rustfmt::skip]
#[allow(clippy::type_complexity)]
pub const GOLDEN_JOBS: &[(&str, &str, &str, u64, u64, u64, u64, u64)] = &[
    // (topology, mix, routing, makespan, completion_sum, delivered, job_stalls, latency_bits)
    ("dragonfly", "2job", "Base", 497, 787, 1115, 5778, 0x4043DA1DD8F7F6D6),
    ("dragonfly", "2job", "PB", 496, 805, 1110, 5936, 0x4045024E6A17102E),
    ("dragonfly", "2job", "ECtN", 497, 787, 1115, 5778, 0x4043DA1DD8F7F6D6),
    ("dragonfly", "3job", "Base", 497, 1083, 1191, 7336, 0x404354B04157E9AF),
    ("dragonfly", "3job", "PB", 496, 1102, 1186, 7484, 0x40445CB550BA7EE2),
    ("dragonfly", "3job", "ECtN", 497, 1083, 1191, 7336, 0x404354B04157E9AF),
    ("megafly", "2job", "Base", 664, 1053, 1407, 8040, 0x404780D19A792D53),
    ("megafly", "2job", "PB", 664, 1048, 1395, 7934, 0x404962A3537F8A95),
    ("megafly", "2job", "ECtN", 664, 1053, 1407, 8040, 0x404780D19A792D53),
    ("megafly", "3job", "Base", 664, 1423, 1483, 10215, 0x40470A2F4C78D614),
    ("megafly", "3job", "PB", 664, 1432, 1471, 10130, 0x4048DBA0A18042E0),
    ("megafly", "3job", "ECtN", 664, 1423, 1483, 10215, 0x40470A2F4C78D614),
    ("dragonfly", "interfere", "Base", 928, 1825, 2230, 13521, 0x404DFFE29C95B26A),
    ("megafly", "interfere", "Base", 956, 1835, 2269, 13736, 0x4050373A549E6806),
];
