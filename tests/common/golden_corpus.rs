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
    ("MIN", "UN", 805, 652, 0x40469853F48D328F),
    ("MIN", "ADV+1", 911, 1137, 0x4070211244011FC1),
    ("MIN", "MIX(ADV+1,50%UN)", 824, 772, 0x405002F392A409F2),
    ("MIN", "PERM(17)", 809, 665, 0x404761C7AC75B73A),
    ("MIN", "HOT(4x50%)", 873, 1201, 0x406D38F652B1B44E),
    ("MIN", "BITCOMP", 888, 1125, 0x406CF322983759ED),
    ("MIN", "BITREV", 816, 656, 0x4047257D7D7D7D77),
    ("MIN", "LOC(60%)", 782, 653, 0x404112D2D2D2D2D3),
    ("VAL", "UN", 885, 703, 0x40565E02E4850FEB),
    ("VAL", "ADV+1", 883, 706, 0x405708C52566578F),
    ("VAL", "MIX(ADV+1,50%UN)", 882, 705, 0x4056F01BDD2B8999),
    ("VAL", "PERM(17)", 885, 708, 0x40569F9A2DB43662),
    ("VAL", "HOT(4x50%)", 922, 1241, 0x4070A04B85D4AF7E),
    ("VAL", "BITCOMP", 884, 704, 0x4056D4B4B4B4B4B2),
    ("VAL", "BITREV", 878, 700, 0x4055845FA2B27127),
    ("VAL", "LOC(60%)", 877, 697, 0x4055828DDD8E284D),
    ("PB", "UN", 809, 689, 0x4048C89F7C5C6689),
    ("PB", "ADV+1", 860, 691, 0x40521404C3464050),
    ("PB", "MIX(ADV+1,50%UN)", 827, 690, 0x404CBFEC304A4AEE),
    ("PB", "PERM(17)", 819, 680, 0x404AA62262262260),
    ("PB", "HOT(4x50%)", 874, 1201, 0x406D0F574939FED5),
    ("PB", "BITCOMP", 840, 690, 0x4050B3A83A83A843),
    ("PB", "BITREV", 824, 692, 0x404AE9027C4597A2),
    ("PB", "LOC(60%)", 784, 691, 0x4041BE87D6343EB2),
    ("OLM", "UN", 835, 687, 0x404F17743247BDC7),
    ("OLM", "ADV+1", 844, 688, 0x40508BE7BC0E8F1F),
    ("OLM", "MIX(ADV+1,50%UN)", 839, 681, 0x40503035B3B7FD90),
    ("OLM", "PERM(17)", 841, 693, 0x40500D2A4FC0AF52),
    ("OLM", "HOT(4x50%)", 890, 1201, 0x406DD3F47E8FD1F4),
    ("OLM", "BITCOMP", 844, 701, 0x405123A3CA9DB9A6),
    ("OLM", "BITREV", 835, 686, 0x40502242D5FF6308),
    ("OLM", "LOC(60%)", 790, 659, 0x40443DE4C79D7D13),
    ("Base", "UN", 805, 652, 0x40469853F48D328F),
    ("Base", "ADV+1", 886, 765, 0x405A8D4A8BD8B448),
    ("Base", "MIX(ADV+1,50%UN)", 824, 716, 0x404E5A409F1165E6),
    ("Base", "PERM(17)", 809, 665, 0x404761C7AC75B73A),
    ("Base", "HOT(4x50%)", 873, 1201, 0x406D38F652B1B44E),
    ("Base", "BITCOMP", 879, 757, 0x4059395FD166CEC9),
    ("Base", "BITREV", 816, 656, 0x4047257D7D7D7D77),
    ("Base", "LOC(60%)", 782, 653, 0x404112D2D2D2D2D3),
    ("Hybrid", "UN", 834, 691, 0x404E74A4870F590B),
    ("Hybrid", "ADV+1", 841, 687, 0x405071D86D9575C9),
    ("Hybrid", "MIX(ADV+1,50%UN)", 833, 686, 0x40500DD45C3266A4),
    ("Hybrid", "PERM(17)", 836, 685, 0x404FF32385830FE5),
    ("Hybrid", "HOT(4x50%)", 887, 1201, 0x406D1E5729458E4A),
    ("Hybrid", "BITCOMP", 842, 687, 0x4050FB9769327864),
    ("Hybrid", "BITREV", 837, 681, 0x404FC4349B5FBB80),
    ("Hybrid", "LOC(60%)", 791, 664, 0x4043F38A31D738A3),
    ("ECtN", "UN", 805, 652, 0x40469853F48D328F),
    ("ECtN", "ADV+1", 886, 765, 0x405A8D4A8BD8B448),
    ("ECtN", "MIX(ADV+1,50%UN)", 824, 716, 0x404E5A409F1165E6),
    ("ECtN", "PERM(17)", 809, 665, 0x404761C7AC75B73A),
    ("ECtN", "HOT(4x50%)", 873, 1201, 0x406D38F652B1B44E),
    ("ECtN", "BITCOMP", 879, 757, 0x4059395FD166CEC9),
    ("ECtN", "BITREV", 816, 656, 0x4047257D7D7D7D77),
    ("ECtN", "LOC(60%)", 782, 653, 0x404112D2D2D2D2D3),
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
    ("ADV-gldown", "Base", 875, 16, 0, 765, 0x405A9F4E1DD7A007),
    ("ADV-gldown", "OLM", 836, 10, 0, 685, 0x40508D79435E50E0),
    ("ADV-gldown", "ECtN", 881, 10, 0, 765, 0x405A1B061A26F00A),
    ("UN-gldown", "Base", 805, 0, 0, 652, 0x4046C553A323EF78),
    ("UN-gldown", "OLM", 827, 10, 0, 681, 0x404FA2D31D6851BF),
    ("UN-gldown", "ECtN", 805, 0, 0, 652, 0x4046B4A18CE1271C),
    ("UN-drain", "Base", 790, 0, 0, 653, 0x4046946A49E22FFD),
    ("UN-drain", "OLM", 820, 0, 0, 691, 0x404FB0B3D30B3D2E),
    ("UN-drain", "ECtN", 790, 0, 0, 653, 0x4046946A49E22FFD),
    ("ADV-cut2", "Base", 799, 105, 0, 788, 0x405BA5161B8DEFFF),
    ("ADV-cut2", "OLM", 789, 63, 0, 685, 0x405111470E99CB72),
    ("ADV-cut2", "ECtN", 883, 18, 0, 765, 0x4058E748C525665C),
    ("ADV-cut2up", "Base", 842, 62, 0, 765, 0x405B12D9B0F33AFA),
    ("ADV-cut2up", "OLM", 812, 40, 0, 693, 0x4050F717F5E94CEF),
    ("ADV-cut2up", "ECtN", 883, 18, 0, 765, 0x405913C97EB202E6),
    ("ADV-lldown", "Base", 882, 5, 0, 765, 0x405ABF7DF7DF7DFC),
    ("ADV-lldown", "OLM", 833, 12, 0, 686, 0x40505D3217F89FD4),
    ("ADV-lldown", "ECtN", 882, 5, 0, 765, 0x405AA20820820821),
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
    ("UN-churn", "Base", 708, 35, 65, 0, 678, 0x40475A08AD8F2FB4),
    ("UN-churn", "PB", 725, 21, 65, 0, 688, 0x4049E1A213114D56),
    ("UN-churn", "ECtN", 726, 17, 65, 0, 667, 0x40477A5BAE315DCA),
    ("ADV-churn", "Base", 765, 55, 67, 0, 783, 0x405A2D4297ED428E),
    ("ADV-churn", "PB", 749, 45, 67, 0, 697, 0x4051FA880833F3B3),
    ("ADV-churn", "ECtN", 770, 50, 67, 0, 775, 0x405883288FA03FD6),
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
    let task = net.jobs().expect("corpus runs carry a job").job(0);
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
    ("UN->ADV+1", "Base", 805, 785, 0x4053B98F6C713667),
    ("UN->ADV+1", "ECtN", 805, 785, 0x4053B98F6C713667),
    ("UN-storm-UN", "Base", 1067, 663, 0x4054D492D588846B),
    ("UN-storm-UN", "ECtN", 1067, 663, 0x4054D492D588846B),
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
    (RoutingKind::Olm, 1694, 706, 0x40534B252D08C3D8),
    (RoutingKind::Base, 1803, 812, 0x405E1B4BF65850A9),
    (RoutingKind::Hybrid, 1700, 698, 0x4052E3CD67009A3A),
    (RoutingKind::Ectn, 1803, 794, 0x405C7F412BDFA091),
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
    ("MIN", "UN", 820, 652, 0x40497C68E5C68E59),
    ("MIN", "ADV+1", 920, 1157, 0x40707FC1AB68A045),
    ("MIN", "LOC(60%)", 801, 651, 0x4045306B62C1AD90),
    ("VAL", "UN", 902, 696, 0x40585D7217D72179),
    ("VAL", "ADV+1", 899, 694, 0x4058BA1759B31D51),
    ("VAL", "LOC(60%)", 882, 697, 0x405772492492492A),
    ("Base", "UN", 820, 652, 0x40497C68E5C68E59),
    ("Base", "ADV+1", 909, 801, 0x405CF3BFC9ED699D),
    ("Base", "LOC(60%)", 801, 651, 0x4045306B62C1AD90),
    ("PB", "UN", 827, 687, 0x404BCA7288D27EE3),
    ("PB", "ADV+1", 867, 717, 0x4055663CD36A0093),
    ("PB", "LOC(60%)", 803, 677, 0x40463DD91B192F80),
    ("ECtN", "UN", 820, 652, 0x40497C68E5C68E59),
    ("ECtN", "ADV+1", 909, 801, 0x405CF3BFC9ED699D),
    ("ECtN", "LOC(60%)", 801, 651, 0x4045306B62C1AD90),
];

/// Pinned Megafly fault-slice fingerprints; same clock and conservation
/// checks as [`GOLDEN_FAULTS`].
#[rustfmt::skip]
pub const GOLDEN_MEGAFLY_FAULTS: &[(&str, &str, u64, u64, u64, u64, u64)] = &[
    // (scenario, routing, delivered_window, dropped, in_flight, final_cycle, latency_bits)
    ("MF-ADV-gldown", "Base", 887, 25, 0, 801, 0x405DAEC15EF42AB9),
    ("MF-ADV-gldown", "ECtN", 901, 11, 0, 801, 0x405DAD1AFE02D75B),
    ("MF-UN-gldown", "Base", 820, 0, 0, 652, 0x4049A436F2436F27),
    ("MF-UN-gldown", "ECtN", 820, 0, 0, 652, 0x4049A3E7063E7066),
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
    let report = run_job_set(cfg, 200_000);
    assert!(report.all_completed, "corpus job sets must complete");
    let completion_sum: u64 = report
        .jobs
        .iter()
        .map(|j| j.completion_cycle.expect("all_completed"))
        .sum();
    let stall_total: u64 = report.jobs.iter().map(|j| j.total_stall_cycles).sum();
    (
        report.makespan.expect("all_completed"),
        completion_sum,
        report.delivered_packets,
        stall_total,
        report.avg_packet_latency.to_bits(),
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
    ("dragonfly", "2job", "Base", 501, 809, 1164, 5984, 0x4043BE054741FABA),
    ("dragonfly", "2job", "PB", 496, 794, 1146, 5840, 0x4044B8DA06413A8B),
    ("dragonfly", "2job", "ECtN", 501, 809, 1164, 5984, 0x4043BE054741FABA),
    ("dragonfly", "3job", "Base", 501, 1118, 1240, 7648, 0x4043469B4069B40B),
    ("dragonfly", "3job", "PB", 496, 1103, 1222, 7512, 0x40442B5D6F07F5ED),
    ("dragonfly", "3job", "ECtN", 501, 1118, 1240, 7648, 0x4043469B4069B40B),
    ("megafly", "2job", "Base", 669, 1051, 1457, 7942, 0x40478F763F9ACB7A),
    ("megafly", "2job", "PB", 680, 1059, 1466, 7899, 0x404960A7A3CC4FA9),
    ("megafly", "2job", "ECtN", 669, 1051, 1457, 7942, 0x40478F763F9ACB7A),
    ("megafly", "3job", "Base", 669, 1433, 1533, 10162, 0x4047283ECA0FB27C),
    ("megafly", "3job", "PB", 680, 1425, 1544, 10048, 0x4048F874B9B3113B),
    ("megafly", "3job", "ECtN", 669, 1433, 1533, 10162, 0x4047283ECA0FB27C),
    ("dragonfly", "interfere", "Base", 906, 1757, 2236, 13098, 0x404DE9F5ECC401D2),
    ("megafly", "interfere", "Base", 933, 1781, 2286, 13404, 0x40501BB76EDDBB7A),
];
