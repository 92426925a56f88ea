//! Resume bit-identity: a run interrupted by [`Network::snapshot`] and
//! continued via [`Network::restore`] must be indistinguishable — in every
//! counter, histogram bin and f64 bit pattern — from the run that was never
//! interrupted.
//!
//! The property is checked at pseudo-randomly drawn checkpoint cycles
//! (warmup, mid-measurement, inside fault windows, mid-churn). A snapshot
//! also restores under the configuration's other `KernelMode` value, which
//! runs the same kernel: the config fingerprint normalises the kernel away.
//! The resumed golden run must also reproduce the literal pinned constants
//! of `determinism::golden_summary_is_pinned`.

use contention_dragonfly::prelude::*;

#[path = "common/frozen.rs"]
#[allow(dead_code)] // the drain helpers are used by the drain suites
mod frozen;

fn base_config(kernel: KernelMode) -> SimulationConfig {
    SimulationConfig::builder()
        .topology(DragonflyParams::small())
        .network(NetworkConfig::fast_test())
        .routing(RoutingKind::Base)
        .pattern(PatternKind::Adversarial { offset: 1 })
        .offered_load(0.2)
        .warmup_cycles(200)
        .measurement_cycles(600)
        .seed(9)
        .kernel(kernel)
        .build()
        .expect("valid configuration")
}

/// Everything that must match between the interrupted and the
/// uninterrupted run (the `determinism.rs` fingerprint plus the fault
/// counters the snapshot carries).
#[derive(Debug, PartialEq)]
struct Fingerprint {
    delivered_window: u64,
    delivered_total: u64,
    generated_phits: u64,
    final_cycle: u64,
    in_flight: u64,
    latency_bits: u64,
    hops_bits: u64,
    p99_bits: u64,
    histogram_bins: Vec<u64>,
    dropped_on_fault: u64,
    retargeted: u64,
    lost_credits: u64,
    drained: bool,
}

fn fingerprint_of(net: &Network, drained: bool) -> Fingerprint {
    let summary = net.metrics().window_summary();
    Fingerprint {
        delivered_window: summary.delivered_packets,
        delivered_total: net.metrics().delivered_packets_total(),
        generated_phits: net.generated_phits_total(),
        final_cycle: net.cycle(),
        in_flight: net.in_flight(),
        latency_bits: summary.avg_packet_latency.to_bits(),
        hops_bits: summary.avg_hops.to_bits(),
        p99_bits: summary.p99_latency.to_bits(),
        histogram_bins: net.metrics().latency_histogram().bins().to_vec(),
        dropped_on_fault: net.metrics().dropped_on_fault_packets(),
        retargeted: net.metrics().retargeted_packets(),
        lost_credits: net.fault_lost_credits(),
        drained,
    }
}

/// Drive `net` from its current cycle to the end of the measurement window
/// (starting measurement at the warmup boundary if it hasn't started) and
/// drain.
fn finish(net: &mut Network, warmup: u64, total: u64) -> Fingerprint {
    if net.cycle() < warmup {
        let ahead = warmup - net.cycle();
        net.run_cycles(ahead);
        let start = net.cycle();
        net.metrics_mut().start_measurement(start);
    }
    net.run_cycles(total - net.cycle());
    let drained = net.drain(100_000);
    fingerprint_of(net, drained)
}

/// The uninterrupted reference run.
fn straight_run(cfg: &SimulationConfig) -> Fingerprint {
    let warmup = cfg.warmup_cycles;
    let total = warmup + cfg.measurement_cycles;
    let mut net = Network::new(cfg.clone());
    finish(&mut net, warmup, total)
}

/// Run to `checkpoint`, snapshot, restore under `resume_cfg` (same machine,
/// possibly the other `KernelMode` value), and finish the run from the
/// snapshot.
fn interrupted_run(
    cfg: &SimulationConfig,
    resume_cfg: &SimulationConfig,
    checkpoint: u64,
) -> Fingerprint {
    let warmup = cfg.warmup_cycles;
    let total = warmup + cfg.measurement_cycles;
    assert!(checkpoint < total);
    let mut net = Network::new(cfg.clone());
    if checkpoint >= warmup {
        net.run_cycles(warmup);
        let start = net.cycle();
        net.metrics_mut().start_measurement(start);
        net.run_cycles(checkpoint - warmup);
    } else {
        net.run_cycles(checkpoint);
    }
    let bytes = net.snapshot();
    drop(net);
    let mut resumed = Network::restore(resume_cfg.clone(), &bytes).expect("snapshot restores");
    assert_eq!(resumed.cycle(), checkpoint);
    // what restore derives instead of reading (availability mask, failure
    // flags, router link views) must re-encode to the very same bytes
    assert_eq!(
        resumed.snapshot(),
        bytes,
        "snapshot -> restore -> snapshot moved at cycle {checkpoint}"
    );
    finish(&mut resumed, warmup, total)
}

/// Deterministic pseudo-random checkpoint cycles in `[1, total)`, biased
/// nowhere in particular — the property must hold at *any* cycle.
fn random_checkpoints(seed: u64, total: u64, n: usize) -> Vec<u64> {
    let mut rng = DeterministicRng::new(seed);
    (0..n).map(|_| 1 + rng.next_u64() % (total - 1)).collect()
}

#[test]
fn resume_is_bit_identical_at_random_checkpoints() {
    let cfg = base_config(KernelMode::Optimized);
    let reference = straight_run(&cfg);
    for checkpoint in random_checkpoints(0xC0FFEE, 800, 6) {
        let resumed = interrupted_run(&cfg, &cfg, checkpoint);
        assert_eq!(
            resumed, reference,
            "resume from cycle {checkpoint} diverged from the uninterrupted run"
        );
    }
}

#[test]
fn parallel_kernel_value_snapshots_and_restores_like_optimized() {
    // `KernelMode::Parallel { workers }` survives for callers that name it
    // (the benchmark builds `workers: 2` and restores an optimized
    // snapshot under it): the value builds, runs to the very snapshot bytes
    // `Optimized` does, and takes an `Optimized` snapshot — the mixed run
    // still lands on the uninterrupted reference, itself pinned to what the
    // retired seed kernel reached.
    let optimized = base_config(KernelMode::Optimized);
    let parallel = base_config(KernelMode::Parallel { workers: 2 });
    let (mut a, mut b) = (
        Network::new(optimized.clone()),
        Network::new(parallel.clone()),
    );
    for at in [200, 600] {
        a.run_cycles(at - a.cycle());
        b.run_cycles(at - b.cycle());
        assert!(
            a.snapshot() == b.snapshot(),
            "snapshot bytes differ at cycle {at}"
        );
    }
    let reference = straight_run(&optimized);
    frozen::assert_frozen("uninterrupted reference", &reference, 0x2E46_E0B1_D9C7_A208);
    for checkpoint in random_checkpoints(0xBEEF, 800, 2) {
        assert_eq!(
            interrupted_run(&optimized, &parallel, checkpoint),
            reference,
            "an optimized snapshot from cycle {checkpoint} resumed elsewhere under Parallel{{2}}"
        );
    }
}

#[test]
fn resume_mid_fault_window_is_bit_identical() {
    // Checkpoints landing inside an open link-outage window: the snapshot
    // must carry the down-link set, the lost-credit ledger and the pending
    // repair events.
    let topo = Dragonfly::new(DragonflyParams::small());
    let (r1, p1) = FaultPlan::global_link_between(&topo, GroupId(0), GroupId(3));
    let (r2, p2) = FaultPlan::global_link_between(&topo, GroupId(2), GroupId(5));
    let faults = FaultPlan::new()
        .link_down(250, r1, p1)
        .link_down(320, r2, p2)
        .link_up(520, r1, p1)
        .link_up(600, r2, p2);
    let cfg = SimulationConfig::builder()
        .topology(DragonflyParams::small())
        .network(NetworkConfig::fast_test())
        .routing(RoutingKind::PiggyBacking)
        .pattern(PatternKind::Adversarial { offset: 1 })
        .offered_load(0.2)
        .warmup_cycles(200)
        .measurement_cycles(600)
        .faults(faults)
        .seed(4)
        .build()
        .expect("valid configuration");
    let reference = straight_run(&cfg);
    // Two checkpoints strictly inside the outage windows, one after repair.
    for checkpoint in [300, 450, 700] {
        let resumed = interrupted_run(&cfg, &cfg, checkpoint);
        assert_eq!(
            resumed, reference,
            "mid-fault resume from cycle {checkpoint} diverged"
        );
    }
}

#[test]
fn resume_mid_churn_is_bit_identical() {
    // Sustained seeded churn over links and nodes: checkpoints drawn inside
    // the churn window must restore the spare-remapping and node-failure
    // state exactly. The router link views and failure flags are derived on
    // restore, so the checkpoints land mid-flood under both dissemination
    // cadences: ECtN (a flooding hop every update period) and PB (every
    // cycle).
    for routing in [RoutingKind::Ectn, RoutingKind::PiggyBacking] {
        let churn = ChurnModel::new(23, 200, 700)
            .global_links(ChurnRate::new(600.0, 120.0))
            .local_links(ChurnRate::new(1_200.0, 120.0))
            .nodes(ChurnRate::new(2_400.0, 120.0));
        let cfg = SimulationConfig::builder()
            .topology(DragonflyParams::small())
            .network(NetworkConfig::fast_test())
            .routing(routing)
            .pattern(PatternKind::Uniform)
            .offered_load(0.25)
            .warmup_cycles(200)
            .measurement_cycles(600)
            .churn(churn)
            .seed(8)
            .build()
            .expect("valid configuration");
        let reference = straight_run(&cfg);
        assert!(reference.retargeted > 0, "{routing}: the churn fails nodes");
        for checkpoint in random_checkpoints(0xD1CE, 700, 4) {
            let resumed = interrupted_run(&cfg, &cfg, checkpoint);
            assert_eq!(
                resumed, reference,
                "{routing}: mid-churn resume from cycle {checkpoint} diverged"
            );
        }
    }
}

#[test]
fn mid_drain_snapshot_resumes_bit_identically() {
    // Checkpointing inside the drain phase: a drain whose budget runs out
    // stops exactly `budget` cycles on, and the resumed network must finish
    // the drain to the same fingerprint as an uninterrupted one.
    let cfg = base_config(KernelMode::Optimized);
    let warmup = cfg.warmup_cycles;
    let total = warmup + cfg.measurement_cycles;

    let mut straight = Network::new(cfg.clone());
    let reference = finish(&mut straight, warmup, total);
    assert!(reference.drained);

    let mut net = Network::new(cfg.clone());
    net.run_cycles(warmup);
    let start = net.cycle();
    net.metrics_mut().start_measurement(start);
    net.run_cycles(total - warmup);
    let checkpoint = net.cycle() + 40;
    let done = net.drain(40);
    assert!(
        !done,
        "the drain budget is deliberately too small to finish"
    );
    assert_eq!(
        net.cycle(),
        checkpoint,
        "a drain that runs out of budget stops exactly at its deadline"
    );
    let bytes = net.snapshot();
    drop(net);
    let mut resumed = Network::restore(cfg, &bytes).expect("mid-drain snapshot restores");
    let drained = resumed.drain(100_000 - 40);
    assert_eq!(fingerprint_of(&resumed, drained), reference);
}

#[test]
fn resumed_golden_run_reproduces_the_pinned_constants() {
    // The same configuration `determinism::golden_summary_is_pinned` pins —
    // interrupted at an arbitrary measurement cycle and resumed, it must
    // reproduce the identical literal constants.
    let cfg = base_config(KernelMode::Optimized);
    let fp = interrupted_run(&cfg, &cfg, 433);
    assert!(fp.drained, "golden run must drain");
    assert_eq!(fp.in_flight, 0);
    assert_eq!(fp.delivered_window, 1_233);
    assert_eq!(fp.delivered_total, 1_425);
    assert_eq!(fp.final_cycle, 952);
    assert_eq!(fp.latency_bits, 0x405A_3D17_E070_F279);
}

#[test]
#[ignore = "paper-scale smoke: ~1k-router topology, run explicitly"]
fn paper_scale_snapshot_resume_smoke() {
    let cfg = SimulationConfig::builder()
        .topology(DragonflyParams::paper_table1())
        .network(NetworkConfig::paper_table1())
        .routing(RoutingKind::PiggyBacking)
        .pattern(PatternKind::Adversarial { offset: 1 })
        .offered_load(0.2)
        .warmup_cycles(400)
        .measurement_cycles(800)
        .seed(2)
        .build()
        .expect("valid configuration");
    let reference = straight_run(&cfg);
    let resumed = interrupted_run(&cfg, &cfg, 650);
    assert_eq!(resumed, reference, "paper-scale resume diverged");
    assert!(reference.delivered_window > 0);
}

/// `(routing, pattern, offered load, checkpoint cycle, snapshot length,
/// FNV-1a64 of the snapshot bytes)` — so a change that claims to keep
/// "every snapshot byte" has something to be held to across commits (the
/// resume tests above only compare two runs of the same build). Captured
/// before activity-proportional stepping and re-captured once per format
/// version since (`SNAPSHOT_VERSION` 7: each cell 4,380 bytes shorter —
/// per router 103 (the contention bank, ECtN's partial array and the link
/// flags, each with its length prefix), per node 5 (drain flag and spare),
/// the fault cursor, the truth map, nine previous-round views and three
/// length prefixes; version 8: 1 byte shorter per encoded packet and 4 more
/// per pending delivery — 25, 482, 488 and 14 bytes — and a new
/// configuration fingerprint, the fixed Table I settings having left the
/// configuration; version 9: each cell 1,176 bytes shorter — 16 per node
/// (its injected and generated packet counts) and 24 for the in-flight
/// packets and phits and the generated-phit total; version 10: each cell
/// 56 bytes shorter — the window's delivered packets, five phit counts and
/// the completed-step count; version 11: each cell 7,940 bytes shorter — per
/// router 208 (21 length prefixes, ECtN's 32-byte combined array and PB's
/// 8-byte group view) less 288 for one combined array per group, and 740
/// at network level: seven length prefixes (routers, RNG streams, nodes,
/// group views, each series' counts, histogram bins), the phase index, 71
/// of the 72 per-node offered loads, the series origin, each series'
/// origin and bin width, the histogram's range, bin width and count, and
/// nine 4-byte links-per-group stamps; version 12: 360 bytes more from
/// the format — each of the 72 injectors' 4-byte gap and certain-success
/// flag — and the rest from the new injector streams, which leave other
/// packets queued and in flight at each checkpoint). The last
/// cell sits at a load where nearly every injector is many cycles from its
/// next packet: a wrong gap or stream position in a mid-gap snapshot shows
/// up here and nowhere else.
const PINNED_SNAPSHOTS: [(RoutingKind, PatternKind, f64, u64, usize, u64); 4] = [
    (
        RoutingKind::PiggyBacking,
        PatternKind::Uniform,
        0.05,
        137,
        31_315,
        0x5C02_8E30_19F5_22B5,
    ),
    (
        RoutingKind::PiggyBacking,
        PatternKind::Adversarial { offset: 1 },
        0.4,
        333,
        54_265,
        0xC008_8896_2D32_99AB,
    ),
    (
        RoutingKind::Ectn,
        PatternKind::Adversarial { offset: 1 },
        0.4,
        250,
        52_205,
        0x3BF7_2CFD_49E7_F483,
    ),
    (
        RoutingKind::Base,
        PatternKind::Uniform,
        0.01,
        599,
        31_004,
        0xA243_669C_D0DD_3B2C,
    ),
];

#[test]
fn snapshot_bytes_are_pinned() {
    use contention_dragonfly::engine::codec::fnv1a64;
    for (routing, pattern, load, at, len, digest) in PINNED_SNAPSHOTS {
        let cfg = SimulationConfig::builder()
            .topology(DragonflyParams::small())
            .network(NetworkConfig::fast_test())
            .routing(routing)
            .pattern(pattern)
            .offered_load(load)
            .warmup_cycles(200)
            .measurement_cycles(400)
            .seed(11)
            .build()
            .expect("valid configuration");
        let mut net = Network::new(cfg);
        net.run_cycles(at);
        let bytes = net.snapshot();
        assert_eq!(
            (bytes.len(), fnv1a64(&bytes)),
            (len, digest),
            "{routing} / {pattern:?} / load {load}: snapshot bytes at cycle {at} moved \
             (got {} bytes, {:#018X})",
            bytes.len(),
            fnv1a64(&bytes)
        );
    }
}
