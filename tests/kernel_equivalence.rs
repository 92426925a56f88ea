//! Cross-kernel equality suite for the phase-parallel sharded kernel.
//!
//! The parallel kernel's contract is *bit-for-bit* equality with the
//! sequential optimized kernel for every worker count. This suite checks it
//! three ways:
//!
//! 1. **Against the pinned corpus** — the full 56-combination routing ×
//!    pattern golden table and the injector/phase golden table from
//!    `tests/common/golden_corpus.rs` are replayed under
//!    `KernelMode::Parallel` at worker counts 1, 2, 4 and 7. The
//!    fingerprints must match the *committed* constants, not merely a fresh
//!    sequential run — so a change that shifted every kernel in lockstep
//!    would still be caught.
//! 2. **Against the optimized kernel on richer workloads** — bursty and
//!    ramp injectors and a multi-phase transient with a load override,
//!    compared on an extended fingerprint (full latency histogram,
//!    generated phits, in-flight count, final cycle) across Optimized and
//!    Parallel at several worker counts, with the optimized fingerprint
//!    itself pinned to the digest frozen from the retired seed kernel.
//! 3. **Worker-count independence on one configuration swept 1..=7** — any
//!    pair of worker counts must agree with each other *and* with the
//!    optimized kernel.

use contention_dragonfly::prelude::*;

#[path = "common/golden_corpus.rs"]
#[allow(dead_code)] // the collective helpers are used by tests/collectives.rs
mod golden_corpus;

#[path = "common/frozen.rs"]
#[allow(dead_code)] // the drain helpers are used by the drain suites
mod frozen;

use frozen::assert_frozen;
use golden_corpus::{
    all_patterns, base_builder, churn_fingerprint, churn_routings, churn_scenarios,
    fault_fingerprint, fault_routings, fault_scenarios, fingerprint, megafly_base_builder,
    megafly_patterns, megafly_routings, special_scenarios, trigger_table_builder, GOLDEN_CHURN,
    GOLDEN_FAULTS, GOLDEN_MEGAFLY, GOLDEN_ROUTING_PATTERN, GOLDEN_SPECIAL, GOLDEN_TRIGGER_TABLE,
};

/// The worker counts the corpus replays cover: the degenerate single-shard
/// pool, the even splits, and a count that neither divides the small
/// topology's 36 routers nor its 9 groups (uneven chunks).
const WORKER_COUNTS: &[usize] = &[1, 2, 4, 7];

fn run_corpus_at(workers: usize) {
    let kernel = KernelMode::Parallel { workers };
    let mut expected = GOLDEN_ROUTING_PATTERN.iter();
    for routing in RoutingKind::ALL {
        for pattern in all_patterns() {
            let cfg = base_builder()
                .routing(routing)
                .pattern(pattern)
                .kernel(kernel)
                .build()
                .expect("valid configuration");
            let got = fingerprint(cfg);
            let &(er, ep, ed, ec, el) = expected.next().expect("one row per combination");
            assert_eq!(
                (er, ep),
                (routing.label(), pattern.label().as_str()),
                "table order drifted"
            );
            assert_eq!(
                got,
                (ed, ec, el),
                "parallel({workers}): {} under {} diverged from the pinned corpus",
                routing.label(),
                pattern.label()
            );
        }
    }
    assert!(expected.next().is_none(), "stale corpus rows");
}

#[test]
fn parallel_1_worker_reproduces_the_pinned_corpus() {
    run_corpus_at(1);
}

#[test]
fn parallel_2_workers_reproduce_the_pinned_corpus() {
    run_corpus_at(2);
}

#[test]
fn parallel_4_workers_reproduce_the_pinned_corpus() {
    run_corpus_at(4);
}

#[test]
fn parallel_7_workers_reproduce_the_pinned_corpus() {
    run_corpus_at(7);
}

#[test]
fn parallel_reproduces_the_pinned_trigger_table() {
    for &workers in WORKER_COUNTS {
        for &(routing, ed, ec, el) in GOLDEN_TRIGGER_TABLE {
            let cfg = trigger_table_builder(routing)
                .kernel(KernelMode::Parallel { workers })
                .build()
                .expect("valid configuration");
            assert_eq!(
                fingerprint(cfg),
                (ed, ec, el),
                "parallel({workers}): {} diverged from the pinned trigger table",
                routing.label()
            );
        }
    }
}

#[test]
fn parallel_reproduces_the_pinned_injector_and_phase_corpus() {
    for &workers in WORKER_COUNTS {
        let mut expected = GOLDEN_SPECIAL.iter();
        for scenario in special_scenarios() {
            for routing in [RoutingKind::Base, RoutingKind::Ectn] {
                let cfg = base_builder()
                    .routing(routing)
                    .scenario(&scenario)
                    .kernel(KernelMode::Parallel { workers })
                    .build()
                    .expect("valid configuration");
                let got = fingerprint(cfg);
                let &(es, er, ed, ec, el) = expected.next().expect("one row per combination");
                assert_eq!(
                    (es, er),
                    (scenario.name.as_str(), routing.label()),
                    "table order drifted"
                );
                assert_eq!(
                    got,
                    (ed, ec, el),
                    "parallel({workers}): {} under {} diverged from the pinned corpus",
                    scenario.name,
                    routing.label()
                );
            }
        }
    }
}

#[test]
fn parallel_reproduces_the_pinned_fault_corpus() {
    // the fault-injection acceptance bar: every fault-corpus cell —
    // including its dropped-on-fault and stranded-packet counts — must be
    // bit-identical to the committed fingerprints at workers {1, 2, 4}
    for workers in [1usize, 2, 4] {
        let mut expected = GOLDEN_FAULTS.iter();
        for scenario in fault_scenarios() {
            for routing in fault_routings() {
                let cfg = base_builder()
                    .routing(routing)
                    .scenario(&scenario)
                    .kernel(KernelMode::Parallel { workers })
                    .build()
                    .expect("valid configuration");
                let got = fault_fingerprint(cfg);
                let &(es, er, ed, edrop, einf, ec, el) =
                    expected.next().expect("one row per combination");
                assert_eq!(
                    (es, er),
                    (scenario.name.as_str(), routing.label()),
                    "table order drifted"
                );
                assert_eq!(
                    got,
                    (ed, edrop, einf, ec, el),
                    "parallel({workers}): {} under {} diverged from the pinned fault corpus",
                    scenario.name,
                    routing.label()
                );
            }
        }
        assert!(expected.next().is_none(), "stale fault-corpus rows");
    }
}

#[test]
fn parallel_reproduces_the_pinned_megafly_corpus() {
    // topology pluralism's acceptance bar: the second `Topology` instance
    // must satisfy the same cross-kernel bit-identity contract as the
    // Dragonfly — replay the pinned Megafly slice under the sharded kernel
    // at an even split and at a worker count that divides neither the 72
    // routers' 9 groups nor their leaves evenly
    for workers in [2usize, 7] {
        let mut expected = GOLDEN_MEGAFLY.iter();
        for routing in megafly_routings() {
            for pattern in megafly_patterns() {
                let cfg = megafly_base_builder()
                    .routing(routing)
                    .pattern(pattern)
                    .kernel(KernelMode::Parallel { workers })
                    .build()
                    .expect("valid megafly configuration");
                let got = fingerprint(cfg);
                let &(er, ep, ed, ec, el) = expected.next().expect("one row per combination");
                assert_eq!(er, routing.label(), "table order drifted");
                assert_eq!(ep, pattern.label(), "table order drifted");
                assert_eq!(
                    got,
                    (ed, ec, el),
                    "parallel({workers}): megafly {} under {} diverged from the pinned corpus",
                    routing.label(),
                    pattern.label()
                );
            }
        }
        assert!(expected.next().is_none(), "stale megafly rows");
    }
}

#[test]
fn parallel_reproduces_the_pinned_churn_corpus() {
    // the churn acceptance bar: ChurnModel-generated failure processes
    // (link churn + node failures with reroute-to-spare) disseminated by
    // hop-delayed flooding must be bit-identical to the committed
    // fingerprints — dropped, retargeted and stranded counts included — at
    // workers {1, 2, 4}
    for workers in [1usize, 2, 4] {
        let mut expected = GOLDEN_CHURN.iter();
        for scenario in churn_scenarios() {
            for routing in churn_routings() {
                let cfg = base_builder()
                    .routing(routing)
                    .scenario(&scenario)
                    .kernel(KernelMode::Parallel { workers })
                    .build()
                    .expect("valid configuration");
                let got = churn_fingerprint(cfg);
                let &(es, er, ed, edrop, eret, einf, ec, el) =
                    expected.next().expect("one row per combination");
                assert_eq!(
                    (es, er),
                    (scenario.name.as_str(), routing.label()),
                    "table order drifted"
                );
                assert_eq!(
                    got,
                    (ed, edrop, eret, einf, ec, el),
                    "parallel({workers}): {} under {} diverged from the pinned churn corpus",
                    scenario.name,
                    routing.label()
                );
            }
        }
        assert!(expected.next().is_none(), "stale churn-corpus rows");
    }
}

// ---------------------------------------------------------------------------
// Extended fingerprints across both kernel modes
// ---------------------------------------------------------------------------

/// Everything that must match between two equivalent runs — a superset of
/// the corpus fingerprint, including the full latency histogram.
#[derive(Debug, PartialEq)]
struct RichFingerprint {
    delivered_window: u64,
    delivered_total: u64,
    generated_phits: u64,
    final_cycle: u64,
    in_flight: u64,
    pending_events: usize,
    latency_bits: u64,
    hops_bits: u64,
    p99_bits: u64,
    misroute_global_bits: u64,
    histogram_bins: Vec<u64>,
    drained: bool,
}

fn rich_fingerprint(cfg: SimulationConfig) -> RichFingerprint {
    let mut net = Network::new(cfg.clone());
    net.run_cycles(cfg.warmup_cycles);
    let start = net.cycle();
    net.metrics_mut().start_measurement(start);
    net.run_cycles(cfg.measurement_cycles);
    let drained = net.drain(100_000);
    let summary = net.metrics().window_summary();
    RichFingerprint {
        delivered_window: summary.delivered_packets,
        delivered_total: net.metrics().delivered_packets_total(),
        generated_phits: net.metrics().generated_phits_total,
        final_cycle: net.cycle(),
        in_flight: net.in_flight(),
        pending_events: net.pending_events(),
        latency_bits: summary.avg_packet_latency.to_bits(),
        hops_bits: summary.avg_hops.to_bits(),
        p99_bits: summary.p99_latency.to_bits(),
        misroute_global_bits: summary.global_misroute_fraction.to_bits(),
        histogram_bins: net.metrics().latency_histogram().bins().to_vec(),
        drained,
    }
}

fn injector_builder(injection: InjectionKind) -> df_sim::SimulationConfigBuilder {
    SimulationConfig::builder()
        .topology(DragonflyParams::small())
        .network(NetworkConfig::fast_test())
        .routing(RoutingKind::Ectn)
        .schedule(TrafficSchedule::switch_at(
            PatternKind::Uniform,
            PatternKind::Adversarial { offset: 1 },
            400,
        ))
        .injection(injection)
        .offered_load(0.25)
        .warmup_cycles(400)
        .measurement_cycles(400)
        .seed(21)
}

#[test]
fn parallel_matches_optimized_and_the_frozen_digests_on_bursty_and_ramp_injection() {
    // ECtN routing (periodic broadcast) + a UN→ADV+1 switch + non-Bernoulli
    // injectors: exercises every parallel phase including the group-sharded
    // ECtN exchange.
    for (injection, frozen) in [
        (
            InjectionKind::Bursty {
                mean_on: 40.0,
                mean_off: 60.0,
            },
            0xD4FA_B4DD_4CFD_7728,
        ),
        (
            InjectionKind::Ramp {
                start_fraction: 0.2,
                ramp_cycles: 500,
            },
            0x2356_B022_16CB_E607,
        ),
    ] {
        let optimized = rich_fingerprint(
            injector_builder(injection)
                .kernel(KernelMode::Optimized)
                .build()
                .unwrap(),
        );
        assert_frozen(&format!("{injection:?}"), &optimized, frozen);
        for &workers in WORKER_COUNTS {
            let parallel = rich_fingerprint(
                injector_builder(injection)
                    .kernel(KernelMode::Parallel { workers })
                    .build()
                    .unwrap(),
            );
            assert_eq!(
                parallel, optimized,
                "{injection:?}: parallel({workers}) diverged from the optimized kernel"
            );
        }
    }
}

#[test]
fn parallel_matches_optimized_and_the_frozen_digest_on_a_multi_phase_transient() {
    // Three phases with a per-phase load override under PB routing (every-
    // cycle dissemination) — the control-plane-heavy corner of the phase
    // pipeline.
    let run = |kernel: KernelMode| {
        let scenario = Scenario::named("UN-storm-UN")
            .injection(InjectionKind::Bursty {
                mean_on: 30.0,
                mean_off: 30.0,
            })
            .phase(PatternKind::Uniform, 300)
            .phase_at_load(PatternKind::Adversarial { offset: 1 }, 0.35, 300)
            .hold(PatternKind::Uniform);
        let cfg = SimulationConfig::builder()
            .topology(DragonflyParams::small())
            .network(NetworkConfig::fast_test())
            .routing(RoutingKind::PiggyBacking)
            .scenario(&scenario)
            .offered_load(0.15)
            .warmup_cycles(300)
            .measurement_cycles(600)
            .seed(5)
            .kernel(kernel)
            .build()
            .unwrap();
        rich_fingerprint(cfg)
    };
    let optimized = run(KernelMode::Optimized);
    assert_frozen("UN-storm-UN under PB", &optimized, 0xB39F_C869_F129_251C);
    for &workers in WORKER_COUNTS {
        assert_eq!(
            run(KernelMode::Parallel { workers }),
            optimized,
            "parallel({workers}) diverged on the multi-phase transient"
        );
    }
}

#[test]
fn every_worker_count_from_one_to_seven_agrees() {
    // worker-count independence proper: sweep the count densely on one
    // congested adversarial configuration and require exact agreement
    let run = |kernel: KernelMode| {
        let cfg = base_builder()
            .routing(RoutingKind::Base)
            .pattern(PatternKind::Adversarial { offset: 1 })
            .offered_load(0.35)
            .kernel(kernel)
            .build()
            .unwrap();
        rich_fingerprint(cfg)
    };
    let reference = run(KernelMode::Optimized);
    for workers in 1..=7usize {
        assert_eq!(
            run(KernelMode::Parallel { workers }),
            reference,
            "parallel({workers}) diverged from the optimized kernel"
        );
    }
}
