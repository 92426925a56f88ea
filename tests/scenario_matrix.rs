//! Golden regression suite for the scenario subsystem.
//!
//! Pins the complete routing × pattern matrix (every routing mechanism under
//! every traffic pattern), the new injection processes, phased scenarios and
//! the scenario-matrix runner's per-cell seeding to literal fingerprints.
//! Any change to pattern semantics, injector randomness, phase lowering,
//! cell seeding or kernel event ordering shows up here as a diff in review
//! rather than silently shifting every future result.
//!
//! The corpus itself (tables, patterns, fingerprint definition) lives in
//! `tests/common/golden_corpus.rs`, shared with the collective and
//! multi-job suites.
//!
//! If a test in this file fails after an intentional semantics change,
//! regenerate the tables with
//!
//! ```text
//! cargo test --release --test scenario_matrix -- --ignored --nocapture
//! ```
//!
//! and paste the printed constants into `tests/common/golden_corpus.rs` in
//! the same commit, calling the update out in the PR description (same
//! contract as `tests/determinism.rs`).

use contention_dragonfly::prelude::*;

#[path = "common/golden_corpus.rs"]
#[allow(dead_code)] // the collective helpers are used by tests/collectives.rs
mod golden_corpus;

use golden_corpus::{
    all_patterns, base_builder, churn_fingerprint, churn_routings, churn_scenarios,
    collective_fingerprint, fault_fingerprint, fault_routings, fault_scenarios, fingerprint,
    megafly_base_builder, megafly_collective_config, megafly_collective_workloads,
    megafly_fault_routings, megafly_fault_scenarios, megafly_patterns, megafly_routings,
    special_scenarios, trigger_table_builder, GOLDEN_CHURN, GOLDEN_FAULTS, GOLDEN_MEGAFLY,
    GOLDEN_MEGAFLY_COLLECTIVES, GOLDEN_MEGAFLY_FAULTS, GOLDEN_ROUTING_PATTERN, GOLDEN_SPECIAL,
    GOLDEN_TRIGGER_TABLE,
};

// ---------------------------------------------------------------------------
// 1. routing × pattern golden matrix
// ---------------------------------------------------------------------------

#[test]
fn golden_routing_pattern_matrix() {
    let mut expected = GOLDEN_ROUTING_PATTERN.iter();
    for routing in RoutingKind::ALL {
        for pattern in all_patterns() {
            let cfg = base_builder()
                .routing(routing)
                .pattern(pattern)
                .build()
                .expect("valid configuration");
            let (delivered, final_cycle, latency_bits) = fingerprint(cfg);
            let &(er, ep, ed, ec, el) = expected
                .next()
                .expect("golden table has one row per routing x pattern");
            assert_eq!(er, routing.label(), "table order drifted");
            assert_eq!(ep, pattern.label(), "table order drifted");
            assert_eq!(
                (delivered, final_cycle, latency_bits),
                (ed, ec, el),
                "{} under {} diverged from the pinned fingerprint",
                routing.label(),
                pattern.label()
            );
        }
    }
    assert!(expected.next().is_none(), "stale rows in the golden table");
}

// ---------------------------------------------------------------------------
// 1b. trigger-table goldens: OLM / Base / Hybrid / ECtN with triggers firing
// ---------------------------------------------------------------------------

#[test]
fn golden_trigger_table() {
    for &(routing, ed, ec, el) in GOLDEN_TRIGGER_TABLE {
        let cfg = trigger_table_builder(routing)
            .build()
            .expect("valid configuration");
        assert_eq!(
            fingerprint(cfg),
            (ed, ec, el),
            "{} diverged from the pinned trigger-table fingerprint",
            routing.label()
        );
    }
    // the point of the slice: at this load ECtN's combined-counter stage
    // changes outcomes, so its row is not a copy of Base's
    let row = |kind| GOLDEN_TRIGGER_TABLE.iter().find(|r| r.0 == kind).unwrap();
    let (base, ectn) = (row(RoutingKind::Base), row(RoutingKind::Ectn));
    assert_ne!((base.1, base.2, base.3), (ectn.1, ectn.2, ectn.3));
}

// ---------------------------------------------------------------------------
// 2. injector and phased-scenario goldens
// ---------------------------------------------------------------------------

#[test]
fn golden_injectors_and_phases() {
    let mut expected = GOLDEN_SPECIAL.iter();
    for scenario in special_scenarios() {
        for routing in [RoutingKind::Base, RoutingKind::Ectn] {
            let cfg = base_builder()
                .routing(routing)
                .scenario(&scenario)
                .build()
                .expect("valid configuration");
            let (delivered, final_cycle, latency_bits) = fingerprint(cfg);
            let &(es, er, ed, ec, el) = expected
                .next()
                .expect("golden table has one row per scenario x routing");
            assert_eq!(es, scenario.name, "table order drifted");
            assert_eq!(er, routing.label(), "table order drifted");
            assert_eq!(
                (delivered, final_cycle, latency_bits),
                (ed, ec, el),
                "{} under {} diverged from the pinned fingerprint",
                routing.label(),
                scenario.name
            );
        }
    }
    assert!(expected.next().is_none(), "stale rows in the golden table");
}

// ---------------------------------------------------------------------------
// 2b. fault-corpus goldens
// ---------------------------------------------------------------------------

#[test]
fn golden_fault_corpus() {
    let mut expected = GOLDEN_FAULTS.iter();
    for scenario in fault_scenarios() {
        for routing in fault_routings() {
            let cfg = base_builder()
                .routing(routing)
                .scenario(&scenario)
                .build()
                .expect("valid configuration");
            let got = fault_fingerprint(cfg);
            let &(es, er, ed, edrop, einf, ec, el) = expected
                .next()
                .expect("golden table has one row per scenario x routing");
            assert_eq!(es, scenario.name, "table order drifted");
            assert_eq!(er, routing.label(), "table order drifted");
            assert_eq!(
                got,
                (ed, edrop, einf, ec, el),
                "{} under {} diverged from the pinned fault fingerprint",
                routing.label(),
                scenario.name
            );
        }
    }
    assert!(expected.next().is_none(), "stale rows in the golden table");
}

// ---------------------------------------------------------------------------
// 2c. churn-corpus goldens
// ---------------------------------------------------------------------------

#[test]
fn golden_churn_corpus() {
    let mut expected = GOLDEN_CHURN.iter();
    for scenario in churn_scenarios() {
        for routing in churn_routings() {
            let cfg = base_builder()
                .routing(routing)
                .scenario(&scenario)
                .build()
                .expect("valid configuration");
            let got = churn_fingerprint(cfg);
            let &(es, er, ed, edrop, eret, einf, ec, el) = expected
                .next()
                .expect("golden table has one row per scenario x routing");
            assert_eq!(es, scenario.name, "table order drifted");
            assert_eq!(er, routing.label(), "table order drifted");
            assert_eq!(
                got,
                (ed, edrop, eret, einf, ec, el),
                "{} under {} diverged from the pinned churn fingerprint",
                routing.label(),
                scenario.name
            );
        }
    }
    assert!(expected.next().is_none(), "stale rows in the golden table");
}

// ---------------------------------------------------------------------------
// 2d. Megafly / Dragonfly+ corpus slice: the second `Topology` instance,
// pinned exactly like the Dragonfly tables (same clock, same seed).
// ---------------------------------------------------------------------------

#[test]
fn golden_megafly_routing_pattern_matrix() {
    let mut expected = GOLDEN_MEGAFLY.iter();
    for routing in megafly_routings() {
        for pattern in megafly_patterns() {
            let cfg = megafly_base_builder()
                .routing(routing)
                .pattern(pattern)
                .build()
                .expect("valid megafly configuration");
            let (delivered, final_cycle, latency_bits) = fingerprint(cfg);
            let &(er, ep, ed, ec, el) = expected
                .next()
                .expect("golden table has one row per routing x pattern");
            assert_eq!(er, routing.label(), "table order drifted");
            assert_eq!(ep, pattern.label(), "table order drifted");
            assert_eq!(
                (delivered, final_cycle, latency_bits),
                (ed, ec, el),
                "megafly {} under {} diverged from the pinned fingerprint",
                routing.label(),
                pattern.label()
            );
        }
    }
    assert!(expected.next().is_none(), "stale rows in the golden table");
}

#[test]
fn golden_megafly_fault_corpus() {
    let mut expected = GOLDEN_MEGAFLY_FAULTS.iter();
    for scenario in megafly_fault_scenarios() {
        for routing in megafly_fault_routings() {
            let cfg = megafly_base_builder()
                .routing(routing)
                .scenario(&scenario)
                .build()
                .expect("valid megafly fault configuration");
            let got = fault_fingerprint(cfg);
            let &(es, er, ed, edrop, einf, ec, el) = expected
                .next()
                .expect("golden table has one row per scenario x routing");
            assert_eq!(es, scenario.name, "table order drifted");
            assert_eq!(er, routing.label(), "table order drifted");
            assert_eq!(
                got,
                (ed, edrop, einf, ec, el),
                "megafly {} under {} diverged from the pinned fault fingerprint",
                routing.label(),
                scenario.name
            );
        }
    }
    assert!(expected.next().is_none(), "stale rows in the golden table");
}

#[test]
fn golden_megafly_collective_corpus() {
    let mut expected = GOLDEN_MEGAFLY_COLLECTIVES.iter();
    for job in megafly_collective_workloads() {
        let workload = &job.workload;
        for routing in [RoutingKind::Base, RoutingKind::Ectn] {
            let cfg = megafly_collective_config(job.clone(), routing);
            let got = collective_fingerprint(cfg);
            let &(ew, er, edone, ed, estall, el) = expected
                .next()
                .expect("golden table has one row per workload x routing");
            assert_eq!(ew, workload.label(), "table order drifted");
            assert_eq!(er, routing.label(), "table order drifted");
            assert_eq!(
                got,
                (edone, ed, estall, el),
                "megafly {} under {} diverged from the pinned collective fingerprint",
                workload.label(),
                routing.label()
            );
        }
    }
    assert!(expected.next().is_none(), "stale rows in the golden table");
}

// ---------------------------------------------------------------------------
// 3. matrix-runner golden: per-cell seeds and results
// ---------------------------------------------------------------------------

fn golden_matrix() -> ScenarioMatrix {
    ScenarioMatrix {
        scenarios: vec![
            Scenario::steady(PatternKind::Uniform),
            Scenario::steady(PatternKind::Adversarial { offset: 1 }),
            Scenario::transient(
                PatternKind::Uniform,
                PatternKind::Adversarial { offset: 1 },
                300,
            ),
        ],
        loads: vec![0.1, 0.3],
        routings: vec![
            RoutingKind::Minimal,
            RoutingKind::Olm,
            RoutingKind::Base,
            RoutingKind::Ectn,
        ],
        seeds_per_cell: 1,
        ..ScenarioMatrix::new(base_builder().build().expect("valid template"))
    }
}

#[rustfmt::skip]
const GOLDEN_MATRIX: &[(&str, &str, u64, u64, u64)] = &[
    // (scenario, routing@load, cell_seed, delivered_window, latency_bits)
    ("UN", "MIN@0.10", 9503925850839871422, 367, 0x4045A81BE6E3668F),
    ("UN", "OLM@0.10", 13767144980073157928, 359, 0x404A32FC6F3E09FC),
    ("UN", "Base@0.10", 5029147664225670704, 338, 0x404611CC7F3E1B47),
    ("UN", "ECtN@0.10", 3240651478468372994, 395, 0x4045ED87740297AA),
    ("UN", "MIN@0.30", 8802558392465989275, 1050, 0x404749055D229F01),
    ("UN", "OLM@0.30", 3718903258026593164, 1098, 0x405104D67FC4502F),
    ("UN", "Base@0.30", 12181222327205972356, 1042, 0x404772FA98528C80),
    ("UN", "ECtN@0.30", 5586660493715374994, 1152, 0x40484038E38E38E5),
    ("ADV+1", "MIN@0.10", 11141797255196390522, 327, 0x404A7FFFFFFFFFF9),
    ("ADV+1", "OLM@0.10", 12456546649523928099, 374, 0x404E1953820DB09D),
    ("ADV+1", "Base@0.10", 16949615000871316227, 350, 0x404C530463796AC7),
    ("ADV+1", "ECtN@0.10", 5267901239321830844, 349, 0x404C17D6EC31E131),
    ("ADV+1", "MIN@0.30", 12801827229539339074, 448, 0x406D36A492492494),
    ("ADV+1", "OLM@0.30", 2312257069638493140, 1109, 0x4051AB7492D03761),
    ("ADV+1", "Base@0.30", 10216815209178313974, 1040, 0x405AB89D89D89D93),
    ("ADV+1", "ECtN@0.30", 14014122248701284430, 997, 0x405B9A30C94ED41A),
    ("UN->ADV+1", "MIN@0.10", 4276764928123989989, 334, 0x4049A0932963A403),
    ("UN->ADV+1", "OLM@0.10", 16195438644560804299, 337, 0x404C9178C88BC646),
    ("UN->ADV+1", "Base@0.10", 7285335616192603005, 372, 0x4049E5816058160A),
    ("UN->ADV+1", "ECtN@0.10", 10177911790607175144, 337, 0x404A6D63836B1C1C),
    ("UN->ADV+1", "MIN@0.30", 11737526883106114248, 695, 0x4051CD5A3E9E6375),
    ("UN->ADV+1", "OLM@0.30", 14689851459392578068, 1077, 0x4051BC50D12C730E),
    ("UN->ADV+1", "Base@0.30", 8445735730378540923, 964, 0x405222EBD142EBD5),
    ("UN->ADV+1", "ECtN@0.30", 380644212347825811, 887, 0x4052860F95CA516A),
];

#[test]
fn golden_matrix_runner_cells() {
    let cells = run_matrix(&golden_matrix(), 4);
    assert_eq!(cells.len(), GOLDEN_MATRIX.len(), "matrix shape changed");
    for (cell, &(es, ecol, eseed, ed, el)) in cells.iter().zip(GOLDEN_MATRIX) {
        let col = format!("{}@{:.2}", cell.key.routing.label(), cell.key.load);
        assert_eq!(es, cell.key.scenario, "cell order drifted");
        assert_eq!(ecol, col, "cell order drifted");
        assert_eq!(
            cell.key.seed, eseed,
            "cell seeding changed for {es}/{col}: the (base seed, indices) -> seed mapping is a compatibility contract"
        );
        assert_eq!(
            (
                cell.report.delivered_packets,
                cell.report.avg_packet_latency.to_bits()
            ),
            (ed, el),
            "{es}/{col} diverged from the pinned fingerprint"
        );
    }
}

#[test]
fn invalid_matrix_scenario_is_a_service_error_not_a_panic() {
    // used to abort the process inside `ScenarioMatrix::cells()` before the
    // service's own validation could return its error
    let dir = std::env::temp_dir().join(format!("df_matrix_bad_churn_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut matrix = golden_matrix();
    matrix.scenarios.push(
        Scenario::named("bad-churn")
            .hold(PatternKind::Uniform)
            .churn(ChurnModel::new(7, 100, 300).global_links(ChurnRate::new(0.0, 5.0))),
    );
    let err = run_sweep_service(&matrix, &RunnerOptions::new(&dir)).unwrap_err();
    assert!(
        err.contains("'bad-churn'") && err.contains("global-link mtbf"),
        "the error must name the scenario and the churn field: {err}"
    );
    assert!(
        !dir.join("journal.bin").exists(),
        "no journal may be created"
    );
}

// ---------------------------------------------------------------------------
// regeneration helper (ignored; see the module docs)
// ---------------------------------------------------------------------------

#[test]
#[ignore = "prints fresh golden tables; run with --ignored --nocapture"]
fn regenerate_golden_tables() {
    println!("// (routing, pattern, delivered_window, final_cycle, latency_bits)");
    for routing in RoutingKind::ALL {
        for pattern in all_patterns() {
            let cfg = base_builder()
                .routing(routing)
                .pattern(pattern)
                .build()
                .unwrap();
            let (d, c, l) = fingerprint(cfg);
            println!(
                "    (\"{}\", \"{}\", {}, {}, {:#018X}),",
                routing.label(),
                pattern.label(),
                d,
                c,
                l
            );
        }
    }
    println!("// trigger table: (routing, delivered_window, final_cycle, latency_bits)");
    for &(routing, ..) in GOLDEN_TRIGGER_TABLE {
        let (d, c, l) = fingerprint(trigger_table_builder(routing).build().unwrap());
        println!("    (RoutingKind::{routing:?}, {d}, {c}, {l:#018X}),");
    }
    println!("// (scenario, routing, delivered_window, final_cycle, latency_bits)");
    for scenario in special_scenarios() {
        for routing in [RoutingKind::Base, RoutingKind::Ectn] {
            let cfg = base_builder()
                .routing(routing)
                .scenario(&scenario)
                .build()
                .unwrap();
            let (d, c, l) = fingerprint(cfg);
            println!(
                "    (\"{}\", \"{}\", {}, {}, {:#018X}),",
                scenario.name,
                routing.label(),
                d,
                c,
                l
            );
        }
    }
    println!(
        "// (scenario, routing, delivered_window, dropped, in_flight, final_cycle, latency_bits)"
    );
    for scenario in fault_scenarios() {
        for routing in fault_routings() {
            let cfg = base_builder()
                .routing(routing)
                .scenario(&scenario)
                .build()
                .unwrap();
            let (d, drop, inf, c, l) = fault_fingerprint(cfg);
            println!(
                "    (\"{}\", \"{}\", {}, {}, {}, {}, {:#018X}),",
                scenario.name,
                routing.label(),
                d,
                drop,
                inf,
                c,
                l
            );
        }
    }
    println!(
        "// (scenario, routing, delivered_window, dropped, retargeted, in_flight, final_cycle, latency_bits)"
    );
    for scenario in churn_scenarios() {
        for routing in churn_routings() {
            let cfg = base_builder()
                .routing(routing)
                .scenario(&scenario)
                .build()
                .unwrap();
            let (d, drop, ret, inf, c, l) = churn_fingerprint(cfg);
            println!(
                "    (\"{}\", \"{}\", {}, {}, {}, {}, {}, {:#018X}),",
                scenario.name,
                routing.label(),
                d,
                drop,
                ret,
                inf,
                c,
                l
            );
        }
    }
    println!("// megafly: (routing, pattern, delivered_window, final_cycle, latency_bits)");
    for routing in megafly_routings() {
        for pattern in megafly_patterns() {
            let cfg = megafly_base_builder()
                .routing(routing)
                .pattern(pattern)
                .build()
                .unwrap();
            let (d, c, l) = fingerprint(cfg);
            println!(
                "    (\"{}\", \"{}\", {}, {}, {:#018X}),",
                routing.label(),
                pattern.label(),
                d,
                c,
                l
            );
        }
    }
    println!(
        "// megafly: (scenario, routing, delivered_window, dropped, in_flight, final_cycle, latency_bits)"
    );
    for scenario in megafly_fault_scenarios() {
        for routing in megafly_fault_routings() {
            let cfg = megafly_base_builder()
                .routing(routing)
                .scenario(&scenario)
                .build()
                .unwrap();
            let (d, drop, inf, c, l) = fault_fingerprint(cfg);
            println!(
                "    (\"{}\", \"{}\", {}, {}, {}, {}, {:#018X}),",
                scenario.name,
                routing.label(),
                d,
                drop,
                inf,
                c,
                l
            );
        }
    }
    println!(
        "// megafly: (workload, routing, completion_cycle, delivered, rank_stall_cycles, latency_bits)"
    );
    for job in megafly_collective_workloads() {
        let workload = &job.workload;
        for routing in [RoutingKind::Base, RoutingKind::Ectn] {
            let cfg = megafly_collective_config(job.clone(), routing);
            let (done, d, stall, l) = collective_fingerprint(cfg);
            println!(
                "    (\"{}\", \"{}\", {}, {}, {}, {:#018X}),",
                workload.label(),
                routing.label(),
                done,
                d,
                stall,
                l
            );
        }
    }
    println!("// (scenario, routing@load, cell_seed, delivered_window, latency_bits)");
    for cell in run_matrix(&golden_matrix(), 4) {
        println!(
            "    (\"{}\", \"{}@{:.2}\", {}, {}, {:#018X}),",
            cell.key.scenario,
            cell.key.routing.label(),
            cell.key.load,
            cell.key.seed,
            cell.report.delivered_packets,
            cell.report.avg_packet_latency.to_bits()
        );
    }
}
