//! End-to-end integration tests asserting the paper's *qualitative* claims on
//! a scaled-down Dragonfly.
//!
//! These are the statements the evaluation section (Figures 5–9) rests on;
//! absolute numbers differ from the paper because the network is smaller and
//! the link latencies shortened, but the orderings and the saturation points
//! must hold.

use contention_dragonfly::prelude::*;

fn steady(
    routing: RoutingKind,
    pattern: PatternKind,
    load: f64,
    warmup: u64,
    measure: u64,
    seed: u64,
) -> SteadyStateReport {
    let config = SimulationConfig::builder()
        .topology(DragonflyParams::small())
        .network(NetworkConfig::fast_test())
        .routing(routing)
        .pattern(pattern)
        .offered_load(load)
        .warmup_cycles(warmup)
        .measurement_cycles(measure)
        .seed(seed)
        .build()
        .expect("valid configuration");
    run_steady_state(&config)
}

#[test]
fn min_has_the_lowest_latency_under_light_uniform_traffic() {
    // Figure 5a, low-load region: MIN never misroutes, so it sets the latency
    // floor; Base matches it because contention counters stay below the
    // threshold; OLM misroutes occasionally and pays extra hops.
    let min = steady(
        RoutingKind::Minimal,
        PatternKind::Uniform,
        0.1,
        1_000,
        2_000,
        1,
    );
    let base = steady(
        RoutingKind::Base,
        PatternKind::Uniform,
        0.1,
        1_000,
        2_000,
        1,
    );
    let val = steady(
        RoutingKind::Valiant,
        PatternKind::Uniform,
        0.1,
        1_000,
        2_000,
        1,
    );
    assert!(min.delivered_packets > 100);
    assert!(
        base.avg_packet_latency <= min.avg_packet_latency * 1.10,
        "Base ({:.1}) must track MIN ({:.1}) at low uniform load",
        base.avg_packet_latency,
        min.avg_packet_latency
    );
    assert!(
        val.avg_packet_latency > min.avg_packet_latency * 1.2,
        "VAL ({:.1}) always pays the longer path versus MIN ({:.1})",
        val.avg_packet_latency,
        min.avg_packet_latency
    );
    assert_eq!(min.global_misroute_fraction, 0.0);
    assert!(base.global_misroute_fraction < 0.2);
}

#[test]
fn min_throughput_collapses_under_adversarial_traffic() {
    // Figure 5b: under ADV+1 the single global link between consecutive
    // groups caps minimal routing at 1/(a*p) phits/(node·cycle).
    let limit = DragonflyParams::small().adversarial_min_throughput_limit();
    let min = steady(
        RoutingKind::Minimal,
        PatternKind::Adversarial { offset: 1 },
        0.4,
        2_000,
        3_000,
        1,
    );
    assert!(
        min.accepted_load < limit * 2.0,
        "MIN accepted {:.3} but the theoretical cap is {:.3}",
        min.accepted_load,
        limit
    );
    assert!(
        min.accepted_load < 0.4 * 0.8,
        "MIN must accept far less than offered under ADV+1"
    );
}

#[test]
fn nonminimal_routing_beats_min_under_adversarial_traffic() {
    // Figure 5b: VAL and the adaptive mechanisms sustain several times the
    // minimal-routing throughput under ADV+1.
    let load = 0.35;
    let min = steady(
        RoutingKind::Minimal,
        PatternKind::Adversarial { offset: 1 },
        load,
        2_000,
        3_000,
        2,
    );
    for routing in [RoutingKind::Valiant, RoutingKind::Base, RoutingKind::Olm] {
        let r = steady(
            routing,
            PatternKind::Adversarial { offset: 1 },
            load,
            2_000,
            3_000,
            2,
        );
        assert!(
            r.accepted_load > min.accepted_load * 1.5,
            "{} accepted {:.3}, MIN accepted {:.3}: nonminimal routing must win under ADV+1",
            routing.label(),
            r.accepted_load,
            min.accepted_load
        );
    }
}

#[test]
fn contention_mechanisms_misroute_nearly_everything_under_heavy_adv() {
    // Figure 7b / §VI-C: once the adversarial pattern is established and the
    // load is high, (nearly) all inter-group traffic is diverted.
    let base = steady(
        RoutingKind::Base,
        PatternKind::Adversarial { offset: 1 },
        0.30,
        3_000,
        3_000,
        3,
    );
    assert!(base.delivered_packets > 200);
    assert!(
        base.global_misroute_fraction > 0.5,
        "Base should misroute most packets under saturated ADV+1, got {:.2}",
        base.global_misroute_fraction
    );
}

#[test]
fn base_matches_adaptive_baselines_throughput_under_adv() {
    // Figure 5b: the throughput of Base/Hybrid/ECtN is on par with OLM.
    let load = 0.40;
    let olm = steady(
        RoutingKind::Olm,
        PatternKind::Adversarial { offset: 1 },
        load,
        2_000,
        3_000,
        4,
    );
    for routing in [RoutingKind::Base, RoutingKind::Hybrid, RoutingKind::Ectn] {
        let r = steady(
            routing,
            PatternKind::Adversarial { offset: 1 },
            load,
            2_000,
            3_000,
            4,
        );
        assert!(
            r.accepted_load > olm.accepted_load * 0.8,
            "{} accepted {:.3} versus OLM {:.3}: contention mechanisms must stay competitive",
            routing.label(),
            r.accepted_load,
            olm.accepted_load
        );
    }
}

#[test]
fn uniform_traffic_throughput_is_not_sacrificed() {
    // Figure 5a, throughput graph: Base/ECtN stay close to MIN and OLM at
    // high uniform load.
    let load = 0.6;
    let min = steady(
        RoutingKind::Minimal,
        PatternKind::Uniform,
        load,
        2_000,
        3_000,
        5,
    );
    let base = steady(
        RoutingKind::Base,
        PatternKind::Uniform,
        load,
        2_000,
        3_000,
        5,
    );
    assert!(
        base.accepted_load > min.accepted_load * 0.85,
        "Base accepted {:.3} versus MIN {:.3} under uniform load {load}",
        base.accepted_load,
        min.accepted_load
    );
}

#[test]
fn adv_h_pattern_also_benefits_from_local_misrouting() {
    // Figure 5c: ADV+h additionally saturates local links; the adaptive
    // mechanisms still deliver much more than MIN.
    let h = DragonflyParams::small().h;
    let load = 0.30;
    let min = steady(
        RoutingKind::Minimal,
        PatternKind::Adversarial { offset: h },
        load,
        2_000,
        3_000,
        6,
    );
    let base = steady(
        RoutingKind::Base,
        PatternKind::Adversarial { offset: h },
        load,
        2_000,
        3_000,
        6,
    );
    assert!(
        base.accepted_load > min.accepted_load,
        "Base ({:.3}) must beat MIN ({:.3}) under ADV+h",
        base.accepted_load,
        min.accepted_load
    );
    // local misrouting must actually be exercised by this pattern
    assert!(
        base.local_misroute_fraction > 0.0,
        "ADV+h should trigger at least some local detours"
    );
}

#[test]
fn transient_adaptation_is_faster_with_contention_counters() {
    // Figure 7: after a UN→ADV+1 change, Base commits to misrouting much
    // sooner than the credit-based OLM.
    let switch_at = 2_000u64;
    let follow = 1_500u64;
    let run = |routing: RoutingKind| -> TransientReport {
        let schedule = TrafficSchedule::switch_at(
            PatternKind::Uniform,
            PatternKind::Adversarial { offset: 1 },
            switch_at,
        );
        // The small test network has only p=2 injection ports, so the
        // auto-calibrated threshold sits exactly at the injection-port demand
        // limit; use the lower end of the valid range (as §VI-A recommends
        // favouring adversarial latency) so the adaptation-speed comparison
        // reflects the mechanism rather than the scaled-down geometry.
        let routing_config = df_routing::RoutingConfig::calibrated_for(
            &DragonflyParams::small(),
            &NetworkConfig::fast_test().vcs,
        )
        .with_contention_threshold(3);
        let config = SimulationConfig::builder()
            .topology(DragonflyParams::small())
            .network(NetworkConfig::fast_test())
            .routing(routing)
            .routing_config(routing_config)
            .schedule(schedule)
            .offered_load(0.25)
            .warmup_cycles(switch_at)
            .measurement_cycles(follow)
            .seed(7)
            .build()
            .expect("valid configuration");
        run_transient(&config)
    };
    let base = run(RoutingKind::Base);
    let olm = run(RoutingKind::Olm);
    // Base must commit to misrouting quickly once the pattern turns
    // adversarial (the paper reports tens of cycles; allow slack for the
    // scaled-down network where the contention threshold sits right at the
    // injection-port demand).
    let base_reach = base.misroute_reaches(50.0);
    assert!(
        matches!(base_reach, Some(t) if t <= 800),
        "Base must reach 50% misrouting shortly after the adversarial switch, got {base_reach:?}"
    );
    // ... and before the switch it was routing (mostly) minimally, unlike the
    // credit-based OLM which misroutes opportunistically even under UN.
    let base_before = base.mean_misroute_between(-1_500, 0);
    assert!(
        base_before < 40.0,
        "Base should rarely misroute under uniform traffic, got {base_before:.0}%"
    );
    // During the adaptation window Base must not suffer a larger latency
    // excursion than the credit-based OLM (the paper's Figure 7a shows the
    // opposite, credit triggers needing hundreds of cycles to react).
    let base_spike = base.mean_latency_between(0, 400);
    let olm_spike = olm.mean_latency_between(0, 400);
    assert!(
        base_spike <= olm_spike * 1.25,
        "Base adaptation spike ({base_spike:.0}) must not exceed OLM's ({olm_spike:.0}) by much"
    );
    // and in steady state after the change, Base misroutes a large share of
    // its traffic (at this moderate load part of it still fits minimally)
    assert!(
        base.mean_misroute_between(500, 1_500) > 35.0,
        "Base should misroute a large share of traffic once ADV+1 is established, got {:.0}%",
        base.mean_misroute_between(500, 1_500)
    );
}

#[test]
fn latency_recovers_to_adv_steady_state_after_the_transient() {
    // §VI-C / Figures 7–9: the adaptive mechanisms do not merely survive a
    // UN→ADV+1 phase change — after the adaptation window their latency
    // settles back to the *steady-state* ADV+1 level. A mechanism that kept
    // oscillating or stuck in a congested regime would fail this.
    let switch_at = 2_000u64;
    let follow = 2_000u64;
    let load = 0.25;
    for routing in [RoutingKind::Base, RoutingKind::Ectn] {
        let routing_config = RoutingConfig::calibrated_for(
            &DragonflyParams::small(),
            &NetworkConfig::fast_test().vcs,
        )
        .with_contention_threshold(3);
        let steady_cfg = SimulationConfig::builder()
            .topology(DragonflyParams::small())
            .network(NetworkConfig::fast_test())
            .routing(routing)
            .routing_config(routing_config)
            .pattern(PatternKind::Adversarial { offset: 1 })
            .offered_load(load)
            .warmup_cycles(switch_at)
            .measurement_cycles(follow)
            .seed(7)
            .build()
            .expect("valid configuration");
        let steady = run_steady_state(&steady_cfg);
        let schedule = TrafficSchedule::switch_at(
            PatternKind::Uniform,
            PatternKind::Adversarial { offset: 1 },
            switch_at,
        );
        let transient_cfg = SimulationConfig::builder()
            .topology(DragonflyParams::small())
            .network(NetworkConfig::fast_test())
            .routing(routing)
            .routing_config(routing_config)
            .schedule(schedule)
            .offered_load(load)
            .warmup_cycles(switch_at)
            .measurement_cycles(follow)
            .seed(7)
            .build()
            .expect("valid configuration");
        let report = run_transient(&transient_cfg);
        let late = report.mean_latency_between(1_000, 2_000);
        assert!(
            late.is_finite() && late > 0.0,
            "{}: the late window must contain deliveries",
            routing.label()
        );
        assert!(
            late <= steady.avg_packet_latency * 1.25 && late >= steady.avg_packet_latency * 0.75,
            "{}: latency {:.1} one adaptation window after the switch must settle within \
             25% of the steady-state ADV+1 latency {:.1}",
            routing.label(),
            late,
            steady.avg_packet_latency
        );
        // and the mechanism must actually be in its adapted regime there,
        // misrouting a substantial share of traffic
        assert!(
            report.mean_misroute_between(1_000, 2_000) > 35.0,
            "{}: the recovered regime must be the misrouting one, got {:.0}%",
            routing.label(),
            report.mean_misroute_between(1_000, 2_000)
        );
    }
}

#[test]
fn before_the_switch_nobody_misroutes_much() {
    // sanity for the transient harness itself: under UN at 25% load the
    // misrouting percentage is low for Base before the change.
    let switch_at = 2_000u64;
    let schedule = TrafficSchedule::switch_at(
        PatternKind::Uniform,
        PatternKind::Adversarial { offset: 1 },
        switch_at,
    );
    let config = SimulationConfig::builder()
        .topology(DragonflyParams::small())
        .network(NetworkConfig::fast_test())
        .routing(RoutingKind::Base)
        .schedule(schedule)
        .offered_load(0.25)
        .warmup_cycles(switch_at)
        .measurement_cycles(500)
        .seed(8)
        .build()
        .expect("valid configuration");
    let report = run_transient(&config);
    let before = report.mean_misroute_between(-1_500, 0);
    assert!(
        before < 30.0,
        "uniform traffic should rarely trigger misrouting, got {before:.0}%"
    );
}

// ---------------------------------------------------------------------------
// PR 5: failure-aware routing
// ---------------------------------------------------------------------------

/// Cycles until throughput is durably restored to ≥90% of the pre-fault
/// steady state: the earliest post-fault instant from which the cumulative
/// delivery rate stays at or above 90% of the rate measured before the
/// fault, capped at `horizon` when it never does.
fn restore_cycles_after_gateway_loss(routing: RoutingKind, seed: u64, horizon: i64) -> i64 {
    let topo = Dragonfly::new(DragonflyParams::small());
    let (gw01, port01) = df_sim::FaultPlan::global_link_between(&topo, GroupId(0), GroupId(1));
    let (gw12, port12) = df_sim::FaultPlan::global_link_between(&topo, GroupId(1), GroupId(2));
    let config = SimulationConfig::builder()
        .topology(DragonflyParams::small())
        .network(NetworkConfig::fast_test())
        .routing(routing)
        .pattern(PatternKind::Adversarial { offset: 1 })
        .offered_load(0.25)
        .warmup_cycles(200)
        .measurement_cycles(1_600)
        .seed(seed)
        // the adversarial hot path loses its gateway links at cycle 500
        .faults(
            df_sim::FaultPlan::new()
                .link_down(500, gw01, port01)
                .link_down(500, gw12, port12),
        )
        .build()
        .expect("valid configuration");
    let mut net = Network::new(config);
    net.run_cycles(1_800);
    let series = net.metrics().delivery_count_series();
    let fault_rel = 300i64; // series origin is the warm-up end (200)
    let pre: Vec<u64> = series
        .iter()
        .filter(|(t, _)| *t >= 60 && *t < fault_rel)
        .map(|(_, n)| *n)
        .collect();
    let bin = net.metrics().series_bin_width() as f64;
    let pre_rate = pre.iter().sum::<u64>() as f64 / (pre.len() as f64 * bin);
    let mut cum = 0u64;
    let mut ratios: Vec<(i64, f64)> = Vec::new();
    for (t, n) in series
        .iter()
        .filter(|(t, _)| *t >= fault_rel && *t - fault_rel < horizon)
    {
        cum += n;
        let elapsed = (t - fault_rel) as f64 + bin;
        ratios.push((
            t - fault_rel + bin as i64,
            cum as f64 / (pre_rate * elapsed),
        ));
    }
    let mut answer = horizon;
    for i in (0..ratios.len()).rev() {
        if ratios[i].1 < 0.9 {
            break;
        }
        answer = ratios[i].0;
    }
    answer
}

#[test]
fn linkstate_dissemination_restores_throughput_faster_than_gateway_discovery() {
    // The failure-aware-routing claim: when the adversarial hot path loses
    // its gateway links, the mechanisms that disseminate link state through
    // their existing control plane (ECtN's periodic broadcast, PB's
    // every-cycle piggybacking) steer injections away at the *source* and
    // restore ≥90% of the pre-fault steady-state delivery rate strictly
    // sooner than gateway discovery (Base), which keeps committing traffic
    // towards the dead gateways until backpressure — and the unroutable
    // discards behind it — throttle the sources. Aggregated over a fixed
    // seed panel so the ordering reflects the mechanism, not one lucky run.
    let horizon = 1_200i64;
    let seeds = [7u64, 11, 23, 42, 99];
    let total = |routing: RoutingKind| -> i64 {
        seeds
            .iter()
            .map(|&s| restore_cycles_after_gateway_loss(routing, s, horizon))
            .sum()
    };
    let base = total(RoutingKind::Base);
    let ectn = total(RoutingKind::Ectn);
    let pb = total(RoutingKind::PiggyBacking);
    assert!(
        ectn < base,
        "ECtN's link-state broadcast must restore throughput strictly faster \
         than Base's gateway discovery ({ectn} vs {base} summed cycles)"
    );
    assert!(
        pb < base,
        "PB's piggybacked link state must restore throughput strictly faster \
         than Base's gateway discovery ({pb} vs {base} summed cycles)"
    );
}
