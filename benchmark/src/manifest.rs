//! The benchmark's declarations: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` at the repo root is this
//! table rendered by `--manifest`; `check.sh` diffs the two, so the Rust
//! table is the single source of truth.

/// Seconds one run measures for (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

/// Declared workload: name and the one-line reason it exists.
pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDecl; 4] = [
    WorkloadDecl {
        name: "lowload_paper",
        why: "paper Table I Dragonfly (16,512 nodes), UN @ 0.01, Base/PB/ECtN, 100+300 cycles: few routers active, so the every-node walk and idle PB/ECtN dissemination dominate; carries setup and RSS at paper size",
    },
    WorkloadDecl {
        name: "saturated_medium",
        why: "1,056-node Dragonfly restored at saturation (UN @ 0.9 Base+PB, ADV+1 @ 0.5 ECtN+OLM, 150 cycles from cycle 800): every router active, so decide/allocate/transmit/event wheel dominate; node walk <1%",
    },
    WorkloadDecl {
        name: "jobs_medium",
        why: "1,056-node Dragonfly, three concurrent 64-rank jobs (all-to-all, ring all-reduce, 8-phase mini-app) over 0.001 UN background (88% job packets), to completion under Base/PB/ECtN: the JobsEngine path",
    },
    WorkloadDecl {
        name: "matrix_service",
        why: "run_sweep_service over 72-node Dragonfly + Megafly matrices (5 scenarios x 2 loads x 4 routings, 80 sub-runs, 2 threads, checkpoints every 500): per-cell setup, journal, snapshots, faults/churn",
    },
];

/// Declared metric. `bound` is `Some` for end-to-end metrics only.
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics (untraced runs): host time scaled to the reference
/// host's speed (see `calibrate.rs`), and host memory.
pub const END_TO_END: [MetricDecl; 4] = [
    e2e("wall_s", "s", "lower", 0.15),
    e2e("sim_cycles_per_s", "cycles/s", "higher", 0.15),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

/// Per-layer metrics (traced runs). Raw host-time numbers unless the name
/// starts with `sim.metrics.`, `sim.task.` (cycles/stalls) or `sim.fault.`,
/// which are simulated counts and repeat exactly for a fixed seed.
pub const PER_LAYER: [MetricDecl; 53] = [
    // sim.network
    layer("sim.network.step_us_p50", "us", "lower"),
    layer("sim.network.step_us_p99", "us", "lower"),
    layer("sim.network.pb_step_us_p50", "us", "lower"),
    layer("sim.network.steps", "count", "higher"),
    layer("sim.network.active_router_share", "ratio", "lower"),
    layer("sim.network.host_ns_per_phit", "ns", "lower"),
    layer("sim.network.new_ms", "ms", "lower"),
    // sim.node + traffic
    layer("sim.node.idle_floor_us_per_cycle", "us", "lower"),
    layer("traffic.injection.tick_ns", "ns", "lower"),
    layer("traffic.pattern.destination_ns", "ns", "lower"),
    // router.dissemination + pb + ectn
    layer("router.dissemination.pb_floor_us_per_cycle", "us", "lower"),
    layer(
        "router.dissemination.ectn_floor_us_per_cycle",
        "us",
        "lower",
    ),
    layer(
        "router.dissemination.pb_exchange_ns_per_group",
        "ns",
        "lower",
    ),
    layer(
        "router.dissemination.ectn_exchange_ns_per_group",
        "ns",
        "lower",
    ),
    layer(
        "router.dissemination.install_linkview_ns_per_group",
        "ns",
        "lower",
    ),
    // core.decision + core.minimal
    layer("core.decision.decide_ns.base", "ns", "lower"),
    layer("core.decision.decide_ns.ectn", "ns", "lower"),
    layer("core.decision.decide_ns.pb", "ns", "lower"),
    layer("core.decision.decide_ns.olm", "ns", "lower"),
    layer("core.minimal.minimal_output_ns", "ns", "lower"),
    // router.allocator + router.router + router.contention
    layer("router.allocator.allocate_into_ns", "ns", "lower"),
    layer("router.router.transmit_into_ns", "ns", "lower"),
    layer("router.router.receive_packet_ns", "ns", "lower"),
    layer("router.contention.inc_dec_ns", "ns", "lower"),
    // sim.events
    layer("sim.events.schedule_pop_ns_per_event", "ns", "lower"),
    layer("sim.events.empty_pop_ns", "ns", "lower"),
    layer("sim.events.pending_mean", "count", "lower"),
    // sim.task
    layer("sim.task.step_us_p50", "us", "lower"),
    layer("sim.task.host_ns_per_packet", "ns", "lower"),
    layer("sim.task.job_packet_share", "ratio", "higher"),
    layer("sim.task.completion_cycles", "cycles", "lower"),
    layer("sim.task.rank_stall_cycles", "cycles", "lower"),
    // sim.snapshot + engine.codec
    layer("sim.snapshot.encode_ms", "ms", "lower"),
    layer("sim.snapshot.restore_ms", "ms", "lower"),
    layer("sim.snapshot.bytes", "count", "lower"),
    layer("engine.codec.encode_mb_per_s", "MB/s", "higher"),
    // sim.runner + sim.sweep
    layer("sim.runner.checkpoint_overhead_share", "ratio", "lower"),
    layer("sim.runner.snapshots_written", "count", "lower"),
    layer("sim.runner.journal_bytes", "count", "lower"),
    layer("sim.sweep.cells_per_s", "1/s", "higher"),
    layer("sim.sweep.thread_efficiency", "ratio", "higher"),
    // topology.linkstate + sim.fault
    layer("topology.linkstate.merge_ns", "ns", "lower"),
    layer("sim.fault.stale_linkstate_cycles", "cycles", "lower"),
    layer("sim.fault.dropped_packets", "count", "lower"),
    // engine + sim.metrics
    layer("engine.histogram.record_ns", "ns", "lower"),
    layer("engine.rng.next_ns", "ns", "lower"),
    layer("sim.metrics.delivered_phits", "count", "higher"),
    layer("sim.metrics.delivered_packets", "count", "higher"),
    layer("sim.metrics.result_hash", "count", "higher"),
    // sim.parallel
    layer("sim.parallel.speedup_w2", "ratio", "higher"),
    layer("sim.parallel.bit_identical", "count", "higher"),
    // the tracing itself, and the host while it ran
    layer("trace.overhead_share", "ratio", "lower"),
    layer("host.calibration_speed", "ratio", "higher"),
];

/// Whether `workload` runs the layer the per-layer metric `name` belongs to.
/// Where it does not, the metric reads 0 (no work done, no time spent).
pub fn measured_on(name: &str, workload: &str) -> bool {
    if name.starts_with("sim.task.") {
        workload == "jobs_medium"
    } else if name.starts_with("sim.runner.") || name.starts_with("sim.sweep.") {
        workload == "matrix_service"
    } else {
        true
    }
}

fn metric_json(m: &MetricDecl) -> String {
    match m.bound {
        Some(bound) => format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name, m.unit, m.better, bound
        ),
        None => format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name, m.unit, m.better
        ),
    }
}

/// Render `BENCHMARK.json`.
pub fn render() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END.iter().map(metric_json).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(metric_json).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
