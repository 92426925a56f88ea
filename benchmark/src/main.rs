//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--manifest]
//! ```
//!
//! With `--workload` this process runs that workload and prints, as its last
//! line, the result object the driver reads. Without it, every workload runs
//! in a child process of its own (so `peak_rss_mb` is per workload) and the
//! exit code says whether all of them passed.

mod calibrate;
mod host;
mod manifest;
mod micro;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use df_routing::RoutingKind;

use manifest::{MetricDecl, END_TO_END, PER_LAYER};
use trace::{json_string, median};
use workloads::{Bench, Round, Workload};

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: df-benchmark [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--manifest]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: f64::NAN,
        traced: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {name} wants a value");
                usage()
            })
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload");
                options.workload = Some(Workload::from_name(&name).unwrap_or_else(|| {
                    eprintln!("error: unknown workload '{name}'");
                    usage()
                }));
            }
            "--seed" => options.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                options.seconds = value("--seconds").parse().unwrap_or_else(|_| usage());
            }
            "--trace" => {
                options.traced = match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => options.smoke = true,
            // the host-speed probe process a run starts for itself
            "--probe" => {
                calibrate::probe_main();
                std::process::exit(0);
            }
            "--manifest" => {
                print!("{}", manifest::render());
                std::process::exit(0);
            }
            _ => {
                eprintln!("error: unknown argument '{arg}'");
                usage()
            }
        }
    }
    if options.seconds.is_nan() {
        options.seconds = if options.smoke {
            1.0
        } else {
            manifest::RUN_SECONDS as f64
        };
    }
    if !(options.seconds > 0.0 && options.seconds <= 60.0) {
        eprintln!("error: --seconds must be in (0, 60]");
        usage();
    }
    options
}

fn out_dir() -> PathBuf {
    // the package directory of the checkout this binary was built in
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let options = parse_args();
    let passed = match options.workload {
        Some(workload) => run_workload(workload, &options),
        None => run_suite(&options),
    };
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ----------------------------------------------------------------------
// One workload in this process
// ----------------------------------------------------------------------

/// Repeats rounds until the next one would overrun the budget.
struct Budget {
    started: Instant,
    limit: Duration,
}

impl Budget {
    fn allows(&self, next: Duration) -> bool {
        self.started.elapsed() + next <= self.limit
    }
}

/// Cells attempted and failed over `rounds`. A round whose table differs
/// from the first round's broke determinism: all of its cells count.
fn tally(rounds: &[&Round]) -> (u64, u64) {
    let reference = rounds[0].table();
    let mut attempted = 0;
    let mut failed = 0;
    for round in rounds {
        attempted += round.cells.len() as u64;
        if round.table() != reference {
            eprintln!("FAILED: a round's result table differs from the first round's");
            failed += round.cells.len() as u64;
        } else {
            failed += round.failed() as u64;
        }
        for cell in &round.cells {
            if let Some(reason) = &cell.failure {
                eprintln!("FAILED cell {}: {reason}", cell.label);
            }
        }
    }
    (attempted, failed)
}

/// One comment line per cell of `round`: where its host time went.
fn print_cells(round: &Round) {
    for cell in &round.cells {
        println!(
            "# cell {} setup_s {:.6} wall_s {:.6} cycles {} us_per_cycle {:.3}",
            cell.label,
            cell.setup_s,
            cell.wall_s,
            cell.cycles,
            cell.wall_s * 1e6 / cell.cycles.max(1) as f64
        );
    }
}

fn run_workload(workload: Workload, options: &Options) -> bool {
    let budget = Budget {
        started: Instant::now(),
        limit: Duration::from_secs_f64(options.seconds),
    };
    let mut bench = Bench::new(options.seed, options.smoke, out_dir());
    let (values, attempted, failed) = if options.traced {
        traced_run(workload, &mut bench, &budget, options)
    } else {
        untraced_run(workload, &mut bench, &budget)
    };

    let declared: &[MetricDecl] = if options.traced {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut correct = failed == 0;
    let mut fields = Vec::new();
    println!(
        "# {} seed {} {} ({} cells attempted, {failed} failed)",
        workload.name(),
        options.seed,
        if options.traced { "traced" } else { "untraced" },
        attempted
    );
    for decl in declared {
        // a layer this workload does not run has done no work and spent no
        // time: its metrics read 0 and are marked on the printed line
        let applies = manifest::measured_on(decl.name, workload.name());
        let value = match values.get(decl.name) {
            None if !applies => 0.0,
            Some(&value) if applies && value.is_finite() => value,
            _ => {
                eprintln!("FAILED: metric {} has no finite value", decl.name);
                correct = false;
                0.0
            }
        };
        let note = if applies {
            ""
        } else {
            " # not run by this workload"
        };
        println!("metric {} {} {}{note}", decl.name, value, decl.unit);
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(decl.name),
            value,
            json_string(decl.unit)
        ));
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    let mode = if options.traced { "traced" } else { "untraced" };
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"host\": {}, \"result\": {result}}}\n",
        json_string(workload.name()),
        options.seed,
        options.seconds,
        options.smoke,
        host::describe_json()
    );
    let path = out_dir().join(format!("result_{}_{mode}.json", workload.name()));
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, record))
    {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    println!("{result}");
    correct
}

/// Median over `rounds` of a round's host seconds, each round scaled by the
/// host speed measured while it ran.
fn calibrated_median(rounds: &[&Round], seconds: impl Fn(&Round) -> f64) -> f64 {
    median(
        &rounds
            .iter()
            .map(|r| seconds(r) * r.speed_scale())
            .collect::<Vec<_>>(),
    )
}

fn untraced_run(
    workload: Workload,
    bench: &mut Bench,
    budget: &Budget,
) -> (BTreeMap<&'static str, f64>, u64, u64) {
    // The once-per-run checks (snapshot round trip, parallel twin, service
    // without checkpoints) build second copies of the state, so they run in
    // the last round. The peak RSS is read after a fixed number of rounds
    // (or before the last, if that comes first): every round asks for the
    // same memory, and what the high-water mark gains after that is
    // allocator fragmentation that grows with the number of rounds the
    // host's speed allowed.
    const RSS_ROUNDS: usize = 3;
    let mut rounds = Vec::new();
    let mut peak_rss_mb = None;
    let mut previous = Duration::ZERO;
    loop {
        let last = !rounds.is_empty() && !budget.allows(previous * 2);
        if last || rounds.len() == RSS_ROUNDS {
            peak_rss_mb.get_or_insert_with(host::peak_rss_mb);
        }
        bench.verify = last;
        let start = Instant::now();
        rounds.push(bench.run_round(workload));
        previous = start.elapsed();
        if last {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mb.expect("read before the last round at the latest");
    let rounds: Vec<&Round> = rounds.iter().collect();
    print_cells(rounds[rounds.len() - 1]);
    let (attempted, failed) = tally(&rounds);
    let wall_s = calibrated_median(&rounds, Round::wall_s);
    let mut values = BTreeMap::new();
    values.insert("wall_s", wall_s);
    // every round advances the same cycles: the work is fixed by the seed
    values.insert("sim_cycles_per_s", rounds[0].cycles() as f64 / wall_s);
    values.insert("setup_s", calibrated_median(&rounds, Round::setup_s));
    values.insert("peak_rss_mb", peak_rss_mb);
    let raw: Vec<f64> = rounds.iter().map(|r| r.wall_s()).collect();
    println!(
        "# uncalibrated: wall_s {} (median of {} rounds); the host ran at {:.4} of the reference speed",
        median(&raw),
        raw.len(),
        median(&rounds.iter().map(|r| r.speed_scale()).collect::<Vec<_>>())
    );
    eprintln!(
        "{}: {} rounds, wall_s {:.3?}",
        workload.name(),
        rounds.len(),
        raw
    );
    (values, attempted, failed)
}

fn traced_run(
    workload: Workload,
    bench: &mut Bench,
    budget: &Budget,
    options: &Options,
) -> (BTreeMap<&'static str, f64>, u64, u64) {
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    bench.tracer.set_recording(true);

    let open = bench.tracer.open("microkernels");
    for (name, value) in micro::run(if options.smoke { 50 } else { 1 }) {
        values.insert(name, value);
    }
    bench.tracer.close(open);

    let open = bench.tracer.open("idle_floors");
    let topology = workload.topology();
    let (base_floor, base_new) = bench.idle_floor_us(topology, RoutingKind::Base);
    let (pb_floor, pb_new) = bench.idle_floor_us(topology, RoutingKind::PiggyBacking);
    let (ectn_floor, ectn_new) = bench.idle_floor_us(topology, RoutingKind::Ectn);
    values.insert("sim.network.new_ms", median(&[base_new, pb_new, ectn_new]));
    bench.tracer.close(open);
    values.insert("sim.node.idle_floor_us_per_cycle", base_floor);
    values.insert(
        "router.dissemination.pb_floor_us_per_cycle",
        pb_floor - base_floor,
    );
    values.insert(
        "router.dissemination.ectn_floor_us_per_cycle",
        ectn_floor - base_floor,
    );

    // The service drives its own step loop, so its cells are replayed here
    // to time their steps and read their fault counters.
    let mut replay = None;
    if workload == Workload::MatrixService {
        bench.probe = true;
        let open = bench.tracer.open("direct_replay");
        replay = Some(bench.replay_matrix_cells());
        bench.tracer.close(open);
        bench.probe = false;

        let open = bench.tracer.open("thread_scaling");
        let mut efficiency = Vec::new();
        for _ in 0..2 {
            let (mut one, mut two) = (0.0, 0.0);
            for (name, matrix) in bench.matrices() {
                one += bench.service(&matrix, name, 500, 1).wall_s;
                two += bench.service(&matrix, name, 500, 2).wall_s;
            }
            efficiency.push(one / (2.0 * two));
        }
        bench.tracer.close(open);
        values.insert("sim.sweep.thread_efficiency", median(&efficiency));
    }

    // Alternate traced and plain rounds: the plain ones are the untraced
    // run's rounds, so the pair gives the tracing overhead.
    let mut traced = Vec::new();
    let mut plain = Vec::new();
    loop {
        let start = Instant::now();
        bench.verify = traced.is_empty();
        bench.probe = true;
        bench.tracer.set_recording(true);
        traced.push(bench.run_round(workload));
        bench.verify = false;
        bench.probe = false;
        bench.tracer.set_recording(false);
        plain.push(bench.run_round(workload));
        if !budget.allows(start.elapsed()) {
            break;
        }
    }

    let rounds: Vec<&Round> = traced.iter().chain(&plain).collect();
    let first = rounds[0];
    print_cells(&plain[plain.len() - 1]);
    let (mut attempted, mut failed) = tally(&rounds);
    if let Some(replay) = &replay {
        let (a, f) = tally(&[replay]);
        attempted += a;
        failed += f;
    }

    let plain_wall = median(&plain.iter().map(Round::wall_s).collect::<Vec<_>>());
    // every cell ran once traced and once plain per pair: the median of the
    // per-cell ratios has more samples behind it than the round totals
    let overheads: Vec<f64> = traced
        .iter()
        .zip(&plain)
        .flat_map(|(t, p)| t.cells.iter().zip(&p.cells))
        .map(|(t, p)| (t.wall_s - p.wall_s) / p.wall_s)
        .collect();
    values.insert("trace.overhead_share", median(&overheads));

    values.insert(
        "host.calibration_speed",
        median(&plain.iter().map(Round::speed_scale).collect::<Vec<_>>()),
    );

    let ledger = &bench.ledger;
    values.insert(
        "sim.network.step_us_p50",
        ledger.steps.quantile_ns(0.5) / 1e3,
    );
    values.insert(
        "sim.network.step_us_p99",
        ledger.steps.quantile_ns(0.99) / 1e3,
    );
    values.insert(
        "sim.network.pb_step_us_p50",
        ledger.pb_steps.quantile_ns(0.5) / 1e3,
    );
    values.insert("sim.network.steps", ledger.steps.count() as f64);
    values.insert(
        "sim.network.active_router_share",
        ledger.active_router_share(),
    );
    values.insert("sim.events.pending_mean", ledger.pending_mean());
    // host time per delivered phit: over the probed steps when there are
    // any, else over the service's own wall
    let stepped = replay.as_ref().unwrap_or(first);
    let stepped_rounds = if replay.is_some() { 1 } else { traced.len() } as u64;
    let phits = stepped.sum(|c| c.delivered_phits) * stepped_rounds;
    if phits > 0 {
        values.insert(
            "sim.network.host_ns_per_phit",
            ledger.steps.sum_ns() as f64 / phits as f64,
        );
    }
    if workload == Workload::JobsMedium {
        values.insert(
            "sim.task.step_us_p50",
            ledger.job_steps.quantile_ns(0.5) / 1e3,
        );
        // job packets only: the background's are not the job path's work
        values.insert(
            "sim.task.host_ns_per_packet",
            ledger.job_wall_s * 1e9 / ledger.job_packets as f64,
        );
        values.insert(
            "sim.task.job_packet_share",
            first.sum(|c| c.job_packets) as f64 / first.sum(|c| c.delivered_packets) as f64,
        );
        values.insert(
            "sim.task.completion_cycles",
            first.sum(|c| c.completion_cycles) as f64,
        );
        values.insert(
            "sim.task.rank_stall_cycles",
            first.sum(|c| c.rank_stall_cycles) as f64,
        );
    }
    let faulted = replay.as_ref().unwrap_or(first);
    values.insert(
        "sim.fault.stale_linkstate_cycles",
        faulted.sum(|c| c.stale_linkstate_cycles) as f64,
    );
    values.insert(
        "sim.fault.dropped_packets",
        faulted.sum(|c| c.dropped_packets) as f64,
    );
    values.insert(
        "sim.metrics.delivered_phits",
        first.sum(|c| c.delivered_phits) as f64,
    );
    values.insert(
        "sim.metrics.delivered_packets",
        first.sum(|c| c.delivered_packets) as f64,
    );
    values.insert("sim.metrics.result_hash", first.result_hash() as f64);
    values.insert("sim.parallel.speedup_w2", bench.parallel_speedup);
    values.insert(
        "sim.parallel.bit_identical",
        bench.parallel_bit_identical as u8 as f64,
    );
    if workload == Workload::MatrixService {
        values.insert(
            "sim.runner.checkpoint_overhead_share",
            median(&bench.checkpoint_overhead),
        );
        values.insert(
            "sim.runner.snapshots_written",
            bench.snapshots_written as f64,
        );
        values.insert("sim.runner.journal_bytes", bench.journal_bytes as f64);
        values.insert("sim.sweep.cells_per_s", bench.subruns as f64 / plain_wall);
    }

    write_trace(workload, bench, plain_wall);
    eprintln!(
        "{}: {} traced + {} plain rounds",
        workload.name(),
        traced.len(),
        plain.len()
    );
    (values, attempted, failed)
}

/// Write the spans, the per-cell step histograms and the self-time ledger.
fn write_trace(workload: Workload, bench: &Bench, plain_wall_s: f64) {
    let mut cells = Vec::new();
    for (label, hist) in &bench.ledger.per_cell {
        cells.push(format!(
            "\n  {{\"cell\": {}, \"steps\": {}, \"step_ns_sum\": {}, \"step_ns_p50\": {}, \"step_ns_p99\": {}, \"buckets\": {}}}",
            json_string(label),
            hist.count(),
            hist.sum_ns(),
            hist.quantile_ns(0.5),
            hist.quantile_ns(0.99),
            hist.json()
        ));
    }
    let self_times: Vec<String> = bench
        .tracer
        .self_times()
        .into_iter()
        .map(|(name, seconds, count)| {
            format!(
                "\n  {{\"span\": {}, \"count\": {count}, \"self_s\": {seconds}}}",
                json_string(&name)
            )
        })
        .collect();
    let body = format!(
        "{{\"workload\": {}, \"seed\": {}, \"plain_round_wall_s\": {plain_wall_s}, \"host\": {},\n\"self_time\": [{}\n],\n\"step_histograms\": [{}\n],\n\"spans\": {}\n}}\n",
        json_string(workload.name()),
        bench.seed,
        host::describe_json(),
        self_times.join(","),
        cells.join(","),
        bench.tracer.spans_json()
    );
    let path = out_dir().join(format!("trace_{}.json", workload.name()));
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

// ----------------------------------------------------------------------
// The suite: every workload in a child process of its own
// ----------------------------------------------------------------------

/// Run one workload in a child process; echo its output and return its
/// metrics and whether it exited with success.
fn run_child(
    workload: Workload,
    traced: bool,
    options: &Options,
) -> (BTreeMap<String, Vec<f64>>, bool) {
    let mut command = Command::new(std::env::current_exe().expect("own path is known"));
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if options.smoke {
        command.arg("--smoke");
    }
    let output = match command.spawn().and_then(|child| child.wait_with_output()) {
        Ok(output) => output,
        Err(e) => {
            eprintln!("FAILED: cannot run {}: {e}", workload.name());
            return (BTreeMap::new(), false);
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let mut metrics: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in stdout.lines() {
        let mut words = line.split(' ');
        if words.next() == Some("metric") {
            if let (Some(name), Some(value)) = (words.next(), words.next()) {
                metrics
                    .entry(name.to_string())
                    .or_default()
                    .push(value.parse().unwrap_or(f64::NAN));
            }
        }
    }
    (metrics, output.status.success())
}

/// Every declared metric appears exactly once with a finite value.
fn check_declared(
    workload: Workload,
    declared: &[MetricDecl],
    metrics: &BTreeMap<String, Vec<f64>>,
) -> bool {
    let mut ok = true;
    for decl in declared {
        match metrics.get(decl.name).map(Vec::as_slice) {
            Some([value]) if value.is_finite() => {}
            other => {
                eprintln!(
                    "FAILED {}: metric {} printed {:?}, want one finite value",
                    workload.name(),
                    decl.name,
                    other
                );
                ok = false;
            }
        }
    }
    if metrics.len() != declared.len() {
        eprintln!(
            "FAILED {}: {} metrics printed, {} declared",
            workload.name(),
            metrics.len(),
            declared.len()
        );
        ok = false;
    }
    ok
}

fn declarations_are_well_formed() -> bool {
    let name_ok = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut names: Vec<&str> = manifest::WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
    let mut ok = names.iter().all(|name| name_ok(name));
    let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
    ok &= unique.len() == names.len();
    ok &= manifest::WORKLOADS.len() <= 8 && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128;
    ok &= manifest::WORKLOADS.iter().all(|w| w.why.len() <= 200);
    ok &= Workload::ALL
        .iter()
        .zip(&manifest::WORKLOADS)
        .all(|(w, decl)| w.name() == decl.name);
    if !ok {
        eprintln!("FAILED: the declared names break the BENCHMARK.json limits");
    }
    ok
}

fn run_suite(options: &Options) -> bool {
    let mut passed = declarations_are_well_formed();
    for workload in Workload::ALL {
        let (metrics, ok) = run_child(workload, false, options);
        passed &= ok && check_declared(workload, &END_TO_END, &metrics);
        if !(options.traced || options.smoke) {
            continue;
        }
        let (metrics, ok) = run_child(workload, true, options);
        passed &= ok && check_declared(workload, &PER_LAYER, &metrics);
        if !options.smoke {
            continue;
        }
        // simulated counts repeat exactly for a fixed seed
        let (again, ok) = run_child(workload, true, options);
        passed &= ok;
        for (name, value) in &metrics {
            let simulated = [
                "sim.metrics.",
                "sim.fault.",
                "sim.task.completion",
                "sim.task.rank_stall",
            ]
            .iter()
            .any(|prefix| name.starts_with(prefix));
            if simulated && again.get(name) != Some(value) {
                eprintln!(
                    "FAILED {}: {name} differs between two runs of seed {}: {value:?} vs {:?}",
                    workload.name(),
                    options.seed,
                    again.get(name)
                );
                passed = false;
            }
        }
    }
    println!(
        "{}",
        if passed {
            "suite: PASSED"
        } else {
            "suite: FAILED"
        }
    );
    passed
}
