//! The four end-to-end workloads. Each is a *round* of fixed, seeded work
//! (its cells); the driver in `main.rs` repeats rounds for the run's time
//! budget and reports medians. A round's simulated results depend on the
//! seed alone, so every round of one run must produce the same table.

use std::path::PathBuf;
use std::time::Instant;

use df_engine::codec::fnv1a64;
use df_engine::DeterministicRng;
use df_model::NetworkConfig;
use df_routing::RoutingKind;
use df_sim::{
    ChurnModel, ChurnRate, FaultPlan, KernelMode, Network, RunnerOptions, Scenario, ScenarioMatrix,
    SimulationConfig,
};
use df_topology::{DragonflyParams, GroupId, MegaflyParams, TopologyParams};
use df_traffic::{
    AllReduceAlgorithm, CollectiveKind, JobPlacement, JobSpec, PatternKind, TaskWorkload,
};

use crate::calibrate::{Calibrator, REFERENCE_SLICE_S};
use crate::trace::{LogHistogram, Tracer};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    LowloadPaper,
    SaturatedMedium,
    JobsMedium,
    MatrixService,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LowloadPaper,
        Workload::SaturatedMedium,
        Workload::JobsMedium,
        Workload::MatrixService,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LowloadPaper => "lowload_paper",
            Workload::SaturatedMedium => "saturated_medium",
            Workload::JobsMedium => "jobs_medium",
            Workload::MatrixService => "matrix_service",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The topology the workload's idle floors are measured on.
    pub fn topology(self) -> TopologyParams {
        match self {
            Workload::LowloadPaper => DragonflyParams::paper_table1().into(),
            Workload::SaturatedMedium | Workload::JobsMedium => DragonflyParams::medium().into(),
            Workload::MatrixService => DragonflyParams::small().into(),
        }
    }
}

/// What one cell (one `Network` run, or one service invocation) produced.
pub struct CellOutcome {
    pub label: String,
    /// Host seconds the probe process measured for the calibration slice
    /// run right before the cell.
    pub cal_s: f64,
    /// Host seconds of configuration + construction, outside `wall_s`.
    pub setup_s: f64,
    /// Host seconds of the timed section (simulated warm-up included).
    pub wall_s: f64,
    /// Simulated cycles advanced in the timed section.
    pub cycles: u64,
    /// Delivered in the timed section.
    pub delivered_phits: u64,
    pub delivered_packets: u64,
    /// Of `delivered_packets`, those the job set sent (job cells).
    pub job_packets: u64,
    /// Job-set makespan (job cells).
    pub completion_cycles: u64,
    pub rank_stall_cycles: u64,
    pub stale_linkstate_cycles: u64,
    pub dropped_packets: u64,
    /// Why the cell failed, if it did.
    pub failure: Option<String>,
    /// The cell's exact simulated result; rows make the hashed table.
    pub row: String,
}

pub struct Round {
    pub cells: Vec<CellOutcome>,
}

impl Round {
    /// Reference-host speed ÷ this host's speed while the round ran: host
    /// times of the round are multiplied by it.
    pub fn speed_scale(&self) -> f64 {
        let cal_s: f64 = self.cells.iter().map(|c| c.cal_s).sum();
        self.cells.len() as f64 * REFERENCE_SLICE_S / cal_s
    }
    pub fn setup_s(&self) -> f64 {
        self.cells.iter().map(|c| c.setup_s).sum()
    }
    pub fn wall_s(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_s).sum()
    }
    pub fn cycles(&self) -> u64 {
        self.cells.iter().map(|c| c.cycles).sum()
    }
    pub fn sum(&self, f: impl Fn(&CellOutcome) -> u64) -> u64 {
        self.cells.iter().map(f).sum()
    }
    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|c| c.failure.is_some()).count()
    }
    /// The round's result table, one row per cell.
    pub fn table(&self) -> String {
        let rows: Vec<&str> = self.cells.iter().map(|c| c.row.as_str()).collect();
        rows.join("\n")
    }
    /// FNV-1a of the result table, low 53 bits (exact in a JSON number).
    pub fn result_hash(&self) -> u64 {
        fnv1a64(self.table().as_bytes()) & ((1 << 53) - 1)
    }
}

/// Host-time observations folded at the step boundary during probed rounds.
pub struct Ledger {
    /// Every probed `Network::step` call.
    pub steps: LogHistogram,
    /// The probed steps of PiggyBacking cells only.
    pub pb_steps: LogHistogram,
    /// Probed steps taken while a job set was running.
    pub job_steps: LogHistogram,
    /// Per cell label, for `trace.json`.
    pub per_cell: Vec<(String, LogHistogram)>,
    active_share_sum: f64,
    pending_sum: u64,
    samples: u64,
    /// Host seconds of the probed job runs, and the packets their job sets
    /// sent (background packets delivered meanwhile are not counted).
    pub job_wall_s: f64,
    pub job_packets: u64,
}

impl Ledger {
    pub fn new() -> Self {
        Ledger {
            steps: LogHistogram::new(),
            pb_steps: LogHistogram::new(),
            job_steps: LogHistogram::new(),
            per_cell: Vec::new(),
            active_share_sum: 0.0,
            pending_sum: 0,
            samples: 0,
            job_wall_s: 0.0,
            job_packets: 0,
        }
    }

    pub fn active_router_share(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.active_share_sum / self.samples as f64
        }
    }

    pub fn pending_mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.pending_sum as f64 / self.samples as f64
        }
    }

    fn cell_hist(&mut self, label: &str) -> &mut LogHistogram {
        let idx = match self.per_cell.iter().position(|(l, _)| l == label) {
            Some(idx) => idx,
            None => {
                self.per_cell.push((label.to_string(), LogHistogram::new()));
                self.per_cell.len() - 1
            }
        };
        &mut self.per_cell[idx].1
    }
}

/// Everything a round needs besides the workload itself.
pub struct Bench {
    calibrator: Calibrator,
    pub seed: u64,
    pub smoke: bool,
    pub tracer: Tracer,
    pub ledger: Ledger,
    /// Time every step and sample the active set (traced rounds).
    pub probe: bool,
    /// Run the once-per-run correctness checks in this round.
    pub verify: bool,
    /// Directory the service workload may create run directories under.
    pub out_dir: PathBuf,
    /// `saturated_medium`'s cells: label, configuration, warm snapshot.
    warm: Vec<(String, SimulationConfig, Vec<u8>)>,
    /// `sim.parallel.speedup_w2` of the last verified round.
    pub parallel_speedup: f64,
    pub parallel_bit_identical: bool,
    /// Per round that ran both: (wall with checkpoints − wall without) ÷
    /// wall without.
    pub checkpoint_overhead: Vec<f64>,
    pub snapshots_written: u64,
    pub journal_bytes: u64,
    pub subruns: u64,
}

/// How a network cell is driven once built.
#[derive(Clone, Copy)]
enum Drive {
    /// `warmup` cycles, open the measurement window, `measure` cycles.
    Steady { warmup: u64, measure: u64 },
    /// Until the configured job set completes, at most `budget` cycles;
    /// the set sends `job_packets` packets in all.
    Jobs { budget: u64, job_packets: u64 },
}

fn cell_seed(seed: u64, index: usize) -> u64 {
    DeterministicRng::new(seed).split(index as u64).seed()
}

impl Bench {
    pub fn new(seed: u64, smoke: bool, out_dir: PathBuf) -> Self {
        Bench {
            calibrator: Calibrator::spawn(),
            seed,
            smoke,
            tracer: Tracer::new(),
            ledger: Ledger::new(),
            probe: false,
            verify: false,
            out_dir,
            warm: Vec::new(),
            parallel_speedup: 0.0,
            parallel_bit_identical: false,
            checkpoint_overhead: Vec::new(),
            snapshots_written: 0,
            journal_bytes: 0,
            subruns: 0,
        }
    }

    pub fn run_round(&mut self, workload: Workload) -> Round {
        let open = self.tracer.open(workload.name());
        let round = match workload {
            Workload::LowloadPaper => self.lowload_paper(),
            Workload::SaturatedMedium => self.saturated_medium(),
            Workload::JobsMedium => self.jobs_medium(),
            Workload::MatrixService => self.matrix_service(),
        };
        self.tracer.close(open);
        round
    }

    // ------------------------------------------------------------------
    // Network cells
    // ------------------------------------------------------------------

    /// Step `net` while `more(net)` holds. When probing, every step is
    /// timed and the active set and event queue are sampled after it.
    fn step_while(
        &mut self,
        net: &mut Network,
        label: &str,
        in_job: bool,
        mut more: impl FnMut(&Network) -> bool,
    ) {
        if !self.probe {
            while more(net) {
                net.step();
            }
            return;
        }
        let routers = net.config().topology.num_routers() as f64;
        let mut local = LogHistogram::new();
        while more(net) {
            let start = Instant::now();
            net.step();
            local.record(start.elapsed().as_nanos() as u64);
            self.ledger.active_share_sum += net.active_routers() as f64 / routers;
            self.ledger.pending_sum += net.pending_events() as u64;
        }
        self.ledger.samples += local.count();
        self.ledger.steps.merge(&local);
        if net.config().routing == RoutingKind::PiggyBacking {
            self.ledger.pb_steps.merge(&local);
        }
        if in_job {
            self.ledger.job_steps.merge(&local);
        }
        self.ledger.cell_hist(label).merge(&local);
    }

    /// Build and drive one `Network`, then check what must hold at its end.
    /// `build` is the cell's set-up: it returns the configuration and the
    /// network made from it (new, or restored from a warm snapshot).
    fn network_cell(
        &mut self,
        label: &str,
        build: impl FnOnce() -> (SimulationConfig, Network),
        drive: Drive,
    ) -> CellOutcome {
        let cell = self.tracer.open_cell(&format!("cell:{label}"));

        let setup = self.tracer.open("setup");
        let (config, mut net) = build();
        let setup_s = self.tracer.close(setup);
        // a restored network carries its history: count from here
        let first_cycle = net.cycle();
        let phits_before = net.metrics().delivered_phits_total();
        let packets_before = net.metrics().delivered_packets_total();

        let mut failure = None;
        let mut completion_cycles = 0;
        let mut job_packets = 0;
        let wall_s = match drive {
            Drive::Steady { warmup, measure } => {
                let open = self.tracer.open("warmup");
                let warm_end = first_cycle + warmup;
                self.step_while(&mut net, label, false, |n| n.cycle() < warm_end);
                let warm_s = self.tracer.close(open);
                let start = net.cycle();
                net.metrics_mut().start_measurement(start);
                let open = self.tracer.open("measure");
                self.step_while(&mut net, label, false, |n| n.cycle() < warm_end + measure);
                warm_s + self.tracer.close(open)
            }
            Drive::Jobs {
                budget,
                job_packets: sent,
            } => {
                let open = self.tracer.open("job_run");
                let done = if self.probe {
                    // the probed twin of `run_until_jobs_complete`
                    let completion =
                        |n: &Network| n.jobs().and_then(|jobs| jobs.completion_cycle());
                    self.step_while(&mut net, label, true, |n| {
                        n.cycle() < budget && completion(n).is_none()
                    });
                    completion(&net)
                } else {
                    net.run_until_jobs_complete(budget)
                };
                let job_s = self.tracer.close(open);
                match done {
                    // a complete set has had every packet it sent delivered
                    Some(cycle) => (completion_cycles, job_packets) = (cycle, sent),
                    None => failure = Some(format!("jobs incomplete after {budget} cycles")),
                }
                if self.probe {
                    self.ledger.job_wall_s += job_s;
                    self.ledger.job_packets += job_packets;
                }
                job_s
            }
        };

        let metrics = net.metrics();
        let injected = net.injected_phits_total();
        let accounted = metrics.delivered_phits_total()
            + net.in_flight_phits()
            + metrics.dropped_on_fault_phits();
        let packets_accounted = metrics.delivered_packets_total()
            + net.in_flight()
            + metrics.dropped_on_fault_packets();
        if failure.is_none() && injected != accounted {
            failure = Some(format!(
                "phit conservation: injected {injected} != accounted {accounted}"
            ));
        }
        if failure.is_none() && net.injected_packets_total() != packets_accounted {
            failure = Some("packet conservation does not close".to_string());
        }
        if failure.is_none() && self.verify {
            failure = self.snapshot_round_trip(&config, &net);
        }

        let row = format!(
            "{label},{},{injected},{},{},{},{},{:016x},{completion_cycles},{}",
            net.cycle(),
            metrics.delivered_phits_total(),
            metrics.delivered_packets_total(),
            net.in_flight_phits(),
            metrics.dropped_on_fault_phits(),
            metrics.window_summary().avg_packet_latency.to_bits(),
            metrics.rank_stall_cycles(),
        );
        let outcome = CellOutcome {
            label: label.to_string(),
            cal_s: 0.0,
            setup_s,
            wall_s,
            cycles: net.cycle() - first_cycle,
            delivered_phits: metrics.delivered_phits_total() - phits_before,
            delivered_packets: metrics.delivered_packets_total() - packets_before,
            job_packets,
            completion_cycles,
            rank_stall_cycles: metrics.rank_stall_cycles(),
            stale_linkstate_cycles: metrics.stale_linkstate_cycles(),
            dropped_packets: metrics.dropped_on_fault_packets(),
            failure,
            row,
        };
        self.tracer.close(cell);
        outcome
    }

    /// One slice of the host-speed probe, under a span of its own; returns
    /// the host seconds the probe process measured for it.
    fn calibrate(&mut self) -> f64 {
        let open = self.tracer.open("calibrate");
        let slice_s = self.calibrator.slice();
        self.tracer.close(open);
        slice_s
    }

    /// A [`Bench::network_cell`] with a calibration slice right before it.
    fn calibrated_cell(
        &mut self,
        label: &str,
        build: impl FnOnce() -> (SimulationConfig, Network),
        drive: Drive,
    ) -> CellOutcome {
        let cal_s = self.calibrate();
        CellOutcome {
            cal_s,
            ..self.network_cell(label, build, drive)
        }
    }

    /// Run `cell` again under `KernelMode::Parallel { workers: 2 }` (`build`
    /// makes that network): it must reproduce the sequential cell bit for
    /// bit, or `cell` fails. Its wall time is a per-layer number only.
    fn parallel_twin(
        &mut self,
        cell: &mut CellOutcome,
        build: impl FnOnce() -> (SimulationConfig, Network),
        drive: Drive,
    ) {
        let probe = std::mem::replace(&mut self.probe, false);
        let twin = self.network_cell(&cell.label, build, drive);
        self.probe = probe;
        self.parallel_bit_identical = twin.failure.is_none() && twin.row == cell.row;
        self.parallel_speedup = cell.wall_s / twin.wall_s;
        if !self.parallel_bit_identical {
            cell.failure.get_or_insert_with(|| {
                "KernelMode::Parallel{workers:2} differs from Optimized".to_string()
            });
        }
    }

    /// `snapshot -> restore -> snapshot` must be byte-identical.
    fn snapshot_round_trip(&mut self, config: &SimulationConfig, net: &Network) -> Option<String> {
        let open = self.tracer.open("checkpoint");
        let bytes = net.snapshot();
        self.tracer.close(open);
        let open = self.tracer.open("restore");
        let restored = Network::restore(config.clone(), &bytes);
        self.tracer.close(open);
        match restored {
            Ok(restored) if restored.snapshot() == bytes => None,
            Ok(_) => Some("snapshot round trip is not byte-identical".to_string()),
            Err(e) => Some(format!("snapshot does not restore: {e}")),
        }
    }

    /// The usual cell set-up: a new network from `config`.
    fn fresh(config: SimulationConfig) -> (SimulationConfig, Network) {
        let net = Network::new(config.clone());
        (config, net)
    }

    /// A stochastic steady-state configuration on `topology`.
    fn steady_config(
        topology: TopologyParams,
        routing: RoutingKind,
        pattern: PatternKind,
        load: f64,
        seed: u64,
        kernel: KernelMode,
    ) -> SimulationConfig {
        SimulationConfig::builder()
            .topology(topology)
            .network(NetworkConfig::paper_table1())
            .routing(routing)
            .pattern(pattern)
            .offered_load(load)
            .seed(seed)
            .kernel(kernel)
            .build()
            .expect("benchmark configurations are valid")
    }

    // ------------------------------------------------------------------
    // lowload_paper
    // ------------------------------------------------------------------

    fn lowload_paper(&mut self) -> Round {
        let (warmup, measure) = if self.smoke { (20, 60) } else { (100, 300) };
        let routings = [
            RoutingKind::Base,
            RoutingKind::PiggyBacking,
            RoutingKind::Ectn,
        ];
        let mut cells = Vec::new();
        let drive = Drive::Steady { warmup, measure };
        for (i, routing) in routings.into_iter().enumerate() {
            let seed = cell_seed(self.seed, i);
            let build = |kernel| {
                Self::fresh(Self::steady_config(
                    DragonflyParams::paper_table1().into(),
                    routing,
                    PatternKind::Uniform,
                    0.01,
                    seed,
                    kernel,
                ))
            };
            let label = format!("UN@0.01/{}", routing.label());
            let mut cell = self.calibrated_cell(&label, || build(KernelMode::Optimized), drive);
            if i == 0 && self.verify {
                self.parallel_twin(
                    &mut cell,
                    || build(KernelMode::Parallel { workers: 2 }),
                    drive,
                );
            }
            cells.push(cell);
        }
        Round { cells }
    }

    // ------------------------------------------------------------------
    // saturated_medium
    // ------------------------------------------------------------------

    /// Snapshots of the four cells' networks after `prewarm` cycles, taken
    /// once per run. Reaching saturation takes about a thousand cycles — a
    /// second of host time per cell — and this host needs twenty-odd short
    /// rounds per run for a steady median, so a round restores the saturated
    /// state instead of ramping up to it again.
    fn saturated_snapshots(&mut self, prewarm: u64) {
        if !self.warm.is_empty() {
            return;
        }
        let recording = self.tracer.open("prewarm");
        let adv = PatternKind::Adversarial { offset: 1 };
        let grid = [
            (PatternKind::Uniform, "UN@0.9", 0.9, RoutingKind::Base),
            (
                PatternKind::Uniform,
                "UN@0.9",
                0.9,
                RoutingKind::PiggyBacking,
            ),
            (adv, "ADV+1@0.5", 0.5, RoutingKind::Ectn),
            (adv, "ADV+1@0.5", 0.5, RoutingKind::Olm),
        ];
        for (i, (pattern, name, load, routing)) in grid.into_iter().enumerate() {
            let config = Self::steady_config(
                DragonflyParams::medium().into(),
                routing,
                pattern,
                load,
                cell_seed(self.seed, i),
                KernelMode::Optimized,
            );
            let mut net = Network::new(config.clone());
            for _ in 0..prewarm {
                net.step();
            }
            let label = format!("{name}/{}", routing.label());
            self.warm.push((label, config, net.snapshot()));
        }
        self.tracer.close(recording);
    }

    fn saturated_medium(&mut self) -> Round {
        let (prewarm, measure) = if self.smoke { (100, 50) } else { (800, 150) };
        self.saturated_snapshots(prewarm);
        let drive = Drive::Steady { warmup: 0, measure };
        // taken out for the loop so the cells can borrow the bench mutably
        let warm = std::mem::take(&mut self.warm);
        let mut cells = Vec::new();
        for (i, (label, config, bytes)) in warm.iter().enumerate() {
            let restore = |kernel| {
                let mut config = config.clone();
                config.kernel = kernel;
                let net = Network::restore(config.clone(), bytes)
                    .expect("a snapshot restores under its own configuration");
                (config, net)
            };
            let mut cell = self.calibrated_cell(label, || restore(KernelMode::Optimized), drive);
            if i == 0 && self.verify {
                self.parallel_twin(
                    &mut cell,
                    || restore(KernelMode::Parallel { workers: 2 }),
                    drive,
                );
            }
            cells.push(cell);
        }
        self.warm = warm;
        Round { cells }
    }

    // ------------------------------------------------------------------
    // jobs_medium
    // ------------------------------------------------------------------

    /// Three concurrent jobs over a thin uniform background. The background
    /// is 0.001 phits/node/cycle, not the 0.1 the issue sketched: at 0.1 the
    /// background is 98% of the delivered packets and the workload measures
    /// uniform steady state, not the job path (see README).
    fn jobs_medium(&mut self) -> Round {
        let (ranks, phases) = if self.smoke { (8, 2) } else { (64, 8) };
        let jobs = vec![
            JobSpec::new(
                TaskWorkload::single(CollectiveKind::AllToAll, ranks, 2),
                JobPlacement::group_spread(0),
            ),
            JobSpec::new(
                TaskWorkload::single(
                    CollectiveKind::AllReduce(AllReduceAlgorithm::Ring),
                    ranks,
                    2,
                ),
                JobPlacement::group_spread(8),
            ),
            JobSpec::new(
                TaskWorkload::mini_app(ranks, phases, AllReduceAlgorithm::RecursiveDoubling, 1),
                JobPlacement::group_spread(16),
            )
            .starting_at(500)
            .with_compute_delay(20),
        ];
        let routings = [
            RoutingKind::Base,
            RoutingKind::PiggyBacking,
            RoutingKind::Ectn,
        ];
        let drive = Drive::Jobs {
            budget: 2_000_000,
            job_packets: jobs.iter().map(|job| job.workload.total_packets()).sum(),
        };
        let mut cells = Vec::new();
        for (i, routing) in routings.into_iter().enumerate() {
            let seed = cell_seed(self.seed, i);
            let build = |kernel| {
                Self::fresh(
                    SimulationConfig::builder()
                        .topology(DragonflyParams::medium())
                        .network(NetworkConfig::paper_table1())
                        .routing(routing)
                        .pattern(PatternKind::Uniform)
                        .offered_load(0.001)
                        .seed(seed)
                        .kernel(kernel)
                        .jobs(jobs.clone())
                        .build()
                        .expect("benchmark configurations are valid"),
                )
            };
            let label = format!("3jobs/{}", routing.label());
            let mut cell = self.calibrated_cell(&label, || build(KernelMode::Optimized), drive);
            if i == 0 && self.verify {
                self.parallel_twin(
                    &mut cell,
                    || build(KernelMode::Parallel { workers: 2 }),
                    drive,
                );
            }
            cells.push(cell);
        }
        Round { cells }
    }

    // ------------------------------------------------------------------
    // matrix_service
    // ------------------------------------------------------------------

    /// The two scenario matrices (72-node Dragonfly, 72-node Megafly).
    pub fn matrices(&self) -> Vec<(&'static str, ScenarioMatrix)> {
        let (warmup, measure) = if self.smoke { (100, 500) } else { (400, 1_100) };
        let loads = if self.smoke {
            vec![0.2]
        } else {
            vec![0.2, 0.4]
        };
        let adv = PatternKind::Adversarial { offset: 1 };
        let topologies: [(&'static str, TopologyParams); 2] = [
            ("dragonfly72", DragonflyParams::small().into()),
            ("megafly72", MegaflyParams::small().into()),
        ];
        topologies
            .into_iter()
            .enumerate()
            .map(|(i, (name, topology))| {
                let base = SimulationConfig::builder()
                    .topology(topology)
                    .network(NetworkConfig::paper_table1())
                    .warmup_cycles(warmup)
                    .measurement_cycles(measure)
                    .seed(cell_seed(self.seed, i))
                    .kernel(KernelMode::Optimized)
                    .build()
                    .expect("benchmark configurations are valid");
                let topo = topology.build();
                let (gateway, port) = FaultPlan::global_link_between(&topo, GroupId(0), GroupId(1));
                let churn = ChurnModel::new(cell_seed(self.seed, 100 + i), 100, warmup + measure)
                    .global_links(ChurnRate::new(2_500.0, 250.0))
                    .nodes(ChurnRate::new(2_000.0, 300.0));
                let matrix = ScenarioMatrix {
                    base,
                    scenarios: vec![
                        Scenario::steady(PatternKind::Uniform),
                        Scenario::steady(adv),
                        Scenario::transient(PatternKind::Uniform, adv, warmup + measure / 2),
                        Scenario::named("ADV+1-linkloss")
                            .hold(adv)
                            .link_down(warmup / 2, gateway, port)
                            .link_up(warmup + measure / 2, gateway, port),
                        Scenario::named("UN-churn")
                            .hold(PatternKind::Uniform)
                            .churn(churn),
                    ],
                    loads: loads.clone(),
                    routings: vec![
                        RoutingKind::Base,
                        RoutingKind::PiggyBacking,
                        RoutingKind::Ectn,
                        RoutingKind::Olm,
                    ],
                    seeds_per_cell: 1,
                };
                (name, matrix)
            })
            .collect()
    }

    /// One `run_sweep_service` invocation over a fresh run directory, which
    /// is removed again afterwards.
    pub fn service(
        &mut self,
        matrix: &ScenarioMatrix,
        tag: &str,
        checkpoint_every: u64,
        threads: usize,
    ) -> ServiceRun {
        let run_dir = self
            .out_dir
            .join(format!("run_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&run_dir);
        let mut options = RunnerOptions::new(&run_dir);
        options.checkpoint_every = checkpoint_every;
        options.threads = threads;
        let open = self.tracer.open("service_run");
        let outcome = df_sim::run_sweep_service(matrix, &options);
        let wall_s = self.tracer.close(open);
        let journal_bytes = std::fs::metadata(run_dir.join("journal.bin"))
            .map(|m| m.len())
            .unwrap_or(0);
        let _ = std::fs::remove_dir_all(&run_dir);
        let subruns = matrix.num_cells() as u64 * matrix.seeds_per_cell;
        let total_cycles = matrix.base.total_cycles();
        let (table, delivered_packets, failure) = match outcome {
            Ok(outcome) if outcome.complete => {
                let mut table = String::new();
                let mut delivered = 0;
                for cell in &outcome.cells {
                    let r = &cell.report;
                    delivered += r.delivered_packets;
                    table.push_str(&format!(
                        "{tag},{},{:.2},{},{},{},{},{:016x},{:016x},{:016x}\n",
                        cell.key.scenario,
                        cell.key.load,
                        cell.key.routing.label(),
                        r.delivered_packets,
                        r.injected_packets,
                        r.dropped_on_fault_packets,
                        r.avg_packet_latency.to_bits(),
                        r.accepted_load.to_bits(),
                        r.p99_latency.to_bits(),
                    ));
                }
                (table, delivered, None)
            }
            Ok(_) => (
                String::new(),
                0,
                Some("SweepOutcome::complete is false".to_string()),
            ),
            Err(e) => (String::new(), 0, Some(format!("sweep service failed: {e}"))),
        };
        ServiceRun {
            table,
            wall_s,
            delivered_packets,
            journal_bytes,
            subruns,
            cycles: subruns * total_cycles,
            // every sub-run longer than the period writes one snapshot per
            // full period strictly inside it
            snapshots: match checkpoint_every {
                0 => 0,
                every => subruns * ((total_cycles - 1) / every),
            },
            failure,
        }
    }

    fn matrix_service(&mut self) -> Round {
        let mut cells = Vec::new();
        self.snapshots_written = 0;
        self.journal_bytes = 0;
        self.subruns = 0;
        let (mut with_s, mut without_s) = (0.0, 0.0);
        // Set-up as the service pays it: the matrices, their expansion into
        // cells, one `Network::new` per cell (the service repeats it per
        // sub-run, inside its own wall) and the directory runs live under.
        let setup = self.tracer.open("setup");
        let matrices = self.matrices();
        for (_, matrix) in &matrices {
            for (_, config) in matrix.cells() {
                drop(Network::new(config));
            }
        }
        std::fs::create_dir_all(&self.out_dir).expect("benchmark out dir is creatable");
        let setup_s = self.tracer.close(setup);
        for (i, (name, matrix)) in matrices.iter().enumerate() {
            let cal_s = self.calibrate();
            let cell = self.tracer.open_cell(&format!("cell:{name}"));
            let mut run = self.service(matrix, name, 500, 2);
            if (self.verify || self.probe) && run.failure.is_none() {
                // checkpointing must not change the results table
                let plain = self.service(matrix, name, 0, 2);
                with_s += run.wall_s;
                without_s += plain.wall_s;
                if plain.failure.is_some() || plain.table != run.table {
                    run.failure = Some("results differ between checkpoints on and off".to_string());
                }
            }
            self.tracer.close(cell);
            self.snapshots_written += run.snapshots;
            self.journal_bytes += run.journal_bytes;
            self.subruns += run.subruns;
            let packet_phits = matrix.base.network.packet_size_phits as u64;
            cells.push(CellOutcome {
                label: name.to_string(),
                cal_s,
                // matrix construction is shared; charge it to the first cell
                setup_s: if i == 0 { setup_s } else { 0.0 },
                wall_s: run.wall_s,
                cycles: run.cycles,
                delivered_phits: run.delivered_packets * packet_phits,
                delivered_packets: run.delivered_packets,
                job_packets: 0,
                completion_cycles: 0,
                rank_stall_cycles: 0,
                stale_linkstate_cycles: 0,
                dropped_packets: 0,
                failure: run.failure,
                row: run.table,
            });
        }
        if without_s > 0.0 {
            self.checkpoint_overhead
                .push((with_s - without_s) / without_s);
        }
        if self.verify {
            // The service owns its networks, so the parallel kernel is
            // checked on a direct run of the first matrix cell, outside the
            // round's table; a difference fails the matrix it came from.
            let (_, config) = matrices[0].1.cells().swap_remove(0);
            let drive = Drive::Steady {
                warmup: config.warmup_cycles,
                measure: config.measurement_cycles,
            };
            let build = |kernel| {
                let mut config = config.clone();
                config.kernel = kernel;
                Self::fresh(config)
            };
            let probe = std::mem::replace(&mut self.probe, false);
            let mut direct = self.network_cell("direct", || build(KernelMode::Optimized), drive);
            self.parallel_twin(
                &mut direct,
                || build(KernelMode::Parallel { workers: 2 }),
                drive,
            );
            self.probe = probe;
            if let Some(reason) = direct.failure {
                cells[0].failure.get_or_insert(reason);
            }
        }
        Round { cells }
    }

    /// Replay every cell of the service's matrices directly (one seed, this
    /// thread), so their steps can be timed and their fault counters read —
    /// the service itself exposes neither.
    pub fn replay_matrix_cells(&mut self) -> Round {
        let mut cells = Vec::new();
        for (name, matrix) in self.matrices() {
            for (key, config) in matrix.cells() {
                let label = format!(
                    "{name}/{}@{:.1}/{}",
                    key.scenario,
                    key.load,
                    key.routing.label()
                );
                let drive = Drive::Steady {
                    warmup: config.warmup_cycles,
                    measure: config.measurement_cycles,
                };
                cells.push(self.network_cell(&label, || Self::fresh(config), drive));
            }
        }
        Round { cells }
    }

    /// Host microseconds per cycle of `routing` on `topology` with nothing
    /// to carry (offered load 0): the cost of the cycle's un-gated work.
    /// Also returns the milliseconds `Network::new` took.
    pub fn idle_floor_us(&self, topology: TopologyParams, routing: RoutingKind) -> (f64, f64) {
        let cycles = if self.smoke { 40 } else { 300 };
        let config = Self::steady_config(
            topology,
            routing,
            PatternKind::Uniform,
            0.0,
            1,
            KernelMode::Optimized,
        );
        let start = Instant::now();
        let mut net = Network::new(config);
        let new_ms = start.elapsed().as_secs_f64() * 1e3;
        for _ in 0..cycles / 4 {
            net.step();
        }
        // the host changes speed every second or so: median of five passes
        let passes: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..cycles {
                    net.step();
                }
                start.elapsed().as_secs_f64() * 1e6 / cycles as f64
            })
            .collect();
        (crate::trace::median(&passes), new_ms)
    }
}

/// What one service invocation did.
pub struct ServiceRun {
    pub table: String,
    pub wall_s: f64,
    pub delivered_packets: u64,
    pub journal_bytes: u64,
    pub subruns: u64,
    pub cycles: u64,
    pub snapshots: u64,
    pub failure: Option<String>,
}
