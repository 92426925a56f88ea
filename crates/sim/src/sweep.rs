//! Parameter sweeps and the scenario-matrix runner: the in-memory fronts
//! of the one thread pool in [`crate::runner`].
//!
//! * [`run_sweep`] — the flat sweep: a list of ready-made
//!   [`SimulationConfig`]s, one report each (the paper's load sweeps),
//!   every point averaged over `seeds_per_point` consecutive seeds.
//! * [`run_matrix`] — the scenario-matrix runner: the cross product of
//!   `scenarios × loads × routings` described by a [`ScenarioMatrix`] is
//!   expanded into one cell per combination, every cell gets a
//!   *deterministic* seed derived from `(base seed, scenario index, load
//!   index, routing index)` via [`cell_seed`], and the cells are swept.
//!   Because each cell's configuration (including its seed) is fully
//!   determined before any thread starts, the result table is bit-for-bit
//!   identical across reruns and across thread budgets. Every cell is
//!   checked by [`SimulationConfig::validate`], the one home of the
//!   workload rules. The journaled front of the same expansion is
//!   [`run_sweep_service`](crate::runner::run_sweep_service), whose tests
//!   hold it to `run_matrix`.
//!
//! The `threads` argument is the number of sub-runs at once, floored at 1:
//! every sub-run is one thread.
//!
//! [`matrix_table`] renders the cells as a [`Table`] (text or CSV) for the
//! `sweep_service` binary and the golden regression suite.

use df_engine::Table;
use df_routing::RoutingKind;
use df_traffic::InjectionKind;

use crate::config::SimulationConfig;
use crate::experiment::SteadyStateReport;
use crate::runner::run_pool;
use crate::scenario::Scenario;

/// Run every configuration and return the reports in the same order.
/// `seeds_per_point` > 1 averages each point over consecutive seeds (the
/// seeds of one point are separate sub-runs, so they load-balance across
/// threads). `threads` is the number of sub-runs at once, floored at 1 (use
/// `num_threads()` for a default).
pub fn run_sweep(
    configs: &[SimulationConfig],
    seeds_per_point: u64,
    threads: usize,
) -> Vec<SteadyStateReport> {
    run_pool(configs, seeds_per_point, threads, None)
        .expect("an in-memory sweep has no journal or snapshot to fail on")
        .expect("an in-memory sweep has no interruption hooks")
}

/// A reasonable default worker count: the available parallelism, capped so
/// laptop runs stay responsive.
pub fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

/// The deterministic seed of matrix cell `(scenario s, load l, routing r)`
/// for a given base seed: three chained [`DeterministicRng::split`]s, so
/// every cell draws from a statistically independent stream and the mapping
/// is stable across releases (pinned by the golden scenario-matrix suite).
///
/// [`DeterministicRng::split`]: df_engine::DeterministicRng::split
pub fn cell_seed(base_seed: u64, scenario_idx: usize, load_idx: usize, routing_idx: usize) -> u64 {
    df_engine::DeterministicRng::new(base_seed)
        .split(scenario_idx as u64)
        .split(load_idx as u64)
        .split(routing_idx as u64)
        .seed()
}

/// The cross product a scenario-matrix run expands: every scenario at every
/// offered load under every routing mechanism, over a common machine
/// template.
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    /// Machine-under-test and measurement template: topology, router
    /// microarchitecture, warm-up/measurement windows, and the base seed
    /// cells derive theirs from. Its schedule/injection/load/routing
    /// are overridden per cell.
    pub base: SimulationConfig,
    /// Workloads (rows of the result table).
    pub scenarios: Vec<Scenario>,
    /// Offered loads in phits/(node·cycle).
    pub loads: Vec<f64>,
    /// Routing mechanisms.
    pub routings: Vec<RoutingKind>,
    /// Seeds averaged per cell (1 = single run).
    pub seeds_per_cell: u64,
}

impl ScenarioMatrix {
    /// A matrix over `base` with empty axes; fill them field-by-field or via
    /// struct update syntax.
    pub fn new(base: SimulationConfig) -> Self {
        ScenarioMatrix {
            base,
            scenarios: Vec::new(),
            loads: Vec::new(),
            routings: Vec::new(),
            seeds_per_cell: 1,
        }
    }

    /// Number of cells the matrix expands to.
    pub fn num_cells(&self) -> usize {
        self.scenarios.len() * self.loads.len() * self.routings.len()
    }

    /// Expand the cross product into per-cell configurations, in
    /// deterministic scenario-major / load / routing order, each with its
    /// [`cell_seed`]. This happens before any parallelism, so cell seeding
    /// is independent of thread scheduling.
    ///
    /// Each scenario is applied to the base through the same mapping the
    /// configuration builder uses, its churn model lowered once against the
    /// base topology — so the same fault trace replays identically across
    /// every load and routing of its row.
    ///
    /// # Panics
    /// Panics on a scenario without a phase or with an invalid churn model;
    /// [`run_matrix`] and the sweep service go through `validated_cells`
    /// and report both as their own error.
    pub fn cells(&self) -> Vec<(MatrixKey, SimulationConfig)> {
        let mut out = Vec::with_capacity(self.num_cells());
        for (s_idx, scenario) in self.scenarios.iter().enumerate() {
            let mut row = self.base.clone();
            row.set_scenario(scenario);
            if let Some(churn) = scenario.churn_model() {
                row.lower_churn(churn)
                    .expect("valid churn model in matrix scenario");
            }
            for (l_idx, &load) in self.loads.iter().enumerate() {
                for (r_idx, &routing) in self.routings.iter().enumerate() {
                    let mut config = row.clone();
                    config.offered_load = load;
                    config.routing = routing;
                    config.seed = cell_seed(self.base.seed, s_idx, l_idx, r_idx);
                    out.push((
                        MatrixKey {
                            scenario: scenario.name.clone(),
                            injection: scenario.injection,
                            load,
                            routing,
                            seed: config.seed,
                        },
                        config,
                    ));
                }
            }
        }
        out
    }

    /// [`cells`](Self::cells) behind the checks both matrix drivers need:
    /// no empty axis and at least one seed per cell, then the two checks
    /// only a scenario can fail before its expansion (a phase to schedule, a
    /// valid churn model), then [`SimulationConfig::validate`] on every
    /// expanded cell — the one home of every other workload rule. Each
    /// error names the scenario.
    pub(crate) fn validated_cells(
        &self,
    ) -> Result<(Vec<MatrixKey>, Vec<SimulationConfig>), String> {
        if self.num_cells() == 0 {
            return Err("a scenario matrix needs at least one scenario, load and routing".into());
        }
        if self.seeds_per_cell == 0 {
            return Err("seeds_per_cell must be at least 1".into());
        }
        let invalid = |scenario: &str, e: &dyn std::fmt::Display| {
            format!("invalid matrix cell: scenario '{scenario}': {e}")
        };
        for scenario in &self.scenarios {
            if !scenario.has_phases() {
                return Err(invalid(&scenario.name, &"it has no phase"));
            }
            if let Some(churn) = scenario.churn_model() {
                churn.validate().map_err(|e| invalid(&scenario.name, &e))?;
            }
        }
        let cells = self.cells();
        for (key, config) in &cells {
            config.validate().map_err(|e| invalid(&key.scenario, &e))?;
        }
        Ok(cells.into_iter().unzip())
    }
}

/// Identifies one cell of a scenario matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixKey {
    /// Scenario name.
    pub scenario: String,
    /// Injection process of the scenario.
    pub injection: InjectionKind,
    /// Offered load of the cell.
    pub load: f64,
    /// Routing mechanism of the cell.
    pub routing: RoutingKind,
    /// The deterministic seed the cell ran with (see [`cell_seed`]).
    pub seed: u64,
}

/// One executed cell: its key plus the steady-state report.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Which cell this is.
    pub key: MatrixKey,
    /// The measured report (averaged over `seeds_per_cell` seeds).
    pub report: SteadyStateReport,
}

/// Pair the keys of a matrix expansion with the reports the pool produced
/// for it (same order).
pub(crate) fn matrix_cells(
    keys: Vec<MatrixKey>,
    reports: Vec<SteadyStateReport>,
) -> Vec<MatrixCell> {
    keys.into_iter()
        .zip(reports)
        .map(|(key, report)| MatrixCell { key, report })
        .collect()
}

/// Execute a scenario matrix `threads` sub-runs at once (floored at 1) and
/// return the cells in deterministic scenario-major / load / routing order.
/// The output is bit-for-bit identical across reruns and thread budgets.
///
/// # Panics
/// Panics if any axis of the matrix is empty or a scenario or cell
/// configuration fails validation.
pub fn run_matrix(matrix: &ScenarioMatrix, threads: usize) -> Vec<MatrixCell> {
    let (keys, configs) = matrix.validated_cells().unwrap_or_else(|e| panic!("{e}"));
    matrix_cells(keys, run_sweep(&configs, matrix.seeds_per_cell, threads))
}

/// Render matrix cells as a structured results table (one row per cell, in
/// the order [`run_matrix`] returned them).
pub fn matrix_table(title: impl Into<String>, cells: &[MatrixCell]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "scenario",
            "injection",
            "load",
            "routing",
            "latency",
            "p99",
            "accepted",
            "%misrouted",
            "delivered",
        ],
    );
    for cell in cells {
        table.push_row(vec![
            cell.key.scenario.clone(),
            cell.key.injection.label(),
            format!("{:.2}", cell.key.load),
            cell.key.routing.label().to_string(),
            format!("{:.2}", cell.report.avg_packet_latency),
            format!("{:.1}", cell.report.p99_latency),
            format!("{:.4}", cell.report.accepted_load),
            format!("{:.1}", cell.report.global_misroute_fraction * 100.0),
            cell.report.delivered_packets.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_steady_state;
    use df_model::NetworkConfig;
    use df_topology::DragonflyParams;
    use df_traffic::PatternKind;

    fn template() -> SimulationConfig {
        SimulationConfig::builder()
            .topology(DragonflyParams::small())
            .network(NetworkConfig::fast_test())
            .routing(RoutingKind::Minimal)
            .pattern(PatternKind::Uniform)
            .warmup_cycles(100)
            .measurement_cycles(200)
            .seed(0)
            .build()
            .unwrap()
    }

    fn at_loads(loads: &[f64]) -> Vec<SimulationConfig> {
        loads
            .iter()
            .map(|&load| SimulationConfig {
                offered_load: load,
                ..template()
            })
            .collect()
    }

    #[test]
    fn matrix_cells_lower_churn_into_fault_plans() {
        let base = template();
        let matrix = ScenarioMatrix {
            base: base.clone(),
            scenarios: vec![
                Scenario::steady(PatternKind::Uniform),
                Scenario::named("churny").hold(PatternKind::Uniform).churn(
                    crate::churn::ChurnModel::new(7, 100, 300)
                        .global_links(crate::churn::ChurnRate::new(400.0, 50.0)),
                ),
            ],
            loads: vec![0.1],
            routings: vec![RoutingKind::Base, RoutingKind::PiggyBacking],
            seeds_per_cell: 1,
        };
        let cells = matrix.cells();
        assert_eq!(cells.len(), 4);
        // healthy row stays fault-free; the churn row's lowered events must
        // survive expansion and be identical across routings
        assert!(cells[0].1.faults.events().is_empty());
        assert!(cells[1].1.faults.events().is_empty());
        let pb = &cells[3].1.faults;
        let base_faults = &cells[2].1.faults;
        assert!(
            !base_faults.events().is_empty(),
            "churn was dropped in expansion"
        );
        assert_eq!(base_faults.events(), pb.events());
    }

    #[test]
    fn parallel_sweep_returns_reports_in_order() {
        let configs = at_loads(&[0.05, 0.15]);
        let reports = run_sweep(&configs, 1, 2);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].offered_load, 0.05);
        assert_eq!(reports[1].offered_load, 0.15);
        assert!(reports.iter().all(|r| r.delivered_packets > 0));
        // higher offered load must accept at least as much traffic at these
        // uncongested points
        assert!(reports[1].accepted_load > reports[0].accepted_load);
    }

    #[test]
    fn sweep_matches_sequential_execution() {
        let configs = at_loads(&[0.1]);
        let parallel = run_sweep(&configs, 1, 4);
        let sequential = run_steady_state(&configs[0]);
        assert_eq!(parallel[0].delivered_packets, sequential.delivered_packets);
        assert_eq!(
            parallel[0].avg_packet_latency,
            sequential.avg_packet_latency
        );
    }

    #[test]
    fn default_thread_count_is_positive() {
        assert!(num_threads() >= 1);
    }

    // ---- scenario matrix ----

    fn small_matrix() -> ScenarioMatrix {
        ScenarioMatrix {
            scenarios: vec![
                Scenario::steady(PatternKind::Uniform),
                Scenario::steady(PatternKind::Adversarial { offset: 1 }),
            ],
            loads: vec![0.1, 0.2],
            routings: vec![RoutingKind::Minimal, RoutingKind::Base],
            seeds_per_cell: 1,
            ..ScenarioMatrix::new(template())
        }
    }

    #[test]
    fn cell_seeds_are_deterministic_and_distinct() {
        let a = cell_seed(7, 0, 1, 2);
        assert_eq!(a, cell_seed(7, 0, 1, 2));
        // every axis perturbs the seed, and so does the base seed
        assert_ne!(a, cell_seed(7, 1, 1, 2));
        assert_ne!(a, cell_seed(7, 0, 0, 2));
        assert_ne!(a, cell_seed(7, 0, 1, 1));
        assert_ne!(a, cell_seed(8, 0, 1, 2));
        // axis indices must not be interchangeable
        assert_ne!(cell_seed(7, 1, 2, 0), cell_seed(7, 2, 0, 1));
    }

    #[test]
    fn matrix_expands_the_full_cross_product_in_order() {
        let m = small_matrix();
        assert_eq!(m.num_cells(), 8);
        let cells = m.cells();
        assert_eq!(cells.len(), 8);
        // scenario-major, then load, then routing
        assert_eq!(cells[0].0.scenario, "UN");
        assert_eq!(cells[0].0.load, 0.1);
        assert_eq!(cells[0].0.routing, RoutingKind::Minimal);
        assert_eq!(cells[1].0.routing, RoutingKind::Base);
        assert_eq!(cells[2].0.load, 0.2);
        assert_eq!(cells[4].0.scenario, "ADV+1");
        // each cell carries its derived seed in both key and config
        for (s, l, r) in [(0usize, 0usize, 0usize), (1, 1, 1)] {
            let idx = s * 4 + l * 2 + r;
            assert_eq!(cells[idx].1.seed, cell_seed(0, s, l, r));
            assert_eq!(cells[idx].0.seed, cells[idx].1.seed);
        }
        // all seeds distinct
        let mut seeds: Vec<u64> = cells.iter().map(|(k, _)| k.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8);
    }

    #[test]
    fn matrix_run_is_identical_across_reruns_and_thread_counts() {
        // budget 0 still runs one sub-run at a time; 12 is more threads
        // than the matrix has cells
        let m = small_matrix();
        let a = run_matrix(&m, 1);
        for budget in [0, 4, 12] {
            let b = run_matrix(&m, budget);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.key, y.key);
                assert_eq!(x.report.delivered_packets, y.report.delivered_packets);
                assert_eq!(
                    x.report.avg_packet_latency.to_bits(),
                    y.report.avg_packet_latency.to_bits(),
                    "cell {:?} depends on the thread budget",
                    x.key
                );
            }
            let ta = matrix_table("m", &a).to_csv();
            let tb = matrix_table("m", &b).to_csv();
            assert_eq!(
                ta, tb,
                "budget {budget}: rendered tables must be bit-identical"
            );
        }
    }

    #[test]
    fn matrix_table_has_one_row_per_cell() {
        let m = small_matrix();
        let cells = run_matrix(&m, 2);
        let table = matrix_table("scenario matrix", &cells);
        assert_eq!(table.num_rows(), 8);
        assert_eq!(table.cell(0, 0), Some("UN"));
        assert_eq!(table.cell(0, 1), Some("bernoulli"));
        assert_eq!(table.cell(4, 0), Some("ADV+1"));
    }

    #[test]
    #[should_panic(expected = "at least one scenario")]
    fn empty_matrix_axes_are_rejected() {
        let m = ScenarioMatrix::new(template());
        let _ = run_matrix(&m, 1);
    }

    #[test]
    fn every_workload_rule_is_a_service_error_naming_the_scenario() {
        use crate::churn::{ChurnModel, ChurnRate};
        use crate::runner::{run_sweep_service, RunnerOptions};
        use df_topology::RouterId;
        use df_traffic::{CollectiveKind, JobPlacement, JobSpec, TaskWorkload};
        let a2a = || {
            JobSpec::new(
                TaskWorkload::single(CollectiveKind::AllToAll, 8, 1),
                JobPlacement::block(0),
            )
        };
        let cases = [
            (Scenario::named("phaseless"), "no phase"),
            (
                Scenario::named("overload").hold_at_load(PatternKind::Uniform, 1.5),
                "schedule phase 0: load must be in [0,1]",
            ),
            (
                Scenario::named("no-hotspots").hold(PatternKind::Hotspot {
                    hotspots: 0,
                    fraction: 0.5,
                }),
                "hotspot count",
            ),
            (
                Scenario::named("bad-churn")
                    .hold(PatternKind::Uniform)
                    .churn(ChurnModel::new(7, 100, 300).global_links(ChurnRate::new(0.0, 5.0))),
                "churn model: global-link mtbf",
            ),
            (
                Scenario::named("overlap")
                    .hold(PatternKind::Uniform)
                    .job(a2a())
                    .job(a2a()),
                "both place a rank",
            ),
            (
                Scenario::named("far-router")
                    .hold(PatternKind::Uniform)
                    .router_drain(10, RouterId(10_000)),
                "router r10000 out of range",
            ),
        ];
        let dir = std::env::temp_dir().join(format!("df_sweep_rules_{}", std::process::id()));
        for (scenario, reason) in cases {
            let name = scenario.name.clone();
            let mut m = small_matrix();
            m.scenarios.push(scenario);
            let err = run_sweep_service(&m, &RunnerOptions::new(&dir)).unwrap_err();
            assert!(
                err.starts_with(&format!("invalid matrix cell: scenario '{name}'"))
                    && err.contains(reason),
                "{name}: the error must name the scenario and the rule: {err}"
            );
        }
        assert!(!dir.exists(), "no run directory may be created");
    }

    #[test]
    #[should_panic(expected = "invalid matrix cell: scenario 'bad-churn'")]
    fn run_matrix_reports_an_invalid_scenario_as_an_invalid_cell() {
        let mut m = small_matrix();
        m.scenarios.push(
            Scenario::named("bad-churn")
                .hold(PatternKind::Uniform)
                .churn(
                    crate::churn::ChurnModel::new(7, 100, 300)
                        .global_links(crate::churn::ChurnRate::new(0.0, 5.0)),
                ),
        );
        let _ = run_matrix(&m, 1);
    }
}
