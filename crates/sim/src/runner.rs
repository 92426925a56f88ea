//! The one sweep driver. Every steady-state run in the crate is a
//! `(configuration, seed)` **sub-run** — warm up, open the measurement
//! window, measure (`run_subrun`) — and every sweep is a flat list of
//! sub-runs on one thread pool (`run_pool`), one sub-run per thread, that
//! averages each configuration's per-seed reports in seed order.
//! [`run_steady_state`] is one sub-run, [`run_sweep`] and
//! [`run_matrix`] are the pool in memory, and [`run_sweep_service`] is the
//! pool with a journal and periodic state snapshots: a killed sweep resumes
//! where it stopped and still produces a results table **byte-identical**
//! to an uninterrupted run.
//!
//! # Run directory
//!
//! [`run_sweep_service`] owns a directory:
//!
//! * `journal.bin` — append-only journal of checksummed records (frame
//!   format of [`df_engine::Encoder::finish_frame`], magic `DFSWPJNL`). The
//!   first record is a header binding the directory to one matrix (a
//!   fingerprint over every cell's kernel-normalised configuration); each
//!   further record is one completed `(cell, seed)` sub-run with its
//!   measured numbers. A torn tail (the process died mid-append) is
//!   detected by the per-record checksum and cut off before the next
//!   append, so every record a resume appends is read by the resume after
//!   it; a journal whose header record is torn starts over, empty.
//! * `cell<c>_s<s>.snap` — the latest mid-run snapshot of an in-progress
//!   sub-run ([`Network::snapshot`]), rewritten every `checkpoint_every`
//!   cycles via a temp-file + rename so it is never torn. Deleted when the
//!   sub-run completes (its journal record supersedes it).
//!
//! # Recovery
//!
//! On restart over the same directory the journal is replayed: completed
//! sub-runs are loaded (not re-run), and every incomplete sub-run restarts —
//! from its snapshot when a valid one exists (validated by magic, version,
//! checksum and configuration fingerprint; an invalid or stale file just
//! means a from-scratch re-run). Because each sub-run is deterministic and
//! snapshot resume is bit-identical, the recovered table equals the
//! uninterrupted one byte for byte.
//!
//! Measured numbers ride through the journal as exact bit patterns (f64
//! bits, `SteadyStateReport::encode_measured`), never through text, so
//! recovery cannot introduce rounding drift. A record holds no number its
//! cell's configuration and seed index give: the seed and the accepted
//! load (one formula over the delivered packets) are rebuilt on replay.
//!
//! [`run_steady_state`]: crate::experiment::run_steady_state
//! [`run_sweep`]: crate::sweep::run_sweep
//! [`run_matrix`]: crate::sweep::run_matrix

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use df_engine::{CodecError, Decoder, Encoder};

use crate::config::SimulationConfig;
use crate::experiment::{average_reports, SteadyStateReport};
use crate::network::snapshot::config_fingerprint;
use crate::network::Network;
use crate::sweep::{matrix_cells, MatrixCell, ScenarioMatrix};

/// Journal frame magic.
pub(crate) const JOURNAL_MAGIC: [u8; 8] = *b"DFSWPJNL";
/// Journal format version: v2 records store no field a sub-run's
/// configuration and seed index give (its seed, its accepted load). An
/// older journal is refused by the frame's version check.
pub(crate) const JOURNAL_VERSION: u32 = 2;

const RECORD_HEADER: u8 = 0;
const RECORD_SUBRUN: u8 = 1;

/// Options of the sweep service.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// The run directory (journal + snapshots + results); created if absent.
    pub run_dir: PathBuf,
    /// Cycles between mid-run snapshots of each sub-run (0 = none: recovery
    /// granularity is whole sub-runs).
    pub checkpoint_every: u64,
    /// Sub-runs at once: the threads of the pool pulling sub-runs off the
    /// queue (floored at 1).
    pub threads: usize,
    /// Testing/CI hook: stop claiming work after this many sub-runs have
    /// completed in *this* process, as if the service had been killed (the
    /// journal and snapshots stay behind for a resume).
    pub interrupt_after_subruns: Option<usize>,
    /// Testing/CI hook: abandon each sub-run at its first checkpoint at or
    /// after this cycle, leaving the snapshot behind (simulates dying
    /// mid-cell). Requires `checkpoint_every > 0` to have any effect.
    pub interrupt_mid_subrun_at: Option<u64>,
}

impl RunnerOptions {
    /// Defaults over a run directory: checkpoint every 2000 cycles, one
    /// sub-run at a time, no interruption hooks.
    pub fn new(run_dir: impl Into<PathBuf>) -> Self {
        RunnerOptions {
            run_dir: run_dir.into(),
            checkpoint_every: 2_000,
            threads: 1,
            interrupt_after_subruns: None,
            interrupt_mid_subrun_at: None,
        }
    }
}

/// What a service invocation did.
#[derive(Debug)]
pub struct SweepOutcome {
    /// True when every sub-run of the matrix is complete and `cells` holds
    /// the full table; false when an interruption hook stopped the service
    /// early (resume by calling again over the same directory).
    pub complete: bool,
    /// The executed matrix cells in deterministic order (empty unless
    /// `complete`).
    pub cells: Vec<MatrixCell>,
    /// Sub-runs recovered from the journal (completed by an earlier
    /// invocation).
    pub recovered_subruns: usize,
    /// Sub-runs executed by this invocation.
    pub executed_subruns: usize,
    /// Sub-runs this invocation resumed from a mid-run snapshot, with the
    /// cycle each resumed at.
    pub resumed_from_snapshot: Vec<(usize, u64, u64)>,
}

/// Fingerprint binding a run directory to one sweep: hashes the
/// seeds-per-cell count plus every cell's kernel-normalised configuration
/// fingerprint, in cell order.
fn matrix_fingerprint(seeds_per_cell: u64, configs: &[SimulationConfig]) -> u64 {
    let mut e = Encoder::new();
    e.u64(seeds_per_cell);
    e.usize(configs.len());
    for config in configs {
        e.u64(config_fingerprint(config));
    }
    df_engine::codec::fnv1a64(&e.into_bytes())
}

fn journal_path(run_dir: &Path) -> PathBuf {
    run_dir.join("journal.bin")
}

/// Journal header: `(matrix fingerprint, cell count, seeds per cell)`.
type JournalHeader = (u64, u64, u64);
/// Sub-run results, keyed by `(cell index, seed index)`.
type SubrunReports = HashMap<(usize, u64), SteadyStateReport>;

/// The on-disk half of a sweep — what turns the pool into the service: the
/// open journal, the options governing checkpoints and the interruption
/// hooks, and what this invocation has appended so far.
pub(crate) struct Journal<'a> {
    options: &'a RunnerOptions,
    file: Mutex<File>,
    /// `(cell, seed index, cycle)` of every sub-run this invocation executed
    /// after resuming it from a snapshot.
    resumed: Mutex<Vec<(usize, u64, u64)>>,
    /// Sub-runs this invocation executed.
    executed: AtomicUsize,
}

impl<'a> Journal<'a> {
    /// Open (or create) the journal of `options.run_dir` for the sweep
    /// `configs × seeds` and replay the sub-runs it already holds. Fails
    /// when the directory belongs to a different sweep.
    fn open(
        options: &'a RunnerOptions,
        configs: &[SimulationConfig],
        seeds: u64,
    ) -> Result<(Self, SubrunReports), String> {
        let dir = &options.run_dir;
        fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create run dir {}: {e}", dir.display()))?;
        let header = (
            matrix_fingerprint(seeds, configs),
            configs.len() as u64,
            seeds,
        );
        let path = journal_path(dir);
        // a journal whose header record itself was torn is treated as empty
        let recovered = match fs::read(&path) {
            Ok(bytes) => read_journal(&bytes, header, configs)
                .map_err(|e| format!("run dir {}: {e}", dir.display()))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            // never cut back a journal that could not be read
            Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        // cut a torn tail off before the first append: a record appended
        // behind it could never be read again
        let intact = recovered.as_ref().map_or(0, |&(_, intact)| intact);
        file.set_len(intact)
            .map_err(|e| format!("cannot truncate journal {}: {e}", path.display()))?;
        let journal = Journal {
            options,
            file: Mutex::new(file),
            resumed: Mutex::new(Vec::new()),
            executed: AtomicUsize::new(0),
        };
        if recovered.is_none() {
            let mut e = Encoder::new();
            e.u8(RECORD_HEADER);
            e.u64(header.0);
            e.u64(header.1);
            e.u64(header.2);
            journal.append(e)?;
        }
        Ok((journal, recovered.map(|(done, _)| done).unwrap_or_default()))
    }

    /// Append one framed record and flush it to disk.
    fn append(&self, payload: Encoder) -> Result<(), String> {
        let bytes = payload.finish_frame(JOURNAL_MAGIC, JOURNAL_VERSION);
        let mut file = self.file.lock().map_err(|_| "journal writer poisoned")?;
        file.write_all(&bytes)
            .and_then(|()| file.sync_data())
            .map_err(|e| format!("journal append failed: {e}"))
    }

    /// Record a completed sub-run (its snapshot, superseded, is deleted) and
    /// return how many this invocation has executed so far.
    fn record(&self, subrun: &Durable, end: &SubRunEnd) -> Result<usize, String> {
        let mut e = Encoder::new();
        e.u8(RECORD_SUBRUN);
        e.usize(subrun.cell);
        e.u64(subrun.seed_idx);
        end.report.encode_measured(&mut e);
        self.append(e)?;
        let _ = fs::remove_file(&subrun.snap_path);
        if let Some(at) = end.resumed_at {
            let mut resumed = self.resumed.lock().expect("resume log");
            resumed.push((subrun.cell, subrun.seed_idx, at));
        }
        Ok(self.executed.fetch_add(1, Ordering::SeqCst) + 1)
    }
}

/// Split a journal file into frames and decode them against the sweep they
/// must belong to (`expected` header; sub-run records regenerate their
/// identification fields from `configs`). Stops silently at a torn or
/// corrupt tail (the crash case), erroring only on a malformed prefix or
/// the header of a different sweep. Returns the recovered sub-runs and the
/// length of the intact prefix before the tail; `None` = no intact header.
fn read_journal(
    bytes: &[u8],
    expected: JournalHeader,
    configs: &[SimulationConfig],
) -> Result<Option<(SubrunReports, u64)>, String> {
    let mut header_seen = false;
    let mut done = HashMap::new();
    let mut rest = bytes;
    // `None` = torn tail: everything before it stands
    while let Some((mut d, tail)) = Decoder::split_frame(rest, JOURNAL_MAGIC, JOURNAL_VERSION)
        .map_err(|e| match e {
            CodecError::UnsupportedVersion { supported, found } => format!(
                "the journal has format version {found}, this build reads version \
                 {supported}: remove the run directory and run the sweep again"
            ),
            e => format!("corrupt journal: {e}"),
        })?
    {
        rest = tail;
        // Ok(Some(header)) for a header record, Ok(None) for a sub-run
        let mut parse = |d: &mut Decoder| -> Result<Option<JournalHeader>, CodecError> {
            match d.u8()? {
                RECORD_HEADER => Ok(Some((d.u64()?, d.u64()?, d.u64()?))),
                RECORD_SUBRUN => {
                    let (cell, seed_idx) = (d.usize()?, d.u64()?);
                    let config = configs
                        .get(cell)
                        .filter(|_| seed_idx < expected.2)
                        .ok_or_else(|| {
                            CodecError::Invalid(format!(
                                "sub-run ({cell}, {seed_idx}) outside the matrix"
                            ))
                        })?;
                    let report = SteadyStateReport::decode_measured(config, seed_idx, d)?;
                    done.insert((cell, seed_idx), report);
                    Ok(None)
                }
                tag => Err(CodecError::Invalid(format!(
                    "unknown journal record tag {tag}"
                ))),
            }
        };
        if let Some(found) = parse(&mut d).map_err(|e| format!("corrupt journal record: {e}"))? {
            if found != expected {
                return Err(format!(
                    "the journal belongs to a different matrix (fingerprint {:#018x}, \
                     this matrix {:#018x})",
                    found.0, expected.0
                ));
            }
            header_seen = true;
        }
    }
    let intact = (bytes.len() - rest.len()) as u64;
    Ok(header_seen.then_some((done, intact)))
}

/// Write `bytes` to `path` atomically (temp file + rename), fsynced.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    f.write_all(bytes)
        .and_then(|()| f.sync_data())
        .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| format!("cannot commit {}: {e}", path.display()))
}

/// The on-disk side of one sub-run: which one it is, where its snapshot
/// lives and the service options (checkpoint interval, mid-run interruption
/// hook).
pub(crate) struct Durable<'a> {
    cell: usize,
    seed_idx: u64,
    snap_path: PathBuf,
    options: &'a RunnerOptions,
}

/// A sub-run that ran to the end of its window.
pub(crate) struct SubRunEnd {
    pub(crate) report: SteadyStateReport,
    /// The cycle it resumed from, if it started from a snapshot.
    resumed_at: Option<u64>,
}

/// Execute one sub-run — the crate's only steady-state procedure: warm up,
/// open the measurement window, measure. With a [`Durable`] side it resumes
/// from a valid snapshot if the run directory holds one and writes periodic
/// snapshots (chunked stepping and snapshot writes never perturb the
/// simulation), and returns `Ok(None)` when `interrupt_mid_subrun_at`
/// abandons it at a checkpoint. Without one it runs in memory and always
/// returns `Ok(Some(_))`.
pub(crate) fn run_subrun(
    config: &SimulationConfig,
    durable: Option<&Durable>,
) -> Result<Option<SubRunEnd>, String> {
    let warmup = config.warmup_cycles;
    let total = config.total_cycles();
    let mut resumed_at = None;

    let snapshot = durable.and_then(|d| Some((d, fs::read(&d.snap_path).ok()?)));
    let mut net = match snapshot {
        Some((d, bytes)) => match Network::restore(config.clone(), &bytes) {
            Ok(net) => {
                resumed_at = Some(net.cycle());
                net
            }
            Err(e) => {
                // stale or damaged checkpoint: discard and start over
                eprintln!(
                    "sweep: discarding unusable snapshot {}: {e}",
                    d.snap_path.display()
                );
                let _ = fs::remove_file(&d.snap_path);
                Network::new(config.clone())
            }
        },
        None => Network::new(config.clone()),
    };

    let checkpoint_every = durable.map_or(0, |d| d.options.checkpoint_every);

    // open the measurement window the moment warm-up ends — before any
    // checkpoint at that cycle, so the snapshot carries the decision
    let open_window_if_due = |net: &mut Network| {
        if net.cycle() == warmup && !net.metrics().measuring() {
            net.metrics_mut().start_measurement(warmup);
        }
    };
    open_window_if_due(&mut net);
    while net.cycle() < total {
        // the first checkpoint cycle after now; never, without checkpoints
        let next_checkpoint = match checkpoint_every {
            0 => u64::MAX,
            every => (net.cycle() / every + 1) * every,
        };
        let phase_end = if net.cycle() < warmup { warmup } else { total };
        net.run_cycles(next_checkpoint.min(phase_end) - net.cycle());
        open_window_if_due(&mut net);

        let Some(d) = durable else { continue };
        if net.cycle() == next_checkpoint && net.cycle() < total {
            write_atomic(&d.snap_path, &net.snapshot())?;
            let stop_at = d.options.interrupt_mid_subrun_at;
            if stop_at.is_some_and(|stop_at| net.cycle() >= stop_at) {
                return Ok(None);
            }
        }
    }

    Ok(Some(SubRunEnd {
        report: SteadyStateReport::measure(&net),
        resumed_at,
    }))
}

/// The one thread pool: execute every `(configuration, seed index)` sub-run
/// of `configs × seeds` not already in the journal's recovered reports, on
/// a scoped pool of `threads` workers (floored at 1) pulling indices off a
/// shared counter, and average each configuration's per-seed reports in
/// seed order. Returns one report per configuration in input order, or
/// `None` when an interruption hook stopped the pool early. With
/// a journal every completion is recorded and sub-runs checkpoint (the
/// sweep service); without one the sweep lives in memory and cannot fail.
pub(crate) fn run_pool(
    configs: &[SimulationConfig],
    seeds: u64,
    threads: usize,
    journal: Option<(&Journal, SubrunReports)>,
) -> Result<Option<Vec<SteadyStateReport>>, String> {
    assert!(seeds > 0, "a sweep point needs at least one seed");
    let (journal, recovered) = journal.map_or((None, HashMap::new()), |(j, r)| (Some(j), r));
    let pending: Vec<(usize, u64)> = (0..configs.len())
        .flat_map(|cell| (0..seeds).map(move |seed_idx| (cell, seed_idx)))
        .filter(|key| !recovered.contains_key(key))
        .collect();

    let results = Mutex::new(recovered);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let first_error: Mutex<Option<String>> = Mutex::new(None);

    // run one sub-run and file its report; Ok(true) = claim the next one
    let run = |cell: usize, seed_idx: u64| -> Result<bool, String> {
        let mut config = configs[cell].clone();
        config.seed += seed_idx; // a point's seeds are consecutive from its own
        let durable = journal.map(|j| Durable {
            cell,
            seed_idx,
            snap_path: (j.options.run_dir).join(format!("cell{cell}_s{seed_idx}.snap")),
            options: j.options,
        });
        let Some(end) = run_subrun(&config, durable.as_ref())? else {
            return Ok(false);
        };
        let mut more = true;
        if let (Some(journal), Some(durable)) = (journal, &durable) {
            let executed = journal.record(durable, &end)?;
            let limit = journal.options.interrupt_after_subruns;
            more = limit.is_none_or(|limit| executed < limit);
        }
        let mut results = results.lock().expect("result map");
        results.insert((cell, seed_idx), end.report);
        Ok(more)
    };
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, pending.len().max(1)) {
            scope.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(cell, seed_idx)) = pending.get(idx) else {
                        break;
                    };
                    match run(cell, seed_idx) {
                        Ok(true) => {}
                        Ok(false) => stop.store(true, Ordering::SeqCst),
                        Err(err) => {
                            *first_error.lock().expect("error slot") = Some(err);
                            stop.store(true, Ordering::SeqCst);
                        }
                    }
                }
            });
        }
    });

    if let Some(err) = first_error.into_inner().expect("error slot") {
        return Err(err);
    }
    let mut results = results.into_inner().expect("result map");
    let complete = results.len() == configs.len() * seeds as usize;
    Ok(complete.then(|| {
        configs
            .iter()
            .enumerate()
            .map(|(cell, config)| {
                let mut per_seed: Vec<SteadyStateReport> = (0..seeds)
                    .map(|seed_idx| results.remove(&(cell, seed_idx)).expect("complete sweep"))
                    .collect();
                if seeds == 1 {
                    per_seed.pop().expect("one report")
                } else {
                    average_reports(config, &per_seed)
                }
            })
            .collect()
    }))
}

/// Run (or resume) a scenario matrix as a crash-recoverable service over
/// `options.run_dir`: [`run_matrix`](crate::sweep::run_matrix) with a
/// journal. See the module documentation for the directory protocol.
/// Returns the full cell table when the matrix completed, or a partial
/// [`SweepOutcome`] when an interruption hook stopped it.
pub fn run_sweep_service(
    matrix: &ScenarioMatrix,
    options: &RunnerOptions,
) -> Result<SweepOutcome, String> {
    let seeds = matrix.seeds_per_cell;
    let (keys, configs) = matrix.validated_cells()?;
    let (journal, recovered) = Journal::open(options, &configs, seeds)?;
    let recovered_subruns = recovered.len();
    let reports = run_pool(
        &configs,
        seeds,
        options.threads,
        Some((&journal, recovered)),
    )?;
    Ok(SweepOutcome {
        complete: reports.is_some(),
        recovered_subruns,
        executed_subruns: journal.executed.into_inner(),
        resumed_from_snapshot: journal.resumed.into_inner().expect("resume log"),
        cells: reports.map_or_else(Vec::new, |reports| matrix_cells(keys, reports)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::snapshot::SNAPSHOT_MAGIC;
    use crate::scenario::Scenario;
    use crate::sweep::{matrix_table, run_matrix};
    use crate::SNAPSHOT_VERSION;
    use df_model::NetworkConfig;
    use df_routing::RoutingKind;
    use df_topology::DragonflyParams;
    use df_traffic::PatternKind;

    fn small_matrix(seeds_per_cell: u64) -> ScenarioMatrix {
        let base = SimulationConfig::builder()
            .topology(DragonflyParams::small())
            .network(NetworkConfig::fast_test())
            .routing(RoutingKind::Base)
            .pattern(PatternKind::Uniform)
            .warmup_cycles(150)
            .measurement_cycles(350)
            .seed(17)
            .build()
            .expect("valid base configuration");
        ScenarioMatrix {
            base,
            scenarios: vec![
                Scenario::steady(PatternKind::Uniform),
                Scenario::steady(PatternKind::Adversarial { offset: 1 }),
            ],
            loads: vec![0.2, 0.5],
            routings: vec![RoutingKind::Base, RoutingKind::PiggyBacking],
            seeds_per_cell,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("df_runner_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn uninterrupted_service_matches_run_matrix() {
        let matrix = small_matrix(1);
        let dir = tmp_dir("match");
        let outcome = run_sweep_service(&matrix, &RunnerOptions::new(&dir)).expect("runs");
        assert!(outcome.complete);
        assert_eq!(outcome.recovered_subruns, 0);
        assert_eq!(outcome.executed_subruns, matrix.num_cells());

        let reference = run_matrix(&matrix, 2);
        let service = matrix_table("t", &outcome.cells).to_csv();
        let expected = matrix_table("t", &reference).to_csv();
        assert_eq!(service, expected, "service must reproduce run_matrix");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_between_subruns_resumes_to_identical_table() {
        let matrix = small_matrix(1);
        let dir = tmp_dir("kill_between");
        let reference = {
            let ref_dir = tmp_dir("kill_between_ref");
            let out = run_sweep_service(&matrix, &RunnerOptions::new(&ref_dir)).expect("reference");
            let _ = fs::remove_dir_all(&ref_dir);
            matrix_table("t", &out.cells).to_csv()
        };

        let mut opts = RunnerOptions::new(&dir);
        opts.interrupt_after_subruns = Some(3);
        let partial = run_sweep_service(&matrix, &opts).expect("partial run");
        assert!(!partial.complete);
        assert_eq!(partial.executed_subruns, 3);

        let resumed = run_sweep_service(&matrix, &RunnerOptions::new(&dir)).expect("resume");
        assert!(resumed.complete);
        assert_eq!(resumed.recovered_subruns, 3);
        assert_eq!(resumed.executed_subruns, matrix.num_cells() - 3);
        assert_eq!(matrix_table("t", &resumed.cells).to_csv(), reference);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_mid_subrun_resumes_from_snapshot_to_identical_table() {
        let matrix = small_matrix(1);
        let dir = tmp_dir("kill_mid");
        let reference = {
            let ref_dir = tmp_dir("kill_mid_ref");
            let out = run_sweep_service(&matrix, &RunnerOptions::new(&ref_dir)).expect("reference");
            let _ = fs::remove_dir_all(&ref_dir);
            matrix_table("t", &out.cells).to_csv()
        };

        // die mid-cell: checkpoint every 100 cycles, abandon at cycle >= 200
        let mut opts = RunnerOptions::new(&dir);
        opts.checkpoint_every = 100;
        opts.interrupt_mid_subrun_at = Some(200);
        let partial = run_sweep_service(&matrix, &opts).expect("partial run");
        assert!(!partial.complete);
        assert_eq!(partial.executed_subruns, 0);
        assert!(
            fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .any(|e| e.file_name().to_string_lossy().ends_with(".snap")),
            "the abandoned sub-run must leave a snapshot behind"
        );

        let mut resume_opts = RunnerOptions::new(&dir);
        resume_opts.checkpoint_every = 100;
        let resumed = run_sweep_service(&matrix, &resume_opts).expect("resume");
        assert!(resumed.complete);
        assert!(
            !resumed.resumed_from_snapshot.is_empty(),
            "at least one sub-run must resume from its snapshot"
        );
        assert!(resumed
            .resumed_from_snapshot
            .iter()
            .all(|&(_, _, cycle)| cycle == 200));
        assert_eq!(matrix_table("t", &resumed.cells).to_csv(), reference);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_and_forged_snapshots_are_discarded_and_the_cells_rerun() {
        // a run directory left behind by the previous snapshot format (a
        // frame stamped version 5), one holding a checksummed frame whose
        // injected-packet count disagrees with the other packet ledgers, and
        // the zero-filled and truncated files an unsynced rename can leave
        // after a power loss: every sub-run starts over and the table is the
        // reference table
        let matrix = small_matrix(1);
        let reference = matrix_table("t", &run_matrix(&matrix, 2)).to_csv();
        let dir = tmp_dir("stale_snap");
        fs::create_dir_all(&dir).unwrap();
        let snapshot_of = |cell: usize| {
            let mut net = Network::new(matrix.cells()[cell].1.clone());
            net.run_cycles(120);
            net.snapshot()
        };
        let mut v5 = snapshot_of(0);
        v5[8..12].copy_from_slice(&5u32.to_le_bytes());
        fs::write(dir.join("cell0_s0.snap"), &v5).unwrap();
        // `fingerprint | cycle | next packet id | injected | ...`
        let forged = crate::network::snapshot::forged(&snapshot_of(1), |payload| payload[24] ^= 1);
        assert!(
            Decoder::open_frame(&forged, SNAPSHOT_MAGIC, SNAPSHOT_VERSION).is_ok(),
            "the frame itself is valid"
        );
        fs::write(dir.join("cell1_s0.snap"), &forged).unwrap();
        let zeroed = vec![0u8; snapshot_of(2).len()];
        fs::write(dir.join("cell2_s0.snap"), &zeroed).unwrap();
        let truncated = snapshot_of(3);
        fs::write(dir.join("cell3_s0.snap"), &truncated[..truncated.len() / 2]).unwrap();

        let outcome = run_sweep_service(&matrix, &RunnerOptions::new(&dir)).expect("runs");
        assert!(outcome.complete);
        assert!(
            outcome.resumed_from_snapshot.is_empty(),
            "nothing was resumable"
        );
        assert_eq!(outcome.executed_subruns, matrix.num_cells());
        assert_eq!(matrix_table("t", &outcome.cells).to_csv(), reference);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_dir_of_a_different_matrix_is_rejected() {
        let dir = tmp_dir("mismatch");
        run_sweep_service(&small_matrix(1), &RunnerOptions::new(&dir)).expect("first run");
        let mut other = small_matrix(1);
        other.loads = vec![0.1];
        let err = run_sweep_service(&other, &RunnerOptions::new(&dir)).unwrap_err();
        assert!(err.contains("different matrix"), "got: {err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_seed_cells_average_like_run_matrix() {
        let mut matrix = small_matrix(2);
        matrix.scenarios.truncate(1);
        matrix.loads.truncate(1);
        let dir = tmp_dir("seeds");
        let outcome = run_sweep_service(&matrix, &RunnerOptions::new(&dir)).expect("runs");
        assert!(outcome.complete);
        let reference = run_matrix(&matrix, 2);
        assert_eq!(
            matrix_table("t", &outcome.cells).to_csv(),
            matrix_table("t", &reference).to_csv()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_tail_is_ignored() {
        let matrix = small_matrix(1);
        let dir = tmp_dir("torn");
        let mut opts = RunnerOptions::new(&dir);
        opts.interrupt_after_subruns = Some(2);
        run_sweep_service(&matrix, &opts).expect("partial run");
        let journal = journal_path(&dir);
        let bytes = fs::read(&journal).unwrap();
        // header + two sub-run records: where the last one starts, how long
        // its payload is and where its length prefix says so
        let (mut rest, mut last, mut payload_len) = (&bytes[..], 0, 0u64);
        while let Some((d, tail)) =
            Decoder::split_frame(rest, JOURNAL_MAGIC, JOURNAL_VERSION).unwrap()
        {
            (last, payload_len) = (bytes.len() - rest.len(), d.remaining() as u64);
            rest = tail;
        }
        let prefix = bytes[last..]
            .windows(8)
            .position(|w| w == payload_len.to_le_bytes())
            .expect("length prefix");
        let prefix = last + prefix;
        // tears of the last record: cut short, and a length prefix that
        // overflows the end-of-frame sum, wraps it to 0 (what the hand-rolled
        // `28 + len` did), or points one byte past the file
        let cut = bytes[..bytes.len() - 5].to_vec();
        let relabelled = [u64::MAX, (usize::MAX - 27) as u64, payload_len + 1].map(|len| {
            let mut torn = bytes.clone();
            torn[prefix..prefix + 8].copy_from_slice(&len.to_le_bytes());
            torn
        });
        for torn in std::iter::once(cut).chain(relabelled) {
            fs::write(&journal, &torn).unwrap();
            let resumed = run_sweep_service(&matrix, &RunnerOptions::new(&dir)).expect("resume");
            assert!(resumed.complete);
            // the torn record's sub-run was re-run, the intact one recovered
            assert_eq!(resumed.recovered_subruns, 1);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_appended_after_a_torn_tail_survive_the_next_resume() {
        // a partial run whose last record is torn, a resume that journals
        // two more sub-runs, then a second resume: the records the first
        // resume appended must not hide behind the torn bytes
        let matrix = small_matrix(1);
        let reference = matrix_table("t", &run_matrix(&matrix, 2)).to_csv();
        let dir = tmp_dir("torn_append");
        let mut opts = RunnerOptions::new(&dir);
        opts.interrupt_after_subruns = Some(2);
        run_sweep_service(&matrix, &opts).expect("partial run");
        let journal = journal_path(&dir);
        let bytes = fs::read(&journal).unwrap();
        fs::write(&journal, &bytes[..bytes.len() - 5]).unwrap();
        let first = run_sweep_service(&matrix, &opts).expect("first resume");
        assert_eq!((first.recovered_subruns, first.executed_subruns), (1, 2));
        let second = run_sweep_service(&matrix, &RunnerOptions::new(&dir)).expect("second resume");
        assert!(second.complete);
        assert_eq!(
            second.recovered_subruns, 3,
            "the first resume's records are read"
        );
        assert_eq!(matrix_table("t", &second.cells).to_csv(), reference);

        // a torn header record: the run starts over and its records are read
        fs::write(&journal, &bytes[..10]).unwrap();
        run_sweep_service(&matrix, &opts).expect("run over a torn header");
        let resumed = run_sweep_service(&matrix, &RunnerOptions::new(&dir)).expect("resume");
        assert_eq!(resumed.recovered_subruns, 2);
        assert_eq!(matrix_table("t", &resumed.cells).to_csv(), reference);
        let _ = fs::remove_dir_all(&dir);
    }

    /// FNV-1a-64 of `journal.bin` for `small_matrix(2)` at one thread
    /// without checkpoints (2,053 bytes: header + 16 sub-run records in
    /// cell-major, seed-minor order), captured at the commit before the
    /// service pool became the only pool and re-captured when the fixed
    /// Table I settings left the configuration (each record's
    /// configuration fingerprint hashes its `Debug` text) and when the
    /// records stopped storing the seed and the accepted load. Holds as long as
    /// the record layout, the fingerprinted text, the claim order and every
    /// sub-run's numbers are unchanged.
    const FROZEN_JOURNAL_DIGEST: u64 = 0xE36D_FCA9_2096_1B85;

    #[test]
    fn journal_bytes_match_the_frozen_digest() {
        let dir = tmp_dir("journal_digest");
        let mut opts = RunnerOptions::new(&dir);
        opts.checkpoint_every = 0;
        let outcome = run_sweep_service(&small_matrix(2), &opts).expect("runs");
        assert!(outcome.complete);
        let bytes = fs::read(journal_path(&dir)).unwrap();
        let got = df_engine::codec::fnv1a64(&bytes);
        assert_eq!(
            got, FROZEN_JOURNAL_DIGEST,
            "journal.bin digest {got:#018X} left the frozen reference {FROZEN_JOURNAL_DIGEST:#018X}"
        );
        assert_eq!(JOURNAL_VERSION, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_journal_is_refused_by_version_not_misread() {
        // a v1 sub-run record carried the accepted load first and the seed
        // last (7 f64 + 5 u64); read as v2 it would shift every field by
        // one, so the frame's version check must stop it
        let matrix = small_matrix(1);
        let (_, configs) = matrix.validated_cells().expect("valid matrix");
        let mut header = Encoder::new();
        header.u8(RECORD_HEADER);
        header.u64(matrix_fingerprint(1, &configs));
        header.u64(configs.len() as u64);
        header.u64(1);
        let mut record = Encoder::new();
        record.u8(RECORD_SUBRUN);
        record.usize(0);
        record.u64(0);
        [0.25, 30.0, 1.0, 60.0, 3.0, 0.0, 0.0]
            .into_iter()
            .for_each(|x| record.f64(x));
        [500, 0, 0, 520, 17].into_iter().for_each(|n| record.u64(n));
        let dir = tmp_dir("v1_journal");
        fs::create_dir_all(&dir).unwrap();
        let v1 = [header, record]
            .map(|e| e.finish_frame(JOURNAL_MAGIC, 1))
            .concat();
        fs::write(journal_path(&dir), &v1).unwrap();
        let err = run_sweep_service(&matrix, &RunnerOptions::new(&dir)).unwrap_err();
        assert!(
            err.contains("journal has format version 1")
                && err.contains("reads version 2")
                && err.contains("remove the run directory")
                && !err.contains("corrupt"),
            "the refusal names both versions and the remedy: {err}"
        );
        assert_eq!(
            fs::read(journal_path(&dir)).unwrap(),
            v1,
            "nothing appended"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn service_is_identical_across_thread_budgets() {
        // each of the budget's threads abandons its first sub-run at cycle
        // 100 and leaves the snapshot behind, so the snapshots count the
        // sub-runs that ran at once; the resumed table is run_matrix's
        let matrix = small_matrix(1);
        let plain = matrix_table("t", &run_matrix(&matrix, 2)).to_csv();
        for budget in [1, 3, 12] {
            let dir = tmp_dir(&format!("budget{budget}"));
            let mut opts = RunnerOptions::new(&dir);
            opts.threads = budget;
            opts.checkpoint_every = 100;
            opts.interrupt_mid_subrun_at = Some(100);
            assert!(!run_sweep_service(&matrix, &opts).expect("partial").complete);
            let at_once = fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
                .count();
            assert!(
                (1..=budget).contains(&at_once),
                "budget {budget} ran {at_once} sub-runs at once"
            );
            opts.interrupt_mid_subrun_at = None;
            let outcome = run_sweep_service(&matrix, &opts).expect("resumes");
            assert!(outcome.complete);
            assert_eq!(
                matrix_table("t", &outcome.cells).to_csv(),
                plain,
                "budget {budget} must reproduce run_matrix's table"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
