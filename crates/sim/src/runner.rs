//! The crash-recoverable sweep service: a scenario matrix executed as a
//! journaled work queue of `(cell, seed)` sub-runs with periodic state
//! snapshots, so a killed sweep resumes where it stopped and still produces
//! a results table **byte-identical** to an uninterrupted run.
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
//!   detected by the per-record checksum and ignored.
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
//! bits), never through text, so recovery cannot introduce rounding drift.

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
use crate::sweep::{MatrixCell, ScenarioMatrix};
use crate::telemetry::StreamingTelemetry;

/// Journal frame magic.
pub const JOURNAL_MAGIC: [u8; 8] = *b"DFSWPJNL";
/// Journal format version.
pub const JOURNAL_VERSION: u32 = 1;

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
    /// Worker threads pulling sub-runs off the queue.
    pub threads: usize,
    /// Stream per-window telemetry of every sub-run to stderr with this
    /// window width (None = quiet). Observation only — results are
    /// bit-identical either way.
    pub stream_window: Option<u64>,
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
    /// worker, no streaming, no interruption hooks.
    pub fn new(run_dir: impl Into<PathBuf>) -> Self {
        RunnerOptions {
            run_dir: run_dir.into(),
            checkpoint_every: 2_000,
            threads: 1,
            stream_window: None,
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

/// The measured (seed-dependent) part of a [`SteadyStateReport`] — what the
/// journal persists. Identification fields (routing, pattern, offered load)
/// are regenerated from the matrix on recovery.
#[derive(Debug, Clone, Copy)]
struct MeasuredNumbers {
    accepted_load: f64,
    avg_packet_latency: f64,
    latency_ci95: f64,
    p99_latency: f64,
    avg_hops: f64,
    global_misroute_fraction: f64,
    local_misroute_fraction: f64,
    delivered_packets: u64,
    dropped_on_fault_packets: u64,
    retargeted_packets: u64,
    injected_packets: u64,
    seed: u64,
}

impl MeasuredNumbers {
    fn of(report: &SteadyStateReport) -> Self {
        MeasuredNumbers {
            accepted_load: report.accepted_load,
            avg_packet_latency: report.avg_packet_latency,
            latency_ci95: report.latency_ci95,
            p99_latency: report.p99_latency,
            avg_hops: report.avg_hops,
            global_misroute_fraction: report.global_misroute_fraction,
            local_misroute_fraction: report.local_misroute_fraction,
            delivered_packets: report.delivered_packets,
            dropped_on_fault_packets: report.dropped_on_fault_packets,
            retargeted_packets: report.retargeted_packets,
            injected_packets: report.injected_packets,
            seed: report.seed,
        }
    }

    fn into_report(self, config: &SimulationConfig) -> SteadyStateReport {
        SteadyStateReport {
            routing: config.routing,
            pattern: config.schedule.phases()[0].pattern,
            offered_load: config.offered_load,
            accepted_load: self.accepted_load,
            avg_packet_latency: self.avg_packet_latency,
            latency_ci95: self.latency_ci95,
            p99_latency: self.p99_latency,
            avg_hops: self.avg_hops,
            global_misroute_fraction: self.global_misroute_fraction,
            local_misroute_fraction: self.local_misroute_fraction,
            delivered_packets: self.delivered_packets,
            dropped_on_fault_packets: self.dropped_on_fault_packets,
            retargeted_packets: self.retargeted_packets,
            injected_packets: self.injected_packets,
            seed: self.seed,
        }
    }

    fn encode(&self, e: &mut Encoder) {
        e.f64(self.accepted_load);
        e.f64(self.avg_packet_latency);
        e.f64(self.latency_ci95);
        e.f64(self.p99_latency);
        e.f64(self.avg_hops);
        e.f64(self.global_misroute_fraction);
        e.f64(self.local_misroute_fraction);
        e.u64(self.delivered_packets);
        e.u64(self.dropped_on_fault_packets);
        e.u64(self.retargeted_packets);
        e.u64(self.injected_packets);
        e.u64(self.seed);
    }

    fn decode(d: &mut Decoder) -> Result<Self, CodecError> {
        Ok(MeasuredNumbers {
            accepted_load: d.f64()?,
            avg_packet_latency: d.f64()?,
            latency_ci95: d.f64()?,
            p99_latency: d.f64()?,
            avg_hops: d.f64()?,
            global_misroute_fraction: d.f64()?,
            local_misroute_fraction: d.f64()?,
            delivered_packets: d.u64()?,
            dropped_on_fault_packets: d.u64()?,
            retargeted_packets: d.u64()?,
            injected_packets: d.u64()?,
            seed: d.u64()?,
        })
    }
}

/// Fingerprint binding a run directory to one matrix: hashes every cell's
/// kernel-normalised configuration fingerprint plus the seeds-per-cell
/// count, in cell order.
pub fn matrix_fingerprint(matrix: &ScenarioMatrix) -> u64 {
    let mut e = Encoder::new();
    e.u64(matrix.seeds_per_cell);
    let cells = matrix.cells();
    e.usize(cells.len());
    for (_, config) in &cells {
        e.u64(config_fingerprint(config));
    }
    df_engine::codec::fnv1a64(&e.into_bytes())
}

fn journal_path(run_dir: &Path) -> PathBuf {
    run_dir.join("journal.bin")
}

fn snapshot_path(run_dir: &Path, cell: usize, seed_idx: u64) -> PathBuf {
    run_dir.join(format!("cell{cell}_s{seed_idx}.snap"))
}

/// Append one framed record and flush it to disk.
fn append_record(file: &Mutex<File>, payload: Encoder) -> Result<(), String> {
    let bytes = payload.finish_frame(JOURNAL_MAGIC, JOURNAL_VERSION);
    let mut file = file.lock().map_err(|_| "journal writer poisoned")?;
    file.write_all(&bytes)
        .and_then(|()| file.sync_data())
        .map_err(|e| format!("journal append failed: {e}"))
}

/// Split a journal file into frames and decode them; stops silently at a
/// torn or corrupt tail (the crash case), erroring only on a malformed
/// prefix.
/// Parsed journal header: `(matrix fingerprint, cell count, seeds per cell)`.
type JournalHeader = (u64, u64, u64);
/// Recovered sub-run results, keyed by `(cell index, seed index)`.
type RecoveredSubruns = HashMap<(usize, u64), MeasuredNumbers>;

fn read_journal(bytes: &[u8]) -> Result<(Option<JournalHeader>, RecoveredSubruns), String> {
    let mut header = None;
    let mut done = HashMap::new();
    let mut off = 0usize;
    while off < bytes.len() {
        // frame = magic(8) version(4) payload_len(8) payload checksum(8)
        let Some(rest) = bytes.get(off..) else { break };
        if rest.len() < 28 {
            break; // torn tail
        }
        let len = u64::from_le_bytes(rest[12..20].try_into().expect("8 bytes")) as usize;
        let Some(frame) = rest.get(..28 + len) else {
            break; // torn tail
        };
        let mut d = match Decoder::open_frame(frame, JOURNAL_MAGIC, JOURNAL_VERSION) {
            Ok(d) => d,
            Err(CodecError::ChecksumMismatch { .. }) | Err(CodecError::Truncated { .. }) => break,
            Err(e) => return Err(format!("corrupt journal: {e}")),
        };
        let mut parse = |d: &mut Decoder| -> Result<(), CodecError> {
            match d.u8()? {
                RECORD_HEADER => {
                    header = Some((d.u64()?, d.u64()?, d.u64()?));
                }
                RECORD_SUBRUN => {
                    let cell = d.usize()?;
                    let seed_idx = d.u64()?;
                    let numbers = MeasuredNumbers::decode(d)?;
                    done.insert((cell, seed_idx), numbers);
                }
                tag => {
                    return Err(CodecError::Invalid(format!(
                        "unknown journal record tag {tag}"
                    )))
                }
            }
            Ok(())
        };
        parse(&mut d).map_err(|e| format!("corrupt journal record: {e}"))?;
        off += 28 + len;
    }
    Ok((header, done))
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

/// What a sub-run execution ended as.
enum SubRunEnd {
    Finished(SteadyStateReport, Option<u64>),
    /// Abandoned at a checkpoint by `interrupt_mid_subrun_at`.
    Interrupted,
}

/// Execute one `(cell, seed)` sub-run with periodic snapshots, resuming
/// from an existing valid snapshot if the run directory holds one.
/// Reproduces [`SteadyStateExperiment::run`] exactly: warm up, open the
/// window, measure — chunked stepping and snapshot writes never perturb the
/// simulation.
///
/// [`SteadyStateExperiment::run`]: crate::experiment::SteadyStateExperiment::run
fn run_subrun(
    config: &SimulationConfig,
    snap_path: &Path,
    options: &RunnerOptions,
    label: &str,
) -> Result<SubRunEnd, String> {
    let warmup = config.warmup_cycles;
    let total = config.total_cycles();
    let mut resumed_at = None;

    let mut net = match fs::read(snap_path) {
        Ok(bytes) => match Network::restore(config.clone(), &bytes) {
            Ok(net) => {
                resumed_at = Some(net.cycle());
                net
            }
            Err(e) => {
                // stale or damaged checkpoint: discard and start over
                eprintln!(
                    "sweep: discarding unusable snapshot {}: {e}",
                    snap_path.display()
                );
                let _ = fs::remove_file(snap_path);
                Network::new(config.clone())
            }
        },
        Err(_) => Network::new(config.clone()),
    };

    let mut telemetry = options
        .stream_window
        .map(|w| StreamingTelemetry::new(&net, w));

    loop {
        if net.cycle() == warmup && !net.metrics().measuring() {
            let start = net.cycle();
            net.metrics_mut().start_measurement(start);
        }
        if net.cycle() >= total {
            break;
        }
        let next_checkpoint = match options.checkpoint_every {
            0 => u64::MAX,
            every => (net.cycle() / every + 1) * every,
        };
        let next_window = telemetry
            .as_ref()
            .map(|t| {
                let w = t.window_cycles();
                (net.cycle() / w + 1) * w
            })
            .unwrap_or(u64::MAX);
        let phase_end = if net.cycle() < warmup { warmup } else { total };
        let target = next_checkpoint.min(next_window).min(phase_end);
        net.run_cycles(target - net.cycle());

        if let Some(t) = telemetry.as_mut() {
            if net.cycle() == next_window {
                eprintln!("sweep[{label}]: {}", t.close_window(&net).log_line());
            }
        }
        if net.cycle() == next_checkpoint && net.cycle() < total {
            // open the window first if the checkpoint sits exactly on the
            // warm-up boundary, so the snapshot carries the decision
            if net.cycle() == warmup && !net.metrics().measuring() {
                let start = net.cycle();
                net.metrics_mut().start_measurement(start);
            }
            write_atomic(snap_path, &net.snapshot())?;
            if let Some(stop_at) = options.interrupt_mid_subrun_at {
                if net.cycle() >= stop_at {
                    return Ok(SubRunEnd::Interrupted);
                }
            }
        }
    }

    Ok(SubRunEnd::Finished(
        SteadyStateReport::measure(&net),
        resumed_at,
    ))
}

/// Run (or resume) a scenario matrix as a crash-recoverable service over
/// `options.run_dir`. See the module documentation for the directory
/// protocol. Returns the full cell table when the matrix completed, or a
/// partial [`SweepOutcome`] when an interruption hook stopped it.
pub fn run_sweep_service(
    matrix: &ScenarioMatrix,
    options: &RunnerOptions,
) -> Result<SweepOutcome, String> {
    if matrix.scenarios.is_empty() || matrix.loads.is_empty() || matrix.routings.is_empty() {
        return Err("a scenario matrix needs at least one scenario, load and routing".into());
    }
    if matrix.seeds_per_cell == 0 {
        return Err("seeds_per_cell must be at least 1".into());
    }
    let cells = matrix.validated_cells()?;
    fs::create_dir_all(&options.run_dir)
        .map_err(|e| format!("cannot create run dir {}: {e}", options.run_dir.display()))?;
    let fingerprint = matrix_fingerprint(matrix);
    let subruns_total = cells.len() * matrix.seeds_per_cell as usize;

    // ---- recover the journal ----
    let journal = journal_path(&options.run_dir);
    let mut recovered = HashMap::new();
    let mut need_header = true;
    if let Ok(bytes) = fs::read(&journal) {
        let (header, done) = read_journal(&bytes)?;
        if let Some((fp, num_cells, seeds)) = header {
            if fp != fingerprint
                || num_cells != cells.len() as u64
                || seeds != matrix.seeds_per_cell
            {
                return Err(format!(
                    "run dir {} belongs to a different matrix (journal fingerprint \
                     {fp:#018x}, this matrix {fingerprint:#018x})",
                    options.run_dir.display()
                ));
            }
            need_header = false;
            recovered = done;
        }
        // a journal whose header record itself was torn is treated as empty
    }
    let journal_file = Mutex::new(
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal)
            .map_err(|e| format!("cannot open journal {}: {e}", journal.display()))?,
    );
    if need_header {
        let mut e = Encoder::new();
        e.u8(RECORD_HEADER);
        e.u64(fingerprint);
        e.u64(cells.len() as u64);
        e.u64(matrix.seeds_per_cell);
        append_record(&journal_file, e)?;
    }

    // ---- build the work queue: every sub-run not in the journal ----
    let mut pending: Vec<(usize, u64)> = Vec::new();
    for cell in 0..cells.len() {
        for seed_idx in 0..matrix.seeds_per_cell {
            if !recovered.contains_key(&(cell, seed_idx)) {
                pending.push((cell, seed_idx));
            }
        }
    }
    let recovered_subruns = recovered.len();

    // ---- execute ----
    let results: Mutex<HashMap<(usize, u64), MeasuredNumbers>> = Mutex::new(recovered);
    let resumed: Mutex<Vec<(usize, u64, u64)>> = Mutex::new(Vec::new());
    let executed = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let first_error: Mutex<Option<String>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..options.threads.max(1).min(pending.len().max(1)) {
            scope.spawn(|| loop {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(cell, seed_idx)) = pending.get(idx) else {
                    break;
                };
                let (key, config) = &cells[cell];
                let mut config = config.clone();
                config.seed += seed_idx; // run_averaged's consecutive seeds
                let snap = snapshot_path(&options.run_dir, cell, seed_idx);
                let label = format!(
                    "{}/{}/{:.2}#{}",
                    key.scenario,
                    key.routing.label(),
                    key.load,
                    seed_idx
                );
                match run_subrun(&config, &snap, options, &label) {
                    Ok(SubRunEnd::Finished(report, resumed_at)) => {
                        let numbers = MeasuredNumbers::of(&report);
                        let mut e = Encoder::new();
                        e.u8(RECORD_SUBRUN);
                        e.usize(cell);
                        e.u64(seed_idx);
                        numbers.encode(&mut e);
                        if let Err(err) = append_record(&journal_file, e) {
                            *first_error.lock().expect("error slot") = Some(err);
                            stop.store(true, Ordering::SeqCst);
                            break;
                        }
                        let _ = fs::remove_file(&snap);
                        if let Some(at) = resumed_at {
                            resumed
                                .lock()
                                .expect("resume log")
                                .push((cell, seed_idx, at));
                        }
                        results
                            .lock()
                            .expect("result map")
                            .insert((cell, seed_idx), numbers);
                        let done = executed.fetch_add(1, Ordering::SeqCst) + 1;
                        if let Some(limit) = options.interrupt_after_subruns {
                            if done >= limit {
                                stop.store(true, Ordering::SeqCst);
                                break;
                            }
                        }
                    }
                    Ok(SubRunEnd::Interrupted) => {
                        stop.store(true, Ordering::SeqCst);
                        break;
                    }
                    Err(err) => {
                        *first_error.lock().expect("error slot") = Some(err);
                        stop.store(true, Ordering::SeqCst);
                        break;
                    }
                }
            });
        }
    });

    if let Some(err) = first_error.into_inner().expect("error slot") {
        return Err(err);
    }

    let results = results.into_inner().expect("result map");
    let executed_subruns = executed.load(Ordering::SeqCst);
    let resumed_from_snapshot = resumed.into_inner().expect("resume log");
    if results.len() < subruns_total {
        return Ok(SweepOutcome {
            complete: false,
            cells: Vec::new(),
            recovered_subruns,
            executed_subruns,
            resumed_from_snapshot,
        });
    }

    // ---- assemble the table in deterministic cell order ----
    let mut out = Vec::with_capacity(cells.len());
    for (cell, (key, config)) in cells.iter().enumerate() {
        let reports: Vec<SteadyStateReport> = (0..matrix.seeds_per_cell)
            .map(|seed_idx| {
                let mut cfg = config.clone();
                cfg.seed += seed_idx;
                results[&(cell, seed_idx)].into_report(&cfg)
            })
            .collect();
        let report = if matrix.seeds_per_cell == 1 {
            reports.into_iter().next().expect("one report")
        } else {
            average_reports(config, &reports)
        };
        out.push(MatrixCell {
            key: key.clone(),
            report,
        });
    }
    Ok(SweepOutcome {
        complete: true,
        cells: out,
        recovered_subruns,
        executed_subruns,
        resumed_from_snapshot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelMode;
    use crate::scenario::Scenario;
    use crate::sweep::{matrix_table, run_matrix};
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
            .kernel(KernelMode::Optimized)
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
        // tear the last record
        let journal = journal_path(&dir);
        let bytes = fs::read(&journal).unwrap();
        fs::write(&journal, &bytes[..bytes.len() - 5]).unwrap();

        let resumed = run_sweep_service(&matrix, &RunnerOptions::new(&dir)).expect("resume");
        assert!(resumed.complete);
        // the torn record's sub-run was re-run, the intact one recovered
        assert_eq!(resumed.recovered_subruns, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
