//! The host-speed probe.
//!
//! The reference host is a shared VM whose speed drifts by ±10–20% over tens
//! of seconds, so raw host times of one 25 s run are not comparable with the
//! next run's. This kernel is interleaved with the cells; a round's times
//! are divided by the speed it measured next to them. It is deliberately
//! **not** repo code — it lives here, calls nothing in `crates/*`, and must
//! never change, or every number measured before the change is void. It
//! mimics what a simulator step does to the machine: data-dependent
//! branches and queue pushes/pops scattered over ~10 MB (its window medians
//! correlate 0.96 with the simulator's on the reference host; a pure-ALU
//! loop reaches 0.7).
//!
//! The probe runs in a **process of its own** (`df-benchmark --probe`, started
//! once per run and fed one line per slice), so its memory is not part of the
//! workload's `peak_rss_mb` and shares neither heap nor allocator state with
//! the code under test. Every slice starts from the same state and so does
//! the same operations, however many rounds came before it.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Operations per slice.
const OPS_PER_SLICE: u64 = 1_000_000;

/// The unit host times are reported in: seconds of a host on which one slice
/// takes this long. It is the reference host's usual slice time (NOISE.md),
/// so calibrated and raw seconds agree there; it cancels out of every
/// comparison between two commits and carries no measurement.
pub const REFERENCE_SLICE_S: f64 = 0.032;

/// The probe's state; lives in the probe process only.
struct Probe {
    queues: Vec<VecDeque<u64>>,
}

impl Probe {
    fn new() -> Self {
        Probe {
            queues: (0..65_536).map(|_| VecDeque::with_capacity(16)).collect(),
        }
    }

    /// Run one slice from the initial state; returns the host seconds it took.
    fn slice(&mut self) -> f64 {
        for queue in &mut self.queues {
            queue.clear();
        }
        let mut state: u64 = 999;
        let mut sink: u64 = 0;
        let len = self.queues.len();
        let start = Instant::now();
        for _ in 0..OPS_PER_SLICE {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let from = state as usize % len;
            let to = (state >> 32) as usize % len;
            match self.queues[from].pop_front() {
                Some(v) if v & 1 == 0 || self.queues[to].len() < 16 => {
                    self.queues[to].push_back(v.wrapping_add(state));
                }
                Some(v) => sink = sink.wrapping_add(v),
                None => self.queues[from].push_back(state),
            }
        }
        std::hint::black_box(sink);
        start.elapsed().as_secs_f64()
    }
}

/// `df-benchmark --probe`: one slice per line read from standard input, its
/// host seconds written back; ends when the input does.
pub fn probe_main() {
    let mut probe = Probe::new();
    probe.slice(); // touch every page before the first timed slice
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        if line.is_err() {
            break;
        }
        let seconds = probe.slice();
        if writeln!(stdout, "{seconds}")
            .and_then(|()| stdout.flush())
            .is_err()
        {
            break;
        }
    }
}

/// The handle a run holds on its probe process.
pub struct Calibrator {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Calibrator {
    pub fn spawn() -> Self {
        let mut child = Command::new(std::env::current_exe().expect("own path is known"))
            .arg("--probe")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("the probe process starts");
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("probe stdout is piped"));
        Calibrator {
            child,
            stdin,
            stdout,
        }
    }

    /// Run one slice in the probe process (this one waits meanwhile);
    /// returns the host seconds the probe measured for it.
    pub fn slice(&mut self) -> f64 {
        let stdin = self.stdin.as_mut().expect("probe stdin is open");
        stdin
            .write_all(b"\n")
            .and_then(|()| stdin.flush())
            .expect("the probe process takes requests");
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .expect("the probe process answers");
        line.trim().parse().expect("the probe answers in seconds")
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        // end of input ends the probe; wait until it has
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}
