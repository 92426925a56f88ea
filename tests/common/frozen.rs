//! References for the checks that used to run a second simulator.
//!
//! Until PR 12 the seed kernel (binary-heap event queue, full scan of every
//! router every cycle, no drain fast-forward) ran next to the optimized one
//! in these suites, and every comparison between them was an equality. The
//! seed kernel is gone; two things stand in for it:
//!
//! * **Frozen digests** — the fingerprints the seed kernel produced at the
//!   last commit that had it, pinned as FNV-1a-64 digests of their `Debug`
//!   rendering ([`assert_frozen`]). A digest mismatch means simulation
//!   semantics changed: if that is intended, re-pin the digest printed in
//!   the failure message in the same commit and say so in the PR.
//! * **A plain step loop** — [`drain_by_stepping`] is `Network::drain`
//!   without its clock fast-forward, which is what the seed kernel
//!   independently proved correct.

use contention_dragonfly::engine::codec::fnv1a64;
use contention_dragonfly::prelude::*;
use std::fmt::Debug;

/// Assert that `fingerprint` still digests (FNV-1a-64 of its `Debug`
/// rendering) to the value frozen from the seed kernel's run of the same
/// cell.
pub fn assert_frozen<T: Debug>(what: &str, fingerprint: &T, frozen: u64) {
    let got = fnv1a64(format!("{fingerprint:?}").as_bytes());
    assert_eq!(
        got, frozen,
        "{what}: digest {got:#018X} left the frozen reference {frozen:#018X}"
    );
}

/// [`assert_frozen`] over a table: one digest per fingerprint, in order.
pub fn assert_all_frozen<T: Debug>(what: &str, fingerprints: &[(String, T)], frozen: &[u64]) {
    assert_eq!(
        fingerprints.len(),
        frozen.len(),
        "{what}: one frozen digest per cell"
    );
    for ((cell, fingerprint), &frozen) in fingerprints.iter().zip(frozen) {
        assert_frozen(&format!("{what}: {cell}"), fingerprint, frozen);
    }
}

/// `Network::drain` cycle by cycle: the same stop condition and budget, but
/// every cycle is a real `step()` — the clock never jumps. Unlike `drain`
/// this cannot switch generation off, so the configuration must do it with
/// a load-0 schedule phase starting at the cycle the drain starts.
pub fn drain_by_stepping(net: &mut Network, max_cycles: u64) -> bool {
    let topo = *net.topology();
    let empty =
        |net: &Network| net.in_flight() == 0 && topo.nodes().all(|n| net.node(n).queue_len() == 0);
    let deadline = net.cycle() + max_cycles;
    while net.cycle() < deadline {
        if empty(net) {
            return true;
        }
        net.step();
    }
    empty(net)
}

/// `cfg` with generation switched off from the end of its measurement
/// window on (what [`drain_by_stepping`] needs): a trailing load-0 phase.
pub fn silenced_after_measurement(mut cfg: SimulationConfig) -> SimulationConfig {
    let mut phases = cfg.schedule.phases().to_vec();
    phases.push(contention_dragonfly::traffic::PatternPhase {
        start: cfg.total_cycles(),
        pattern: PatternKind::Uniform,
        load: Some(0.0),
    });
    cfg.schedule = TrafficSchedule::from_phases(phases);
    cfg.validate()
        .expect("silencing keeps the configuration valid");
    cfg
}
