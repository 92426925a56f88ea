//! References for the checks that used to run a second simulator.
//!
//! Until PR 12 the seed kernel (binary-heap event queue, full scan of every
//! router every cycle) ran next to the optimized one in these suites, and
//! every comparison between them was an equality. The seed kernel is gone;
//! **frozen digests** stand in for it — the fingerprints the seed kernel
//! produced at the last commit that had it, pinned as FNV-1a-64 digests of
//! their `Debug` rendering ([`assert_frozen`]). A digest mismatch means
//! simulation semantics changed: if that is intended, re-pin the digest
//! printed in the failure message in the same commit and say so in the PR.

use contention_dragonfly::engine::codec::fnv1a64;
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
