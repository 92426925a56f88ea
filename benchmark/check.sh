#!/bin/bash
# Smoke-check the benchmark (<20 s after the build):
#  * BENCHMARK.json is exactly the table declared in src/manifest.rs;
#  * the smoke suite passes: same code paths at small sizes, every declared
#    metric printed once per workload with a finite value, names and counts
#    within the BENCHMARK.json limits, no failed cell, and two traced runs
#    of the same seed agreeing on every simulated count and on result_hash.
set -euo pipefail
cd "$(dirname "$0")/.."
run() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
run --manifest | diff - BENCHMARK.json
run --smoke "$@"
