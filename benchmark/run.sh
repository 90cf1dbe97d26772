#!/usr/bin/env bash
# The one command: builds the benchmark (offline, release) and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run; last line is JSON
#   benchmark/run.sh --seed N [--workload W]... [--trace] [--runs K] [--out FILE]
#   benchmark/run.sh compare A.json B.json
#
# Runs from the repository root so results land in benchmark/results/
# and a relative CARGO_TARGET_DIR resolves there.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin gm-benchmark 1>&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/gm-benchmark" "$@"
