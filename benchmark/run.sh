#!/usr/bin/env bash
# Build the benchmark (release, offline) and run one workload.
#
#   benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#
# The last line of standard output is the result as one JSON object;
# the exit code is non-zero when a correctness check fails. Works from
# any directory and honours CARGO_TARGET_DIR.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
# The exact schedule-point counts need the library's `shuttle` feature,
# which must never reach the timed binary: a package of its own.
cargo build --release --offline --quiet --manifest-path "$here/counts/Cargo.toml" >&2

exec "${CARGO_TARGET_DIR:-$here/target}/release/semtm-benchmark" \
  --out "$here/out" \
  --counts-bin "${CARGO_TARGET_DIR:-$here/counts/target}/release/semtm-benchmark-counts" \
  "$@"
