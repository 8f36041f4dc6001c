#!/usr/bin/env bash
# Tier-1 gate: everything here must pass offline (no registry access).
# CI runs this script as is; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

# A hung test must fail the gate, not wedge it: every `cargo test` step
# and the benchmark gate run under `timeout`, at least 3x the step's wall
# time from a cold build on the 2-vCPU reference host.

echo "==> the root package links semtm-core without the schedule hooks"
# `semtm-check` turns on `semtm-core/shuttle`; as a dependency of the
# root package it would compile the hooks (and the fault gates they
# answer) into every example and test there, including the release-mode
# steps below that stand for the shipped code shape. Its users live in
# crates/check.
hooks="$(cargo tree --offline -p semtm -e features -i semtm-core \
  | grep -F 'feature "shuttle"' || true)"
if [ -n "$hooks" ]; then
  echo "tier1: the root package builds semtm-core with the schedule hooks:" >&2
  echo "$hooks" >&2
  exit 1
fi

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
# Includes the whole deterministic check suite (semtm-check): exhaustive
# DFS over the scheduler's scenarios, the cross-backend differential
# fuzzer, the false-conflict census and the kill-at-any-schedule-point
# crash matrix. Each check test runs its own list of rows — commit-clock
# shard count (1, 4, and 16 where multi-cell programs run), hot-swap
# switcher thread, budget — so this one step gates the sharded clock
# and engine hot-swap too. SEMTM_CHECK_ITERS sets every fuzz row's
# program count and SEMTM_CRASH_SEEDS the crash sweep's executions per
# cell, for soak runs outside this gate. The crash matrix writes
# results/check/crash_matrix.csv, sharded cell included.
timeout 600 cargo test -q --workspace
grep -q "S-NOrec,4,slots" results/check/crash_matrix.csv

echo "==> release-mode engine tests (semtm-core --lib, alloc_free, heap_footprint, opacity, concurrency_stress, thread_records)"
# The barriers are force-inlined fast paths with cold out-of-line tails
# (DESIGN.md §8.2): a debug build never gives them the shape that ships,
# so the engines' unit tests and the allocator-call pins run once more
# on the optimised code.
timeout 300 cargo test --release -q -p semtm-core --lib
timeout 300 cargo test --release -q --test alloc_free
# A heap costs only the words it touches: its array is one zeroed block
# the allocator serves with a fresh mapping, which only the optimised
# build asks for as one `alloc_zeroed` (a debug build ignores the test).
timeout 300 cargo test --release -q --test heap_footprint
# Write-back and the clock, shard and orec releases are `Release` stores
# (DESIGN.md §8.5): a weaker ordering is what the optimiser may exploit,
# so the real-thread opacity and publication tests run on optimised code
# too. So do the exact-count tests of the attempt records, whose counters
# and `exit` are plain stores of the one thread holding the lease.
timeout 300 cargo test --release -q --test opacity --test concurrency_stress --test thread_records

echo "==> figures smokes: trace export, ablations A5, A6, A7"
# One smoke-scale run in a scratch dir, so the checked-in paper-scale
# results/ are never rewritten; each artifact lands under results/check/
# (gitignored, uploaded by CI) as *_smoke.*. `trace` schema-validates its
# own Chrome trace JSON (one track and at least one complete span per
# worker) and exits non-zero on any violation. A5 runs the four
# {clock}x{layout} variants on Bank + contended hashtable; A6 {no-wal,
# per-commit fsync, group commit} on Bank plus recovery-replay
# throughput; A7 the Bank -> hot Hashtable -> Scan gauntlet under the
# three fixed engines and the adaptive runtime, invariants verified
# across every hot-swap.
root="$PWD"
tmp="$(mktemp -d)"
(cd "$tmp" && cargo run --release -q --manifest-path "$root/Cargo.toml" -p semtm-bench \
  --bin figures -- --smoke trace ablation-layout ablation-durability ablation-adaptive)
mkdir -p results/check
cp "$tmp/results/trace_bank.json" results/check/trace_bank_smoke.json
for f in ablation_layout ablation_durability ablation_adaptive; do
  cp "$tmp/results/$f.csv" "results/check/${f}_smoke.csv"
done
rm -rf "$tmp"
grep -q "sharded+padded" results/check/ablation_layout_smoke.csv
grep -q "wal-group" results/check/ablation_durability_smoke.csv
grep -q "recovery" results/check/ablation_durability_smoke.csv
grep -q "adaptive" results/check/ablation_adaptive_smoke.csv
grep -q "switches" results/check/ablation_adaptive_smoke.csv

echo "==> interpreter-tax smoke (examples/ir_tax -- --smoke)"
# The three shipped kernels, compiled and lowered, next to the same
# regions hand-written over `Tx` (300 calls each): the two sides must
# return the same values, leave the same heap and issue the same barrier
# mix (reads, writes, cmps, cmp pairs, incs, promotes in `Stm::stats()`),
# so a fused op that calls a barrier the hand-written code does not
# fails here. No timing assertion; without `--smoke` it prints the
# ns-per-region ratio (DESIGN.md §8.3).
timeout 120 cargo run --release -q --example ir_tax -- --smoke

echo "==> benchmark workspace gate (benchmark/check.sh)"
# benchmark/ is a Cargo workspace of its own that the root build never
# sees, yet it compiles against semtm-core's public surface: its fmt,
# clippy, self-tests and a smoke pass of every workload (all invariant
# checks on) keep an API change here from breaking it silently.
timeout 600 bash benchmark/check.sh

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
# Intra-doc links must resolve: to public items only, and to one item
# (`lower`, `verify` and `cfg` each name a function or macro and a module).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> semlint (checked-in IR programs + differential oracle)"
# The shipping kernels must be warning-clean (duplicate loads the
# passes fold are downgraded to info), and every form of every kernel
# must end as its row in crates/ir/src/programs.rs pins, on every
# backend. The oracle's lines (barrier counts, pass report and calls per
# kernel) must match the checked-in results/oracle.txt byte for byte: a
# change that moves one commits the regenerated file with it.
mkdir -p results
semlint_out="$(cargo run --release -q -p semtm-ir --bin semlint -- \
  --deny warnings --oracle programs/*.ir)"
printf '%s\n' "$semlint_out"
printf '%s\n' "$semlint_out" | grep '^oracle:' > results/oracle.txt
git diff --exit-code -- results/oracle.txt

echo "==> semlint seeded-defect fixtures + SARIF artifact"
# Each programs/lintcases/*.ir seeds exactly one SL rule (exact
# per-rule counts are asserted by crates/ir/tests/lintcases.rs), so
# semlint over the combined set MUST fail — while writing the SARIF
# report that CI uploads as an artifact. The report must match the
# checked-in copy byte for byte: a change to any rule's findings,
# message, severity or span shows up here and is committed with the
# change that makes it.
if cargo run --release -q -p semtm-ir --bin semlint -- \
    --format sarif --output results/semlint.sarif \
    programs/*.ir programs/lintcases/*.ir; then
  echo "tier1: semlint missed the seeded defects in programs/lintcases" >&2
  exit 1
fi
git diff --exit-code -- results/semlint.sarif

echo "tier1: OK"
