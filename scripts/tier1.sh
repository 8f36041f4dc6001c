#!/usr/bin/env bash
# Tier-1 gate: everything here must pass offline (no registry access).
# Mirrors .github/workflows/tier1.yml; run locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

# A hung test must fail the gate, not wedge it: every `cargo test` step
# and the benchmark gate run under `timeout`, at least 3x the step's wall
# time from a cold build on the 2-vCPU reference host (the workflow's
# `timeout-minutes` mirror these).

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
timeout 600 cargo test -q --workspace

echo "==> release-mode engine tests (semtm-core --lib, alloc_free, opacity, concurrency_stress)"
# The barriers are force-inlined fast paths with cold out-of-line tails
# (DESIGN.md §8.2): a debug build never gives them the shape that ships,
# so the engines' unit tests and the allocator-call pins run once more
# on the optimised code.
timeout 300 cargo test --release -q -p semtm-core --lib
timeout 300 cargo test --release -q --test alloc_free
# Write-back and the clock, shard and orec releases are `Release` stores
# (DESIGN.md §8.5): a weaker ordering is what the optimiser may exploit,
# so the real-thread opacity and publication tests run on optimised code
# too.
timeout 300 cargo test --release -q --test opacity --test concurrency_stress

echo "==> schedule-exploration smoke (semtm-check)"
# Bounded deterministic exploration: exhaustive DFS over the scheduler's
# fault-injection scenarios plus the cross-backend differential fuzzer.
# SEMTM_CHECK_ITERS bounds the fuzz budget (default 1000 programs x 4
# algorithms, a few seconds); raise it for soak runs outside this gate.
# Includes the false-conflict census (tests/census.rs): its pinned
# schedule and abort counts build one-shard runtimes and no switcher,
# so they hold unchanged in this pass and the two re-runs below.
SEMTM_CHECK_ITERS="${SEMTM_CHECK_ITERS:-1000}" timeout 300 cargo test -q -p semtm-check

echo "==> sharded-clock re-run (semtm-check, SEMTM_CLOCK_SHARDS=4)"
# The whole deterministic suite again with the sharded commit clock
# selected for every NOrec-family backend (DESIGN.md §8): DFS
# exploration, opacity checking and the differential fuzzer all drive
# the multi-shard acquire/epoch/write-back protocol. Smaller fuzz
# budget — the first run already soaked the global-clock engines. The
# census keeps its one-shard counts here.
SEMTM_CLOCK_SHARDS=4 SEMTM_CHECK_ITERS="${SEMTM_SHARDED_ITERS:-200}" \
  timeout 300 cargo test -q -p semtm-check

echo "==> sharded-clock re-run at the benchmark's shard count (SEMTM_CLOCK_SHARDS=16)"
# Four shards over the check runtimes' small heaps make lines alias; at
# 16 — the benchmark's `scnorec` cell — every line has a shard of its
# own, so a commit that mixes shards it read under (CAS from the
# snapshot) with shards it never sampled (blind acquisition) is the
# common case. The three files that drive multi-cell programs, short.
SEMTM_CLOCK_SHARDS=16 SEMTM_CHECK_ITERS=100 \
  timeout 300 cargo test -q -p semtm-check \
  --test fuzz_differential --test sharded_clock --test structures

echo "==> adaptive hot-swap re-run (semtm-check, SEMTM_ADAPTIVE=1)"
# The deterministic suite once more with a mode-switcher thread injected
# into every fuzzed program (crates/check/src/fuzz.rs): each execution
# hot-swaps engine families twice mid-run, so opacity checking and the
# cross-backend differential oracle cover transactions that overlap
# ModeMachine drain/publish epochs (DESIGN.md §10). Smaller budget —
# the fixed-mode runs above already soaked the engines themselves. The
# census adds no switcher and keeps its counts here.
SEMTM_ADAPTIVE=1 SEMTM_CHECK_ITERS="${SEMTM_ADAPTIVE_ITERS:-200}" \
  timeout 300 cargo test -q -p semtm-check

echo "==> crash-recovery matrix (kill-at-any-schedule-point sweep)"
# Every engine (incl. the sharded-clock S-NOrec) x {bank, slots} kernel:
# random schedules where *each* schedule point doubles as a crash point;
# every sampled storage state is recovered under three tail policies and
# checked for prefix durability (no acked commit lost) and atomicity (no
# partial transaction visible). SEMTM_CRASH_SEEDS scales the sweep for
# soak runs. Writes results/check/crash_matrix.csv.
SEMTM_CRASH_SEEDS="${SEMTM_CRASH_SEEDS:-4}" \
  timeout 120 cargo test -q -p semtm-check --test crash_matrix
grep -q "S-NOrec,4,slots" results/check/crash_matrix.csv

echo "==> trace-export smoke (figures -- trace)"
# Tiny skewed-Bank sweep under the flight recorder; the harness
# schema-validates its own Chrome trace JSON (one track and at least one
# complete span per worker) and exits non-zero on any violation.
cargo run --release -q -p semtm-bench --bin figures -- --smoke trace

echo "==> layout/clock ablation smoke (figures -- ablation-layout)"
# Smoke-scale A5 sweep (all four {clock}x{layout} variants on Bank +
# contended hashtable). Runs in a scratch dir so the checked-in
# paper-scale results/ablation_layout.csv is never clobbered; the
# smoke CSV lands under results/check/ (gitignored, uploaded by CI).
root="$PWD"
tmp="$(mktemp -d)"
(cd "$tmp" && cargo run --release -q --manifest-path "$root/Cargo.toml" \
  -p semtm-bench --bin figures -- --smoke ablation-layout)
mkdir -p results/check
cp "$tmp/results/ablation_layout.csv" results/check/ablation_layout_smoke.csv
rm -rf "$tmp"
grep -q "sharded+padded" results/check/ablation_layout_smoke.csv

echo "==> durability ablation smoke (figures -- ablation-durability)"
# Smoke-scale A6 sweep ({no-wal, per-commit fsync, group commit} on
# Bank, plus recovery-replay throughput). Same scratch-dir pattern as
# A5; the smoke CSV lands under results/check/ for CI upload.
tmp="$(mktemp -d)"
(cd "$tmp" && cargo run --release -q --manifest-path "$root/Cargo.toml" \
  -p semtm-bench --bin figures -- --smoke ablation-durability)
cp "$tmp/results/ablation_durability.csv" results/check/ablation_durability_smoke.csv
rm -rf "$tmp"
grep -q "wal-group" results/check/ablation_durability_smoke.csv
grep -q "recovery" results/check/ablation_durability_smoke.csv

echo "==> adaptive ablation smoke (figures -- ablation-adaptive)"
# Smoke-scale A7 gauntlet (Bank -> hot Hashtable -> Scan under the
# three fixed engines plus the adaptive runtime, invariants verified
# across every hot-swap). Scratch-dir pattern as above; the smoke CSV
# lands under results/check/ for CI upload, the checked-in paper-scale
# results/ablation_adaptive.csv is regenerated by
# `figures -- ablation-adaptive`.
tmp="$(mktemp -d)"
(cd "$tmp" && cargo run --release -q --manifest-path "$root/Cargo.toml" \
  -p semtm-bench --bin figures -- --smoke ablation-adaptive)
cp "$tmp/results/ablation_adaptive.csv" results/check/ablation_adaptive_smoke.csv
rm -rf "$tmp"
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
# passes fold are downgraded to info), and the oracle must agree on
# every backend.
cargo run --release -q -p semtm-ir --bin semlint -- --deny warnings --oracle programs/*.ir

echo "==> semlint seeded-defect fixtures + SARIF artifact"
# Each programs/lintcases/*.ir seeds exactly one SL rule (exact
# per-rule counts are asserted by crates/ir/tests/lintcases.rs), so
# semlint over the combined set MUST fail — while writing the SARIF
# report that CI uploads as an artifact.
mkdir -p results
if cargo run --release -q -p semtm-ir --bin semlint -- \
    --format sarif --output results/semlint.sarif \
    programs/*.ir programs/lintcases/*.ir; then
  echo "tier1: semlint missed the seeded defects in programs/lintcases" >&2
  exit 1
fi
test -s results/semlint.sarif

echo "tier1: OK"
