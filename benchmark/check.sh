#!/usr/bin/env bash
# The benchmark's own gate: format, lints, self-tests, and a smoke pass
# of all five workloads (12 measured slices each, every invariant check
# still runs) plus one traced smoke run. Offline; about a minute.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"

for pkg in "$here" "$here/counts"; do
  echo "==> $pkg: fmt, clippy, test"
  cargo fmt --manifest-path "$pkg/Cargo.toml" -- --check
  cargo clippy --offline --release --all-targets --manifest-path "$pkg/Cargo.toml" -- -D warnings
  cargo test --offline --release --quiet --manifest-path "$pkg/Cargo.toml"
done

for w in bank-transfer scan-audit hashtable-hot bank-durable ir-kernels; do
  echo "==> smoke $w"
  bash "$here/run.sh" --workload "$w" --seed 7 --smoke --trace 0 2>/dev/null | tail -n 1 | grep -q '"correct": true, '
done
echo "==> smoke bank-durable, traced"
bash "$here/run.sh" --workload bank-durable --seed 7 --smoke --trace 1 2>/dev/null | tail -n 1 | grep -q '"correct": true, '
python3 -c "import json, sys; json.load(open(sys.argv[1]))" "$here/out/trace-bank-durable.json"
echo "benchmark check: ok"
