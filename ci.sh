#!/usr/bin/env bash
# CI gate for the wireless-aggregation workspace. Run from anywhere:
#   ./ci.sh          — the full gate (format, lints, builds, tests)
#   ./ci.sh quick    — skip the release build and workspace test sweep
#
# The tier-1 contract is `cargo build --release && cargo test -q`; everything
# else here is defence in depth (style, lints, the serial/no-default-features
# configuration — parallel kernels off, the one perfbench measures — and the
# full workspace test sweep including every crate's unit, doc and property
# tests).
set -euo pipefail
cd "$(dirname "$0")"

MODE="${1:-full}"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (warnings are errors: broken or private intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> serial build (--no-default-features turns off only the parallel kernels; this is the configuration perfbench measures)"
cargo build --workspace --no-default-features

echo "==> serial kernel tests, the configuration perfbench measures (incl. the cell grid under the length-class index, the static split's differential test, the sharded-scheduling sweep, the session differential + repair + telemetry suites, and the wagg-obs recorders)"
cargo test -q --no-default-features -p wagg-geometry -p wagg-sinr -p wagg-conflict -p wagg-fading -p wagg-schedule -p wagg-engine -p wagg-partition -p wagg-session -p wagg-obs

echo "==> golden paper tables (E1-E20 at Quick scale, byte for byte), serial build"
cargo test -q --no-default-features -p wagg-bench --test golden

echo "==> wire codec hostility + service differential suites, serial build (the configuration perfbench measures)"
cargo test -q --no-default-features -p wagg-wire -p wagg-service

echo "==> session differential + warm-start repair + telemetry suites, parallel build"
cargo test -q -p wagg-session

echo "==> wire codec hostility + service differential suites, parallel build"
cargo test -q -p wagg-wire -p wagg-service

# The serial wagg-partition run above already covers the hierarchical-verifier
# battery (bound soundness + flat/hier differential across the pyramid-depth
# matrix + churn traces); in quick mode, run it under the parallel feature too
# so both configurations are certified. (Full mode's workspace sweep below
# already repeats the battery with default features.)
if [[ "$MODE" == "quick" ]]; then
  echo "==> hierarchical-verifier property sweep, parallel build"
  cargo test -q -p wagg-partition --test hierarchy --test engine_churn
fi

if [[ "$MODE" != "quick" ]]; then
  echo "==> release build (tier-1)"
  cargo build --release

  echo "==> examples compile check"
  cargo build --workspace --examples

  echo "==> root tests (tier-1)"
  cargo test -q

  echo "==> golden paper tables at full scale (E1-E20, byte for byte), release build"
  cargo run --release -q -p wagg-bench --bin experiments \
    | diff -u crates/bench/tests/golden/experiments_full.md - \
    || { echo "full-scale tables differ from crates/bench/tests/golden/experiments_full.md"; exit 1; }

  echo "==> workspace tests (incl. wagg-partition shard-invariance properties)"
  cargo test -q --workspace

  echo "==> perfbench tests (the benchmark package builds against the public API; --locked fails on any change that would rewrite perfbench/Cargo.lock)"
  CARGO_TARGET_DIR=.bench_build/serial cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

  echo "==> chrome-trace smoke test (partition_profile --trace emits valid trace_event JSON)"
  TRACE_DIR="$(mktemp -d)"
  cargo run --release -q -p wagg-bench --bin partition_profile -- 20000 8 --trace "$TRACE_DIR/trace.json" \
    | grep "trace OK" || { echo "trace smoke test failed"; exit 1; }
  rm -rf "$TRACE_DIR"

  echo "==> telemetry smoke test (observability example: health signals + Prometheus exposition + JSONL replay)"
  cargo run --release -q --example observability \
    | grep "telemetry OK" || { echo "telemetry smoke test failed"; exit 1; }

  echo "==> service smoke test (service example: open/churn/solve/snapshot/restore/health + typed Busy under overload)"
  cargo run --release -q --example service \
    | grep "service OK" || { echo "service smoke test failed"; exit 1; }

  echo "==> perf regression gate (bench_gate --check against BENCH_gate.json)"
  # Generous tolerance: the gate catches order-of-magnitude slips (an
  # accidental O(s^2) fallback, instrumentation that stopped being free),
  # not scheduler noise on a shared box.
  cargo run --release -q -p wagg-bench --bin bench_gate -- --check BENCH_gate.json --tolerance 150 --samples 2

  echo "==> non-test src lines per crate (each file's lines before its first column-0 #[cfg(test)])"
  total=0
  for crate in crates/*/; do
    lines=$(find "$crate/src" -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/{nextfile} {n++} END{print n+0}' {} \; \
      | awk '{s+=$1} END{print s+0}')
    printf '%-14s %6d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
  done
  printf '%-14s %6d\n' "total" "$total"
fi

echo "CI gate passed."
