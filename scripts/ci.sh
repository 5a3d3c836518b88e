#!/usr/bin/env bash
# Stage-aware CI gate. Run from anywhere:
#
#   ./scripts/ci.sh                 # every stage
#   ./scripts/ci.sh --quick         # skip the chaos soak and server runs
#   ./scripts/ci.sh lint test       # just the named stages
#
# Stages: lint, build, test, chaos, corruption, server, experiments. Fails
# fast, naming the stage that broke, and prints per-stage wall-clock
# timings (and test counts) at the end.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
STAGES=()
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    lint|build|test|chaos|corruption|server|experiments) STAGES+=("$arg") ;;
    *) echo "usage: $0 [--quick] [lint|build|test|chaos|corruption|server|experiments]..." >&2; exit 2 ;;
  esac
done
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=(lint build test chaos corruption server experiments)
  if [ "$QUICK" -eq 1 ]; then
    STAGES=(lint build test)
  fi
fi

TIMINGS=()
STAGE_TESTS=0
run_stage() {
  local name="$1"
  shift
  echo "==> stage: $name"
  local t0
  t0=$(date +%s)
  STAGE_TESTS=0
  if ! "$@"; then
    echo "CI FAILED in stage: $name" >&2
    exit 1
  fi
  local timing="$name: $(( $(date +%s) - t0 ))s"
  if [ "$STAGE_TESTS" -gt 0 ]; then
    timing+=", $STAGE_TESTS tests passed"
  fi
  echo "--- $timing"
  TIMINGS+=("$timing")
}

# Runs a `cargo test` command line, adding the tests it passed to the
# stage's count (summed over every test binary's `test result:` line).
counted() {
  local log rc=0
  log=$(mktemp)
  "$@" 2>&1 | tee "$log" || rc=$?
  STAGE_TESTS=$(( STAGE_TESTS + $(awk '/^test result:/ { n += $4 } END { print n + 0 }' "$log") ))
  rm -f "$log"
  return "$rc"
}

stage_lint() {
  # `&&`-chained: `if ! stage` suppresses errexit inside the function,
  # so each stage must propagate its first failure explicitly.
  cargo fmt --check &&
    # Hot-path allocation lints plus the concurrency lints: no mutexed
    # atomics, no lock-holding scrutinees living longer than they look.
    # `--all-targets` holds tests, examples and benches to the same set.
    cargo clippy --workspace --all-targets -- -D warnings \
      -D clippy::redundant_clone -D clippy::inefficient_to_string \
      -D clippy::mutex_atomic -D clippy::significant_drop_in_scrutinee &&
    lock_is_workspace_only
}

# The build takes no crate from outside the repository's own packages
# (the root package and `crates/*`): every package `Cargo.lock` names
# must be one of them. Lists each stranger.
lock_is_workspace_only() {
  local strangers
  strangers=$(comm -13 \
    <(for m in Cargo.toml crates/*/Cargo.toml; do package_name "$m"; done | sort) \
    <(package_name Cargo.lock | sort))
  if [ -n "$strangers" ]; then
    echo "Cargo.lock names packages outside the workspace:" $strangers >&2
    return 1
  fi
}

# The value of every line-initial `name = "..."` of file "$1": a
# manifest's package name, or each package a lock file names.
package_name() {
  sed -n 's/^name = "\(.*\)"$/\1/p' "$1"
}

stage_build() {
  # `shbench/` is the frozen benchmark (BENCHMARK.json `paths`): its own
  # workspace, compiled against sh-core/sh-mapreduce's public surface.
  # Building it here tells an API-reshaping change at this stage, not in
  # the benchmark pipeline, that the benchmark still compiles unmodified.
  cargo build --release &&
    keeping_shbench_lock cargo build --release --manifest-path shbench/Cargo.toml
}

stage_test() {
  # The whole workspace: the root package's integration suites plus
  # every crate's unit tests (a bare `cargo test -q` runs the same set).
  # The CRC-64 kernel is compared with its byte-wise oracle once more
  # under the optimiser the benchmark builds with (bounds-check elision
  # in `chunks_exact` differs between profiles).
  # `shbench`'s own tests run against this checkout's crates.
  counted cargo test --workspace -q &&
    counted cargo test -p sh-dfs --release -q crc64 &&
    keeping_shbench_lock counted cargo test -q --manifest-path shbench/Cargo.toml
}

stage_chaos() {
  # The determinism loops run inside the test binary (SH_CHAOS_ITERS),
  # so 10 iterations cost one cargo invocation, not ten. The telemetry
  # binary also streams its event journal to a JSONL file that the
  # workflow uploads when a chaos run fails.
  SH_CHAOS_ITERS=10 counted cargo test -q --test fault_tolerance &&
    SH_CHAOS_ITERS=10 SH_TELEMETRY_LOG=telemetry_chaos.jsonl \
      counted cargo test -q --test telemetry &&
    SH_STRESS_MILLIS=2000 counted cargo test -q --test concurrency
}

stage_corruption() {
  # Silent-corruption soak: 10 placement-seeded iterations of the
  # flip/truncate chaos test (text and SHCB layouts).
  # The binary prints its SH_CHAOS_SEED= line so a failing run's log
  # carries everything needed to reproduce it; the journal — including
  # storage.corrupt_replica, storage.read_repair, and scrub.done events
  # — streams to a JSONL artifact the workflow uploads. The property
  # trio then sweeps arbitrary single-byte rot, read-repair healing,
  # and the unreplicated must-error-not-lie contract.
  SH_CHAOS_ITERS=10 SH_CHAOS_SEED="${SH_CHAOS_SEED:-12648430}" \
    SH_TELEMETRY_LOG=telemetry_corruption.jsonl \
    counted cargo test -q --test fault_tolerance silent_corruption -- --nocapture &&
    counted cargo test -q --test properties -- \
      any_single_byte_of_rot flip_and_truncate unreplicated_corruption
}

stage_server() {
  # Four `shbench` workloads, each checking every answer against the
  # single-machine oracle: `serve-scan` and `serve-mixed` every row a
  # live sh-server sends over TCP (thousands a reply, two clients),
  # `ingest-index` every `INDEX` format x partitioner build (by a
  # whole-universe `FILTER` and a clean `SCRUB`), and `heap-batch` the
  # unindexed heap-file baseline. The `sh-server` binary's own flags and
  # `LISTENING` line are covered by tests/server.rs. Then one traced
  # pass of each workload gates its deterministic counts exactly.
  run_shbench_oracle serve-scan &&
    run_shbench_oracle serve-mixed &&
    run_shbench_oracle ingest-index &&
    run_shbench_oracle heap-batch &&
    run_counter_gate
}

stage_experiments() {
  # The paper's whole evaluation (E1-E14, A1-A5, X1-X2) in release; the
  # tables land in target/experiments.md. Fails on a non-zero exit: a
  # panicking experiment or an unknown id. It does not diff the tables
  # against bench_results.md yet: their simulated seconds still contain
  # host wall time, so they differ from run to run.
  mkdir -p target &&
    cargo run --release --quiet -p sh-bench --bin experiments > target/experiments.md
}

# Runs a command, then puts back the frozen benchmark's lock file, which
# every cargo invocation on `shbench/Cargo.toml` rewrites. Returns the
# command's status.
keeping_shbench_lock() {
  local rc=0
  "$@" || rc=$?
  git checkout -q shbench/Cargo.lock 2>/dev/null || true
  return "$rc"
}

# Two seconds of one `shbench` workload; passes only if the result line
# reports every answer correct and no failed operation.
run_shbench_oracle() {
  local workload="$1" line rc=0
  line=$(keeping_shbench_lock cargo run --release --quiet --manifest-path shbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1) || rc=$?
  case "$line" in
    *'"correct": true'*'"failed": 0,'*) echo "--- $workload oracle-checked: $line" ;;
    *) rc=1 ;;
  esac
  if [ "$rc" -ne 0 ]; then
    echo "shbench oracle check FAILED on $workload: $line" >&2
  fi
  return "$rc"
}

# One traced pass (one client, seed 1) of every workload in
# scripts/counters.tsv: each count metric listed there must equal its
# checked-in value exactly. These counts do not depend on the clock, so
# any difference is a change in what the code does: among them, a warm
# `serve-mixed` query reads no DFS block and hits the cache for every
# partition, and an `INDEX` writes and stores exactly the index bytes
# its driver writes from `JobOutcome.side`. Reports every mismatch.
run_counter_gate() {
  local baseline=scripts/counters.tsv workload line metric want got w rc=0
  for workload in $(awk '!/^#/ && NF && !seen[$1]++ { print $1 }' "$baseline"); do
    line=$(keeping_shbench_lock cargo run --release --quiet --manifest-path shbench/Cargo.toml -- \
      --workload "$workload" --trace 1 --clients 1 --seed 1 --seconds 2 | tail -n 1) || return 1
    while read -r w metric want; do
      [ "$w" = "$workload" ] || continue
      got=$(traced_metric "$line" "$metric")
      if [ "$got" != "$want" ]; then
        echo "counter gate FAILED: $workload $metric is '$got', baseline $want" >&2
        rc=1
      fi
    done < <(grep -v '^#' "$baseline")
    echo "--- $workload: counts checked against $baseline"
  done
  return "$rc"
}

# The value of metric "$2" in a traced result line "$1".
traced_metric() {
  printf '%s\n' "$1" | grep -oE "\"$2\": \\{\"value\": [^,}]+" | awk '{ print $NF }'
}

for s in "${STAGES[@]}"; do
  run_stage "$s" "stage_$s"
done

echo "CI green. Stage timings:"
for t in "${TIMINGS[@]}"; do
  echo "  $t"
done
