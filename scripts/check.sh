#!/usr/bin/env bash
# Tier-1 verification across the sanitizer matrix.
#
#   scripts/check.sh          # plain, then ASan/UBSan, then TSan
#   scripts/check.sh --fast   # plain only
#
# Tiers build into separate trees so they cache independently:
#   build/       plain            (the tier-1 command from ROADMAP.md)
#   build-asan/  MIC_SANITIZE=address   -> -fsanitize=address,undefined
#   build-tsan/  MIC_SANITIZE=thread    -> -fsanitize=thread
#
# The sanitized tiers configure with -DMIC_WERROR=ON, as CI does, so a
# warning that fails CI also fails this gate.  The plain tier stays
# warnings-only: it is the tier-1 command from ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")/.."

run_suite() {
  local dir=$1; shift
  cmake -B "$dir" -S . "$@" > /dev/null
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
}

echo "== plain =="
run_suite build

echo "== perf-regression guard =="
# The timing wheel must beat the frozen heap engine; the threshold leaves
# headroom for scheduler noise on loaded CI boxes.
./build/bench/micro_sim --min_speedup 1.0

echo "== admission flood guard =="
# Honest establishment p99 under a 10x flood + slowloris trickle must stay
# within a fixed multiple of the unloaded p99 (latencies are simulated
# time, so this is exact, not a wall-clock threshold).
./build/bench/control_flood --smoke

echo "== recovery + failover smoke (audit-gated) =="
# The crash/recover sweep plus the warm-standby failover leg; each point
# re-checks audit::run_all, so a reconciliation bug fails the run even if
# the latency numbers look fine.
(cd build && ./bench/controller_recovery --smoke)

echo "== benchmark harness + control_plane output checks =="
# The benchmark's own tests, then one short control_plane run (growth past
# the journal compaction floor, churn, journal on a durable store): its
# audit and durable-log replay checks must pass ("correct": true).
python3 perfbench/run.py --test
result=$(python3 perfbench/run.py --workload control_plane --seed 1 \
  --seconds 7 --trace 0 | tail -n 1)
echo "$result"
grep -q '"correct": true' <<< "$result"

echo "== soak trace-hash replay =="
# Every seeded chaos / MC-crash / failover soak fingerprint must replay
# bit-identically against the recorded golden file.
scripts/record_trace_hashes.sh verify build

if [[ "${1:-}" != "--fast" ]]; then
  echo "== sanitized (address,undefined) =="
  run_suite build-asan -DMIC_SANITIZE=address -DMIC_WERROR=ON

  echo "== sanitized (thread) =="
  run_suite build-tsan -DMIC_SANITIZE=thread -DMIC_WERROR=ON

  echo "== flood soak under TSan =="
  # The admission flood + slowloris soak under the race detector.
  ./build-tsan/tests/mic_tests --gtest_filter='FloodSoak.*'

  echo "== scheduler differential, deep (SIM-2 oracle x20k ops/seed) =="
  # The default suite already fuzzes >10k ops; the instrumented tier is
  # the cheapest place to go deeper, so rerun the wheel-vs-reference
  # oracle with the per-seed op count raised an order of magnitude.
  MIC_SIM_DIFF_CASES=20000 ./build-tsan/tests/mic_tests \
    --gtest_filter='SimulatorDiff.*'
fi

echo "OK"
