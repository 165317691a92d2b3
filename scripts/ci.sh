#!/usr/bin/env bash
# Full CI ladder: tier-1 build + ctest, ThreadSanitizer on the
# concurrency-sensitive tests, and a bounded differential-fuzz sweep.
# Fails on the first broken rung. See docs/TESTING.md for the tier map.
#
# Usage: scripts/ci.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== tier 1: build + ctest =="
cmake -B "$BUILD_DIR" -S . -G Ninja >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure

echo "== bench smoke: incremental-engine reuse + perf gate =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
TEMOS_BIN="$(cd "$BUILD_DIR" && pwd)/src/tools/temos"
(cd "$SMOKE_DIR" &&
  "$TEMOS_BIN" --benchmark Vibrato --repeat 2 --bench-json >/dev/null)
python3 scripts/check_bench_json.py "$SMOKE_DIR/BENCH_Vibrato.json" \
  bench/baselines/BENCH_Vibrato.baseline.json
# The exact-counter gate must bite: the same record with one more game
# state has to fail against the baseline.
python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
doc["game_states"] += 1
json.dump(doc, open(sys.argv[2], "w"))' \
  "$SMOKE_DIR/BENCH_Vibrato.json" "$SMOKE_DIR/doctored.json"
if python3 scripts/check_bench_json.py "$SMOKE_DIR/doctored.json" \
  bench/baselines/BENCH_Vibrato.baseline.json >/dev/null 2>&1; then
  echo "a record with a doctored game_states passed the counter gate"
  exit 1
fi
# Lazy Vibrato makes three reactive runs on three distinct specs; the
# repeat must serve every one of them from the engine's memo entries.
LAZY_DIR="$SMOKE_DIR/lazy"
mkdir -p "$LAZY_DIR"
(cd "$LAZY_DIR" &&
  "$TEMOS_BIN" --lazy --benchmark Vibrato --repeat 2 --bench-json >/dev/null)
python3 scripts/check_bench_json.py "$LAZY_DIR/BENCH_Vibrato.json"

echo "== degraded path: injected hang must trip the deadline =="
# A planted non-terminating SyGuS search under a 2s budget: the CLI must
# come back with the resource-exhausted exit code (4), a degraded bench
# record carrying failure entries, and a replayable artifact. timeout(1)
# at 30s is the backstop for a deadline regression that hangs outright.
DEGRADED_DIR="$SMOKE_DIR/degraded"
mkdir -p "$DEGRADED_DIR"
set +e
(cd "$DEGRADED_DIR" &&
  timeout 30 "$TEMOS_BIN" --benchmark Vibrato --time-budget 2 \
    --inject-fault=spin-hang --artifacts artifacts --bench-json \
    >/dev/null 2>&1)
DEGRADED_EXIT=$?
set -e
if [ "$DEGRADED_EXIT" -ne 4 ]; then
  echo "degraded run exited $DEGRADED_EXIT, expected 4 (resource exhausted)"
  exit 1
fi
test -f "$DEGRADED_DIR/artifacts/temos-artifact-Vibrato.tslmt"
python3 scripts/check_bench_json.py --expect-status=unknown \
  "$DEGRADED_DIR/BENCH_Vibrato.json"
set +e
"$BUILD_DIR/src/tools/temos-fuzz" \
  --replay "$DEGRADED_DIR/artifacts/temos-artifact-Vibrato.tslmt" >/dev/null
REPLAY_EXIT=$?
set -e
if [ "$REPLAY_EXIT" -ne 1 ]; then
  echo "artifact replay exited $REPLAY_EXIT, expected 1 (reproduces)"
  exit 1
fi

echo "== programs: examples and Fig. 4 panels run to completion =="
# Each exits non-zero when its synthesis or case-study check fails; they
# read BenchmarkRun and PipelineStats, which no unit test drives whole.
for prog in examples/quickstart examples/escalator examples/pong_game \
  examples/music_synthesizer bench/fig4_escalator bench/fig4_pong; do
  "$BUILD_DIR/$prog" >/dev/null
done

echo "== perfbench: the benchmark still builds against src/ and self-tests =="
# perfbench compiles against src/ headers (buildNba, checkConsistency,
# SynthesisEngine::synthesize, the PipelineStats fields); a signature
# change there would otherwise break only the benchmark.
python3 perfbench/run.py --self-test

echo "== tier 5: ThreadSanitizer on the solver-service tests =="
scripts/run_tsan.sh

echo "== tier 3: differential fuzz sweep (500 iterations/oracle) =="
"$BUILD_DIR/src/tools/temos-fuzz" --seed "${TEMOS_SEED:-1}" --iters 500

echo "CI ladder green."
