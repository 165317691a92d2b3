#!/usr/bin/env bash
# Builds the concurrency-sensitive tests under ThreadSanitizer and runs
# them. The solver-service layer (SolverPool, the service's verdict
# table with its claims, the parallel consistency checker and
# per-obligation SyGuS fan-out), the term and formula interning tables
# its workers share, and the counting-game exploration (pool workers
# write per-wave-slot buffers) are where data races would live, so this
# drives the tests that exercise them with multiple threads:
# SolverServiceTest.ConcurrentAsksComputeEachKeyOnce has four workers
# claim and wait on one table, and
# IncrementalParity.JobsFourMatchesJobsOne runs every row's pipeline at
# jobs 4: its SyGuS batches read one shared SygusGrammar and intern each
# compiled query's VC terms and formulas concurrently.
#
# Usage: scripts/run_tsan.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

# TSan costs ~10-20x wall clock, so the per-test timeout backstop gets
# a matching raise; it still catches an outright hang.
cmake -B "$BUILD_DIR" -S . -DTEMOS_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DTEMOS_TEST_TIMEOUT=3600
cmake --build "$BUILD_DIR" -j"$(nproc)" --target test_support test_logic test_theory test_core test_benchmarks

# halt_on_error keeps a race from scrolling past; second_deadlock_stack
# makes lock-order reports actionable.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"

# At most four TSan tests at once: the rung then takes about as long as
# its slowest test, with four TSan processes' memory at most.
CTEST_JOBS=$(( $(nproc) < 4 ? $(nproc) : 4 ))
(cd "$BUILD_DIR" && ctest --output-on-failure -j"$CTEST_JOBS" \
    -R "SolverServiceTest.ConcurrentAsksComputeEachKeyOnce|FormulaTest.ConcurrentInterningKeepsOneNodePerStructure|ParallelConsistency|PipelineValidate|IncrementalParity.JobsFourMatchesJobsOne")

echo "TSan run clean."
