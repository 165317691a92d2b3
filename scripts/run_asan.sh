#!/usr/bin/env bash
# Builds the logic, automata, game, theory and SyGuS tests and the tableau
# identity tests under AddressSanitizer and UndefinedBehaviorSanitizer,
# with libstdc++'s bounds-checked containers, and runs them. The tableau
# expands over an explicit stack of reused frames, the game reads flat
# edge indexes, a theory check indexes dense tableau rows, node and
# variable ids, and the term and formula interning tables key on views of
# their nodes' own fields, so an out-of-bounds word or id, a reference
# kept into a stack that grew, a frame read after reuse or a key viewing
# freed storage would show here before it shows as a wrong automaton or
# a wrong verdict.
#
# Usage: scripts/run_asan.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

# ASan and UBSan cost ~2-3x wall clock; the timeout backstop gets a
# matching raise.
cmake -B "$BUILD_DIR" -S . -DTEMOS_SANITIZE=address,undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS \
      -DTEMOS_TEST_TIMEOUT=1800
cmake --build "$BUILD_DIR" -j"$(nproc)" --target test_logic test_automata test_game test_core test_theory test_sygus

export ASAN_OPTIONS="halt_on_error=1 detect_stack_use_after_return=1"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1"

# test_automata (TableauTest, NbaTest), test_game (BoundedSynthesisTest,
# EscalationReuseTest, GameFingerprint), test_core's tableau inputs
# (TableauFingerprint, TableauEdges, TableauWideClosure), test_theory
# (Simplex, LinearExprTest, CongruenceClosureTest, SmtSolver,
# SolverServiceTest, SmtModelFingerprint, ...), test_logic (TermTest,
# FormulaTest, ...), test_sygus and test_core's SygusFingerprint (every
# row's obligations through the compiled SyGuS query's slot frames).
(cd "$BUILD_DIR" && ctest --output-on-failure -j"$(nproc)" \
    -R "TableauTest|NbaTest|BoundedSynthesisTest|EscalationReuseTest|GameFingerprint|TableauFingerprint|TableauEdges|TableauWideClosure")
(cd "$BUILD_DIR" && ctest --output-on-failure -j"$(nproc)" \
    -R "^(TermTest|FormulaTest|SimplifyTest|ParserTest|DiagnosticsTest|Simplex|LinearExprTest|CongruenceClosureTest|EvaluatorTest|SmtSolverTest|SolverServiceTest|SmtModelFingerprintCoverage|ProgramTest|SygusSolverTest)\.|SmtModelFingerprint\.|SygusFingerprint")

echo "ASan+UBSan run clean."
