#!/bin/sh
# Writes the measured outputs into the repo root: test_output.txt
# (ctest) and bench_output.txt (bench binaries), which git does not
# keep, and examples_output.txt (runnable examples), which it does.
cd "$(dirname "$0")/.."
cmake -B build -G Ninja && cmake --build build
ctest --test-dir build --timeout 600 2>&1 | tee test_output.txt
{ for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] && "$b"
  done; } 2>&1 | tee bench_output.txt
{ for e in build/examples/*; do
    [ -f "$e" ] && [ -x "$e" ] && "$e"
  done; } 2>&1 | tee examples_output.txt
