#!/usr/bin/env python3
"""Validate a temos-bench-v1 record and gate on perf regressions.

Usage: check_bench_json.py [--expect-status=STATUS] CURRENT.json [BASELINE.json]

Checks that CURRENT.json has the temos-bench-v1 shape, that the run had
the expected status (realizable by default), and -- when the record
carries a "repeat" object -- that the incremental engine's cross-run
reuse actually fired (nba_cache.hits > 0 and no slower game phase than
the cold run).

Every record carries a "failures" array (empty on a clean run). A
realizable run must have no failures; with --expect-status=unknown the
run must instead carry at least one structured failure record (that is
the degraded-path contract: a budget-exhausted run never comes back
empty-handed about why).

With BASELINE.json, also fails when any deterministic counter differs
from the baseline's (the spec sizes, refinements, reactive_runs,
game_states, machine_states, js_loc, and each reactive entry's bound and
game_states), naming the key, and when the current synthesis wall time
regresses by more than 25% against the baseline. Timings below a 0.25s
floor are never compared: at that scale the noise dwarfs the signal, so
a freshly recorded tiny baseline can't flake the gate; the counters are
exact at any scale.
"""

import json
import sys

REGRESSION_SLACK = 1.25
FLOOR_SECONDS = 0.25

REQUIRED_KEYS = [
    "schema", "name", "status", "jobs", "cache", "spec", "phases",
    "refinements", "reactive_runs", "game_states", "smt_cache",
    "nba_cache", "expansion_cache", "reactive", "failures",
    "machine_states", "js_loc",
]
PHASE_KEYS = ["psi_gen_wall_s", "psi_gen_cpu_s", "synthesis_wall_s",
              "synthesis_cpu_s"]
REACTIVE_KEYS = ["round", "status", "bound", "nba_cache_hit",
                 "arena_states_reused", "game_states", "nba_wall_s",
                 "game_wall_s"]
FAILURE_KEYS = ["kind", "phase", "detail"]
FAILURE_KINDS = ["timeout", "state-budget", "overflow", "worker-exception",
                 "internal"]


def fail(message):
    print(f"check_bench_json: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_failures(doc, expect_status):
    failures = doc.get("failures")
    if not isinstance(failures, list):
        fail("failures missing or not a list")
    for entry in failures:
        for key in FAILURE_KEYS:
            if not isinstance(entry.get(key), str):
                fail(f"failure entry missing string {key!r}: {entry!r}")
        if entry["kind"] not in FAILURE_KINDS:
            fail(f"unknown failure kind {entry['kind']!r}")
        if not entry["detail"]:
            fail("failure entry has an empty detail")
    if expect_status == "realizable" and failures:
        fail(f"realizable run carries {len(failures)} failure record(s)")
    if expect_status == "unknown" and not failures:
        fail("unknown run carries no failure records: the degraded path "
             "must say why it gave up")


def check_shape(doc, expect_status="realizable"):
    if doc.get("schema") != "temos-bench-v1":
        fail(f"unexpected schema {doc.get('schema')!r}")
    for key in REQUIRED_KEYS:
        if key not in doc:
            fail(f"missing key {key!r}")
    for key in PHASE_KEYS:
        if not isinstance(doc["phases"].get(key), (int, float)):
            fail(f"phases.{key} missing or not a number")
    if not isinstance(doc["reactive"], list):
        fail("reactive array missing")
    # A degraded run may never have reached the reactive phase; a
    # realizable one must have.
    if expect_status == "realizable" and not doc["reactive"]:
        fail("reactive array empty")
    for entry in doc["reactive"]:
        for key in REACTIVE_KEYS:
            if key not in entry:
                fail(f"reactive entry missing {key!r}")
    check_failures(doc, expect_status)
    if doc["status"] != expect_status:
        fail(f"run was {doc['status']}, expected {expect_status}")


def check_repeat(doc):
    repeat = doc.get("repeat")
    if repeat is None:
        return
    if repeat["nba_cache"]["hits"] < 1:
        fail("repeat run had no NBA cache hits: incremental reuse is dead")
    if not all(r["nba_cache_hit"] for r in repeat["reactive"]):
        fail("a repeat reactive invocation missed the NBA cache")
    cold = sum(r["game_wall_s"] for r in doc["reactive"])
    warm = sum(r["game_wall_s"] for r in repeat["reactive"])
    if cold >= FLOOR_SECONDS and warm > cold * REGRESSION_SLACK:
        fail(f"repeat game phase slower than cold run "
             f"({warm:.3f}s vs {cold:.3f}s)")


COUNTER_KEYS = ["refinements", "reactive_runs", "game_states",
                "machine_states", "js_loc"]
REACTIVE_COUNTER_KEYS = ["bound", "game_states"]


def check_counters(doc, baseline):
    expected = {f"spec.{key}": value
                for key, value in baseline["spec"].items()}
    actual = {f"spec.{key}": doc["spec"].get(key) for key in baseline["spec"]}
    for key in COUNTER_KEYS:
        expected[key] = baseline[key]
        actual[key] = doc[key]
    expected["len(reactive)"] = len(baseline["reactive"])
    actual["len(reactive)"] = len(doc["reactive"])
    for i, (entry, ref) in enumerate(zip(doc["reactive"],
                                         baseline["reactive"])):
        for key in REACTIVE_COUNTER_KEYS:
            expected[f"reactive[{i}].{key}"] = ref[key]
            actual[f"reactive[{i}].{key}"] = entry[key]
    for key, value in expected.items():
        if actual[key] != value:
            fail(f"counter {key} is {actual[key]}, baseline has {value}")
    print(f"check_bench_json: {len(expected)} counters match the baseline")


def check_baseline(doc, baseline):
    current = doc["phases"]["synthesis_wall_s"]
    reference = baseline["phases"]["synthesis_wall_s"]
    if max(current, reference) < FLOOR_SECONDS:
        print(f"check_bench_json: baseline compare skipped "
              f"({current:.3f}s vs {reference:.3f}s, below "
              f"{FLOOR_SECONDS}s floor)")
        return
    if current > max(reference * REGRESSION_SLACK, FLOOR_SECONDS):
        fail(f"synthesis wall time regressed: {current:.3f}s vs "
             f"baseline {reference:.3f}s "
             f"(limit {REGRESSION_SLACK:.2f}x)")
    print(f"check_bench_json: perf ok ({current:.3f}s vs "
          f"baseline {reference:.3f}s)")


def main(argv):
    expect_status = "realizable"
    positional = []
    for arg in argv[1:]:
        if arg.startswith("--expect-status="):
            expect_status = arg.split("=", 1)[1]
            if expect_status not in ("realizable", "unrealizable", "unknown"):
                fail(f"bad --expect-status value {expect_status!r}")
        else:
            positional.append(arg)
    if len(positional) not in (1, 2):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(positional[0]) as handle:
        doc = json.load(handle)
    check_shape(doc, expect_status)
    check_repeat(doc)
    if len(positional) == 2:
        with open(positional[1]) as handle:
            baseline = json.load(handle)
        check_shape(baseline)
        check_counters(doc, baseline)
        check_baseline(doc, baseline)
    print(f"check_bench_json: {doc['name']} ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
