//===- tests/benchmarks/BenchJsonTest.cpp - temos-bench-v1 rendering ------===//
///
/// \file
/// Pins the temos-bench-v1 document byte for byte: key order, number
/// formatting, the "round" index of each reactive entry, string
/// escaping in failure records, and the nested "repeat" body.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/BenchJson.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

ReactiveRunStats reactiveRun(Realizability Status, bool NbaCacheHit,
                             size_t Reused, size_t GameStates,
                             unsigned Bound, double NbaSeconds,
                             double GameSeconds, size_t NbaStates) {
  ReactiveRunStats R;
  R.Tableau.GeneralizedStates = NbaStates / 2;
  R.Tableau.NbaStates = NbaStates;
  R.Tableau.NbaTransitions = NbaStates * 3;
  R.LettersExplored = GameStates * 16;
  R.InputLetters = 3;
  R.MaxActive = NbaStates / 10;
  R.Status = Status;
  R.NbaCacheHit = NbaCacheHit;
  R.ArenaStatesReused = Reused;
  R.GameStates = GameStates;
  R.BoundUsed = Bound;
  R.NbaSeconds = NbaSeconds;
  R.GameSeconds = GameSeconds;
  return R;
}

TEST(BenchJson, RendersTheDocumentByteForByte) {
  PipelineStats S;
  S.SpecSize = 22;
  S.PredicateCount = 2;
  S.UpdateTermCount = 4;
  S.AssumptionCount = 3;
  S.PsiGenSeconds = 0.25;
  S.PsiGenCpuSeconds = 0.5;
  S.SynthesisSeconds = 1.125;
  S.SynthesisCpuSeconds = 2;
  S.Refinements = 1;
  S.ReactiveRuns = 2;
  S.GameStates = 40;
  S.CacheHits = 7;
  S.CacheMisses = 9;
  S.NbaCacheHits = 0;
  S.NbaCacheMisses = 2;
  S.ExpansionCacheHits = 0;
  S.ExpansionCacheMisses = 31;
  S.ReactiveDetail = {
      reactiveRun(Realizability::Unrealizable, false, 0, 40, 0, 0.125, 0.75,
                  90),
      reactiveRun(Realizability::Realizable, false, 0, 12, 3, 0.0625, 0.25,
                  100)};
  S.Failures = {{FailureKind::Timeout, "sygus", "1 of 3 \"obligations\""}};

  PipelineStats Repeat;
  Repeat.ReactiveRuns = 1;
  Repeat.GameStates = 12;
  Repeat.NbaCacheHits = 1;
  Repeat.ReactiveDetail = {
      reactiveRun(Realizability::Realizable, true, 12, 12, 3, 0, 0.015625,
                  100)};

  const std::string Want = R"({
  "schema": "temos-bench-v1",
  "name": "Vib\"rato",
  "status": "realizable",
  "jobs": 4,
  "cache": false,
  "spec": {"phi": 22, "predicates": 2, "updates": 4, "assumptions": 3},
  "phases": {"psi_gen_wall_s": 0.250000, "psi_gen_cpu_s": 0.500000, "synthesis_wall_s": 1.125000, "synthesis_cpu_s": 2.000000},
  "refinements": 1,
  "reactive_runs": 2,
  "game_states": 40,
  "smt_cache": {"hits": 7, "misses": 9},
  "sygus": {"candidates": 0, "verifier_calls": 0},
  "nba_cache": {"hits": 0, "misses": 2},
  "expansion_cache": {"hits": 0, "misses": 31},
  "reactive": [
    {"round": 0, "status": "unrealizable", "bound": 0, "nba_cache_hit": false, "arena_states_reused": 0, "game_states": 40, "nba_wall_s": 0.125000, "game_wall_s": 0.750000, "tableau": {"generalized_states": 45, "nba_states": 90, "nba_transitions": 270}, "game": {"letters_explored": 640, "input_letters": 3, "max_active": 9}},
    {"round": 1, "status": "realizable", "bound": 3, "nba_cache_hit": false, "arena_states_reused": 0, "game_states": 12, "nba_wall_s": 0.062500, "game_wall_s": 0.250000, "tableau": {"generalized_states": 50, "nba_states": 100, "nba_transitions": 300}, "game": {"letters_explored": 192, "input_letters": 3, "max_active": 10}}
  ],
  "failures": [
    {"kind": "timeout", "phase": "sygus", "detail": "1 of 3 \"obligations\""}
  ],
  "repeat": {
    "phases": {"psi_gen_wall_s": 0.000000, "psi_gen_cpu_s": 0.000000, "synthesis_wall_s": 0.000000, "synthesis_cpu_s": 0.000000},
    "refinements": 0,
    "reactive_runs": 1,
    "game_states": 12,
    "smt_cache": {"hits": 0, "misses": 0},
    "sygus": {"candidates": 0, "verifier_calls": 0},
    "nba_cache": {"hits": 1, "misses": 0},
    "expansion_cache": {"hits": 0, "misses": 0},
    "reactive": [
      {"round": 0, "status": "realizable", "bound": 3, "nba_cache_hit": true, "arena_states_reused": 12, "game_states": 12, "nba_wall_s": 0.000000, "game_wall_s": 0.015625, "tableau": {"generalized_states": 50, "nba_states": 100, "nba_transitions": 300}, "game": {"letters_explored": 192, "input_letters": 3, "max_active": 10}}
    ],
    "failures": []
  },
  "machine_states": 12,
  "js_loc": 206
}
)";
  EXPECT_EQ(benchJson("Vib\"rato", Realizability::Realizable, 4, false, S, 12,
                      206, &Repeat),
            Want);
}

} // namespace
