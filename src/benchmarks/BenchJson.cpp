//===- benchmarks/BenchJson.cpp - Machine-readable bench results -----------===//

#include "benchmarks/BenchJson.h"

#include "support/StringUtils.h"

#include <cstdio>

using namespace temos;

namespace {

void appendEscaped(std::string &Out, const std::string &S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  appendEscaped(Out, S);
  return Out + "\"";
}

std::string jsonNum(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  return Buf;
}

/// The per-run stats body shared by the top-level document and the
/// "repeat" object. \p Indent is the leading whitespace of each line;
/// the caller wraps the lines in braces.
std::string statsBody(const PipelineStats &S, const std::string &Indent) {
  std::string J;
  J += Indent + "\"phases\": {\"psi_gen_wall_s\": " + jsonNum(S.PsiGenSeconds) +
       ", \"psi_gen_cpu_s\": " + jsonNum(S.PsiGenCpuSeconds) +
       ", \"synthesis_wall_s\": " + jsonNum(S.SynthesisSeconds) +
       ", \"synthesis_cpu_s\": " + jsonNum(S.SynthesisCpuSeconds) + "},\n";
  J += Indent + "\"refinements\": " + std::to_string(S.Refinements) + ",\n";
  J += Indent + "\"reactive_runs\": " + std::to_string(S.ReactiveRuns) + ",\n";
  J += Indent + "\"game_states\": " + std::to_string(S.GameStates) + ",\n";
  J += Indent + "\"smt_cache\": {\"hits\": " + std::to_string(S.CacheHits) +
       ", \"misses\": " + std::to_string(S.CacheMisses) + "},\n";
  J += Indent + "\"sygus\": {\"candidates\": " +
       std::to_string(S.SygusCandidates) +
       ", \"verifier_calls\": " + std::to_string(S.SygusVerifierCalls) + "},\n";
  J += Indent + "\"nba_cache\": {\"hits\": " + std::to_string(S.NbaCacheHits) +
       ", \"misses\": " + std::to_string(S.NbaCacheMisses) + "},\n";
  J += Indent + "\"expansion_cache\": {\"hits\": " +
       std::to_string(S.ExpansionCacheHits) +
       ", \"misses\": " + std::to_string(S.ExpansionCacheMisses) + "},\n";
  J += Indent + "\"reactive\": [";
  for (size_t I = 0; I < S.ReactiveDetail.size(); ++I) {
    const ReactiveRunStats &R = S.ReactiveDetail[I];
    J += I == 0 ? "\n" : ",\n";
    J += Indent + "  {\"round\": " + std::to_string(I) +
         ", \"status\": " + jsonStr(realizabilityName(R.Status)) +
         ", \"bound\": " + std::to_string(R.BoundUsed) +
         ", \"nba_cache_hit\": " + (R.NbaCacheHit ? "true" : "false") +
         ", \"arena_states_reused\": " + std::to_string(R.ArenaStatesReused) +
         ", \"game_states\": " + std::to_string(R.GameStates) +
         ", \"nba_wall_s\": " + jsonNum(R.NbaSeconds) +
         ", \"game_wall_s\": " + jsonNum(R.GameSeconds) +
         ", \"tableau\": {\"generalized_states\": " +
         std::to_string(R.Tableau.GeneralizedStates) +
         ", \"nba_states\": " + std::to_string(R.Tableau.NbaStates) +
         ", \"nba_transitions\": " + std::to_string(R.Tableau.NbaTransitions) +
         "}, \"game\": {\"letters_explored\": " +
         std::to_string(R.LettersExplored) +
         ", \"input_letters\": " + std::to_string(R.InputLetters) +
         ", \"max_active\": " + std::to_string(R.MaxActive) + "}}";
  }
  J += S.ReactiveDetail.empty() ? "]" : "\n" + Indent + "]";
  J += ",\n";
  // Always present (empty on a clean run), so consumers can gate on
  // degraded runs without probing for the key.
  J += Indent + "\"failures\": [";
  for (size_t I = 0; I < S.Failures.size(); ++I) {
    const FailureRecord &F = S.Failures[I];
    J += I == 0 ? "\n" : ",\n";
    J += Indent + "  {\"kind\": " + jsonStr(failureKindName(F.Kind)) +
         ", \"phase\": " + jsonStr(F.Phase) +
         ", \"detail\": " + jsonStr(F.Detail) + "}";
  }
  J += S.Failures.empty() ? "]" : "\n" + Indent + "]";
  return J;
}

} // namespace

std::string temos::benchJson(const std::string &Name, Realizability Status,
                             unsigned Jobs, bool CacheEnabled,
                             const PipelineStats &S, size_t MachineStates,
                             size_t JsLoc, const PipelineStats *Repeat) {
  std::string J = "{\n";
  J += "  \"schema\": \"temos-bench-v1\",\n";
  J += "  \"name\": " + jsonStr(Name) + ",\n";
  J += "  \"status\": " + jsonStr(realizabilityName(Status)) + ",\n";
  J += "  \"jobs\": " + std::to_string(Jobs) + ",\n";
  J += std::string("  \"cache\": ") + (CacheEnabled ? "true" : "false") + ",\n";
  J += "  \"spec\": {\"phi\": " + std::to_string(S.SpecSize) +
       ", \"predicates\": " + std::to_string(S.PredicateCount) +
       ", \"updates\": " + std::to_string(S.UpdateTermCount) +
       ", \"assumptions\": " + std::to_string(S.AssumptionCount) + "},\n";
  J += statsBody(S, "  ") + ",\n";
  if (Repeat) {
    J += "  \"repeat\": {\n";
    J += statsBody(*Repeat, "    ") + "\n";
    J += "  },\n";
  }
  J += "  \"machine_states\": " + std::to_string(MachineStates) + ",\n";
  J += "  \"js_loc\": " + std::to_string(JsLoc) + "\n";
  J += "}\n";
  return J;
}

std::string temos::benchJsonFileName(const std::string &Name) {
  return "BENCH_" + fileSafeName(Name) + ".json";
}
