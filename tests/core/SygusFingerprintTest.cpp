//===- tests/core/SygusFingerprintTest.cpp - SyGuS answers and traffic ----===//
///
/// \file
/// Pins what SyGuS answers for every obligation of every bundled row, so
/// that a rewrite of the enumeration or of the verification conditions
/// can show it finds the same programs with the same work and asks the
/// solver the same queries:
///
///  * the generated assumption's rendering, or none;
///  * SygusStats::CandidatesTried and VerifierCalls;
///  * the hits and misses of a fresh solver service's query cache, which
///    see the verification conditions as interned formula nodes -- a VC
///    built differently shows up as a different miss count.
///
/// Each row runs its obligations in decomposition order on one
/// generator; Row_CFS_refined adds the refinement re-synthesis of CFS's
/// unhelpful assumption with that assumption's program excluded.
///
//===----------------------------------------------------------------------===//

#include "core/Synthesizer.h"

#include "benchmarks/Benchmarks.h"
#include "logic/Parser.h"
#include "theory/SolverService.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <ostream>
#include <string>

using namespace temos;

namespace {

/// Totals plus FNV-1a over every obligation's rendered outcome.
struct Fingerprint {
  size_t Obligations = 0;
  size_t Candidates = 0;
  size_t VerifierCalls = 0;
  size_t Hits = 0;
  size_t Misses = 0;
  uint64_t Hash = 14695981039346656037ull;
  bool operator==(const Fingerprint &) const = default;

  void add(const std::string &Text) {
    ++Obligations;
    for (unsigned char C : Text) {
      Hash ^= C;
      Hash *= 1099511628211ull;
    }
    Hash ^= 0xff; // Separates consecutive obligations.
    Hash *= 1099511628211ull;
  }
};

void PrintTo(const Fingerprint &F, std::ostream *OS) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "{%zu, %zu, %zu, %zu, %zu, 0x%016" PRIx64
                "ull}", F.Obligations, F.Candidates, F.VerifierCalls, F.Hits,
                F.Misses, F.Hash);
  *OS << Buf;
}

/// Generates \p Ob with \p Gen and folds the outcome into \p Out.
void addOutcome(AssumptionGenerator &Gen, SolverService &Svc,
                const Obligation &Ob,
                const std::vector<SequentialProgram> &ExcludedSeq,
                const std::vector<LoopProgram> &ExcludedLoop,
                Fingerprint &Out) {
  SygusStats Stats;
  std::optional<GeneratedAssumption> G =
      Gen.generate(Ob, ExcludedSeq, ExcludedLoop, &Stats);
  Out.Candidates += Stats.CandidatesTried;
  Out.VerifierCalls += Stats.VerifierCalls;
  Out.Hits = Svc.cache().hits();
  Out.Misses = Svc.cache().misses();
  Out.add(Ob.str() + " => " + (G ? G->Assumption->str() : "none") +
          " | " + std::to_string(Stats.CandidatesTried) + " " +
          std::to_string(Stats.VerifierCalls) + " " +
          std::to_string(Out.Hits) + " " + std::to_string(Out.Misses));
}

Fingerprint rowFingerprint(const std::string &Row) {
  Fingerprint Out;
  Context Ctx;
  auto Spec = parseSpecification(findBenchmark(Row)->Source, Ctx);
  EXPECT_TRUE(Spec.ok());
  if (!Spec.ok())
    return Out;
  Decomposition D = decompose(*Spec, Ctx);
  SolverService Svc(Spec->Th);
  AssumptionGenerator Gen(*Spec, Ctx);
  Gen.setService(&Svc);
  for (const Obligation &Ob : D.Obligations)
    addOutcome(Gen, Svc, Ob, {}, {}, Out);
  return Out;
}

/// CFS's refinement re-synthesis: the first assumption of the eager
/// round that CHECK-SAT finds unhelpful, generated again with its
/// program excluded, on a fresh service.
Fingerprint cfsRefinedFingerprint() {
  Fingerprint Out;
  Context Ctx;
  auto Spec = parseSpecification(findBenchmark("CFS")->Source, Ctx);
  EXPECT_TRUE(Spec.ok());
  if (!Spec.ok())
    return Out;
  PipelineResult Round0;
  Synthesizer Synth(Ctx);
  const std::vector<RefinementCheck> Checks =
      Synth.firstRoundChecks(*Spec, PipelineOptions(), Round0);
  for (size_t I = 0; I < Checks.size(); ++I) {
    if (decideRefinementCheck(Checks[I], Ctx, Deadline(), {}) != false)
      continue;
    const GeneratedAssumption &A = Round0.SygusAssumptions[I];
    std::vector<SequentialProgram> ExcludedSeq;
    std::vector<LoopProgram> ExcludedLoop;
    if (A.IsLoop)
      ExcludedLoop.push_back(A.Loop);
    else
      ExcludedSeq.push_back(A.Sequential);
    SolverService Svc(Spec->Th);
    AssumptionGenerator Gen(*Spec, Ctx);
    Gen.setService(&Svc);
    addOutcome(Gen, Svc, A.Ob, ExcludedSeq, ExcludedLoop, Out);
    break;
  }
  return Out;
}

struct Recorded {
  const char *Name;
  Fingerprint Expected;
};

void PrintTo(const Recorded &R, std::ostream *OS) { *OS << R.Name; }

Fingerprint compute(const std::string &Name) {
  if (Name == "Row_CFS_refined")
    return cfsRefinedFingerprint();
  return rowFingerprint(Name.substr(4));
}

// {obligations, candidates, verifier calls, cache hits, cache misses, hash}
// clang-format off
const Recorded Expected[] = {
    {"Row_Vibrato", {2, 81, 0, 0, 2, 0xefe5670e53280eb4ull}},
    {"Row_Modulation", {8, 243, 43, 31, 20, 0x3d80c2f76a1d6f56ull}},
    {"Row_Intertwined", {2, 81, 0, 0, 2, 0xefe5670e53280eb4ull}},
    {"Row_Multi-effect", {2, 81, 0, 0, 2, 0xefe5670e53280eb4ull}},
    {"Row_Single-Player", {23, 499, 122, 64, 101, 0xb51255ef74d3a0baull}},
    {"Row_Two-Player", {34, 873, 242, 121, 190, 0xd8f24e53f0193731ull}},
    {"Row_Bouncing", {6, 243, 1, 4, 3, 0xcab37f7e6a6f308dull}},
    {"Row_Automatic", {34, 871, 206, 109, 170, 0x163a7aff6e5d6a22ull}},
    {"Row_Simple", {0, 0, 0, 0, 0, 0xcbf29ce484222325ull}},
    {"Row_Counting", {2, 0, 0, 0, 0, 0x66085ceeee642fb5ull}},
    {"Row_Bidirectional", {12, 0, 0, 0, 0, 0xb561a0b789d01bf7ull}},
    {"Row_Smart", {6, 123, 0, 2, 1, 0x7cffdb7759b3b70full}},
    {"Row_Round Robin", {2, 81, 0, 0, 2, 0xdf0bf5f80d1839c4ull}},
    {"Row_Load Balancer", {8, 520, 186, 148, 50, 0xf9d485019f0f46c1ull}},
    {"Row_Preemptive", {10, 86, 3, 1, 4, 0x31afb4c691ce46d3ull}},
    {"Row_CFS", {20, 516, 209, 173, 42, 0xa995f9db266a0e14ull}},
    {"Row_CFS_refined", {1, 86, 39, 31, 9, 0x1ba21053ad709261ull}},
};
// clang-format on

class SygusFingerprint : public ::testing::TestWithParam<Recorded> {};

TEST_P(SygusFingerprint, ProgramsWorkAndQueriesMatchTheRecord) {
  EXPECT_EQ(compute(GetParam().Name), GetParam().Expected);
}

std::string testName(std::string Name) {
  for (char &C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllRows, SygusFingerprint, ::testing::ValuesIn(Expected),
    [](const ::testing::TestParamInfo<Recorded> &Info) {
      return testName(Info.param.Name);
    });

TEST(SygusFingerprintCoverage, EveryRowIsRecorded) {
  for (const BenchmarkSpec &B : allBenchmarks()) {
    const std::string Name = std::string("Row_") + B.Name;
    EXPECT_TRUE(std::any_of(std::begin(Expected), std::end(Expected),
                            [&](const Recorded &R) { return R.Name == Name; }))
        << Name;
  }
}

} // namespace
