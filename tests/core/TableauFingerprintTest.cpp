//===- tests/core/TableauFingerprintTest.cpp - NBA identity across rewrites ===//
///
/// \file
/// Pins the exact automata the tableau builds for every bundled row, so
/// that a rewrite of buildNba's internals can show it produces the same
/// NBAs byte for byte. The inputs of a row are the negated formula of
/// its first eager round over that round's alphabet (the UCW the game
/// reads) and, for every SyGuS assumption, the Core and Full formulas of
/// Alg. 4's CHECK-SAT over the check's alphabet.
///
/// Each input is built three times: without a cache, with a fresh
/// TableauCache, and again from the now-warm cache. Every build must
/// give the recorded fingerprint: the state count plus a hash of the
/// allowed input letters and, per state, its transitions in order
/// (guard care/value bits, update requirements in order, target and
/// accepting flag).
///
/// Each input is its own test. Inputs whose builds take seconds run only
/// when TEMOS_GOLDEN_SLOW is set, mirroring the golden-file suite.
///
//===----------------------------------------------------------------------===//

#include "core/Synthesizer.h"

#include "automata/Tableau.h"
#include "benchmarks/Benchmarks.h"
#include "logic/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

using namespace temos;

namespace {

/// One build's identity: the state count and a hash of the transitions.
struct Fingerprint {
  size_t States = 0;
  uint64_t Hash = 0;
  bool operator==(const Fingerprint &) const = default;
};

void PrintTo(const Fingerprint &F, std::ostream *OS) {
  *OS << F.States << " states, hash " << std::hex << F.Hash << std::dec;
}

/// FNV-1a over the textual rendering of every state's transitions.
Fingerprint fingerprint(const Nba &A, bool BudgetExceeded) {
  std::string Text = BudgetExceeded ? "budget\n" : "";
  char Buf[64];
  Text += "inputs:";
  for (uint32_t In : A.inputs()) {
    std::snprintf(Buf, sizeof(Buf), " %x", In);
    Text += Buf;
  }
  Text += '\n';
  for (uint32_t Q = 0; Q < A.stateCount(); ++Q) {
    std::snprintf(Buf, sizeof(Buf), "q%u%s:", Q,
                  Q == A.initial() ? "*" : "");
    Text += Buf;
    for (const Nba::Transition &T : A.transitions(Q)) {
      std::snprintf(Buf, sizeof(Buf), " %x/%x[", T.Guard.InputCare,
                    T.Guard.InputValue);
      Text += Buf;
      for (const LetterConstraint::UpdateReq &R : T.Guard.Updates) {
        std::snprintf(Buf, sizeof(Buf), "%u:%u%c", R.Cell, R.Option,
                      R.Positive ? '+' : '-');
        Text += Buf;
      }
      std::snprintf(Buf, sizeof(Buf), "]>%u%s", T.Target,
                    T.Accepting ? "!" : "");
      Text += Buf;
    }
    Text += '\n';
  }
  uint64_t Hash = 14695981039346656037ull;
  for (unsigned char C : Text) {
    Hash ^= C;
    Hash *= 1099511628211ull;
  }
  return {A.stateCount(), Hash};
}

/// A recorded fingerprint: row, input label, state count, hash, and
/// whether the three builds take seconds (gated behind
/// TEMOS_GOLDEN_SLOW).
struct Recorded {
  const char *Row;
  const char *Input;
  size_t States;
  uint64_t Hash;
  bool Slow;
};

// Recorded when the tableau began peeling top-level input-only
// invariants (consistency cores of both polarities, input-only
// `always assume`s) into the automaton's allowed input letters.
const Recorded Expected[] = {
    {"Vibrato", "negated", 313, 0x18caf1756e7eededull, false},
    {"Vibrato", "core 0", 25, 0x5d03fb681abc76c3ull, false},
    {"Vibrato", "full 0", 109, 0x116cf175bf783a18ull, false},
    {"Vibrato", "core 1", 26, 0x495ad8c70e608869ull, false},
    {"Vibrato", "full 1", 109, 0x1bf648098c404a78ull, false},
    {"Modulation", "negated", 345, 0x2839921a745c57d1ull, false},
    {"Modulation", "core 0", 25, 0x179596cd183b472full, false},
    {"Modulation", "full 0", 109, 0xc6f4fada3036cd5aull, false},
    {"Modulation", "core 1", 26, 0xe75ca9cded27a72full, false},
    {"Modulation", "full 1", 109, 0xae737b4bc0e54d2cull, false},
    {"Intertwined", "negated", 409, 0x0eed9f576c6df581ull, false},
    {"Intertwined", "core 0", 25, 0x3d6626ad672bbd91ull, false},
    {"Intertwined", "full 0", 109, 0x96d6c4b6373957ceull, true},
    {"Intertwined", "core 1", 26, 0xffc29eec2274b8fdull, false},
    {"Intertwined", "full 1", 109, 0xb06f3c93fe9ef048ull, true},
    {"Multi-effect", "negated", 565, 0x82aa18d7daf3f2e7ull, false},
    {"Multi-effect", "core 0", 52, 0x22574ab583bee7f2ull, false},
    {"Multi-effect", "full 0", 216, 0x6d52f5d0bfd57bf5ull, true},
    {"Multi-effect", "core 1", 54, 0xb5ab2bd30faac62bull, false},
    {"Multi-effect", "full 1", 216, 0x11d8b160258f6bf9ull, true},
    {"Single-Player", "negated", 145, 0x2f12e3316eacacd5ull, false},
    {"Single-Player", "core 0", 11, 0x52268f5da3b722a0ull, false},
    {"Single-Player", "full 0", 277, 0xe28af5a5c4e6f634ull, false},
    {"Single-Player", "core 1", 4, 0xf8222968bf2cdceeull, false},
    {"Single-Player", "full 1", 81, 0xa6a8957e9c1b1f51ull, false},
    {"Single-Player", "core 2", 4, 0xf8222968bf2cdceeull, false},
    {"Single-Player", "full 2", 81, 0xa6a8957e9c1b1f51ull, false},
    {"Two-Player", "negated", 209, 0xdfc4844f40e37b8full, false},
    {"Two-Player", "core 0", 11, 0xb56de738f838aa9cull, false},
    {"Two-Player", "full 0", 277, 0xfa985a33751bb465ull, true},
    {"Two-Player", "core 1", 4, 0xa9955eb7fb181b77ull, false},
    {"Two-Player", "full 1", 81, 0x70b675b80cec3f26ull, false},
    {"Two-Player", "core 2", 4, 0xa9955eb7fb181b77ull, false},
    {"Two-Player", "full 2", 81, 0x70b675b80cec3f26ull, false},
    {"Bouncing", "negated", 357, 0xed3911e5885477c6ull, false},
    {"Bouncing", "core 0", 8, 0x8e46a1373bcae847ull, false},
    {"Bouncing", "full 0", 48, 0x2887888308d8f3f0ull, false},
    {"Bouncing", "core 1", 23, 0x05ecfed5dff5b985ull, false},
    {"Bouncing", "full 1", 93, 0xa8e4a6aeff8d80f9ull, false},
    {"Automatic", "negated", 1281, 0xfc85cab02134d41full, false},
    {"Automatic", "core 0", 11, 0xd081fe75d832985eull, false},
    {"Automatic", "full 0", 849, 0xaf5d13fc7c0c367cull, true},
    {"Automatic", "core 1", 4, 0x6378150a7fdeada1ull, false},
    {"Automatic", "full 1", 337, 0xf0673c41547547ddull, true},
    {"Automatic", "core 2", 11, 0x43623b60e5488b5dull, false},
    {"Automatic", "full 2", 1169, 0xa55e5640fd17c7b0ull, true},
    {"Automatic", "core 3", 4, 0x6378150a7fdeada1ull, false},
    {"Automatic", "full 3", 337, 0xf0673c41547547ddull, true},
    {"Simple", "negated", 4, 0x8f2f0414ed693656ull, false},
    {"Counting", "negated", 5, 0x57169e484e55cb72ull, false},
    {"Bidirectional", "negated", 8, 0xad9fd405bc376777ull, false},
    {"Smart", "negated", 44, 0xaa3a53bb8c0b42b7ull, false},
    {"Smart", "core 0", 13, 0x77baa19accf48282ull, false},
    {"Smart", "full 0", 42, 0xd179a5ecae6f3f93ull, false},
    {"Round Robin", "negated", 381, 0xda3a8bd4ffc38be1ull, false},
    {"Round Robin", "core 0", 143, 0xeadb16e267e8d498ull, false},
    {"Round Robin", "full 0", 416, 0x4e5b9d333537f5a1ull, false},
    {"Round Robin", "core 1", 47, 0x9380d20728288981ull, false},
    {"Round Robin", "full 1", 324, 0xba0fab265d16544bull, false},
    {"Load Balancer", "negated", 5057, 0x31a99b5299679dacull, true},
    {"Load Balancer", "core 0", 27, 0x2dbf3a56def19157ull, false},
    {"Load Balancer", "full 0", 429, 0x3a06ebf1f9046b75ull, true},
    {"Load Balancer", "core 1", 9, 0x29e66a283655021eull, false},
    {"Load Balancer", "full 1", 257, 0x2170f1d5af544403ull, true},
    {"Load Balancer", "core 2", 9, 0xfed26943f84e3f37ull, false},
    {"Load Balancer", "full 2", 145, 0x0b8faca549aaffe2ull, true},
    {"Load Balancer", "core 3", 11, 0x70099b89757fc8edull, false},
    {"Load Balancer", "full 3", 421, 0xec7971a926756c2full, true},
    {"Load Balancer", "core 4", 28, 0x37043eb67df47003ull, false},
    {"Load Balancer", "full 4", 1033, 0x4f397c5f16836d99ull, true},
    {"Preemptive", "negated", 277, 0x292f27faf073a9b4ull, false},
    {"Preemptive", "core 0", 37, 0x9c5a8776552b719bull, false},
    {"Preemptive", "full 0", 177, 0xe4a4463017ae618dull, false},
    {"Preemptive", "core 1", 23, 0x10c8d2adf732e388ull, false},
    {"Preemptive", "full 1", 205, 0x6c5c7aa4ad4f0ad3ull, false},
    {"CFS", "negated", 465, 0xcfefb34e96ca472full, false},
    {"CFS", "core 0", 7, 0x81cfde5b4922c0daull, false},
    {"CFS", "full 0", 81, 0xb78fddb4c5b7fdb7ull, true},
    {"CFS", "core 1", 16, 0x6e5f99520d99b3c0ull, false},
    {"CFS", "full 1", 265, 0x5ecc3f8243ab8962ull, true},
};

void PrintTo(const Recorded &R, std::ostream *OS) {
  *OS << R.Row << " " << R.Input;
}

/// The inputs of a row, in order: the negated first eager-round formula
/// over its alphabet, then each SyGuS assumption's Core and Full check.
struct Input {
  std::string Label;
  const Formula *F;
  Alphabet AB;
};

std::vector<Input> rowInputs(const Specification &Spec, Context &Ctx) {
  Synthesizer Synth(Ctx);
  PipelineResult Result;
  const std::vector<RefinementCheck> Checks =
      Synth.firstRoundChecks(Spec, PipelineOptions(), Result);
  const std::vector<const Formula *> ForAlphabet =
      Synth.alphabetFormulas(Spec, Result.Assumptions);
  std::vector<Input> Inputs = {{"negated",
                                Ctx.Formulas.notF(ForAlphabet.back()),
                                Alphabet::build(Spec, Ctx, ForAlphabet)}};
  for (size_t I = 0; I < Checks.size(); ++I) {
    Inputs.push_back({"core " + std::to_string(I), Checks[I].Core,
                      Checks[I].AB});
    Inputs.push_back({"full " + std::to_string(I), Checks[I].Full,
                      Checks[I].AB});
  }
  return Inputs;
}

class TableauFingerprint : public ::testing::TestWithParam<Recorded> {};

TEST_P(TableauFingerprint, MatchesTheRecordedNba) {
  const Recorded &Want = GetParam();
  if (Want.Slow && !std::getenv("TEMOS_GOLDEN_SLOW"))
    GTEST_SKIP() << "set TEMOS_GOLDEN_SLOW to run " << Want.Row << " "
                 << Want.Input;
  const BenchmarkSpec *B = findBenchmark(Want.Row);
  ASSERT_NE(B, nullptr);
  Context Ctx;
  auto Spec = parseSpecification(B->Source, Ctx);
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();

  const std::vector<Input> Inputs = rowInputs(*Spec, Ctx);
  size_t RecordedInputs = 0;
  for (const Recorded &R : Expected)
    RecordedInputs += std::string(R.Row) == Want.Row;
  EXPECT_EQ(Inputs.size(), RecordedInputs) << Want.Row << ": input count";
  auto In = std::find_if(Inputs.begin(), Inputs.end(), [&](const Input &I) {
    return I.Label == Want.Input;
  });
  ASSERT_NE(In, Inputs.end()) << Want.Row << " has no input " << Want.Input;

  auto Build = [&](TableauCache *Cache) {
    TableauStats Stats;
    Nba A = buildNba(In->F, Ctx, In->AB, &Stats, TableauLimits(), Cache);
    return fingerprint(A, Stats.BudgetExceeded);
  };
  const Fingerprint Uncached = Build(nullptr);
  TableauCache Cache;
  const Fingerprint Fresh = Build(&Cache);
  const Fingerprint Warm = Build(&Cache);
  EXPECT_EQ(Cache.hits(), Cache.misses()) << "the warm build missed";

  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "{\"%s\", \"%s\", %zu, 0x%016" PRIx64 "ull, ...},", Want.Row,
                Want.Input, Uncached.States, Uncached.Hash);
  const Fingerprint Pinned{Want.States, Want.Hash};
  EXPECT_EQ(Uncached, Pinned) << "built: " << Line;
  EXPECT_EQ(Fresh, Pinned) << "fresh cache";
  EXPECT_EQ(Warm, Pinned) << "warm cache";
}

INSTANTIATE_TEST_SUITE_P(
    AllInputs, TableauFingerprint, ::testing::ValuesIn(Expected),
    [](const ::testing::TestParamInfo<Recorded> &Info) {
      std::string Name = std::string(Info.param.Row) + "_" + Info.param.Input;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

} // namespace
