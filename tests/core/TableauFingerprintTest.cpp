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
/// give the recorded fingerprint: the state count plus a hash of, per
/// state, its transitions in order (guard care/value bits, update
/// requirements in order, target and accepting flag).
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

// Recorded from the tableau as it stood before its per-state expansion
// was rewritten around one expansion-law table.
const Recorded Expected[] = {
    {"Vibrato", "negated", 485, 0x1a2a7010533d53e9ull, false},
    {"Vibrato", "core 0", 44, 0x7b1d805673fc1342ull, false},
    {"Vibrato", "full 0", 373, 0x54d1b76b7d8e70e3ull, false},
    {"Vibrato", "core 1", 43, 0xfcb7ba20ec8504c2ull, false},
    {"Vibrato", "full 1", 309, 0xbb86ffd46a169e85ull, false},
    {"Modulation", "negated", 533, 0x3952dc0d8f044d5aull, false},
    {"Modulation", "core 0", 44, 0x8fe1a707742375edull, false},
    {"Modulation", "full 0", 373, 0x8d42dd561a71079aull, false},
    {"Modulation", "core 1", 43, 0x29f951dc286e7cf5ull, false},
    {"Modulation", "full 1", 309, 0x8a57b163c1ef6507ull, false},
    {"Intertwined", "negated", 629, 0x23123a00a862f972ull, false},
    {"Intertwined", "core 0", 44, 0x04ba62482fe6a35eull, false},
    {"Intertwined", "full 0", 373, 0x7355fb01d58205f7ull, true},
    {"Intertwined", "core 1", 45, 0xb43ee015811b8f3bull, false},
    {"Intertwined", "full 1", 321, 0x466909d4f1f67d8aull, true},
    {"Multi-effect", "negated", 861, 0x444232c22a95cfd2ull, false},
    {"Multi-effect", "core 0", 90, 0xbb215ff86dc29581ull, false},
    {"Multi-effect", "full 0", 679, 0x09b579dd23c5b530ull, true},
    {"Multi-effect", "core 1", 100, 0x301596dd752c6fdbull, false},
    {"Multi-effect", "full 1", 617, 0x100b76e4c261515aull, true},
    {"Single-Player", "negated", 145, 0x8bdbbee3f81c4c62ull, false},
    {"Single-Player", "core 0", 11, 0x496d699c239dcbfdull, false},
    {"Single-Player", "full 0", 277, 0xc86dbca56c325fc7ull, false},
    {"Single-Player", "core 1", 4, 0x89170c3c14f0635full, false},
    {"Single-Player", "full 1", 81, 0xef80e45ad336b1d3ull, false},
    {"Single-Player", "core 2", 4, 0x89170c3c14f0635full, false},
    {"Single-Player", "full 2", 81, 0xef80e45ad336b1d3ull, false},
    {"Two-Player", "negated", 209, 0xc42411ab8dca6f81ull, false},
    {"Two-Player", "core 0", 11, 0x466953cb7b016bbeull, false},
    {"Two-Player", "full 0", 277, 0x6bcb4ee09ac5fc03ull, true},
    {"Two-Player", "core 1", 4, 0xe6838f4e4ee82425ull, false},
    {"Two-Player", "full 1", 81, 0x6980c9e8fd2eff33ull, false},
    {"Two-Player", "core 2", 4, 0xe6838f4e4ee82425ull, false},
    {"Two-Player", "full 2", 81, 0x6980c9e8fd2eff33ull, false},
    {"Bouncing", "negated", 357, 0xb13964827e5075aeull, false},
    {"Bouncing", "core 0", 8, 0x91117130becc48e1ull, false},
    {"Bouncing", "full 0", 48, 0x276dad9138be2bd6ull, false},
    {"Bouncing", "core 1", 23, 0xb412b114c365d38bull, false},
    {"Bouncing", "full 1", 93, 0xd8c7c6a8b4e247c7ull, false},
    {"Automatic", "negated", 1281, 0x72f9c9c5b1a6545bull, false},
    {"Automatic", "core 0", 11, 0x76db7d843c0a6e68ull, false},
    {"Automatic", "full 0", 849, 0x5abcc4f0ee1cc931ull, true},
    {"Automatic", "core 1", 4, 0xb39f1ce15128592full, false},
    {"Automatic", "full 1", 337, 0x88ff253dc27ecf93ull, true},
    {"Automatic", "core 2", 11, 0x30417508b0394408ull, false},
    {"Automatic", "full 2", 1169, 0x56be2f1c93afbeccull, true},
    {"Automatic", "core 3", 4, 0xb39f1ce15128592full, false},
    {"Automatic", "full 3", 337, 0x88ff253dc27ecf93ull, true},
    {"Simple", "negated", 4, 0xa60ebc8f433af59aull, false},
    {"Counting", "negated", 5, 0x1120fbb8a3a89cbfull, false},
    {"Bidirectional", "negated", 8, 0x88cac0133569f260ull, false},
    {"Smart", "negated", 44, 0xac18edb97093b7b8ull, false},
    {"Smart", "core 0", 13, 0xfa59847a0e51e6f5ull, false},
    {"Smart", "full 0", 42, 0xcbda0c97cbbc76caull, false},
    {"Round Robin", "negated", 573, 0xf26832cf7fdc3cd4ull, false},
    {"Round Robin", "core 0", 143, 0x7ec23647c5d7afaaull, false},
    {"Round Robin", "full 0", 801, 0x1d52e732a5adf1d3ull, false},
    {"Round Robin", "core 1", 47, 0x351ae003ddeda2b5ull, false},
    {"Round Robin", "full 1", 572, 0xffffdcfca96cdf13ull, false},
    {"Load Balancer", "negated", 5057, 0x4f0bccfd60c8555bull, true},
    {"Load Balancer", "core 0", 27, 0xbf94cbcd006646b9ull, false},
    {"Load Balancer", "full 0", 429, 0xeb9f7f2fefff5f2bull, true},
    {"Load Balancer", "core 1", 9, 0x8349869511d18eacull, false},
    {"Load Balancer", "full 1", 257, 0x519cb4af75973c29ull, true},
    {"Load Balancer", "core 2", 9, 0x1cf8c2beb4a2feddull, false},
    {"Load Balancer", "full 2", 145, 0x112e7216e1d9a2c0ull, true},
    {"Load Balancer", "core 3", 11, 0xa65009fbb520b637ull, false},
    {"Load Balancer", "full 3", 421, 0x58cb7dd104643361ull, true},
    {"Load Balancer", "core 4", 28, 0x7621f0022577a559ull, false},
    {"Load Balancer", "full 4", 1033, 0x780c1bc27b22f6e3ull, true},
    {"Preemptive", "negated", 293, 0x19859940b064ec8aull, false},
    {"Preemptive", "core 0", 37, 0xe9351eb5a45cbcb6ull, false},
    {"Preemptive", "full 0", 177, 0xb6fbb2f0433dab81ull, false},
    {"Preemptive", "core 1", 23, 0xaae36317ff983249ull, false},
    {"Preemptive", "full 1", 261, 0xd4f090b093585803ull, false},
    {"CFS", "negated", 465, 0xa9c11baafa451ef6ull, false},
    {"CFS", "core 0", 7, 0x59d61d492803e4c2ull, false},
    {"CFS", "full 0", 81, 0x6a2379abea6eb602ull, true},
    {"CFS", "core 1", 16, 0xb76c9dddce1ac389ull, false},
    {"CFS", "full 1", 265, 0x03a02c88f8d7f04dull, true},
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
