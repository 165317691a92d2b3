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
/// allowed input letters and, per state, its edges in order (input
/// care/value bits, target, accepting flag and the mask of output
/// letters).
///
/// Each input is its own test. Besides the bundled rows, a synthetic
/// row pins two inputs whose closures are wider than any row's.
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
#include <ostream>
#include <set>
#include <string>
#include <tuple>
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

/// FNV-1a over the textual rendering of every state's edges in order,
/// each with its mask of output letters (one hex word per 64 letters).
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
    const std::vector<Nba::Edge> &Edges = A.edges(Q);
    for (size_t I = 0; I < Edges.size(); ++I) {
      const Nba::Edge &E = Edges[I];
      std::snprintf(Buf, sizeof(Buf), " %x/%x>%u%s[", E.InputCare,
                    E.InputValue, E.Target, E.Accepting ? "!" : "");
      Text += Buf;
      for (size_t W = 0; W < A.outputWords(); ++W) {
        std::snprintf(Buf, sizeof(Buf), "%" PRIx64 ";", A.outputs(Q, I)[W]);
        Text += Buf;
      }
      Text += ']';
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

/// A recorded fingerprint: row, input label, state count and hash.
struct Recorded {
  const char *Row;
  const char *Input;
  size_t States;
  uint64_t Hash;
};

// Recorded in the edge form (masks of output letters per (target,
// accepting, input cube)), on the tableau that peels top-level
// input-only invariants into the automaton's allowed input letters.
const Recorded Expected[] = {
    {"Vibrato", "negated", 313, 0x2c9e127bd14ce118ull},
    {"Vibrato", "core 0", 25, 0x4df8973d5a5bb329ull},
    {"Vibrato", "full 0", 109, 0x996f1338209af0ccull},
    {"Vibrato", "core 1", 26, 0x8bb3673d37841ee5ull},
    {"Vibrato", "full 1", 109, 0x1bdc0e5e2778430dull},
    {"Modulation", "negated", 345, 0x3f744042d4feb8c4ull},
    {"Modulation", "core 0", 25, 0x3e00167b96fe736bull},
    {"Modulation", "full 0", 109, 0xbca2e4121b6b53a6ull},
    {"Modulation", "core 1", 26, 0x3c8830c6c42587fbull},
    {"Modulation", "full 1", 109, 0xae0193c6b2f3a7ccull},
    {"Intertwined", "negated", 409, 0x1f716c51be3bc8e7ull},
    {"Intertwined", "core 0", 25, 0xb41593eee527ff39ull},
    {"Intertwined", "full 0", 109, 0xfeaf7d5852b61048ull},
    {"Intertwined", "core 1", 26, 0xe9917affe610c8b5ull},
    {"Intertwined", "full 1", 109, 0x80ccc77a6bdecb97ull},
    {"Multi-effect", "negated", 565, 0x1bf8729515f3e2a1ull},
    {"Multi-effect", "core 0", 52, 0x1c5fe6a02e6c1ef9ull},
    {"Multi-effect", "full 0", 216, 0x36f8c67fa1900147ull},
    {"Multi-effect", "core 1", 54, 0x375406e3f45b2087ull},
    {"Multi-effect", "full 1", 216, 0x68de94ce2205d7daull},
    {"Single-Player", "negated", 145, 0xe3df5a664da176f9ull},
    {"Single-Player", "core 0", 11, 0x4a5f22befdc48acdull},
    {"Single-Player", "full 0", 277, 0x3f278f4bf8c85d3aull},
    {"Single-Player", "core 1", 4, 0x00ebfef30e7a53a6ull},
    {"Single-Player", "full 1", 81, 0x2f1cf96652b53af7ull},
    {"Single-Player", "core 2", 4, 0x00ebfef30e7a53a6ull},
    {"Single-Player", "full 2", 81, 0x2f1cf96652b53af7ull},
    {"Two-Player", "negated", 209, 0x7d438b11a821a86cull},
    {"Two-Player", "core 0", 11, 0xb2e4179aaf7a3cecull},
    {"Two-Player", "full 0", 277, 0xf5a2b4e4303a0909ull},
    {"Two-Player", "core 1", 4, 0x4a3b22214ee57ca3ull},
    {"Two-Player", "full 1", 81, 0x4e911eed87f8c148ull},
    {"Two-Player", "core 2", 4, 0x4a3b22214ee57ca3ull},
    {"Two-Player", "full 2", 81, 0x4e911eed87f8c148ull},
    {"Bouncing", "negated", 357, 0x8764a824bbec6453ull},
    {"Bouncing", "core 0", 8, 0xfa69744f0ad3c854ull},
    {"Bouncing", "full 0", 48, 0x7bc5f2c672c6bf1eull},
    {"Bouncing", "core 1", 23, 0x0e69ac2af3eb7ab6ull},
    {"Bouncing", "full 1", 93, 0x92f0c22c6da29e81ull},
    {"Automatic", "negated", 1281, 0xf3a57c0edad8c1b3ull},
    {"Automatic", "core 0", 11, 0x161e8f316798702dull},
    {"Automatic", "full 0", 849, 0x163cc6329bf03f2aull},
    {"Automatic", "core 1", 4, 0x9ff8d182fab3adf1ull},
    {"Automatic", "full 1", 337, 0x5411b8168f9206bcull},
    {"Automatic", "core 2", 11, 0x03f530b46a6cde53ull},
    {"Automatic", "full 2", 1169, 0x976a9b5fd2a1245eull},
    {"Automatic", "core 3", 4, 0x9ff8d182fab3adf1ull},
    {"Automatic", "full 3", 337, 0x5411b8168f9206bcull},
    {"Simple", "negated", 4, 0x83f613fe81815400ull},
    {"Counting", "negated", 5, 0xa62e9e2069805a48ull},
    {"Bidirectional", "negated", 8, 0x7a2912a1905c969aull},
    {"Smart", "negated", 44, 0xebafb94720831e24ull},
    {"Smart", "core 0", 13, 0xcfb299b5773b374bull},
    {"Smart", "full 0", 42, 0x3a5d15c6b4258431ull},
    {"Round Robin", "negated", 381, 0x2c73fd89b563a8feull},
    {"Round Robin", "core 0", 143, 0x2f9822e692786a71ull},
    {"Round Robin", "full 0", 416, 0x107a56d63bbf0c8aull},
    {"Round Robin", "core 1", 47, 0xdde174aa0f52e3baull},
    {"Round Robin", "full 1", 324, 0x1c0560330f13840eull},
    {"Load Balancer", "negated", 5057, 0x532bdc97c4de819cull},
    {"Load Balancer", "core 0", 27, 0xd08848e01dd4f4b9ull},
    {"Load Balancer", "full 0", 429, 0x25ec2c93b0f38cf1ull},
    {"Load Balancer", "core 1", 9, 0x6c709f9535716a2cull},
    {"Load Balancer", "full 1", 257, 0xfed524ea32fe47a9ull},
    {"Load Balancer", "core 2", 9, 0x6c709f9535716a2cull},
    {"Load Balancer", "full 2", 145, 0x3c9bd616d9fecf53ull},
    {"Load Balancer", "core 3", 11, 0x1264dd0f9ab3dbaaull},
    {"Load Balancer", "full 3", 421, 0x1314cdd98b645c14ull},
    {"Load Balancer", "core 4", 28, 0x22cff12cbee183b2ull},
    {"Load Balancer", "full 4", 1033, 0x4c29fa8dba12b3aeull},
    {"Preemptive", "negated", 277, 0x02b2e1d3e34fa96dull},
    {"Preemptive", "core 0", 37, 0xe318886554287f97ull},
    {"Preemptive", "full 0", 177, 0x575a1dd68a9a1d57ull},
    {"Preemptive", "core 1", 23, 0x1cde6909f9328b06ull},
    {"Preemptive", "full 1", 205, 0xe96f4b3795099a34ull},
    {"CFS", "negated", 465, 0x979d2bab4d711d8bull},
    {"CFS", "core 0", 7, 0x5ae4671345dd1eeaull},
    {"CFS", "full 0", 81, 0xc8deb771531352f3ull},
    {"CFS", "core 1", 16, 0x330e02f0d00fe1afull},
    {"CFS", "full 1", 265, 0x566fe5aee4bbfc87ull},
    // Synthetic: closures wider than one and two words (wideInputs).
    {"Wide closure", "over 64", 69, 0xfccf4bb0ba4d6588ull},
    {"Wide closure", "over 128", 190, 0x43b95630b1051bf4ull},
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

/// The synthetic row whose inputs have wider closures than any bundled
/// row's (Multi-effect's, 66 formulas, is the widest).
constexpr const char *WideRow = "Wide closure";

/// A chain of \p Depth nested obligations, each level one of F, U, W or
/// R over a rotating literal, ending in G F q and conjoined with a
/// response invariant. Every F and U level is an acceptance set, and
/// each level adds its own connective, conjunction and Next to the
/// closure.
std::string wideChain(unsigned Depth) {
  const char *Literals[] = {"p",  "! q",  "[x <- x + 1]",
                            "q",  "! [x <- x - 1]", "! p"};
  std::string Chain = "G (F q)";
  for (unsigned I = Depth; I-- > 0;) {
    const std::string A = Literals[I % 6], B = Literals[(I + 3) % 6];
    const std::string Step = "(" + A + " && X " + Chain + ")";
    switch (I % 4) {
    case 0:
      Chain = "(F " + Step + ")";
      break;
    case 1:
      Chain = "(" + B + " U " + Step + ")";
      break;
    case 2:
      Chain = "(" + B + " W " + Step + ")";
      break;
    default:
      Chain = "(" + Step + " R " + B + ")";
      break;
    }
  }
  return Chain + " && G (p -> X (q || [x <- x - 1]))";
}

/// The wide-closure inputs: chains whose NNF closures cross the second
/// and third 64-formula word, the deeper one with more than 32
/// acceptance sets.
std::vector<Input> wideInputs(Context &Ctx) {
  auto Spec = parseSpecification(R"(
    #LIA#
    inputs { bool p, q; }
    cells { int x = 0; }
    always guarantee {
      G (p -> [x <- x + 1]);
      G (q -> [x <- x - 1]);
    }
  )", Ctx);
  EXPECT_TRUE(Spec.ok()) << Spec.error().str();
  std::vector<Input> Inputs;
  for (auto [Label, Depth] : {std::pair<const char *, unsigned>{"over 64", 24},
                              {"over 128", 68}}) {
    auto F = parseFormula(wideChain(Depth), *Spec, Ctx);
    EXPECT_TRUE(F.ok()) << F.error().str();
    Inputs.push_back({Label, *F, Alphabet::build(*Spec, Ctx, {*F})});
  }
  return Inputs;
}

/// Distinct subformulas of \p F, and how many of them are Until or
/// Finally (the tableau's acceptance sets).
std::pair<size_t, size_t> closureSize(const Formula *F) {
  std::set<const Formula *> Seen;
  size_t Acceptance = 0;
  std::vector<const Formula *> Stack = {F};
  while (!Stack.empty()) {
    const Formula *G = Stack.back();
    Stack.pop_back();
    if (!Seen.insert(G).second)
      continue;
    Acceptance +=
        G->is(Formula::Kind::Until) || G->is(Formula::Kind::Finally);
    Stack.insert(Stack.end(), G->children().begin(), G->children().end());
  }
  return {Seen.size(), Acceptance};
}

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
  Context Ctx;
  std::vector<Input> Inputs;
  if (std::string(Want.Row) == WideRow) {
    Inputs = wideInputs(Ctx);
  } else {
    const BenchmarkSpec *B = findBenchmark(Want.Row);
    ASSERT_NE(B, nullptr);
    auto Spec = parseSpecification(B->Source, Ctx);
    ASSERT_TRUE(Spec.ok()) << Spec.error().str();
    Inputs = rowInputs(*Spec, Ctx);
  }
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

/// The wide inputs cross the word boundaries they are there for: a
/// closure of more than 64 and of more than 128 formulas, the second
/// with more than 32 acceptance sets.
TEST(TableauWideClosure, CrossesTheWordBoundaries) {
  Context Ctx;
  const std::vector<Input> Inputs = wideInputs(Ctx);
  ASSERT_EQ(Inputs.size(), 2u);
  auto [Over64, Acc64] = closureSize(Ctx.Formulas.toNNF(Inputs[0].F));
  EXPECT_GT(Over64, 64u);
  EXPECT_LE(Over64, 128u);
  EXPECT_GT(Acc64, 0u);
  auto [Over128, Acc128] = closureSize(Ctx.Formulas.toNNF(Inputs[1].F));
  EXPECT_GT(Over128, 128u);
  EXPECT_GT(Acc128, 32u);
  EXPECT_LE(Acc128, MaxAcceptanceSets);
}

/// The edge form on each row's UCW (its negated first-round input): every
/// edge admits an output letter and an allowed input letter, a state has
/// one edge per (target, accepting, input cube), and no edge leads into
/// a state without edges (the states that could never cross an accepting
/// edge lost theirs, and every edge into them, when the tableau dropped
/// dead edges).
class TableauEdges : public ::testing::TestWithParam<std::string> {};

TEST_P(TableauEdges, OneEdgePerKeyWithLettersIntoStatesWithEdges) {
  const BenchmarkSpec *B = findBenchmark(GetParam());
  ASSERT_NE(B, nullptr);
  Context Ctx;
  auto Spec = parseSpecification(B->Source, Ctx);
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  const Input Negated = rowInputs(*Spec, Ctx).front();
  ASSERT_EQ(Negated.Label, "negated");

  TableauStats Stats;
  const Nba A = buildNba(Negated.F, Ctx, Negated.AB, &Stats);
  ASSERT_FALSE(Stats.BudgetExceeded);
  const size_t NumOutputs = Negated.AB.outputLetterCount();
  ASSERT_EQ(A.outputWords(), (NumOutputs + 63) / 64);
  size_t EdgeCount = 0;
  for (uint32_t Q = 0; Q < A.stateCount(); ++Q) {
    const std::vector<Nba::Edge> &Edges = A.edges(Q);
    EdgeCount += Edges.size();
    std::set<std::tuple<uint32_t, bool, uint32_t, uint32_t>> Keys;
    for (size_t I = 0; I < Edges.size(); ++I) {
      const Nba::Edge &E = Edges[I];
      EXPECT_TRUE(
          Keys.insert({E.Target, E.Accepting, E.InputCare, E.InputValue})
              .second)
          << "q" << Q << " repeats the key of edge " << I;
      const uint64_t *Mask = A.outputs(Q, I);
      uint64_t Any = 0;
      for (size_t W = 0; W < A.outputWords(); ++W)
        Any |= Mask[W];
      EXPECT_NE(Any, 0u) << "q" << Q << " edge " << I << " has no letter";
      if (NumOutputs % 64) {
        EXPECT_EQ(Mask[A.outputWords() - 1] >> (NumOutputs % 64), 0u)
            << "q" << Q << " edge " << I << " has a letter past the last";
      }
      EXPECT_TRUE(std::any_of(A.inputs().begin(), A.inputs().end(),
                              [&](uint32_t In) {
                                return (In & E.InputCare) == E.InputValue;
                              }))
          << "q" << Q << " edge " << I << " has no allowed input letter";
      EXPECT_FALSE(A.edges(E.Target).empty())
          << "q" << Q << " edge " << I << " leads into a state without edges";
    }
  }
  EXPECT_EQ(EdgeCount, Stats.NbaTransitions);
}

std::vector<std::string> rowNames() {
  std::vector<std::string> Names;
  for (const BenchmarkSpec &B : allBenchmarks())
    Names.push_back(B.Name);
  return Names;
}

std::string testName(std::string Name) {
  for (char &C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(AllRows, TableauEdges, ::testing::ValuesIn(rowNames()),
                         [](const ::testing::TestParamInfo<std::string> &Info) {
                           return testName(Info.param);
                         });

INSTANTIATE_TEST_SUITE_P(
    AllInputs, TableauFingerprint, ::testing::ValuesIn(Expected),
    [](const ::testing::TestParamInfo<Recorded> &Info) {
      return testName(std::string(Info.param.Row) + "_" + Info.param.Input);
    });

} // namespace
