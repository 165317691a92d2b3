//===- tests/game/GameFingerprintTest.cpp - Game identity across rewrites ===//
///
/// \file
/// Pins what the counting game decides for every bundled row, so that a
/// rewrite of the successor relation can show it explores the same arena
/// and extracts the same machines. The inputs are each row's first eager
/// round (the negated round formula over the round's alphabet, as the
/// pipeline hands it to the engine), CFS's refined round, and synthetic
/// specs whose output alphabets have exactly 64, exactly 65 and more than
/// 128 letters (the word boundaries of a 64-letter mask) or whose game
/// fails bound 1 and escalates to bound 3 (which expands the states with
/// a move past bound 1's cutoff again). Their UCWs cross the word
/// boundaries of a game state's counter planes (one bit per UCW state,
/// one plane per counter value): UCWs of at most 64 states, UCWs whose
/// state count is not a multiple of 64, and a UCW of more than 64 states
/// at bound 3 (four planes).
///
/// Each input is solved with jobs 1, with jobs 4 and with
/// SynthesisOptions::Incremental off, each from a fresh engine. Every
/// configuration must give the recorded verdict, bound, game-state count
/// and a hash of the extracted Mealy machine (every edge in order).
///
/// Each (input, configuration) is its own test.
///
//===----------------------------------------------------------------------===//

#include "game/BoundedSynthesis.h"

#include "benchmarks/Benchmarks.h"
#include "core/Synthesizer.h"
#include "logic/Parser.h"
#include "support/SolverPool.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>
#include <tuple>

using namespace temos;

namespace {

/// What one engine call decided.
struct Fingerprint {
  Realizability Status = Realizability::Unknown;
  unsigned Bound = 0;
  size_t GameStates = 0;
  uint64_t Hash = 0;
  bool operator==(const Fingerprint &) const = default;
};

void PrintTo(const Fingerprint &F, std::ostream *OS) {
  *OS << realizabilityName(F.Status) << " at bound " << F.Bound << ", "
      << F.GameStates << " game states, machine hash " << std::hex << F.Hash
      << std::dec;
}

/// FNV-1a over the machine's initial state, the letters it answers and
/// every edge in order.
uint64_t machineHash(const std::optional<MealyMachine> &M) {
  uint64_t Hash = 14695981039346656037ull;
  auto Mix = [&](uint64_t V) {
    for (int Byte = 0; Byte < 8; ++Byte) {
      Hash ^= (V >> (8 * Byte)) & 0xff;
      Hash *= 1099511628211ull;
    }
  };
  if (!M)
    return Hash;
  Mix(M->stateCount());
  Mix(M->inputCount());
  Mix(M->inputs().size());
  for (uint32_t In : M->inputs())
    Mix(In);
  Mix(M->initialState());
  for (uint32_t S = 0; S < M->stateCount(); ++S)
    for (uint32_t In = 0; In < M->inputCount(); ++In) {
      Mix(M->edge(S, In).Output);
      Mix(M->edge(S, In).NextState);
    }
  return Hash;
}

/// A synthetic game: declarations, the guarantee the engine solves, and
/// the size of the output alphabet it is built for.
struct Synthetic {
  const char *Name;
  const char *Declarations;
  const char *Formula;
  size_t OutputLetters;
};

// Output letters are the products of each cell's option counts, the
// implicit self-update included.
const Synthetic Synthetics[] = {
    // 4 x 4 x 4 = 64 output letters: one full mask word.
    {"Out64", "#LIA#\ninputs { bool p; }\ncells { int a = 0; int b = 0; "
              "int c = 0; }\n",
     "G ([a <- a + 1] || [a <- a + 2] || [a <- 0]) && "
     "G F [b <- b + 1] && G F [b <- 0] && G ([b <- 0] -> X [b <- 5]) && "
     "G (p -> F [c <- c + 1]) && G (! p -> [c <- 0] || [c <- 7]) && "
     "G ([a <- 0] -> ! [c <- 0])",
     64},
    // 5 x 13 = 65 output letters: one word and one bit.
    {"Out65", "#LIA#\ninputs { bool p; bool q; }\ncells { int a = 0; "
              "int b = 0; }\n",
     "G ([a <- 1] || [a <- 2] || [a <- 3] || [a <- 4]) && "
     "G (p -> F ([b <- 1] || [b <- 2] || [b <- 3])) && "
     "G (q -> F ([b <- 4] || [b <- 5] || [b <- 6] || [b <- 7] || [b <- 8])) && "
     "G (([b <- 9] || [b <- 10] || [b <- 11] || [b <- 12]) -> X [a <- 4]) && "
     "G F [a <- 1]",
     65},
    // 3^5 = 243 output letters: four words, the last partly used.
    {"Out243", "#LIA#\ninputs { bool p; }\ncells { int a = 0; int b = 0; "
               "int c = 0; int d = 0; int e = 0; }\n",
     "G F [a <- a + 1] && G F [a <- 0] && G F [b <- b + 1] && "
     "G ([b <- 0] -> X [c <- c + 1]) && G (p -> F [c <- 0]) && "
     "G ([d <- d + 1] || [d <- 0]) && G (p -> [e <- e + 1] || [e <- 0]) && "
     "G ([a <- 0] -> ! [d <- 0])",
     243},
    // x <- 1 recurs, but each one forces x <- 2 and then x <- 3: two
    // steps without it, which bound 1 cannot count and bound 3 can.
    {"Escalate", "#LIA#\ninputs { bool p; }\ncells { int x = 0; int y = 0; "
                 "}\n",
     "G F [x <- 1] && G ([x <- 1] -> X [x <- 2]) && "
     "G ([x <- 2] -> X [x <- 3]) && G (p -> F [y <- y + 1])",
     8},
    // Escalate under an assumption on q's history: a UCW of more than 64
    // states whose game, like Escalate's, fails bound 1 and is won at
    // bound 3.
    {"Escalate wide", "#LIA#\ninputs { bool p; bool q; }\ncells { int x = 0; "
                      "int y = 0; }\n",
     "(G (q -> X X X X q)) -> (G F [x <- 1] && G ([x <- 1] -> X [x <- 2]) && "
     "G ([x <- 2] -> X [x <- 3]) && G (p -> F [y <- y + 1]))",
     8},
};

/// A recorded fingerprint: input, verdict, bound, game states and
/// machine hash.
struct Recorded {
  const char *Input;
  Realizability Status;
  unsigned Bound;
  size_t GameStates;
  uint64_t Hash;
};

constexpr Realizability Real = Realizability::Realizable;
constexpr Realizability Unreal = Realizability::Unrealizable;

// Recorded when the game began offering the environment only the UCW's
// allowed input letters.
const Recorded Expected[] = {
    {"Vibrato", Real, 1, 188, 0x3a5fe1ad90ec670dull},
    {"Modulation", Real, 1, 188, 0x56a6fec00b5f0f66ull},
    {"Intertwined", Real, 1, 368, 0xcc3e939b813a7319ull},
    {"Multi-effect", Real, 1, 1159, 0x4c5b6e4fe0863f91ull},
    {"Single-Player", Real, 1, 37, 0x1f219cc8ebc448cdull},
    {"Two-Player", Real, 1, 67, 0xb314f8c148955379ull},
    {"Bouncing", Real, 1, 138, 0xee7e2b2517489affull},
    {"Automatic", Real, 1, 81, 0xa65a8b3d53ec8009ull},
    {"Simple", Real, 1, 3, 0xd44271c2c320c266ull},
    {"Counting", Real, 1, 3, 0x5d314903842a9f27ull},
    {"Bidirectional", Real, 1, 3, 0xe3b2f0c2dd7acea7ull},
    {"Smart", Real, 1, 45, 0x22a81be684753d8cull},
    {"Round Robin", Real, 1, 198, 0xecbad0b0806d344cull},
    {"Load Balancer", Real, 1, 180, 0xace9ecdbb67434f4ull},
    {"Preemptive", Real, 1, 180, 0xaf620df417ff97c6ull},
    {"CFS", Unreal, 0, 2589, 0xcbf29ce484222325ull},
    {"CFS refined", Real, 1, 591, 0xd41b39489fd0610dull},
    {"Out64", Real, 3, 215, 0xbdcd5199640faa22ull},
    {"Out65", Real, 1, 25, 0x71f9883bf75a8be1ull},
    {"Out243", Real, 1, 37, 0x2d6767e55979e786ull},
    {"Escalate", Real, 3, 78, 0x0c6336a3fb4661e0ull},
    {"Escalate wide", Real, 3, 1710, 0x584bad9d22f60865ull},
};

/// How the engine is run.
enum class Config { Jobs1, Jobs4, FromScratch };

const char *configName(Config C) {
  switch (C) {
  case Config::Jobs1:
    return "jobs1";
  case Config::Jobs4:
    return "jobs4";
  case Config::FromScratch:
    return "scratch";
  }
  return "?";
}

void PrintTo(const Recorded &R, std::ostream *OS) { *OS << R.Input; }
void PrintTo(Config C, std::ostream *OS) { *OS << configName(C); }

/// One input of the engine: the formula it synthesizes over an alphabet.
struct GameInput {
  const Formula *F = nullptr;
  Alphabet AB;
};

/// The synthetic input named \p Name, if it is one.
std::optional<GameInput> syntheticInput(const std::string &Name,
                                        Context &Ctx) {
  for (const Synthetic &S : Synthetics) {
    if (Name != S.Name)
      continue;
    auto Spec = parseSpecification(S.Declarations, Ctx);
    EXPECT_TRUE(Spec.ok()) << Spec.error().str();
    auto F = parseFormula(S.Formula, *Spec, Ctx);
    EXPECT_TRUE(F.ok()) << F.error().str();
    if (!Spec.ok() || !F.ok())
      return std::nullopt;
    GameInput In{*F, Alphabet::build(*Spec, Ctx, {*F})};
    EXPECT_EQ(In.AB.outputLetterCount(), S.OutputLetters) << Name;
    return In;
  }
  return std::nullopt;
}

/// A bundled row's first eager round ("<row>"), or the round the full
/// pipeline ends on ("<row> refined"), as the pipeline builds its input.
std::optional<GameInput> rowInput(const std::string &Name, Context &Ctx) {
  const bool Refined = Name.ends_with(" refined");
  const std::string Row =
      Refined ? Name.substr(0, Name.size() - std::string(" refined").size())
              : Name;
  const BenchmarkSpec *B = findBenchmark(Row);
  EXPECT_NE(B, nullptr) << Row;
  if (!B)
    return std::nullopt;
  auto Spec = parseSpecification(B->Source, Ctx);
  EXPECT_TRUE(Spec.ok()) << Spec.error().str();
  if (!Spec.ok())
    return std::nullopt;
  Synthesizer Synth(Ctx);
  PipelineResult Result;
  if (Refined)
    Result = Synth.run(*Spec);
  else
    (void)Synth.firstRoundChecks(*Spec, PipelineOptions(), Result);
  const std::vector<const Formula *> ForAlphabet =
      Synth.alphabetFormulas(*Spec, Result.Assumptions);
  return GameInput{ForAlphabet.back(),
                   Alphabet::build(*Spec, Ctx, ForAlphabet)};
}

/// The number of states of \p Name's UCW (the NBA of the negated input).
size_t ucwStates(const std::string &Name) {
  Context Ctx;
  std::optional<GameInput> In = syntheticInput(Name, Ctx);
  if (!In)
    In = rowInput(Name, Ctx);
  if (!In)
    return 0;
  TableauStats Stats;
  const Nba Ucw = buildNba(Ctx.Formulas.notF(In->F), Ctx, In->AB, &Stats);
  EXPECT_FALSE(Stats.BudgetExceeded) << Name;
  return Ucw.stateCount();
}

/// The inputs cross the word boundaries of a game state's counter planes
/// (one word per 64 UCW states): one-word planes, a partly used last
/// word, and more than one word at bound 3.
TEST(GameFingerprintInputs, CrossThePlaneWordBoundaries) {
  EXPECT_LE(ucwStates("Escalate"), 64u);
  EXPECT_NE(ucwStates("Vibrato") % 64, 0u);
  const size_t Wide = ucwStates("Escalate wide");
  EXPECT_TRUE(Wide > 64 && Wide % 64 != 0) << Wide;
}

class GameFingerprint
    : public ::testing::TestWithParam<std::tuple<Recorded, Config>> {};

TEST_P(GameFingerprint, MatchesTheRecordedGame) {
  const auto &[Want, How] = GetParam();
  Context Ctx;
  std::optional<GameInput> In = syntheticInput(Want.Input, Ctx);
  if (!In)
    In = rowInput(Want.Input, Ctx);
  ASSERT_TRUE(In.has_value()) << Want.Input;

  SynthesisOptions Options;
  Options.Incremental = How != Config::FromScratch;
  std::optional<SolverPool> Pool;
  if (How == Config::Jobs4)
    Pool.emplace(4);
  SynthesisEngine Engine;
  SynthesisResult R = Engine.synthesize(In->F, Ctx, In->AB, Options,
                                        Pool ? &*Pool : nullptr);
  const Fingerprint Got{R.Status, R.Stats.BoundUsed, R.Stats.GameStates,
                        machineHash(R.Machine)};

  char Line[200];
  std::snprintf(Line, sizeof(Line),
                "{\"%s\", %s, %u, %zu, 0x%016" PRIx64 "ull, ...},",
                Want.Input, R.Status == Real ? "Real" : "Unreal", Got.Bound,
                Got.GameStates, Got.Hash);
  const Fingerprint Pinned{Want.Status, Want.Bound, Want.GameStates,
                           Want.Hash};
  EXPECT_EQ(Got, Pinned) << "solved: " << Line;
}

INSTANTIATE_TEST_SUITE_P(
    AllInputs, GameFingerprint,
    ::testing::Combine(::testing::ValuesIn(Expected),
                       ::testing::Values(Config::Jobs1, Config::Jobs4,
                                         Config::FromScratch)),
    [](const ::testing::TestParamInfo<std::tuple<Recorded, Config>> &Info) {
      std::string Name = std::string(std::get<0>(Info.param).Input) + "_" +
                         configName(std::get<1>(Info.param));
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

} // namespace
