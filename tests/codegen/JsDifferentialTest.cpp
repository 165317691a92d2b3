//===- tests/codegen/JsDifferentialTest.cpp - JS vs interpreter -----------===//
///
/// \file
/// Differential testing of the JavaScript emitter: the generated
/// controller is executed under node (when available) on a scripted
/// input sequence and its cell trajectory must match the native
/// Interpreter step for step. This is the strongest check that the
/// emitted code means what the Mealy machine means.
///
//===----------------------------------------------------------------------===//

#include "codegen/CodeEmitter.h"
#include "codegen/Interpreter.h"
#include "core/Synthesizer.h"
#include "logic/Parser.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace temos;

namespace {

bool nodeAvailable() {
  return std::system("node -e 'process.exit(0)' > /dev/null 2>&1") == 0;
}

/// Runs `node Script` and returns its stdout.
std::string runNode(const std::string &ScriptPath) {
  std::string Command = "node " + ScriptPath + " 2>/dev/null";
  FILE *Pipe = popen(Command.c_str(), "r");
  if (!Pipe)
    return "";
  std::string Out;
  char Buffer[256];
  while (fgets(Buffer, sizeof(Buffer), Pipe))
    Out += Buffer;
  pclose(Pipe);
  return Out;
}

TEST(JsDifferential, MutexControllerMatchesInterpreter) {
  if (!nodeAvailable())
    GTEST_SKIP() << "node not available";

  Context Ctx;
  auto Spec = parseSpecification(R"(
    #LIA#
    spec Mutex
    inputs { int x, y; }
    cells { int m = 0; }
    always guarantee {
      G (x < y -> [m <- x]);
      G (y < x -> [m <- y]);
    }
  )", Ctx);
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  Synthesizer Synth(Ctx);
  PipelineResult R = Synth.run(*Spec);
  ASSERT_EQ(R.Status, Realizability::Realizable);

  // Scripted inputs.
  const int64_t Xs[] = {3, 9, 5, 0, 7, 2, 2, 8};
  const int64_t Ys[] = {7, 4, 5, 2, 1, 2, 6, 3};
  const size_t Steps = 8;

  // Native run.
  std::vector<std::string> Native;
  Controller C(*R.Machine, R.AB, *Spec);
  for (size_t I = 0; I < Steps; ++I) {
    auto Outcome = C.step({{"x", Value::integer(Xs[I])},
                           {"y", Value::integer(Ys[I])}});
    ASSERT_TRUE(Outcome.has_value());
    Native.push_back(C.cell("m").str());
  }

  // Node run.
  std::string Js = emitJavaScript(*R.Machine, R.AB, *Spec);
  std::string Script = Js + "\nconst c = createController({});\n";
  for (size_t I = 0; I < Steps; ++I)
    Script += "console.log(c.step({x: " + std::to_string(Xs[I]) +
              ", y: " + std::to_string(Ys[I]) + "}).m);\n";
  std::string Path = ::testing::TempDir() + "/temos_mutex_diff.js";
  {
    std::ofstream Out(Path);
    Out << Script;
  }
  std::string Output = runNode(Path);
  ASSERT_FALSE(Output.empty()) << "node produced no output";

  std::vector<std::string> Lines;
  for (const std::string &Line : split(Output, '\n'))
    if (!trim(Line).empty())
      Lines.push_back(trim(Line));
  ASSERT_EQ(Lines.size(), Steps);
  for (size_t I = 0; I < Steps; ++I)
    EXPECT_EQ(Lines[I], Native[I]) << "step " << I;
}

TEST(JsDifferential, CounterControllerMatchesInterpreter) {
  if (!nodeAvailable())
    GTEST_SKIP() << "node not available";

  Context Ctx;
  auto Spec = parseSpecification(R"(
    #LIA#
    spec Counter
    cells { int x = 0; }
    always guarantee {
      [x <- x + 1] || [x <- x - 1];
      x = 0 -> F (x = 2);
    }
  )", Ctx);
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  Synthesizer Synth(Ctx);
  PipelineResult R = Synth.run(*Spec);
  ASSERT_EQ(R.Status, Realizability::Realizable);

  const size_t Steps = 10;
  std::vector<std::string> Native;
  Controller C(*R.Machine, R.AB, *Spec);
  for (size_t I = 0; I < Steps; ++I) {
    auto Outcome = C.step({});
    ASSERT_TRUE(Outcome.has_value());
    Native.push_back(C.cell("x").str());
  }

  std::string Js = emitJavaScript(*R.Machine, R.AB, *Spec);
  std::string Script = Js + "\nconst c = createController({});\n";
  for (size_t I = 0; I < Steps; ++I)
    Script += "console.log(c.step({}).x);\n";
  std::string Path = ::testing::TempDir() + "/temos_counter_diff.js";
  {
    std::ofstream Out(Path);
    Out << Script;
  }
  std::string Output = runNode(Path);
  ASSERT_FALSE(Output.empty());

  std::vector<std::string> Lines;
  for (const std::string &Line : split(Output, '\n'))
    if (!trim(Line).empty())
      Lines.push_back(trim(Line));
  ASSERT_EQ(Lines.size(), Steps);
  for (size_t I = 0; I < Steps; ++I)
    EXPECT_EQ(Lines[I], Native[I]) << "step " << I;
}

TEST(JsDifferential, LetterOutsideTheAssumptionsKeepsStateAndCells) {
  if (!nodeAvailable())
    GTEST_SKIP() << "node not available";

  Context Ctx;
  auto Spec = parseSpecification(R"(
    #LIA#
    spec Guarded
    inputs { int x; }
    cells { int m = 0; }
    always assume { x >= 0; x <= 9; }
    always guarantee {
      G (x < 5 -> X [m <- m + 1]);
      G (x >= 5 -> X [m <- x]);
    }
  )", Ctx);
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  Synthesizer Synth(Ctx);
  PipelineResult R = Synth.run(*Spec);
  ASSERT_EQ(R.Status, Realizability::Realizable);
  // The assumption is an input-only invariant: the machine answers only
  // letters with 0 <= x <= 9.
  ASSERT_LT(R.Machine->inputs().size(), R.Machine->inputCount());

  // x = 12 and x = -3 break the assumption: no case matches, so the
  // state and every cell keep their values.
  const int64_t Xs[] = {3, 7, 12, 2, -3, 6, 12, 1};
  const size_t Steps = 8;
  std::vector<std::string> Native;
  Controller C(*R.Machine, R.AB, *Spec);
  for (size_t I = 0; I < Steps; ++I) {
    const uint32_t State = C.state();
    const std::string Before = C.cell("m").str();
    ASSERT_TRUE(C.step({{"x", Value::integer(Xs[I])}}).has_value());
    Native.push_back(C.cell("m").str());
    if (Xs[I] < 0 || Xs[I] > 9) {
      EXPECT_EQ(C.state(), State) << "step " << I;
      EXPECT_EQ(Native.back(), Before) << "step " << I;
    }
  }

  std::string Js = emitJavaScript(*R.Machine, R.AB, *Spec);
  std::string Script = Js + "\nconst c = createController({});\n";
  for (size_t I = 0; I < Steps; ++I)
    Script += "console.log(c.step({x: " + std::to_string(Xs[I]) + "}).m);\n";
  std::string Path = ::testing::TempDir() + "/temos_guarded_diff.js";
  {
    std::ofstream Out(Path);
    Out << Script;
  }
  std::string Output = runNode(Path);
  ASSERT_FALSE(Output.empty());

  std::vector<std::string> Lines;
  for (const std::string &Line : split(Output, '\n'))
    if (!trim(Line).empty())
      Lines.push_back(trim(Line));
  ASSERT_EQ(Lines.size(), Steps);
  for (size_t I = 0; I < Steps; ++I)
    EXPECT_EQ(Lines[I], Native[I]) << "step " << I;
}

} // namespace
