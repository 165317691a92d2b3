//===- tests/codegen/CppDifferentialTest.cpp - C++ emitter diff test ------===//
///
/// \file
/// Differential testing of the C++ emitter: the generated controller is
/// compiled with the host compiler, executed on a scripted input
/// sequence, and must match the native Interpreter step for step.
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

bool compilerAvailable() {
  return std::system("g++ --version > /dev/null 2>&1") == 0;
}

std::string runBinary(const std::string &Path) {
  FILE *Pipe = popen((Path + " 2>/dev/null").c_str(), "r");
  if (!Pipe)
    return "";
  std::string Out;
  char Buffer[256];
  while (fgets(Buffer, sizeof(Buffer), Pipe))
    Out += Buffer;
  pclose(Pipe);
  return Out;
}

TEST(CppDifferential, MutexControllerMatchesInterpreter) {
  if (!compilerAvailable())
    GTEST_SKIP() << "g++ not available";

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

  const int64_t Xs[] = {3, 9, 5, 0, 7, 2};
  const int64_t Ys[] = {7, 4, 5, 2, 1, 6};
  const size_t Steps = 6;

  // Native run.
  std::vector<std::string> Native;
  Controller C(*R.Machine, R.AB, *Spec);
  for (size_t I = 0; I < Steps; ++I) {
    auto Outcome = C.step({{"x", Value::integer(Xs[I])},
                           {"y", Value::integer(Ys[I])}});
    ASSERT_TRUE(Outcome.has_value());
    Native.push_back(C.cell("m").str());
  }

  // Generated C++ + a main() driver.
  std::string Code = emitCpp(*R.Machine, R.AB, *Spec);
  Code += "\n#include <cstdio>\nint main() {\n  MutexController c;\n";
  for (size_t I = 0; I < Steps; ++I)
    Code += "  std::printf(\"%lld\\n\", c.step({" + std::to_string(Xs[I]) +
            ", " + std::to_string(Ys[I]) + "}).m);\n";
  Code += "  return 0;\n}\n";

  std::string Dir = ::testing::TempDir();
  std::string Source = Dir + "/temos_mutex_diff.cpp";
  std::string Binary = Dir + "/temos_mutex_diff";
  {
    std::ofstream Out(Source);
    Out << Code;
  }
  std::string Compile =
      "g++ -std=c++17 -O0 -o " + Binary + " " + Source + " 2>/dev/null";
  ASSERT_EQ(std::system(Compile.c_str()), 0) << "generated C++ must compile";

  std::string Output = runBinary(Binary);
  std::vector<std::string> Lines;
  for (const std::string &Line : split(Output, '\n'))
    if (!trim(Line).empty())
      Lines.push_back(trim(Line));
  ASSERT_EQ(Lines.size(), Steps);
  for (size_t I = 0; I < Steps; ++I)
    EXPECT_EQ(Lines[I], Native[I]) << "step " << I;
}

TEST(CppDifferential, LetterOutsideTheAssumptionsKeepsStateAndCells) {
  if (!compilerAvailable())
    GTEST_SKIP() << "g++ not available";

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

  std::string Code = emitCpp(*R.Machine, R.AB, *Spec);
  Code += "\n#include <cstdio>\nint main() {\n  GuardedController c;\n";
  for (size_t I = 0; I < Steps; ++I)
    Code += "  std::printf(\"%lld\\n\", c.step({" + std::to_string(Xs[I]) +
            "}).m);\n";
  Code += "  return 0;\n}\n";

  std::string Dir = ::testing::TempDir();
  std::string Source = Dir + "/temos_guarded_diff.cpp";
  std::string Binary = Dir + "/temos_guarded_diff";
  {
    std::ofstream Out(Source);
    Out << Code;
  }
  std::string Compile =
      "g++ -std=c++17 -O0 -o " + Binary + " " + Source + " 2>/dev/null";
  ASSERT_EQ(std::system(Compile.c_str()), 0) << "generated C++ must compile";

  std::string Output = runBinary(Binary);
  std::vector<std::string> Lines;
  for (const std::string &Line : split(Output, '\n'))
    if (!trim(Line).empty())
      Lines.push_back(trim(Line));
  ASSERT_EQ(Lines.size(), Steps);
  for (size_t I = 0; I < Steps; ++I)
    EXPECT_EQ(Lines[I], Native[I]) << "step " << I;
}

} // namespace
