//===- tests/core/RunArtifactTest.cpp - Run artifact round trip -----------===//

#include "core/RunArtifact.h"

#include "logic/Parser.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

const char *Source = "#LIA#\n"
                     "spec Counter\n"
                     "cells { int x = 0; }\n"
                     "always guarantee { [x <- x + 1]; }\n";

TEST(RunArtifact, OptionsAndBudgetsRoundTripExactly) {
  PipelineOptions Options;
  Options.Parallelism.NumThreads = 3;
  Options.Parallelism.CacheEnabled = false;
  Options.Eager = false;
  // %g would print this as 1.23457e+06 and read back a different budget.
  Options.Budget.TotalSeconds = 1234567.5;
  Options.Budget.SygusSeconds = 0.1;
  Options.InjectSpinHang = true;
  PipelineResult Result;
  Result.Stats.Failures.push_back(
      {FailureKind::Timeout, "sygus", "1 of 2 obligations unresolved"});

  std::string Text = runArtifactText("Counter", Result, Options, Source);
  EXPECT_EQ(Text.rfind("// temos-artifact: v1\n", 0), 0u) << Text;
  EXPECT_NE(Text.find("// failure: timeout [sygus] 1 of 2 obligations "
                      "unresolved\n"),
            std::string::npos)
      << Text;

  std::optional<PipelineOptions> Parsed = parseRunArtifact(Text);
  ASSERT_TRUE(Parsed.has_value()) << Text;
  EXPECT_EQ(Parsed->Parallelism.NumThreads, 3u);
  EXPECT_FALSE(Parsed->Parallelism.CacheEnabled);
  EXPECT_FALSE(Parsed->Eager);
  EXPECT_EQ(Parsed->Budget.TotalSeconds, 1234567.5);
  EXPECT_EQ(Parsed->Budget.SygusSeconds, 0.1);
  EXPECT_TRUE(Parsed->InjectSpinHang);

  // The header is comments: the artifact still parses as the spec.
  Context Ctx;
  auto Spec = parseSpecification(Text, Ctx);
  ASSERT_TRUE(Spec.ok()) << Spec.error().str();
  EXPECT_EQ(Spec->Name, "Counter");
}

TEST(RunArtifact, DefaultOptionsRoundTrip) {
  std::optional<PipelineOptions> Parsed =
      parseRunArtifact(runArtifactText("Counter", {}, {}, Source));
  ASSERT_TRUE(Parsed.has_value());
  PipelineOptions Defaults;
  EXPECT_EQ(Parsed->Parallelism.NumThreads, Defaults.Parallelism.NumThreads);
  EXPECT_EQ(Parsed->Parallelism.CacheEnabled,
            Defaults.Parallelism.CacheEnabled);
  EXPECT_EQ(Parsed->Eager, Defaults.Eager);
  EXPECT_EQ(Parsed->Budget.TotalSeconds, 0.0);
  EXPECT_EQ(Parsed->Budget.SygusSeconds, 0.0);
  EXPECT_FALSE(Parsed->InjectSpinHang);
}

TEST(RunArtifact, TextWithoutHeaderIsNotAnArtifact) {
  EXPECT_FALSE(parseRunArtifact(Source).has_value());
}

} // namespace
