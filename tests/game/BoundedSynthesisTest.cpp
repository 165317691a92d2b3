//===- tests/game/BoundedSynthesisTest.cpp - Synthesis game tests ---------===//

#include "game/BoundedSynthesis.h"

#include "logic/Parser.h"

#include <gtest/gtest.h>

using namespace temos;

namespace {

class BoundedSynthesisTest : public ::testing::Test {
protected:
  void SetUp() override {
    auto Parsed = parseSpecification(R"(
      #LIA#
      inputs { bool p, q; }
      cells { int x = 0; }
      always guarantee {
        G ([x <- x + 1] || [x <- x - 1] || [x <- x]);
      }
    )", Ctx);
    ASSERT_TRUE(Parsed.ok()) << Parsed.error().str();
    Spec = *Parsed;
    AB = Alphabet::build(Spec, Ctx);
  }

  const Formula *formula(const std::string &Source) {
    auto F = parseFormula(Source, Spec, Ctx);
    EXPECT_TRUE(F.ok()) << F.error().str();
    return F.valueOr(nullptr);
  }

  SynthesisResult synth(const std::string &Source) {
    const Formula *F = formula(Source);
    // The alphabet must cover the synthesized formula's atoms, exactly
    // as the pipeline builds it from spec + generated assumptions.
    AB = Alphabet::build(Spec, Ctx, {F});
    return synthesizeLtl(F, Ctx, AB);
  }

  /// Simulates the machine on an input sequence and checks the reaction
  /// predicate at each step.
  void checkReactions(
      const MealyMachine &M, const std::vector<uint32_t> &Inputs,
      const std::function<void(uint32_t In, uint32_t Out, size_t Step)>
          &Check) {
    uint32_t State = M.initialState();
    uint32_t Mask = static_cast<uint32_t>(M.inputCount()) - 1;
    for (size_t Step = 0; Step < Inputs.size(); ++Step) {
      uint32_t In = Inputs[Step] & Mask;
      const MealyMachine::Edge &E = M.edge(State, In);
      Check(In, E.Output, Step);
      State = E.NextState;
    }
  }

  /// True if update option [x <- x + 1] fires in output letter Out.
  bool firesInc(uint32_t Out) {
    const Formula *Inc = AB.cells()[0].Options[0];
    EXPECT_EQ(Inc->updateValue()->str(), "(x + 1)");
    return AB.holds(Inc, Letter{0, Out});
  }

  Context Ctx;
  Specification Spec;
  Alphabet AB;
};

TEST_F(BoundedSynthesisTest, TriviallyRealizable) {
  auto R = synth("true");
  EXPECT_EQ(R.Status, Realizability::Realizable);
  ASSERT_TRUE(R.Machine.has_value());
  EXPECT_GE(R.Machine->stateCount(), 1u);
}

TEST_F(BoundedSynthesisTest, SystemCannotControlInputs) {
  // The environment owns p: the system cannot force it.
  EXPECT_EQ(synth("G p").Status, Realizability::Unrealizable);
  EXPECT_EQ(synth("F p").Status, Realizability::Unrealizable);
  EXPECT_EQ(synth("p").Status, Realizability::Unrealizable);
  EXPECT_EQ(synth("X p").Status, Realizability::Unrealizable);
}

TEST_F(BoundedSynthesisTest, SystemControlsUpdates) {
  EXPECT_EQ(synth("G [x <- x + 1]").Status, Realizability::Realizable);
  EXPECT_EQ(synth("G F [x <- x + 1]").Status, Realizability::Realizable);
  EXPECT_EQ(synth("F [x <- x - 1]").Status, Realizability::Realizable);
  // Two permanent different updates are structurally impossible.
  EXPECT_EQ(synth("G [x <- x + 1] && F [x <- x - 1]").Status,
            Realizability::Unrealizable);
}

TEST_F(BoundedSynthesisTest, ReactiveResponse) {
  // G (p -> [x <- x+1]): copy the input into the update choice.
  auto R = synth("G (p -> [x <- x + 1])");
  ASSERT_EQ(R.Status, Realizability::Realizable);
  ASSERT_TRUE(R.Machine.has_value());
  // Whenever input bit p (bit 0) is set, the inc option must fire.
  checkReactions(*R.Machine, {1, 0, 1, 1, 3, 2, 0, 1},
                 [&](uint32_t In, uint32_t Out, size_t Step) {
                   if (In & 1) {
                     EXPECT_TRUE(firesInc(Out)) << "step " << Step;
                   }
                 });
}

TEST_F(BoundedSynthesisTest, IffResponse) {
  auto R = synth("G (p <-> [x <- x + 1])");
  ASSERT_EQ(R.Status, Realizability::Realizable);
  checkReactions(*R.Machine, {1, 0, 3, 2, 1, 0},
                 [&](uint32_t In, uint32_t Out, size_t Step) {
                   EXPECT_EQ(static_cast<bool>(In & 1), firesInc(Out))
                       << "step " << Step;
                 });
}

TEST_F(BoundedSynthesisTest, DelayedResponse) {
  // G (p -> X [x <- x+1]): needs one state of memory.
  auto R = synth("G (p -> X [x <- x + 1])");
  ASSERT_EQ(R.Status, Realizability::Realizable);
  ASSERT_TRUE(R.Machine.has_value());
  EXPECT_GE(R.Machine->stateCount(), 2u);
  uint32_t PrevIn = 0;
  checkReactions(*R.Machine, {1, 0, 1, 1, 0, 2, 1, 0},
                 [&](uint32_t In, uint32_t Out, size_t Step) {
                   if (Step > 0 && (PrevIn & 1)) {
                     EXPECT_TRUE(firesInc(Out)) << "step " << Step;
                   }
                   PrevIn = In;
                 });
}

TEST_F(BoundedSynthesisTest, ConflictingObligationsUnrealizable) {
  // p and q can hold together, forcing contradictory updates.
  EXPECT_EQ(
      synth("G ((p -> [x <- x + 1]) && (q -> [x <- x - 1]))").Status,
      Realizability::Unrealizable);
  // With the consistency assumption G !(p && q) it becomes realizable
  // (the Sec. 4.2 mechanism).
  EXPECT_EQ(synth("G (! (p && q)) -> "
                  "G ((p -> [x <- x + 1]) && (q -> [x <- x - 1]))")
                .Status,
            Realizability::Realizable);
}

TEST_F(BoundedSynthesisTest, UntilGuarantee) {
  auto R = synth("[x <- x] U p || G [x <- x]");
  EXPECT_EQ(R.Status, Realizability::Realizable);
}

TEST_F(BoundedSynthesisTest, LivenessUnderFairness) {
  // Without fairness, q may never arrive: the response
  // G(p -> F q)-style guarantee on an input is unrealizable...
  EXPECT_EQ(synth("G (p -> F q)").Status, Realizability::Unrealizable);
  // ...but the update version is realizable since the system owns it.
  EXPECT_EQ(synth("G (p -> F [x <- x - 1])").Status,
            Realizability::Realizable);
}

TEST_F(BoundedSynthesisTest, BoundZeroSafetySuffices) {
  // Safety specs are realizable at counter bound 0: force a {0}-only
  // schedule and check it succeeds there.
  const Formula *F = formula("G [x <- x + 1]");
  AB = Alphabet::build(Spec, Ctx, {F});
  SynthesisOptions Options;
  Options.BoundSchedule = {0};
  auto R = synthesizeLtl(F, Ctx, AB, Options);
  ASSERT_EQ(R.Status, Realizability::Realizable);
  EXPECT_EQ(R.Stats.BoundUsed, 0u);
}

TEST_F(BoundedSynthesisTest, CheckRealizableAgreesWithSynthesize) {
  const Formula *Good = formula("G [x <- x + 1]");
  Alphabet A1 = Alphabet::build(Spec, Ctx, {Good});
  EXPECT_EQ(synthesizeLtl(Good, Ctx, A1).Status, Realizability::Realizable);
  const Formula *Bad = formula("G p");
  Alphabet A2 = Alphabet::build(Spec, Ctx, {Bad});
  EXPECT_EQ(synthesizeLtl(Bad, Ctx, A2).Status, Realizability::Unrealizable);
}

TEST_F(BoundedSynthesisTest, TinyStateBudgetReportsUnknown) {
  // A realizable spec under a starvation budget must degrade to
  // Unknown -- never be misreported Unrealizable -- and the pre-insert
  // check must keep the arena at or under the budget.
  const Formula *F = formula("G (p -> X [x <- x + 1])");
  AB = Alphabet::build(Spec, Ctx, {F});
  SynthesisOptions Tiny;
  Tiny.StateBudget = 1;
  auto R = synthesizeLtl(F, Ctx, AB, Tiny);
  EXPECT_EQ(R.Status, Realizability::Unknown);
  EXPECT_FALSE(R.Machine.has_value());
  EXPECT_LE(R.Stats.GameStates, Tiny.StateBudget);
}

TEST_F(BoundedSynthesisTest, ZeroStateBudgetReportsUnknown) {
  // A budget of 0 refuses the initial state itself: that is budget
  // exhaustion (Unknown, not timed out), not an empty game to solve.
  const Formula *F = formula("G (p -> X [x <- x + 1])");
  AB = Alphabet::build(Spec, Ctx, {F});
  for (bool Incremental : {true, false}) {
    SynthesisOptions Zero;
    Zero.StateBudget = 0;
    Zero.Incremental = Incremental;
    SynthesisEngine Engine;
    auto R = Engine.synthesize(F, Ctx, AB, Zero);
    EXPECT_EQ(R.Status, Realizability::Unknown) << Incremental;
    EXPECT_FALSE(R.Stats.TimedOut) << Incremental;
    EXPECT_FALSE(R.Machine.has_value()) << Incremental;
    EXPECT_EQ(R.Stats.GameStates, 0u) << Incremental;
  }
}

TEST_F(BoundedSynthesisTest, TinyStateBudgetUnknownThroughEngine) {
  // Same through a held engine, both incremental modes.
  const Formula *F = formula("G (p -> X [x <- x + 1])");
  AB = Alphabet::build(Spec, Ctx, {F});
  for (bool Incremental : {true, false}) {
    SynthesisOptions Tiny;
    Tiny.StateBudget = 1;
    Tiny.Incremental = Incremental;
    SynthesisEngine Engine;
    auto R = Engine.synthesize(F, Ctx, AB, Tiny);
    EXPECT_EQ(R.Status, Realizability::Unknown) << Incremental;
    EXPECT_LE(R.Stats.GameStates, Tiny.StateBudget) << Incremental;
  }
}

TEST_F(BoundedSynthesisTest, TableauBudgetReportsUnknown) {
  // Exhausting the tableau's budget mid-construction must surface as
  // Unknown, and a BudgetExceeded automaton must never enter the NBA
  // cache: a later call with sane limits succeeds on the same engine.
  const Formula *F = formula("G (p -> X [x <- x + 1])");
  AB = Alphabet::build(Spec, Ctx, {F});
  SynthesisEngine Engine;
  SynthesisOptions Tiny;
  Tiny.Tableau.MaxGeneralizedStates = 1;
  auto R = Engine.synthesize(F, Ctx, AB, Tiny);
  EXPECT_EQ(R.Status, Realizability::Unknown);
  EXPECT_TRUE(R.Stats.Tableau.BudgetExceeded);
  EXPECT_FALSE(R.Machine.has_value());

  auto Sane = Engine.synthesize(F, Ctx, AB);
  EXPECT_EQ(Sane.Status, Realizability::Realizable);
  EXPECT_FALSE(Sane.Stats.NbaCacheHit);
}

TEST_F(BoundedSynthesisTest, BudgetRecoveryAfterRaise) {
  // Raising a previously exhausting state budget on the same engine
  // rebuilds the arena and succeeds.
  const Formula *F = formula("G (p -> X [x <- x + 1])");
  AB = Alphabet::build(Spec, Ctx, {F});
  SynthesisEngine Engine;
  SynthesisOptions Tiny;
  Tiny.StateBudget = 1;
  EXPECT_EQ(Engine.synthesize(F, Ctx, AB, Tiny).Status,
            Realizability::Unknown);
  EXPECT_EQ(Engine.synthesize(F, Ctx, AB).Status, Realizability::Realizable);
}

TEST_F(BoundedSynthesisTest, ContradictoryInputAssumptionsLeaveNoLetter) {
  // G p && G !p: the environment cannot produce any letter, so every
  // play already satisfies the specification. The machine answers no
  // letter and idles on all of them.
  auto R = synth("(G p && G ! p) -> G [x <- x + 1]");
  ASSERT_EQ(R.Status, Realizability::Realizable);
  EXPECT_EQ(R.Stats.InputLetters, 0u);
  const MealyMachine &M = *R.Machine;
  EXPECT_TRUE(M.inputs().empty());
  EXPECT_EQ(M.stateCount(), 1u);
  for (uint32_t In = 0; In < M.inputCount(); ++In) {
    EXPECT_EQ(M.edge(0, In).NextState, 0u);
    EXPECT_EQ(M.edge(0, In).Output, AB.idleOutput());
  }
}

TEST_F(BoundedSynthesisTest, MachineEdgesAreTotal) {
  auto R = synth("G (p -> [x <- x + 1])");
  ASSERT_EQ(R.Status, Realizability::Realizable);
  const MealyMachine &M = *R.Machine;
  EXPECT_EQ(M.inputCount(), AB.inputLetterCount());
  for (uint32_t S = 0; S < M.stateCount(); ++S)
    for (uint32_t In = 0; In < M.inputCount(); ++In) {
      MealyMachine::Edge E = M.edge(S, In);
      EXPECT_LT(E.NextState, M.stateCount());
      EXPECT_LT(E.Output, AB.outputLetterCount());
    }
}

/// Whether two machines answer the same letters with the same edges.
bool sameMachine(const MealyMachine &A, const MealyMachine &B) {
  if (A.stateCount() != B.stateCount() || A.inputCount() != B.inputCount() ||
      A.inputs() != B.inputs() || A.initialState() != B.initialState())
    return false;
  for (uint32_t S = 0; S < A.stateCount(); ++S)
    for (uint32_t In = 0; In < A.inputCount(); ++In)
      if (A.edge(S, In).Output != B.edge(S, In).Output ||
          A.edge(S, In).NextState != B.edge(S, In).NextState)
        return false;
  return true;
}

/// GameFingerprint's Escalate game: x <- 1 recurs, but each one forces
/// x <- 2 and then x <- 3, so bound 1 loses and bound 3 wins. These
/// cases pin what a held engine reuses across an escalation.
class EscalationReuseTest : public ::testing::Test {
protected:
  void SetUp() override {
    auto Parsed = parseSpecification(
        "#LIA#\ninputs { bool p; }\ncells { int x = 0; int y = 0; }\n", Ctx);
    ASSERT_TRUE(Parsed.ok()) << Parsed.error().str();
    auto ParsedF = parseFormula(
        "G F [x <- 1] && G ([x <- 1] -> X [x <- 2]) && "
        "G ([x <- 2] -> X [x <- 3]) && G (p -> F [y <- y + 1])",
        *Parsed, Ctx);
    ASSERT_TRUE(ParsedF.ok()) << ParsedF.error().str();
    F = *ParsedF;
    AB = Alphabet::build(*Parsed, Ctx, {F});
  }

  Context Ctx;
  const Formula *F = nullptr;
  Alphabet AB;
};

TEST_F(EscalationReuseTest, HeldEngineReusesTheEscalatedArena) {
  SynthesisEngine Engine;
  SynthesisResult First = Engine.synthesize(F, Ctx, AB);
  ASSERT_EQ(First.Status, Realizability::Realizable);
  ASSERT_EQ(First.Stats.BoundUsed, 3u);
  ASSERT_TRUE(First.Machine.has_value());

  // The second call explores nothing: both bounds are served from the
  // arena the first call left behind.
  SynthesisResult Second = Engine.synthesize(F, Ctx, AB);
  ASSERT_EQ(Second.Status, Realizability::Realizable);
  EXPECT_EQ(Second.Stats.BoundUsed, 3u);
  EXPECT_EQ(Second.Stats.LettersExplored, 0u);
  EXPECT_EQ(Second.Stats.GameStates, First.Stats.GameStates);
  EXPECT_EQ(Second.Stats.ArenaStatesReused, Second.Stats.GameStates);
  ASSERT_TRUE(Second.Machine.has_value());
  EXPECT_TRUE(sameMachine(*First.Machine, *Second.Machine));
}

TEST_F(EscalationReuseTest, WarmCallsAnswerFromKeptFixpoints) {
  // A bound-1 call leaves the bound-1 fixpoint behind; the escalating
  // call answers bound 1 from it, grows the arena for bound 3 (which
  // drops it) and solves bound 3 afresh; a third call answers both
  // bounds from the kept fixpoints. Each returns a fresh engine's
  // verdict and machine.
  SynthesisOptions Bound1;
  Bound1.BoundSchedule = {1};
  SynthesisEngine Engine;
  ASSERT_EQ(Engine.synthesize(F, Ctx, AB, Bound1).Status,
            Realizability::Unrealizable);

  SynthesisEngine FreshEngine;
  const SynthesisResult Fresh = FreshEngine.synthesize(F, Ctx, AB);
  ASSERT_EQ(Fresh.Status, Realizability::Realizable);
  ASSERT_TRUE(Fresh.Machine.has_value());
  for (int Call = 0; Call < 2; ++Call) {
    SynthesisResult Warm = Engine.synthesize(F, Ctx, AB);
    ASSERT_EQ(Warm.Status, Realizability::Realizable) << "call " << Call;
    EXPECT_EQ(Warm.Stats.BoundUsed, Fresh.Stats.BoundUsed);
    EXPECT_EQ(Warm.Stats.GameStates, Fresh.Stats.GameStates);
    ASSERT_TRUE(Warm.Machine.has_value());
    EXPECT_TRUE(sameMachine(*Warm.Machine, *Fresh.Machine)) << "call " << Call;
  }
}

TEST_F(EscalationReuseTest, BudgetFailedEscalationThenLowerBound) {
  // A budget of exactly the bound-1 arena: bound 1 fits, the escalation
  // to bound 3 runs out of states.
  SynthesisOptions Bound1;
  Bound1.BoundSchedule = {1};
  const SynthesisResult Reference = synthesizeLtl(F, Ctx, AB, Bound1);
  ASSERT_EQ(Reference.Status, Realizability::Unrealizable);

  SynthesisOptions Tight;
  Tight.StateBudget = Reference.Stats.GameStates;
  SynthesisEngine Engine;
  SynthesisResult Escalated = Engine.synthesize(F, Ctx, AB, Tight);
  ASSERT_EQ(Escalated.Status, Realizability::Unknown);
  EXPECT_FALSE(Escalated.Stats.TimedOut);

  // A following bound-1 call on the same engine decides as a fresh
  // engine does.
  Tight.BoundSchedule = {1};
  SynthesisResult Held = Engine.synthesize(F, Ctx, AB, Tight);
  SynthesisEngine FreshEngine;
  SynthesisResult Fresh = FreshEngine.synthesize(F, Ctx, AB, Tight);
  EXPECT_EQ(Fresh.Status, Realizability::Unrealizable);
  EXPECT_EQ(Held.Status, Fresh.Status);
  EXPECT_EQ(Held.Stats.BoundUsed, Fresh.Stats.BoundUsed);
  EXPECT_EQ(Held.Stats.GameStates, Fresh.Stats.GameStates);
}

} // namespace
