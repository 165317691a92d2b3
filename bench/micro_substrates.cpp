//===- bench/micro_substrates.cpp - Substrate micro-benchmarks ------------===//
///
/// \file
/// google-benchmark micro-benchmarks of the three substrates that
/// replace the paper's external tools: the SMT simplex core (CVC4's
/// role in consistency checking), the tableau construction (tsltools'
/// TSL->automaton role), and SyGuS enumeration (CVC4's SyGuS role).
/// These quantify where pipeline time goes and back the engineering
/// notes in DESIGN.md.
///
//===----------------------------------------------------------------------===//

#include "automata/Tableau.h"
#include "logic/Parser.h"
#include "sygus/SygusSolver.h"
#include "theory/Simplex.h"
#include "theory/SmtSolver.h"

#include <benchmark/benchmark.h>

using namespace temos;

namespace {

//===----------------------------------------------------------------------===//
// Simplex.
//===----------------------------------------------------------------------===//

void BM_SimplexChain(benchmark::State &State) {
  // x0 < x1 < ... < x(n-1) < x0: an unsat cycle forcing pivot work.
  const int N = static_cast<int>(State.range(0));
  for (auto _ : State) {
    Simplex S;
    for (int I = 0; I < N; ++I)
      S.addVariable(/*IsInt=*/false);
    for (int I = 0; I < N; ++I) {
      LinearExpr E = LinearExpr::variable(static_cast<VarId>(I)) -
                     LinearExpr::variable(static_cast<VarId>((I + 1) % N));
      S.assertAtom({E, LinearRel::LT});
    }
    benchmark::DoNotOptimize(S.check());
  }
}
BENCHMARK(BM_SimplexChain)->Arg(4)->Arg(8)->Arg(16);

void BM_SmtIntegerBranching(benchmark::State &State) {
  TermFactory TF;
  const Term *X = TF.signal("x", Sort::Int);
  const Term *TwoX = TF.apply("*", Sort::Int, {TF.numeral(2), X});
  const Term *Atom = TF.apply("=", Sort::Bool, {TwoX, TF.numeral(7)});
  for (auto _ : State) {
    SmtSolver Solver(Theory::LIA);
    benchmark::DoNotOptimize(Solver.checkLiterals({{Atom, true}}));
  }
}
BENCHMARK(BM_SmtIntegerBranching);

//===----------------------------------------------------------------------===//
// Tableau.
//===----------------------------------------------------------------------===//

void BM_TableauResponseChain(benchmark::State &State) {
  // G(p -> F q) under increasing conjunction width.
  const int N = static_cast<int>(State.range(0));
  Context Ctx;
  std::string Decl = "inputs { bool ";
  for (int I = 0; I < N; ++I)
    Decl += (I ? ", p" : "p") + std::to_string(I);
  Decl += "; } cells { int x = 0; }";
  auto Spec = parseSpecification(Decl, Ctx);
  std::string Source;
  for (int I = 0; I < N; ++I) {
    if (I)
      Source += " && ";
    Source += "G (p" + std::to_string(I) + " -> F (! p" +
              std::to_string(I) + "))";
  }
  const Formula *F = *parseFormula(Source, *Spec, Ctx);
  Alphabet AB = Alphabet::build(*Spec, Ctx, {F});
  for (auto _ : State) {
    Context Local;
    auto S2 = parseSpecification(Decl, Local);
    const Formula *F2 = *parseFormula(Source, *S2, Local);
    Alphabet AB2 = Alphabet::build(*S2, Local, {F2});
    TableauStats Stats;
    Nba A = buildNba(Local.Formulas.notF(F2), Local, AB2, &Stats);
    benchmark::DoNotOptimize(A.stateCount());
  }
}
BENCHMARK(BM_TableauResponseChain)->Arg(1)->Arg(2)->Arg(3);

//===----------------------------------------------------------------------===//
// SyGuS enumeration.
//===----------------------------------------------------------------------===//

void BM_SygusSequentialSearch(benchmark::State &State) {
  // Reach x = N from x = 0 with +1/-1/skip: candidate space 3^N.
  const int64_t N = State.range(0);
  Context Ctx;
  const Term *X = Ctx.Terms.signal("x", Sort::Int);
  const Term *Inc = Ctx.Terms.apply("+", Sort::Int, {X, Ctx.Terms.numeral(1)});
  const Term *Dec = Ctx.Terms.apply("-", Sort::Int, {X, Ctx.Terms.numeral(1)});
  SygusQuery Q;
  Q.Cells = {{"x", Sort::Int, {Inc, Dec, X}}};
  Q.Pre = {{Ctx.Terms.apply("=", Sort::Bool, {X, Ctx.Terms.numeral(0)}),
            true}};
  Q.Post = {{Ctx.Terms.apply("=", Sort::Bool, {X, Ctx.Terms.numeral(N)}),
             true}};
  for (auto _ : State) {
    SygusSolver Solver(Ctx, Theory::LIA);
    SygusStats Stats;
    auto P = Solver.synthesizeSequential(Solver.searchSpace(Q),
                                         static_cast<unsigned>(N), {}, &Stats);
    benchmark::DoNotOptimize(P.has_value());
  }
}
BENCHMARK(BM_SygusSequentialSearch)->Arg(2)->Arg(3)->Arg(4);

void BM_SygusLoopWrapper(benchmark::State &State) {
  Context Ctx;
  const Term *X = Ctx.Terms.signal("x", Sort::Int);
  const Term *Inc = Ctx.Terms.apply("+", Sort::Int, {X, Ctx.Terms.numeral(1)});
  const Term *Dec = Ctx.Terms.apply("-", Sort::Int, {X, Ctx.Terms.numeral(1)});
  SygusQuery Q;
  Q.Cells = {{"x", Sort::Int, {Inc, Dec}}};
  Q.Pre = {{Ctx.Terms.apply("<", Sort::Bool, {X, Ctx.Terms.numeral(0)}),
            true}};
  Q.Post = {{Ctx.Terms.apply("=", Sort::Bool, {X, Ctx.Terms.numeral(0)}),
             true}};
  for (auto _ : State) {
    SygusSolver Solver(Ctx, Theory::LIA);
    auto L = Solver.synthesizeLoop(Solver.searchSpace(Q));
    benchmark::DoNotOptimize(L.has_value());
  }
}
BENCHMARK(BM_SygusLoopWrapper);

} // namespace

BENCHMARK_MAIN();
