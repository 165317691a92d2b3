//===- tools/fuzz/Oracles.cpp - Cross-substrate differential oracles ------===//

#include "tools/fuzz/Fuzz.h"

#include "codegen/CodeEmitter.h"
#include "core/RunArtifact.h"
#include "core/Synthesizer.h"
#include "logic/Parser.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "support/Timer.h"
#include "theory/Evaluator.h"
#include "tools/fuzz/Generator.h"
#include "tools/fuzz/Shrinker.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <map>

using namespace temos;
using namespace temos::fuzz;

//===----------------------------------------------------------------------===//
// Fault plumbing
//===----------------------------------------------------------------------===//

const char *fuzz::faultName(FaultKind K) {
  switch (K) {
  case FaultKind::None:
    return "none";
  case FaultKind::FlipStrict:
    return "flip-strict";
  case FaultKind::DropConjunct:
    return "drop-conjunct";
  case FaultKind::MutatePrint:
    return "mutate-print";
  case FaultKind::SkipVerify:
    return "skip-verify";
  case FaultKind::LazyConfig:
    return "lazy-config";
  case FaultKind::SpinHang:
    return "spin-hang";
  }
  return "?";
}

bool fuzz::parseFaultKind(const std::string &Name, FaultKind &Out) {
  for (FaultKind K :
       {FaultKind::None, FaultKind::FlipStrict, FaultKind::DropConjunct,
        FaultKind::MutatePrint, FaultKind::SkipVerify, FaultKind::LazyConfig,
        FaultKind::SpinHang})
    if (Name == faultName(K)) {
      Out = K;
      return true;
    }
  return false;
}

std::string fuzz::rerunCommand(const std::string &Oracle, uint64_t Seed,
                               unsigned Iteration, FaultKind Fault) {
  std::string Out = "temos-fuzz --oracle " + Oracle + " --seed " +
                    std::to_string(Seed) + " --iters " +
                    std::to_string(Iteration + 1);
  if (Fault != FaultKind::None)
    Out += std::string(" --inject-fault ") + faultName(Fault);
  return Out;
}

//===----------------------------------------------------------------------===//
// The oracle loop and the repro format
//===----------------------------------------------------------------------===//

namespace {

/// Per-oracle salts so every oracle explores an independent stream even
/// under one --seed.
constexpr uint64_t TheorySalt = 0x7468656f72790000ull;
constexpr uint64_t RoundTripSalt = 0x726f756e64747200ull;
constexpr uint64_t SygusSalt = 0x7379677573000000ull;
constexpr uint64_t PipelineSalt = 0x706970656c696e65ull;

constexpr const char *ReproHeader = "// temos-fuzz repro:";

/// What an oracle's check found on one generated case.
struct Finding {
  /// The case fell outside the oracle's competence (an Unknown verdict,
  /// a spec the probe cannot exercise): counted, not compared.
  bool Skipped = false;
  /// The disagreement; empty when the substrates agree.
  std::string Description;
  /// The shrunk case, written after the repro header.
  std::string Body;
};

/// One oracle's own part of an iteration: generate a case from the
/// iteration's context and stream, check it, and shrink a failure.
using OracleStep =
    std::function<Finding(Context &, Rng &, Generator &, FaultKind)>;

/// The repro file: one header line naming the oracle, seed, iteration
/// and fault, every description line as a `// ` comment, then the body.
std::string reproText(const std::string &Oracle, uint64_t Seed,
                      unsigned Iteration, FaultKind Fault,
                      const std::string &Description,
                      const std::string &Body) {
  std::string Out = std::string(ReproHeader) + " oracle=" + Oracle +
                    " seed=" + std::to_string(Seed) +
                    " iteration=" + std::to_string(Iteration) +
                    " fault=" + faultName(Fault) + "\n";
  const std::string Lines =
      Description.substr(0, Description.find_last_not_of('\n') + 1);
  for (const std::string &Line : split(Lines, '\n'))
    Out += "// " + Line + "\n";
  Out += Body;
  if (!Body.empty() && Body.back() != '\n')
    Out += "\n";
  return Out;
}

/// Runs \p Step for Options.Iterations seeded iterations, turning each
/// finding into a FailureCase (and a repro file named
/// <FileStem>-seed<S>-iter<I><Extension> when artifacts are on) until
/// Options.MaxFailures are found.
OracleReport runOracle(const FuzzOptions &Options, const std::string &Oracle,
                       uint64_t Salt, const std::string &FileStem,
                       const char *Extension, const OracleStep &Step) {
  OracleReport Report;
  Report.Oracle = Oracle;
  for (unsigned It = 0; It < Options.Iterations; ++It) {
    ++Report.Iterations;
    Context Ctx;
    Rng R(mixSeed(Options.Seed ^ Salt, It));
    Generator Gen(Ctx, R);
    Finding Found = Step(Ctx, R, Gen, Options.Fault);
    if (Options.Verbose && (It + 1) % 100 == 0)
      std::fprintf(stderr, "temos-fuzz: %s %u/%u iterations\n",
                   Oracle.c_str(), It + 1, Options.Iterations);
    if (Found.Skipped) {
      ++Report.Skipped;
      continue;
    }
    if (Found.Description.empty())
      continue;

    FailureCase F;
    F.Oracle = Oracle;
    F.Seed = Options.Seed;
    F.Iteration = It;
    F.Description = Found.Description;
    F.Repro = reproText(Oracle, Options.Seed, It, Options.Fault,
                        Found.Description, Found.Body);
    if (!Options.ArtifactsDir.empty())
      F.ArtifactPath = writeTextFile(
          Options.ArtifactsDir,
          FileStem + "-seed" + std::to_string(Options.Seed) + "-iter" +
              std::to_string(It) + Extension,
          F.Repro);
    Report.Failures.push_back(std::move(F));
    if (Report.Failures.size() >= Options.MaxFailures)
      break;
  }
  return Report;
}

/// The replay outcome of a check that ran: \p Failure empty = clean.
ReplayResult checked(const std::string &Failure) {
  if (Failure.empty())
    return {ReplayVerdict::Clean, "no discrepancy: the check passes"};
  return {ReplayVerdict::Reproduces, "discrepancy reproduces: " + Failure};
}

ReplayResult unchecked(std::string Why) {
  return {ReplayVerdict::Unchecked, std::move(Why)};
}

//===----------------------------------------------------------------------===//
// Ground evaluation over a bounded model grid
//===----------------------------------------------------------------------===//

void collectTypedSignals(const Term *T, std::map<std::string, Sort> &Out) {
  if (T->isSignal()) {
    Out.emplace(T->name(), T->sort());
    return;
  }
  for (const Term *Arg : T->args())
    collectTypedSignals(Arg, Out);
}

/// The sample grid per sort: exhaustive for Int within [-5, 5] (the
/// generator's LIA boxes live in [-4, 4]), half-steps for Real, three
/// symbols for Opaque (term-model semantics make any concrete hit a
/// genuine model).
std::vector<Value> gridValues(Sort S) {
  std::vector<Value> Out;
  switch (S) {
  case Sort::Bool:
    Out = {Value::boolean(false), Value::boolean(true)};
    break;
  case Sort::Int:
    for (int64_t I = -5; I <= 5; ++I)
      Out.push_back(Value::integer(I));
    break;
  case Sort::Real:
    for (int64_t I = -8; I <= 8; ++I)
      Out.push_back(Value::number(Rational(I, 2)));
    break;
  case Sort::Opaque:
    Out = {Value::symbol("@a"), Value::symbol("@b"), Value::symbol("@c")};
    break;
  }
  return Out;
}

/// Exhaustively searches the grid for an assignment satisfying every
/// literal. Returns the model if found.
std::optional<Assignment>
bruteForceModel(const std::vector<TheoryLiteral> &Literals) {
  std::map<std::string, Sort> Signals;
  for (const TheoryLiteral &L : Literals)
    collectTypedSignals(L.Atom, Signals);

  std::vector<std::string> Names;
  std::vector<std::vector<Value>> Domains;
  size_t Combinations = 1;
  for (const auto &[Name, S] : Signals) {
    Names.push_back(Name);
    Domains.push_back(gridValues(S));
    Combinations *= Domains.back().size();
    if (Combinations > 500000)
      return std::nullopt; // Grid too large; caller treats as "no model".
  }

  Evaluator E;
  std::vector<size_t> Odometer(Names.size(), 0);
  while (true) {
    Assignment Env;
    for (size_t I = 0; I < Names.size(); ++I)
      Env[Names[I]] = Domains[I][Odometer[I]];
    bool All = true;
    for (const TheoryLiteral &L : Literals) {
      auto V = E.evaluateBool(L.Atom, Env);
      if (!V || *V != L.Positive) {
        All = false;
        break;
      }
    }
    if (All)
      return Env;
    size_t I = 0;
    for (; I < Odometer.size(); ++I) {
      if (++Odometer[I] < Domains[I].size())
        break;
      Odometer[I] = 0;
    }
    if (I == Odometer.size())
      return std::nullopt;
  }
}

/// True when \p Literals pin every occurring signal to an Int interval
/// within the grid, making brute-force refutation authoritative.
bool gridCompleteFor(const std::vector<TheoryLiteral> &Literals) {
  std::map<std::string, Sort> Signals;
  for (const TheoryLiteral &L : Literals)
    collectTypedSignals(L.Atom, Signals);
  for (const auto &[Name, S] : Signals) {
    if (S != Sort::Int && S != Sort::Bool)
      return false;
    if (S == Sort::Bool)
      continue;
    bool HasLower = false, HasUpper = false;
    for (const TheoryLiteral &L : Literals) {
      if (!L.Positive || !L.Atom->isApply() || L.Atom->arity() != 2)
        continue;
      const Term *Lhs = L.Atom->args()[0];
      const Term *Rhs = L.Atom->args()[1];
      if (!Lhs->isSignal() || Lhs->name() != Name || !Rhs->isNumeral())
        continue;
      const Rational &C = Rhs->value();
      if (L.Atom->name() == ">=" && C >= Rational(-5))
        HasLower = true;
      if (L.Atom->name() == "<=" && C <= Rational(5))
        HasUpper = true;
      if (L.Atom->name() == "=" && C >= Rational(-5) && C <= Rational(5))
        HasLower = HasUpper = true;
    }
    if (!HasLower || !HasUpper)
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Theory oracle
//===----------------------------------------------------------------------===//

/// How a theory case disagreed across substrates.
enum class DiscKind {
  None,
  /// Solver said Unsat but a concrete grid model satisfies every
  /// literal: the solver lost a model (soundness of Unsat).
  UnsoundUnsat,
  /// Solver said Sat but the exhaustive integer grid refutes it.
  UnsoundSat,
  /// Solver said Sat and produced a model that does not evaluate to
  /// true on every literal.
  BadModel,
  /// Verdict was Unknown or the case was outside the grid's competence.
  Skipped,
};

struct TheoryVerdict {
  DiscKind Kind = DiscKind::None;
  std::string Detail;
};

/// Applies the injected fault to the solver's copy of the literals.
std::vector<TheoryLiteral>
applyTheoryFault(TermFactory &TF, std::vector<TheoryLiteral> Literals,
                 FaultKind Fault) {
  if (Fault == FaultKind::DropConjunct && Literals.size() > 1) {
    Literals.pop_back();
    return Literals;
  }
  if (Fault != FaultKind::FlipStrict)
    return Literals;
  for (TheoryLiteral &L : Literals) {
    if (!L.Atom->isApply() || L.Atom->arity() != 2)
      continue;
    if (L.Atom->name() == "<" || L.Atom->name() == ">") {
      L.Atom = TF.apply(L.Atom->name() == "<" ? "<=" : ">=", Sort::Bool,
                        L.Atom->args());
      break;
    }
  }
  return Literals;
}

/// True for the arithmetic and comparison operators the Evaluator
/// interprets; every other application with arguments is uninterpreted.
bool isBuiltinOp(const std::string &Name) {
  static const char *const Ops[] = {"+",  "-", "*",  "/", "<",
                                    "<=", ">", ">=", "=", "!="};
  return std::find(std::begin(Ops), std::end(Ops), Name) != std::end(Ops);
}

/// True when every application in \p T is an interpreted builtin, so the
/// Evaluator's verdict on a model assignment is authoritative. Atoms
/// containing uninterpreted applications are excluded from solver-model
/// checking: the Evaluator's fixed term-model semantics cannot represent
/// every EUF model (e.g. `u = f(u)` is Sat with f interpreted as the
/// identity, but no symbol assignment makes `f(@u)` print as `@u`).
bool modelCheckable(const Term *T) {
  if (T->isApply() && T->arity() > 0 && !isBuiltinOp(T->name()))
    return false;
  if (T->isApply() && T->arity() == 0 && T->name() != "True" &&
      T->name() != "False")
    return false;
  for (const Term *Arg : T->args())
    if (!modelCheckable(Arg))
      return false;
  return true;
}

TheoryVerdict checkTheoryCase(TermFactory &TF, Theory Th,
                              const std::vector<TheoryLiteral> &Literals,
                              FaultKind Fault) {
  TheoryVerdict Out;
  std::vector<TheoryLiteral> SolverLits =
      applyTheoryFault(TF, Literals, Fault);

  SmtSolver Solver(Th);
  Assignment Model;
  SatResult Verdict = Solver.checkLiterals(SolverLits, &Model);
  if (Verdict == SatResult::Unknown) {
    Out.Kind = DiscKind::Skipped;
    return Out;
  }

  std::optional<Assignment> Ground = bruteForceModel(Literals);
  if (Verdict == SatResult::Unsat && Ground) {
    Out.Kind = DiscKind::UnsoundUnsat;
    Out.Detail = "solver reported Unsat but a ground model exists:";
    for (const auto &[Name, V] : *Ground)
      Out.Detail += " " + Name + "=" + V.str();
    return Out;
  }
  if (Verdict == SatResult::Sat) {
    // The model must satisfy every literal of the *original* case when
    // no fault is injected; under a fault, of the solver's input (the
    // fault models a solver bug, and the oracle's job is to notice the
    // verdict/model disagreeing with the unperturbed ground truth).
    Evaluator E;
    for (const TheoryLiteral &L : Literals) {
      if (!modelCheckable(L.Atom))
        continue;
      auto V = E.evaluateBool(L.Atom, Model);
      if (!V || *V != L.Positive) {
        Out.Kind = DiscKind::BadModel;
        Out.Detail = "solver model violates literal " +
                     std::string(L.Positive ? "" : "! ") + L.Atom->str();
        return Out;
      }
    }
    if (!Ground && gridCompleteFor(Literals)) {
      Out.Kind = DiscKind::UnsoundSat;
      Out.Detail = "solver reported Sat but the exhaustive grid refutes it";
      return Out;
    }
  }
  return Out;
}

/// Decimal rendering for repro files: "3/2" does not re-parse, "1.5"
/// does. Falls back to n/d (with a warning comment upstream) for
/// denominators that have no finite decimal expansion.
std::string decimalText(const Rational &V) {
  if (V.isInteger())
    return V.str();
  int64_t Den = V.denominator();
  int64_t Scale = 1;
  for (int I = 0; I < 6 && Scale % Den != 0; ++I)
    Scale *= 10;
  if (Scale % Den != 0)
    return V.str();
  int64_t Scaled = V.numerator() * (Scale / Den);
  bool Neg = Scaled < 0;
  if (Neg)
    Scaled = -Scaled;
  std::string Frac = std::to_string(Scaled % Scale);
  Frac.insert(Frac.begin(),
              std::to_string(Scale).size() - 1 - Frac.size(), '0');
  return (Neg ? "-" : "") + std::to_string(Scaled / Scale) + "." + Frac;
}

std::string reproTermStr(const Term *T) {
  switch (T->kind()) {
  case Term::Kind::Signal:
    return T->name();
  case Term::Kind::Numeral:
    return decimalText(T->value());
  case Term::Kind::Apply: {
    if (T->args().empty())
      return T->name() + "()";
    if (T->arity() == 2 && isBuiltinOp(T->name()))
      return "(" + reproTermStr(T->args()[0]) + " " + T->name() + " " +
             reproTermStr(T->args()[1]) + ")";
    std::string Out = "(" + T->name();
    for (const Term *Arg : T->args())
      Out += " " + reproTermStr(Arg);
    return Out + ")";
  }
  }
  return "?";
}

/// Renders a theory case as a standalone, re-parseable specification:
/// signals become `inputs`, uninterpreted functions a `functions` block,
/// and each literal an `always assume` conjunct. replayTheory() reverses
/// this.
std::string theoryReproSource(Theory Th,
                              const std::vector<TheoryLiteral> &Literals) {
  std::map<std::string, Sort> Signals;
  std::map<std::string, const Term *> Functions;
  for (const TheoryLiteral &L : Literals) {
    collectTypedSignals(L.Atom, Signals);
    // Non-builtin applications with arguments need declarations.
    std::function<void(const Term *)> Walk = [&](const Term *T) {
      if (T->isApply() && T->arity() > 0 && !isBuiltinOp(T->name()))
        Functions.emplace(T->name(), T);
      for (const Term *Arg : T->args())
        Walk(Arg);
    };
    Walk(L.Atom);
  }

  std::string Out = std::string("#") + theoryName(Th) + "#\n";
  if (!Signals.empty()) {
    Out += "inputs {";
    for (const auto &[Name, S] : Signals)
      Out += std::string(" ") + sortName(S) + " " + Name + ";";
    Out += " }\n";
  }
  if (!Functions.empty()) {
    Out += "functions {";
    for (const auto &[Name, T] : Functions) {
      Out += std::string(" ") + sortName(T->sort()) + " " + Name + "(";
      for (size_t I = 0; I < T->arity(); ++I)
        Out += std::string(I ? ", " : "") + sortName(T->args()[I]->sort());
      Out += ");";
    }
    Out += " }\n";
  }
  Out += "always assume {\n";
  for (const TheoryLiteral &L : Literals)
    Out += std::string("  ") + (L.Positive ? "" : "! ") +
           reproTermStr(L.Atom) + ";\n";
  Out += "}\n";
  return Out;
}

Finding theoryStep(Context &Ctx, Rng &, Generator &Gen, FaultKind Fault) {
  TheoryCase Case = Gen.theoryCase();
  TheoryVerdict V = checkTheoryCase(Ctx.Terms, Case.Th, Case.Literals, Fault);
  if (V.Kind == DiscKind::Skipped)
    return {true, "", ""};
  if (V.Kind == DiscKind::None)
    return {};

  // Shrink while the same kind of disagreement persists.
  std::vector<TheoryLiteral> Shrunk = shrinkLiterals(
      Ctx.Terms, Case.Literals,
      [&](const std::vector<TheoryLiteral> &Candidate) {
        return !Candidate.empty() &&
               checkTheoryCase(Ctx.Terms, Case.Th, Candidate, Fault).Kind ==
                   V.Kind;
      });
  TheoryVerdict Final = checkTheoryCase(Ctx.Terms, Case.Th, Shrunk, Fault);
  return {false, Final.Detail.empty() ? V.Detail : Final.Detail,
          theoryReproSource(Case.Th, Shrunk)};
}

/// Re-checks a theory repro: every `always assume` conjunct is one
/// theory literal, compared solver vs. ground truth under \p Fault.
ReplayResult replayTheory(const std::string &Text, FaultKind Fault) {
  Context Ctx;
  auto Spec = parseSpecification(Text, Ctx);
  if (!Spec)
    return unchecked("repro does not parse: " + Spec.error().str());

  std::vector<TheoryLiteral> Literals;
  for (const Formula *F : Spec->Assumptions) {
    bool Positive = true;
    if (F->is(Formula::Kind::Not)) {
      Positive = false;
      F = F->child(0);
    }
    if (!F->is(Formula::Kind::Pred))
      return unchecked("repro assumption is not a literal: " + F->str());
    Literals.push_back({F->pred(), Positive});
  }
  if (Literals.empty())
    return unchecked("repro has no `always assume` literals");

  TheoryVerdict V = checkTheoryCase(Ctx.Terms, Spec->Th, Literals, Fault);
  if (V.Kind == DiscKind::Skipped)
    return unchecked("solver verdict Unknown; nothing to compare");
  return checked(V.Detail);
}

//===----------------------------------------------------------------------===//
// Round-trip oracle
//===----------------------------------------------------------------------===//

/// Applies the MutatePrint fault: first "&&" becomes "||".
std::string mutatePrinted(const std::string &Text, FaultKind Fault) {
  if (Fault != FaultKind::MutatePrint)
    return Text;
  std::string Out = Text;
  if (auto Pos = Out.find("&&"); Pos != std::string::npos)
    Out.replace(Pos, 2, "||");
  return Out;
}

/// One formula round trip under \p Spec; returns a description of the
/// failure, empty on success.
std::string formulaRoundTrip(const std::string &Printed,
                             const Specification &Spec, Context &Ctx,
                             FaultKind Fault) {
  auto Parsed = parseFormula(mutatePrinted(Printed, Fault), Spec, Ctx);
  if (!Parsed)
    return "printed formula does not re-parse (" + Parsed.error().str() +
           "): " + Printed;
  std::string Second = (*Parsed)->str();
  if (Second != Printed)
    return "print -> parse -> print is not a fixpoint:\n  first:  " + Printed +
           "\n  second: " + Second;
  return "";
}

std::string specRoundTrip(const std::string &Printed, FaultKind Fault) {
  Context Ctx2;
  auto Reparsed = parseSpecification(mutatePrinted(Printed, Fault), Ctx2);
  if (!Reparsed)
    return "printed specification does not re-parse (" +
           Reparsed.error().str() + ")";
  std::string Second = Reparsed->str();
  if (Second != Printed)
    return "spec print -> parse -> print is not a fixpoint:\n--- first\n" +
           Printed + "\n--- second\n" + Second;
  return "";
}

/// The round-trip check of a formula repro: \p Text must parse against
/// the base spec, then its printed form goes through formulaRoundTrip.
/// nullopt when it does not parse.
std::optional<std::string> formulaCase(const std::string &Text,
                                       FaultKind Fault) {
  Context Ctx;
  auto Spec = parseSpecification(Generator::roundTripSpecSource(), Ctx);
  if (!Spec)
    return std::nullopt;
  auto First = parseFormula(Text, *Spec, Ctx);
  if (!First)
    return std::nullopt;
  return formulaRoundTrip((*First)->str(), *Spec, Ctx, Fault);
}

/// The round-trip check of a specification repro; nullopt when \p Text
/// does not parse.
std::optional<std::string> specCase(const std::string &Text,
                                    FaultKind Fault) {
  Context Ctx;
  auto First = parseSpecification(Text, Ctx);
  if (!First)
    return std::nullopt;
  return specRoundTrip(First->str(), Fault);
}

Finding roundTripStep(Context &Ctx, Rng &R, Generator &Gen, FaultKind Fault) {
  if (R.chance(70)) {
    auto Spec = parseSpecification(Generator::roundTripSpecSource(), Ctx);
    if (!Spec)
      return {false,
              "round-trip base spec does not parse: " + Spec.error().str(),
              Generator::roundTripSpecSource()};
    const Formula *F =
        Gen.temporalFormula(*Spec, static_cast<int>(R.range(2, 4)));
    std::string Printed = F->str();
    std::string Failure = formulaRoundTrip(Printed, *Spec, Ctx, Fault);
    if (Failure.empty())
      return {};
    // Shrink at the text level, preserving the failure.
    return {false, Failure,
            shrinkSource(Printed, [&](const std::string &Candidate) {
              auto Fails = formulaCase(Candidate, Fault);
              return Fails && !Fails->empty();
            })};
  }
  std::string Printed = Gen.randomSpec().str();
  std::string Failure = specRoundTrip(Printed, Fault);
  if (Failure.empty())
    return {};
  return {false, Failure,
          shrinkSource(Printed, [&](const std::string &Candidate) {
            auto Fails = specCase(Candidate, Fault);
            return Fails && !Fails->empty();
          })};
}

/// A repro body is either a whole specification or one formula over the
/// base spec; whichever parses is checked.
ReplayResult replayRoundTrip(const std::string &Text, FaultKind Fault) {
  std::optional<std::string> Failure = specCase(Text, Fault);
  if (!Failure)
    Failure = formulaCase(Text, Fault);
  if (!Failure)
    return unchecked("repro parses neither as a specification nor as a "
                     "formula over the round-trip base spec");
  return checked(*Failure);
}

//===----------------------------------------------------------------------===//
// SyGuS oracle
//===----------------------------------------------------------------------===//

/// Executes \p Steps from x = Start; true when the post-condition holds
/// in the final state. nullopt when evaluation fails.
std::optional<bool> groundRun(const SygusQuery &Query, int64_t Start,
                              const std::vector<StepChoice> &Steps) {
  Evaluator E;
  Assignment State = {{"x", Value::integer(Start)}};
  for (const StepChoice &Step : Steps)
    if (!applyStepConcrete(E, State, Step))
      return std::nullopt;
  for (const TheoryLiteral &L : Query.Post) {
    auto V = E.evaluateBool(L.Atom, State);
    if (!V)
      return std::nullopt;
    if (*V != L.Positive)
      return false;
  }
  return true;
}

/// True when \p Steps reaches the post from every start in [Lo, Hi].
std::optional<bool> groundVerify(const SygusQuery &Query, int64_t Lo,
                                 int64_t Hi,
                                 const std::vector<StepChoice> &Steps) {
  for (int64_t S = Lo; S <= Hi; ++S) {
    auto Ok = groundRun(Query, S, Steps);
    if (!Ok)
      return std::nullopt;
    if (!*Ok)
      return false;
  }
  return true;
}

/// Exhaustive search over the same chain grammar the solver enumerates;
/// returns a program verified by ground execution, if any exists.
std::optional<SequentialProgram> bruteForceProgram(const SygusCase &Case) {
  const CellSpec &Cell = Case.Query.Cells[0];
  for (unsigned Len = 1; Len <= Case.MaxSteps; ++Len) {
    std::vector<size_t> Odometer(Len, 0);
    while (true) {
      SequentialProgram P;
      for (unsigned I = 0; I < Len; ++I)
        P.Steps.push_back({{Cell.Name, Cell.Updates[Odometer[I]]}});
      auto Ok = groundVerify(Case.Query, Case.Lo, Case.Hi, P.Steps);
      if (Ok && *Ok)
        return P;
      size_t I = 0;
      for (; I < Len; ++I) {
        if (++Odometer[I] < Cell.Updates.size())
          break;
        Odometer[I] = 0;
      }
      if (I == Len)
        break;
    }
  }
  return std::nullopt;
}

enum class SygusDisc { None, UnsoundProgram, MissedProgram, ExclusionIgnored };

struct SygusVerdict {
  SygusDisc Kind = SygusDisc::None;
  bool Skipped = false;
  std::string Detail;
};

SygusVerdict checkSygusCase(Context &Ctx, const SygusCase &Case,
                            FaultKind Fault) {
  SygusVerdict Out;
  SygusSolver Solver(Ctx, Theory::LIA);
  Solver.Opts.MaxSteps = Case.MaxSteps;
  auto P = Solver.synthesizeSequentialUpTo(Case.Query);

  if (!P) {
    // Completeness: the solver enumerates exactly this space, so a
    // ground-verified program it missed is a genuine bug.
    if (auto Missed = bruteForceProgram(Case)) {
      Out.Kind = SygusDisc::MissedProgram;
      Out.Detail = "solver found no program but " + Missed->str() +
                   " verifies by ground execution";
    }
    return Out;
  }

  SequentialProgram Candidate = *P;
  if (Fault == FaultKind::SkipVerify && !Candidate.Steps.empty()) {
    // Swap the first step for a different update without re-verifying.
    const CellSpec &Cell = Case.Query.Cells[0];
    const Term *Current = Candidate.Steps[0].at(Cell.Name);
    for (const Term *U : Cell.Updates)
      if (U != Current) {
        Candidate.Steps[0][Cell.Name] = U;
        break;
      }
  }

  auto Ok = groundVerify(Case.Query, Case.Lo, Case.Hi, Candidate.Steps);
  if (!Ok) {
    Out.Skipped = true;
    return Out;
  }
  if (!*Ok) {
    // Find a witness start for the report.
    std::string Witness;
    for (int64_t S = Case.Lo; S <= Case.Hi; ++S) {
      auto R = groundRun(Case.Query, S, Candidate.Steps);
      if (R && !*R) {
        Witness = " (fails from x = " + std::to_string(S) + ")";
        break;
      }
    }
    Out.Kind = SygusDisc::UnsoundProgram;
    Out.Detail = "synthesized program " + Candidate.str() +
                 " violates the post-condition under ground execution" +
                 Witness;
    return Out;
  }

  // Exclusion lists must exclude: re-synthesizing with the found
  // program excluded must not return it again.
  auto P2 = Solver.synthesizeSequential(Case.Query,
                                        static_cast<unsigned>(P->length()),
                                        {*P});
  if (P2 && *P2 == *P) {
    Out.Kind = SygusDisc::ExclusionIgnored;
    Out.Detail = "exclusion constraint ignored: " + P->str() +
                 " returned again despite being excluded";
  }
  return Out;
}

/// Renders a SyGuS case for the repro body. It is not a specification:
/// the oracle's own run is its replay.
std::string sygusReproText(const SygusCase &Case) {
  const CellSpec &Cell = Case.Query.Cells[0];
  std::string Out = "cell " + Cell.Name + " : int, updates {";
  for (size_t I = 0; I < Cell.Updates.size(); ++I)
    Out += std::string(I ? ", " : " ") + Cell.Updates[I]->str();
  Out += " }\npre: " + std::to_string(Case.Lo) + " <= x <= " +
         std::to_string(Case.Hi) + "\npost:";
  for (const TheoryLiteral &L : Case.Query.Post)
    Out += std::string(" ") + (L.Positive ? "" : "! ") + L.Atom->str();
  return Out + "\nmax steps: " + std::to_string(Case.MaxSteps) + "\n";
}

/// Greedy SyGuS-case shrink: drop update options, narrow the box,
/// simplify the post-condition constant.
SygusCase shrinkSygusCase(Context &Ctx, SygusCase Case, SygusDisc Kind,
                          FaultKind Fault) {
  auto StillFails = [&](const SygusCase &Candidate) {
    return !Candidate.Query.Cells[0].Updates.empty() &&
           Candidate.Lo <= Candidate.Hi &&
           checkSygusCase(Ctx, Candidate, Fault).Kind == Kind;
  };
  bool Changed = true;
  unsigned Budget = 200;
  while (Changed && Budget > 0) {
    Changed = false;
    // Drop update options.
    for (size_t I = 0; I < Case.Query.Cells[0].Updates.size() && Budget > 0;
         ++I) {
      SygusCase Candidate = Case;
      auto &Updates = Candidate.Query.Cells[0].Updates;
      Updates.erase(Updates.begin() + static_cast<long>(I));
      --Budget;
      if (StillFails(Candidate)) {
        Case = std::move(Candidate);
        Changed = true;
        --I;
      }
    }
    // Narrow the box from both ends (rebuilding the pre literals).
    for (bool FromLow : {true, false}) {
      if (Budget == 0 || Case.Lo >= Case.Hi)
        break;
      SygusCase Candidate = Case;
      if (FromLow)
        ++Candidate.Lo;
      else
        --Candidate.Hi;
      const Term *X = Ctx.Terms.signal("x", Sort::Int);
      Candidate.Query.Pre = {
          {Ctx.Terms.apply(">=", Sort::Bool,
                           {X, Ctx.Terms.numeral(Candidate.Lo)}),
           true},
          {Ctx.Terms.apply("<=", Sort::Bool,
                           {X, Ctx.Terms.numeral(Candidate.Hi)}),
           true}};
      --Budget;
      if (StillFails(Candidate)) {
        Case = std::move(Candidate);
        Changed = true;
      }
    }
    // Fewer steps.
    if (Budget > 0 && Case.MaxSteps > 1) {
      SygusCase Candidate = Case;
      --Candidate.MaxSteps;
      --Budget;
      if (StillFails(Candidate)) {
        Case = std::move(Candidate);
        Changed = true;
      }
    }
  }
  return Case;
}

Finding sygusStep(Context &Ctx, Rng &, Generator &Gen, FaultKind Fault) {
  SygusCase Case = Gen.sygusCase();
  SygusVerdict V = checkSygusCase(Ctx, Case, Fault);
  if (V.Skipped)
    return {true, "", ""};
  if (V.Kind == SygusDisc::None)
    return {};
  SygusCase Shrunk = shrinkSygusCase(Ctx, Case, V.Kind, Fault);
  SygusVerdict Final = checkSygusCase(Ctx, Shrunk, Fault);
  return {false, Final.Detail.empty() ? V.Detail : Final.Detail,
          sygusReproText(Shrunk)};
}

//===----------------------------------------------------------------------===//
// Pipeline oracle
//===----------------------------------------------------------------------===//

/// Everything that must be byte-identical across configurations.
struct PipelineOutcome {
  bool Parsed = false;
  std::string Status;
  std::string Diagnostic;
  std::string Assumptions;
  std::string Js;
  std::string Cpp;

  bool operator==(const PipelineOutcome &RHS) const {
    return Parsed == RHS.Parsed && Status == RHS.Status &&
           Diagnostic == RHS.Diagnostic && Assumptions == RHS.Assumptions &&
           Js == RHS.Js && Cpp == RHS.Cpp;
  }
};

PipelineOutcome runPipelineConfig(const std::string &Source, unsigned Jobs,
                                  bool Cache, bool Incremental,
                                  FaultKind Fault) {
  PipelineOutcome Out;
  Context Ctx;
  auto Spec = parseSpecification(Source, Ctx);
  if (!Spec)
    return Out;
  Out.Parsed = true;

  Synthesizer Synth(Ctx);
  PipelineOptions Options;
  Options.Parallelism.NumThreads = Jobs;
  Options.Parallelism.CacheEnabled = Cache;
  Options.Reactive.Incremental = Incremental;
  if (Fault == FaultKind::LazyConfig && Jobs > 1)
    Options.Eager = false;
  PipelineResult R = Synth.run(*Spec, Options);

  Out.Status = realizabilityName(R.Status);
  Out.Diagnostic = R.Diagnostic;
  for (const Formula *A : R.Assumptions)
    Out.Assumptions += A->str() + "\n";
  if (R.Status == Realizability::Realizable && R.Machine) {
    Out.Js = emitJavaScript(*R.Machine, R.AB, *Spec);
    Out.Cpp = emitCpp(*R.Machine, R.AB, *Spec);
  }
  return Out;
}

/// Returns a description of the first configuration disagreeing with
/// the jobs=1/cache=on reference; empty when all agree.
std::string pipelineDisagreement(const std::string &Source, FaultKind Fault) {
  struct Config {
    unsigned Jobs;
    bool Cache;
    bool Incremental;
  };
  // The last row pits the incremental reactive engine against the
  // rebuild-everything path: NBA/arena reuse must never change any
  // observable output.
  static const Config Configs[] = {{1, true, true},
                                   {4, true, true},
                                   {1, false, true},
                                   {4, false, true},
                                   {1, true, false}};
  PipelineOutcome Reference = runPipelineConfig(
      Source, Configs[0].Jobs, Configs[0].Cache, Configs[0].Incremental,
      Fault);
  if (!Reference.Parsed)
    return "";
  for (size_t I = 1; I < std::size(Configs); ++I) {
    PipelineOutcome Other =
        runPipelineConfig(Source, Configs[I].Jobs, Configs[I].Cache,
                          Configs[I].Incremental, Fault);
    if (Other == Reference)
      continue;
    std::string ConfigStr =
        "jobs=" + std::to_string(Configs[I].Jobs) + " cache=" +
        (Configs[I].Cache ? "on" : "off") +
        (Configs[I].Incremental ? "" : " incremental=off");
    std::string What;
    if (Other.Status != Reference.Status)
      What = "status '" + Reference.Status + "' vs '" + Other.Status + "'";
    else if (Other.Assumptions != Reference.Assumptions)
      What = "assumption sets differ:\n--- jobs=1\n" + Reference.Assumptions +
             "--- " + ConfigStr + "\n" + Other.Assumptions;
    else if (Other.Js != Reference.Js)
      What = "emitted JavaScript differs";
    else if (Other.Cpp != Reference.Cpp)
      What = "emitted C++ differs";
    else
      What = "diagnostics differ";
    return ConfigStr + " disagrees with the reference: " + What;
  }
  return "";
}

Finding pipelineStep(Context &, Rng &, Generator &Gen, FaultKind Fault) {
  std::string Source = Gen.pipelineSpecSource();
  std::string Failure = pipelineDisagreement(Source, Fault);
  if (Failure.empty())
    return {};
  return {false, Failure,
          shrinkSource(Source, [&](const std::string &Candidate) {
            return !pipelineDisagreement(Candidate, Fault).empty();
          })};
}

/// SpinHang probe. Unlike the differential faults, the planted bug is a
/// genuine non-termination (the SyGuS enumerator withholds every
/// verified candidate and restarts its sweep forever), so the oracle is
/// not a cross-config diff but a liveness check on the deadline
/// machinery itself: with a short SyGuS budget, the run must come back
/// within 2x the budget carrying a Timeout failure record for the sygus
/// phase. A "failure" here is the *detection* (proof the probe works),
/// mirroring how the other injected faults surface; a deadline
/// regression instead yields zero detections (or a hung harness), which
/// the injection tests treat as the bug. The repro body is the run
/// artifact, so replay re-runs the pipeline under the recorded budget.
Finding spinHangStep(Context &Ctx, Rng &, Generator &Gen, FaultKind) {
  constexpr double BudgetSeconds = 0.3;
  std::string Source = Gen.pipelineSpecSource();
  auto Spec = parseSpecification(Source, Ctx);
  if (!Spec)
    return {true, "", ""};

  Synthesizer Synth(Ctx);
  PipelineOptions PO;
  PO.InjectSpinHang = true;
  PO.Budget.SygusSeconds = BudgetSeconds;
  Timer Wall;
  PipelineResult PR = Synth.run(*Spec, PO);
  const double WallSeconds = Wall.seconds();

  // Specs without data obligations never enter the planted loop; they
  // exercise nothing and are skipped, not counted as misses.
  if (std::none_of(PR.Stats.Failures.begin(), PR.Stats.Failures.end(),
                   [](const FailureRecord &Rec) {
                     return Rec.Kind == FailureKind::Timeout &&
                            Rec.Phase == "sygus";
                   }))
    return {true, "", ""};
  if (WallSeconds > 2 * BudgetSeconds)
    return {}; // Deadline tripped, but too late: not a clean detection.

  char Desc[160];
  std::snprintf(Desc, sizeof(Desc),
                "spin-hang tripped the sygus deadline in %.3fs "
                "(budget %.3fs, ceiling %.3fs)",
                WallSeconds, BudgetSeconds, 2 * BudgetSeconds);
  return {false, Desc,
          runArtifactText("fuzz-spin-hang", PR, PO, Source)};
}

/// Re-runs a `// temos-artifact:` dump under its recorded options; it
/// reproduces when the run still degrades.
ReplayResult replayRunArtifact(const std::string &Text,
                               const PipelineOptions &Options) {
  Context Ctx;
  auto Spec = parseSpecification(Text, Ctx);
  if (!Spec)
    return unchecked("artifact replay: embedded spec does not parse: " +
                     Spec.error().str());

  Synthesizer Synth(Ctx);
  PipelineResult R = Synth.run(*Spec, Options);
  if (R.Stats.Failures.empty() && !R.Diagnostic.empty())
    return unchecked("artifact replay: options refused: " + R.Diagnostic);

  std::string Out = "pipeline artifact replay\nstatus: " +
                    std::string(realizabilityName(R.Status)) + "\n";
  if (!R.Diagnostic.empty())
    Out += "diagnostic: " + R.Diagnostic + "\n";
  for (const FailureRecord &F : R.Stats.Failures)
    Out += "failure: " + F.str() + "\n";
  if (R.Stats.Failures.empty())
    return {ReplayVerdict::Clean,
            Out + "run completed clean; degradation does not reproduce"};
  return {ReplayVerdict::Reproduces, Out + "degradation reproduces"};
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

OracleReport fuzz::runTheoryOracle(const FuzzOptions &Options) {
  return runOracle(Options, "theory", TheorySalt, "theory", ".tslmt",
                   theoryStep);
}

OracleReport fuzz::runRoundTripOracle(const FuzzOptions &Options) {
  return runOracle(Options, "roundtrip", RoundTripSalt, "roundtrip", ".tslmt",
                   roundTripStep);
}

OracleReport fuzz::runSygusOracle(const FuzzOptions &Options) {
  return runOracle(Options, "sygus", SygusSalt, "sygus", ".txt", sygusStep);
}

OracleReport fuzz::runPipelineOracle(const FuzzOptions &Options) {
  if (Options.Fault == FaultKind::SpinHang)
    return runOracle(Options, "pipeline", PipelineSalt, "pipeline-spinhang",
                     ".tslmt", spinHangStep);
  return runOracle(Options, "pipeline", PipelineSalt, "pipeline", ".tslmt",
                   pipelineStep);
}

std::vector<OracleReport> fuzz::runAllOracles(const FuzzOptions &Options) {
  return {runTheoryOracle(Options), runRoundTripOracle(Options),
          runSygusOracle(Options), runPipelineOracle(Options)};
}

ReplayResult fuzz::replayRepro(const std::string &Text) {
  const std::string First = Text.substr(0, Text.find('\n'));
  if (First.rfind(ReproHeader, 0) != 0) {
    if (std::optional<PipelineOptions> PO = parseRunArtifact(Text))
      return replayRunArtifact(Text, *PO);
    return unchecked("no `// temos-fuzz repro:` or `// temos-artifact:` "
                     "header: nothing to replay");
  }

  char OracleName[32] = {}, FaultText[32] = {};
  unsigned long long Seed = 0;
  unsigned Iteration = 0;
  FaultKind Fault = FaultKind::None;
  if (std::sscanf(First.c_str(),
                  "// temos-fuzz repro: oracle=%31s seed=%llu iteration=%u "
                  "fault=%31s",
                  OracleName, &Seed, &Iteration, FaultText) != 4 ||
      !parseFaultKind(FaultText, Fault))
    return unchecked("malformed repro header: " + First);
  const std::string Oracle = OracleName;

  if (Oracle == "theory")
    return replayTheory(Text, Fault);
  if (Oracle == "roundtrip")
    return replayRoundTrip(Text, Fault);
  if (Oracle == "sygus")
    return unchecked("a sygus repro is not a specification and does not "
                     "replay; re-run the oracle: " +
                     rerunCommand(Oracle, Seed, Iteration, Fault));
  if (Oracle != "pipeline")
    return unchecked("unknown oracle '" + Oracle + "' in " + First);
  if (std::optional<PipelineOptions> PO = parseRunArtifact(Text))
    return replayRunArtifact(Text, *PO);
  Context Ctx;
  if (auto Spec = parseSpecification(Text, Ctx); !Spec)
    return unchecked("repro does not parse: " + Spec.error().str());
  return checked(pipelineDisagreement(Text, Fault));
}
