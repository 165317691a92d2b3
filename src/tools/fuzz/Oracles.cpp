//===- tools/fuzz/Oracles.cpp - Cross-substrate differential oracles ------===//

#include "tools/fuzz/Fuzz.h"

#include "codegen/CodeEmitter.h"
#include "core/Synthesizer.h"
#include "logic/Parser.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "support/Timer.h"
#include "theory/Evaluator.h"
#include "tools/fuzz/Generator.h"
#include "tools/fuzz/Shrinker.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
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

namespace {

/// Per-oracle salts so every oracle explores an independent stream even
/// under one --seed.
constexpr uint64_t TheorySalt = 0x7468656f72790000ull;
constexpr uint64_t RoundTripSalt = 0x726f756e64747200ull;
constexpr uint64_t SygusSalt = 0x7379677573000000ull;
constexpr uint64_t PipelineSalt = 0x706970656c696e65ull;

/// Writes \p Text to ArtifactsDir/<name>; returns the path ("" when
/// disabled or on I/O failure).
std::string writeArtifact(const FuzzOptions &Options, const std::string &Name,
                          const std::string &Text) {
  if (Options.ArtifactsDir.empty())
    return "";
  std::error_code EC;
  std::filesystem::create_directories(Options.ArtifactsDir, EC);
  if (EC)
    return "";
  std::string Path = Options.ArtifactsDir + "/" + Name;
  std::ofstream Out(Path);
  if (!Out)
    return "";
  Out << Text;
  return Path;
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

/// True when every application in \p T is an interpreted builtin, so the
/// Evaluator's verdict on a model assignment is authoritative. Atoms
/// containing uninterpreted applications are excluded from solver-model
/// checking: the Evaluator's fixed term-model semantics cannot represent
/// every EUF model (e.g. `u = f(u)` is Sat with f interpreted as the
/// identity, but no symbol assignment makes `f(@u)` print as `@u`).
bool modelCheckable(const Term *T) {
  if (T->isApply() && T->arity() > 0) {
    static const char *const Builtins[] = {"+",  "-", "*",  "/", "<",
                                           "<=", ">", ">=", "=", "!="};
    bool Builtin = false;
    for (const char *Op : Builtins)
      Builtin |= T->name() == Op;
    if (!Builtin)
      return false;
  }
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
    static const char *const Infix[] = {"+",  "-", "*",  "/", "<",
                                        "<=", ">", ">=", "=", "!="};
    if (T->args().empty())
      return T->name() + "()";
    for (const char *Op : Infix)
      if (T->arity() == 2 && T->name() == Op)
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
/// and each literal an `always assume` conjunct. replayTheoryRepro()
/// reverses this.
std::string theoryReproSource(Theory Th,
                              const std::vector<TheoryLiteral> &Literals,
                              const std::string &Comment) {
  std::map<std::string, Sort> Signals;
  std::map<std::string, const Term *> Functions;
  for (const TheoryLiteral &L : Literals) {
    collectTypedSignals(L.Atom, Signals);
    // Non-builtin applications with arguments need declarations.
    std::function<void(const Term *)> Walk = [&](const Term *T) {
      static const char *const Builtins[] = {"+",  "-", "*", "<",  "<=", ">",
                                             ">=", "=", "!=", "True", "False"};
      if (T->isApply() && T->arity() > 0) {
        bool Builtin = false;
        for (const char *B : Builtins)
          Builtin |= T->name() == B;
        if (!Builtin)
          Functions.emplace(T->name(), T);
      }
      for (const Term *Arg : T->args())
        Walk(Arg);
    };
    Walk(L.Atom);
  }

  std::string Out;
  for (const std::string &Line : split(Comment, '\n'))
    Out += "// " + Line + "\n";
  Out += std::string("#") + theoryName(Th) + "#\n";
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

} // namespace

OracleReport fuzz::runTheoryOracle(const FuzzOptions &Options) {
  OracleReport Report;
  Report.Oracle = "theory";
  for (unsigned It = 0; It < Options.Iterations; ++It) {
    ++Report.Iterations;
    Context Ctx;
    Rng R(mixSeed(Options.Seed ^ TheorySalt, It));
    Generator Gen(Ctx, R);
    TheoryCase Case = Gen.theoryCase();

    TheoryVerdict V =
        checkTheoryCase(Ctx.Terms, Case.Th, Case.Literals, Options.Fault);
    if (V.Kind == DiscKind::Skipped) {
      ++Report.Skipped;
      continue;
    }
    if (V.Kind == DiscKind::None)
      continue;

    // Shrink while the same kind of disagreement persists.
    DiscKind Kind = V.Kind;
    Theory Th = Case.Th;
    FaultKind Fault = Options.Fault;
    std::vector<TheoryLiteral> Shrunk = shrinkLiterals(
        Ctx.Terms, Case.Literals,
        [&](const std::vector<TheoryLiteral> &Candidate) {
          return !Candidate.empty() &&
                 checkTheoryCase(Ctx.Terms, Th, Candidate, Fault).Kind ==
                     Kind;
        });
    TheoryVerdict Final = checkTheoryCase(Ctx.Terms, Th, Shrunk, Fault);

    FailureCase F;
    F.Oracle = Report.Oracle;
    F.Seed = Options.Seed;
    F.Iteration = It;
    F.Description = Final.Detail.empty() ? V.Detail : Final.Detail;
    F.Repro = theoryReproSource(
        Th, Shrunk,
        "temos-fuzz theory repro (replay: temos-fuzz --replay <file>)\n"
        "seed " + std::to_string(Options.Seed) + " iteration " +
            std::to_string(It) + (Fault != FaultKind::None
                                      ? std::string(" injected-fault ") +
                                            faultName(Fault)
                                      : "") +
            "\n" + F.Description);
    F.ArtifactPath = writeArtifact(
        Options,
        "theory-seed" + std::to_string(Options.Seed) + "-iter" +
            std::to_string(It) + ".tslmt",
        F.Repro);
    Report.Failures.push_back(std::move(F));
    if (Report.Failures.size() >= Options.MaxFailures)
      break;
  }
  return Report;
}

std::string fuzz::replayTheoryRepro(const std::string &Source,
                                    bool &StillFails) {
  StillFails = false;
  Context Ctx;
  auto Spec = parseSpecification(Source, Ctx);
  if (!Spec)
    return "repro does not parse: " + Spec.error().str();

  std::vector<TheoryLiteral> Literals;
  for (const Formula *F : Spec->Assumptions) {
    bool Positive = true;
    if (F->is(Formula::Kind::Not)) {
      Positive = false;
      F = F->child(0);
    }
    if (!F->is(Formula::Kind::Pred))
      return "repro assumption is not a literal: " + F->str();
    Literals.push_back({F->pred(), Positive});
  }
  if (Literals.empty())
    return "repro has no `always assume` literals";

  TheoryVerdict V =
      checkTheoryCase(Ctx.Terms, Spec->Th, Literals, FaultKind::None);
  switch (V.Kind) {
  case DiscKind::None:
    return "no discrepancy: solver and ground evaluation agree";
  case DiscKind::Skipped:
    return "solver verdict Unknown; nothing to compare";
  default:
    StillFails = true;
    return "discrepancy reproduces: " + V.Detail;
  }
}

//===----------------------------------------------------------------------===//
// Round-trip oracle
//===----------------------------------------------------------------------===//

namespace {

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

} // namespace

OracleReport fuzz::runRoundTripOracle(const FuzzOptions &Options) {
  OracleReport Report;
  Report.Oracle = "roundtrip";
  for (unsigned It = 0; It < Options.Iterations; ++It) {
    ++Report.Iterations;
    Context Ctx;
    Rng R(mixSeed(Options.Seed ^ RoundTripSalt, It));
    Generator Gen(Ctx, R);

    std::string Failure;
    std::string Repro;
    if (R.chance(70)) {
      auto Spec = parseSpecification(Generator::roundTripSpecSource(), Ctx);
      if (!Spec) {
        Failure = "round-trip base spec does not parse: " +
                  Spec.error().str();
        Repro = Generator::roundTripSpecSource();
      } else {
        const Formula *F =
            Gen.temporalFormula(*Spec, static_cast<int>(R.range(2, 4)));
        std::string Printed = F->str();
        Failure = formulaRoundTrip(Printed, *Spec, Ctx, Options.Fault);
        if (!Failure.empty()) {
          // Shrink at the text level, preserving the failure.
          const Specification &SpecRef = *Spec;
          FaultKind Fault = Options.Fault;
          Repro = shrinkSource(Printed, [&](const std::string &Candidate) {
            Context ShrinkCtx;
            auto SpecCopy =
                parseSpecification(Generator::roundTripSpecSource(), ShrinkCtx);
            if (!SpecCopy)
              return false;
            auto First = parseFormula(Candidate, *SpecCopy, ShrinkCtx);
            if (!First)
              return false; // Must start from a valid formula.
            return !formulaRoundTrip((*First)->str(), *SpecCopy, ShrinkCtx,
                                     Fault)
                        .empty();
          });
          (void)SpecRef;
        }
      }
    } else {
      Specification Spec = Gen.randomSpec();
      std::string Printed = Spec.str();
      Failure = specRoundTrip(Printed, Options.Fault);
      if (!Failure.empty()) {
        FaultKind Fault = Options.Fault;
        Repro = shrinkSource(Printed, [&](const std::string &Candidate) {
          Context ShrinkCtx;
          auto First = parseSpecification(Candidate, ShrinkCtx);
          if (!First)
            return false;
          return !specRoundTrip(First->str(), Fault).empty();
        });
      }
    }

    if (Failure.empty())
      continue;
    FailureCase F;
    F.Oracle = Report.Oracle;
    F.Seed = Options.Seed;
    F.Iteration = It;
    F.Description = Failure;
    F.Repro = Repro;
    F.ArtifactPath = writeArtifact(
        Options,
        "roundtrip-seed" + std::to_string(Options.Seed) + "-iter" +
            std::to_string(It) + ".tslmt",
        "// temos-fuzz roundtrip repro\n// seed " +
            std::to_string(Options.Seed) + " iteration " +
            std::to_string(It) + "\n// " + Failure + "\n" + Repro + "\n");
    Report.Failures.push_back(std::move(F));
    if (Report.Failures.size() >= Options.MaxFailures)
      break;
  }
  return Report;
}

//===----------------------------------------------------------------------===//
// SyGuS oracle
//===----------------------------------------------------------------------===//

namespace {

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

/// Renders a SyGuS case for the repro file.
std::string sygusReproText(const SygusCase &Case, const std::string &Header,
                           const std::string &Detail) {
  std::string Out = "# temos-fuzz sygus repro\n# " + Header + "\n";
  const CellSpec &Cell = Case.Query.Cells[0];
  Out += "# cell " + Cell.Name + " : int, updates {";
  for (size_t I = 0; I < Cell.Updates.size(); ++I)
    Out += std::string(I ? ", " : " ") + Cell.Updates[I]->str();
  Out += " }\n# pre: " + std::to_string(Case.Lo) + " <= x <= " +
         std::to_string(Case.Hi) + "\n# post:";
  for (const TheoryLiteral &L : Case.Query.Post)
    Out += std::string(" ") + (L.Positive ? "" : "! ") + L.Atom->str();
  Out += "\n# max steps: " + std::to_string(Case.MaxSteps) + "\n# " + Detail +
         "\n";
  return Out;
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

} // namespace

OracleReport fuzz::runSygusOracle(const FuzzOptions &Options) {
  OracleReport Report;
  Report.Oracle = "sygus";
  for (unsigned It = 0; It < Options.Iterations; ++It) {
    ++Report.Iterations;
    Context Ctx;
    Rng R(mixSeed(Options.Seed ^ SygusSalt, It));
    Generator Gen(Ctx, R);
    SygusCase Case = Gen.sygusCase();

    SygusVerdict V = checkSygusCase(Ctx, Case, Options.Fault);
    if (V.Skipped) {
      ++Report.Skipped;
      continue;
    }
    if (V.Kind == SygusDisc::None)
      continue;

    SygusCase Shrunk = shrinkSygusCase(Ctx, Case, V.Kind, Options.Fault);
    SygusVerdict Final = checkSygusCase(Ctx, Shrunk, Options.Fault);

    FailureCase F;
    F.Oracle = Report.Oracle;
    F.Seed = Options.Seed;
    F.Iteration = It;
    F.Description = Final.Detail.empty() ? V.Detail : Final.Detail;
    F.Repro = sygusReproText(
        Shrunk,
        "seed " + std::to_string(Options.Seed) + " iteration " +
            std::to_string(It) +
            (Options.Fault != FaultKind::None
                 ? std::string(" injected-fault ") + faultName(Options.Fault)
                 : ""),
        F.Description);
    F.ArtifactPath = writeArtifact(
        Options,
        "sygus-seed" + std::to_string(Options.Seed) + "-iter" +
            std::to_string(It) + ".txt",
        F.Repro);
    Report.Failures.push_back(std::move(F));
    if (Report.Failures.size() >= Options.MaxFailures)
      break;
  }
  return Report;
}

//===----------------------------------------------------------------------===//
// Pipeline oracle
//===----------------------------------------------------------------------===//

namespace {

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

  switch (R.Status) {
  case Realizability::Realizable:
    Out.Status = "realizable";
    break;
  case Realizability::Unrealizable:
    Out.Status = "unrealizable";
    break;
  case Realizability::Unknown:
    Out.Status = "unknown";
    break;
  }
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

/// SpinHang probe. Unlike the differential faults, the planted bug is a
/// genuine non-termination (the SyGuS enumerator withholds every
/// verified candidate and restarts its sweep forever), so the oracle is
/// not a cross-config diff but a liveness check on the deadline
/// machinery itself: with a short SyGuS budget, the run must come back
/// within 2x the budget carrying a Timeout failure record for the sygus
/// phase. A "failure" here is the *detection* (proof the probe works),
/// mirroring how the other injected faults surface; a deadline
/// regression instead yields zero detections (or a hung harness), which
/// the injection tests treat as the bug.
OracleReport runSpinHangProbe(const FuzzOptions &Options) {
  OracleReport Report;
  Report.Oracle = "pipeline";
  const double BudgetSeconds = 0.3;
  for (unsigned It = 0; It < Options.Iterations; ++It) {
    ++Report.Iterations;
    Context Ctx;
    Rng R(mixSeed(Options.Seed ^ PipelineSalt, It));
    Generator Gen(Ctx, R);
    std::string Source = Gen.pipelineSpecSource();
    auto Spec = parseSpecification(Source, Ctx);
    if (!Spec) {
      ++Report.Skipped;
      continue;
    }

    Synthesizer Synth(Ctx);
    PipelineOptions PO;
    PO.InjectSpinHang = true;
    PO.Budget.SygusSeconds = BudgetSeconds;
    Timer Wall;
    PipelineResult PR = Synth.run(*Spec, PO);
    const double WallSeconds = Wall.seconds();

    bool SygusTimeout = false;
    std::string Records;
    for (const FailureRecord &Rec : PR.Stats.Failures) {
      if (Rec.Kind == FailureKind::Timeout && Rec.Phase == "sygus")
        SygusTimeout = true;
      Records += std::string("// failure: ") + failureKindName(Rec.Kind) +
                 " [" + Rec.Phase + "] " + Rec.Detail + "\n";
    }
    // Specs without data obligations never enter the planted loop; they
    // exercise nothing and are skipped, not counted as misses.
    if (!SygusTimeout) {
      ++Report.Skipped;
      continue;
    }
    if (WallSeconds > 2 * BudgetSeconds)
      continue; // Deadline tripped, but too late: not a clean detection.

    char Desc[160];
    std::snprintf(Desc, sizeof(Desc),
                  "spin-hang tripped the sygus deadline in %.3fs "
                  "(budget %.3fs, ceiling %.3fs)",
                  WallSeconds, BudgetSeconds, 2 * BudgetSeconds);

    char OptLine[128];
    std::snprintf(OptLine, sizeof(OptLine),
                  "// options: jobs=1 cache=on lazy=off sygus-budget=%g "
                  "inject-fault=spin-hang\n",
                  BudgetSeconds);
    std::string Repro = "// temos-artifact: v1\n// spec: fuzz-pipeline-seed" +
                        std::to_string(Options.Seed) + "-iter" +
                        std::to_string(It) + "\n// status: unknown\n" +
                        Records + OptLine + "// seed: " +
                        std::to_string(Options.Seed) +
                        "\n// replay: temos-fuzz --replay <this file>\n" +
                        Source + "\n";

    FailureCase F;
    F.Oracle = Report.Oracle;
    F.Seed = Options.Seed;
    F.Iteration = It;
    F.Description = Desc;
    F.Repro = Repro;
    F.ArtifactPath = writeArtifact(
        Options,
        "pipeline-spinhang-seed" + std::to_string(Options.Seed) + "-iter" +
            std::to_string(It) + ".tslmt",
        Repro);
    Report.Failures.push_back(std::move(F));
    if (Report.Failures.size() >= Options.MaxFailures)
      break;
  }
  return Report;
}

} // namespace

OracleReport fuzz::runPipelineOracle(const FuzzOptions &Options) {
  if (Options.Fault == FaultKind::SpinHang)
    return runSpinHangProbe(Options);
  OracleReport Report;
  Report.Oracle = "pipeline";
  for (unsigned It = 0; It < Options.Iterations; ++It) {
    ++Report.Iterations;
    Context Ctx;
    Rng R(mixSeed(Options.Seed ^ PipelineSalt, It));
    Generator Gen(Ctx, R);
    std::string Source = Gen.pipelineSpecSource();

    std::string Failure = pipelineDisagreement(Source, Options.Fault);
    if (Failure.empty())
      continue;

    FaultKind Fault = Options.Fault;
    std::string Shrunk =
        shrinkSource(Source, [&](const std::string &Candidate) {
          return !pipelineDisagreement(Candidate, Fault).empty();
        });

    FailureCase F;
    F.Oracle = Report.Oracle;
    F.Seed = Options.Seed;
    F.Iteration = It;
    F.Description = Failure;
    F.Repro = Shrunk;
    F.ArtifactPath = writeArtifact(
        Options,
        "pipeline-seed" + std::to_string(Options.Seed) + "-iter" +
            std::to_string(It) + ".tslmt",
        "// temos-fuzz pipeline repro\n// seed " +
            std::to_string(Options.Seed) + " iteration " +
            std::to_string(It) + "\n// " + Failure + "\n" + Shrunk + "\n");
    Report.Failures.push_back(std::move(F));
    if (Report.Failures.size() >= Options.MaxFailures)
      break;
  }
  return Report;
}

std::vector<OracleReport> fuzz::runAllOracles(const FuzzOptions &Options) {
  return {runTheoryOracle(Options), runRoundTripOracle(Options),
          runSygusOracle(Options), runPipelineOracle(Options)};
}

bool fuzz::isPipelineArtifact(const std::string &Source) {
  return Source.find("// temos-artifact:") != std::string::npos;
}

std::string fuzz::replayPipelineArtifact(const std::string &Source,
                                         bool &StillFails) {
  StillFails = false;

  // Re-parse the option header the artifact writer emitted; unknown
  // tokens are ignored so the format can grow.
  PipelineOptions PO;
  for (const std::string &Line : split(Source, '\n')) {
    std::string T = trim(Line);
    if (T.rfind("// options:", 0) != 0)
      continue;
    for (const std::string &Tok : split(T.substr(11), ' ')) {
      std::string::size_type Eq = Tok.find('=');
      if (Eq == std::string::npos)
        continue;
      std::string Key = Tok.substr(0, Eq);
      std::string Val = Tok.substr(Eq + 1);
      if (Key == "jobs")
        PO.Parallelism.NumThreads = static_cast<unsigned>(
            std::max(1L, std::strtol(Val.c_str(), nullptr, 10)));
      else if (Key == "cache")
        PO.Parallelism.CacheEnabled = Val != "off";
      else if (Key == "lazy")
        PO.Eager = Val != "on";
      else if (Key == "time-budget")
        PO.Budget.TotalSeconds = std::strtod(Val.c_str(), nullptr);
      else if (Key == "sygus-budget")
        PO.Budget.SygusSeconds = std::strtod(Val.c_str(), nullptr);
      else if (Key == "inject-fault")
        PO.InjectSpinHang = Val == "spin-hang";
    }
    break;
  }

  Context Ctx;
  auto Spec = parseSpecification(Source, Ctx);
  if (!Spec)
    return "artifact replay: embedded spec does not parse: " +
           Spec.error().str();

  Synthesizer Synth(Ctx);
  PipelineResult R = Synth.run(*Spec, PO);

  std::string Out = "pipeline artifact replay\n";
  switch (R.Status) {
  case Realizability::Realizable:
    Out += "status: realizable\n";
    break;
  case Realizability::Unrealizable:
    Out += "status: unrealizable\n";
    break;
  case Realizability::Unknown:
    Out += "status: unknown\n";
    break;
  }
  if (!R.Diagnostic.empty())
    Out += "diagnostic: " + R.Diagnostic + "\n";
  for (const FailureRecord &F : R.Stats.Failures)
    Out += std::string("failure: ") + failureKindName(F.Kind) + " [" +
           F.Phase + "] " + F.Detail + "\n";
  StillFails = !R.Stats.Failures.empty();
  Out += StillFails ? "degradation reproduces\n"
                    : "run completed clean; degradation does not reproduce\n";
  return Out;
}
