//===- tests/theory/SmtModelFingerprintTest.cpp - SMT verdicts and models ===//
///
/// \file
/// Pins what the SMT solver answers, models included, so that a rewrite
/// of the theory check can show it decides every query the same way and
/// returns the same model. SyGuS screening and loop synthesis read the
/// sampled models, so a different model could change a generated
/// assumption even when every verdict agrees.
///
/// Three query sets, each hashed (FNV-1a over the rendered verdicts and
/// models) and compared with the recorded value:
///
///  * Theory_*: the fuzz harness's seeded theory conjunctions (LIA box,
///    LRA, strict-bound LRA, UF), each asked through checkLiterals and
///    through checkFormula as a conjunction and as a disjunction of two
///    halves (the DPLL split);
///  * Purified_*: seeded conjunctions over numeric uninterpreted
///    functions (purification, congruence-derived equalities forwarded to
///    simplex) and a numeric constant;
///  * Row_*: every pre-condition sample SygusSolver::samplePreModels
///    draws for each obligation of a bundled row.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"
#include "core/AssumptionGenerator.h"
#include "core/Decomposition.h"
#include "logic/Parser.h"
#include "support/Rng.h"
#include "sygus/SygusSolver.h"
#include "theory/SmtSolver.h"
#include "tools/fuzz/Generator.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cinttypes>
#include <ostream>
#include <string>

using namespace temos;

namespace {

/// FNV-1a over every rendered query result, plus the query count.
struct Fingerprint {
  size_t Queries = 0;
  uint64_t Hash = 14695981039346656037ull;
  bool operator==(const Fingerprint &) const = default;

  void add(const std::string &Text) {
    ++Queries;
    for (unsigned char C : Text) {
      Hash ^= C;
      Hash *= 1099511628211ull;
    }
    Hash ^= 0xff; // Separates consecutive queries.
    Hash *= 1099511628211ull;
  }
};

void PrintTo(const Fingerprint &F, std::ostream *OS) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "{%zu, 0x%016" PRIx64 "ull}", F.Queries,
                F.Hash);
  *OS << Buf;
}

std::string render(SatResult R, const Assignment &Model) {
  std::string Out = R == SatResult::Sat     ? "sat"
                    : R == SatResult::Unsat ? "unsat"
                                            : "unknown";
  for (const auto &[Name, V] : Model)
    Out.append(" ").append(Name).append("=").append(V.str());
  return Out;
}

const Formula *conjunction(Context &Ctx, const std::vector<TheoryLiteral> &Ls,
                           size_t Begin, size_t End) {
  std::vector<const Formula *> Parts;
  for (size_t I = Begin; I < End; ++I) {
    const Formula *Atom = Ctx.Formulas.pred(Ls[I].Atom);
    Parts.push_back(Ls[I].Positive ? Atom : Ctx.Formulas.notF(Atom));
  }
  return Ctx.Formulas.andF(std::move(Parts));
}

/// Asks \p Literals as a literal conjunction, as a formula conjunction
/// and as the disjunction of its two halves.
void fingerprintLiterals(Context &Ctx, Theory Th,
                         const std::vector<TheoryLiteral> &Literals,
                         Fingerprint &Out) {
  SmtSolver Solver(Th);
  Assignment Model;
  SatResult R = Solver.checkLiterals(Literals, &Model);
  Out.add(render(R, Model));

  const size_t Half = Literals.size() / 2;
  for (const Formula *F :
       {conjunction(Ctx, Literals, 0, Literals.size()),
        Ctx.Formulas.orF(conjunction(Ctx, Literals, 0, Half),
                         conjunction(Ctx, Literals, Half, Literals.size()))}) {
    Model.clear();
    R = Solver.checkFormula(F, &Model);
    Out.add(render(R, Model));
  }
}

Fingerprint theoryChunk(uint64_t Seed, size_t Cases) {
  Fingerprint Out;
  Context Ctx;
  Rng R(Seed);
  fuzz::Generator Gen(Ctx, R);
  for (size_t I = 0; I < Cases; ++I) {
    fuzz::TheoryCase Case = Gen.theoryCase();
    fingerprintLiterals(Ctx, Case.Th, Case.Literals, Out);
  }
  return Out;
}

/// Conjunctions over x, y, the numeric functions f and g, the numeric
/// constant k() and the boolean predicate p.
Fingerprint purifiedChunk(uint64_t Seed, size_t Cases) {
  Fingerprint Out;
  Context Ctx;
  Rng R(Seed);
  TermFactory &TF = Ctx.Terms;
  for (size_t I = 0; I < Cases; ++I) {
    const Theory Th = R.chance(50) ? Theory::LIA : Theory::LRA;
    const Sort S = Th == Theory::LIA ? Sort::Int : Sort::Real;
    const Term *X = TF.signal("x", S);
    const Term *Y = TF.signal("y", S);
    auto Fn = [&](const Term *A) { return TF.apply("f", S, {A}); };
    std::vector<const Term *> Pool = {
        X, Y, Fn(X), Fn(Y), Fn(Fn(X)), TF.apply("g", S, {X, Y}),
        TF.apply("g", S, {Y, X}), TF.apply("k", S, {}),
        TF.apply("+", S, {X, Fn(Y)}),
        TF.apply("*", S, {TF.numeral(Rational(2), S), Fn(X)})};
    std::vector<TheoryLiteral> Literals;
    unsigned Count = static_cast<unsigned>(R.range(2, 6));
    for (unsigned J = 0; J < Count; ++J) {
      static const char *const Rels[] = {"<", "<=", ">", ">=", "=", "!="};
      const Term *Atom;
      if (R.chance(15)) {
        Atom = TF.apply("p", Sort::Bool, {R.pick(Pool)});
      } else {
        const Term *Rhs = R.chance(40) ? TF.numeral(Rational(R.range(-3, 3)), S)
                                       : R.pick(Pool);
        Atom = TF.apply(Rels[R.range(0, 5)], Sort::Bool, {R.pick(Pool), Rhs});
      }
      Literals.push_back({Atom, !R.chance(25)});
    }
    fingerprintLiterals(Ctx, Th, Literals, Out);
  }
  return Out;
}

Fingerprint rowSamples(const std::string &Row) {
  Fingerprint Out;
  Context Ctx;
  auto Spec = parseSpecification(findBenchmark(Row)->Source, Ctx);
  EXPECT_TRUE(Spec.ok());
  if (!Spec.ok())
    return Out;
  Decomposition D = decompose(*Spec, Ctx);
  AssumptionGenerator Gen(*Spec, Ctx);
  SygusSolver Sygus(Ctx, Spec->Th);
  for (const Obligation &Ob : D.Obligations) {
    std::string Text = Ob.str();
    for (const Assignment &Sample : Sygus.samplePreModels(Gen.buildQuery(Ob)))
      Text.append(" |").append(render(SatResult::Sat, Sample));
    Out.add(Text);
  }
  return Out;
}

struct Recorded {
  const char *Name;
  Fingerprint Expected;
};

void PrintTo(const Recorded &R, std::ostream *OS) { *OS << R.Name; }

Fingerprint compute(const std::string &Name) {
  constexpr size_t CasesPerChunk = 300;
  if (Name.rfind("Theory_", 0) == 0)
    return theoryChunk(std::stoull(Name.substr(7)), CasesPerChunk);
  if (Name.rfind("Purified_", 0) == 0)
    return purifiedChunk(std::stoull(Name.substr(9)), CasesPerChunk);
  return rowSamples(Name.substr(4));
}

// clang-format off
const Recorded Expected[] = {
    {"Theory_1", {900, 0xfd7415190987177bull}},
    {"Theory_2", {900, 0x5c459691f1466cfbull}},
    {"Theory_3", {900, 0x2d5737d47825fcc6ull}},
    {"Theory_4", {900, 0x6ff18a49c11f3b38ull}},
    {"Theory_5", {900, 0x792222ce4a8eb340ull}},
    {"Theory_6", {900, 0x72c7656330bf7cf7ull}},
    {"Theory_7", {900, 0xf7a22ec73bb0c156ull}},
    {"Theory_8", {900, 0xa497edf743073364ull}},
    {"Purified_1", {900, 0xe960e94404a61f7dull}},
    {"Purified_2", {900, 0x1f978f80acf02f63ull}},
    {"Row_Vibrato", {2, 0xaabc86a4a490e4faull}},
    {"Row_Modulation", {8, 0xa3a93ec4471ad50full}},
    {"Row_Intertwined", {2, 0xaabc86a4a490e4faull}},
    {"Row_Multi-effect", {2, 0xaabc86a4a490e4faull}},
    {"Row_Single-Player", {23, 0xa24866e3f2897e29ull}},
    {"Row_Two-Player", {34, 0x075e27af1ed5576cull}},
    {"Row_Bouncing", {6, 0x339985f951b1e29bull}},
    {"Row_Automatic", {34, 0x329dc4906f7b1e89ull}},
    {"Row_Simple", {0, 0xcbf29ce484222325ull}},
    {"Row_Counting", {2, 0x4a64ebaf70b97083ull}},
    {"Row_Bidirectional", {12, 0xec870ce43166153bull}},
    {"Row_Smart", {6, 0xab95faf74980ed74ull}},
    {"Row_Round Robin", {2, 0x7f1d2bdcb0ef4471ull}},
    {"Row_Load Balancer", {8, 0xf9cac28d5471ba0aull}},
    {"Row_Preemptive", {10, 0xf8ac493ecae24252ull}},
    {"Row_CFS", {20, 0xa65fdc82ff592484ull}},
};
// clang-format on

class SmtModelFingerprint : public ::testing::TestWithParam<Recorded> {};

TEST_P(SmtModelFingerprint, VerdictsAndModelsMatchTheRecord) {
  EXPECT_EQ(compute(GetParam().Name), GetParam().Expected);
}

std::string testName(std::string Name) {
  for (char &C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSets, SmtModelFingerprint, ::testing::ValuesIn(Expected),
    [](const ::testing::TestParamInfo<Recorded> &Info) {
      return testName(Info.param.Name);
    });

TEST(SmtModelFingerprintCoverage, EveryRowIsRecorded) {
  for (const BenchmarkSpec &B : allBenchmarks()) {
    const std::string Name = std::string("Row_") + B.Name;
    EXPECT_TRUE(std::any_of(std::begin(Expected), std::end(Expected),
                            [&](const Recorded &R) { return R.Name == Name; }))
        << Name;
  }
}

} // namespace
