//===- tools/fuzz/Generator.cpp - Random case generation ------------------===//

#include "tools/fuzz/Generator.h"

using namespace temos;
using namespace temos::fuzz;

//===----------------------------------------------------------------------===//
// Theory cases
//===----------------------------------------------------------------------===//

static const char *const Rels[] = {"<", "<=", ">", ">=", "=", "!="};

const Term *Generator::linearTerm(const std::vector<const Term *> &Vars,
                                  Sort S, bool AllowHalves) {
  auto Constant = [&]() -> const Term * {
    if (AllowHalves && R.chance(40))
      return Ctx.Terms.numeral(Rational(R.range(-8, 8), 2), S);
    return Ctx.Terms.numeral(Rational(R.range(-6, 6)), S);
  };
  auto Atom = [&]() -> const Term * {
    if (R.chance(25))
      return Constant();
    const Term *V = R.pick(Vars);
    if (R.chance(30)) {
      int64_t C = R.range(-3, 3);
      if (C == 0)
        C = 2;
      return Ctx.Terms.apply("*", S, {Ctx.Terms.numeral(Rational(C), S), V});
    }
    return V;
  };
  const Term *T = Atom();
  unsigned Extra = static_cast<unsigned>(R.range(0, 2));
  for (unsigned I = 0; I < Extra; ++I)
    T = Ctx.Terms.apply(R.chance(70) ? "+" : "-", S, {T, Atom()});
  return T;
}

TheoryCase Generator::liaBoxCase() {
  TheoryCase C;
  C.Th = Theory::LIA;
  C.GridComplete = true;

  std::vector<const Term *> Vars;
  static const char *const Names[] = {"x", "y", "z"};
  unsigned VarCount = static_cast<unsigned>(R.range(2, 3));
  for (unsigned I = 0; I < VarCount; ++I)
    Vars.push_back(Ctx.Terms.signal(Names[I], Sort::Int));

  // Bounding box: every variable confined to [-4, 4], so brute force
  // over the grid is exhaustive and Unsat verdicts are checkable too.
  for (const Term *V : Vars) {
    C.Literals.push_back(
        {Ctx.Terms.apply(">=", Sort::Bool, {V, Ctx.Terms.numeral(-4)}), true});
    C.Literals.push_back(
        {Ctx.Terms.apply("<=", Sort::Bool, {V, Ctx.Terms.numeral(4)}), true});
  }

  unsigned Extra = static_cast<unsigned>(R.range(2, 5));
  for (unsigned I = 0; I < Extra; ++I) {
    const Term *Lhs = linearTerm(Vars, Sort::Int, /*AllowHalves=*/false);
    const Term *Rhs = R.chance(75) ? Ctx.Terms.numeral(R.range(-8, 8))
                                   : linearTerm(Vars, Sort::Int, false);
    const Term *Atom =
        Ctx.Terms.apply(Rels[R.range(0, 5)], Sort::Bool, {Lhs, Rhs});
    C.Literals.push_back({Atom, !R.chance(30)});
  }
  return C;
}

TheoryCase Generator::lraCase(bool TargetStrictBounds) {
  TheoryCase C;
  C.Th = Theory::LRA;
  C.GridComplete = false;

  std::vector<const Term *> Vars = {Ctx.Terms.signal("x", Sort::Real),
                                    Ctx.Terms.signal("y", Sort::Real)};

  if (TargetStrictBounds) {
    // Delta-rational stress: tight strict corridors like c < x < c + 1,
    // x < y < x + 1/2, and strict sums right at a boundary. These are
    // exactly the cases where an off-by-delta bug in the simplex bound
    // handling flips a verdict.
    const Term *X = Vars[0], *Y = Vars[1];
    int64_t Base = R.range(-3, 3);
    const Term *Lo = Ctx.Terms.numeral(Rational(Base), Sort::Real);
    const Term *Hi = Ctx.Terms.numeral(
        Rational(2 * Base + R.range(1, 2), 2), Sort::Real);
    C.Literals.push_back(
        {Ctx.Terms.apply(R.chance(80) ? ">" : ">=", Sort::Bool, {X, Lo}),
         true});
    C.Literals.push_back(
        {Ctx.Terms.apply(R.chance(80) ? "<" : "<=", Sort::Bool, {X, Hi}),
         true});
    switch (R.range(0, 2)) {
    case 0:
      // y strictly between x and x + 1/2.
      C.Literals.push_back(
          {Ctx.Terms.apply("<", Sort::Bool, {X, Y}), true});
      C.Literals.push_back(
          {Ctx.Terms.apply(
               "<", Sort::Bool,
               {Y, Ctx.Terms.apply(
                       "+", Sort::Real,
                       {X, Ctx.Terms.numeral(Rational(1, 2), Sort::Real)})}),
           true});
      break;
    case 1:
      // x + y pinned strictly against a boundary.
      C.Literals.push_back(
          {Ctx.Terms.apply(
               ">", Sort::Bool,
               {Ctx.Terms.apply("+", Sort::Real, {X, Y}),
                Ctx.Terms.numeral(Rational(2 * Base, 2), Sort::Real)}),
           true});
      C.Literals.push_back(
          {Ctx.Terms.apply(
               "<=", Sort::Bool,
               {Y, Ctx.Terms.numeral(Rational(Base), Sort::Real)}),
           !R.chance(30)});
      break;
    default:
      // Equality colliding with a strict bound.
      C.Literals.push_back(
          {Ctx.Terms.apply("=", Sort::Bool, {Y, Lo}), true});
      C.Literals.push_back(
          {Ctx.Terms.apply(R.chance(50) ? "<" : ">", Sort::Bool, {Y, X}),
           true});
      break;
    }
    return C;
  }

  // General LRA conjunction; bounds keep models inside the sample grid
  // often enough for the one-sided check to bite.
  for (const Term *V : Vars) {
    C.Literals.push_back(
        {Ctx.Terms.apply(R.chance(40) ? ">" : ">=", Sort::Bool,
                         {V, Ctx.Terms.numeral(Rational(-4), Sort::Real)}),
         true});
    C.Literals.push_back(
        {Ctx.Terms.apply(R.chance(40) ? "<" : "<=", Sort::Bool,
                         {V, Ctx.Terms.numeral(Rational(4), Sort::Real)}),
         true});
  }
  unsigned Extra = static_cast<unsigned>(R.range(2, 4));
  for (unsigned I = 0; I < Extra; ++I) {
    const Term *Lhs = linearTerm(Vars, Sort::Real, /*AllowHalves=*/true);
    const Term *Rhs = Ctx.Terms.numeral(Rational(R.range(-10, 10), 2),
                                        Sort::Real);
    const Term *Atom =
        Ctx.Terms.apply(Rels[R.range(0, 5)], Sort::Bool, {Lhs, Rhs});
    C.Literals.push_back({Atom, !R.chance(30)});
  }
  return C;
}

TheoryCase Generator::ufCase() {
  TheoryCase C;
  C.Th = Theory::UF;
  C.GridComplete = false;

  const Term *U = Ctx.Terms.signal("u", Sort::Opaque);
  const Term *V = Ctx.Terms.signal("v", Sort::Opaque);
  const Term *W = Ctx.Terms.signal("w", Sort::Opaque);
  auto F = [&](const Term *Arg) {
    return Ctx.Terms.apply("f", Sort::Opaque, {Arg});
  };
  auto G = [&](const Term *A, const Term *B) {
    return Ctx.Terms.apply("g", Sort::Opaque, {A, B});
  };
  std::vector<const Term *> Pool = {U, V, W, F(U), F(V), F(W), F(F(U)),
                                    G(U, V), G(V, U),
                                    Ctx.Terms.apply("k", Sort::Opaque, {})};

  unsigned Count = static_cast<unsigned>(R.range(3, 6));
  for (unsigned I = 0; I < Count; ++I) {
    const Term *A = R.pick(Pool);
    const Term *B = R.pick(Pool);
    const Term *Atom = Ctx.Terms.apply(R.chance(75) ? "=" : "!=", Sort::Bool,
                                       {A, B});
    C.Literals.push_back({Atom, !R.chance(30)});
  }
  return C;
}

TheoryCase Generator::theoryCase() {
  int64_t Family = R.range(0, 9);
  if (Family <= 3)
    return liaBoxCase();
  if (Family <= 6)
    return lraCase(/*TargetStrictBounds=*/false);
  if (Family <= 8)
    return lraCase(/*TargetStrictBounds=*/true);
  return ufCase();
}

//===----------------------------------------------------------------------===//
// Round-trip cases
//===----------------------------------------------------------------------===//

const char *Generator::roundTripSpecSource() {
  return R"(#LIA#
spec RoundTrip
inputs  { int x; int y; bool p; opaque tok; }
cells   { int c = 0; }
outputs { int o; }
functions { opaque idle(); int sel(int, int); }
)";
}

const Formula *Generator::temporalFormula(const Specification &Spec,
                                          int Depth) {
  FormulaFactory &FF = Ctx.Formulas;
  TermFactory &TF = Ctx.Terms;

  auto IntTerm = [&](auto &&Self, int D) -> const Term * {
    if (D == 0 || R.chance(40)) {
      switch (R.range(0, 4)) {
      case 0:
        return TF.signal("x", Sort::Int);
      case 1:
        return TF.signal("y", Sort::Int);
      case 2:
        return TF.signal("c", Sort::Int);
      case 3:
        return TF.signal("o", Sort::Int);
      default:
        // Keep constants non-negative in application-argument position;
        // unary minus does not re-parse there (and 0..9 is plenty).
        return TF.numeral(R.range(0, 9));
      }
    }
    switch (R.range(0, 3)) {
    case 0:
      return TF.apply("+", Sort::Int,
                      {Self(Self, D - 1), Self(Self, D - 1)});
    case 1:
      return TF.apply("-", Sort::Int,
                      {Self(Self, D - 1), Self(Self, D - 1)});
    case 2:
      return TF.apply("*", Sort::Int,
                      {TF.numeral(R.range(1, 3)), Self(Self, D - 1)});
    default:
      return TF.apply("sel", Sort::Int,
                      {Self(Self, D - 1), Self(Self, D - 1)});
    }
  };

  auto AtomF = [&]() -> const Formula * {
    switch (R.range(0, 6)) {
    case 0:
      return FF.pred(TF.signal("p", Sort::Bool));
    case 1: {
      // Update of the cell or the output.
      const char *Cell = R.chance(60) ? "c" : "o";
      return FF.update(Cell, IntTerm(IntTerm, 1));
    }
    case 2:
      return FF.pred(TF.apply(
          "=", Sort::Bool,
          {TF.signal("tok", Sort::Opaque), TF.apply("idle", Sort::Opaque, {})}));
    case 3:
      return R.chance(50) ? FF.trueF() : FF.falseF();
    default: {
      static const char *const CmpRels[] = {"<", "<=", ">", ">=", "=", "!="};
      return FF.pred(TF.apply(CmpRels[R.range(0, 5)], Sort::Bool,
                              {IntTerm(IntTerm, 1), IntTerm(IntTerm, 1)}));
    }
    }
  };

  if (Depth == 0 || R.chance(25))
    return AtomF();
  switch (R.range(0, 9)) {
  case 0:
    return FF.notF(temporalFormula(Spec, Depth - 1));
  case 1:
    return FF.andF(temporalFormula(Spec, Depth - 1),
                   temporalFormula(Spec, Depth - 1));
  case 2:
    return FF.orF(temporalFormula(Spec, Depth - 1),
                  temporalFormula(Spec, Depth - 1));
  case 3:
    return FF.implies(temporalFormula(Spec, Depth - 1),
                      temporalFormula(Spec, Depth - 1));
  case 4:
    return FF.iff(temporalFormula(Spec, Depth - 1),
                  temporalFormula(Spec, Depth - 1));
  case 5:
    return FF.next(temporalFormula(Spec, Depth - 1));
  case 6:
    return FF.globally(temporalFormula(Spec, Depth - 1));
  case 7:
    return FF.finallyF(temporalFormula(Spec, Depth - 1));
  case 8:
    return FF.until(temporalFormula(Spec, Depth - 1),
                    temporalFormula(Spec, Depth - 1));
  default:
    return R.chance(50) ? FF.weakUntil(temporalFormula(Spec, Depth - 1),
                                       temporalFormula(Spec, Depth - 1))
                        : FF.release(temporalFormula(Spec, Depth - 1),
                                     temporalFormula(Spec, Depth - 1));
  }
}

Specification Generator::randomSpec() {
  Specification Spec;
  Spec.Th = R.chance(70) ? Theory::LIA : Theory::UF;
  static const char *const Names[] = {"Gen", "Fuzzed", "Spec1", "Alpha"};
  Spec.Name = Names[R.range(0, 3)];

  Spec.Inputs.push_back({"x", Sort::Int});
  if (R.chance(60))
    Spec.Inputs.push_back({"p", Sort::Bool});
  if (R.chance(30))
    Spec.Inputs.push_back({"tok", Sort::Opaque});
  Spec.Cells.push_back(
      {"c", Sort::Int,
       R.chance(60) ? Ctx.Terms.numeral(R.range(0, 3)) : nullptr});
  if (R.chance(40))
    Spec.Outputs.push_back({"o", Sort::Int});
  if (R.chance(40))
    Spec.Functions.push_back({"idle", Sort::Opaque, {}});
  if (R.chance(25))
    Spec.Functions.push_back({"sel", Sort::Int, {Sort::Int, Sort::Int}});

  // Formulas only over the signals guaranteed to be declared above.
  FormulaFactory &FF = Ctx.Formulas;
  TermFactory &TF = Ctx.Terms;
  auto Formula1 = [&](int Depth) {
    auto Atom = [&]() -> const Formula * {
      switch (R.range(0, 3)) {
      case 0:
        return FF.pred(TF.apply("<=", Sort::Bool,
                                {TF.signal("c", Sort::Int),
                                 TF.numeral(R.range(0, 5))}));
      case 1:
        return FF.update("c", TF.apply("+", Sort::Int,
                                       {TF.signal("c", Sort::Int),
                                        TF.numeral(R.range(1, 2))}));
      case 2:
        return FF.pred(TF.apply("=", Sort::Bool,
                                {TF.signal("x", Sort::Int),
                                 TF.signal("c", Sort::Int)}));
      default:
        return FF.update("c", TF.signal("x", Sort::Int));
      }
    };
    const Formula *F = Atom();
    for (int I = 0; I < Depth; ++I) {
      switch (R.range(0, 4)) {
      case 0:
        F = FF.notF(F);
        break;
      case 1:
        F = FF.andF(F, Atom());
        break;
      case 2:
        F = FF.orF(F, Atom());
        break;
      case 3:
        F = FF.implies(Atom(), F);
        break;
      default:
        F = FF.finallyF(F);
        break;
      }
    }
    return F;
  };

  unsigned Assumes = static_cast<unsigned>(R.range(0, 2));
  for (unsigned I = 0; I < Assumes; ++I)
    Spec.Assumptions.push_back(Formula1(static_cast<int>(R.range(0, 2))));
  unsigned Always = static_cast<unsigned>(R.range(1, 3));
  for (unsigned I = 0; I < Always; ++I)
    Spec.AlwaysGuarantees.push_back(Formula1(static_cast<int>(R.range(0, 2))));
  if (R.chance(30))
    Spec.Guarantees.push_back(Formula1(1));
  return Spec;
}

//===----------------------------------------------------------------------===//
// Pipeline cases
//===----------------------------------------------------------------------===//

std::string Generator::pipelineSpecSource() {
  // Counter family: known-realizable shapes the bounded-synthesis layer
  // solves in milliseconds, varied across init value, reachability
  // distance, step size, an optional second obligation and an optional
  // wide output alphabet. The point is determinism across (jobs, cache)
  // configurations, not hard synthesis.
  int64_t Init = R.range(-1, 1);
  int64_t Start = R.range(-1, 1);
  int64_t Step = R.chance(75) ? 1 : 2;
  int64_t Dist = R.range(1, 2) * Step;
  int64_t Target = R.chance(50) ? Start + Dist : Start - Dist;

  const bool Bounce = R.chance(35);
  // Drawn last, so every iteration keeps the counter it had before wide
  // specs existed.
  const bool Wide = R.chance(30);
  std::string Src = "#LIA#\nspec FuzzPipe\ncells { int x = " +
                    std::to_string(Init) + ";" +
                    (Wide ? " int m = 0; int n = 0;" : "") +
                    " }\nalways guarantee {\n";
  Src += "  [x <- x + " + std::to_string(Step) + "] || [x <- x - " +
         std::to_string(Step) + "];\n";
  Src += "  x = " + std::to_string(Start) + " -> F (x = " +
         std::to_string(Target) + ");\n";
  // A second reachability obligation multiplies the acceptance sets of
  // the assumption tableau. Chains of obligations over three or more
  // distinct values make the explicit automaton construction pay
  // exponentially (the MaxLoopAssumptions cap exists for the same
  // reason), but a *reverse* pair -- bounce back to where you started --
  // stays in the fast envelope, so that is the only two-obligation shape
  // the family emits.
  if (Bounce)
    Src += "  x = " + std::to_string(Target) + " -> F (x = " +
           std::to_string(Start) + ");\n";
  // Two more cells of five options each: 3 x 5 x 5 = 75 output letters,
  // more than one 64-letter word of the game's successor masks.
  if (Wide)
    Src += "  [m <- 0] || [m <- 1] || [m <- 2] || [m <- m + 1];\n"
           "  [n <- 0] || [n <- 1] || [n <- n + 1] || [n <- n - 1];\n"
           "  [x <- x + " + std::to_string(Step) +
           "] -> [m <- m + 1] || [n <- 0];\n";
  Src += "}\n";
  return Src;
}

std::string Generator::checkSatSpecSource() {
  int64_t Init = R.range(-1, 1);
  int64_t Start = R.range(-1, 1);
  bool Up = R.chance(50);
  int64_t Target = Up ? Start + R.range(1, 2) : Start - R.range(1, 2);
  std::string Src = "#LIA#\nspec FuzzCheckSat\ncells { int x = " +
                    std::to_string(Init) + "; }\nalways guarantee {\n" +
                    "  [x <- x + 1] || [x <- x - 1] || [x <- x];\n";
  if (R.chance(50))
    Src += std::string("  [x <- x ") + (Up ? "+" : "-") +
           " 1] -> X [x <- x];\n";
  Src += "  x = " + std::to_string(Start) + " -> F (x = " +
         std::to_string(Target) + ");\n}\n";
  return Src;
}

//===----------------------------------------------------------------------===//
// SyGuS cases
//===----------------------------------------------------------------------===//

SygusCase Generator::sygusCase() {
  SygusCase C;
  TermFactory &TF = Ctx.Terms;
  const Term *X = TF.signal("x", Sort::Int);
  const Term *Inc = TF.apply("+", Sort::Int, {X, TF.numeral(1)});
  const Term *Dec = TF.apply("-", Sort::Int, {X, TF.numeral(1)});
  const Term *Dbl = TF.apply("*", Sort::Int, {TF.numeral(2), X});
  const Term *Jump = TF.apply("+", Sort::Int, {X, TF.numeral(3)});

  std::vector<const Term *> Updates = {Inc, Dec, X};
  if (R.chance(50))
    Updates.push_back(Dbl);
  if (R.chance(35))
    Updates.push_back(Jump);

  C.Lo = R.range(-3, 0);
  C.Hi = R.range(0, 3);
  C.MaxSteps = static_cast<unsigned>(R.range(1, 3));

  C.Query.Cells = {{"x", Sort::Int, Updates}};
  C.Query.Pre = {
      {TF.apply(">=", Sort::Bool, {X, TF.numeral(C.Lo)}), true},
      {TF.apply("<=", Sort::Bool, {X, TF.numeral(C.Hi)}), true}};
  static const char *const PostRels[] = {"<", "<=", ">", ">=", "="};
  C.Query.Post = {{TF.apply(PostRels[R.range(0, 4)], Sort::Bool,
                            {X, TF.numeral(R.range(-8, 8))}),
                   true}};
  return C;
}
