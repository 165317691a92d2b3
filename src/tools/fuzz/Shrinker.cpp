//===- tools/fuzz/Shrinker.cpp - Greedy repro minimization ----------------===//

#include "tools/fuzz/Shrinker.h"

#include "logic/Builtin.h"
#include "support/StringUtils.h"

#include <cctype>

using namespace temos;
using namespace temos::fuzz;

std::vector<const Term *> fuzz::simplerTermVariants(TermFactory &TF,
                                                    const Term *T) {
  constexpr size_t Cap = 48;
  std::vector<const Term *> Out;
  auto Add = [&](const Term *V) {
    if (V != T && Out.size() < Cap)
      Out.push_back(V);
  };

  switch (T->kind()) {
  case Term::Kind::Numeral: {
    // Only strictly-toward-zero candidates: proposing a "variant" that
    // is no simpler (e.g. 1 for 0) lets the shrink loop ping-pong and
    // burn its budget without progress.
    const Rational &V = T->value();
    std::vector<Rational> Candidates = {
        Rational(0), Rational(V.numerator() / 2, V.denominator())};
    if (V > Rational(1))
      Candidates.push_back(Rational(1));
    if (V < Rational(-1))
      Candidates.push_back(Rational(-1));
    for (const Rational &Candidate : Candidates)
      if (Candidate != V)
        Add(TF.numeral(Candidate, T->sort()));
    return Out;
  }
  case Term::Kind::Signal:
    return Out;
  case Term::Kind::Apply:
    break;
  }

  // Collapse arithmetic to a numeric argument (drops the other side).
  if (const Builtin *B = findBuiltin(T->name());
      B && B->Sorts == Builtin::Rule::Arithmetic)
    for (const Term *Arg : T->args())
      if (isNumericSort(Arg->sort()))
        Add(Arg);

  // Rebuild with one argument simplified (recursion bounded by term
  // height; each level contributes at most a handful of variants).
  for (size_t I = 0; I < T->arity() && Out.size() < Cap; ++I) {
    for (const Term *V : simplerTermVariants(TF, T->args()[I])) {
      std::vector<const Term *> Args = T->args();
      Args[I] = V;
      Add(TF.apply(T->name(), T->sort(), Args));
      if (Out.size() >= Cap)
        break;
    }
  }
  return Out;
}

std::vector<TheoryLiteral>
fuzz::shrinkLiterals(TermFactory &TF, std::vector<TheoryLiteral> Case,
                     const LiteralsPredicate &StillFails, unsigned MaxRounds) {
  unsigned Budget = MaxRounds;
  bool Changed = true;
  while (Changed && Budget > 0) {
    Changed = false;

    // Drop whole literals, first to last.
    for (size_t I = 0; I < Case.size() && Budget > 0; ++I) {
      std::vector<TheoryLiteral> Candidate = Case;
      Candidate.erase(Candidate.begin() + static_cast<long>(I));
      --Budget;
      if (StillFails(Candidate)) {
        Case = std::move(Candidate);
        Changed = true;
        --I;
      }
    }

    // Positive literals read better than negated ones.
    for (size_t I = 0; I < Case.size() && Budget > 0; ++I) {
      if (Case[I].Positive)
        continue;
      std::vector<TheoryLiteral> Candidate = Case;
      Candidate[I].Positive = true;
      --Budget;
      if (StillFails(Candidate)) {
        Case = std::move(Candidate);
        Changed = true;
      }
    }

    // Simplify atoms in place.
    for (size_t I = 0; I < Case.size() && Budget > 0; ++I) {
      for (const Term *V : simplerTermVariants(TF, Case[I].Atom)) {
        if (Budget == 0)
          break;
        std::vector<TheoryLiteral> Candidate = Case;
        Candidate[I].Atom = V;
        --Budget;
        if (StillFails(Candidate)) {
          Case = std::move(Candidate);
          Changed = true;
          break;
        }
      }
    }
  }
  return Case;
}

namespace {

/// Joins \p Lines with newlines (the inverse of split-on-'\n').
std::string joinLines(const std::vector<std::string> &Lines) {
  std::string Out;
  for (size_t I = 0; I < Lines.size(); ++I) {
    if (I != 0)
      Out += "\n";
    Out += Lines[I];
  }
  return Out;
}

} // namespace

std::string fuzz::shrinkSource(std::string Source,
                               const SourcePredicate &StillFails,
                               unsigned MaxRounds) {
  unsigned Budget = MaxRounds;
  bool Changed = true;
  while (Changed && Budget > 0) {
    Changed = false;
    std::vector<std::string> Lines = split(Source, '\n');

    // Drop whole `{ ... }` blocks (an opener line through the first
    // closing-brace line at or below it).
    for (size_t I = 0; I < Lines.size() && Budget > 0; ++I) {
      if (Lines[I].find('{') == std::string::npos)
        continue;
      size_t End = I;
      while (End < Lines.size() &&
             Lines[End].find('}') == std::string::npos)
        ++End;
      if (End >= Lines.size())
        continue;
      std::vector<std::string> Candidate;
      Candidate.insert(Candidate.end(), Lines.begin(),
                       Lines.begin() + static_cast<long>(I));
      Candidate.insert(Candidate.end(),
                       Lines.begin() + static_cast<long>(End) + 1,
                       Lines.end());
      --Budget;
      if (StillFails(joinLines(Candidate))) {
        Lines = std::move(Candidate);
        Source = joinLines(Lines);
        Changed = true;
        --I;
      }
    }

    // Drop single lines.
    for (size_t I = 0; I < Lines.size() && Budget > 0; ++I) {
      std::vector<std::string> Candidate = Lines;
      Candidate.erase(Candidate.begin() + static_cast<long>(I));
      --Budget;
      if (StillFails(joinLines(Candidate))) {
        Lines = std::move(Candidate);
        Source = joinLines(Lines);
        Changed = true;
        --I;
      }
    }

    // Shrink integer tokens toward zero.
    for (size_t Pos = 0; Pos < Source.size() && Budget > 0;) {
      if (!std::isdigit(static_cast<unsigned char>(Source[Pos]))) {
        ++Pos;
        continue;
      }
      size_t End = Pos;
      while (End < Source.size() &&
             std::isdigit(static_cast<unsigned char>(Source[End])))
        ++End;
      std::string Digits = Source.substr(Pos, End - Pos);
      bool Replaced = false;
      for (const char *Candidate : {"0", "1"}) {
        if (Digits == Candidate)
          continue;
        std::string Variant = Source.substr(0, Pos) + Candidate +
                              Source.substr(End);
        --Budget;
        if (StillFails(Variant)) {
          Source = std::move(Variant);
          Pos += 1;
          Replaced = true;
          Changed = true;
          break;
        }
        if (Budget == 0)
          break;
      }
      if (!Replaced)
        Pos = End;
    }
  }
  return Source;
}
