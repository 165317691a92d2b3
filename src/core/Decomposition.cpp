//===- core/Decomposition.cpp - Syntactic decomposition (Alg. 1) -----------===//

#include "core/Decomposition.h"

#include "logic/Traversal.h"

#include <algorithm>

using namespace temos;

std::string Obligation::str() const {
  auto Lits = [](const std::vector<TheoryLiteral> &Ls) {
    std::string Out;
    for (size_t I = 0; I < Ls.size(); ++I) {
      if (I != 0)
        Out += " && ";
      if (!Ls[I].Positive)
        Out += "!";
      Out += Ls[I].Atom->str();
    }
    return Out.empty() ? std::string("true") : Out;
  };
  std::string Arrow = K == Kind::Exact
                          ? " --[" + std::to_string(Steps) + " steps]--> "
                          : " --[eventually]--> ";
  return Lits(Pre) + Arrow + Lits(Post);
}

namespace {

bool sameLiteral(const TheoryLiteral &A, const TheoryLiteral &B) {
  return A.Atom == B.Atom && A.Positive == B.Positive;
}

/// A post-condition candidate discovered by the AST traversal.
struct PostCandidate {
  TheoryLiteral Literal;
  Obligation::Kind K = Obligation::Kind::Eventually;
  unsigned Steps = 1;
  /// Traversal-derived candidates (under an actual temporal operator)
  /// combine with every pre-condition; the synthetic all-literal
  /// candidates only with positive ones, to keep the obligation set
  /// from drowning reactive synthesis in valid-but-idle assumptions.
  bool FromTraversal = true;

  bool operator==(const PostCandidate &RHS) const {
    return sameLiteral(Literal, RHS.Literal) && K == RHS.K &&
           Steps == RHS.Steps;
  }
};

/// Walks the NNF formula recording the temporal context of every
/// predicate literal (Alg. 1's upward traversal, realized top-down).
void collectPostCandidates(const Formula *F, unsigned NextDepth,
                           bool UnderEventually,
                           std::vector<PostCandidate> &Out) {
  auto Emit = [&](const Term *Atom, bool Positive) {
    PostCandidate C;
    C.Literal = {Atom, Positive};
    if (UnderEventually) {
      C.K = Obligation::Kind::Eventually;
    } else if (NextDepth > 0) {
      C.K = Obligation::Kind::Exact;
      C.Steps = NextDepth;
    } else {
      return; // No temporal operator: not a post-condition.
    }
    if (std::find(Out.begin(), Out.end(), C) == Out.end())
      Out.push_back(C);
  };

  switch (F->kind()) {
  case Formula::Kind::True:
  case Formula::Kind::False:
  case Formula::Kind::Update:
    return;
  case Formula::Kind::Pred:
    Emit(F->pred(), true);
    return;
  case Formula::Kind::Not:
    if (F->child(0)->is(Formula::Kind::Pred))
      Emit(F->child(0)->pred(), false);
    return;
  case Formula::Kind::And:
  case Formula::Kind::Or:
    for (const Formula *Kid : F->children())
      collectPostCandidates(Kid, NextDepth, UnderEventually, Out);
    return;
  case Formula::Kind::Next:
    collectPostCandidates(F->child(0), NextDepth + 1, UnderEventually, Out);
    return;
  case Formula::Kind::Globally:
    // G is transparent: the relative timing below it is unchanged.
    collectPostCandidates(F->child(0), NextDepth, UnderEventually, Out);
    return;
  case Formula::Kind::Finally:
    collectPostCandidates(F->child(0), NextDepth, /*UnderEventually=*/true,
                          Out);
    return;
  case Formula::Kind::Until:
  case Formula::Kind::WeakUntil:
    // Right-hand side: the model must be able to produce F rhs; the
    // left-hand side of U likewise reduces to F lhs (F F p = F p,
    // Sec. 4.1).
    collectPostCandidates(F->rhs(), NextDepth, /*UnderEventually=*/true, Out);
    collectPostCandidates(F->lhs(), NextDepth,
                          F->is(Formula::Kind::Until), Out);
    return;
  case Formula::Kind::Release:
    collectPostCandidates(F->lhs(), NextDepth, UnderEventually, Out);
    collectPostCandidates(F->rhs(), NextDepth, UnderEventually, Out);
    return;
  case Formula::Kind::Implies:
  case Formula::Kind::Iff:
    assert(false && "NNF input expected");
    return;
  }
}

} // namespace

namespace {

/// Canonicalizes literals modulo the background theory: !(f <= 10) and
/// (f > 10) denote the same predicate evaluation, and keeping both
/// multiplies the obligation set (and the assumption automaton) for
/// nothing. Two literals are identified when the SMT solver proves them
/// equivalent.
class LiteralCanonicalizer {
public:
  LiteralCanonicalizer(Theory Th) : Solver(Th) {}

  /// Returns the canonical representative of \p L (possibly \p L
  /// itself, registering it).
  TheoryLiteral canonical(const TheoryLiteral &L) {
    for (const TheoryLiteral &Rep : Representatives)
      if (equivalent(Rep, L))
        return Rep;
    Representatives.push_back(L);
    return L;
  }

private:
  bool equivalent(const TheoryLiteral &A, const TheoryLiteral &B) {
    // One atom decides without the solver: the same polarity is the same
    // literal, and opposite ones are never equivalent (p && p and
    // !p && !p cannot both be unsat).
    if (A.Atom == B.Atom)
      return A.Positive == B.Positive;
    // A && !B unsat and !A && B unsat.
    return Solver.checkLiterals({{A.Atom, A.Positive},
                                 {B.Atom, !B.Positive}}) == SatResult::Unsat &&
           Solver.checkLiterals({{A.Atom, !A.Positive},
                                 {B.Atom, B.Positive}}) == SatResult::Unsat;
  }

  SmtSolver Solver;
  std::vector<TheoryLiteral> Representatives;
};

} // namespace

Decomposition temos::decompose(const Specification &Spec, Context &Ctx,
                               const DecompositionOptions &Options) {
  Decomposition Result;
  Result.PredicateLiterals = collectPredicateTerms(Spec);
  Result.UpdateTerms = collectUpdateTerms(Spec);
  LiteralCanonicalizer Canon(Spec.Th);

  // Collect post-condition candidates from every (NNF) spec formula.
  std::vector<PostCandidate> Posts;
  auto Scan = [&](const std::vector<const Formula *> &Fs) {
    for (const Formula *F : Fs)
      collectPostCandidates(Ctx.Formulas.toNNF(F), 0, false, Posts);
  };
  Scan(Spec.Assumptions);
  Scan(Spec.AlwaysGuarantees);
  Scan(Spec.Guarantees);

  // The "powerset of post-conditions": every literal is a reachability
  // target (traversal-derived posts keep priority by coming first). This
  // is what derives the CFS vruntime-flip properties of Sec. 2, which
  // appear under no temporal operator in Fig. 2.
  for (const Term *P : Result.PredicateLiterals) {
    PostCandidate C;
    C.Literal = {P, true};
    C.K = Obligation::Kind::Eventually;
    C.FromTraversal = false;
    if (std::find(Posts.begin(), Posts.end(), C) == Posts.end())
      Posts.push_back(C);
  }

  // Canonicalize literals modulo the theory and deduplicate.
  std::vector<PostCandidate> CanonPosts;
  for (PostCandidate &C : Posts) {
    C.Literal = Canon.canonical(C.Literal);
    if (std::find(CanonPosts.begin(), CanonPosts.end(), C) ==
        CanonPosts.end())
      CanonPosts.push_back(C);
  }

  // Pre-conditions are single literals of both polarities, where the
  // paper takes the powerset (see EXPERIMENTS.md).
  std::vector<TheoryLiteral> Pres;
  for (const Term *P : Result.PredicateLiterals)
    for (bool Positive : {true, false}) {
      TheoryLiteral L = Canon.canonical({P, Positive});
      if (std::none_of(Pres.begin(), Pres.end(), [&](const TheoryLiteral &E) {
            return sameLiteral(E, L);
          }))
        Pres.push_back(L);
    }

  // Cross pre-conditions with post-candidates (Alg. 1 lines 26-30).
  for (const PostCandidate &Post : CanonPosts) {
    for (const TheoryLiteral &Pre : Pres) {
      if (Result.Obligations.size() >= Options.MaxObligations)
        return Result;
      // F p given p as pre-condition is trivially fulfilled: skip.
      if (Post.K == Obligation::Kind::Eventually &&
          sameLiteral(Pre, Post.Literal))
        continue;
      // Synthetic posts pair only with positive pre-conditions.
      if (!Post.FromTraversal && !Pre.Positive)
        continue;
      Obligation Ob;
      Ob.Pre = {Pre};
      Ob.Post = {Post.Literal};
      Ob.K = Post.K;
      Ob.Steps = Post.Steps;
      Result.Obligations.push_back(std::move(Ob));
    }
  }

  // Prioritize obligations whose pre-condition mentions a signal of the
  // post-condition: the (update, post) deduplication downstream keeps
  // the first assumption per pair, and the related-pre variant is the
  // one reactive synthesis can actually trigger.
  auto SharesSignals = [](const Obligation &Ob) {
    std::vector<std::string> PostSignals;
    for (const TheoryLiteral &L : Ob.Post)
      collectSignals(L.Atom, PostSignals);
    for (const TheoryLiteral &L : Ob.Pre) {
      std::vector<std::string> PreSignals;
      collectSignals(L.Atom, PreSignals);
      for (const std::string &Name : PreSignals)
        if (std::find(PostSignals.begin(), PostSignals.end(), Name) !=
            PostSignals.end())
          return true;
    }
    return false;
  };
  std::stable_partition(Result.Obligations.begin(), Result.Obligations.end(),
                        SharesSignals);
  return Result;
}
