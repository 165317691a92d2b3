//===- theory/SolverService.cpp - Shared parallel solver service -----------===//

#include "theory/SolverService.h"

using namespace temos;

SolverService::SolverService(Theory Th, Config C)
    : Cfg(C), Prototype(Th), Pool(C.NumThreads) {}

SatResult SolverService::cached(const std::string &Key,
                                const std::function<SatResult()> &Compute) {
  if (!Cfg.CacheEnabled)
    return Compute();
  if (auto Hit = Cache.lookup(Key))
    return static_cast<SatResult>(*Hit);
  SatResult R = Compute();
  // Unknown verdicts are resource-limit artifacts, not facts about the
  // query; don't memoize them.
  if (R != SatResult::Unknown)
    Cache.insert(Key, static_cast<int>(R));
  return R;
}

SatResult
SolverService::checkLiterals(const std::vector<TheoryLiteral> &Literals) {
  SmtSolver Solver = Prototype.clone();
  std::vector<std::pair<std::string, bool>> Rendered;
  Rendered.reserve(Literals.size());
  for (const TheoryLiteral &L : Literals)
    Rendered.emplace_back(L.Atom->str(), L.Positive);
  std::string Key =
      QueryCache::canonicalKey(std::string("lits/") + theoryName(theory()),
                               std::move(Rendered));
  return cached(Key, [&] { return Solver.checkLiterals(Literals); });
}

SatResult SolverService::checkFormula(const Formula *F) {
  SmtSolver Solver = Prototype.clone();
  std::string Key = std::string("formula/") + theoryName(theory()) + "|" +
                    F->str();
  return cached(Key, [&] { return Solver.checkFormula(F); });
}
