//===- theory/SolverService.h - Shared parallel solver service -*- C++ -*-===//
///
/// \file
/// The solver-service layer: a shared front door to SMT satisfiability
/// for every pipeline phase. It combines
///
///  * a SolverPool of workers, each running its own SmtSolver clone
///    (SmtSolver::clone() is cheap because the solver keeps no state
///    between queries), and
///  * a QueryCache memoizing verdicts under canonical structural keys
///    (theory tag + sorted literal renderings).
///
/// The cache stores verdicts only; a caller that needs a model runs an
/// SmtSolver of its own.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_THEORY_SOLVERSERVICE_H
#define TEMOS_THEORY_SOLVERSERVICE_H

#include "support/QueryCache.h"
#include "support/SolverPool.h"
#include "theory/SmtSolver.h"

#include <functional>
#include <memory>

namespace temos {

/// Parallel, memoizing satisfiability service over one theory.
class SolverService {
public:
  struct Config {
    /// Worker threads; 1 means run inline on the caller's thread.
    unsigned NumThreads = 1;
    /// Memoize verdicts in the query cache.
    bool CacheEnabled = true;
  };

  explicit SolverService(Theory Th) : SolverService(Th, Config()) {}
  SolverService(Theory Th, Config C);

  Theory theory() const { return Prototype.theory(); }
  const Config &config() const { return Cfg; }

  /// Satisfiability of a literal conjunction, served from the cache
  /// when possible.
  SatResult checkLiterals(const std::vector<TheoryLiteral> &Literals);

  /// Satisfiability of a boolean-structure formula (cached).
  SatResult checkFormula(const Formula *F);

  /// The worker pool, for phases that fan out their own task structure
  /// (the consistency checker's subset sweep, per-obligation SyGuS).
  SolverPool &pool() { return Pool; }

  /// Attaches a cooperative deadline to the prototype solver; every
  /// per-query clone inherits the shared token, so one call bounds all
  /// in-flight and future queries. Default Deadline detaches.
  void setDeadline(const Deadline &D) { Prototype.setDeadline(D); }

  QueryCache &cache() { return Cache; }
  const QueryCache &cache() const { return Cache; }

private:
  SatResult cached(const std::string &Key,
                   const std::function<SatResult()> &Compute);

  Config Cfg;
  SmtSolver Prototype;
  SolverPool Pool;
  QueryCache Cache;
};

} // namespace temos

#endif // TEMOS_THEORY_SOLVERSERVICE_H
