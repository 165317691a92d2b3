//===- logic/Specification.h - TSL-MT specifications -----------*- C++ -*-===//
///
/// \file
/// A parsed TSL-MT specification: signal declarations (inputs, cells,
/// outputs), the background theory, and the assume/guarantee formula
/// lists. Mirrors the benchmark format used by temos/tsltools (the `#RA#`
/// header + `always guarantee { ... }` blocks of Fig. 5).
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_LOGIC_SPECIFICATION_H
#define TEMOS_LOGIC_SPECIFICATION_H

#include "logic/Formula.h"

#include <optional>
#include <string>
#include <vector>

namespace temos {

/// Shared owner of the term/formula factories. Every pipeline stage
/// allocates into the same context so pointer identity is global.
struct Context {
  TermFactory Terms;
  FormulaFactory Formulas;
};

/// Declaration of an input or output signal.
struct SignalDecl {
  std::string Name;
  Sort S = Sort::Int;
};

/// Declaration of a cell: an internal signal that memorizes its value
/// across time steps ("cells are both input and output signals", Sec. 2).
struct CellDecl {
  std::string Name;
  Sort S = Sort::Int;
  /// Initial value; null means uninitialized (defaults per sort at run
  /// time: 0, 0.0, false).
  const Term *Init = nullptr;
};

/// Signature of a user-declared (uninterpreted or theory) function.
struct FunctionDecl {
  std::string Name;
  Sort Result = Sort::Int;
  std::vector<Sort> Params;
};

/// A TSL-MT specification.
class Specification {
public:
  std::string Name = "spec";
  Theory Th = Theory::LIA;

  std::vector<SignalDecl> Inputs;
  std::vector<CellDecl> Cells;
  std::vector<SignalDecl> Outputs;
  std::vector<FunctionDecl> Functions;

  /// Environment assumptions, each implicitly under G ("always assume").
  std::vector<const Formula *> Assumptions;
  /// System guarantees, each implicitly under G ("always guarantee").
  std::vector<const Formula *> AlwaysGuarantees;
  /// Guarantees that are NOT implicitly wrapped in G ("guarantee").
  std::vector<const Formula *> Guarantees;

  /// Looks up a declared input signal.
  const SignalDecl *findInput(const std::string &Name) const;
  /// Looks up a declared cell.
  const CellDecl *findCell(const std::string &Name) const;
  /// Looks up a declared output.
  const SignalDecl *findOutput(const std::string &Name) const;
  /// Sort of any declared signal; nullopt if undeclared.
  std::optional<Sort> signalSort(const std::string &Name) const;
  /// True if \p Name is a cell or output (an updatable signal).
  bool isUpdatable(const std::string &Name) const;

  /// The conjunction of guarantees only (G-wrapped as appropriate).
  const Formula *guaranteeFormula(Context &Ctx) const;

  /// Renders the specification back to concrete syntax.
  std::string str() const;
};

} // namespace temos

#endif // TEMOS_LOGIC_SPECIFICATION_H
