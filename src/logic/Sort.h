//===- logic/Sort.h - Signal and term sorts --------------------*- C++ -*-===//
///
/// \file
/// Sorts for TSL-MT signals and terms. TSL-MT formulas are built over a
/// first-order theory (Sec. 3.2/3.3 of the paper); we support the theory
/// of Linear Integer Arithmetic (Int), Linear Real Arithmetic (Real),
/// booleans, and uninterpreted sorts (Opaque) for data that is moved
/// around but never computed on (task ids, MIDI notes, ...).
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_LOGIC_SORT_H
#define TEMOS_LOGIC_SORT_H

#include <string>

namespace temos {

/// The sort of a signal or term.
enum class Sort {
  Bool,
  Int,
  Real,
  /// An uninterpreted sort: values can be stored, moved and compared for
  /// equality but have no arithmetic.
  Opaque,
};

/// Printable name of \p S ("bool", "int", "real", "opaque").
inline const char *sortName(Sort S) {
  switch (S) {
  case Sort::Bool:
    return "bool";
  case Sort::Int:
    return "int";
  case Sort::Real:
    return "real";
  case Sort::Opaque:
    return "opaque";
  }
  return "?";
}

/// True for the arithmetic sorts Int and Real.
inline bool isNumericSort(Sort S) { return S == Sort::Int || S == Sort::Real; }

/// True when terms of sorts \p A and \p B may be compared with '=', and
/// so when one may stand where the other is expected (an update of a
/// cell, a cell's initial value, a function argument): the sorts agree
/// or both are numeric.
inline bool compatibleSorts(Sort A, Sort B) {
  return A == B || (isNumericSort(A) && isNumericSort(B));
}

/// Parses a sort keyword; returns false if \p Name is not a sort.
inline bool parseSort(const std::string &Name, Sort &Out) {
  if (Name == "bool") {
    Out = Sort::Bool;
    return true;
  }
  if (Name == "int") {
    Out = Sort::Int;
    return true;
  }
  if (Name == "real") {
    Out = Sort::Real;
    return true;
  }
  if (Name == "opaque") {
    Out = Sort::Opaque;
    return true;
  }
  return false;
}

/// The background first-order theory of a TSL-MT specification.
/// TSL proper is the special case Theory::UF (Sec. 3.3).
enum class Theory {
  /// Theory of uninterpreted functions: plain TSL.
  UF,
  /// Linear integer arithmetic (#LIA# in the benchmark headers).
  LIA,
  /// Linear real arithmetic (#RA# in the benchmark headers, e.g. Fig. 5).
  LRA,
};

inline const char *theoryName(Theory T) {
  switch (T) {
  case Theory::UF:
    return "UF";
  case Theory::LIA:
    return "LIA";
  case Theory::LRA:
    return "RA";
  }
  return "?";
}

} // namespace temos

#endif // TEMOS_LOGIC_SORT_H
