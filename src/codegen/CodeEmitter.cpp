//===- codegen/CodeEmitter.cpp - JS and C++ code generation ----------------===//

#include "codegen/CodeEmitter.h"

#include "logic/Builtin.h"

using namespace temos;

namespace {

/// Rendering language.
enum class Lang { Js, Cpp };

/// True if the signal is an input (vs a cell/output).
bool isInputSignal(const Specification &Spec, const std::string &Name) {
  return Spec.findInput(Name) != nullptr;
}

/// Renders a term as an expression in the target language. Inputs read
/// from `inputs`, cells from `cells`; uninterpreted functions dispatch
/// to a user-supplied `fns` object (JS) / `Fns` member (C++).
std::string emitTerm(const Term *T, const Specification &Spec, Lang L) {
  switch (T->kind()) {
  case Term::Kind::Numeral:
    if (T->value().isInteger())
      return std::to_string(T->value().numerator());
    return "(" + std::to_string(T->value().numerator()) + ".0 / " +
           std::to_string(T->value().denominator()) + ".0)";
  case Term::Kind::Signal: {
    const char *Scope = isInputSignal(Spec, T->name()) ? "inputs" : "cells";
    return std::string(Scope) + "." + T->name();
  }
  case Term::Kind::Apply:
    break;
  }

  const std::string &F = T->name();
  if (const Builtin *B = findBuiltin(F); B && T->arity() == 2) {
    std::string Op = B->Symbol;
    if (B->Code == Builtin::Op::Eq)
      Op = L == Lang::Js ? "===" : "==";
    else if (B->Code == Builtin::Op::Ne && L == Lang::Js)
      Op = "!==";
    return "(" + emitTerm(T->args()[0], Spec, L) + " " + Op + " " +
           emitTerm(T->args()[1], Spec, L) + ")";
  }
  if (T->arity() == 0) {
    if (F == "True")
      return "true";
    if (F == "False")
      return "false";
    // Opaque constant: a tagged string literal.
    return std::string("\"") + F + "\"";
  }
  // Uninterpreted function call.
  std::string Call = (L == Lang::Js ? "fns." : "Fns.") + F + "(";
  for (size_t I = 0; I < T->arity(); ++I) {
    if (I != 0)
      Call += ", ";
    Call += emitTerm(T->args()[I], Spec, L);
  }
  return Call + ")";
}

std::string cppType(Sort S) {
  switch (S) {
  case Sort::Bool:
    return "bool";
  case Sort::Int:
    return "long long";
  case Sort::Real:
    return "double";
  case Sort::Opaque:
    return "std::string";
  }
  return "long long";
}

std::string initExpr(const CellDecl &D, const Specification &Spec, Lang L) {
  if (D.Init)
    return emitTerm(D.Init, Spec, L);
  switch (D.S) {
  case Sort::Bool:
    return "false";
  case Sort::Int:
    return "0";
  case Sort::Real:
    return L == Lang::Js ? "0" : "0.0";
  case Sort::Opaque:
    return "\"\"";
  }
  return "0";
}

/// The predicate evaluations p0, p1, ... and the input word they form.
std::string emitInputWord(const Alphabet &AB, const Specification &Spec,
                          Lang L) {
  bool Js = L == Lang::Js;
  const std::vector<const Term *> &Preds = AB.predicates();
  std::string Out;
  for (size_t I = 0; I < Preds.size(); ++I)
    Out += std::string(Js ? "    const p" : "    const bool p") +
           std::to_string(I) + " = " + emitTerm(Preds[I], Spec, L) + ";\n";
  Out += Js ? "    const word =" : "    const unsigned word =";
  if (Preds.empty())
    return Out + " 0;\n";
  for (size_t I = 0; I < Preds.size(); ++I)
    Out += std::string(I != 0 ? " |" : "") + " (p" + std::to_string(I) +
           " ? " + std::to_string(1u << I) + (Js ? " : 0)" : "u : 0u)");
  return Out + ";\n";
}

/// One `case` per state, switching on the input word to each edge's
/// cell updates and next state. Only the letters the machine answers
/// get a `case`; on any other word no case matches, so the state and
/// every cell keep their values, as MealyMachine specifies.
std::string emitTransitions(const MealyMachine &M, const Alphabet &AB,
                            const Specification &Spec, Lang L) {
  std::string Out;
  for (uint32_t S = 0; S < M.stateCount(); ++S) {
    Out += "    case " + std::to_string(S) + ":\n";
    Out += "      switch (word) {\n";
    for (uint32_t In : M.inputs()) {
      MealyMachine::Edge E = M.edge(S, In);
      Out += "      case " + std::to_string(In) + ":\n";
      std::vector<unsigned> Choices = AB.decodeOutput(E.Output);
      for (size_t C = 0; C < AB.cells().size(); ++C) {
        const Formula *U = AB.cells()[C].Options[Choices[C]];
        // Skip no-op self updates for readability.
        if (U->updateValue()->isSignal() &&
            U->updateValue()->name() == U->cell())
          continue;
        Out += "        next." + U->cell() + " = " +
               emitTerm(U->updateValue(), Spec, L) + ";\n";
      }
      Out += "        state = " + std::to_string(E.NextState) + ";\n";
      Out += "        break;\n";
    }
    if (L == Lang::Cpp)
      Out += "      default: break;\n";
    Out += "      }\n";
    Out += "      break;\n";
  }
  return Out;
}

} // namespace

std::string temos::emitJavaScript(const MealyMachine &M, const Alphabet &AB,
                                  const Specification &Spec) {
  std::string Out;
  Out += "// Synthesized by temoscpp from specification '" + Spec.Name +
         "' (TSL modulo " + theoryName(Spec.Th) + ").\n";
  Out += "// States: " + std::to_string(M.stateCount()) +
         ", input letters: " + std::to_string(M.inputs().size()) + ".\n";
  Out += "function createController(fns) {\n";
  Out += "  let state = " + std::to_string(M.initialState()) + ";\n";
  Out += "  const cells = {\n";
  for (const CellDecl &D : Spec.Cells)
    Out += "    " + D.Name + ": " + initExpr(D, Spec, Lang::Js) + ",\n";
  for (const SignalDecl &D : Spec.Outputs)
    Out += "    " + D.Name + ": " +
           initExpr(CellDecl{D.Name, D.S, nullptr}, Spec, Lang::Js) + ",\n";
  Out += "  };\n";
  Out += "  function step(inputs) {\n";
  Out += emitInputWord(AB, Spec, Lang::Js);
  Out += "    const next = Object.assign({}, cells);\n";
  Out += "    switch (state) {\n";
  Out += emitTransitions(M, AB, Spec, Lang::Js);
  Out += "    }\n";
  Out += "    Object.assign(cells, next);\n";
  Out += "    return cells;\n";
  Out += "  }\n";
  Out += "  return { step: step, cells: cells };\n";
  Out += "}\n";
  return Out;
}

std::string temos::emitCpp(const MealyMachine &M, const Alphabet &AB,
                           const Specification &Spec) {
  std::string Out;
  Out += "// Synthesized by temoscpp from specification '" + Spec.Name +
         "' (TSL modulo " + theoryName(Spec.Th) + ").\n";
  Out += "#include <string>\n\n";
  Out += "struct " + Spec.Name + "Controller {\n";
  Out += "  struct Inputs {\n";
  for (const SignalDecl &D : Spec.Inputs)
    Out += "    " + cppType(D.S) + " " + D.Name + "{};\n";
  Out += "  };\n";
  Out += "  struct Cells {\n";
  for (const CellDecl &D : Spec.Cells)
    Out += "    " + cppType(D.S) + " " + D.Name + " = " +
           initExpr(D, Spec, Lang::Cpp) + ";\n";
  for (const SignalDecl &D : Spec.Outputs)
    Out += "    " + cppType(D.S) + " " + D.Name + " = " +
           initExpr(CellDecl{D.Name, D.S, nullptr}, Spec, Lang::Cpp) + ";\n";
  Out += "  };\n";
  Out += "  int state = " + std::to_string(M.initialState()) + ";\n";
  Out += "  Cells cells;\n\n";
  Out += "  const Cells &step(const Inputs &inputs) {\n";
  Out += emitInputWord(AB, Spec, Lang::Cpp);
  Out += "    Cells next = cells;\n";
  Out += "    switch (state) {\n";
  Out += emitTransitions(M, AB, Spec, Lang::Cpp);
  Out += "    default: break;\n";
  Out += "    }\n";
  Out += "    cells = next;\n";
  Out += "    return cells;\n";
  Out += "  }\n";
  Out += "};\n";
  return Out;
}

size_t temos::countLines(const std::string &Code) {
  size_t Lines = 0;
  for (char C : Code)
    if (C == '\n')
      ++Lines;
  return Lines;
}
