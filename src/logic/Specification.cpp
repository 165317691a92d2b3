//===- logic/Specification.cpp - TSL-MT specifications --------------------===//

#include "logic/Specification.h"

using namespace temos;

const SignalDecl *Specification::findInput(const std::string &Name) const {
  for (const SignalDecl &D : Inputs)
    if (D.Name == Name)
      return &D;
  return nullptr;
}

const CellDecl *Specification::findCell(const std::string &Name) const {
  for (const CellDecl &D : Cells)
    if (D.Name == Name)
      return &D;
  return nullptr;
}

const SignalDecl *Specification::findOutput(const std::string &Name) const {
  for (const SignalDecl &D : Outputs)
    if (D.Name == Name)
      return &D;
  return nullptr;
}

std::optional<Sort> Specification::signalSort(const std::string &Name) const {
  if (const SignalDecl *D = findInput(Name))
    return D->S;
  if (const CellDecl *D = findCell(Name))
    return D->S;
  if (const SignalDecl *D = findOutput(Name))
    return D->S;
  return std::nullopt;
}

bool Specification::isUpdatable(const std::string &Name) const {
  return findCell(Name) != nullptr || findOutput(Name) != nullptr;
}

const Formula *Specification::guaranteeFormula(Context &Ctx) const {
  std::vector<const Formula *> Parts;
  for (const Formula *G : AlwaysGuarantees)
    Parts.push_back(Ctx.Formulas.globally(G));
  for (const Formula *G : Guarantees)
    Parts.push_back(G);
  return Ctx.Formulas.andF(std::move(Parts));
}

std::string Specification::str() const {
  std::string Out = std::string("#") + theoryName(Th) + "#\n";
  if (Name != "spec")
    Out += "spec " + Name + "\n";
  auto EmitSignals = [&](const char *Block,
                         const std::vector<SignalDecl> &Decls) {
    if (Decls.empty())
      return;
    Out += std::string(Block) + " {\n";
    for (const SignalDecl &D : Decls)
      Out += "  " + std::string(sortName(D.S)) + " " + D.Name + ";\n";
    Out += "}\n";
  };
  EmitSignals("inputs", Inputs);
  if (!Cells.empty()) {
    Out += "cells {\n";
    for (const CellDecl &D : Cells) {
      Out += "  " + std::string(sortName(D.S)) + " " + D.Name;
      if (D.Init)
        Out += " = " + D.Init->str();
      Out += ";\n";
    }
    Out += "}\n";
  }
  EmitSignals("outputs", Outputs);
  if (!Functions.empty()) {
    Out += "functions {\n";
    for (const FunctionDecl &D : Functions) {
      Out += "  " + std::string(sortName(D.Result)) + " " + D.Name + "(";
      for (size_t I = 0; I < D.Params.size(); ++I)
        Out += std::string(I ? ", " : "") + sortName(D.Params[I]);
      Out += ");\n";
    }
    Out += "}\n";
  }
  auto EmitFormulas = [&](const char *Block,
                          const std::vector<const Formula *> &Fs) {
    if (Fs.empty())
      return;
    Out += std::string(Block) + " {\n";
    for (const Formula *F : Fs)
      Out += "  " + F->str() + ";\n";
    Out += "}\n";
  };
  EmitFormulas("always assume", Assumptions);
  EmitFormulas("always guarantee", AlwaysGuarantees);
  EmitFormulas("guarantee", Guarantees);
  return Out;
}
