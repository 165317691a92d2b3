//===- theory/CongruenceClosure.cpp - EUF congruence closure ---------------===//

#include "theory/CongruenceClosure.h"

#include <cassert>

using namespace temos;

CongruenceClosure::NodeId
CongruenceClosure::add(uint32_t Sym, std::span<const NodeId> Args) {
  NodeId Id = static_cast<NodeId>(Parent.size());
  Parent.push_back(Id);
  Symbol.push_back(Sym);
  ArgBegin.push_back(static_cast<uint32_t>(ArgIds.size()));
  Arity.push_back(static_cast<uint32_t>(Args.size()));
  ArgIds.insert(ArgIds.end(), Args.begin(), Args.end());
  if (Sym != Leaf && !Args.empty())
    Applications.push_back(Id);
  return Id;
}

void CongruenceClosure::clear() {
  Parent.clear();
  Symbol.clear();
  ArgBegin.clear();
  Arity.clear();
  ArgIds.clear();
  Applications.clear();
  Disequalities.clear();
}

CongruenceClosure::NodeId CongruenceClosure::find(NodeId N) {
  NodeId Root = N;
  while (Parent[Root] != Root)
    Root = Parent[Root];
  // Path compression.
  while (Parent[N] != Root) {
    NodeId Next = Parent[N];
    Parent[N] = Root;
    N = Next;
  }
  return Root;
}

bool CongruenceClosure::merge(NodeId A, NodeId B) {
  NodeId RA = find(A), RB = find(B);
  if (RA != RB)
    Parent[RA] = RB;
  propagate();
  for (const auto &[X, Y] : Disequalities)
    if (find(X) == find(Y))
      return false;
  return true;
}

void CongruenceClosure::propagate() {
  // Naive fixpoint: merge any two applications of one symbol whose
  // arguments are pairwise equal. Quadratic in the applications, which
  // is fine for the small graphs one theory check builds.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I < Applications.size(); ++I) {
      const NodeId A = Applications[I];
      for (size_t J = I + 1; J < Applications.size(); ++J) {
        const NodeId B = Applications[J];
        if (Symbol[A] != Symbol[B] || Arity[A] != Arity[B] ||
            find(A) == find(B))
          continue;
        bool ArgsEqual = true;
        for (uint32_t K = 0; K < Arity[A] && ArgsEqual; ++K) {
          assert(ArgIds[ArgBegin[A] + K] < Parent.size() &&
                 ArgIds[ArgBegin[B] + K] < Parent.size() &&
                 "argument node never added");
          ArgsEqual = find(ArgIds[ArgBegin[A] + K]) ==
                      find(ArgIds[ArgBegin[B] + K]);
        }
        if (ArgsEqual) {
          Parent[find(A)] = find(B);
          Changed = true;
        }
      }
    }
  }
}

bool CongruenceClosure::addDisequality(NodeId A, NodeId B) {
  Disequalities.emplace_back(A, B);
  return find(A) != find(B);
}

std::vector<std::pair<CongruenceClosure::NodeId, CongruenceClosure::NodeId>>
CongruenceClosure::equalPairs() {
  std::vector<std::pair<NodeId, NodeId>> Result;
  for (NodeId A = 0; A < Parent.size(); ++A) {
    const NodeId RA = find(A);
    for (NodeId B = A + 1; B < Parent.size(); ++B)
      if (find(B) == RA)
        Result.emplace_back(A, B);
  }
  return Result;
}
