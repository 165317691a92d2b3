//===- theory/CongruenceClosure.h - EUF congruence closure -----*- C++ -*-===//
///
/// \file
/// Congruence closure over a ground term graph for the theory of
/// equality with uninterpreted functions (EUF). Drives the UF part of
/// consistency checking (Sec. 4.2) and plain-TSL reasoning (TSL = TSL-MT
/// over UF, Sec. 3.3).
///
/// The graph is numbered densely by its owner (each SMT theory check
/// numbers the subterms of its literals): a node is a leaf or an
/// application of a function symbol, itself a small number, to argument
/// nodes. Two applications of one symbol with pairwise-equal arguments
/// are merged. Union-find runs on a flat parent vector.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_THEORY_CONGRUENCECLOSURE_H
#define TEMOS_THEORY_CONGRUENCECLOSURE_H

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace temos {

/// Union-find based congruence closure.
class CongruenceClosure {
public:
  using NodeId = uint32_t;
  /// The symbol of a node congruence never looks into: a signal, a
  /// numeral, a constant.
  static constexpr uint32_t Leaf = UINT32_MAX;

  /// Appends a node applying \p Symbol to \p Args (a leaf when Symbol
  /// is Leaf) and returns its id. Arguments may name nodes appended
  /// later, but must exist by the next merge; congruences a node takes
  /// part in are found from the next merge on.
  NodeId add(uint32_t Symbol, std::span<const NodeId> Args = {});

  /// Removes every node and disequality.
  void clear();

  /// Asserts A = B and propagates congruences. Returns false if this
  /// contradicts an asserted disequality.
  bool merge(NodeId A, NodeId B);

  /// Asserts A != B. Returns false if A and B are already equal.
  bool addDisequality(NodeId A, NodeId B);

  /// True if the two nodes are in the same class.
  bool areEqual(NodeId A, NodeId B) { return find(A) == find(B); }

  /// Representative of \p N's class.
  NodeId find(NodeId N);

  /// Pairs (A, B), A < B, of nodes in one class, ordered by A then B;
  /// used to propagate equalities into the arithmetic solver.
  std::vector<std::pair<NodeId, NodeId>> equalPairs();

private:
  void propagate();

  std::vector<NodeId> Parent;
  std::vector<uint32_t> Symbol;
  /// Node N's arguments are ArgIds[ArgBegin[N], ArgBegin[N] + Arity[N]).
  std::vector<uint32_t> ArgBegin;
  std::vector<uint32_t> Arity;
  std::vector<NodeId> ArgIds;
  /// The nodes with arguments, in id order: the congruence candidates.
  std::vector<NodeId> Applications;
  std::vector<std::pair<NodeId, NodeId>> Disequalities;
};

} // namespace temos

#endif // TEMOS_THEORY_CONGRUENCECLOSURE_H
