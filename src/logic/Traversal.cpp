//===- logic/Traversal.cpp - Formula traversals ----------------------------===//

#include "logic/Traversal.h"

#include <algorithm>
#include <unordered_set>

using namespace temos;

void temos::forEachNode(const Formula *F,
                        const std::function<void(const Formula *)> &Visit) {
  Visit(F);
  for (const Formula *Kid : F->children())
    forEachNode(Kid, Visit);
}

std::vector<const Term *> temos::collectPredicateTerms(const Formula *F) {
  std::vector<const Term *> Result;
  std::unordered_set<const Term *> Seen;
  forEachNode(F, [&](const Formula *Node) {
    if (Node->is(Formula::Kind::Pred) && Seen.insert(Node->pred()).second)
      Result.push_back(Node->pred());
  });
  return Result;
}

std::vector<const Formula *> temos::collectUpdateTerms(const Formula *F) {
  std::vector<const Formula *> Result;
  std::unordered_set<const Formula *> Seen;
  forEachNode(F, [&](const Formula *Node) {
    if (Node->is(Formula::Kind::Update) && Seen.insert(Node).second)
      Result.push_back(Node);
  });
  return Result;
}

namespace {

template <typename T, typename CollectFn>
std::vector<T> collectAcrossSpec(const Specification &Spec,
                                 CollectFn Collect) {
  std::vector<T> Result;
  auto Merge = [&](const std::vector<T> &Items) {
    for (const T &Item : Items)
      if (std::find(Result.begin(), Result.end(), Item) == Result.end())
        Result.push_back(Item);
  };
  for (const Formula *F : Spec.Assumptions)
    Merge(Collect(F));
  for (const Formula *F : Spec.AlwaysGuarantees)
    Merge(Collect(F));
  for (const Formula *F : Spec.Guarantees)
    Merge(Collect(F));
  return Result;
}

} // namespace

std::vector<const Term *>
temos::collectPredicateTerms(const Specification &Spec) {
  return collectAcrossSpec<const Term *>(Spec, [](const Formula *F) {
    return collectPredicateTerms(F);
  });
}

std::vector<const Formula *>
temos::collectUpdateTerms(const Specification &Spec) {
  return collectAcrossSpec<const Formula *>(Spec, [](const Formula *F) {
    return collectUpdateTerms(F);
  });
}
