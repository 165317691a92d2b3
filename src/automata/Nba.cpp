//===- automata/Nba.cpp - Nondeterministic Buechi automata -----------------===//

#include "automata/Nba.h"

#include <algorithm>
#include <functional>

using namespace temos;

bool Nba::isNonEmpty() const {
  if (States.empty())
    return false;

  // Tarjan SCC from the initial state; the language is nonempty iff some
  // reachable SCC contains an accepting transition between two of its
  // states (including accepting self-loops).
  const uint32_t N = static_cast<uint32_t>(States.size());
  std::vector<int> Index(N, -1);
  std::vector<int> LowLink(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<uint32_t> Stack;
  std::vector<int> Scc(N, -1);
  int NextIndex = 0;
  int SccCount = 0;

  std::function<void(uint32_t)> StrongConnect = [&](uint32_t V) {
    Index[V] = LowLink[V] = NextIndex++;
    Stack.push_back(V);
    OnStack[V] = true;
    for (const Transition &T : States[V]) {
      uint32_t W = T.Target;
      if (Index[W] < 0) {
        StrongConnect(W);
        LowLink[V] = std::min(LowLink[V], LowLink[W]);
      } else if (OnStack[W]) {
        LowLink[V] = std::min(LowLink[V], Index[W]);
      }
    }
    if (LowLink[V] == Index[V]) {
      for (;;) {
        uint32_t W = Stack.back();
        Stack.pop_back();
        OnStack[W] = false;
        Scc[W] = SccCount;
        if (W == V)
          break;
      }
      ++SccCount;
    }
  };
  StrongConnect(Initial);

  // A single-state SCC counts only with a self-loop; checking for an
  // intra-SCC accepting transition covers both cases.
  for (uint32_t V = 0; V < N; ++V) {
    if (Scc[V] < 0)
      continue; // Unreachable.
    for (const Transition &T : States[V])
      if (T.Accepting && Scc[T.Target] == Scc[V])
        return true;
  }
  return false;
}

std::vector<bool> Nba::liveStates() const {
  // Backward fixpoint: a state is live if one of its transitions is
  // accepting or reaches a live state.
  std::vector<bool> Live(States.size(), false);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t Q = 0; Q < States.size(); ++Q) {
      if (Live[Q])
        continue;
      for (const Transition &T : States[Q]) {
        if (T.Accepting || Live[T.Target]) {
          Live[Q] = true;
          Changed = true;
          break;
        }
      }
    }
  }
  return Live;
}
