//===- automata/Nba.cpp - Nondeterministic Buechi automata -----------------===//

#include "automata/Nba.h"

#include <algorithm>
#include <functional>

using namespace temos;

bool Nba::addEdge(uint32_t From, const Edge &E, const uint64_t *Outputs) {
  StateEdges &S = States[From];
  const size_t I = std::find(S.Edges.begin(), S.Edges.end(), E) -
                   S.Edges.begin();
  const bool New = I == S.Edges.size();
  if (New) {
    S.Edges.push_back(E);
    S.Masks.resize(S.Masks.size() + Words, 0);
  }
  for (size_t W = 0; W < Words; ++W)
    S.Masks[I * Words + W] |= Outputs[W];
  return New;
}

bool Nba::isNonEmpty() const {
  if (States.empty())
    return false;

  // Tarjan SCC from the initial state; the language is nonempty iff some
  // reachable SCC contains an accepting edge between two of its
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
    for (const Edge &E : States[V].Edges) {
      uint32_t W = E.Target;
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
  // intra-SCC accepting edge covers both cases.
  for (uint32_t V = 0; V < N; ++V) {
    if (Scc[V] < 0)
      continue; // Unreachable.
    for (const Edge &E : States[V].Edges)
      if (E.Accepting && Scc[E.Target] == Scc[V])
        return true;
  }
  return false;
}

std::vector<bool> Nba::liveStates() const {
  // Backward fixpoint: a state is live if one of its edges is accepting
  // or reaches a live state.
  std::vector<bool> Live(States.size(), false);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t Q = 0; Q < States.size(); ++Q) {
      if (Live[Q])
        continue;
      for (const Edge &E : States[Q].Edges) {
        if (E.Accepting || Live[E.Target]) {
          Live[Q] = true;
          Changed = true;
          break;
        }
      }
    }
  }
  return Live;
}

size_t Nba::dropDeadEdges() {
  const std::vector<bool> Live = liveStates();
  size_t Left = 0;
  for (StateEdges &S : States) {
    size_t Kept = 0;
    for (size_t I = 0; I < S.Edges.size(); ++I) {
      if (!Live[S.Edges[I].Target])
        continue;
      S.Edges[Kept] = S.Edges[I];
      std::copy_n(&S.Masks[I * Words], Words, &S.Masks[Kept * Words]);
      ++Kept;
    }
    S.Edges.resize(Kept);
    S.Masks.resize(Kept * Words);
    Left += Kept;
  }
  return Left;
}
