//===- BlqSolver.cpp - Berndl-Lhotak-Qian BDD solver ----------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "solvers/BlqSolver.h"

#include "core/SolveBudget.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace ag;

BlqSolver::BlqSolver(const ConstraintSystem &CS, SolverStats &Stats,
                     const SolverOptions &Opts, const HcdResult *Hcd,
                     const std::vector<NodeId> *SeedReps)
    : CS(CS), Stats(Stats), Gov(Opts.Governor) {
  Mgr = std::make_unique<BddManager>(Opts.BlqInitialCapacity);
  uint64_t N = std::max<uint64_t>(CS.numNodes(), 2);
  // Domain creation order fixes the interleaved level order D1, D3, D2 —
  // chosen so every rename and offset application preserves variable order.
  Doms = std::make_unique<BddDomains>(*Mgr, std::vector<uint64_t>{N, N, N});

  Rep.resize(CS.numNodes());
  for (NodeId V = 0; V != CS.numNodes(); ++V)
    Rep[V] = V;
  if (SeedReps) {
    assert(SeedReps->size() == CS.numNodes());
    // Flatten to canonical targets.
    for (NodeId V = 0; V != CS.numNodes(); ++V) {
      NodeId R = (*SeedReps)[V];
      while ((*SeedReps)[R] != R)
        R = (*SeedReps)[R];
      Rep[V] = R;
    }
  }
  if (Hcd)
    HcdLazy = Hcd->Lazy;

  AddrTaken.assign(CS.numNodes(), false);
  for (const Constraint &C : CS.constraints()) {
    if (C.Kind != ConstraintKind::AddressOf)
      continue;
    for (uint32_t I = 0, E = CS.sizeOf(C.Src); I != E; ++I)
      AddrTaken[C.Src + I] = true;
  }
}

BlqSolver::~BlqSolver() = default;

NodeId BlqSolver::findRep(NodeId V) const { return Rep[V]; }

Bdd BlqSolver::offsetRelation(uint32_t Offset, unsigned FromDom,
                              unsigned ToDom) {
  if (Offset == 0) {
    // Identity over (FromDom, ToDom), corrected for pre-merged objects:
    // object o's variable role lives at findRep(o).
    // Exceptions are rare, so build identity minus exceptions plus the
    // corrected pairs.
    // Only nodes that can appear in a points-to set need correct rows;
    // restricting the exception list keeps the relation near-identity.
    std::vector<NodeId> Exceptions;
    for (NodeId V = 0; V != CS.numNodes(); ++V)
      if (AddrTaken[V] && findRep(V) != V)
        Exceptions.push_back(V);

    const std::vector<uint32_t> &FromLv = Doms->levels(FromDom);
    const std::vector<uint32_t> &ToLv = Doms->levels(ToDom);
    assert(FromLv.size() == ToLv.size());
    Bdd Ident = Mgr->trueBdd();
    for (size_t J = FromLv.size(); J-- != 0;) {
      Bdd A = Mgr->var(FromLv[J]);
      Bdd B = Mgr->var(ToLv[J]);
      Bdd Bicond = Mgr->bddIte(A, B, Mgr->bddNot(B));
      Ident = Mgr->bddAnd(Ident, Bicond);
    }
    if (Exceptions.empty())
      return Ident;
    Bdd Excl = Mgr->falseBdd();
    Bdd Pairs = Mgr->falseBdd();
    for (NodeId V : Exceptions) {
      Bdd From = Doms->element(FromDom, V);
      Excl = Mgr->bddOr(Excl, From);
      Pairs = Mgr->bddOr(
          Pairs, Mgr->bddAnd(From, Doms->element(ToDom, findRep(V))));
    }
    return Mgr->bddOr(Mgr->bddDiff(Ident, Excl), Pairs);
  }

  // Non-zero offsets: enumerate the objects wide enough to have this slot.
  Bdd Out = Mgr->falseBdd();
  for (NodeId V = 0; V != CS.numNodes(); ++V) {
    if (Gov)
      Gov->onStep();
    if (!AddrTaken[V])
      continue; // Can never appear in a points-to set.
    NodeId T = CS.offsetTarget(V, Offset);
    if (T == InvalidNode)
      continue;
    Out = Mgr->bddOr(Out, Mgr->bddAnd(Doms->element(FromDom, V),
                                      Doms->element(ToDom, findRep(T))));
  }
  return Out;
}

PointsToSolution BlqSolver::solve() {
  // --- Build the initial relations.
  Bdd P = Mgr->falseBdd();   // Points-to (D1 var, D2 obj).
  Bdd C = Mgr->falseBdd();   // Copy edges (D1 dst, D3 src).
  std::map<uint32_t, size_t> GroupIndex;
  // Index-based lookup: Groups may reallocate while being filled.
  auto groupFor = [&](uint32_t Offset) -> OffsetGroup & {
    auto [It, New] = GroupIndex.try_emplace(Offset, Groups.size());
    if (New)
      Groups.push_back(
          OffsetGroup{Offset, Mgr->falseBdd(), Mgr->falseBdd()});
    return Groups[It->second];
  };

  for (const Constraint &Cn : CS.constraints()) {
    if (Gov)
      Gov->onStep();
    switch (Cn.Kind) {
    case ConstraintKind::AddressOf:
      P = Mgr->bddOr(P, Mgr->bddAnd(Doms->element(D1, findRep(Cn.Dst)),
                                    Doms->element(D2, Cn.Src)));
      break;
    case ConstraintKind::Copy:
      C = Mgr->bddOr(C, Mgr->bddAnd(Doms->element(D1, findRep(Cn.Dst)),
                                    Doms->element(D3, findRep(Cn.Src))));
      break;
    case ConstraintKind::Load: {
      OffsetGroup &G = groupFor(Cn.Offset);
      G.LoadRel = Mgr->bddOr(
          G.LoadRel, Mgr->bddAnd(Doms->element(D1, findRep(Cn.Dst)),
                                 Doms->element(D3, findRep(Cn.Src))));
      break;
    }
    case ConstraintKind::Store: {
      OffsetGroup &G = groupFor(Cn.Offset);
      G.StoreRel = Mgr->bddOr(
          G.StoreRel, Mgr->bddAnd(Doms->element(D1, findRep(Cn.Dst)),
                                  Doms->element(D3, findRep(Cn.Src))));
      break;
    }
    }
  }

  // Pre-built per-offset object-slot relations.
  std::vector<Bdd> OffToD3, OffToD1;
  for (OffsetGroup &G : Groups) {
    OffToD3.push_back(offsetRelation(G.Offset, D2, D3));
    OffToD1.push_back(offsetRelation(G.Offset, D2, D1));
  }

  // Identity object->variable relations, shared by the HCD rule.
  Bdd IdD2D3 = offsetRelation(0, D2, D3);
  Bdd IdD2D1 = offsetRelation(0, D2, D1);

  BddVarSetId QD1 = Doms->varSet(D1);
  BddVarSetId QD2 = Doms->varSet(D2);
  BddVarSetId QD3 = Doms->varSet(D3);
  BddPairingId D1toD3 = Doms->pairing(D1, D3);

  // --- Semi-naive iteration with Berndl-style incrementalization.
  Bdd PprocEdges = Mgr->falseBdd(); // P tuples already used for edge gen.
  Bdd Cused = Mgr->falseBdd();      // C tuples already joined with full P.
  Bdd Pprop = Mgr->falseBdd();      // P tuples already propagated.
  // Incrementally maintained rename of P to (D3, D2): renaming only the
  // delta keeps the expensive replace() off the full relation.
  Bdd P3 = Mgr->falseBdd();
  Bdd P3src = Mgr->falseBdd(); // The P value P3 mirrors.
  auto refreshP3 = [&]() {
    if (P == P3src)
      return;
    Bdd Delta = Mgr->bddDiff(P, P3src);
    P3 = Mgr->bddOr(P3, Mgr->replace(Delta, D1toD3));
    P3src = P;
  };

  // Extraction of whatever P currently holds — the final answer on the
  // normal path, a partial snapshot when the governor aborts the loop.
  auto extract = [&](const Bdd &Rel) {
    PointsToSolution Out(CS.numNodes());
    for (NodeId V = 0; V != CS.numNodes(); ++V)
      if (findRep(V) != V)
        Out.setRep(V, findRep(V));
    Doms->forEachPair(Rel, D1, D2, [&](uint64_t Var, uint64_t Obj) {
      Out.mutableSet(static_cast<NodeId>(Var))
          .set(static_cast<uint32_t>(Obj));
    });
    Out.internShared();
    return Out;
  };
  try {
  for (;;) {
    ++Stats.WorklistPops; // Iteration counter stand-in.
    if (Gov)
      Gov->checkpoint();
    Bdd Pstart = P;
    Bdd Cstart = C;

    // (a) Edge generation from new points-to tuples.
    Bdd Pnew = Mgr->bddDiff(P, PprocEdges);
    if (!Pnew.isFalse()) {
      Bdd Pnew3 = Mgr->replace(Pnew, D1toD3); // (D3 base, D2 obj)
      for (size_t I = 0; I != Groups.size(); ++I) {
        OffsetGroup &G = Groups[I];
        if (!G.LoadRel.isFalse()) {
          // J(D1 dst, D2 obj) for new pts of load bases.
          Bdd J = Mgr->relProd(G.LoadRel, Pnew3, QD3);
          if (!J.isFalse())
            C = Mgr->bddOr(C, Mgr->relProd(J, OffToD3[I], QD2));
        }
        if (!G.StoreRel.isFalse()) {
          // J2(D3 src, D2 obj) for new pts of store bases.
          Bdd J2 = Mgr->relProd(G.StoreRel, Pnew, QD1);
          if (!J2.isFalse())
            C = Mgr->bddOr(C, Mgr->relProd(J2, OffToD1[I], QD2));
        }
      }
      // HCD: inject the cycle-closing edges for lazy tuples whose source
      // variable gained points-to members.
      for (const auto &[NRaw, TRaw] : HcdLazy) {
        NodeId NRep = findRep(NRaw);
        NodeId T = findRep(TRaw);
        Bdd Row = Mgr->relProd(Pnew, Doms->element(D1, NRep), QD1);
        if (Row.isFalse())
          continue;
        ++Stats.HcdCollapses;
        // Members as variables in D3 / D1 (offset-0 relation routes
        // through representatives).
        Bdd MemD3 = Mgr->relProd(Row, IdD2D3, QD2);
        Bdd MemD1 = Mgr->relProd(Row, IdD2D1, QD2);
        Bdd EdgeIn = Mgr->bddAnd(Doms->element(D1, T), MemD3);
        Bdd EdgeOut = Mgr->bddAnd(MemD1, Doms->element(D3, T));
        C = Mgr->bddOr(C, Mgr->bddOr(EdgeIn, EdgeOut));
      }
      PprocEdges = P;
    }

    // (b) Propagate the full solution across new edges.
    Bdd Cnew = Mgr->bddDiff(C, Cused);
    if (!Cnew.isFalse()) {
      refreshP3();
      P = Mgr->bddOr(P, Mgr->relProd(Cnew, P3, QD3));
      Cused = C;
      ++Stats.Propagations;
      if (Gov)
        Gov->onPropagation();
    }

    // (c) Propagate new tuples across all edges, to a local fixpoint.
    for (;;) {
      Bdd Pd = Mgr->bddDiff(P, Pprop);
      if (Pd.isFalse())
        break;
      Pprop = P;
      Bdd Pd3 = Mgr->replace(Pd, D1toD3);
      P = Mgr->bddOr(P, Mgr->relProd(C, Pd3, QD3));
      ++Stats.Propagations;
      if (Gov)
        Gov->onPropagation();
    }

    if (P == Pstart && C == Cstart)
      break;
  }
  } catch (BudgetExceededError &E) {
    // Unwind cleanly with whatever the relation holds so far; the BDD
    // state is always consistent between operations.
    E.setPartial(std::make_shared<PointsToSolution>(extract(P)));
    throw;
  }
  Stats.EdgesAdded = Doms->countPairs(C, D1, D3);

  // --- Extraction.
  return extract(P);
}
