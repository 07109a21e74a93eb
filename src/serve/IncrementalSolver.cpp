//===- IncrementalSolver.cpp - Warm-start re-solving ----------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "serve/IncrementalSolver.h"

#include "core/LcdSolver.h"
#include "obs/FlightRecorder.h"
#include "obs/MetricsRegistry.h"
#include "obs/RequestContext.h"
#include "obs/TraceRecorder.h"

#include <algorithm>

using namespace ag;

IncrementalSolver::IncrementalSolver(Snapshot Snap) : Cur(std::move(Snap)) {
  if (Cur.Outcome != SolveOutcome::Precise)
    ValidSt = Status::invalidArgument(
        std::string("cannot warm-start from a ") +
        solveOutcomeName(Cur.Outcome) +
        " snapshot: only a precise fixpoint can be resumed");
  else if (Cur.Solution.numNodes() != Cur.CS.numNodes())
    ValidSt = Status::invalidArgument("snapshot solution size mismatch");
}

NodeId IncrementalSolver::addNode(std::string Name, uint32_t Size) {
  NodeId Id = Cur.CS.addNode(std::move(Name), Size);
  // New nodes are their own seed class; the solution table grows at the
  // next fold (resolve() sizes everything to the current node count).
  for (uint32_t I = 0; I != Size; ++I)
    Cur.SeedReps.push_back(Id + I);
  return Id;
}

/// The warm-start body: install the snapshot fixpoint, rebuild derived
/// edges, apply the delta, and resume from the touched set. \p Applied
/// must contain only constraints absent from the base system (the caller
/// deduplicated through FullCS). The solver's context already holds the
/// governor (LcdSolver installs Opts.Governor), so the rebuild and delta
/// phases' edge insertions are budget-accountable too.
void IncrementalSolver::warmSolve(WarmStartResult &R,
                                  LcdSolver<BitmapPtsPolicy> &Solver,
                                  ConstraintSystem &FullCS,
                                  const std::vector<Constraint> &Applied,
                                  bool AllowFallback) {
  obs::PhaseSpan Span("warm_solve", "serve");
  obs::count(obs::Counter::ServeWarmStarts);
  obs::flight("warm_solve", Applied.size());
  auto &G = Solver.context();
  const uint32_t OldN = Cur.Solution.numNodes();

  std::vector<NodeId> Touched;
  try {
    // 1. Install the prior fixpoint. The context was seeded with the
    // snapshot's representative table, so every old class's rep is
    // unchanged; constructor-inserted AddressOf facts are a subset of
    // the snapshot sets.
    for (NodeId V = 0; V != OldN; ++V) {
      if (Cur.Solution.repOf(V) != V)
        continue;
      NodeId Rep = G.find(V);
      for (uint32_t O : Cur.Solution.pointsTo(V))
        G.Pts[Rep].insert(G.Ctx, O);
    }

    // 2. Re-materialize every derived copy edge with one resolution pass
    // (fresh frontiers are empty, so each group resolves against its
    // node's full set). Push notifications are deliberately dropped:
    // propagation along a base-derived edge is a no-op at the fixpoint.
    const uint32_t N = FullCS.numNodes();
    for (NodeId V = 0; V != N; ++V)
      if (G.isRep(V) && !G.Derefs[V].empty())
        G.resolveComplex(V, [](NodeId) {});

    // 3. Apply the delta against the warm graph, recording exactly the
    // nodes whose state changed. New load/store constraints open fresh
    // deref groups with empty frontiers, so the re-solve resolves them
    // against the full set of their base node.
    for (const Constraint &C : Applied) {
      switch (C.Kind) {
      case ConstraintKind::AddressOf: {
        NodeId Rep = G.find(C.Dst);
        if (G.Pts[Rep].insert(G.Ctx, C.Src))
          Touched.push_back(Rep);
        break;
      }
      case ConstraintKind::Copy:
        if (G.addEdge(C.Src, C.Dst))
          Touched.push_back(G.find(C.Src));
        break;
      case ConstraintKind::Load: {
        NodeId Rep = G.find(C.Src);
        G.Derefs[Rep].emplace_back();
        G.Derefs[Rep].back().Loads.push_back({C.Dst, C.Offset});
        Touched.push_back(Rep);
        break;
      }
      case ConstraintKind::Store: {
        NodeId Rep = G.find(C.Dst);
        G.Derefs[Rep].emplace_back();
        G.Derefs[Rep].back().Stores.push_back({C.Src, C.Offset});
        Touched.push_back(Rep);
        break;
      }
      }
    }
    std::sort(Touched.begin(), Touched.end());
    Touched.erase(std::unique(Touched.begin(), Touched.end()),
                  Touched.end());
    R.SeededNodes = uint32_t(Touched.size());
    R.Stats.WarmSeededNodes += Touched.size();

    R.Solution = Solver.solveFrom(Touched);
    R.St = Status::okStatus();
    R.Outcome = SolveOutcome::Precise;
    R.Sound = true;
    // Fold: future deltas warm-start from this fixpoint.
    Cur.CS = std::move(FullCS);
    Cur.Solution = R.Solution;
  } catch (BudgetExceededError &E) {
    R.St = E.status();
    if (AllowFallback) {
      // The identical degradation a tripped cold solve takes: Steensgaard
      // over the full system with the *offline* seed map folded in.
      R.Solution = steensgaardFallback(FullCS, &Cur.SeedReps);
      R.Outcome = SolveOutcome::Fallback;
      R.Sound = true;
    } else {
      R.Solution = Solver.context().extractSolution();
      R.Outcome = SolveOutcome::Partial;
      R.Sound = false;
    }
    // Not folded: neither outcome is a least fixpoint to resume from.
  }
}

WarmStartResult
IncrementalSolver::resolve(const std::vector<Constraint> &Delta,
                           const SolveBudget &Budget,
                           const SolverOptions &Opts) {
  WarmStartResult R;
  if (!ValidSt.ok()) {
    R.St = ValidSt;
    R.Solution = PointsToSolution(Cur.CS.numNodes());
    return R;
  }
  const uint32_t N = Cur.CS.numNodes();
  for (const Constraint &C : Delta) {
    if (C.Dst >= N || C.Src >= N) {
      R.St = Status::invalidArgument(
          "delta constraint references unknown node (table has " +
          std::to_string(N) + " nodes)");
      R.Solution = PointsToSolution(N);
      return R;
    }
    if (C.Offset != 0 && C.Kind != ConstraintKind::Load &&
        C.Kind != ConstraintKind::Store) {
      R.St = Status::invalidArgument(
          "delta offset on a non-complex constraint");
      R.Solution = PointsToSolution(N);
      return R;
    }
    if (C.Offset > ConstraintSystem::MaxOffset) {
      R.St = Status::invalidArgument("delta offset out of range");
      R.Solution = PointsToSolution(N);
      return R;
    }
  }

  // Deduplicate against the base system; only genuinely new constraints
  // are applied to the warm graph.
  ConstraintSystem FullCS = Cur.CS;
  std::vector<Constraint> Applied;
  for (const Constraint &C : Delta) {
    size_t Before = FullCS.constraints().size();
    FullCS.add(C);
    if (FullCS.constraints().size() != Before)
      Applied.push_back(C);
  }

  if (Applied.empty() && N == Cur.Solution.numNodes()) {
    // Nothing to do; serve the held fixpoint.
    R.Solution = Cur.Solution;
    R.St = Status::okStatus();
    R.Outcome = SolveOutcome::Precise;
    R.Sound = true;
    return R;
  }
  R.NewConstraints = uint32_t(Applied.size());
  R.Stats.WarmNewConstraints += Applied.size();

  // Seed the union-find with the snapshot's full representative table,
  // extended by identity over nodes added since the base solve.
  std::vector<NodeId> Seeds(N);
  const uint32_t OldN = Cur.Solution.numNodes();
  for (NodeId V = 0; V != N; ++V)
    Seeds[V] = V < OldN ? Cur.Solution.repOf(V) : V;

  SolveGovernor Gov(Budget);
  SolverOptions GovernedOpts = Opts;
  GovernedOpts.Governor = &Gov;

  // The solver is built over the *base* system (Cur.CS): base AddressOf
  // and Copy facts are redundant with the installed fixpoint, and the
  // base load/store index is what the edge-rebuild pass resolves. The
  // delta is applied by hand inside warmSolve, which folds FullCS into
  // Cur.CS only after solveFrom returned.
  LcdSolver<BitmapPtsPolicy> Solver(Cur.CS, R.Stats, GovernedOpts, nullptr,
                                    &Seeds);
  warmSolve(R, Solver, FullCS, Applied, Budget.AllowFallback);
  // Warm re-solves bypass ag::solve(), so fold this run's stats into the
  // registry here (R.Stats is fresh per call — no double counting).
  if (obs::metricsEnabled())
    obs::MetricsRegistry::instance().absorb(R.Stats);
  return R;
}

WarmStartResult
IncrementalSolver::resolveSystem(const ConstraintSystem &DeltaCS,
                                 const SolveBudget &Budget,
                                 const SolverOptions &Opts) {
  obs::TierSpan Tier(obs::ReqTier::WarmStart);
  WarmStartResult R;
  if (!ValidSt.ok()) {
    R.St = ValidSt;
    R.Solution = PointsToSolution(Cur.CS.numNodes());
    return R;
  }
  const uint32_t N = Cur.CS.numNodes();
  if (DeltaCS.numNodes() < N) {
    R.St = Status::invalidArgument(
        "delta system has fewer nodes than the snapshot (" +
        std::to_string(DeltaCS.numNodes()) + " < " + std::to_string(N) +
        ")");
    R.Solution = PointsToSolution(N);
    return R;
  }
  for (NodeId V = 0; V != N; ++V) {
    if (DeltaCS.sizeOf(V) != Cur.CS.sizeOf(V) ||
        DeltaCS.isFunction(V) != Cur.CS.isFunction(V)) {
      R.St = Status::invalidArgument(
          "delta node table diverges from the snapshot at node " +
          std::to_string(V) +
          " (deltas may only extend the id space, not remap it)");
      R.Solution = PointsToSolution(N);
      return R;
    }
  }
  // Adopt new nodes, walking head-to-head (a sized head implies its
  // interior slots, whose sizeOf reports 1).
  NodeId V = N;
  while (V < DeltaCS.numNodes()) {
    uint32_t Size = DeltaCS.sizeOf(V);
    if (DeltaCS.isFunction(V)) {
      if (Size < ConstraintSystem::FunctionParamOffset) {
        R.St = Status::invalidArgument(
            "delta declares a function node too small for its slots");
        R.Solution = PointsToSolution(Cur.CS.numNodes());
        return R;
      }
      Cur.CS.addFunction(DeltaCS.nameOf(V),
                         Size - ConstraintSystem::FunctionParamOffset);
    } else {
      Cur.CS.addNode(DeltaCS.nameOf(V), Size);
    }
    for (uint32_t I = 1; I < Size; ++I)
      Cur.CS.setName(V + I, DeltaCS.nameOf(V + I));
    for (uint32_t I = 0; I != Size; ++I)
      Cur.SeedReps.push_back(V + I);
    V += Size;
  }
  WarmStartResult RR = resolve(DeltaCS.constraints(), Budget, Opts);
  if (RR.St.ok())
    Tier.markHit();
  return RR;
}
