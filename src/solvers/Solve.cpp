//===- Solve.cpp - One-call solver entry point ----------------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "solvers/Solve.h"

#include "adt/UnionFind.h"
#include "core/HcdSolver.h"
#include "core/LcdSolver.h"
#include "solvers/BlqSolver.h"
#include "solvers/HtSolver.h"
#include "solvers/NaiveSolver.h"
#include "solvers/PkhSolver.h"
#include "solvers/SteensgaardSolver.h"

#include "obs/FlightRecorder.h"
#include "obs/MetricsRegistry.h"
#include "obs/TraceRecorder.h"

#include <cassert>
#include <exception>

using namespace ag;

const char *ag::solverKindName(SolverKind Kind) {
  switch (Kind) {
  case SolverKind::Naive:
    return "Naive";
  case SolverKind::HT:
    return "HT";
  case SolverKind::PKH:
    return "PKH";
  case SolverKind::BLQ:
    return "BLQ";
  case SolverKind::LCD:
    return "LCD";
  case SolverKind::HCD:
    return "HCD";
  case SolverKind::HTHCD:
    return "HT+HCD";
  case SolverKind::PKHHCD:
    return "PKH+HCD";
  case SolverKind::BLQHCD:
    return "BLQ+HCD";
  case SolverKind::LCDHCD:
    return "LCD+HCD";
  }
  // Reachable from printing externally-supplied values; never UB.
  return "?";
}

const char *ag::solveOutcomeName(SolveOutcome Outcome) {
  switch (Outcome) {
  case SolveOutcome::Precise:
    return "precise";
  case SolveOutcome::Fallback:
    return "fallback";
  case SolveOutcome::Partial:
    return "partial";
  case SolveOutcome::Failed:
    return "failed";
  }
  return "?";
}

namespace {

/// Runs \p Solver to completion; if the governor aborts it, attaches the
/// solver's partial state to the in-flight error (best effort) so
/// solveGoverned can hand it to callers that disallow fallback.
template <typename SolverT> PointsToSolution runSolver(SolverT &&Solver) {
  try {
    return Solver.solve();
  } catch (BudgetExceededError &E) {
    if (!E.partial())
      E.setPartial(std::make_shared<PointsToSolution>(
          Solver.context().extractSolution()));
    throw;
  }
}

template <typename Policy>
PointsToSolution dispatch(const ConstraintSystem &CS, SolverKind Kind,
                          SolverStats &Stats, const SolverOptions &Opts,
                          const HcdResult *Hcd,
                          const std::vector<NodeId> *Seeds) {
  switch (Kind) {
  case SolverKind::Naive:
    return runSolver(NaiveSolver<Policy>(CS, Stats, Opts, Seeds));
  case SolverKind::HT:
    return runSolver(HtSolver<Policy>(CS, Stats, Opts, nullptr, Seeds));
  case SolverKind::HTHCD:
    return runSolver(HtSolver<Policy>(CS, Stats, Opts, Hcd, Seeds));
  case SolverKind::PKH:
    return runSolver(PkhSolver<Policy>(CS, Stats, Opts, nullptr, Seeds));
  case SolverKind::PKHHCD:
    return runSolver(PkhSolver<Policy>(CS, Stats, Opts, Hcd, Seeds));
  case SolverKind::LCD:
    return runSolver(LcdSolver<Policy>(CS, Stats, Opts, nullptr, Seeds));
  case SolverKind::LCDHCD:
    return runSolver(LcdSolver<Policy>(CS, Stats, Opts, Hcd, Seeds));
  case SolverKind::HCD: {
    // solve() supplies the offline result for every HCD kind; recompute
    // defensively rather than assert if a caller reaches here without it.
    HcdResult Own;
    if (!Hcd) {
      Own = runHcdOffline(CS);
      Hcd = &Own;
    }
    return runSolver(HcdSolver<Policy>(CS, Stats, Opts, *Hcd, Seeds));
  }
  case SolverKind::BLQ:
  case SolverKind::BLQHCD:
    break; // Handled by the caller (not templated on Policy).
  }
  // Invalid kinds are rejected at the entry points; returning the empty
  // solution here keeps release builds defined if one slips through.
  assert(false && "unreachable solver dispatch");
  return PointsToSolution(CS.numNodes());
}

/// Folds the stats accrued during one solve() into the MetricsRegistry on
/// scope exit — including budget-tripped unwinds, so a partial run's work
/// is still visible in the registry. Absorbs the *delta* against the entry
/// snapshot: callers may hand solve() a struct that already carries counts
/// from earlier runs (warm-start sessions merge into one struct).
class RunMetricsScope {
public:
  explicit RunMetricsScope(SolverStats &S)
      : S(S), Before(S), BaseExceptions(std::uncaught_exceptions()) {}
  ~RunMetricsScope() {
    if (!obs::metricsEnabled())
      return;
    uint64_t BeforeVals[SolverStats::NumFields];
    size_t I = 0;
    Before.forEachField(
        [&](const char *, uint64_t V) { BeforeVals[I++] = V; });
    SolverStats Delta;
    I = 0;
    uint64_t AfterVals[SolverStats::NumFields];
    size_t J = 0;
    S.forEachField([&](const char *, uint64_t V) { AfterVals[J++] = V; });
    Delta.forEachField(
        [&](const char *, uint64_t &V) { V = AfterVals[I] - BeforeVals[I]; ++I; });
    obs::MetricsRegistry &R = obs::MetricsRegistry::instance();
    R.absorb(Delta);
    if (std::uncaught_exceptions() == BaseExceptions)
      R.add(obs::Counter::SolverRuns);
  }

private:
  SolverStats &S;
  SolverStats Before;
  int BaseExceptions;
};

} // namespace

/// A seed-merged variable carries no constraints of its own, so
/// Steensgaard alone would give it an empty set; uniting each seed class
/// with the Steensgaard classes of its members and taking the union of
/// member sets keeps every node's set a superset of what any
/// inclusion-based solver would compute for the seeded system.
PointsToSolution ag::steensgaardFallback(const ConstraintSystem &CS,
                                         const std::vector<NodeId> *SeedReps) {
  obs::TraceSpan Span("steensgaard_fallback", "solve");
  obs::count(obs::Counter::SolverFallbacks);
  obs::flight("steensgaard_fallback");
  PointsToSolution Steens = solveSteensgaard(CS);
  if (!SeedReps)
    return Steens;

  const uint32_t N = CS.numNodes();
  UnionFind Classes;
  Classes.grow(N);
  for (NodeId V = 0; V != N; ++V) {
    Classes.unite(V, (*SeedReps)[V]);
    Classes.unite(V, Steens.repOf(V));
  }
  PointsToSolution Out(N);
  // Pass 1 (all nodes still self-mapped): union member sets per class.
  for (NodeId V = 0; V != N; ++V)
    Out.mutableSet(Classes.find(V)).unionWith(Steens.pointsTo(V));
  // Pass 2: point members at their class representative.
  for (NodeId V = 0; V != N; ++V) {
    NodeId R = Classes.find(V);
    if (R != V)
      Out.setRep(V, R);
  }
  Out.internShared();
  return Out;
}

PointsToSolution ag::solve(const ConstraintSystem &CS, SolverKind Kind,
                           PtsRepr Repr, SolverStats *StatsOut,
                           const SolverOptions &Opts,
                           const std::vector<NodeId> *SeedReps,
                           const HcdResult *Hcd) {
  SolverStats LocalStats;
  SolverStats &Stats = StatsOut ? *StatsOut : LocalStats;

  if (!isValidSolverKind(Kind)) {
    // Defined behaviour for out-of-range kinds; use solveGoverned to get
    // a structured error instead.
    assert(false && "invalid solver kind");
    return PointsToSolution(CS.numNodes());
  }

  // The solve span is named after the kind (solverKindName returns string
  // literals, which is what the recorder stores).
  obs::PhaseSpan Span(solverKindName(Kind), "solve");
  obs::flight("solve_begin", uint64_t(Kind), CS.numNodes());
  RunMetricsScope Metrics(Stats);

  // Run (or adopt) the HCD offline analysis and fold its variable-only
  // SCCs into the seed representatives.
  HcdResult OwnedHcd;
  std::vector<NodeId> ComposedSeeds;
  const std::vector<NodeId> *Seeds = SeedReps;
  if (usesHcd(Kind)) {
    if (!Hcd) {
      OwnedHcd = runHcdOffline(CS);
      Hcd = &OwnedHcd;
    }
    Stats.NodesCollapsed += Hcd->NumPreMerged;
    if (SeedReps)
      ComposedSeeds = composeReps(*SeedReps, Hcd->PreMerge);
    else
      ComposedSeeds = Hcd->PreMerge;
    Seeds = &ComposedSeeds;
  }

  if (Kind == SolverKind::BLQ || Kind == SolverKind::BLQHCD) {
    // BLQ attaches its own partial snapshot (from the BDD relation) before
    // rethrowing, so it bypasses the runSolver wrapper.
    BlqSolver Blq(CS, Stats, Opts, Kind == SolverKind::BLQHCD ? Hcd : nullptr,
                  Seeds);
    return Blq.solve();
  }

  if (Repr == PtsRepr::Bitmap)
    return dispatch<BitmapPtsPolicy>(CS, Kind, Stats, Opts, Hcd, Seeds);
  return dispatch<BddPtsPolicy>(CS, Kind, Stats, Opts, Hcd, Seeds);
}

SolveResult ag::solveGoverned(const ConstraintSystem &CS, SolverKind Kind,
                              const SolveBudget &Budget, PtsRepr Repr,
                              SolverStats *StatsOut,
                              const SolverOptions &Opts,
                              const std::vector<NodeId> *SeedReps,
                              const HcdResult *Hcd) {
  SolveResult R;
  if (!isValidSolverKind(Kind)) {
    R.St = Status::invalidArgument(
        "unknown solver kind " +
        std::to_string(static_cast<int>(Kind)));
    R.Solution = PointsToSolution(CS.numNodes());
    return R;
  }
  if (SeedReps && SeedReps->size() != CS.numNodes()) {
    R.St = Status::invalidArgument("seed representative table has " +
                                   std::to_string(SeedReps->size()) +
                                   " entries for " +
                                   std::to_string(CS.numNodes()) + " nodes");
    R.Solution = PointsToSolution(CS.numNodes());
    return R;
  }

  SolveGovernor Governor(Budget);
  SolverOptions GovernedOpts = Opts;
  GovernedOpts.Governor = &Governor;
  try {
    R.Solution =
        solve(CS, Kind, Repr, StatsOut, GovernedOpts, SeedReps, Hcd);
    R.Outcome = SolveOutcome::Precise;
    R.Sound = true;
    return R;
  } catch (BudgetExceededError &E) {
    R.St = E.status();
    if (Budget.AllowFallback) {
      R.Solution = steensgaardFallback(CS, SeedReps);
      R.Outcome = SolveOutcome::Fallback;
      R.Sound = true;
    } else {
      R.Solution = E.partial() ? std::move(*E.partial())
                               : PointsToSolution(CS.numNodes());
      R.Outcome = SolveOutcome::Partial;
      R.Sound = false;
    }
    return R;
  }
}
