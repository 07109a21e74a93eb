//===- SolveBudget.h - Resource budgets for solver runs ---------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver governor: a SolveBudget describes the resources one solve may
/// consume (wall-clock deadline, tracked-memory cap, propagation and edge
/// ceilings, a cooperative cancellation token), and a SolveGovernor enforces
/// it from inside the solver hot loops. Andersen-style closure is cubic in
/// the worst case, so a production service must bound every solve: when a
/// budget trips, the governor throws BudgetExceededError, the solver unwinds
/// cleanly, and solveGoverned() degrades to the unification-based
/// Steensgaard analysis (a cheap, sound over-approximation) or reports the
/// partial state with an explicit "unsound" flag.
///
/// Enforcement model: ceilings on propagations/edges are exact (checked on
/// every counted operation — one integer compare). Deadline, memory cap,
/// cancellation, and injected faults are checked at *cancellation points*:
/// once every SolveBudget::CheckIntervalOps counted operations, so the
/// steady-state overhead is one pointer test plus one increment per
/// operation and a clock read only every interval.
///
//===----------------------------------------------------------------------===//

#ifndef AG_CORE_SOLVEBUDGET_H
#define AG_CORE_SOLVEBUDGET_H

#include "adt/FaultInjector.h"
#include "adt/MemTracker.h"
#include "adt/Status.h"
#include "obs/Obs.h"
#include "obs/RequestContext.h"

#include <atomic>
#include <chrono>
#include <memory>

namespace ag {

class PointsToSolution;

/// Cooperative cancellation handle. Copies share one flag; the default-
/// constructed token has no flag and can never be cancelled (no allocation
/// on the un-governed path).
class CancelToken {
public:
  CancelToken() = default;

  /// Creates a token that can actually be cancelled.
  static CancelToken create() {
    CancelToken T;
    T.Flag = std::make_shared<std::atomic<bool>>(false);
    return T;
  }

  /// Requests cancellation; the solve unwinds at its next check point.
  /// No-op on a default-constructed token.
  void requestCancel() const {
    if (Flag)
      Flag->store(true, std::memory_order_relaxed);
  }

  bool cancelRequested() const {
    return Flag && Flag->load(std::memory_order_relaxed);
  }

private:
  std::shared_ptr<std::atomic<bool>> Flag;
};

/// Resource limits for one solve. Zero means "unlimited" for every numeric
/// field, so the default budget never trips.
struct SolveBudget {
  /// Wall-clock limit in seconds, measured from governor construction
  /// (i.e. solve start). <= 0 disables the deadline.
  double TimeoutSeconds = 0;

  /// Cap on MemTracker's joint live bytes (process-wide tracked memory,
  /// the same quantity peakBytesJoint() records). 0 disables.
  uint64_t MaxMemoryBytes = 0;

  /// Ceiling on points-to propagations (the paper's dominant operation —
  /// the natural "step" budget). 0 disables.
  uint64_t MaxPropagations = 0;

  /// Ceiling on copy edges added to the online constraint graph. 0
  /// disables. (BLQ keeps edges as one BDD relation and does not count
  /// individual insertions; bound it by time/steps/memory instead.)
  uint64_t MaxEdges = 0;

  /// Cooperative cancellation; default token never fires.
  CancelToken Cancel;

  /// Degrade to Steensgaard when the precise solve trips. When false, the
  /// caller instead receives the partial (unsound) state.
  bool AllowFallback = true;

  /// Counted operations between full checks (deadline/memory/cancel).
  /// Lower values tighten reaction latency at the cost of clock reads.
  uint32_t CheckIntervalOps = 1024;

  /// True if nothing is limited and no cancellation is possible, i.e. the
  /// governor could never trip.
  bool unlimited() const {
    return TimeoutSeconds <= 0 && MaxMemoryBytes == 0 &&
           MaxPropagations == 0 && MaxEdges == 0 &&
           !Cancel.cancelRequested();
  }
};

/// Thrown by the governor when a budget trips. Solvers are exception-safe:
/// the throw happens only at counted operations and cancellation points,
/// never mid-mutation of a data structure. The dispatch layer attaches the
/// partial solution (best effort) before the error reaches solveGoverned.
class BudgetExceededError {
public:
  explicit BudgetExceededError(Status St) : St(std::move(St)) {}

  const Status &status() const { return St; }

  /// Best-effort snapshot of the interrupted solve (may stay null).
  const std::shared_ptr<PointsToSolution> &partial() const {
    return Partial;
  }
  void setPartial(std::shared_ptr<PointsToSolution> P) {
    Partial = std::move(P);
  }

private:
  Status St;
  std::shared_ptr<PointsToSolution> Partial;
};

/// Enforces one SolveBudget over one solve. Solvers hold a pointer to the
/// governor (null when un-governed) and report counted operations; the
/// governor throws BudgetExceededError the moment a limit is exceeded.
class SolveGovernor {
public:
  explicit SolveGovernor(const SolveBudget &Budget) : Budget(Budget) {
    if (Budget.TimeoutSeconds > 0) {
      HasDeadline = true;
      Deadline = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(Budget.TimeoutSeconds));
    }
    // Check immediately on the first counted operation, so an already-
    // expired deadline or pre-cancelled token trips before real work.
    OpsUntilCheck = 0;
  }

  /// Charge publication: whatever this governor counted is folded into the
  /// active request's telemetry (serve path; no-op elsewhere). Running in
  /// the destructor covers every exit — normal completion, budget-trip
  /// unwind, and escalation — without touching the solver hot loops.
  ~SolveGovernor() {
    obs::noteGovernorCharges(Propagations, Edges);
  }
  SolveGovernor(const SolveGovernor &) = delete;
  SolveGovernor &operator=(const SolveGovernor &) = delete;

  /// A generic cancellation point (worklist pops, DFS visits, BDD rounds).
  /// Contributes to the periodic deadline/memory/cancel check.
  void onStep() { tick(); }

  /// Counts one points-to propagation against the step ceiling.
  void onPropagation() {
    if (++Propagations > Budget.MaxPropagations &&
        Budget.MaxPropagations != 0)
      trip(Status::stepLimit("propagation budget of " +
                             std::to_string(Budget.MaxPropagations) +
                             " exceeded"));
    tick();
  }

  /// Counts one copy-edge insertion against the edge ceiling.
  void onEdgeAdded() {
    if (++Edges > Budget.MaxEdges && Budget.MaxEdges != 0)
      trip(Status::stepLimit("edge budget of " +
                             std::to_string(Budget.MaxEdges) + " exceeded"));
    tick();
  }

  /// Forces a full budget check right now (deadline, memory, cancellation,
  /// injected faults). Solvers call this at coarse boundaries (per solver
  /// round) in addition to the periodic checks.
  void checkpoint() {
    OpsUntilCheck = Budget.CheckIntervalOps;

    // The latched-fault check must not be gated on anyArmed(): a one-shot
    // countdown fault disarms its site when it fires, leaving the latch
    // set with nothing armed. (Still cheap: one relaxed load when clear.)
    FaultInjector &Inj = FaultInjector::instance();
    if (Inj.consumePendingAllocationFault())
      trip(Status::memoryLimit("injected allocation failure"));
    if (Inj.anyArmed() && Inj.shouldFail(FaultSite::GovernorCheck))
      trip(Status::faultInjected("governor check fault armed"));
    if (Budget.Cancel.cancelRequested())
      trip(Status::cancelled("cancellation requested"));
    if (HasDeadline && std::chrono::steady_clock::now() >= Deadline)
      trip(Status::deadlineExceeded(
          "wall-clock budget of " +
          std::to_string(Budget.TimeoutSeconds) + " s exceeded"));
    if (Budget.MaxMemoryBytes != 0 &&
        MemTracker::instance().currentBytesTotal() > Budget.MaxMemoryBytes)
      trip(Status::memoryLimit(
          "tracked memory exceeds cap of " +
          std::to_string(Budget.MaxMemoryBytes) + " bytes"));
  }

  uint64_t propagations() const { return Propagations; }
  uint64_t edgesAdded() const { return Edges; }
  const SolveBudget &budget() const { return Budget; }

  /// The status of the first trip, Ok if the budget never tripped.
  const Status &tripStatus() const { return TripSt; }

private:
  void tick() {
    if (OpsUntilCheck == 0)
      checkpoint();
    else
      --OpsUntilCheck;
  }

  [[noreturn]] void trip(Status St) {
    if (TripSt.ok())
      TripSt = St;
    obs::onGovernorTrip(St);
    throw BudgetExceededError(std::move(St));
  }

  SolveBudget Budget;
  std::chrono::steady_clock::time_point Deadline{};
  bool HasDeadline = false;
  uint64_t Propagations = 0;
  uint64_t Edges = 0;
  uint32_t OpsUntilCheck = 0;
  Status TripSt;
};

} // namespace ag

#endif // AG_CORE_SOLVEBUDGET_H
