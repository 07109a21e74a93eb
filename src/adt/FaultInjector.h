//===- FaultInjector.h - Deterministic fault injection ----------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide fault-injection harness the robustness tests use to force
/// budget trips and allocation-pressure failures at controlled moments.
/// Sites are instrumented in the solver governor (every cancellation point)
/// and in the tracked-allocation path (memAllocate). Tests arm a site with
/// a deterministic hit countdown, or probabilistically via the repo's Rng
/// so sequences are reproducible across runs and machines.
///
/// When no site is armed the per-hit cost is one relaxed atomic load, so
/// production paths pay essentially nothing.
///
/// Allocation faults never throw from inside an allocation (unwinding there
/// could leave a data structure half-linked); they *latch*, and the solver
/// governor converts the latched fault into a clean budget trip at its next
/// cancellation point.
///
//===----------------------------------------------------------------------===//

#ifndef AG_ADT_FAULTINJECTOR_H
#define AG_ADT_FAULTINJECTOR_H

#include "adt/Rng.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace ag {

/// Instrumented failure points.
enum class FaultSite : unsigned {
  GovernorCheck,  ///< The solver governor's periodic budget check.
  Allocation,     ///< Tracked allocation (memAllocate) pressure point.
  SnapshotWrite,  ///< Snapshot payload write (fires mid-write: torn file).
  SnapshotFsync,  ///< Snapshot fsync (data written but not durable).
  SnapshotRename, ///< Atomic publish rename (durable temp, unpublished).
  ServeRequest,   ///< Serve REPL request entry (per-request failure).
};

constexpr unsigned NumFaultSites = 6;

/// Returns a stable lower_snake name for \p Site (used by ptatool's
/// --inject-fault flag and in diagnostics).
inline const char *faultSiteName(FaultSite Site) {
  switch (Site) {
  case FaultSite::GovernorCheck:
    return "governor_check";
  case FaultSite::Allocation:
    return "allocation";
  case FaultSite::SnapshotWrite:
    return "snapshot_write";
  case FaultSite::SnapshotFsync:
    return "snapshot_fsync";
  case FaultSite::SnapshotRename:
    return "snapshot_rename";
  case FaultSite::ServeRequest:
    return "serve_request";
  }
  return "?";
}

/// Parses a fault-site name produced by faultSiteName. \returns false if
/// \p Name matches no site.
inline bool parseFaultSite(const std::string &Name, FaultSite &Out) {
  for (unsigned I = 0; I != NumFaultSites; ++I) {
    FaultSite Site = static_cast<FaultSite>(I);
    if (Name == faultSiteName(Site)) {
      Out = Site;
      return true;
    }
  }
  return false;
}

/// Deterministic fault-injection registry (singleton, like MemTracker).
class FaultInjector {
public:
  static FaultInjector &instance() {
    static FaultInjector Inj;
    return Inj;
  }

  /// Arms \p Site to fire exactly once, on the (\p Countdown + 1)-th hit
  /// after arming (0 fires on the next hit).
  void armAfter(FaultSite Site, uint64_t Countdown) {
    SiteState &S = Sites[index(Site)];
    S.Probability = 0;
    S.Countdown.store(Countdown, std::memory_order_relaxed);
    setArmed(Site, true);
  }

  /// Arms \p Site to fire independently on each hit with probability
  /// \p Probability, using a deterministic Rng stream seeded by \p Seed.
  void armRandom(FaultSite Site, double Probability, uint64_t Seed) {
    SiteState &S = Sites[index(Site)];
    S.Gen = Rng(Seed);
    S.Probability = Probability;
    setArmed(Site, true);
  }

  /// Disarms \p Site and clears any latched (pending) fault.
  void disarm(FaultSite Site) {
    setArmed(Site, false);
    Sites[index(Site)].Probability = 0;
    PendingAllocFault.store(false, std::memory_order_relaxed);
  }

  void disarmAll() {
    for (unsigned I = 0; I != NumFaultSites; ++I)
      disarm(static_cast<FaultSite>(I));
  }

  /// True if any site is armed (fast pre-test for instrumented paths).
  bool anyArmed() const {
    return ArmedMask.load(std::memory_order_relaxed) != 0;
  }

  /// Reports a hit at \p Site. \returns true when the fault fires.
  bool shouldFail(FaultSite Site) {
    if (!anyArmed())
      return false;
    return shouldFailSlow(Site);
  }

  /// Allocation-path hook: latches a pending fault instead of failing in
  /// place (see file comment). Called by memAllocate.
  void hitAllocation() {
    if (!anyArmed())
      return;
    if (shouldFailSlow(FaultSite::Allocation))
      PendingAllocFault.store(true, std::memory_order_relaxed);
  }

  /// Consumes a latched allocation fault. \returns true if one was pending.
  bool consumePendingAllocationFault() {
    if (!PendingAllocFault.load(std::memory_order_relaxed))
      return false;
    return PendingAllocFault.exchange(false, std::memory_order_relaxed);
  }

  /// Total hits observed at \p Site since process start (armed or not —
  /// counted only while armed, to keep the disarmed path free).
  uint64_t hits(FaultSite Site) const {
    return Sites[index(Site)].Hits.load(std::memory_order_relaxed);
  }

private:
  FaultInjector() = default;

  static unsigned index(FaultSite Site) {
    return static_cast<unsigned>(Site);
  }

  void setArmed(FaultSite Site, bool Armed) {
    unsigned Bit = 1u << index(Site);
    if (Armed)
      ArmedMask.fetch_or(Bit, std::memory_order_relaxed);
    else
      ArmedMask.fetch_and(~Bit, std::memory_order_relaxed);
  }

  bool shouldFailSlow(FaultSite Site) {
    unsigned Bit = 1u << index(Site);
    if (!(ArmedMask.load(std::memory_order_relaxed) & Bit))
      return false;
    SiteState &S = Sites[index(Site)];
    S.Hits.fetch_add(1, std::memory_order_relaxed);
    if (S.Probability > 0)
      return S.Gen.nextBool(S.Probability);
    // Countdown mode: fire exactly once when the counter hits zero.
    uint64_t C = S.Countdown.load(std::memory_order_relaxed);
    if (C > 0) {
      S.Countdown.store(C - 1, std::memory_order_relaxed);
      return false;
    }
    setArmed(Site, false);
    return true;
  }

  struct SiteState {
    std::atomic<uint64_t> Countdown{0};
    std::atomic<uint64_t> Hits{0};
    double Probability = 0;
    Rng Gen;
  };

  SiteState Sites[NumFaultSites];
  std::atomic<unsigned> ArmedMask{0};
  std::atomic<bool> PendingAllocFault{false};
};

} // namespace ag

#endif // AG_ADT_FAULTINJECTOR_H
