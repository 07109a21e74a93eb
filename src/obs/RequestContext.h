//===- RequestContext.h - Request-scoped telemetry --------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Request-scoped telemetry for the serve path. A RequestContext is created
/// per REPL request by ServeSession and made visible to the layers beneath
/// it (QueryEngine, DemandTier, IncrementalSolver, governor charge points)
/// through a thread-local pointer — each request executes wholly on one
/// thread, so no locking is needed and the instrumentation sites stay
/// allocation-free. When no request is active every helper below is a
/// single thread-local load plus a branch, so solver-only workloads pay
/// nothing.
///
/// The context accumulates the request's full tier path: which tiers were
/// entered (answer cache, demand memo, governed demand deduction, escalation,
/// snapshot scan, warm-start re-solve), which of them produced the answer,
/// how many microseconds each cost, and what the governor charged
/// (propagations, edges, trips). ServeSession renders the finished context
/// as one "ag.events.v1" wide-event JSON line (renderWideEvent) and feeds
/// its latency into the per-command-class quantile windows.
///
//===----------------------------------------------------------------------===//

#ifndef AG_OBS_REQUESTCONTEXT_H
#define AG_OBS_REQUESTCONTEXT_H

#include "obs/TraceRecorder.h"

#include <cstdint>
#include <cstring>
#include <string>

namespace ag {
namespace obs {

/// Serving tiers a request can traverse, cheapest first. Mirrors the
/// escalation ladder documented in DESIGN.md §13/§14.
enum class ReqTier : unsigned {
  Lru,        ///< The serve epoch's answer cache.
  Memo,       ///< DemandTier's certified memo table.
  Demand,     ///< Governed demand deduction fixpoint.
  Escalation, ///< Exhaustive solve after a demand budget trip.
  Snapshot,   ///< Direct scan of the snapshot solution.
  WarmStart,  ///< Incremental warm-start re-solve.
  NumTiers,
};

/// Coarse command classes for latency quantiles: reads, mutations of the
/// served system, and administrative commands.
enum class CommandClass : unsigned {
  Query,  ///< pts / pointedby / alias / aliasbatch / callees / callgraph.
  Mutate, ///< resolve (constraint deltas + warm re-solve).
  Admin,  ///< stats / trace / check / help and everything else.
  NumClasses,
};

const char *reqTierName(ReqTier T);
const char *commandClassName(CommandClass C);

/// Everything one request learns about itself. Plain data; zero-initialised
/// members are the "didn't happen" encoding throughout.
struct RequestContext {
  uint64_t TraceId = 0;
  uint64_t SpanId = 0;
  uint64_t ConnId = 0;   ///< Originating connection (TCP Server); 0 = none.
  char Command[24] = {}; ///< Sanitised first token of the request line.
  CommandClass Class = CommandClass::Admin;
  uint64_t StartNanos = 0;    ///< obs clock (nowNanos) at admission.
  uint64_t EndNanos = 0;      ///< obs clock when finished; 0 while live.
  uint64_t DeadlineNanos = 0; ///< Absolute obs-clock deadline; 0 = none.

  uint32_t TierEntered[unsigned(ReqTier::NumTiers)] = {};
  uint32_t TierHits[unsigned(ReqTier::NumTiers)] = {};
  uint64_t TierMicros[unsigned(ReqTier::NumTiers)] = {};

  uint64_t BudgetPropagations = 0; ///< Governor-charged propagations.
  uint64_t BudgetEdges = 0;        ///< Governor-charged edge inserts.
  uint32_t GovernorTrips = 0;
  uint8_t TripCode = 0; ///< StatusCode of the last trip, if any.

  uint64_t ResultSize = 0; ///< Elements in the answer (set size, pairs...).
  uint64_t ReplyBytes = 0;
  const char *StatusStr = "ok"; ///< Static string; "ok", "error", ...

  /// Copies \p Cmd into Command, keeping only [A-Za-z0-9_.-] so the wide
  /// event can embed it without JSON escaping.
  void setCommand(const char *Cmd);

  /// Wall-clock milliseconds of EndNanos (or StartNanos while live),
  /// anchored on the shared observability epoch.
  uint64_t wallMillis() const;
};

/// The thread's active request, or nullptr. Set by RequestScope only.
inline thread_local RequestContext *CurrentRequest = nullptr;

inline RequestContext *currentRequest() { return CurrentRequest; }
inline bool requestActive() { return CurrentRequest != nullptr; }

/// Allocates a fresh process-unique trace id (never 0).
uint64_t nextTraceId();

/// RAII: installs a RequestContext as the thread's current request for the
/// duration of one ServeSession request. Stamps trace/span ids and the
/// start timestamp; restores the previous context on destruction (nesting
/// is harmless, inner requests simply shadow).
class RequestScope {
public:
  RequestScope(const char *Cmd, CommandClass Class,
               uint64_t DeadlineNanos = 0) {
    Ctx.TraceId = nextTraceId();
    Ctx.SpanId = Ctx.TraceId ^ 0x9e3779b97f4a7c15ull;
    Ctx.setCommand(Cmd);
    Ctx.Class = Class;
    Ctx.StartNanos = nowNanos();
    Ctx.DeadlineNanos = DeadlineNanos;
    Prev = CurrentRequest;
    CurrentRequest = &Ctx;
  }
  ~RequestScope() { CurrentRequest = Prev; }
  RequestScope(const RequestScope &) = delete;
  RequestScope &operator=(const RequestScope &) = delete;

  RequestContext &ctx() { return Ctx; }

  /// Stamps EndNanos and returns the request's latency in microseconds,
  /// clamped to >= 1 so sub-microsecond cache hits still register.
  uint64_t finish() {
    Ctx.EndNanos = nowNanos();
    uint64_t Micros = (Ctx.EndNanos - Ctx.StartNanos) / 1000;
    return Micros ? Micros : 1;
  }

private:
  RequestContext Ctx;
  RequestContext *Prev = nullptr;
};

/// RAII tier attribution: counts entry on construction, accumulates the
/// section's microseconds on destruction, and records a hit when the tier
/// produced the answer. No-op without an active request.
class TierSpan {
public:
  explicit TierSpan(ReqTier T) : T(T), Req(CurrentRequest) {
    if (Req) {
      Start = nowNanos();
      ++Req->TierEntered[unsigned(T)];
    }
  }
  ~TierSpan() {
    if (Req) {
      Req->TierMicros[unsigned(T)] += (nowNanos() - Start) / 1000;
      if (Hit)
        ++Req->TierHits[unsigned(T)];
    }
  }
  TierSpan(const TierSpan &) = delete;
  TierSpan &operator=(const TierSpan &) = delete;

  /// Marks the tier as having produced the answer.
  void markHit() { Hit = true; }

private:
  ReqTier T;
  RequestContext *Req;
  uint64_t Start = 0;
  bool Hit = false;
};

/// Instant-probe attribution (cache/memo lookups too cheap to time):
/// counts an entry and, when \p Hit, a hit.
inline void noteTierProbe(ReqTier T, bool Hit) {
  if (RequestContext *Req = CurrentRequest) {
    ++Req->TierEntered[unsigned(T)];
    if (Hit)
      ++Req->TierHits[unsigned(T)];
  }
}

inline void noteResultSize(uint64_t N) {
  if (RequestContext *Req = CurrentRequest)
    Req->ResultSize += N;
}

/// Governor charge publication (called from ~SolveGovernor): folds the
/// governor's propagation/edge totals into the active request.
inline void noteGovernorCharges(uint64_t Propagations, uint64_t Edges) {
  if (RequestContext *Req = CurrentRequest) {
    Req->BudgetPropagations += Propagations;
    Req->BudgetEdges += Edges;
  }
}

/// Trip attribution (called from obs::onGovernorTrip).
inline void noteGovernorTrip(uint8_t Code) {
  if (RequestContext *Req = CurrentRequest) {
    ++Req->GovernorTrips;
    Req->TripCode = Code;
  }
}

/// Renders \p Ctx as one "ag.events.v1" wide-event JSON line (no trailing
/// newline). Only tiers that were entered appear in the "tiers" object;
/// "trip_code" appears only after a governor trip and "conn" only for
/// requests that arrived over a network connection. See DESIGN.md §15 for
/// the field reference.
std::string renderWideEvent(const RequestContext &Ctx);

/// Formats a trace/span id the way renderWideEvent does (16 hex digits).
std::string formatTraceId(uint64_t Id);

} // namespace obs
} // namespace ag

#endif // AG_OBS_REQUESTCONTEXT_H
