//===- ServeSession.h - Hardened serving REPL -------------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `ptatool serve` line-protocol session as a library, hardened for
/// production use and testable without a subprocess:
///
///  * Bounded line reading — a line longer than MaxLineBytes is consumed
///    (never buffered) and answered with a structured error; EOF mid-line
///    processes the partial line and ends the session cleanly; garbage
///    and unknown commands get structured errors and the session stays
///    alive. No input can assert, hang, or grow memory unboundedly.
///  * Synchronous — run() executes each line on the caller's thread
///    before reading the next. Admission control (a bounded queue that
///    sheds with `ERR overloaded`, a queue-wait deadline answered with
///    `ERR deadline`) lives in the Server front-end only (Server.h).
///  * Warm-start resolve with retry-with-backoff — the `resolve` command
///    re-solves with the delta under the configured budget, retrying with
///    a geometrically growing budget (fallback disallowed) before the
///    final attempt is allowed to degrade to the Steensgaard fallback.
///    A precise result is adopted for serving *and* as the next
///    warm-start base; a fallback result is served (sound) while the
///    precise base is kept for future resolve attempts.
///  * Self-check — the `check` command certifies the currently served
///    solution against its constraint system (src/check/).
///  * The FaultInjector site ServeRequest fails individual requests with
///    a structured error, proving request failures never kill a session.
///
/// Command dispatch is stream-agnostic and re-entrant: any number of
/// threads (the TCP Server's worker pool, tests) may call handleLine
/// concurrently, each buffering its own reply. The served identity —
/// QueryEngine plus the name table — lives in an immutable ServeState
/// behind an RCU-style shared_ptr epoch: readers copy the pointer once
/// per request and finish on that state even if `resolve` swaps in
/// a successor mid-request; writers build the new state off-path under
/// MutateMu and publish it with one pointer swap, so readers never
/// observe a half-built engine and never wait on a re-solve in
/// progress (the swap itself is a nanosecond StateMu critical section).
/// Each epoch owns the session's one answer cache (serve/AnswerCache.h):
/// a new epoch starts with an empty one, so nothing is ever invalidated.
///
//===----------------------------------------------------------------------===//

#ifndef AG_SERVE_SERVESESSION_H
#define AG_SERVE_SERVESESSION_H

#include "core/SolveBudget.h"
#include "demand/DemandTier.h"
#include "obs/EventLog.h"
#include "obs/RequestContext.h"
#include "serve/AnswerCache.h"
#include "serve/IncrementalSolver.h"
#include "serve/QueryEngine.h"
#include "serve/Snapshot.h"

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ag {

/// Serving-session tuning. Admission control (queue bound, deadline) is
/// the Server's (ServerOptions); the session itself never queues.
struct ServeOptions {
  /// Longest accepted request line; longer lines are drained and answered
  /// with an error (the session continues).
  size_t MaxLineBytes = 1 << 16;

  /// Base budget for one `resolve` attempt (scaled by ResolveBackoff on
  /// each retry). AllowFallback applies to the *final* attempt only;
  /// earlier attempts always disallow fallback so a retry can still
  /// reach the precise answer.
  SolveBudget ResolveBudget;

  /// Solver options (worklist policy, ablations) for `resolve`.
  SolverOptions ResolveOpts;

  /// Total resolve attempts (>= 1); attempts 1..N-1 retry precise with a
  /// growing budget, attempt N may degrade per ResolveBudget.
  unsigned ResolveAttempts = 3;

  /// Budget multiplier between attempts (> 1).
  double ResolveBackoff = 4.0;

  /// Demand mode only: per-query deduction budget (unlimited never
  /// escalates; a finite budget escalates to one exhaustive solve when a
  /// query's deduction trips it).
  SolveBudget QueryBudget;

  /// Demand mode only: solver kind for the escalation solve.
  SolverKind EscalationKind = SolverKind::LCDHCD;

  /// Wide-event sink: when set, every executed request (and every one a
  /// Server sheds or deadline-drops) publishes one "ag.events.v1"
  /// JSON line. Shared so the owner can outlive the session and flush.
  std::shared_ptr<obs::EventLog> Events;

  /// Slow-query threshold in milliseconds: a request slower than this is
  /// captured in the slow-query log (its wide event plus a FlightRecorder
  /// ring snapshot). Governor-tripped and deadline-dropped requests are
  /// captured regardless. <= 0 disables the latency trigger.
  double SlowMillis = 0;

  /// Slow-query log sink; null disables slow-query capture entirely
  /// (ptatool serve points this at stderr).
  std::ostream *SlowOut = nullptr;
};

/// Monotonic per-session counters (exposed via the `stats` command).
struct ServeCounters {
  uint64_t Requests = 0;        ///< Requests executed (any outcome).
  uint64_t Admitted = 0;        ///< Requests admitted by the Server.
  uint64_t Shed = 0;            ///< Requests rejected: Server queue full.
  uint64_t DeadlineDropped = 0; ///< Requests dropped: waited too long.
  uint64_t OversizedLines = 0;  ///< Lines over MaxLineBytes.
  uint64_t ResolveRetries = 0;  ///< Resolve attempts that tripped and retried.
  uint64_t InjectedFaults = 0;  ///< ServeRequest faults fired.
};

/// One serving session over a loaded snapshot (see file comment), or —
/// demand mode — over a raw constraint system with no solve up front:
/// queries answer through a DemandTier (memoized demand deduction,
/// escalation to one exhaustive solve on a budget trip), `resolve`
/// folds deltas into the tier, and whole-solution commands (`callgraph`,
/// `check`) or an escalation materialize an engine epoch over the
/// exhaustive solution, whose misses ask the demand memo before it.
class ServeSession {
public:
  explicit ServeSession(Snapshot Snap, ServeOptions Opts = ServeOptions());

  /// Demand mode: serve \p System without solving it first.
  explicit ServeSession(ConstraintSystem System,
                        ServeOptions Opts = ServeOptions());
  ~ServeSession();

  ServeSession(const ServeSession &) = delete;
  ServeSession &operator=(const ServeSession &) = delete;

  /// Runs the session until EOF or `quit`. Returns the process exit code
  /// (always 0 — load errors are rejected before a session exists, and
  /// no request can kill a running session).
  int run(std::istream &In, std::ostream &Out);

  /// Executes one request line (test entry; also the Server worker's core).
  /// Safe to call from any number of threads concurrently — the request
  /// runs on the serve state loaded at entry. \p ConnId tags the request's
  /// telemetry (wide events) with the originating connection; 0 = the
  /// stdin REPL / no connection.
  /// \returns false when the session should end (`quit`).
  bool handleLine(const std::string &Line, std::ostream &Out,
                  uint64_t ConnId = 0);

  /// The greeting line run() writes before serving; network front-ends
  /// send the same bytes per connection so a TCP client script and a
  /// stdin script produce identical transcripts.
  std::string bannerText() const;

  /// The session's tuning (front-ends need MaxLineBytes for their own
  /// bounded readers).
  const ServeOptions &options() const { return Opts; }

  /// How a front-end-owned request was dropped before dispatch.
  enum class DropKind {
    Overloaded, ///< Admission queue full.
    Deadline,   ///< Waited past the deadline.
    Shutdown,   ///< Admitted while the session/connection was closing.
  };

  /// Reader-side accounting for the front-end that owns the line reader
  /// and admission queue (the Server): a request answered without being
  /// executed still counts and still publishes one wide event with the
  /// drop status.
  void noteDroppedRequest(DropKind K, const std::string &Line,
                          const std::string &Reply, uint64_t WaitedNanos,
                          uint64_t ConnId = 0);
  /// Counts one request the Server admitted.
  void noteAdmitted();
  /// Counts one over-long line consumed by a front-end reader.
  void noteOversizedLine();
  /// The reply to a line over MaxLineBytes; run() and the Server's
  /// readers send the same bytes.
  std::string oversizedLineReply() const;

  ServeCounters counters() const;

  /// The snapshot currently being served (changes after a successful
  /// `resolve`). Snapshot mode only — demand mode has no snapshot until
  /// a whole-solution command materializes one. The reference stays valid
  /// until the next successful `resolve` swaps the serve state.
  const Snapshot &servingSnapshot() const { return state()->Engine->snapshot(); }

private:
  using NameTable = std::unordered_map<std::string, NodeId>;

  /// One serving epoch: the engine (null for a demand epoch) plus the
  /// name table and sizes of its constraint system, fixed at publish.
  /// Published via State; only its answer cache changes afterwards.
  struct ServeState {
    std::shared_ptr<QueryEngine> Engine;
    std::shared_ptr<const NameTable> Names;
    uint32_t NumNodes = 0;
    size_t NumConstraints = 0;
    /// Demand epoch: the tier's version() at publish. Only answers the
    /// tier gave at this version are cached.
    uint64_t TierVersion = 0;
    mutable AnswerCache Answers{AnswerCacheEntries};
  };
  using StatePtr = std::shared_ptr<const ServeState>;

  StatePtr state() const {
    std::lock_guard<std::mutex> Lock(StateMu);
    return State;
  }
  void publishState(StatePtr St) {
    std::lock_guard<std::mutex> Lock(StateMu);
    State = std::move(St);
  }
  /// Builds and publishes an epoch over \p Engine's system, or for a
  /// null \p Engine the tier's (MutateMu held or no reader yet), reusing
  /// \p Names when given.
  StatePtr publishEpoch(std::shared_ptr<QueryEngine> Engine,
                        std::shared_ptr<const NameTable> Names = nullptr);
  bool resolveNodeRef(const ServeState &St, const std::string &Tok,
                      std::ostream &Out, NodeId &Id) const;
  /// Demand mode: forces the tier's escalation, publishes a state with an
  /// Engine over the exhaustive solution (idempotent) and repoints \p St
  /// at it. Snapshot mode: no-op ok.
  Status materializeEngine(StatePtr &St);
  /// The one read path of pts, pointedby, callees, alias and aliasbatch:
  /// the epoch's answer cache, then on a miss the demand memo and the
  /// engine (engine epoch) or the tier (demand epoch). Once the tier has
  /// escalated, repoints \p St at the engine epoch first. \p B is the
  /// second alias operand.
  Status read(StatePtr &St, AnswerKind K, NodeId A, NodeId B, Answer &Out);
  /// A cache miss of read(): the answer from the epoch's sources.
  Status answerMiss(const ServeState &St, AnswerKind K, NodeId A, NodeId B,
                    Answer &Out);
  void cmdCheck(StatePtr &St, std::ostream &Out);
  void cmdResolve(const std::string &Path, std::ostream &Out);
  void cmdStats(const ServeState &St, std::ostream &Out, bool Json);

  /// Maps a REPL command to its latency/event class.
  static obs::CommandClass classifyCommand(const std::string &Cmd);
  /// The command dispatch proper (the old handleLine body); runs under an
  /// installed RequestScope with the reply buffered by the caller. \p St
  /// is the epoch the request executes on (check/callgraph may advance it
  /// to a freshly materialized one).
  bool dispatch(const std::string &Cmd, std::vector<std::string> &Args,
                std::ostream &Out, StatePtr &St);
  /// Closes out one executed request: latency quantiles, request/tier
  /// counters, the wide event, and slow-query capture.
  void finishRequest(obs::RequestScope &Scope, const std::string &Reply);
  /// Telemetry for requests answered without executing (queue shed,
  /// deadline drop): a wide event with \p StatusStr and, for deadline
  /// drops, a slow-query capture. \p WaitedNanos backdates the start so
  /// the event's micros reflect the time the client actually waited.
  void noteUnexecutedRequest(const std::string &Line, const char *StatusStr,
                             const std::string &Reply, uint64_t WaitedNanos,
                             bool CaptureSlow, uint64_t ConnId = 0);
  /// Appends one slow-query entry (wide event + flight ring snapshot).
  void writeSlowQuery(const std::string &EventLine);

  ServeOptions Opts;
  /// The current serving epoch (see ServeState). Swapped by cmdResolve /
  /// materializeEngine under MutateMu; readers copy the pointer under
  /// StateMu — a nanosecond critical section that never overlaps a
  /// mutation (writers build the new epoch off to the side and only
  /// take StateMu for the final pointer swap). A plain mutex instead of
  /// std::atomic<shared_ptr>: libstdc++'s _Sp_atomic trips TSan (its
  /// embedded spinlock is invisible to the race detector), and the
  /// epoch protocol must stay provably clean under TSan in CI.
  StatePtr State;
  mutable std::mutex StateMu;
  /// Demand mode's tier (null in snapshot mode); its memo also answers
  /// ahead of materialized engines. Internally thread-safe.
  std::unique_ptr<DemandTier> Tier;
  /// Warm-start base: always the newest *precise* snapshot (null when the
  /// session was started from a fallback snapshot). Guarded by MutateMu.
  std::unique_ptr<IncrementalSolver> Inc;
  /// Serializes state writers (`resolve`, demand materialization). Readers
  /// never take it.
  std::mutex MutateMu;

  struct AtomicCounters {
    std::atomic<uint64_t> Requests{0};
    std::atomic<uint64_t> Admitted{0};
    std::atomic<uint64_t> Shed{0};
    std::atomic<uint64_t> DeadlineDropped{0};
    std::atomic<uint64_t> OversizedLines{0};
    std::atomic<uint64_t> ResolveRetries{0};
    std::atomic<uint64_t> InjectedFaults{0};
  };
  mutable AtomicCounters C;
  /// Serializes slow-query entries (worker vs. reader-side drops).
  std::mutex SlowMu;
};

} // namespace ag

#endif // AG_SERVE_SERVESESSION_H
