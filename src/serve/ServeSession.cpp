//===- ServeSession.cpp - Hardened serving REPL ---------------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "serve/ServeSession.h"

#include "adt/FaultInjector.h"
#include "check/SolutionChecker.h"
#include "obs/FlightRecorder.h"
#include "obs/MetricsRegistry.h"
#include "obs/QuantileWindow.h"
#include "obs/TraceRecorder.h"
#include "solvers/Solve.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <vector>

using namespace ag;

namespace {

enum class LineStatus { Ok, TooLong, Eof };

/// Reads one '\n'-terminated line of at most \p Max bytes. An overlong
/// line is consumed to its end (or EOF) without buffering it, so a
/// hostile client cannot grow memory. A final unterminated line is
/// delivered as a normal line; Eof is only returned with no bytes read.
LineStatus readLineBounded(std::istream &In, std::string &Line, size_t Max) {
  Line.clear();
  using Traits = std::istream::traits_type;
  int C;
  while ((C = In.get()) != Traits::eof()) {
    if (C == '\n')
      return LineStatus::Ok;
    if (Line.size() >= Max) {
      while ((C = In.get()) != Traits::eof() && C != '\n') {
      }
      return LineStatus::TooLong;
    }
    Line.push_back(static_cast<char>(C));
  }
  return Line.empty() ? LineStatus::Eof : LineStatus::Ok;
}

/// Scales one budget limit; unlimited (0) stays unlimited.
uint64_t scaleLimit(uint64_t Limit, double Factor) {
  if (Limit == 0)
    return 0;
  double Scaled = static_cast<double>(Limit) * Factor;
  if (Scaled >= 1.8e19)
    return UINT64_MAX;
  return static_cast<uint64_t>(Scaled);
}

} // namespace

ServeSession::ServeSession(Snapshot Snap, ServeOptions O) : Opts(O) {
  // Only a precise snapshot can seed warm-start re-solves; a session over
  // a fallback snapshot still serves queries but rejects `resolve`.
  if (Snap.Outcome == SolveOutcome::Precise) {
    auto I = std::make_unique<IncrementalSolver>(Snap);
    if (I->valid().ok())
      Inc = std::move(I);
  }
  publishEpoch(std::make_shared<QueryEngine>(std::move(Snap)));
}

ServeSession::ServeSession(ConstraintSystem System, ServeOptions O) : Opts(O) {
  DemandTier::Options TO;
  TO.QueryBudget = O.QueryBudget;
  TO.EscalationKind = O.EscalationKind;
  TO.EscalationOpts = O.ResolveOpts;
  Tier = std::make_unique<DemandTier>(std::move(System), TO);
  publishEpoch(nullptr);
}

ServeSession::~ServeSession() = default;

ServeSession::StatePtr
ServeSession::publishEpoch(std::shared_ptr<QueryEngine> Engine,
                           std::shared_ptr<const NameTable> Names) {
  const ConstraintSystem &CS = Engine ? Engine->snapshot().CS : Tier->system();
  if (!Names) {
    // First occurrence wins; interior slots have generated names like
    // "a[1]" and resolve too.
    auto Built = std::make_shared<NameTable>();
    for (NodeId V = 0; V != CS.numNodes(); ++V)
      if (const std::string &Name = CS.nameOf(V); !Name.empty())
        Built->emplace(Name, V);
    Names = std::move(Built);
  }
  auto St = std::make_shared<ServeState>();
  St->Engine = std::move(Engine);
  St->Names = std::move(Names);
  St->NumNodes = CS.numNodes();
  St->NumConstraints = CS.constraints().size();
  if (Tier)
    St->TierVersion = Tier->version();
  publishState(St);
  return St;
}

Status ServeSession::materializeEngine(StatePtr &St) {
  if (St->Engine)
    return Status::okStatus();
  std::lock_guard<std::mutex> Lock(MutateMu);
  // Another request may have materialized while we waited for the lock;
  // adopt its epoch instead of escalating twice. Cur stays live past the
  // check: every publish happens under MutateMu, so it is the current
  // epoch for the whole escalation below.
  StatePtr Cur = state();
  if (Cur->Engine) {
    St = std::move(Cur);
    return Status::okStatus();
  }
  if (Status S = Tier->escalateNow(); !S.ok())
    return S;
  Snapshot FS;
  FS.CS = Tier->system();
  FS.Solution = *Tier->escalationSolution();
  FS.Kind = Tier->escalationKind();
  FS.Repr = PtsRepr::Bitmap;
  FS.Outcome = Tier->escalationOutcome();
  FS.Sound = true;
  // Escalation never changes the node table, but the CALLER's epoch can
  // predate a demand resolve that did: pair the engine with the current
  // epoch's table so delta-added nodes stay resolvable by name.
  St = publishEpoch(std::make_shared<QueryEngine>(std::move(FS)), Cur->Names);
  return Status::okStatus();
}

Status ServeSession::read(StatePtr &St, AnswerKind K, NodeId A, NodeId B,
                          Answer &Out) {
  // After an escalation the engine epoch over its solution serves.
  if (!St->Engine && Tier->escalated())
    if (Status S = materializeEngine(St); !S.ok())
      return S;
  static constexpr const char *SpanNames[] = {
      "query.points_to", "query.pointed_by", "query.callees", "query.alias"};
  obs::TraceSpan Span(SpanNames[unsigned(K)], "serve");
  obs::count(obs::Counter::ServeQueries);
  // An engine epoch keys set-dependent answers by canonical set id;
  // pointedBy depends on the object itself.
  auto Canon = [&](NodeId V) {
    return St->Engine && K != AnswerKind::PointedBy ? St->Engine->canonId(V)
                                                    : V;
  };
  const uint64_t Key =
      answerKey(K, Canon(A), K == AnswerKind::Alias ? Canon(B) : 0);
  if (std::optional<Answer> Hit = probeAnswer(St->Answers, Key)) {
    Out = std::move(*Hit);
    return Status::okStatus();
  }
  if (Status S = answerMiss(*St, K, A, B, Out); !S.ok())
    return S;
  // A demand epoch keeps only what deduction over its own system gave:
  // not an escalation's answer (possibly an over-approximate Fallback),
  // nor one a concurrent resolve already changed the system under.
  if (St->Engine || Tier->version() == St->TierVersion)
    St->Answers.put(Key, Out);
  return Status::okStatus();
}

Status ServeSession::answerMiss(const ServeState &St, AnswerKind K, NodeId A,
                                NodeId B, Answer &Out) {
  QueryEngine *Engine = St.Engine.get();
  if (!Engine) {
    switch (K) {
    case AnswerKind::PointsTo:
      return Tier->pointsTo(A, Out.List);
    case AnswerKind::PointedBy:
      return Tier->pointedBy(A, Out.List);
    case AnswerKind::Callees:
      return Tier->callees(A, Out.List);
    case AnswerKind::Alias:
      return Tier->alias(A, B, Out.Verdict);
    }
  }
  // Certified demand classes answer ahead of the snapshot solution.
  switch (K) {
  case AnswerKind::PointsTo:
    if (!Tier || !Tier->tryMemoPointsTo(A, Out.List))
      Out.List = Engine->pointsTo(A);
    break;
  case AnswerKind::PointedBy:
    // The reverse-index build is whole-solution work, like the escalation
    // that made a demand session's engine: QueryBudget (one deduction's
    // budget) does not govern it.
    return Engine->pointedBy(A, Out.List);
  case AnswerKind::Callees:
    Out.List = Engine->callees(A);
    break;
  case AnswerKind::Alias:
    if (!Tier || !Tier->tryMemoAlias(A, B, Out.Verdict))
      Out.Verdict = Engine->alias(A, B);
    break;
  }
  return Status::okStatus();
}

ServeCounters ServeSession::counters() const {
  ServeCounters S;
  S.Requests = C.Requests.load(std::memory_order_relaxed);
  S.Admitted = C.Admitted.load(std::memory_order_relaxed);
  S.Shed = C.Shed.load(std::memory_order_relaxed);
  S.DeadlineDropped = C.DeadlineDropped.load(std::memory_order_relaxed);
  S.OversizedLines = C.OversizedLines.load(std::memory_order_relaxed);
  S.ResolveRetries = C.ResolveRetries.load(std::memory_order_relaxed);
  S.InjectedFaults = C.InjectedFaults.load(std::memory_order_relaxed);
  return S;
}

bool ServeSession::resolveNodeRef(const ServeState &St, const std::string &Tok,
                                  std::ostream &Out, NodeId &Id) const {
  if (!Tok.empty() &&
      Tok.find_first_not_of("0123456789") == std::string::npos) {
    errno = 0;
    uint64_t Raw = std::strtoull(Tok.c_str(), nullptr, 10);
    if (errno != ERANGE && Raw < St.NumNodes) {
      Id = static_cast<NodeId>(Raw);
      return true;
    }
  } else if (auto It = St.Names->find(Tok); It != St.Names->end()) {
    Id = It->second;
    return true;
  }
  Out << "error: unknown node '" << Tok << "'\n";
  return false;
}

namespace {

void printIdList(std::ostream &Out, const char *What, const std::string &Ref,
                 const QueryEngine::IdList &List) {
  obs::noteResultSize(List->size());
  Out << What << "(" << Ref << "):";
  for (NodeId V : *List)
    Out << " " << V;
  Out << "\n";
}

} // namespace

void ServeSession::cmdCheck(StatePtr &St, std::ostream &Out) {
  // Certifying needs the whole solution: escalate and check that.
  if (Status S = materializeEngine(St); !S.ok()) {
    Out << "error: " << S.toString() << "\n";
    return;
  }
  const Snapshot &Snap = St->Engine->snapshot();
  if (Snap.Outcome == SolveOutcome::Partial) {
    // A partial solution is not a fixed point by construction; say so
    // without burning a full closure pass.
    Out << "check: not a fixed point (partial snapshot)\n";
    return;
  }
  CheckReport R = checkSolution(Snap.CS, Snap.Solution);
  Out << "check: " << R.summary(Snap.CS) << "\n";
}

void ServeSession::cmdResolve(const std::string &Path, std::ostream &Out) {
  // The whole mutation runs under MutateMu: concurrent resolves serialize,
  // while readers keep answering on the epoch they loaded at entry.
  std::lock_guard<std::mutex> Lock(MutateMu);
  if (Tier) {
    // Demand mode: fold the delta into the tier (invalidates touched
    // memo entries) and return to the demand path — any materialized
    // snapshot no longer matches the system.
    ConstraintSystem DeltaCS;
    if (Status St = ConstraintSystem::loadFromFile(Path, DeltaCS); !St.ok()) {
      Out << "error: " << St.toString() << "\n";
      return;
    }
    size_t Before = Tier->system().constraints().size();
    if (Status St = Tier->resolveDelta(DeltaCS); !St.ok()) {
      Out << "error: " << St.toString() << "\n";
      return;
    }
    publishEpoch(nullptr);
    Out << "resolved: demand delta adopted, new constraints "
        << (Tier->system().constraints().size() - Before) << ", nodes "
        << Tier->numNodes() << ", memo retained "
        << Tier->memoCompleteCount() << " classes\n";
    return;
  }
  if (!Inc) {
    Out << "error: resolve requires a precise snapshot\n";
    return;
  }
  ConstraintSystem DeltaCS;
  if (Status St = ConstraintSystem::loadFromFile(Path, DeltaCS); !St.ok()) {
    Out << "error: " << St.toString() << "\n";
    return;
  }

  const unsigned Attempts = Opts.ResolveAttempts > 0 ? Opts.ResolveAttempts : 1;
  const double Backoff = Opts.ResolveBackoff > 1.0 ? Opts.ResolveBackoff : 1.0;
  WarmStartResult R;
  unsigned Attempt = 1;
  for (;; ++Attempt) {
    const bool Final = Attempt >= Attempts;
    double Factor = std::pow(Backoff, static_cast<double>(Attempt - 1));
    SolveBudget B = Opts.ResolveBudget;
    if (B.TimeoutSeconds > 0)
      B.TimeoutSeconds *= Factor;
    B.MaxPropagations = scaleLimit(B.MaxPropagations, Factor);
    B.MaxEdges = scaleLimit(B.MaxEdges, Factor);
    // Earlier attempts must not degrade: a fallback here would discard a
    // precise answer a bigger budget can still reach.
    B.AllowFallback = Final && Opts.ResolveBudget.AllowFallback;

    R = Inc->resolveSystem(DeltaCS, B, Opts.ResolveOpts);
    if (R.Outcome == SolveOutcome::Precise || R.Outcome == SolveOutcome::Failed)
      break;
    if (Final)
      break;
    C.ResolveRetries.fetch_add(1, std::memory_order_relaxed);
    obs::flight("serve_resolve_retry", Attempt);
  }

  switch (R.Outcome) {
  case SolveOutcome::Failed:
    Out << "error: " << R.St.toString() << "\n";
    return;
  case SolveOutcome::Precise: {
    // Adopt for serving; the IncrementalSolver already folded the delta
    // and stays the warm-start base for the next resolve. Readers on the
    // old epoch finish there; the swap is one release store.
    publishEpoch(std::make_shared<QueryEngine>(Inc->snapshot()));
    Out << "resolved: outcome precise, attempt " << Attempt << "/" << Attempts
        << ", new constraints " << R.NewConstraints << ", seeded "
        << R.SeededNodes << ", total |pts| "
        << Inc->solution().totalPointsToSize() << "\n";
    return;
  }
  case SolveOutcome::Fallback: {
    // Serve the sound fallback, but keep the precise base in Inc so a
    // later resolve (or a retry with a bigger budget) can still warm-start.
    // The full system is the warm-start base plus the delta: resolveSystem
    // already adopted the delta's new nodes, and re-adding the delta's
    // constraints dedups against the base exactly as the solve did.
    Snapshot FS;
    FS.CS = Inc->system();
    for (const Constraint &Con : DeltaCS.constraints())
      FS.CS.add(Con);
    FS.SeedReps = Inc->snapshot().SeedReps;
    FS.Solution = std::move(R.Solution);
    FS.Kind = Inc->snapshot().Kind;
    FS.Repr = Inc->snapshot().Repr;
    FS.Outcome = SolveOutcome::Fallback;
    FS.Sound = true;
    publishEpoch(std::make_shared<QueryEngine>(std::move(FS)));
    Out << "resolved: outcome fallback after " << Attempt << " attempts ("
        << R.St.toString() << "); serving sound fallback\n";
    return;
  }
  case SolveOutcome::Partial:
    Out << "resolved: outcome partial after " << Attempt << " attempts ("
        << R.St.toString() << "); solution not adopted\n";
    return;
  }
}

void ServeSession::cmdStats(const ServeState &St, std::ostream &Out,
                            bool Json) {
  // Quantile gauges are refreshed at observation points only (here, the
  // OpenMetrics endpoint, teardown), never per request.
  obs::LatencyTracker::instance().publishGauges();
  if (Json) {
    // The same deterministic document --metrics-out writes, so a live
    // session and an offline run are diffable.
    Out << obs::MetricsRegistry::instance().renderJson();
    return;
  }
  CacheStats S = St.Answers.stats();
  Out << "stats: hits " << S.Hits << " misses " << S.Misses << " evictions "
      << S.Evictions << " entries " << S.Entries << "\n";
  if (Tier)
    Out << "demand: memo_complete " << Tier->memoCompleteCount()
        << " escalated " << (Tier->escalated() ? "yes" : "no") << "\n";
  ServeCounters SC = counters();
  Out << "serve: requests " << SC.Requests << " admitted " << SC.Admitted
      << " shed " << SC.Shed << " deadline " << SC.DeadlineDropped
      << " oversized " << SC.OversizedLines << " resolve_retries "
      << SC.ResolveRetries << " injected_faults " << SC.InjectedFaults
      << "\n";
  Out << obs::MetricsRegistry::instance().renderText();
}

obs::CommandClass ServeSession::classifyCommand(const std::string &Cmd) {
  if (Cmd == "pts" || Cmd == "pointedby" || Cmd == "callees" ||
      Cmd == "alias" || Cmd == "aliasbatch" || Cmd == "callgraph")
    return obs::CommandClass::Query;
  if (Cmd == "resolve")
    return obs::CommandClass::Mutate;
  return obs::CommandClass::Admin;
}

void ServeSession::writeSlowQuery(const std::string &EventLine) {
  obs::count(obs::Counter::ServeSlowQueries);
  obs::flight("serve_slow_query");
  if (!Opts.SlowOut)
    return;
  // The flight snapshot carries its own epoch_ms anchor line, so the
  // entry correlates with wide-event ts_ms fields by subtraction.
  std::string Dump = obs::FlightRecorder::instance().dumpText();
  std::lock_guard<std::mutex> Lock(SlowMu);
  *Opts.SlowOut << "slow-query: " << EventLine << "\n"
                << "flight snapshot:\n"
                << Dump;
  Opts.SlowOut->flush();
}

void ServeSession::finishRequest(obs::RequestScope &Scope,
                                 const std::string &Reply) {
  obs::RequestContext &Ctx = Scope.ctx();
  Ctx.ReplyBytes = Reply.size();
  if (Reply.compare(0, 6, "error:") == 0 || Reply.compare(0, 3, "ERR") == 0)
    Ctx.StatusStr = "error";
  uint64_t Micros = Scope.finish();
  obs::LatencyTracker::instance().record(Ctx.Class, Micros);
  obs::count(obs::Counter::ServeRequests);
  obs::observe(obs::Hist::ServeRequestMicros, Micros);
  static constexpr obs::Counter TierCounters[] = {
      obs::Counter::ServeTierLru,        obs::Counter::ServeTierMemo,
      obs::Counter::ServeTierDemand,     obs::Counter::ServeTierEscalation,
      obs::Counter::ServeTierSnapshot,   obs::Counter::ServeTierWarmStart,
  };
  for (unsigned I = 0; I != unsigned(obs::ReqTier::NumTiers); ++I)
    if (Ctx.TierEntered[I])
      obs::count(TierCounters[I]);

  bool Slow =
      (Opts.SlowMillis > 0 && Micros > uint64_t(Opts.SlowMillis * 1000.0)) ||
      Ctx.GovernorTrips > 0;
  if (!Opts.Events && !Slow)
    return;
  std::string EventLine = obs::renderWideEvent(Ctx);
  if (Opts.Events)
    Opts.Events->publish(std::string(EventLine));
  if (Slow)
    writeSlowQuery(EventLine);
}

void ServeSession::noteUnexecutedRequest(const std::string &Line,
                                         const char *StatusStr,
                                         const std::string &Reply,
                                         uint64_t WaitedNanos,
                                         bool CaptureSlow, uint64_t ConnId) {
  std::istringstream Iss(Line);
  std::string Cmd;
  if (!(Iss >> Cmd))
    return; // Blank lines are not requests even when dropped.
  obs::RequestScope Scope(Cmd.c_str(), classifyCommand(Cmd));
  obs::RequestContext &Ctx = Scope.ctx();
  Ctx.ConnId = ConnId;
  // Backdate admission so the event's micros show the client-visible wait.
  Ctx.StartNanos =
      Ctx.StartNanos > WaitedNanos ? Ctx.StartNanos - WaitedNanos : 0;
  Ctx.StatusStr = StatusStr;
  Ctx.ReplyBytes = Reply.size();
  uint64_t Micros = Scope.finish();
  // Dropped requests are exactly the tail latency an operator needs to
  // see, so they feed the quantiles like executed ones.
  obs::LatencyTracker::instance().record(Ctx.Class, Micros);
  if (!Opts.Events && !CaptureSlow)
    return;
  std::string EventLine = obs::renderWideEvent(Ctx);
  if (Opts.Events)
    Opts.Events->publish(std::string(EventLine));
  if (CaptureSlow)
    writeSlowQuery(EventLine);
}

void ServeSession::noteDroppedRequest(DropKind K, const std::string &Line,
                                      const std::string &Reply,
                                      uint64_t WaitedNanos, uint64_t ConnId) {
  const char *StatusStr = "overloaded";
  bool CaptureSlow = false;
  switch (K) {
  case DropKind::Overloaded:
    C.Shed.fetch_add(1, std::memory_order_relaxed);
    break;
  case DropKind::Deadline:
    C.DeadlineDropped.fetch_add(1, std::memory_order_relaxed);
    StatusStr = "deadline";
    // A deadline trip is always slow-query material: the wide event and
    // the flight snapshot share one trace id, so the drop correlates
    // across both logs.
    CaptureSlow = true;
    break;
  case DropKind::Shutdown:
    StatusStr = "shutdown";
    break;
  }
  noteUnexecutedRequest(Line, StatusStr, Reply, WaitedNanos, CaptureSlow,
                        ConnId);
}

void ServeSession::noteAdmitted() {
  C.Admitted.fetch_add(1, std::memory_order_relaxed);
}

void ServeSession::noteOversizedLine() {
  C.OversizedLines.fetch_add(1, std::memory_order_relaxed);
}

std::string ServeSession::oversizedLineReply() const {
  return "error: line too long (max " + std::to_string(Opts.MaxLineBytes) +
         " bytes)\n";
}

std::string ServeSession::bannerText() const {
  StatePtr St = state();
  std::ostringstream Oss;
  Oss << "serving " << St->NumNodes << " nodes, " << St->NumConstraints
      << " constraints"
      << (Tier ? " (demand mode)" : "") << " (type 'help')\n";
  return Oss.str();
}

bool ServeSession::handleLine(const std::string &Line, std::ostream &Out,
                              uint64_t ConnId) {
  std::istringstream Iss(Line);
  std::string Cmd;
  if (!(Iss >> Cmd))
    return true; // Blank line: not a request, no telemetry.
  std::vector<std::string> Args;
  for (std::string Tok; Iss >> Tok;)
    Args.push_back(Tok);

  // Buffer the reply through one choke point so its size and error status
  // can be captured; dispatch never writes Out directly.
  obs::RequestScope Scope(Cmd.c_str(), classifyCommand(Cmd));
  Scope.ctx().ConnId = ConnId;
  // The request's epoch: loaded once, kept alive for the whole request
  // even if a concurrent resolve publishes a successor.
  StatePtr St = state();
  std::ostringstream Buf;
  bool Continue = dispatch(Cmd, Args, Buf, St);
  const std::string Reply = Buf.str();
  Out << Reply;
  finishRequest(Scope, Reply);
  return Continue;
}

bool ServeSession::dispatch(const std::string &Cmd,
                            std::vector<std::string> &Args,
                            std::ostream &Out, StatePtr &St) {
  C.Requests.fetch_add(1, std::memory_order_relaxed);
  if (FaultInjector::instance().shouldFail(FaultSite::ServeRequest)) {
    C.InjectedFaults.fetch_add(1, std::memory_order_relaxed);
    obs::flight("serve_request_fault");
    Out << "ERR internal: injected fault on request\n";
    return true; // A failed request never kills the session.
  }

  if (Cmd == "quit")
    return false;
  if (Cmd == "help") {
    Out << "commands: pts <v> | alias <p> <q> | aliasbatch <p> <q> "
           "[<p> <q>]... | pointedby <o> | callees <v> | callgraph | "
           "check | resolve <delta.cons> | stats | trace | sleep <ms> | "
           "help | quit\n"
           "node refs are decimal ids or node names\n";
    return true;
  }
  if (Cmd == "stats") {
    if (Args.size() == 1 && Args[0] == "json") {
      cmdStats(*St, Out, /*Json=*/true);
      return true;
    }
    if (!Args.empty()) {
      Out << "error: stats takes no argument or 'json'\n";
      return true;
    }
    cmdStats(*St, Out, /*Json=*/false);
    return true;
  }
  if (Cmd == "trace") {
    obs::FlightRecorder &FR = obs::FlightRecorder::instance();
    Out << "flight recorder: " << FR.totalRecorded() << " events total\n";
    Out << FR.dumpText();
    return true;
  }
  if (Cmd == "callgraph") {
    // The call graph reads every base's full set: whole-solution work.
    if (Status S = materializeEngine(St); !S.ok()) {
      Out << "error: " << S.toString() << "\n";
      return true;
    }
    const auto &Edges = St->Engine->callGraph();
    obs::noteResultSize(Edges.size());
    Out << "callgraph: " << Edges.size() << " edges\n";
    for (const auto &[Base, Callee] : Edges)
      Out << "edge " << Base << " " << Callee << "\n";
    return true;
  }
  if (Cmd == "check") {
    cmdCheck(St, Out);
    return true;
  }
  if (Cmd == "resolve") {
    if (Args.size() != 1) {
      Out << "error: resolve expects one constraint file\n";
      return true;
    }
    cmdResolve(Args[0], Out);
    return true;
  }
  if (Cmd == "sleep") {
    // Test/ops aid: occupies the worker so queue overload is reproducible.
    uint64_t Ms = 0;
    if (Args.size() != 1 ||
        Args[0].find_first_not_of("0123456789") != std::string::npos ||
        Args[0].empty()) {
      Out << "error: sleep expects milliseconds\n";
      return true;
    }
    errno = 0;
    Ms = std::strtoull(Args[0].c_str(), nullptr, 10);
    if (errno == ERANGE || Ms > 10000) {
      Out << "error: sleep is capped at 10000 ms\n";
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
    Out << "slept " << Ms << " ms\n";
    return true;
  }
  if (Cmd == "pts" || Cmd == "pointedby" || Cmd == "callees") {
    if (Args.size() != 1) {
      Out << "error: " << Cmd << " expects one node\n";
      return true;
    }
    NodeId V = InvalidNode;
    if (!resolveNodeRef(*St, Args[0], Out, V))
      return true;
    AnswerKind K = Cmd == "pts"         ? AnswerKind::PointsTo
                   : Cmd == "pointedby" ? AnswerKind::PointedBy
                                        : AnswerKind::Callees;
    Answer A;
    if (Status S = read(St, K, V, 0, A); !S.ok()) {
      Out << "error: " << S.toString() << "\n";
      return true;
    }
    printIdList(Out, Cmd.c_str(), Args[0], A.List);
    return true;
  }
  if (Cmd == "alias" || Cmd == "aliasbatch") {
    const bool Batch = Cmd == "aliasbatch";
    if (Batch ? Args.empty() || Args.size() % 2 != 0 : Args.size() != 2) {
      Out << (Batch ? "error: aliasbatch expects an even number of nodes\n"
                    : "error: alias expects two nodes\n");
      return true;
    }
    std::vector<std::pair<NodeId, NodeId>> Pairs;
    for (size_t I = 0; I < Args.size(); I += 2) {
      NodeId P = InvalidNode, Q = InvalidNode;
      if (!resolveNodeRef(*St, Args[I], Out, P) ||
          !resolveNodeRef(*St, Args[I + 1], Out, Q))
        return true;
      Pairs.emplace_back(P, Q);
    }
    if (Batch)
      obs::observe(obs::Hist::QueryBatch, Pairs.size());
    std::string Verdicts;
    for (const auto &[P, Q] : Pairs) {
      Answer A;
      if (Status S = read(St, AnswerKind::Alias, P, Q, A); !S.ok()) {
        Out << "error: " << S.toString() << "\n";
        return true;
      }
      Verdicts += A.Verdict ? " yes" : " no";
    }
    obs::noteResultSize(Pairs.size());
    if (Batch)
      Out << "aliasbatch:" << Verdicts << "\n";
    else
      Out << "alias(" << Args[0] << "," << Args[1] << ") =" << Verdicts
          << "\n";
    return true;
  }
  Out << "error: unknown command '" << Cmd << "' (type 'help')\n";
  return true;
}

int ServeSession::run(std::istream &In, std::ostream &Out) {
  Out << bannerText();
  Out.flush();

  std::string Line;
  for (;;) {
    LineStatus LS = readLineBounded(In, Line, Opts.MaxLineBytes);
    if (LS == LineStatus::Eof)
      return 0;
    if (LS == LineStatus::TooLong) {
      noteOversizedLine();
      Out << oversizedLineReply();
      continue;
    }
    if (!handleLine(Line, Out))
      return 0;
  }
}
