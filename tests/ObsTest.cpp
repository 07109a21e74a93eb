//===- ObsTest.cpp - Observability layer tests ----------------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer's contracts: trace spans are well-nested per
/// track and render as valid Chrome trace_event JSON; trace event counts
/// agree with the metrics registry's counters on the same run; metrics
/// JSON is bit-identical across repeated single-threaded runs of every
/// solver kind and stable on the scheduling-invariant counter subset at
/// four threads; disabled channels record nothing; the flight ring wraps;
/// the governor-trip hook counts, marks and records.
///
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"
#include "obs/MetricsRegistry.h"
#include "obs/Obs.h"
#include "obs/TraceRecorder.h"

#include "adt/MemTracker.h"
#include "adt/Status.h"
#include "constraints/OfflineVariableSubstitution.h"
#include "serve/ServeSession.h"
#include "solvers/Solve.h"
#include "workload/WorkloadGen.h"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace ag;

namespace {

//===----------------------------------------------------------------------===//
// Minimal JSON validator
//===----------------------------------------------------------------------===//

/// Recursive-descent acceptor for the JSON grammar — no values built, just
/// "does the whole string parse". Enough to catch unbalanced braces, bad
/// escapes, trailing commas and truncation in the rendered documents.
class JsonCursor {
public:
  explicit JsonCursor(const std::string &S)
      : P(S.data()), End(S.data() + S.size()) {}

  bool acceptDocument() {
    skipWs();
    if (!acceptValue())
      return false;
    skipWs();
    return P == End;
  }

private:
  void skipWs() {
    while (P != End &&
           (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }
  bool acceptLiteral(const char *Lit) {
    size_t N = std::strlen(Lit);
    if (size_t(End - P) < N || std::strncmp(P, Lit, N) != 0)
      return false;
    P += N;
    return true;
  }
  bool acceptString() {
    if (P == End || *P != '"')
      return false;
    ++P;
    while (P != End && *P != '"') {
      if (*P == '\\') {
        ++P;
        if (P == End)
          return false;
      }
      ++P;
    }
    if (P == End)
      return false;
    ++P; // Closing quote.
    return true;
  }
  bool acceptNumber() {
    const char *Start = P;
    if (P != End && *P == '-')
      ++P;
    while (P != End && ((*P >= '0' && *P <= '9') || *P == '.' ||
                        *P == 'e' || *P == 'E' || *P == '+' || *P == '-'))
      ++P;
    return P != Start;
  }
  bool acceptValue() {
    skipWs();
    if (P == End)
      return false;
    switch (*P) {
    case '{':
      return acceptCompound('}', /*Keyed=*/true);
    case '[':
      return acceptCompound(']', /*Keyed=*/false);
    case '"':
      return acceptString();
    case 't':
      return acceptLiteral("true");
    case 'f':
      return acceptLiteral("false");
    case 'n':
      return acceptLiteral("null");
    default:
      return acceptNumber();
    }
  }
  bool acceptCompound(char Close, bool Keyed) {
    ++P; // Opening bracket.
    skipWs();
    if (P != End && *P == Close) {
      ++P;
      return true;
    }
    while (true) {
      if (Keyed) {
        skipWs();
        if (!acceptString())
          return false;
        skipWs();
        if (P == End || *P != ':')
          return false;
        ++P;
      }
      if (!acceptValue())
        return false;
      skipWs();
      if (P == End)
        return false;
      if (*P == Close) {
        ++P;
        return true;
      }
      if (*P != ',')
        return false;
      ++P;
    }
  }

  const char *P;
  const char *End;
};

bool isValidJson(const std::string &S) {
  return JsonCursor(S).acceptDocument();
}

//===----------------------------------------------------------------------===//
// Fixture and workload
//===----------------------------------------------------------------------===//

/// Saves the process-wide channel bits, silences every channel, and clears
/// the global stores around each test so tests compose in one binary.
class ObsTest : public testing::Test {
protected:
  void SetUp() override {
    Saved = obs::ChannelBits.load(std::memory_order_relaxed);
    obs::ChannelBits.store(0, std::memory_order_relaxed);
    obs::TraceRecorder::instance().clear();
    obs::MetricsRegistry::instance().reset();
    obs::FlightRecorder::instance().clear();
  }
  void TearDown() override {
    obs::TraceRecorder::instance().clear();
    obs::MetricsRegistry::instance().reset();
    obs::FlightRecorder::instance().clear();
    obs::ChannelBits.store(Saved, std::memory_order_relaxed);
  }

  uint32_t Saved = 0;
};

/// The deterministic test workload: the smallest paper suite at scale
/// 0.05, OVS-reduced exactly as the bench harness solves it.
struct ObsWorkload {
  ConstraintSystem Reduced;
  std::vector<NodeId> Rep;
};

const ObsWorkload &workload() {
  static const ObsWorkload W = [] {
    ObsWorkload Out;
    ConstraintSystem Raw = generateBenchmark(paperSuites(0.05).front());
    OvsResult Ovs = runOfflineVariableSubstitution(Raw);
    Out.Reduced = std::move(Ovs.Reduced);
    Out.Rep = std::move(Ovs.Rep);
    return Out;
  }();
  return W;
}

/// Per-track span nesting check over a recorded event snapshot: every 'E'
/// must match the innermost open 'B' on its track, and every track must
/// end with an empty stack.
void expectWellNested(const std::vector<obs::TraceEvent> &Events) {
  std::map<uint32_t, std::vector<const obs::TraceEvent *>> Stacks;
  for (const obs::TraceEvent &E : Events) {
    if (E.Phase == 'B') {
      Stacks[E.Tid].push_back(&E);
    } else if (E.Phase == 'E') {
      auto &Stack = Stacks[E.Tid];
      ASSERT_FALSE(Stack.empty())
          << "E \"" << E.Name << "\" with no open span on track " << E.Tid;
      EXPECT_STREQ(Stack.back()->Name, E.Name)
          << "mismatched span close on track " << E.Tid;
      Stack.pop_back();
    }
  }
  for (const auto &[Tid, Stack] : Stacks)
    EXPECT_TRUE(Stack.empty())
        << Stack.size() << " unclosed span(s) on track " << Tid;
}

size_t countBegins(const std::vector<obs::TraceEvent> &Events,
                   const char *Name) {
  size_t N = 0;
  for (const obs::TraceEvent &E : Events)
    if (E.Phase == 'B' && std::strcmp(E.Name, Name) == 0)
      ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, SpansWellNestedAndJsonValidSequential) {
  obs::setTraceEnabled(true);
  const ObsWorkload &W = workload();
  for (SolverKind Kind : AllSolverKinds)
    (void)solve(W.Reduced, Kind, PtsRepr::Bitmap, nullptr, SolverOptions(),
                &W.Rep);

  auto Events = obs::TraceRecorder::instance().events();
  ASSERT_FALSE(Events.empty());
  expectWellNested(Events);
  // One solve span per kind.
  size_t SolveSpans = 0;
  for (SolverKind Kind : AllSolverKinds)
    SolveSpans += countBegins(Events, solverKindName(Kind));
  EXPECT_EQ(SolveSpans, std::size(AllSolverKinds));

  std::string Json = obs::TraceRecorder::instance().renderJson();
  EXPECT_TRUE(isValidJson(Json)) << Json.substr(0, 400);
  EXPECT_NE(Json.find("\"ag.trace.v1\""), std::string::npos);
}

TEST_F(ObsTest, SpansWellNestedAcrossWorkerTracks) {
  // Two solves on two threads at once (serve runs solver work on Server
  // worker threads): each thread's spans must nest on its own track.
  obs::setTraceEnabled(true);
  const ObsWorkload &W = workload();
  auto Solve = [&W] {
    (void)solve(W.Reduced, SolverKind::LCDHCD, PtsRepr::Bitmap, nullptr,
                SolverOptions(), &W.Rep);
  };
  std::thread A(Solve), B(Solve);
  A.join();
  B.join();

  auto Events = obs::TraceRecorder::instance().events();
  expectWellNested(Events);
  std::map<uint32_t, size_t> SolveTracks;
  for (const obs::TraceEvent &E : Events)
    if (E.Phase == 'B' && std::strcmp(E.Name, "LCD+HCD") == 0)
      ++SolveTracks[E.Tid];
  EXPECT_EQ(SolveTracks.size(), 2u);
  EXPECT_TRUE(isValidJson(obs::TraceRecorder::instance().renderJson()));
}

TEST_F(ObsTest, TraceEventCountsMatchRegistryCounters) {
  obs::setTraceEnabled(true);
  obs::setMetricsEnabled(true);
  auto &Reg = obs::MetricsRegistry::instance();
  const ObsWorkload &W = workload();

  // Sequential LCD: every cycle-detection attempt opens one tarjan span.
  (void)solve(W.Reduced, SolverKind::LCD, PtsRepr::Bitmap, nullptr,
              SolverOptions(), &W.Rep);
  auto Events = obs::TraceRecorder::instance().events();
  EXPECT_EQ(countBegins(Events, "tarjan"),
            Reg.counterValue(obs::Counter::SolverCycleDetectAttempts));
  EXPECT_EQ(Reg.counterValue(obs::Counter::SolverRuns), 1u);
}

TEST_F(ObsTest, QuerySpansMatchServeCounter) {
  obs::setTraceEnabled(true);
  obs::setMetricsEnabled(true);
  auto &Reg = obs::MetricsRegistry::instance();
  const ObsWorkload &W = workload();

  Snapshot Snap;
  Snap.Solution = solve(W.Reduced, SolverKind::LCDHCD, PtsRepr::Bitmap,
                        nullptr, SolverOptions(), &W.Rep);
  Snap.CS = W.Reduced;
  Snap.SeedReps = W.Rep;
  ServeSession Session(std::move(Snap));

  obs::TraceRecorder::instance().clear();
  Reg.reset();
  const uint32_t N = W.Reduced.numNodes();
  std::ostringstream Replies;
  for (NodeId V = 0; V != 20 && V != N; ++V) {
    const std::string Id = std::to_string(V);
    Session.handleLine("pts " + Id, Replies);
    Session.handleLine("alias " + Id + " " + std::to_string((V + 1) % N),
                       Replies);
    Session.handleLine("pointedby " + Id, Replies);
  }

  size_t QuerySpans = 0;
  for (const obs::TraceEvent &E : obs::TraceRecorder::instance().events())
    if (E.Phase == 'B' && std::strncmp(E.Name, "query.", 6) == 0)
      ++QuerySpans;
  EXPECT_GT(QuerySpans, 0u);
  EXPECT_EQ(QuerySpans, Reg.counterValue(obs::Counter::ServeQueries));
  EXPECT_EQ(Reg.counterValue(obs::Counter::ServeLruHits) +
                Reg.counterValue(obs::Counter::ServeLruMisses),
            Reg.counterValue(obs::Counter::ServeQueries));
}

//===----------------------------------------------------------------------===//
// Metrics determinism
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, MetricsJsonBitIdenticalSingleThreaded) {
  obs::setMetricsEnabled(true);
  auto &Reg = obs::MetricsRegistry::instance();
  const ObsWorkload &W = workload();

  for (SolverKind Kind : AllSolverKinds) {
    auto Capture = [&] {
      Reg.reset();
      MemTracker::instance().resetPeaks();
      { (void)solve(W.Reduced, Kind, PtsRepr::Bitmap, nullptr,
                    SolverOptions(), &W.Rep); }
      return Reg.renderJson();
    };
    std::string First = Capture();
    std::string Second = Capture();
    EXPECT_EQ(First, Second)
        << solverKindName(Kind) << " metrics not run-to-run identical";
    EXPECT_TRUE(isValidJson(First)) << solverKindName(Kind);
    EXPECT_NE(First.find("\"ag.metrics.v8\""), std::string::npos);
    // Compact rendering is the same document minus whitespace.
    std::string Compact = Reg.renderJson(/*Compact=*/true);
    EXPECT_TRUE(isValidJson(Compact));
  }
}

TEST_F(ObsTest, SolverCountersRepeatAcrossIdenticalSolves) {
  obs::setMetricsEnabled(true);
  auto &Reg = obs::MetricsRegistry::instance();
  const ObsWorkload &W = workload();

  for (SolverKind Kind : AllSolverKinds) {
    // Every solver.* counter, as the registry absorbed it from one run.
    auto Capture = [&] {
      Reg.reset();
      (void)solve(W.Reduced, Kind, PtsRepr::Bitmap, nullptr, SolverOptions(),
                  &W.Rep);
      std::map<std::string, uint64_t> Out;
      for (unsigned I = 0; I != unsigned(obs::Counter::NumCounters); ++I) {
        auto C = static_cast<obs::Counter>(I);
        if (std::strncmp(obs::counterName(C), "solver.", 7) == 0)
          Out[obs::counterName(C)] = Reg.counterValue(C);
      }
      return Out;
    };
    std::map<std::string, uint64_t> First = Capture();
    std::map<std::string, uint64_t> Second = Capture();
    for (const auto &[Name, Value] : First)
      EXPECT_EQ(Value, Second[Name])
          << Name << " drifted across identical " << solverKindName(Kind)
          << " solves";
    // The run did real work, so the comparison is not vacuous.
    EXPECT_GT(First["solver.propagations"], 0u) << solverKindName(Kind);
  }
}

//===----------------------------------------------------------------------===//
// Disabled-path contract, flight ring, governor hook
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, DisabledChannelsRecordNothing) {
  // Fixture left every channel off.
  const ObsWorkload &W = workload();
  uint64_t FlightBefore = obs::FlightRecorder::instance().totalRecorded();
  (void)solve(W.Reduced, SolverKind::LCDHCD, PtsRepr::Bitmap, nullptr,
              SolverOptions(), &W.Rep);

  EXPECT_EQ(obs::TraceRecorder::instance().eventCount(), 0u);
  EXPECT_EQ(obs::FlightRecorder::instance().totalRecorded(), FlightBefore);
  auto &Reg = obs::MetricsRegistry::instance();
  for (unsigned I = 0; I != unsigned(obs::Counter::NumCounters); ++I)
    EXPECT_EQ(Reg.counterValue(static_cast<obs::Counter>(I)), 0u)
        << obs::counterName(static_cast<obs::Counter>(I));
  for (unsigned I = 0; I != unsigned(obs::Hist::NumHists); ++I)
    EXPECT_EQ(Reg.histCount(static_cast<obs::Hist>(I)), 0u);
}

TEST_F(ObsTest, FlightRingWrapsAndDumps) {
  obs::setFlightEnabled(true);
  auto &FR = obs::FlightRecorder::instance();
  for (uint64_t I = 0; I != 2 * obs::FlightRecorder::Capacity; ++I)
    obs::flight("wrap_test", I);
  EXPECT_EQ(FR.totalRecorded(), 2 * obs::FlightRecorder::Capacity);
  std::string Dump = FR.dumpText();
  EXPECT_NE(Dump.find("wrap_test"), std::string::npos);
  // Oldest surviving event is Capacity entries back.
  EXPECT_EQ(Dump.find("a=0 "), std::string::npos);
  EXPECT_NE(Dump.find("a=" + std::to_string(obs::FlightRecorder::Capacity)),
            std::string::npos);
}

TEST_F(ObsTest, GovernorTripHookCountsAndMarks) {
  obs::setTraceEnabled(true);
  obs::setMetricsEnabled(true);
  obs::setFlightEnabled(true);
  uint64_t Before = obs::FlightRecorder::instance().totalRecorded();
  obs::onGovernorTrip(Status::stepLimit("test trip"));

  auto &Reg = obs::MetricsRegistry::instance();
  EXPECT_EQ(Reg.counterValue(obs::Counter::GovernorTrips), 1u);
  EXPECT_GT(obs::FlightRecorder::instance().totalRecorded(), Before);
  bool SawInstant = false;
  for (const obs::TraceEvent &E : obs::TraceRecorder::instance().events())
    if (E.Phase == 'i' && std::strcmp(E.Name, "governor_trip") == 0)
      SawInstant = true;
  EXPECT_TRUE(SawInstant);
}

} // namespace
