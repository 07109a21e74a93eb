//===- DemandTest.cpp - Demand-driven points-to subsystem -----------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential certification of the demand-driven subsystem: every
/// DemandSolver answer bit-equal to the exhaustive solution of every
/// solver kind, tier escalation on budget
/// trips (sound fallback preserved, unsound partial state never served),
/// delta adoption with memo invalidation, the demand memo ahead of a
/// materialized engine, the governed reverse-index build, demand-mode
/// serving sessions (concurrent readers across an escalation and a
/// resolve included), and the `ptatool query` exit codes end to end.
///
//===----------------------------------------------------------------------===//

#include "demand/DemandSolver.h"
#include "demand/DemandTier.h"

#include "adt/Rng.h"
#include "check/Differential.h"
#include "core/SolveBudget.h"
#include "obs/EventLog.h"
#include "obs/MetricsRegistry.h"
#include "obs/Obs.h"
#include "serve/QueryEngine.h"
#include "serve/ServeSession.h"
#include "serve/Snapshot.h"
#include "solvers/Solve.h"
#include "workload/WorkloadGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace ag;

namespace {

/// The CheckTest benchmark shape (program-structured, with functions and
/// field offsets) at two scales, plus a random system heavy on loads and
/// stores — the rules demand deduction can get wrong.
std::vector<ConstraintSystem> demandWorkloads() {
  std::vector<ConstraintSystem> Out;
  {
    BenchmarkSpec Spec;
    Spec.NumFunctions = 10;
    Spec.VarsPerFunction = 8;
    Spec.NumGlobals = 16;
    Spec.Seed = 11;
    Out.push_back(generateBenchmark(Spec));
  }
  {
    BenchmarkSpec Spec;
    Spec.NumFunctions = 22;
    Spec.VarsPerFunction = 12;
    Spec.NumGlobals = 40;
    Spec.Seed = 77;
    Out.push_back(generateBenchmark(Spec));
  }
  {
    RandomSpec Spec;
    Spec.Seed = 23;
    Spec.NumVars = 60;
    Spec.NumObjs = 20;
    Spec.NumAddressOf = 45;
    Spec.NumCopies = 70;
    Spec.NumLoads = 25;
    Spec.NumStores = 25;
    Out.push_back(generateRandom(Spec));
  }
  return Out;
}

std::vector<NodeId> toVector(const SparseBitVector &Bits) {
  std::vector<NodeId> Ids;
  for (uint32_t V : Bits)
    Ids.push_back(V);
  return Ids;
}

Snapshot makeSnap(const ConstraintSystem &CS) {
  Snapshot S;
  S.CS = CS;
  S.Solution = solveFnFor(SolverKind::LCDHCD, PtsRepr::Bitmap)(CS);
  S.SeedReps.resize(CS.numNodes());
  for (NodeId V = 0; V != CS.numNodes(); ++V)
    S.SeedReps[V] = V;
  return S;
}

/// A pre-cancelled per-query budget: the governor trips at the first
/// cancellation point, which is the deterministic way to force the
/// demand path onto its escalation tier.
SolveBudget trippedBudget() {
  SolveBudget B;
  B.Cancel = CancelToken::create();
  B.Cancel.requestCancel();
  return B;
}

/// The session's reply to \p Line.
std::string reply(ServeSession &Session, const std::string &Line) {
  std::ostringstream Out;
  Session.handleLine(Line, Out);
  return Out.str();
}

/// The exact reply to `pts|pointedby|alias <args>` under \p Sol.
std::string expectedReply(const PointsToSolution &Sol, uint32_t NumNodes,
                          const std::string &Cmd, NodeId A, NodeId B) {
  std::ostringstream Out;
  if (Cmd == "alias") {
    Out << "alias(" << A << "," << B << ") = "
        << (Sol.mayAlias(A, B) ? "yes" : "no") << "\n";
    return Out.str();
  }
  Out << Cmd << "(" << A << "):";
  if (Cmd == "pts") {
    for (NodeId O : Sol.pointsToVector(A))
      Out << " " << O;
  } else {
    for (NodeId V = 0; V != NumNodes; ++V)
      if (Sol.pointsToObj(V, A))
        Out << " " << V;
  }
  Out << "\n";
  return Out.str();
}

TEST(DemandSolver, PointsToMatchesEveryExhaustiveKind) {
  for (const ConstraintSystem &CS : demandWorkloads()) {
    DemandSolver DS(CS);
    for (SolverKind Kind : AllSolverKinds) {
      PointsToSolution Sol = solveFnFor(Kind, PtsRepr::Bitmap)(CS);
      for (NodeId V = 0; V != CS.numNodes(); ++V) {
        SparseBitVector Bits;
        ASSERT_TRUE(DS.pointsTo(V, nullptr, Bits).ok());
        EXPECT_EQ(toVector(Bits), Sol.pointsToVector(V))
            << "node " << V << " vs " << solverKindName(Kind);
      }
    }
    // Every queried class ends certified; repeat queries are memo hits
    // that must not change the answer.
    EXPECT_GT(DS.memoCompleteCount(), 0u);
    PointsToSolution Ref = solveFnFor(SolverKind::LCD, PtsRepr::Bitmap)(CS);
    for (NodeId V = 0; V != CS.numNodes(); ++V) {
      EXPECT_TRUE(DS.isMemoComplete(V)) << "node " << V;
      SparseBitVector Bits;
      ASSERT_TRUE(DS.memoPointsTo(V, Bits));
      EXPECT_EQ(toVector(Bits), Ref.pointsToVector(V)) << "node " << V;
    }
  }
}

TEST(DemandSolver, AliasAndPointedByMatchExhaustive) {
  for (const ConstraintSystem &CS : demandWorkloads()) {
    const uint32_t N = CS.numNodes();
    DemandSolver DS(CS);
    PointsToSolution Sol = solveFnFor(SolverKind::LCDHCD, PtsRepr::Bitmap)(CS);

    Rng R(97);
    for (int I = 0; I != 300; ++I) {
      NodeId P = static_cast<NodeId>(R.nextBelow(N));
      NodeId Q = static_cast<NodeId>(R.nextBelow(N));
      bool Verdict = false;
      ASSERT_TRUE(DS.alias(P, Q, nullptr, Verdict).ok());
      EXPECT_EQ(Verdict, Sol.mayAlias(P, Q))
          << "alias(" << P << "," << Q << ")";
    }

    for (NodeId Obj = 0; Obj != std::min(N, 48u); ++Obj) {
      std::vector<NodeId> Brute;
      for (NodeId V = 0; V != N; ++V)
        if (Sol.pointsToObj(V, Obj))
          Brute.push_back(V);
      SparseBitVector Bits;
      ASSERT_TRUE(DS.pointedBy(Obj, nullptr, Bits).ok());
      EXPECT_EQ(toVector(Bits), Brute) << "pointedBy(" << Obj << ")";
    }
  }
}

TEST(DemandSolver, FieldOffsetsAndStoreSlots) {
  // p -> s (size 3); *(p+1) = q with q -> o: the slot s+1 must reach o,
  // and a load r = *(p+1) must pull it back out. Exercises the
  // offsetTarget candidacy rules on both the store and load side.
  ConstraintSystem CS;
  NodeId P = CS.addNode("p");
  NodeId S = CS.addNode("s", 3);
  NodeId Q = CS.addNode("q");
  NodeId O = CS.addNode("o");
  NodeId Rd = CS.addNode("r");
  CS.addAddressOf(P, S);
  CS.addAddressOf(Q, O);
  CS.addStore(P, Q, 1);
  CS.addLoad(Rd, P, 1);

  PointsToSolution Sol = solveFnFor(SolverKind::LCDHCD, PtsRepr::Bitmap)(CS);
  DemandSolver DS(CS);
  for (NodeId V : {P, S, Q, O, Rd, static_cast<NodeId>(S + 1)}) {
    SparseBitVector Bits;
    ASSERT_TRUE(DS.pointsTo(V, nullptr, Bits).ok());
    EXPECT_EQ(toVector(Bits), Sol.pointsToVector(V)) << "node " << V;
  }
  SparseBitVector RBits;
  ASSERT_TRUE(DS.pointsTo(Rd, nullptr, RBits).ok());
  EXPECT_TRUE(RBits.test(O)) << "load through the field slot lost o";
}

TEST(DemandSolver, CountsQueriesStepsAndMemoHits) {
  obs::MetricsRegistry &Reg = obs::MetricsRegistry::instance();
  obs::setMetricsEnabled(true);
  Reg.reset();

  ConstraintSystem CS = demandWorkloads().front();
  DemandSolver DS(CS);
  SparseBitVector Bits;
  ASSERT_TRUE(DS.pointsTo(0, nullptr, Bits).ok());
  EXPECT_EQ(Reg.counterValue(obs::Counter::DemandQueries), 1u);
  EXPECT_EQ(Reg.counterValue(obs::Counter::DemandMemoMisses), 1u);
  EXPECT_GT(Reg.counterValue(obs::Counter::DemandSteps), 0u);

  Bits = SparseBitVector();
  ASSERT_TRUE(DS.pointsTo(0, nullptr, Bits).ok());
  EXPECT_EQ(Reg.counterValue(obs::Counter::DemandQueries), 2u);
  EXPECT_EQ(Reg.counterValue(obs::Counter::DemandMemoHits), 1u);

  obs::setMetricsEnabled(false);
}

TEST(DemandTier, BudgetTripEscalatesToSoundExhaustiveSolve) {
  obs::MetricsRegistry &Reg = obs::MetricsRegistry::instance();
  obs::setMetricsEnabled(true);
  Reg.reset();

  ConstraintSystem CS = demandWorkloads().front();
  PointsToSolution Sol = solveFnFor(SolverKind::LCDHCD, PtsRepr::Bitmap)(CS);

  DemandTier::Options TO;
  TO.QueryBudget = trippedBudget();
  DemandTier Tier(CS, TO);

  DemandTier::IdList List;
  ASSERT_TRUE(Tier.pointsTo(3, List).ok());
  EXPECT_TRUE(Tier.escalated());
  EXPECT_EQ(Tier.escalationOutcome(), SolveOutcome::Precise);
  EXPECT_EQ(*List, Sol.pointsToVector(3));
  EXPECT_EQ(Reg.counterValue(obs::Counter::DemandEscalations), 1u);

  // Once escalated, every query kind answers from the one adopted
  // solution — still bit-equal to a cold exhaustive solve.
  for (NodeId V = 0; V != CS.numNodes(); ++V) {
    DemandTier::IdList L;
    ASSERT_TRUE(Tier.pointsTo(V, L).ok());
    EXPECT_EQ(*L, Sol.pointsToVector(V)) << "node " << V;
  }
  bool Verdict = false;
  ASSERT_TRUE(Tier.alias(1, 2, Verdict).ok());
  EXPECT_EQ(Verdict, Sol.mayAlias(1, 2));
  for (NodeId Obj = 0; Obj != std::min(CS.numNodes(), 16u); ++Obj) {
    std::vector<NodeId> Brute;
    for (NodeId V = 0; V != CS.numNodes(); ++V)
      if (Sol.pointsToObj(V, Obj))
        Brute.push_back(V);
    DemandTier::IdList L;
    ASSERT_TRUE(Tier.pointedBy(Obj, L).ok());
    EXPECT_EQ(*L, Brute) << "pointedBy(" << Obj << ")";
  }
  // Second escalation never runs: the solve happened exactly once.
  EXPECT_EQ(Reg.counterValue(obs::Counter::DemandEscalations), 1u);
  obs::setMetricsEnabled(false);
}

TEST(DemandTier, TripWithoutEscalationReportsStructuredStatus) {
  ConstraintSystem CS = demandWorkloads().front();
  DemandTier::Options TO;
  TO.QueryBudget = trippedBudget();
  TO.AllowEscalation = false;
  DemandTier Tier(CS, TO);

  DemandTier::IdList List;
  Status St = Tier.pointsTo(0, List);
  ASSERT_FALSE(St.ok());
  EXPECT_TRUE(St.isBudgetTrip()) << St.toString();
  EXPECT_FALSE(Tier.escalated());

  bool Verdict = false;
  St = Tier.alias(0, 1, Verdict);
  ASSERT_FALSE(St.ok());
  EXPECT_TRUE(St.isBudgetTrip()) << St.toString();

  St = Tier.pointedBy(0, List);
  ASSERT_FALSE(St.ok());
  EXPECT_TRUE(St.isBudgetTrip()) << St.toString();
}

TEST(DemandTier, ResolveDeltaInvalidatesMemoAndStaysExact) {
  ConstraintSystem CS = demandWorkloads().front();
  DemandTier Tier(CS);

  // Warm the memo on the base system.
  for (NodeId V = 0; V != std::min(CS.numNodes(), 32u); ++V) {
    DemandTier::IdList L;
    ASSERT_TRUE(Tier.pointsTo(V, L).ok());
  }
  ASSERT_GT(Tier.memoCompleteCount(), 0u);

  // Delta: a new object flowing into an existing variable (through a
  // copy chain and a store — the invalidateAll path), plus new nodes.
  ConstraintSystem Delta = Tier.system();
  NodeId Fresh = Delta.addNode("fresh_obj");
  NodeId Ptr = Delta.addNode("fresh_ptr");
  Delta.addAddressOf(Ptr, Fresh);
  Delta.addCopy(0, Ptr);
  Delta.addAddressOf(2, 1);
  Delta.addStore(2, Ptr);
  ASSERT_TRUE(Tier.resolveDelta(Delta).ok());

  PointsToSolution Sol =
      solveFnFor(SolverKind::LCDHCD, PtsRepr::Bitmap)(Delta);
  for (NodeId V = 0; V != Delta.numNodes(); ++V) {
    DemandTier::IdList L;
    ASSERT_TRUE(Tier.pointsTo(V, L).ok());
    EXPECT_EQ(*L, Sol.pointsToVector(V)) << "node " << V << " after delta";
  }
  DemandTier::IdList PB;
  std::vector<NodeId> Brute;
  for (NodeId V = 0; V != Delta.numNodes(); ++V)
    if (Sol.pointsToObj(V, Fresh))
      Brute.push_back(V);
  ASSERT_TRUE(Tier.pointedBy(Fresh, PB).ok());
  EXPECT_EQ(*PB, Brute);

  // A node-table rewrite is rejected with a structured status.
  ConstraintSystem Bogus;
  Bogus.addNode("tiny");
  EXPECT_FALSE(Tier.resolveDelta(Bogus).ok());
}

TEST(DemandTier, ConcurrentQueriesStayExact) {
  ConstraintSystem CS = demandWorkloads().front();
  PointsToSolution Sol = solveFnFor(SolverKind::LCDHCD, PtsRepr::Bitmap)(CS);
  DemandTier Tier(CS);
  const uint32_t N = CS.numNodes();

  for (unsigned NumThreads : {1u, 4u}) {
    std::vector<std::thread> Threads;
    std::vector<int> Failures(NumThreads, 0);
    for (unsigned T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&, T] {
        Rng R(101 + T);
        for (int I = 0; I != 200; ++I) {
          NodeId V = static_cast<NodeId>(R.nextBelow(N));
          if (I % 3 == 0) {
            bool Verdict = false;
            NodeId W = static_cast<NodeId>(R.nextBelow(N));
            if (!Tier.alias(V, W, Verdict).ok() ||
                Verdict != Sol.mayAlias(V, W))
              ++Failures[T];
          } else {
            DemandTier::IdList L;
            if (!Tier.pointsTo(V, L).ok() || *L != Sol.pointsToVector(V))
              ++Failures[T];
          }
        }
      });
    for (std::thread &Th : Threads)
      Th.join();
    for (unsigned T = 0; T != NumThreads; ++T)
      EXPECT_EQ(Failures[T], 0) << "thread " << T << " of " << NumThreads;
  }
}

TEST(DemandQueryEngine, MemoAnswersAheadOfSnapshotSolution) {
  obs::MetricsRegistry &Reg = obs::MetricsRegistry::instance();
  obs::setMetricsEnabled(true);
  Reg.reset();

  ConstraintSystem CS = demandWorkloads().front();
  const PointsToSolution Sol =
      solveFnFor(SolverKind::LCDHCD, PtsRepr::Bitmap)(CS);
  const uint32_t N = CS.numNodes();
  std::ostringstream EventSink;
  obs::EventLog::Options EO;
  EO.ManualDrain = true;
  auto Events = std::make_shared<obs::EventLog>(EventSink, EO);
  ServeOptions SO;
  SO.Events = Events;
  ServeSession Session(CS, SO);

  // Certify a handful of classes on the demand path, then materialize
  // the engine epoch: its answer cache starts empty.
  for (NodeId V = 0; V != 8; ++V)
    ASSERT_EQ(reply(Session, "pts " + std::to_string(V)),
              expectedReply(Sol, N, "pts", V, 0));
  ASSERT_EQ(reply(Session, "callgraph").rfind("callgraph: ", 0), 0u);
  Events->drain();
  EventSink.str("");

  const uint64_t Hits0 = Reg.counterValue(obs::Counter::DemandMemoHits);
  for (NodeId V = 0; V != 8; ++V)
    EXPECT_EQ(reply(Session, "pts " + std::to_string(V)),
              expectedReply(Sol, N, "pts", V, 0));
  EXPECT_GT(Reg.counterValue(obs::Counter::DemandMemoHits), Hits0)
      << "certified classes must answer from the demand memo";
  Events->drain();
  EXPECT_NE(EventSink.str().find("\"memo_hit\":true"), std::string::npos)
      << EventSink.str();

  // Uncertified nodes fall through to the snapshot solution.
  for (NodeId V = 8; V != std::min(N, 24u); ++V)
    EXPECT_EQ(reply(Session, "pts " + std::to_string(V)),
              expectedReply(Sol, N, "pts", V, 0));
  EXPECT_EQ(reply(Session, "alias 0 1"), expectedReply(Sol, N, "alias", 0, 1));
  Events->close();
  obs::setMetricsEnabled(false);
}

TEST(DemandQueryEngine, GovernedReverseIndexBuildTripsAndRetries) {
  ConstraintSystem CS = demandWorkloads().front();
  QueryEngine Engine(makeSnap(CS));

  SolveBudget Tripped = trippedBudget();
  SolveGovernor Gov(Tripped);
  QueryEngine::IdList Out;
  Status St = Engine.pointedBy(0, Out, &Gov);
  ASSERT_FALSE(St.ok());
  EXPECT_TRUE(St.isBudgetTrip()) << St.toString();

  // The tripped build committed nothing: a later unbudgeted call
  // rebuilds from scratch and answers exactly.
  ASSERT_TRUE(Engine.pointedBy(0, Out).ok());
  std::vector<NodeId> Brute;
  for (NodeId V = 0; V != CS.numNodes(); ++V)
    if (Engine.snapshot().Solution.pointsToObj(V, 0))
      Brute.push_back(V);
  EXPECT_EQ(*Out, Brute);

  // Once built, even a tripped governor cannot fail the query.
  SolveGovernor Gov2(Tripped);
  EXPECT_TRUE(Engine.pointedBy(1, Out, &Gov2).ok());
}

TEST(DemandServe, DemandModeMatchesSnapshotModeAnswers) {
  obs::MetricsRegistry &Reg = obs::MetricsRegistry::instance();
  obs::setMetricsEnabled(true);
  Reg.reset();
  ConstraintSystem CS = demandWorkloads().front();
  ServeSession SnapMode(makeSnap(CS));
  ServeSession DemandMode(CS);

  for (const char *Line :
       {"pts 0", "pts 5", "alias 0 1", "alias 3 4", "aliasbatch 0 1 2 3",
        "pointedby 1", "pointedby 7", "callees 0", "callgraph", "check"}) {
    std::ostringstream A, B;
    EXPECT_TRUE(SnapMode.handleLine(Line, A));
    EXPECT_TRUE(DemandMode.handleLine(Line, B));
    EXPECT_EQ(A.str(), B.str()) << "command: " << Line;
  }

  // One query_batch sample per aliasbatch, whichever mode served it.
  EXPECT_EQ(Reg.histCount(obs::Hist::QueryBatch), 2u);
  obs::setMetricsEnabled(false);

  std::ostringstream StatsOut;
  EXPECT_TRUE(DemandMode.handleLine("stats", StatsOut));
  EXPECT_NE(StatsOut.str().find("demand: memo_complete"), std::string::npos);
}

TEST(DemandServe, EscalatedAnswerStaysOutOfTheDemandEpochCache) {
  ConstraintSystem CS = demandWorkloads().front();
  const PointsToSolution Sol =
      solveFnFor(SolverKind::LCDHCD, PtsRepr::Bitmap)(CS);
  ServeOptions SO;
  SO.QueryBudget = trippedBudget();
  ServeSession Session(CS, SO);

  // The deduction trips and escalates; the answer is exact but came from
  // the escalation, so the demand epoch's cache stays empty.
  EXPECT_EQ(reply(Session, "pts 3"), expectedReply(Sol, CS.numNodes(), "pts", 3, 0));
  EXPECT_EQ(reply(Session, "stats").rfind("stats: hits 0 misses 1 evictions 0 "
                                          "entries 0\n", 0),
            0u);
  // The next read materializes the engine epoch, which caches.
  EXPECT_EQ(reply(Session, "pts 3"), expectedReply(Sol, CS.numNodes(), "pts", 3, 0));
  EXPECT_EQ(reply(Session, "pts 3"), expectedReply(Sol, CS.numNodes(), "pts", 3, 0));
  EXPECT_EQ(reply(Session, "stats").rfind("stats: hits 1 misses 1 evictions 0 "
                                          "entries 1\n", 0),
            0u);
}

TEST(DemandServe, ConcurrentReadersAnswerFromTheirEpoch) {
  // Readers query pts/alias/pointedby while the per-query budget starts
  // tripping (so one query escalates) and a resolve lands. Every reply
  // must be the exhaustive answer of the system it ran on: the base if
  // it finished before the resolve began, the delta if it began after
  // the resolve returned, either in between.
  ConstraintSystem Base = demandWorkloads()[1];
  ConstraintSystem Delta = Base;
  NodeId Fresh = Delta.addNode("fresh_obj");
  NodeId FreshPtr = Delta.addNode("fresh_ptr");
  Delta.addAddressOf(FreshPtr, Fresh);
  Delta.addCopy(0, FreshPtr);
  Delta.addCopy(5, 0);
  Delta.addAddressOf(2, 1);
  Delta.addStore(2, FreshPtr);
  std::string Path = ::testing::TempDir() + "demand_serve_concurrent.cons";
  ASSERT_TRUE(Delta.writeToFile(Path));
  const PointsToSolution BaseSol =
      solveFnFor(SolverKind::LCDHCD, PtsRepr::Bitmap)(Base);
  const PointsToSolution DeltaSol =
      solveFnFor(SolverKind::LCDHCD, PtsRepr::Bitmap)(Delta);
  const uint32_t N = Base.numNodes();

  // The readers' lines with both systems' replies, computed up front:
  // a solution lookup moves its set's cursor, so threads cannot share
  // one. The pool is the low nodes, so the main thread's probe range
  // (the high ones) stays uncertified.
  struct Probe {
    std::string Line, OnBase, OnDelta;
  };
  std::vector<Probe> Probes;
  const NodeId PoolEnd = std::min<NodeId>(N / 3, 48);
  for (NodeId A = 0; A != PoolEnd; ++A)
    for (const char *Cmd : {"pts", "pointedby", "alias"})
      for (NodeId B = 0; B != (Cmd[0] == 'a' ? PoolEnd : 1); ++B) {
        std::ostringstream Line;
        Line << Cmd << " " << A;
        if (Cmd[0] == 'a')
          Line << " " << B;
        Probes.push_back({Line.str(), expectedReply(BaseSol, N, Cmd, A, B),
                          expectedReply(DeltaSol, Delta.numNodes(), Cmd, A,
                                        B)});
      }
  ASSERT_TRUE(std::any_of(Probes.begin(), Probes.end(),
                          [](const Probe &P) { return P.OnBase != P.OnDelta; }))
      << "test premise: the delta must change some answers";

  ServeOptions SO;
  SO.QueryBudget.Cancel = CancelToken::create();
  ServeSession Session(Base, SO);

  constexpr unsigned NumReaders = 4;
  std::atomic<bool> ResolveStarted{false}, ResolveDone{false}, Stop{false};
  std::vector<std::vector<std::string>> Failures(NumReaders);
  std::vector<unsigned> Replies(NumReaders, 0);
  std::vector<std::thread> Readers;
  for (unsigned T = 0; T != NumReaders; ++T)
    Readers.emplace_back([&, T] {
      Rng R(31 + T);
      while (!Stop.load()) {
        const Probe &P = Probes[R.nextBelow(Probes.size())];
        const bool After = ResolveDone.load();
        std::string Got = reply(Session, P.Line);
        const bool Before = !ResolveStarted.load();
        bool Ok = Before  ? Got == P.OnBase
                  : After ? Got == P.OnDelta
                          : Got == P.OnBase || Got == P.OnDelta;
        if (!Ok)
          Failures[T].push_back(P.Line + " -> " + Got);
        ++Replies[T];
      }
    });

  // Progress is read through the session's request count (readers own
  // their Replies slots until joined).
  auto Requests = [&] { return Session.counters().Requests; };
  auto WaitRequests = [&](uint64_t Target) {
    while (Requests() < Target)
      std::this_thread::yield();
  };

  // Demand phase: exact answers into the base demand epoch.
  WaitRequests(200);
  // From now on every uncertified deduction trips; the main thread's
  // probe (outside the readers' pool) makes sure one query escalates.
  SO.QueryBudget.Cancel.requestCancel();
  for (NodeId V = N - 1; V > PoolEnd; --V) {
    EXPECT_EQ(reply(Session, "pts " + std::to_string(V)),
              expectedReply(BaseSol, N, "pts", V, 0));
    if (reply(Session, "stats").find("escalated yes") != std::string::npos)
      break;
  }
  EXPECT_NE(reply(Session, "stats").find("escalated yes"), std::string::npos);
  WaitRequests(Requests() + 200);

  ResolveStarted.store(true);
  EXPECT_EQ(reply(Session, "resolve " + Path).rfind(
                "resolved: demand delta adopted", 0),
            0u);
  ResolveDone.store(true);
  WaitRequests(Requests() + 400);
  Stop.store(true);
  for (std::thread &Th : Readers)
    Th.join();

  for (unsigned T = 0; T != NumReaders; ++T) {
    EXPECT_GT(Replies[T], 0u) << "reader " << T;
    EXPECT_TRUE(Failures[T].empty())
        << "reader " << T << ": " << Failures[T].front();
  }
  std::remove(Path.c_str());
}

TEST(DemandServe, ResolveFoldsDeltaAndReturnsToDemandPath) {
  ConstraintSystem CS = demandWorkloads().front();
  ServeSession Session(CS);

  // Warm, then force materialization so resolve also proves it drops the
  // stale snapshot.
  std::ostringstream Warm;
  EXPECT_TRUE(Session.handleLine("pts 0", Warm));
  EXPECT_TRUE(Session.handleLine("callgraph", Warm));

  ConstraintSystem Delta = CS;
  NodeId Fresh = Delta.addNode("fresh_obj");
  Delta.addAddressOf(0, Fresh);
  std::string Path = ::testing::TempDir() + "demand_serve_delta.cons";
  ASSERT_TRUE(Delta.writeToFile(Path));

  std::ostringstream ResolveOut;
  EXPECT_TRUE(Session.handleLine("resolve " + Path, ResolveOut));
  EXPECT_NE(ResolveOut.str().find("resolved: demand delta adopted"),
            std::string::npos)
      << ResolveOut.str();

  PointsToSolution Sol =
      solveFnFor(SolverKind::LCDHCD, PtsRepr::Bitmap)(Delta);
  std::ostringstream Pts;
  EXPECT_TRUE(Session.handleLine("pts 0", Pts));
  std::string Expect = "pts(0):";
  for (NodeId V : Sol.pointsToVector(0))
    Expect += " " + std::to_string(V);
  Expect += "\n";
  EXPECT_EQ(Pts.str(), Expect);
  std::remove(Path.c_str());
}

#ifdef AG_PTATOOL_PATH

int runPtatool(const std::string &Args) {
  std::string Cmd = std::string(AG_PTATOOL_PATH) + " " + Args;
  int Raw = std::system(Cmd.c_str());
  return WEXITSTATUS(Raw);
}

TEST(DemandPtatool, QueryExitCodesAndServeSniffing) {
  std::string Dir = ::testing::TempDir();
  std::string Cons = Dir + "demand_e2e.cons";
  ConstraintSystem CS = demandWorkloads().front();
  ASSERT_TRUE(CS.writeToFile(Cons));

  // 0: answered on the demand path (all three query forms).
  EXPECT_EQ(runPtatool("query " + Cons + " 0 1 > /dev/null"), 0);
  EXPECT_EQ(runPtatool("query " + Cons + " --pts 0 > /dev/null"), 0);
  EXPECT_EQ(runPtatool("query " + Cons + " --pointed-by 1 > /dev/null"), 0);

  // 3: the per-query budget trips instantly; the escalation (same
  // ceilings, fallback allowed) degrades to the sound Steensgaard
  // answer.
  EXPECT_EQ(runPtatool("query " + Cons +
                       " --pts 0 --timeout 0.000001 > /dev/null"),
            3);
  // 4: --no-fallback forbids escalation; the trip surfaces with no
  // sound answer printed.
  EXPECT_EQ(runPtatool("query " + Cons +
                       " --pts 0 --timeout 0.000001 --no-fallback "
                       "> /dev/null 2> /dev/null"),
            4);
  // 1/2: bad node, missing args.
  EXPECT_EQ(runPtatool("query " + Cons + " --pts no_such_node "
                       "> /dev/null 2> /dev/null"),
            1);
  EXPECT_EQ(runPtatool("query " + Cons + " > /dev/null 2> /dev/null"), 2);

  // serve sniffs a .cons input and serves it demand-first.
  EXPECT_EQ(runPtatool("serve " + Cons +
                       " < /dev/null > /dev/null 2> /dev/null"),
            0);
}

#endif // AG_PTATOOL_PATH

} // namespace
