//===- QueryEngineTest.cpp - Query serving over snapshots -----------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// QueryEngine correctness against brute-force evaluation of the
/// underlying PointsToSolution, the serve epoch's answer cache over it
/// (representative-keyed sharing), the aliasbatch command, the
/// function-pointer call graph, and the `ptatool serve` REPL end to end.
///
//===----------------------------------------------------------------------===//

#include "serve/QueryEngine.h"
#include "serve/ServeSession.h"

#include "adt/Rng.h"
#include "constraints/OfflineVariableSubstitution.h"
#include "workload/WorkloadGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace ag;

namespace {

Snapshot makeSnapshot(const ConstraintSystem &CS,
                      SolverKind Kind = SolverKind::LCDHCD) {
  OvsResult Ovs = runOfflineVariableSubstitution(CS);
  Snapshot Snap;
  Snap.Solution = solve(Ovs.Reduced, Kind, PtsRepr::Bitmap, nullptr,
                        SolverOptions(), &Ovs.Rep);
  Snap.CS = std::move(Ovs.Reduced);
  Snap.SeedReps = std::move(Ovs.Rep);
  Snap.Kind = Kind;
  return Snap;
}

ConstraintSystem benchSystem() {
  BenchmarkSpec Spec;
  Spec.NumFunctions = 12;
  Spec.VarsPerFunction = 8;
  Spec.NumGlobals = 20;
  return generateBenchmark(Spec);
}

TEST(QueryEngine, MatchesBruteForceOnGeneratedSystem) {
  Snapshot Snap = makeSnapshot(benchSystem());
  const PointsToSolution Expected = Snap.Solution; // Engine consumes Snap.
  const uint32_t N = Snap.CS.numNodes();
  QueryEngine Engine(std::move(Snap));

  for (NodeId V = 0; V != N; ++V)
    EXPECT_EQ(*Engine.pointsTo(V), Expected.pointsToVector(V)) << "node " << V;

  Rng R(7);
  for (int I = 0; I != 300; ++I) {
    NodeId P = static_cast<NodeId>(R.nextBelow(N));
    NodeId Q = static_cast<NodeId>(R.nextBelow(N));
    EXPECT_EQ(Engine.alias(P, Q), Expected.mayAlias(P, Q))
        << "alias(" << P << "," << Q << ")";
  }

  for (NodeId Obj = 0; Obj != std::min(N, 64u); ++Obj) {
    std::vector<NodeId> Brute;
    for (NodeId V = 0; V != N; ++V)
      if (Expected.pointsToObj(V, Obj))
        Brute.push_back(V);
    QueryEngine::IdList PB;
    ASSERT_TRUE(Engine.pointedBy(Obj, PB).ok());
    EXPECT_EQ(*PB, Brute) << "pointedBy(" << Obj << ")";
  }
}

TEST(QueryEngine, CalleesFiltersToFunctionObjects) {
  ConstraintSystem CS;
  NodeId F = CS.addFunction("f", 1);
  NodeId G = CS.addFunction("g", 2);
  NodeId Fp = CS.addNode("fp");
  NodeId O = CS.addNode("o");
  CS.addAddressOf(Fp, F);
  CS.addAddressOf(Fp, G);
  CS.addAddressOf(Fp, O); // Data object: must not appear as a callee.
  QueryEngine Engine(makeSnapshot(CS));
  EXPECT_EQ(*Engine.callees(Fp), (std::vector<NodeId>{F, G}));
  EXPECT_EQ(*Engine.pointsTo(Fp), (std::vector<NodeId>{F, G, O}));
}

TEST(QueryEngine, CallGraphEdgesFromDereferencedFunctionPointers) {
  ConstraintSystem CS;
  NodeId F = CS.addFunction("f", 1);
  NodeId G = CS.addFunction("g", 1);
  NodeId Fp = CS.addNode("fp");
  NodeId Arg = CS.addNode("arg");
  NodeId Ret = CS.addNode("ret");
  NodeId Plain = CS.addNode("plain"); // Points at g but is never deref'd
  CS.addAddressOf(Fp, F);             // at an offset: not a call site.
  CS.addAddressOf(Fp, G);
  CS.addAddressOf(Plain, G);
  // An indirect call through fp: store the argument at the parameter
  // slot, load the return slot.
  CS.addStore(Fp, Arg, ConstraintSystem::FunctionParamOffset);
  CS.addLoad(Ret, Fp, 1);
  QueryEngine Engine(makeSnapshot(CS));
  std::vector<std::pair<NodeId, NodeId>> Expected = {{Fp, F}, {Fp, G}};
  EXPECT_EQ(Engine.callGraph(), Expected);
}

/// The session's reply to \p Line.
std::string reply(ServeSession &Session, const std::string &Line) {
  std::ostringstream Out;
  Session.handleLine(Line, Out);
  return Out.str();
}

/// Hits and misses of the current epoch's answer cache, from `stats`.
std::pair<uint64_t, uint64_t> cacheHitsMisses(ServeSession &Session) {
  std::istringstream In(reply(Session, "stats"));
  std::string Stats, HitsWord, MissesWord;
  uint64_t Hits = 0, Misses = 0;
  In >> Stats >> HitsWord >> Hits >> MissesWord >> Misses;
  EXPECT_EQ(Stats + HitsWord + MissesWord, "stats:hitsmisses");
  return {Hits, Misses};
}

TEST(QueryEngine, CacheIsKeyedOnRepresentatives) {
  // x and y form a copy cycle: the solve collapses them into one class,
  // so their pointsTo answers share a single cache entry.
  ConstraintSystem CS;
  NodeId X = CS.addNode("x"), Y = CS.addNode("y"), O = CS.addNode("o");
  CS.addAddressOf(X, O);
  CS.addCopy(X, Y);
  CS.addCopy(Y, X);
  Snapshot Snap = makeSnapshot(CS, SolverKind::LCD);
  ASSERT_EQ(Snap.Solution.repOf(X), Snap.Solution.repOf(Y))
      << "test premise: the cycle must have been collapsed";
  ServeSession Session(std::move(Snap));
  const std::string OStr = std::to_string(O);

  EXPECT_EQ(reply(Session, "pts x"), "pts(x): " + OStr + "\n");
  EXPECT_EQ(cacheHitsMisses(Session), std::make_pair(uint64_t(0), uint64_t(1)));

  EXPECT_EQ(reply(Session, "pts y"), "pts(y): " + OStr + "\n");
  EXPECT_EQ(cacheHitsMisses(Session), std::make_pair(uint64_t(1), uint64_t(1)))
      << "class member must hit its rep's entry";

  // Same canonicalization for alias verdicts, in either argument order.
  EXPECT_EQ(reply(Session, "alias x y"), "alias(x,y) = yes\n");
  EXPECT_EQ(reply(Session, "alias y x"), "alias(y,x) = yes\n");
  EXPECT_EQ(cacheHitsMisses(Session).first, 2u);
}

TEST(QueryEngine, BatchMatchesIndividualQueries) {
  Snapshot Snap = makeSnapshot(benchSystem());
  const uint32_t N = Snap.CS.numNodes();
  const PointsToSolution Expected = Snap.Solution;
  ServeSession Session(std::move(Snap));
  Rng R(13);
  std::ostringstream Batch, Individual;
  Batch << "aliasbatch";
  Individual << "aliasbatch:";
  for (int I = 0; I != 100; ++I) {
    NodeId P = static_cast<NodeId>(R.nextBelow(N));
    NodeId Q = static_cast<NodeId>(R.nextBelow(N));
    Batch << " " << P << " " << Q;
    std::ostringstream Alias;
    Alias << "alias " << P << " " << Q;
    std::string One = reply(Session, Alias.str());
    bool Yes = One.find("= yes") != std::string::npos;
    EXPECT_EQ(Yes, Expected.mayAlias(P, Q)) << One;
    Individual << (Yes ? " yes" : " no");
  }
  EXPECT_EQ(reply(Session, Batch.str()), Individual.str() + "\n");
}

#ifdef AG_PTATOOL_PATH

/// Runs ptatool with \p Args (redirections included) and returns its exit
/// code.
int runPtatool(const std::string &Args) {
  std::string Cmd = std::string(AG_PTATOOL_PATH) + " " + Args;
  int Raw = std::system(Cmd.c_str());
  return WEXITSTATUS(Raw);
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

TEST(ServeRepl, EndToEnd) {
  std::string Dir = ::testing::TempDir();
  std::string Cons = Dir + "serve_repl.cons";
  std::string Snap = Dir + "serve_repl.snap";
  std::string InPath = Dir + "serve_repl.in";
  std::string OutPath = Dir + "serve_repl.out";

  // p -> {o}; q copies p; o points at nothing.
  ConstraintSystem CS;
  NodeId P = CS.addNode("p"), O = CS.addNode("o"), Q = CS.addNode("q");
  CS.addAddressOf(P, O);
  CS.addCopy(Q, P);
  ASSERT_TRUE(CS.writeToFile(Cons));
  ASSERT_EQ(runPtatool("snapshot " + Cons + " " + Snap + " > /dev/null"), 0);

  std::ofstream(InPath) << "help\n"
                           "pts p\n"
                           "pts 2\n"
                           "alias p q\n"
                           "alias p o\n"
                           "aliasbatch p q o o\n"
                           "pointedby o\n"
                           "callees p\n"
                           "callgraph\n"
                           "stats\n"
                           "frobnicate\n"
                           "pts nosuchnode\n"
                           "alias p\n"
                           "quit\n";
  ASSERT_EQ(runPtatool("serve " + Snap + " < " + InPath + " > " + OutPath +
                       " 2> /dev/null"),
            0);

  std::string Out = slurp(OutPath);
  EXPECT_NE(Out.find("commands:"), std::string::npos);
  EXPECT_NE(Out.find("pts(p): " + std::to_string(O) + "\n"),
            std::string::npos);
  EXPECT_NE(Out.find("pts(2): " + std::to_string(O) + "\n"),
            std::string::npos)
      << "decimal ids must resolve too";
  EXPECT_NE(Out.find("alias(p,q) = yes"), std::string::npos);
  EXPECT_NE(Out.find("alias(p,o) = no"), std::string::npos);
  EXPECT_NE(Out.find("aliasbatch: yes no"), std::string::npos);
  EXPECT_NE(Out.find("pointedby(o): " + std::to_string(P) + " " +
                     std::to_string(Q) + "\n"),
            std::string::npos);
  EXPECT_NE(Out.find("callees(p):\n"), std::string::npos);
  EXPECT_NE(Out.find("callgraph: 0 edges"), std::string::npos);
  EXPECT_NE(Out.find("stats: hits"), std::string::npos);
  EXPECT_NE(Out.find("error: unknown command 'frobnicate'"),
            std::string::npos);
  EXPECT_NE(Out.find("error: unknown node 'nosuchnode'"), std::string::npos);
  EXPECT_NE(Out.find("error: alias expects two nodes"), std::string::npos);
}

TEST(ServeRepl, EofExitsZeroAndCorruptSnapshotExitsError) {
  std::string Dir = ::testing::TempDir();
  std::string Cons = Dir + "serve_eof.cons";
  std::string Snap = Dir + "serve_eof.snap";
  ConstraintSystem CS;
  NodeId P = CS.addNode("p"), O = CS.addNode("o");
  CS.addAddressOf(P, O);
  ASSERT_TRUE(CS.writeToFile(Cons));
  ASSERT_EQ(runPtatool("snapshot " + Cons + " " + Snap + " > /dev/null"), 0);
  EXPECT_EQ(runPtatool("serve " + Snap + " < /dev/null > /dev/null"), 0);

  std::string Bad = Dir + "serve_eof.bad";
  std::ofstream(Bad) << "this is not a snapshot";
  EXPECT_EQ(
      runPtatool("serve " + Bad + " < /dev/null > /dev/null 2> /dev/null"),
      1);
  EXPECT_EQ(runPtatool("serve /nonexistent/missing.snap < /dev/null "
                       "> /dev/null 2> /dev/null"),
            1);
}

#endif // AG_PTATOOL_PATH

} // namespace
