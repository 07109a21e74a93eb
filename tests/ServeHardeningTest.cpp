//===- ServeHardeningTest.cpp - Hardened serving session ------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ServeSession robustness: bounded line reading (oversized lines, EOF
/// mid-line, binary garbage), retry-with-backoff warm-start resolve
/// degrading to a served sound fallback, the in-REPL `check` self-check,
/// per-request fault injection, and `ptatool serve` end to end from a
/// generation directory. Shedding and deadlines belong to the Server and
/// are tested in ServerTest.cpp; here only the stdin REPL's refusal of
/// --max-queue is.
///
//===----------------------------------------------------------------------===//

#include "serve/ServeSession.h"

#include "adt/FaultInjector.h"
#include "adt/Rng.h"
#include "check/SolutionChecker.h"
#include "serve/SnapshotStore.h"
#include "solvers/Solve.h"
#include "workload/WorkloadGen.h"

#include "ServeTestUtil.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

using namespace ag;
using ag::test::countOccurrences;
using ag::test::makeSnapshot;
using ag::test::tinySystem;

namespace {

TEST(ServeSession, EofMidLineProcessesPartialLineAndExitsZero) {
  ServeSession S(makeSnapshot(tinySystem()));
  std::istringstream In("pts p"); // No trailing newline, no quit.
  std::ostringstream Out;
  EXPECT_EQ(S.run(In, Out), 0);
  EXPECT_NE(Out.str().find("pts(p): 1\n"), std::string::npos)
      << "the unterminated final line must still be served: " << Out.str();
}

TEST(ServeSession, OversizedLineGetsStructuredErrorAndSessionSurvives) {
  ServeOptions Opts;
  Opts.MaxLineBytes = 64;
  ServeSession S(makeSnapshot(tinySystem()), Opts);
  std::string Long(1000, 'x');
  std::istringstream In("pts " + Long + "\npts p\nquit\n");
  std::ostringstream Out;
  EXPECT_EQ(S.run(In, Out), 0);
  EXPECT_NE(Out.str().find("error: line too long (max 64 bytes)"),
            std::string::npos);
  EXPECT_NE(Out.str().find("pts(p): 1\n"), std::string::npos)
      << "the session must keep serving after an oversized line";
  EXPECT_EQ(S.counters().OversizedLines, 1u);
}

TEST(ServeSession, BinaryGarbageNeverKillsTheSession) {
  ServeSession S(makeSnapshot(tinySystem()));
  Rng R(77);
  std::ostringstream InBuf;
  for (int Line = 0; Line != 200; ++Line) {
    size_t Len = R.nextBelow(40);
    for (size_t I = 0; I != Len; ++I) {
      char C = static_cast<char>(1 + R.nextBelow(255));
      if (C == '\n')
        C = ' ';
      InBuf << C;
    }
    InBuf << "\n";
  }
  InBuf << "pts p\nquit\n";
  std::istringstream In(InBuf.str());
  std::ostringstream Out;
  EXPECT_EQ(S.run(In, Out), 0);
  EXPECT_NE(Out.str().find("pts(p): 1\n"), std::string::npos)
      << "the session must still answer after 200 garbage lines";
}

TEST(ServeSession, UnknownAndMalformedCommandsKeepSessionAlive) {
  ServeSession S(makeSnapshot(tinySystem()));
  std::istringstream In("frobnicate\npts\npts p q\nalias p\nsleep nope\n"
                        "resolve\npts p\nquit\n");
  std::ostringstream Out;
  EXPECT_EQ(S.run(In, Out), 0);
  const std::string Text = Out.str();
  EXPECT_NE(Text.find("error: unknown command 'frobnicate'"),
            std::string::npos);
  EXPECT_NE(Text.find("error: pts expects one node"), std::string::npos);
  EXPECT_NE(Text.find("error: alias expects two nodes"), std::string::npos);
  EXPECT_NE(Text.find("error: sleep expects milliseconds"),
            std::string::npos);
  EXPECT_NE(Text.find("error: resolve expects one constraint file"),
            std::string::npos);
  EXPECT_NE(Text.find("pts(p): 1\n"), std::string::npos);
}

TEST(ServeSession, InjectedRequestFaultGetsStructuredErrorAndSessionLives) {
  FaultInjector::instance().disarmAll();
  ServeSession S(makeSnapshot(tinySystem()));
  FaultInjector::instance().armAfter(FaultSite::ServeRequest, 1);
  std::istringstream In("pts p\npts p\npts p\nquit\n");
  std::ostringstream Out;
  EXPECT_EQ(S.run(In, Out), 0);
  FaultInjector::instance().disarmAll();
  const std::string Text = Out.str();
  EXPECT_EQ(countOccurrences(Text, "ERR internal: injected fault"), 1u);
  EXPECT_EQ(countOccurrences(Text, "pts(p): 1\n"), 2u)
      << "requests before and after the fault must succeed";
  EXPECT_EQ(S.counters().InjectedFaults, 1u);
}

TEST(ServeSession, CheckCommandCertifiesServedSnapshot) {
  ServeSession S(makeSnapshot(tinySystem()));
  std::istringstream In("check\nstats\nquit\n");
  std::ostringstream Out;
  EXPECT_EQ(S.run(In, Out), 0);
  EXPECT_NE(Out.str().find("check: certified:"), std::string::npos);
  EXPECT_NE(Out.str().find("serve: requests"), std::string::npos)
      << "stats must include the serve hardening counters";
}

/// Base/delta pair for resolve tests: a program-shaped system split so
/// the delta genuinely needs propagation work.
struct ResolveFixture {
  Snapshot BaseSnap;
  std::string DeltaPath;
};

ResolveFixture makeResolveFixture(const std::string &Tag) {
  BenchmarkSpec Spec;
  Spec.NumFunctions = 10;
  Spec.VarsPerFunction = 8;
  Spec.NumGlobals = 16;
  Spec.Seed = 31;
  ConstraintSystem Full = generateBenchmark(Spec);
  DeltaSplit Split = splitDelta(Full, 0.3, /*Seed=*/5);
  ConstraintSystem DeltaCS = Full.cloneNodeTable();
  for (const Constraint &C : Split.Delta)
    DeltaCS.add(C);

  ResolveFixture F;
  F.BaseSnap = makeSnapshot(Split.Base);
  F.DeltaPath = ::testing::TempDir() + "serve_resolve_" + Tag + ".cons";
  EXPECT_TRUE(DeltaCS.writeToFile(F.DeltaPath));
  return F;
}

TEST(ServeSession, ResolveAdoptsPreciseResultAndServesIt) {
  ResolveFixture F = makeResolveFixture("precise");
  ServeSession S(F.BaseSnap);
  size_t BaseConstraints = S.servingSnapshot().CS.constraints().size();

  std::ostringstream Out;
  EXPECT_TRUE(S.handleLine("resolve " + F.DeltaPath, Out));
  EXPECT_NE(Out.str().find("resolved: outcome precise, attempt 1/3"),
            std::string::npos)
      << Out.str();
  EXPECT_GT(S.servingSnapshot().CS.constraints().size(), BaseConstraints)
      << "the delta must be folded into the served system";
  EXPECT_EQ(S.servingSnapshot().Outcome, SolveOutcome::Precise);

  // The adopted solution certifies against the adopted system, and the
  // session keeps serving queries.
  std::ostringstream Out2;
  EXPECT_TRUE(S.handleLine("check", Out2));
  EXPECT_NE(Out2.str().find("check: certified:"), std::string::npos);
  std::ostringstream Out3;
  EXPECT_TRUE(S.handleLine("pts 0", Out3));
  EXPECT_NE(Out3.str().find("pts(0):"), std::string::npos);
}

TEST(ServeSession, ResolveRetriesWithBackoffThenServesSoundFallback) {
  ResolveFixture F = makeResolveFixture("fallback");
  // Precise reference for the soundness contract below.
  ConstraintSystem FullCS = F.BaseSnap.CS;
  {
    ConstraintSystem DeltaCS;
    ASSERT_TRUE(ConstraintSystem::loadFromFile(F.DeltaPath, DeltaCS).ok());
    for (const Constraint &C : DeltaCS.constraints())
      FullCS.add(C);
  }
  PointsToSolution Precise = solve(FullCS, SolverKind::LCDHCD,
                                   PtsRepr::Bitmap);

  ServeOptions Opts;
  Opts.ResolveBudget.MaxPropagations = 1; // 1, 4, 16 across attempts.
  Opts.ResolveAttempts = 3;
  Opts.ResolveBackoff = 4.0;
  ServeSession S(F.BaseSnap, Opts);

  std::ostringstream Out;
  EXPECT_TRUE(S.handleLine("resolve " + F.DeltaPath, Out));
  EXPECT_NE(Out.str().find("resolved: outcome fallback after 3 attempts"),
            std::string::npos)
      << Out.str();
  EXPECT_EQ(S.counters().ResolveRetries, 2u)
      << "attempts 1 and 2 must have retried before degrading";

  // The served fallback covers the warm-start base plus the delta (the
  // base is OVS-reduced, so sizes compare against the snapshot, not the
  // pre-reduction system), certifies as a fixed point, and soundly
  // over-approximates the precise answer.
  const Snapshot &Served = S.servingSnapshot();
  EXPECT_EQ(Served.Outcome, SolveOutcome::Fallback);
  EXPECT_TRUE(Served.Sound);
  EXPECT_GT(Served.CS.constraints().size(),
            F.BaseSnap.CS.constraints().size());
  EXPECT_TRUE(checkSolution(Served.CS, Served.Solution).ok());
  EXPECT_TRUE(checkSuperset(Served.Solution, Precise).ok())
      << "a served fallback may never drop a precise points-to fact";
}

TEST(ServeSession, ResolveOnFallbackSnapshotIsRejectedStructurally) {
  Snapshot Snap = makeSnapshot(tinySystem());
  Snap.Outcome = SolveOutcome::Fallback; // Simulate serving a fallback.
  ServeSession S(std::move(Snap));
  std::ostringstream Out;
  EXPECT_TRUE(S.handleLine("resolve /nonexistent/delta.cons", Out));
  EXPECT_EQ(Out.str(), "error: resolve requires a precise snapshot\n");
}

#ifdef AG_PTATOOL_PATH

int runServePtatool(const std::string &Args) {
  std::string Cmd = std::string(AG_PTATOOL_PATH) + " " + Args;
  int Raw = std::system(Cmd.c_str());
  return WEXITSTATUS(Raw);
}

std::string slurpFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

TEST(ServeSessionE2e, ServeRecoversNewestValidGenerationFromDirectory) {
  std::string Dir = ::testing::TempDir();
  std::string Cons = Dir + "serve_dir.cons";
  std::string Store = Dir + "serve_dir.store";
  std::string InPath = Dir + "serve_dir.in";
  std::string OutPath = Dir + "serve_dir.out";
  (void)std::system(("rm -rf " + Store).c_str());
  ::mkdir(Store.c_str(), 0755);

  ASSERT_TRUE(tinySystem().writeToFile(Cons));
  ASSERT_EQ(runServePtatool("snapshot " + Cons + " " + Store +
                            " > /dev/null"),
            0);
  ASSERT_EQ(runServePtatool("snapshot " + Cons + " " + Store +
                            " > /dev/null"),
            0);
  // Corrupt the newest generation and leave temp litter; serve must fall
  // back to the intact generation.
  std::ofstream(Store + "/gen-2.snap", std::ios::trunc) << "garbage";
  std::ofstream(Store + "/gen-3.snap.tmp") << "torn";

  std::ofstream(InPath) << "pts p\nquit\n";
  ASSERT_EQ(runServePtatool("serve " + Store + " < " + InPath + " > " +
                            OutPath + " 2> /dev/null"),
            0);
  EXPECT_NE(slurpFile(OutPath).find("pts(p): 1\n"), std::string::npos);
}

TEST(ServeSessionE2e, OverloadAndFaultFlagsProduceStructuredErrors) {
  std::string Dir = ::testing::TempDir();
  std::string Cons = Dir + "serve_flags.cons";
  std::string Snap = Dir + "serve_flags.snap";
  std::string InPath = Dir + "serve_flags.in";
  std::string OutPath = Dir + "serve_flags.out";
  ASSERT_TRUE(tinySystem().writeToFile(Cons));
  ASSERT_EQ(runServePtatool("snapshot " + Cons + " " + Snap + " > /dev/null"),
            0);

  std::string ErrPath = Dir + "serve_flags.err";
  std::ofstream(InPath) << "sleep 200\npts p\npts p\npts p\npts p\nquit\n";
  // The stdin REPL is synchronous: queue flags without a socket are a
  // usage error naming the flags that make them meaningful. Shedding over
  // a socket is ServerE2e.MaxQueueShedsOverUnixSocket.
  ASSERT_EQ(runServePtatool("serve " + Snap + " --max-queue 1 < " + InPath +
                            " > " + OutPath + " 2> " + ErrPath),
            2);
  EXPECT_NE(slurpFile(ErrPath).find("--port or --unix-socket"),
            std::string::npos)
      << slurpFile(ErrPath);

  ASSERT_EQ(runServePtatool("serve " + Snap +
                            " --inject-fault serve_request:0 < " + InPath +
                            " > " + OutPath),
            0);
  EXPECT_NE(slurpFile(OutPath).find("ERR internal: injected fault"),
            std::string::npos);
}

#endif // AG_PTATOOL_PATH

} // namespace
