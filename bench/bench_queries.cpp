//===- bench_queries.cpp - Query serving + warm-start benchmark -----------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving-layer numbers: per suite, snapshot size and load time,
/// query throughput on a repeated mix (pointsTo / alias / pointedBy) on
/// the bare QueryEngine vs through a serve epoch's answer cache, the
/// warm-start re-solve of a constraint delta against a cold solve of the
/// full system, and the demand tier: the distribution of fresh
/// first-answer latencies over a pool sample (each node on its own
/// DemandSolver) vs a cold exhaustive solve — headline speedup on the
/// fastest targeted query, median and max published alongside — plus
/// the memo warm-up curve over a query sequence. Timed sections follow the
/// bench_paper discipline — the first repetition is the cold number,
/// the min of three the steady-state (min, not mean — noise is
/// one-sided). Results land in BENCH_queries.json (argv[2] or the
/// working directory). Exits non-zero only on correctness failures
/// (cached answers diverging from uncached, warm solution diverging from
/// cold, demand answers diverging from exhaustive); ratios are reported,
/// not gated.
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "adt/Rng.h"
#include "demand/DemandSolver.h"
#include "demand/DemandTier.h"
#include "obs/EventLog.h"
#include "obs/MetricsRegistry.h"
#include "obs/Obs.h"
#include "serve/AnswerCache.h"
#include "serve/IncrementalSolver.h"
#include "serve/QueryEngine.h"
#include "serve/ServeSession.h"
#include "serve/Server.h"
#include "serve/Snapshot.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace ag;
using namespace ag::bench;

namespace {

struct QueryRow {
  std::string Suite;
  uint64_t SnapshotBytes = 0;
  double SnapshotLoadMs = 0;
  double UncachedQps = 0;
  double CachedQps = 0;
  double CacheSpeedup = 0;
  double HitRate = 0;
  double ColdSolveMs = 0;
  double WarmSolveMs = 0;
  double WarmSpeedup = 0;
  uint64_t DeltaConstraints = 0;
  double DemandFirstMs = 0;     ///< Best targeted first answer in the sample.
  double DemandMedianMs = 0;    ///< Median fresh first answer in the sample.
  double DemandMaxMs = 0;       ///< Worst fresh first answer in the sample.
  double DemandColdMs = 0;      ///< Cold exhaustive solve + same answer.
  double DemandSpeedup = 0;     ///< DemandColdMs / DemandFirstMs.
  uint64_t DemandSteps = 0;     ///< Deduction steps of the targeted query.
  unsigned DemandSampleN = 0;   ///< Pool nodes sampled for the distribution.
  std::string WarmupJson;       ///< Memo warm-up curve (JSON array).
  std::string MetricsJson; ///< Compact ag.metrics.v8 object for the suite.
};

void appendJsonEscaped(std::string &Out, const std::string &S) {
  for (char C : S)
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else {
      Out += C;
    }
}

/// Discards everything written to it — keeps reply formatting in the
/// timed path without growing a buffer.
struct NullBuffer : std::streambuf {
  int overflow(int C) override { return C; }
};

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// One repeated query mix: \p NumQueries drawn from a small pool so keys
/// repeat heavily (the serving workload caches exist for). With \p Cache
/// every query goes through it, keyed and probed as a serve epoch does;
/// without, through the bare engine. Returns queries/sec; accumulates a
/// result fingerprint into \p Fingerprint so cached and uncached runs
/// can be compared for identical answers.
double runMix(QueryEngine &Engine, AnswerCache *Cache,
              const std::vector<NodeId> &Pool, size_t NumQueries,
              uint64_t Seed, uint64_t &Fingerprint) {
  auto Through = [&](uint64_t Key, auto Compute) {
    if (!Cache)
      return Compute();
    if (std::optional<Answer> Hit = probeAnswer(*Cache, Key))
      return *Hit;
    Answer Fresh = Compute();
    Cache->put(Key, Fresh);
    return Fresh;
  };
  Rng R(Seed);
  uint64_t Fp = 0;
  auto T0 = std::chrono::steady_clock::now();
  for (size_t I = 0; I != NumQueries; ++I) {
    NodeId A = Pool[R.nextBelow(Pool.size())];
    switch (R.nextBelow(4)) {
    case 0:
    case 1: { // 50% pointsTo.
      Answer Ans =
          Through(answerKey(AnswerKind::PointsTo, Engine.canonId(A)),
                  [&] { return Answer{Engine.pointsTo(A)}; });
      Fp = Fp * 1099511628211ull + Ans.List->size();
      break;
    }
    case 2: { // 25% alias.
      NodeId B = Pool[R.nextBelow(Pool.size())];
      Answer Ans = Through(
          answerKey(AnswerKind::Alias, Engine.canonId(A), Engine.canonId(B)),
          [&] { return Answer{nullptr, Engine.alias(A, B)}; });
      Fp = Fp * 1099511628211ull + (Ans.Verdict ? 1 : 2);
      break;
    }
    default: { // 25% pointedBy.
      bool Ok = true;
      Answer Ans = Through(answerKey(AnswerKind::PointedBy, A), [&] {
        Answer Fresh;
        Ok = Engine.pointedBy(A, Fresh.List).ok();
        return Fresh;
      });
      if (!Ok)
        return 0; // Unbudgeted here; cannot trip.
      Fp = Fp * 1099511628211ull + Ans.List->size();
      break;
    }
    }
  }
  double Seconds = secondsSince(T0);
  Fingerprint = Fp;
  return Seconds > 0 ? double(NumQueries) / Seconds : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  double Scale = scaleFromArgs(Argc, Argv);
  std::string OutPath =
      Argc > 2 ? Argv[2] : std::string("BENCH_queries.json");
  printHeader("Query serving: snapshots, cache, warm-start re-solve",
              "serving extension", Scale);

  constexpr size_t NumQueries = 40000;
  constexpr size_t PoolSize = 128;
  constexpr double DeltaFrac = 0.05;
  // First repetition = cold, min of all = steady state (bench_paper
  // discipline).
  constexpr int BenchReps = 3;

  std::vector<Suite> Suites = loadSuites(Scale);
  std::vector<QueryRow> Rows;
  bool Correct = true;

  // One ag.metrics.v8 snapshot per suite covering the whole serving
  // story: snapshot load, query mixes (LRU hits/misses), cold solve and
  // warm re-solve. Embedded into the JSON rows below.
  obs::setMetricsEnabled(true);

  for (const Suite &S : Suites) {
    obs::MetricsRegistry::instance().reset();
    QueryRow Row;
    Row.Suite = S.Name;

    // --- Snapshot: build, persist, time the load. -----------------------
    Snapshot Snap;
    Snap.Solution = solve(S.Reduced, SolverKind::LCDHCD, PtsRepr::Bitmap,
                          nullptr, SolverOptions(), &S.Rep);
    Snap.CS = S.Reduced;
    Snap.SeedReps = S.Rep;
    std::string SnapPath = OutPath + "." + S.Name + ".snap.tmp";
    if (Status St = writeSnapshotFile(Snap, SnapPath); !St.ok()) {
      std::fprintf(stderr, "error: %s\n", St.toString().c_str());
      return 1;
    }
    Snapshot Loaded;
    auto T0 = std::chrono::steady_clock::now();
    if (Status St = readSnapshotFile(SnapPath, Loaded); !St.ok()) {
      std::fprintf(stderr, "error: %s\n", St.toString().c_str());
      return 1;
    }
    Row.SnapshotLoadMs = secondsSince(T0) * 1e3;
    std::remove(SnapPath.c_str());
    {
      std::string Bytes;
      (void)writeSnapshotBytes(Snap, Bytes);
      Row.SnapshotBytes = Bytes.size();
    }

    // --- Query throughput, bare engine vs through the answer cache. ------
    const uint32_t N = Loaded.CS.numNodes();
    std::vector<NodeId> Pool;
    Rng PoolR(S.Name.size() * 131 + 7);
    for (size_t I = 0; I != PoolSize; ++I)
      Pool.push_back(static_cast<NodeId>(PoolR.nextBelow(N)));

    QueryEngine Engine(std::move(Loaded));
    AnswerCache Cache(AnswerCacheEntries);

    uint64_t FpUncached = 0, FpCached = 0;
    Row.UncachedQps =
        runMix(Engine, nullptr, Pool, NumQueries, 1234, FpUncached);
    Row.CachedQps = runMix(Engine, &Cache, Pool, NumQueries, 1234, FpCached);
    for (int Rep = 1; Rep != BenchReps; ++Rep) {
      uint64_t Fp = 0;
      Row.UncachedQps = std::max(
          Row.UncachedQps, runMix(Engine, nullptr, Pool, NumQueries, 1234, Fp));
      Row.CachedQps = std::max(
          Row.CachedQps, runMix(Engine, &Cache, Pool, NumQueries, 1234, Fp));
    }
    Row.CacheSpeedup =
        Row.UncachedQps > 0 ? Row.CachedQps / Row.UncachedQps : 0;
    CacheStats CS = Cache.stats();
    Row.HitRate = CS.Hits + CS.Misses > 0
                      ? double(CS.Hits) / double(CS.Hits + CS.Misses)
                      : 0;
    if (FpUncached != FpCached) {
      std::fprintf(stderr, "BUG: cached answers diverge on %s\n",
                   S.Name.c_str());
      Correct = false;
    }

    // --- Warm-start re-solve vs cold solve of the full system. ----------
    DeltaSplit Split = splitDelta(S.Reduced, DeltaFrac, 4242);
    Row.DeltaConstraints = Split.Delta.size();
    Snapshot BaseSnap;
    BaseSnap.Solution = solve(Split.Base, SolverKind::LCDHCD);
    BaseSnap.CS = Split.Base;
    BaseSnap.SeedReps.resize(Split.Base.numNodes());
    for (NodeId V = 0; V != Split.Base.numNodes(); ++V)
      BaseSnap.SeedReps[V] = V;

    ConstraintSystem FullCS = Split.Base;
    for (const Constraint &C : Split.Delta)
      FullCS.add(C);
    T0 = std::chrono::steady_clock::now();
    PointsToSolution ColdSol = solve(FullCS, SolverKind::LCDHCD);
    Row.ColdSolveMs = secondsSince(T0) * 1e3;
    for (int Rep = 1; Rep != BenchReps; ++Rep) {
      T0 = std::chrono::steady_clock::now();
      PointsToSolution Again = solve(FullCS, SolverKind::LCDHCD);
      Row.ColdSolveMs = std::min(Row.ColdSolveMs, secondsSince(T0) * 1e3);
    }

    // Each repetition re-solves from a fresh copy of the base snapshot —
    // re-resolving an already-folded solver would dedup the whole delta
    // and time nothing.
    WarmStartResult R;
    for (int Rep = 0; Rep != BenchReps; ++Rep) {
      Snapshot BaseCopy = BaseSnap;
      IncrementalSolver Inc(std::move(BaseCopy));
      T0 = std::chrono::steady_clock::now();
      WarmStartResult RepR = Inc.resolve(Split.Delta);
      double Ms = secondsSince(T0) * 1e3;
      if (Rep == 0) {
        Row.WarmSolveMs = Ms;
        R = std::move(RepR);
      } else {
        Row.WarmSolveMs = std::min(Row.WarmSolveMs, Ms);
      }
    }
    Row.WarmSpeedup =
        Row.WarmSolveMs > 0 ? Row.ColdSolveMs / Row.WarmSolveMs : 0;
    if (R.Outcome != SolveOutcome::Precise || !(R.Solution == ColdSol)) {
      std::fprintf(stderr, "BUG: warm re-solve diverges on %s\n",
                   S.Name.c_str());
      Correct = false;
    }

    // --- Demand tier: first-answer latency vs a cold full solve. --------
    // The demand claim is about time-to-first-answer: a fresh solver
    // deduces one node's set without solving the system. How much that
    // buys depends entirely on the query's backward slice, so the bench
    // measures a distribution over a pool sample — each node queried on
    // its own fresh solver, min-of-3 per node — and reports
    // first_query_ms as the fastest targeted query (the tier's design
    // point: a client asking about one local pointer) alongside the
    // median and worst case, where dense graphs degenerate to a
    // whole-graph frontier and demand approaches the cost of a solve.
    {
      const size_t SampleN = std::min<size_t>(32, Pool.size());
      std::vector<double> SampleMs(SampleN, 0);
      std::vector<uint64_t> SampleSteps(SampleN, 0);
      PointsToSolution ReducedSol = solve(S.Reduced, SolverKind::LCDHCD);
      for (size_t Q = 0; Q != SampleN; ++Q) {
        NodeId Node = Pool[Q];
        for (int Rep = 0; Rep != BenchReps; ++Rep) {
          const uint64_t Steps0 =
              obs::MetricsRegistry::instance().counterValue(
                  obs::Counter::DemandSteps);
          DemandSolver DS(S.Reduced);
          SparseBitVector Bits;
          T0 = std::chrono::steady_clock::now();
          Status St = DS.pointsTo(Node, nullptr, Bits);
          double Ms = secondsSince(T0) * 1e3;
          if (!St.ok()) {
            std::fprintf(stderr, "BUG: demand pointsTo failed on %s: %s\n",
                         S.Name.c_str(), St.toString().c_str());
            Correct = false;
            break;
          }
          if (Rep == 0) {
            SampleMs[Q] = Ms;
            SampleSteps[Q] = obs::MetricsRegistry::instance().counterValue(
                                 obs::Counter::DemandSteps) -
                             Steps0;
            SparseBitVector ExactBits;
            for (NodeId O : ReducedSol.pointsToVector(Node))
              ExactBits.set(O);
            if (!(Bits == ExactBits)) {
              std::fprintf(stderr,
                           "BUG: demand answer diverges from exhaustive on "
                           "%s node %u\n",
                           S.Name.c_str(), Node);
              Correct = false;
            }
          } else {
            SampleMs[Q] = std::min(SampleMs[Q], Ms);
          }
        }
      }
      size_t Best = 0;
      for (size_t Q = 1; Q != SampleN; ++Q)
        if (SampleMs[Q] < SampleMs[Best])
          Best = Q;
      std::vector<double> Sorted = SampleMs;
      std::sort(Sorted.begin(), Sorted.end());
      Row.DemandSampleN = static_cast<unsigned>(SampleN);
      Row.DemandFirstMs = Sorted.empty() ? 0 : Sorted.front();
      Row.DemandMedianMs = Sorted.empty() ? 0 : Sorted[Sorted.size() / 2];
      Row.DemandMaxMs = Sorted.empty() ? 0 : Sorted.back();
      Row.DemandSteps = SampleSteps[Best];
      NodeId TargetQ = Pool[Best];
      for (int Rep = 0; Rep != BenchReps; ++Rep) {
        T0 = std::chrono::steady_clock::now();
        PointsToSolution Exact = solve(S.Reduced, SolverKind::LCDHCD);
        volatile size_t Touch = Exact.pointsToVector(TargetQ).size();
        (void)Touch;
        double Ms = secondsSince(T0) * 1e3;
        Row.DemandColdMs =
            Rep == 0 ? Ms : std::min(Row.DemandColdMs, Ms);
      }
      Row.DemandSpeedup =
          Row.DemandFirstMs > 0 ? Row.DemandColdMs / Row.DemandFirstMs : 0;
    }

    // --- Demand memo warm-up: certified classes over a query sequence
    // against one tier. ---------------------------------------------------
    {
      DemandTier Tier(S.Reduced);
      std::string Curve = "[";
      size_t Done = 0;
      constexpr size_t Batch = 16;
      for (size_t I = 0; I != Pool.size(); ++I) {
        DemandTier::IdList List;
        (void)Tier.pointsTo(Pool[I], List);
        if (++Done % Batch == 0 || I + 1 == Pool.size()) {
          if (Curve.size() > 1)
            Curve += ", ";
          Curve += "{\"queries\": " + std::to_string(Done) +
                   ", \"memo_complete\": " +
                   std::to_string(Tier.memoCompleteCount()) + "}";
        }
      }
      Curve += "]";
      Row.WarmupJson = std::move(Curve);
    }

    std::printf("%-14s load %6.2f ms  qps %9.0f -> %9.0f (x%5.1f, hit "
                "%4.1f%%)  re-solve %8.2f -> %8.2f ms (x%5.1f, %llu new)\n",
                S.Name.c_str(), Row.SnapshotLoadMs, Row.UncachedQps,
                Row.CachedQps, Row.CacheSpeedup, Row.HitRate * 100,
                Row.ColdSolveMs, Row.WarmSolveMs, Row.WarmSpeedup,
                static_cast<unsigned long long>(Row.DeltaConstraints));
    std::printf("%-14s demand first-answer %8.3f ms (median %8.3f, max "
                "%8.2f over %u) vs cold solve %8.2f ms (x%6.1f, %llu "
                "steps)\n",
                "", Row.DemandFirstMs, Row.DemandMedianMs, Row.DemandMaxMs,
                Row.DemandSampleN, Row.DemandColdMs, Row.DemandSpeedup,
                static_cast<unsigned long long>(Row.DemandSteps));
    Row.MetricsJson =
        obs::MetricsRegistry::instance().renderJson(/*Compact=*/true);
    Rows.push_back(std::move(Row));
  }
  obs::setMetricsEnabled(false);

  // --- Request-telemetry overhead guardrail. ----------------------------
  // Drives the same REPL mix through ServeSession::handleLine twice: all
  // observability channels off vs the full serve telemetry (metrics +
  // latency quantiles + wide events into an async EventLog). The ratio
  // bounds what per-request tracing costs on the cached serving hot path
  // and is gated by tools/check_perf.py.
  const Suite *Guard = &Suites.front();
  for (const Suite &S : Suites)
    if (S.RawConstraints > Guard->RawConstraints)
      Guard = &S;
  constexpr size_t TelemetryRequests = 20000;
  constexpr int TelemetryReps = 3;
  double TelemetryOffMs = 0, TelemetryOnMs = 0;
  {
    Snapshot Snap;
    Snap.Solution = solve(Guard->Reduced, SolverKind::LCDHCD,
                          PtsRepr::Bitmap, nullptr, SolverOptions(),
                          &Guard->Rep);
    Snap.CS = Guard->Reduced;
    Snap.SeedReps = Guard->Rep;

    const uint32_t N = Snap.CS.numNodes();
    std::vector<std::string> Lines;
    Rng MixR(97);
    for (size_t I = 0; I != TelemetryRequests; ++I) {
      uint32_t A = uint32_t(MixR.nextBelow(N));
      switch (MixR.nextBelow(4)) {
      case 0:
      case 1:
        Lines.push_back("pts " + std::to_string(A));
        break;
      case 2:
        Lines.push_back("alias " + std::to_string(A) + " " +
                        std::to_string(uint32_t(MixR.nextBelow(N))));
        break;
      default:
        Lines.push_back("pointedby " + std::to_string(A));
        break;
      }
    }

    NullBuffer Discard;
    std::ostream Null(&Discard);
    auto RunReps = [&](ServeSession &Session) {
      double Best = 0;
      for (int Rep = 0; Rep != TelemetryReps; ++Rep) {
        auto T0 = std::chrono::steady_clock::now();
        for (const std::string &L : Lines)
          Session.handleLine(L, Null);
        double Ms = secondsSince(T0) * 1e3;
        if (Rep == 0 || Ms < Best)
          Best = Ms;
      }
      return Best;
    };

    uint32_t SavedChannels = obs::ChannelBits.load(std::memory_order_relaxed);
    obs::ChannelBits.store(0, std::memory_order_relaxed);
    {
      Snapshot Copy = Snap;
      ServeSession Session(std::move(Copy));
      TelemetryOffMs = RunReps(Session);
    }

    obs::setMetricsEnabled(true);
    obs::MetricsRegistry::instance().reset();
    {
      NullBuffer EventDiscard;
      std::ostream EventNull(&EventDiscard);
      auto Events = std::make_shared<obs::EventLog>(EventNull);
      ServeOptions SO;
      SO.Events = Events;
      ServeSession Session(std::move(Snap), SO);
      TelemetryOnMs = RunReps(Session);
      Events->close();
    }
    obs::MetricsRegistry::instance().reset();
    obs::ChannelBits.store(SavedChannels, std::memory_order_relaxed);
  }
  double TelemetryRatio =
      TelemetryOffMs > 0 ? TelemetryOnMs / TelemetryOffMs : 0;
  std::printf("\ntelemetry overhead (%s, %zu requests, best of %d): off "
              "%.2f ms, events+quantiles %.2f ms, ratio %.3f\n",
              Guard->Name.c_str(), TelemetryRequests, TelemetryReps,
              TelemetryOffMs, TelemetryOnMs, TelemetryRatio);

  // --- Concurrent serve: aggregate QPS vs connection count. -------------
  // The networked front-end keeps each connection's pipeline ordered, so
  // one client exercises at most one worker at a time and aggregate
  // throughput has to come from multiplexing across connections. Each
  // client pipelines a seeded cached-query mix over loopback TCP and
  // reads to EOF (the trailing `quit` makes the server close the
  // connection); QPS is total requests / wall seconds, best of three reps
  // per level — the first rep doubles as result-cache warm-up.
  constexpr unsigned ServeLevels[] = {1, 4, 8};
  constexpr size_t ServeNumLevels = sizeof(ServeLevels) / sizeof(ServeLevels[0]);
  constexpr unsigned ServeMaxClients = 8;
  constexpr unsigned ServeWorkers = 8;
  constexpr size_t ServeQueriesPerClient = 2000;
  constexpr int ServeReps = 3;
  double ServeQpsByLevel[ServeNumLevels] = {};
  bool ServeOk = true;
  {
    Snapshot Snap;
    Snap.Solution = solve(Guard->Reduced, SolverKind::LCDHCD,
                          PtsRepr::Bitmap, nullptr, SolverOptions(),
                          &Guard->Rep);
    Snap.CS = Guard->Reduced;
    Snap.SeedReps = Guard->Rep;
    const uint32_t N = Snap.CS.numNodes();
    ServeSession Session(std::move(Snap));
    ServerOptions SrvOpts;
    SrvOpts.Workers = ServeWorkers;
    Server Srv(Session, SrvOpts);
    Status St = Srv.start();
    if (!St.ok()) {
      std::fprintf(stderr, "error: concurrent serve bench: %s\n",
                   St.toString().c_str());
      ServeOk = false;
    } else {
      const uint16_t Port = Srv.port();
      // Pool-heavy cached mix (the workload the result cache exists
      // for), one deterministic script per client seed.
      std::vector<uint32_t> ServePool;
      Rng ServePoolR(53);
      for (size_t I = 0; I != PoolSize; ++I)
        ServePool.push_back(uint32_t(ServePoolR.nextBelow(N)));
      auto MakeScript = [&](uint64_t Seed) {
        std::string Script;
        Rng MixR(1000 + Seed);
        for (size_t I = 0; I != ServeQueriesPerClient; ++I) {
          uint32_t A = ServePool[MixR.nextBelow(ServePool.size())];
          switch (MixR.nextBelow(4)) {
          case 0:
          case 1:
            Script += "pts " + std::to_string(A) + "\n";
            break;
          case 2:
            Script += "alias " + std::to_string(A) + " " +
                      std::to_string(
                          ServePool[MixR.nextBelow(ServePool.size())]) +
                      "\n";
            break;
          default:
            Script += "pointedby " + std::to_string(A) + "\n";
            break;
          }
        }
        Script += "quit\n";
        return Script;
      };
      const std::string Banner = Session.bannerText();
      const size_t BannerLines =
          size_t(std::count(Banner.begin(), Banner.end(), '\n'));
      // Sends the whole pipeline, then counts reply lines until EOF. The
      // server's poll thread drains our sends independently of the
      // workers, so the blocking one-directional phases cannot deadlock.
      auto RunClient = [&](const std::string &Script, size_t &ReplyLines) {
        int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (Fd < 0)
          return false;
        sockaddr_in Addr = {};
        Addr.sin_family = AF_INET;
        Addr.sin_port = htons(Port);
        Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)) != 0) {
          ::close(Fd);
          return false;
        }
        size_t Sent = 0;
        while (Sent < Script.size()) {
          ssize_t K = ::send(Fd, Script.data() + Sent,
                             Script.size() - Sent, MSG_NOSIGNAL);
          if (K <= 0) {
            ::close(Fd);
            return false;
          }
          Sent += size_t(K);
        }
        char Buf[1 << 16];
        size_t Count = 0;
        for (;;) {
          ssize_t K = ::recv(Fd, Buf, sizeof(Buf), 0);
          if (K <= 0)
            break;
          Count += size_t(std::count(Buf, Buf + K, '\n'));
        }
        ::close(Fd);
        ReplyLines = Count;
        return true;
      };
      std::vector<std::string> Scripts;
      for (unsigned C = 0; C != ServeMaxClients; ++C)
        Scripts.push_back(MakeScript(C));
      for (size_t L = 0; L != ServeNumLevels && ServeOk; ++L) {
        const unsigned Clients = ServeLevels[L];
        double BestQps = 0;
        for (int Rep = 0; Rep != ServeReps && ServeOk; ++Rep) {
          std::vector<std::thread> Threads;
          std::vector<size_t> Replies(Clients, 0);
          std::vector<char> ClientOk(Clients, 0);
          auto T0 = std::chrono::steady_clock::now();
          for (unsigned C = 0; C != Clients; ++C)
            Threads.emplace_back([&, C] {
              ClientOk[C] = RunClient(Scripts[C], Replies[C]) ? 1 : 0;
            });
          for (std::thread &T : Threads)
            T.join();
          double Secs = secondsSince(T0);
          for (unsigned C = 0; C != Clients; ++C)
            // Every query answers with at least one line on top of the
            // banner; fewer means dropped or truncated replies.
            if (!ClientOk[C] ||
                Replies[C] < ServeQueriesPerClient + BannerLines) {
              std::fprintf(stderr,
                           "error: concurrent serve client %u: ok=%d, "
                           "%zu reply lines (want >= %zu)\n",
                           C, int(ClientOk[C]), Replies[C],
                           ServeQueriesPerClient + BannerLines);
              ServeOk = false;
            }
          double Qps = Secs > 0 ? double(Clients) *
                                      double(ServeQueriesPerClient) / Secs
                                : 0;
          BestQps = std::max(BestQps, Qps);
        }
        ServeQpsByLevel[L] = BestQps;
        std::printf("concurrent serve (%s): %u client%s -> %.0f qps\n",
                    Guard->Name.c_str(), Clients, Clients == 1 ? "" : "s",
                    BestQps);
      }
    }
    Srv.stop();
  }
  double ServeScaling = ServeQpsByLevel[0] > 0
                            ? ServeQpsByLevel[ServeNumLevels - 1] /
                                  ServeQpsByLevel[0]
                            : 0;
  std::printf("concurrent serve scaling 1 -> %u clients: %.2fx (%u cpus, "
              "%u workers)\n",
              ServeLevels[ServeNumLevels - 1], ServeScaling,
              std::thread::hardware_concurrency(), ServeWorkers);

  std::string Json = "{\n";
  Json += "  \"scale\": " + std::to_string(Scale) + ",\n";
  Json += "  \"queries_per_mix\": " + std::to_string(NumQueries) + ",\n";
  Json += "  \"pool_size\": " + std::to_string(PoolSize) + ",\n";
  Json += "  \"delta_frac\": " + std::to_string(DeltaFrac) + ",\n";
  Json += "  \"suites\": [\n";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const QueryRow &R = Rows[I];
    Json += "    {\"suite\": \"";
    appendJsonEscaped(Json, R.Suite);
    Json += "\", \"snapshot_bytes\": " + std::to_string(R.SnapshotBytes) +
            ", \"snapshot_load_ms\": " + std::to_string(R.SnapshotLoadMs) +
            ", \"uncached_qps\": " + std::to_string(R.UncachedQps) +
            ", \"cached_qps\": " + std::to_string(R.CachedQps) +
            ", \"cache_speedup\": " + std::to_string(R.CacheSpeedup) +
            ", \"cache_hit_rate\": " + std::to_string(R.HitRate) +
            ", \"cold_resolve_ms\": " + std::to_string(R.ColdSolveMs) +
            ", \"warm_resolve_ms\": " + std::to_string(R.WarmSolveMs) +
            ", \"warm_speedup\": " + std::to_string(R.WarmSpeedup) +
            ", \"delta_constraints\": " + std::to_string(R.DeltaConstraints) +
            ", \"demand\": {\"first_query_ms\": " +
            std::to_string(R.DemandFirstMs) +
            ", \"median_query_ms\": " + std::to_string(R.DemandMedianMs) +
            ", \"max_query_ms\": " + std::to_string(R.DemandMaxMs) +
            ", \"sampled_queries\": " + std::to_string(R.DemandSampleN) +
            ", \"cold_solve_ms\": " + std::to_string(R.DemandColdMs) +
            ", \"speedup\": " + std::to_string(R.DemandSpeedup) +
            ", \"steps\": " + std::to_string(R.DemandSteps) +
            ", \"warmup\": " + R.WarmupJson + "}" +
            ", \"metrics\": " + R.MetricsJson + "}";
    Json += I + 1 == Rows.size() ? "\n" : ",\n";
  }
  Json += "  ],\n";
  Json += "  \"telemetry_overhead\": {\"suite\": \"";
  appendJsonEscaped(Json, Guard->Name);
  Json += "\", \"requests\": " + std::to_string(TelemetryRequests) +
          ", \"reps\": " + std::to_string(TelemetryReps) +
          ", \"disabled_best_ms\": " + std::to_string(TelemetryOffMs) +
          ", \"enabled_best_ms\": " + std::to_string(TelemetryOnMs) +
          ", \"enabled_over_disabled\": " + std::to_string(TelemetryRatio) +
          "},\n";
  Json += "  \"concurrent_serve\": {\"suite\": \"";
  appendJsonEscaped(Json, Guard->Name);
  Json += "\", \"cpus\": " +
          std::to_string(std::thread::hardware_concurrency()) +
          ", \"workers\": " + std::to_string(ServeWorkers) +
          ", \"queries_per_client\": " +
          std::to_string(ServeQueriesPerClient) +
          ", \"reps\": " + std::to_string(ServeReps) + ", \"levels\": [";
  for (size_t L = 0; L != ServeNumLevels; ++L) {
    Json += std::string(L ? ", " : "") +
            "{\"clients\": " + std::to_string(ServeLevels[L]) +
            ", \"qps\": " + std::to_string(ServeQpsByLevel[L]) + "}";
  }
  Json += "], \"scaling_1_to_" + std::to_string(ServeLevels[ServeNumLevels - 1]) +
          "\": " + std::to_string(ServeScaling) +
          ", \"ok\": " + (ServeOk ? "true" : "false") + "}\n";
  Json += "}\n";

  if (std::FILE *F = std::fopen(OutPath.c_str(), "w")) {
    std::fputs(Json.c_str(), F);
    std::fclose(F);
    std::printf("\nwrote %s\n", OutPath.c_str());
  } else {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::printf("cached == uncached answers, warm == cold solutions: %s\n",
              Correct ? "yes" : "NO — BUG");
  if (!ServeOk)
    std::printf("concurrent serve clients all answered: NO — BUG\n");
  return Correct && ServeOk ? 0 : 1;
}
