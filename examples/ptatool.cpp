//===- ptatool.cpp - Constraint-file driver -------------------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A command-line driver around the constraint-file workflow, mirroring how
/// the paper's pipeline separated constraint generation (CIL) from solving:
///
///   ptatool gen <out-dir> [scale] [--delta-frac <f>]
///                                        write the six suite files; with
///                                        --delta-frac also write
///                                        <suite>.base.cons/<suite>.delta.cons
///   ptatool gen-c <file.c> <out.cons>    constraints from mini-C source
///   ptatool solve <file.cons> [algo]     solve and print summary stats
///   ptatool query <file.cons> ...        one demand-driven query, no full
///                                        solve: <a> <b> (may-alias),
///                                        --pts <v>, or --pointed-by <o>
///   ptatool snapshot <file.cons> <out.snap> [algo]
///                                        solve and persist the solution
///   ptatool serve <file.snap|dir|file.cons>
///                                        line-protocol query REPL on stdin;
///                                        a .cons input serves demand-first
///                                        with no solve up front
///   ptatool resolve <file.snap> <delta.cons>
///                                        warm-start re-solve with a delta
///   ptatool check <file.cons|file.snap> [algo]
///                                        solve (or load) and certify the
///                                        solution is a fixed point; --all
///                                        cross-checks every solver kind
///
/// solve, snapshot and resolve accept resource-budget flags (--timeout,
/// --max-mem-mb, --max-steps, --no-fallback) and report how the run
/// concluded through their exit code:
///   0  precise solve within budget
///   1  error (bad input, unreadable file)
///   2  usage
///   3  budget tripped; the Steensgaard fallback solution was used
///   4  budget tripped with --no-fallback; partial (unsound) state printed
///   5  reserved (formerly a stall-watchdog trip); never returned and
///      never reused
/// snapshot writes its output for exit codes 0 and 3 (a fallback snapshot
/// still serves queries soundly, but cannot seed `resolve`) and writes
/// nothing on 4. When snapshot's output path is an existing directory it
/// writes a new crash-safe generation (gen-N.snap, --keep <n> retained)
/// and serve recovers the newest valid generation from such a directory.
/// serve exits 0 on EOF or `quit`, 1 if the snapshot cannot be loaded;
/// its stdin REPL is synchronous and hardened (bounded lines, structured
/// errors) and takes the budget flags above as the per-`resolve` budget
/// (retried with backoff, see --attempts/--backoff). Load-shedding
/// (--max-queue/--deadline-ms) belongs to the networked server only and
/// is a usage error without --port/--unix-socket. --inject-fault
/// <site>:<n> arms a FaultInjector site for crash/fault drills on any
/// command.
///
//===----------------------------------------------------------------------===//

#include "adt/ElementArena.h"
#include "adt/FaultInjector.h"
#include "adt/InternTable.h"
#include "check/Differential.h"
#include "check/SolutionChecker.h"
#include "constraints/OfflineVariableSubstitution.h"
#include "demand/DemandTier.h"
#include "frontend/ConstraintGen.h"
#include "obs/EventLog.h"
#include "obs/FlightRecorder.h"
#include "obs/MetricsHttp.h"
#include "obs/MetricsRegistry.h"
#include "obs/OpenMetrics.h"
#include "obs/QuantileWindow.h"
#include "obs/TraceRecorder.h"
#include "serve/IncrementalSolver.h"
#include "serve/QueryEngine.h"
#include "serve/Server.h"
#include "serve/ServeSession.h"
#include "serve/Snapshot.h"
#include "serve/SnapshotStore.h"
#include "solvers/Solve.h"
#include "workload/WorkloadGen.h"

#include <atomic>
#include <condition_variable>
#include <iostream>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace ag;

namespace {

// Exit codes (documented in the file header and DESIGN.md).
constexpr int ExitPrecise = 0;
constexpr int ExitError = 1;
constexpr int ExitUsage = 2;
constexpr int ExitFallback = 3;
constexpr int ExitPartial = 4;
// 5 is reserved; see the file header.

/// Maps a governed outcome to the exit code.
int outcomeExit(SolveOutcome Outcome) {
  if (Outcome == SolveOutcome::Fallback)
    return ExitFallback;
  if (Outcome == SolveOutcome::Partial)
    return ExitPartial;
  return ExitPrecise;
}

int usage() {
  std::fprintf(stderr,
               "usage: ptatool gen <out-dir> [scale] [--delta-frac <f>]\n"
               "       ptatool gen-c <file.c> <out.cons>\n"
               "       ptatool solve <file.cons> [HT|PKH|BLQ|LCD|HCD|"
               "HT+HCD|PKH+HCD|BLQ+HCD|LCD+HCD|Naive]\n"
               "               [--timeout <seconds>] [--max-mem-mb <mb>]\n"
               "               [--max-steps <n>] [--no-fallback] [--stats]\n"
               "               [--trace-out=<file>]\n"
               "               [--metrics-out=<file>] "
               "[--metrics-interval-ms=<n>]\n"
               "       ptatool query <file.cons> <a> <b> | --pts <v> | "
               "--pointed-by <o>\n"
               "               [algo] [budget flags]   (demand-driven; no "
               "full solve)\n"
               "       ptatool snapshot <file.cons> <out.snap|dir> [algo] "
               "[budget flags] [--keep <n>]\n"
               "       ptatool serve <file.snap|dir> [--attempts <n>] "
               "[--backoff <f>] [budget flags]\n"
               "               [--events-out=<file>] [--metrics-port <n>] "
               "[--slow-ms <n>]\n"
               "               [--port <n> | --unix-socket <path>] "
               "[--max-conns <n>]\n"
               "               [--idle-timeout-ms <n>] [--max-queue <n>] "
               "[--deadline-ms <n>]\n"
               "               (--max-queue/--deadline-ms need "
               "--port/--unix-socket)\n"
               "               (--metrics-port/--port 0 picks an ephemeral "
               "port; the bound\n"
               "                endpoint is printed to stderr; without "
               "--port/--unix-socket\n"
               "                the REPL reads stdin)\n"
               "       ptatool resolve <file.snap> <delta.cons> "
               "[budget flags]\n"
               "       ptatool check <file.cons|file.snap> [algo] [--all] "
               "[--bdd]\n"
               "budget flags: --timeout <s> --max-mem-mb <mb> --max-steps "
               "<n> --no-fallback\n"
               "              --inject-fault <site>:<n>\n"
               "solve/snapshot/resolve exit codes: 0 precise, 1 error, "
               "2 usage, 3 fallback, 4 partial\n"
               "query exit codes: 0 demand/precise, 1 error, 2 usage, "
               "3 escalated to fallback,\n"
               "                  4 budget tripped with --no-fallback\n");
  return ExitUsage;
}

/// Strictly parses a positive, finite double; rejects trailing junk.
bool parsePositiveDouble(const char *Text, double &Out) {
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(Text, &End);
  if (End == Text || *End != '\0' || errno == ERANGE)
    return false;
  if (!std::isfinite(V) || V <= 0)
    return false;
  Out = V;
  return true;
}

/// Strictly parses a positive decimal integer; rejects trailing junk.
bool parsePositiveU64(const char *Text, uint64_t &Out) {
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (End == Text || *End != '\0' || errno == ERANGE)
    return false;
  if (V == 0 || Text[0] == '-')
    return false;
  Out = V;
  return true;
}

bool parseKind(const std::string &Name, SolverKind &Out) {
  for (SolverKind K : AllSolverKinds)
    if (Name == solverKindName(K)) {
      Out = K;
      return true;
    }
  if (Name == "Naive") {
    Out = SolverKind::Naive;
    return true;
  }
  return false;
}

bool loadSystem(const std::string &Path, ConstraintSystem &CS) {
  std::string Error;
  if (!ConstraintSystem::readFromFile(Path, CS, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return false;
  }
  return true;
}

int cmdGen(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  std::string Dir = Argv[2];
  double Scale = 0.25;
  double DeltaFrac = 0.0;
  bool SawScale = false;
  for (int I = 3; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--delta-frac") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: --delta-frac expects a value\n");
        return usage();
      }
      const char *Value = Argv[++I];
      if (!parsePositiveDouble(Value, DeltaFrac) || DeltaFrac >= 1.0) {
        std::fprintf(stderr,
                     "error: delta fraction '%s' must be in (0, 1)\n",
                     Value);
        return ExitError;
      }
    } else if (!SawScale) {
      SawScale = true;
      // Validate strictly: atof's silent 0.0 on garbage used to produce
      // degenerate (or, with absurd scales, effectively unbounded) suites.
      constexpr double MaxScale = 64.0;
      if (!parsePositiveDouble(Argv[I], Scale) || Scale > MaxScale) {
        std::fprintf(stderr,
                     "error: scale '%s' must be a finite number in (0, %g]\n",
                     Argv[I], MaxScale);
        return ExitError;
      }
    } else {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", Arg.c_str());
      return usage();
    }
  }
  for (const BenchmarkSpec &Spec : paperSuites(Scale)) {
    ConstraintSystem CS = generateBenchmark(Spec);
    std::string Path = Dir + "/" + Spec.Name + ".cons";
    if (!CS.writeToFile(Path)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
      return 1;
    }
    std::printf("wrote %-40s (%zu constraints, %u nodes)\n", Path.c_str(),
                CS.constraints().size(), CS.numNodes());
    if (DeltaFrac > 0.0) {
      // Deterministic base/delta partition for incremental benchmarking;
      // the delta file carries the full node table plus only the
      // held-out constraints (the shape `ptatool resolve` consumes).
      DeltaSplit Split = splitDelta(CS, DeltaFrac, Spec.Seed);
      ConstraintSystem DeltaCS = CS.cloneNodeTable();
      for (const Constraint &C : Split.Delta)
        DeltaCS.add(C);
      std::string BasePath = Dir + "/" + Spec.Name + ".base.cons";
      std::string DeltaPath = Dir + "/" + Spec.Name + ".delta.cons";
      if (!Split.Base.writeToFile(BasePath) ||
          !DeltaCS.writeToFile(DeltaPath)) {
        std::fprintf(stderr, "error: cannot write delta split for '%s'\n",
                     Spec.Name.c_str());
        return 1;
      }
      std::printf("wrote %-40s (%zu constraints)\n", BasePath.c_str(),
                  Split.Base.constraints().size());
      std::printf("wrote %-40s (%zu constraints)\n", DeltaPath.c_str(),
                  DeltaCS.constraints().size());
    }
  }
  return 0;
}

int cmdGenC(int Argc, char **Argv) {
  if (Argc < 4)
    return usage();
  std::ifstream In(Argv[2]);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Argv[2]);
    return 1;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  GeneratedConstraints Gen;
  std::string Error;
  if (!generateConstraintsFromSource(Buf.str(), Gen, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  if (!Gen.CS.writeToFile(Argv[3])) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Argv[3]);
    return 1;
  }
  std::printf("wrote %s (%zu constraints, %u nodes)\n", Argv[3],
              Gen.CS.constraints().size(), Gen.CS.numNodes());
  return 0;
}

/// The algorithm/budget/thread arguments shared by solve, snapshot and
/// resolve.
struct SolveFlags {
  SolverKind Kind = SolverKind::LCDHCD;
  SolveBudget Budget;
  SolverOptions Opts;
  /// Observability outputs (empty = channel stays off).
  std::string TraceOut;
  std::string MetricsOut;
  uint64_t MetricsIntervalMs = 0;
  /// snapshot --keep: generations retained when writing to a directory.
  uint64_t KeepGenerations = 3;
  /// serve --max-queue / --deadline-ms: the networked server's admission
  /// queue bound (0 = unbounded) and per-request queue-wait deadline.
  uint64_t MaxQueue = 0;
  uint64_t DeadlineMs = 0;
  /// serve --attempts / --backoff: resolve retry schedule.
  uint64_t ResolveAttempts = 3;
  double ResolveBackoff = 4.0;
  /// serve --events-out: wide-event JSON-lines sink (empty = off).
  std::string EventsOut;
  /// serve --metrics-port: OpenMetrics HTTP endpoint on 127.0.0.1; 0
  /// binds an ephemeral port. Off until the flag appears.
  uint64_t MetricsPort = 0;
  bool MetricsPortSet = false;
  /// serve --slow-ms: slow-query latency threshold in milliseconds (0
  /// keeps only the governor-trip/deadline triggers).
  double SlowMs = 0;
  /// serve --port / --unix-socket: networked front-end instead of the
  /// stdin REPL. Port 0 binds an ephemeral port (printed to stderr).
  uint64_t ServePort = 0;
  bool ServePortSet = false;
  std::string ServeUnixSocket;
  /// serve --max-conns / --idle-timeout-ms: connection cap and idle reap
  /// for the networked front-end.
  uint64_t MaxConns = 64;
  uint64_t IdleTimeoutMs = 0;
  /// solve --stats: print the memory-kernel summary (arena footprint,
  /// interning hit rate, physical/routed set sharing).
  bool MemStats = false;
};

/// Parses "<site>:<countdown>" and arms the named FaultInjector site.
/// Countdown 0 fires on the first check.
bool armInjectedFault(const std::string &Spec) {
  size_t Colon = Spec.rfind(':');
  if (Colon == std::string::npos || Colon == 0)
    return false;
  FaultSite Site;
  if (!parseFaultSite(Spec.substr(0, Colon), Site))
    return false;
  const std::string Count = Spec.substr(Colon + 1);
  if (Count.empty() ||
      Count.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  uint64_t N = std::strtoull(Count.c_str(), nullptr, 10);
  if (errno == ERANGE)
    return false;
  FaultInjector::instance().armAfter(Site, N);
  return true;
}

/// Enables the requested observability channels for the duration of a
/// command and writes the output files on destruction. Arms the flight
/// recorder's dump-on-trip while any output was requested, and runs an
/// optional sampler thread that republishes memory peaks into the trace
/// every MetricsIntervalMs (the final publish at scope exit keeps the
/// metrics JSON itself interval-independent, hence run-to-run identical).
class ObsSession {
public:
  explicit ObsSession(const SolveFlags &F)
      : TraceOut(F.TraceOut), MetricsOut(F.MetricsOut) {
    if (!TraceOut.empty()) {
      obs::TraceRecorder::instance().clear();
      obs::setTraceEnabled(true);
    }
    if (!MetricsOut.empty()) {
      obs::MetricsRegistry::instance().reset();
      obs::setMetricsEnabled(true);
    }
    if (!TraceOut.empty() || !MetricsOut.empty())
      obs::FlightRecorder::instance().setDumpOnTrip(true);
    if (F.MetricsIntervalMs > 0 && !TraceOut.empty())
      Sampler = std::thread([this, Interval = F.MetricsIntervalMs] {
        std::unique_lock<std::mutex> Lock(Mu);
        while (!Done.load(std::memory_order_relaxed)) {
          Cv.wait_for(Lock, std::chrono::milliseconds(Interval));
          if (Done.load(std::memory_order_relaxed))
            break;
          obs::publishMemPeaks();
        }
      });
  }

  ~ObsSession() {
    if (Sampler.joinable()) {
      Done.store(true, std::memory_order_relaxed);
      Cv.notify_all();
      Sampler.join();
    }
    obs::publishMemPeaks();
    if (!TraceOut.empty()) {
      obs::setTraceEnabled(false);
      if (Status St = obs::TraceRecorder::instance().writeJson(TraceOut);
          !St.ok())
        std::fprintf(stderr, "warning: %s\n", St.toString().c_str());
      else
        std::fprintf(stderr, "wrote trace to %s (%zu events)\n",
                     TraceOut.c_str(),
                     obs::TraceRecorder::instance().eventCount());
    }
    if (!MetricsOut.empty()) {
      obs::LatencyTracker::instance().publishGauges();
      obs::setMetricsEnabled(false);
      std::ofstream Os(MetricsOut, std::ios::binary | std::ios::trunc);
      std::string Json = obs::MetricsRegistry::instance().renderJson();
      Os.write(Json.data(), std::streamsize(Json.size()));
      if (!Os)
        std::fprintf(stderr, "warning: cannot write metrics to %s\n",
                     MetricsOut.c_str());
      else
        std::fprintf(stderr, "wrote metrics to %s\n", MetricsOut.c_str());
    }
    obs::FlightRecorder::instance().setDumpOnTrip(false);
  }

private:
  std::string TraceOut;
  std::string MetricsOut;
  std::thread Sampler;
  std::mutex Mu;
  std::condition_variable Cv;
  std::atomic<bool> Done{false};
};

/// Parses the optional [algo] positional plus the budget flags starting at
/// Argv[Start]. When \p AllowKind is false (resolve: warm start always
/// replays the LCD family the snapshot was built for) any positional is
/// rejected. Returns ExitPrecise on success, otherwise the exit code to
/// return from the command.
int parseSolveFlags(int Argc, char **Argv, int Start, bool AllowKind,
                    SolveFlags &F) {
  bool SawKind = false;
  for (int I = Start; I < Argc; ++I) {
    std::string Arg = Argv[I];
    // Observability flags accept --flag=value and --flag value forms.
    {
      std::string Name = Arg, Value;
      bool HasValue = false;
      if (size_t Eq = Arg.find('='); Eq != std::string::npos) {
        Name = Arg.substr(0, Eq);
        Value = Arg.substr(Eq + 1);
        HasValue = true;
      }
      if (Name == "--trace-out" || Name == "--metrics-out" ||
          Name == "--metrics-interval-ms" || Name == "--events-out" ||
          Name == "--unix-socket") {
        if (!HasValue) {
          if (I + 1 >= Argc) {
            std::fprintf(stderr, "error: %s expects a value\n", Name.c_str());
            return usage();
          }
          Value = Argv[++I];
        }
        if (Value.empty()) {
          std::fprintf(stderr, "error: %s expects a value\n", Name.c_str());
          return usage();
        }
        if (Name == "--trace-out") {
          F.TraceOut = Value;
        } else if (Name == "--metrics-out") {
          F.MetricsOut = Value;
        } else if (Name == "--events-out") {
          F.EventsOut = Value;
        } else if (Name == "--unix-socket") {
          F.ServeUnixSocket = Value;
        } else if (!parsePositiveU64(Value.c_str(), F.MetricsIntervalMs)) {
          std::fprintf(stderr, "error: bad value '%s' for %s\n",
                       Value.c_str(), Name.c_str());
          return usage();
        }
        continue;
      }
    }
    if (Arg == "--no-fallback") {
      F.Budget.AllowFallback = false;
    } else if (Arg == "--stats") {
      F.MemStats = true;
    } else if (Arg == "--timeout" || Arg == "--max-mem-mb" ||
               Arg == "--max-steps" || Arg == "--inject-fault" ||
               Arg == "--keep" || Arg == "--max-queue" ||
               Arg == "--deadline-ms" || Arg == "--attempts" ||
               Arg == "--backoff" || Arg == "--metrics-port" ||
               Arg == "--slow-ms" || Arg == "--port" ||
               Arg == "--max-conns" || Arg == "--idle-timeout-ms") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s expects a value\n", Arg.c_str());
        return usage();
      }
      const char *Value = Argv[++I];
      bool Valid = false;
      if (Arg == "--timeout") {
        Valid = parsePositiveDouble(Value, F.Budget.TimeoutSeconds);
      } else if (Arg == "--max-mem-mb") {
        uint64_t Mb = 0;
        Valid = parsePositiveU64(Value, Mb) &&
                Mb <= (UINT64_MAX >> 20); // No overflow converting to bytes.
        F.Budget.MaxMemoryBytes = Mb << 20;
      } else if (Arg == "--max-steps") {
        Valid = parsePositiveU64(Value, F.Budget.MaxPropagations);
      } else if (Arg == "--inject-fault") {
        Valid = armInjectedFault(Value);
      } else if (Arg == "--keep") {
        Valid = parsePositiveU64(Value, F.KeepGenerations);
      } else if (Arg == "--max-queue") {
        Valid = parsePositiveU64(Value, F.MaxQueue);
      } else if (Arg == "--deadline-ms") {
        Valid = parsePositiveU64(Value, F.DeadlineMs);
      } else if (Arg == "--attempts") {
        Valid = parsePositiveU64(Value, F.ResolveAttempts) &&
                F.ResolveAttempts <= 16;
      } else if (Arg == "--backoff") {
        Valid = parsePositiveDouble(Value, F.ResolveBackoff) &&
                F.ResolveBackoff >= 1.0;
      } else if (Arg == "--metrics-port" || Arg == "--port") {
        // 0 is meaningful here (ephemeral port), so parse it directly
        // instead of through parsePositiveU64.
        errno = 0;
        char *End = nullptr;
        unsigned long long Port = std::strtoull(Value, &End, 10);
        Valid = End != Value && *End == '\0' && errno != ERANGE &&
                Value[0] != '-' && Port <= 65535;
        if (Arg == "--metrics-port") {
          F.MetricsPort = Port;
          F.MetricsPortSet = true;
        } else {
          F.ServePort = Port;
          F.ServePortSet = true;
        }
      } else if (Arg == "--max-conns") {
        Valid = parsePositiveU64(Value, F.MaxConns);
      } else if (Arg == "--idle-timeout-ms") {
        Valid = parsePositiveU64(Value, F.IdleTimeoutMs);
      } else { // --slow-ms
        Valid = parsePositiveDouble(Value, F.SlowMs);
      }
      if (!Valid) {
        std::fprintf(stderr, "error: bad value '%s' for %s\n", Value,
                     Arg.c_str());
        return usage();
      }
    } else if (Arg.size() >= 2 && Arg[0] == '-' && Arg[1] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", Arg.c_str());
      return usage();
    } else if (AllowKind && !SawKind) {
      SawKind = true;
      if (!parseKind(Arg, F.Kind)) {
        std::fprintf(stderr, "error: unknown algorithm '%s'\n", Arg.c_str());
        return ExitError;
      }
    } else {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", Arg.c_str());
      return usage();
    }
  }
  return ExitPrecise;
}

int cmdSolve(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  ConstraintSystem CS;
  if (!loadSystem(Argv[2], CS))
    return ExitError;
  SolveFlags F;
  if (int Rc = parseSolveFlags(Argc, Argv, 3, /*AllowKind=*/true, F))
    return Rc;
  SolverKind Kind = F.Kind;
  SolveBudget Budget = F.Budget;
  SolverOptions Opts = F.Opts;
  ObsSession Obs(F);

  auto T0 = std::chrono::steady_clock::now();
  OvsResult Ovs = runOfflineVariableSubstitution(CS);
  SolverStats Stats;
  SolveResult R = solveGoverned(Ovs.Reduced, Kind, Budget, PtsRepr::Bitmap,
                                &Stats, Opts, &Ovs.Rep);
  double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();

  if (R.Outcome == SolveOutcome::Failed) {
    std::fprintf(stderr, "error: %s\n", R.St.toString().c_str());
    return ExitError;
  }
  const PointsToSolution &Sol = R.Solution;
  std::printf("%s on %s: %.3f s (incl. OVS), outcome %s\n",
              solverKindName(Kind), Argv[2], Seconds,
              solveOutcomeName(R.Outcome));
  if (!R.St.ok())
    std::printf("  budget: %s\n", R.St.toString().c_str());
  if (R.Outcome == SolveOutcome::Partial)
    std::printf("  WARNING: partial solution — sets may be incomplete\n");
  std::printf("  nodes %u, constraints %zu (%zu after OVS)\n",
              CS.numNodes(), CS.constraints().size(),
              Ovs.Reduced.constraints().size());
  std::printf("  total |pts| %llu, solution hash %016llx\n",
              static_cast<unsigned long long>(Sol.totalPointsToSize()),
              static_cast<unsigned long long>(Sol.hash()));
  std::printf("%s", Stats.toString("  ").c_str());
  if (F.MemStats) {
    ArenaStats &AS = ArenaStats::instance();
    InternStats &IS = InternStats::instance();
    uint64_t Interned = IS.hits() + IS.misses();
    PointsToSolution::SharingSummary Sh = Sol.sharingSummary();
    std::printf("  mem: arena peak %llu KiB in %llu slabs\n",
                static_cast<unsigned long long>(AS.peakReservedBytes() >>
                                                10),
                static_cast<unsigned long long>(AS.peakSlabs()));
    std::printf("  mem: interned %llu/%llu set extractions (%.1f%% hits, "
                "%llu KiB deduped)\n",
                static_cast<unsigned long long>(IS.hits()),
                static_cast<unsigned long long>(Interned),
                Interned ? 100.0 * double(IS.hits()) / double(Interned)
                         : 0.0,
                static_cast<unsigned long long>(IS.dedupedBytes() >> 10));
    std::printf("  mem: %llu physical sets serve %llu reps (%llu KiB "
                "held, %llu KiB if unshared)\n",
                static_cast<unsigned long long>(Sh.PhysicalSets),
                static_cast<unsigned long long>(Sh.Reps),
                static_cast<unsigned long long>(Sh.PhysicalBytes >> 10),
                static_cast<unsigned long long>(Sh.RoutedBytes >> 10));
  }
  return outcomeExit(R.Outcome);
}

/// `ptatool query`: answer one query through the demand tier — no full
/// solve up front. Deduction runs under the budget flags (as the
/// per-query budget); a trip escalates to one governed exhaustive solve
/// under the same budget with the Steensgaard fallback allowed, so the
/// answer stays sound and the exit code reports how it was reached:
/// 0 demand/precise, 3 escalated to fallback, 4 budget tripped with
/// --no-fallback (no sound answer; nothing printed).
int cmdQuery(int Argc, char **Argv) {
  if (Argc < 5)
    return usage();
  ConstraintSystem CS;
  if (!loadSystem(Argv[2], CS))
    return ExitError;

  enum class Mode { Alias, Pts, PointedBy };
  Mode M = Mode::Alias;
  std::string RefA = Argv[3], RefB;
  if (RefA == "--pts") {
    M = Mode::Pts;
    RefA = Argv[4];
  } else if (RefA == "--pointed-by") {
    M = Mode::PointedBy;
    RefA = Argv[4];
  } else {
    RefB = Argv[4];
  }

  SolveFlags F;
  if (int Rc = parseSolveFlags(Argc, Argv, 5, /*AllowKind=*/true, F))
    return Rc;
  ObsSession Obs(F);

  auto Resolve = [&CS](const std::string &Tok, NodeId &Out) {
    if (!Tok.empty() &&
        Tok.find_first_not_of("0123456789") == std::string::npos) {
      errno = 0;
      uint64_t Raw = std::strtoull(Tok.c_str(), nullptr, 10);
      if (errno != ERANGE && Raw < CS.numNodes()) {
        Out = static_cast<NodeId>(Raw);
        return true;
      }
    }
    for (NodeId V = 0; V != CS.numNodes(); ++V)
      if (CS.nameOf(V) == Tok) {
        Out = V;
        return true;
      }
    std::fprintf(stderr, "error: unknown node '%s'\n", Tok.c_str());
    return false;
  };
  NodeId A = InvalidNode, B = InvalidNode;
  if (!Resolve(RefA, A))
    return ExitError;
  if (M == Mode::Alias && !Resolve(RefB, B))
    return ExitError;

  DemandTier::Options TO;
  TO.QueryBudget = F.Budget;
  // The escalation runs under the same ceilings with fallback allowed:
  // the budget stays a real bound on total work, and a tripped
  // escalation still lands the sound Steensgaard answer (exit 3).
  TO.EscalationBudget = F.Budget;
  TO.EscalationBudget.AllowFallback = true;
  TO.EscalationKind = F.Kind;
  TO.EscalationOpts = F.Opts;
  TO.AllowEscalation = F.Budget.AllowFallback;
  DemandTier Tier(std::move(CS), TO);

  Status St;
  if (M == Mode::Alias) {
    bool Verdict = false;
    St = Tier.alias(A, B, Verdict);
    if (St.ok())
      std::printf("alias(%s, %s) = %s\n", RefA.c_str(), RefB.c_str(),
                  Verdict ? "yes" : "no");
  } else {
    DemandTier::IdList List;
    St = M == Mode::Pts ? Tier.pointsTo(A, List) : Tier.pointedBy(A, List);
    if (St.ok()) {
      std::printf("%s(%s):", M == Mode::Pts ? "pts" : "pointedby",
                  RefA.c_str());
      for (NodeId V : *List)
        std::printf(" %u", V);
      std::printf("\n|%s| = %zu\n", M == Mode::Pts ? "pts" : "pointedby",
                  List->size());
    }
  }
  if (!St.ok()) {
    std::fprintf(stderr, "error: %s\n", St.toString().c_str());
    return St.isBudgetTrip() ? ExitPartial : ExitError;
  }
  std::printf("answered by: %s (memo %llu classes)\n",
              Tier.escalated() ? "escalated exhaustive solve" : "demand",
              static_cast<unsigned long long>(Tier.memoCompleteCount()));
  return Tier.escalated() &&
                 Tier.escalationOutcome() == SolveOutcome::Fallback
             ? ExitFallback
             : ExitPrecise;
}

int cmdSnapshot(int Argc, char **Argv) {
  if (Argc < 4)
    return usage();
  ConstraintSystem CS;
  if (!loadSystem(Argv[2], CS))
    return ExitError;
  SolveFlags F;
  if (int Rc = parseSolveFlags(Argc, Argv, 4, /*AllowKind=*/true, F))
    return Rc;
  ObsSession Obs(F);

  OvsResult Ovs = runOfflineVariableSubstitution(CS);
  SolverStats Stats;
  SolveResult R = solveGoverned(Ovs.Reduced, F.Kind, F.Budget,
                                PtsRepr::Bitmap, &Stats, F.Opts, &Ovs.Rep);
  if (R.Outcome == SolveOutcome::Failed) {
    std::fprintf(stderr, "error: %s\n", R.St.toString().c_str());
    return ExitError;
  }
  if (R.Outcome == SolveOutcome::Partial) {
    // Partial state is unsound; persisting it would let `serve` answer
    // queries wrong and `resolve` warm-start from a non-fixpoint.
    std::fprintf(stderr,
                 "warning: budget tripped with --no-fallback; partial "
                 "solution NOT written (%s)\n",
                 R.St.toString().c_str());
    return ExitPartial;
  }

  Snapshot Snap;
  Snap.CS = std::move(Ovs.Reduced);
  Snap.SeedReps = std::move(Ovs.Rep);
  Snap.Solution = std::move(R.Solution);
  Snap.Kind = F.Kind;
  Snap.Repr = PtsRepr::Bitmap;
  Snap.Outcome = R.Outcome;
  Snap.Sound = true;
  if (SnapshotStore::isDirectory(Argv[3])) {
    // Directory target: write a new crash-safe generation and prune old
    // ones, so a crash mid-write can never lose the last durable snapshot.
    SnapshotStore::Options SOpts;
    SOpts.KeepGenerations = static_cast<unsigned>(F.KeepGenerations);
    SnapshotStore Store(Argv[3], SOpts);
    uint64_t Gen = 0;
    if (Status St = Store.write(Snap, &Gen); !St.ok()) {
      std::fprintf(stderr, "error: %s\n", St.toString().c_str());
      return ExitError;
    }
    std::printf("wrote %s/gen-%llu.snap: %s/%s, %u nodes, total |pts| "
                "%llu\n",
                Argv[3], static_cast<unsigned long long>(Gen),
                solverKindName(F.Kind), solveOutcomeName(R.Outcome),
                Snap.CS.numNodes(),
                static_cast<unsigned long long>(
                    Snap.Solution.totalPointsToSize()));
  } else {
    if (Status St = writeSnapshotFile(Snap, Argv[3]); !St.ok()) {
      std::fprintf(stderr, "error: %s\n", St.toString().c_str());
      return ExitError;
    }
    std::printf("wrote %s: %s/%s, %u nodes, total |pts| %llu\n", Argv[3],
                solverKindName(F.Kind), solveOutcomeName(R.Outcome),
                Snap.CS.numNodes(),
                static_cast<unsigned long long>(
                    Snap.Solution.totalPointsToSize()));
  }
  if (R.Outcome == SolveOutcome::Fallback)
    std::printf("  budget: %s\n", R.St.toString().c_str());
  return outcomeExit(R.Outcome);
}

/// The networked serve path's drain plumbing: SIGTERM/SIGINT ask the
/// active server for a graceful stop (async-signal-safe: the handler does
/// one atomic load and one self-pipe write).
std::atomic<Server *> ActiveServer{nullptr};

extern "C" void serveDrainHandler(int) {
  if (Server *S = ActiveServer.load(std::memory_order_acquire))
    S->requestStop();
}

/// Runs \p Session behind the concurrent TCP/unix-socket front-end until
/// SIGTERM/SIGINT (or a server start failure). Prints the bound endpoint
/// to stderr ("serving on ...") so scripts and loadgen can find an
/// ephemeral port.
int runNetworkedServe(ServeSession &Session, const SolveFlags &F) {
  ServerOptions SrvOpts;
  SrvOpts.Port = static_cast<uint16_t>(F.ServePort);
  SrvOpts.UnixSocketPath = F.ServeUnixSocket;
  SrvOpts.MaxConns = static_cast<size_t>(F.MaxConns);
  SrvOpts.IdleTimeoutSeconds = static_cast<double>(F.IdleTimeoutMs) / 1000.0;
  SrvOpts.QueueCapacity = static_cast<size_t>(F.MaxQueue);
  SrvOpts.DeadlineSeconds = static_cast<double>(F.DeadlineMs) / 1000.0;
  Server Srv(Session, SrvOpts);
  if (Status St = Srv.start(); !St.ok()) {
    std::fprintf(stderr, "error: %s\n", St.toString().c_str());
    return ExitError;
  }
  ActiveServer.store(&Srv, std::memory_order_release);
  struct sigaction SA = {};
  SA.sa_handler = serveDrainHandler;
  sigemptyset(&SA.sa_mask);
  struct sigaction OldTerm, OldInt;
  ::sigaction(SIGTERM, &SA, &OldTerm);
  ::sigaction(SIGINT, &SA, &OldInt);
  std::fprintf(stderr, "serving on %s\n", Srv.endpoint().c_str());
  Srv.wait();
  ::sigaction(SIGTERM, &OldTerm, nullptr);
  ::sigaction(SIGINT, &OldInt, nullptr);
  ActiveServer.store(nullptr, std::memory_order_release);
  ServerCounters SC = Srv.counters();
  std::fprintf(stderr,
               "drained: %llu connections served, %llu rejected, %llu "
               "idle-closed\n",
               static_cast<unsigned long long>(SC.Accepted),
               static_cast<unsigned long long>(SC.Rejected),
               static_cast<unsigned long long>(SC.IdleClosed));
  return ExitPrecise;
}

int cmdServe(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  SolveFlags F;
  if (int Rc = parseSolveFlags(Argc, Argv, 3, /*AllowKind=*/false, F))
    return Rc;
  if (F.ServePortSet && !F.ServeUnixSocket.empty()) {
    std::fprintf(stderr,
                 "error: --port and --unix-socket are mutually exclusive\n");
    return usage();
  }
  const bool Networked = F.ServePortSet || !F.ServeUnixSocket.empty();
  if (!Networked && (F.MaxQueue != 0 || F.DeadlineMs != 0)) {
    // The stdin REPL is synchronous: only the server queues requests.
    std::fprintf(stderr, "error: --max-queue/--deadline-ms need --port or "
                         "--unix-socket\n");
    return usage();
  }
  // A serving process always collects metrics (the `stats` command reads
  // them) and keeps the flight ring; full tracing stays off.
  obs::setMetricsEnabled(true);

  Snapshot Snap;
  bool DemandMode = false;
  ConstraintSystem DemandCS;
  if (SnapshotStore::isDirectory(Argv[2])) {
    // Directory target: recover the newest durable generation, skipping
    // torn or corrupt files from interrupted writes.
    SnapshotStore Store(Argv[2]);
    SnapshotStore::RecoveryInfo Info;
    if (Status St = Store.recover(Snap, &Info); !St.ok()) {
      std::fprintf(stderr, "error: %s\n", St.toString().c_str());
      return ExitError;
    }
    std::fprintf(stderr,
                 "recovered generation %llu (%u corrupt skipped, %u temp "
                 "files removed)\n",
                 static_cast<unsigned long long>(Info.Generation),
                 Info.CorruptSkipped, Info.TempsRemoved);
  } else if (Status St = readSnapshotFile(Argv[2], Snap); !St.ok()) {
    // Not a snapshot: sniff a constraint file and serve it demand-first
    // (no solve up front; queries deduce what they need).
    std::string ConsError;
    if (ConstraintSystem::readFromFile(Argv[2], DemandCS, ConsError)) {
      DemandMode = true;
    } else {
      std::fprintf(stderr, "error: %s\n", St.toString().c_str());
      return ExitError;
    }
  }

  ServeOptions SO;
  SO.ResolveBudget = F.Budget;
  SO.ResolveOpts = F.Opts;
  SO.ResolveAttempts = static_cast<unsigned>(F.ResolveAttempts);
  SO.ResolveBackoff = F.ResolveBackoff;
  SO.SlowMillis = F.SlowMs;
  SO.SlowOut = &std::cerr;

  // Wide-event sink: owns the output file; kept alive past the session so
  // close() can drain what the last requests published.
  std::shared_ptr<obs::EventLog> Events;
  if (!F.EventsOut.empty()) {
    Status Err;
    Events = obs::EventLog::open(F.EventsOut, obs::EventLog::Options(), Err);
    if (!Events) {
      std::fprintf(stderr, "error: %s\n", Err.toString().c_str());
      return ExitError;
    }
    SO.Events = Events;
  }

  // OpenMetrics endpoint: loopback-only, renders the registry on demand
  // (latency gauges are refreshed per scrape, so p99 is live).
  obs::MetricsHttpServer Metrics([] {
    obs::LatencyTracker::instance().publishGauges();
    return obs::renderOpenMetrics(obs::MetricsRegistry::instance());
  });
  if (F.MetricsPortSet) {
    if (Status St = Metrics.start(static_cast<uint16_t>(F.MetricsPort));
        !St.ok()) {
      std::fprintf(stderr, "error: %s\n", St.toString().c_str());
      return ExitError;
    }
    std::fprintf(stderr, "serving metrics on http://127.0.0.1:%u/metrics\n",
                 Metrics.port());
  }

  int Rc;
  if (DemandMode) {
    SO.QueryBudget = F.Budget;
    ServeSession Session(std::move(DemandCS), SO);
    Rc = Networked ? runNetworkedServe(Session, F)
                   : Session.run(std::cin, std::cout);
  } else {
    ServeSession Session(std::move(Snap), SO);
    Rc = Networked ? runNetworkedServe(Session, F)
                   : Session.run(std::cin, std::cout);
  }
  Metrics.stop();
  if (Events)
    Events->close();
  return Rc;
}

/// `ptatool check`: certify that a solution is a fixed point of its
/// constraint system. For a .snap input the persisted solution is checked
/// as-is; for a .cons input the system is solved first (default LCD+HCD,
/// or the named algorithm). --all solves with every kind and
/// cross-compares solution hashes — any disagreement or failed
/// certification exits 1.
int cmdCheck(int Argc, char **Argv) {
  if (Argc < 3)
    return usage();
  const std::string Path = Argv[2];
  SolverKind Kind = SolverKind::LCDHCD;
  PtsRepr Repr = PtsRepr::Bitmap;
  bool All = false;
  bool SawKind = false;
  for (int I = 3; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--all") {
      All = true;
    } else if (Arg == "--bdd") {
      Repr = PtsRepr::Bdd;
    } else if (!SawKind && parseKind(Arg, Kind)) {
      SawKind = true;
    } else {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", Arg.c_str());
      return usage();
    }
  }

  // Snapshot input: check the persisted solution against the persisted
  // system (sniffed by magic, so either file kind can be handed in).
  {
    std::ifstream In(Path, std::ios::binary);
    char Magic[8] = {};
    if (In.read(Magic, sizeof(Magic)) &&
        std::memcmp(Magic, "AGPTSNAP", 8) == 0) {
      Snapshot Snap;
      if (Status St = readSnapshotFile(Path, Snap); !St.ok()) {
        std::fprintf(stderr, "error: %s\n", St.toString().c_str());
        return ExitError;
      }
      if (Snap.Outcome == SolveOutcome::Partial) {
        std::printf("check %s: not a fixed point (partial snapshot)\n",
                    Path.c_str());
        return ExitError;
      }
      CheckReport R = checkSolution(Snap.CS, Snap.Solution);
      std::printf("check %s (%s/%s): %s\n", Path.c_str(),
                  solverKindName(Snap.Kind), solveOutcomeName(Snap.Outcome),
                  R.summary(Snap.CS).c_str());
      return R.ok() ? ExitPrecise : ExitError;
    }
  }

  ConstraintSystem CS;
  if (!loadSystem(Path, CS))
    return ExitError;

  std::vector<SolverKind> Kinds;
  if (All)
    Kinds.assign(std::begin(AllSolverKinds), std::end(AllSolverKinds));
  else
    Kinds.push_back(Kind);

  bool AllOk = true;
  uint64_t FirstHash = 0;
  SolverKind FirstKind = Kinds.front();
  PointsToSolution FirstSol;
  for (size_t I = 0; I != Kinds.size(); ++I) {
    PointsToSolution Sol = solveFnFor(Kinds[I], Repr)(CS);
    CheckReport R = checkSolution(CS, Sol);
    uint64_t Hash = Sol.hash();
    std::printf("check %s with %s: %s, hash %016llx\n", Path.c_str(),
                solverKindName(Kinds[I]), R.summary(CS).c_str(),
                static_cast<unsigned long long>(Hash));
    if (!R.ok())
      AllOk = false;
    if (I == 0) {
      FirstHash = Hash;
      FirstSol = std::move(Sol);
    } else if (Hash != FirstHash) {
      AllOk = false;
      std::printf("MISMATCH: %s disagrees with %s: %s\n",
                  solverKindName(Kinds[I]), solverKindName(FirstKind),
                  diffSolutions(FirstSol, Sol).toString().c_str());
    }
  }
  if (All && AllOk)
    std::printf("all %zu solver kinds agree (hash %016llx)\n", Kinds.size(),
                static_cast<unsigned long long>(FirstHash));
  return AllOk ? ExitPrecise : ExitError;
}

int cmdResolve(int Argc, char **Argv) {
  if (Argc < 4)
    return usage();
  Snapshot Snap;
  if (Status St = readSnapshotFile(Argv[2], Snap); !St.ok()) {
    std::fprintf(stderr, "error: %s\n", St.toString().c_str());
    return ExitError;
  }
  ConstraintSystem DeltaCS;
  if (!loadSystem(Argv[3], DeltaCS))
    return ExitError;
  SolveFlags F;
  if (int Rc = parseSolveFlags(Argc, Argv, 4, /*AllowKind=*/false, F))
    return Rc;
  ObsSession Obs(F);

  IncrementalSolver Inc(std::move(Snap));
  if (!Inc.valid().ok()) {
    std::fprintf(stderr, "error: %s\n", Inc.valid().toString().c_str());
    return ExitError;
  }
  auto T0 = std::chrono::steady_clock::now();
  WarmStartResult R = Inc.resolveSystem(DeltaCS, F.Budget, F.Opts);
  double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  if (R.Outcome == SolveOutcome::Failed) {
    std::fprintf(stderr, "error: %s\n", R.St.toString().c_str());
    return ExitError;
  }
  std::printf("warm re-solve of %s + %s: %.3f s, outcome %s\n", Argv[2],
              Argv[3], Seconds, solveOutcomeName(R.Outcome));
  if (!R.St.ok())
    std::printf("  budget: %s\n", R.St.toString().c_str());
  if (R.Outcome == SolveOutcome::Partial)
    std::printf("  WARNING: partial solution — sets may be incomplete\n");
  std::printf("  new constraints %u, seeded nodes %u\n", R.NewConstraints,
              R.SeededNodes);
  std::printf("  total |pts| %llu, solution hash %016llx\n",
              static_cast<unsigned long long>(
                  R.Solution.totalPointsToSize()),
              static_cast<unsigned long long>(R.Solution.hash()));
  std::printf("%s", R.Stats.toString("  ").c_str());
  return outcomeExit(R.Outcome);
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  if (std::strcmp(Argv[1], "gen") == 0)
    return cmdGen(Argc, Argv);
  if (std::strcmp(Argv[1], "gen-c") == 0)
    return cmdGenC(Argc, Argv);
  if (std::strcmp(Argv[1], "solve") == 0)
    return cmdSolve(Argc, Argv);
  if (std::strcmp(Argv[1], "query") == 0)
    return cmdQuery(Argc, Argv);
  if (std::strcmp(Argv[1], "snapshot") == 0)
    return cmdSnapshot(Argc, Argv);
  if (std::strcmp(Argv[1], "serve") == 0)
    return cmdServe(Argc, Argv);
  if (std::strcmp(Argv[1], "resolve") == 0)
    return cmdResolve(Argc, Argv);
  if (std::strcmp(Argv[1], "check") == 0)
    return cmdCheck(Argc, Argv);
  return usage();
}
