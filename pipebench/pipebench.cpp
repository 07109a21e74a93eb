//===- pipebench.cpp - Whole-pipeline benchmark program -------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the analysis pipeline end to end and layer by layer by timing
/// its own calls into each layer's public functions; no library code is
/// instrumented. run.py drives it; the subcommands are:
///
///   prep-suites <data>               canonical scale-1.0 inputs
///   naive <in.cons> <out-prefix> [snap]  Naive (Figure 1) reference and
///                                    the OVS-free cross-check
///   prep-seed <workload> <data> <seed> <dir>  per-seed inputs + answers
///   run <workload> <data> <dir> <seconds> <trace> <scratch> <spans.json>
///
/// `run` prints one JSON object: attempted/failed operations, end-to-end
/// metrics, per-layer metrics and the counts that must repeat exactly
/// between runs of one seed.
///
//===----------------------------------------------------------------------===//

#include "adt/ElementArena.h"
#include "adt/InternTable.h"
#include "adt/MemTracker.h"
#include "adt/Rng.h"
#include "adt/Statistics.h"
#include "constraints/ConstraintSystem.h"
#include "constraints/OfflineVariableSubstitution.h"
#include "core/HcdOffline.h"
#include "obs/MetricsRegistry.h"
#include "obs/Obs.h"
#include "obs/QuantileWindow.h"
#include "serve/ServeSession.h"
#include "serve/Server.h"
#include "serve/Snapshot.h"
#include "solvers/Solve.h"
#include "workload/WorkloadGen.h"

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ag;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point ProcessEpoch = Clock::now();

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              ProcessEpoch)
      .count();
}

double seconds(int64_t FromNs, int64_t ToNs) { return double(ToNs - FromNs) * 1e-9; }

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "pipebench: %s\n", Msg.c_str());
  std::exit(1);
}

void check(const Status &St, const std::string &What) {
  if (!St.ok())
    die(What + ": " + St.toString());
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}
double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    die("cannot read " + Path);
  std::ostringstream Oss;
  Oss << In.rdbuf();
  return Oss.str();
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), std::streamsize(Bytes.size()));
  if (!Out)
    die("cannot write " + Path);
}

ConstraintSystem loadCons(const std::string &Path) {
  ConstraintSystem CS;
  check(ConstraintSystem::loadFromFile(Path, CS), "load " + Path);
  return CS;
}

//===-- Spans --------------------------------------------------------------===//

/// In-memory span recorder for the traced run. Spans are opened and closed
/// by this file around calls into a layer; the first dotted component of a
/// span's name is its layer ("bench" for the benchmark's own structure).
struct SpanRec {
  std::string Name;
  int64_t Start, End;
  uint64_t Id, Parent, Req;
};

std::atomic<bool> TraceOn{false};
std::atomic<uint64_t> NextSpanId{1};
std::mutex SpanMu;
std::vector<SpanRec> Spans;
thread_local uint64_t CurrentSpan = 0;

class Span {
public:
  static constexpr uint64_t InheritParent = ~uint64_t(0);

  explicit Span(const char *Name, uint64_t Req = 0,
                uint64_t Parent = InheritParent) {
    if (!TraceOn.load(std::memory_order_relaxed))
      return;
    Rec.Name = Name;
    Rec.Id = NextSpanId.fetch_add(1, std::memory_order_relaxed);
    Rec.Parent = Parent == InheritParent ? CurrentSpan : Parent;
    Rec.Req = Req;
    Saved = CurrentSpan;
    CurrentSpan = Rec.Id;
    Rec.Start = nowNs();
  }
  ~Span() { end(); }

  /// Closes the span before its scope ends (idempotent).
  void end() {
    if (!Rec.Id)
      return;
    Rec.End = nowNs();
    CurrentSpan = Saved;
    std::lock_guard<std::mutex> Lock(SpanMu);
    Spans.push_back(std::move(Rec));
    Rec.Id = 0;
  }
  uint64_t id() const { return Rec.Id; }

private:
  SpanRec Rec{"", 0, 0, 0, 0, 0};
  uint64_t Saved = 0;
};

void writeSpans(const std::string &Path) {
  std::string Out = "[\n";
  std::lock_guard<std::mutex> Lock(SpanMu);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"req\":%llu,"
                  "\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                  S.Name.c_str(), (unsigned long long)S.Id,
                  (unsigned long long)S.Parent, (unsigned long long)S.Req,
                  (long long)S.Start, (long long)S.End,
                  I + 1 == Spans.size() ? "" : ",");
    Out += Buf;
  }
  Out += "]\n";
  writeFile(Path, Out);
}

//===-- Reply digests --------------------------------------------------------===//

/// Hash of one reply line (trailing newline included). Word-at-a-time so
/// the client threads can digest hundreds of MB of replies cheaply.
uint64_t digest(const char *P, size_t N) {
  uint64_t H = 0x9e3779b97f4a7c15ull ^ N;
  size_t I = 0;
  for (; I + 8 <= N; I += 8) {
    uint64_t W;
    std::memcpy(&W, P + I, 8);
    H = (H ^ W) * 0x100000001b3ull;
    H ^= H >> 29;
  }
  uint64_t W = 0;
  std::memcpy(&W, P + I, N - I);
  H = (H ^ W) * 0x100000001b3ull;
  return H ^ (H >> 32);
}

void appendId(std::string &Out, uint32_t V) {
  char Buf[16];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  Out.push_back(' ');
  Out.append(Buf, R.ptr);
}

/// The exact reply ServeSession gives for `<What> <Ref>` with list \p Ids.
std::string listReply(const char *What, const std::string &Ref,
                      const std::vector<uint32_t> &Ids) {
  std::string Out = What;
  Out += "(" + Ref + "):";
  for (uint32_t V : Ids)
    appendId(Out, V);
  Out += '\n';
  return Out;
}

std::string aliasReply(const std::string &A, const std::string &B, bool Yes) {
  return "alias(" + A + "," + B + ") = " + (Yes ? "yes\n" : "no\n");
}

/// Expected answers computed from a reference (Naive) solution.
class Oracle {
public:
  explicit Oracle(const PointsToSolution &Sol) : Sol(Sol) {}

  /// Digest of the expected reply to one request line.
  uint64_t expect(const std::string &Line) {
    std::istringstream Iss(Line);
    std::string Cmd, A, B;
    Iss >> Cmd >> A >> B;
    uint32_t X = uint32_t(std::stoul(A));
    std::string Reply;
    if (Cmd == "pts") {
      Reply = listReply("pts", A, Sol.pointsToVector(X));
    } else {
      Reply = aliasReply(A, B, Sol.mayAlias(X, uint32_t(std::stoul(B))));
    }
    return digest(Reply.data(), Reply.size());
  }

private:
  const PointsToSolution &Sol;
};

//===-- Inputs ---------------------------------------------------------------===//

constexpr double Scale = 1.0;
constexpr unsigned DemandParts = 8;     // serve-demand: resolve rounds.
constexpr double DemandDeltaFrac = 0.1; // serve-demand: held-out share.
constexpr size_t DemandReadsPerRound = 200;
// analyze-lcdhcd times its set-up this many times before and again after
// the measured work, so a run's median set-up time samples the whole run.
constexpr unsigned SetupReps = 4;
// serve-demand: bring-ups per session, the last DemandProbed answering.
constexpr unsigned DemandBringUps = 4;
constexpr unsigned DemandProbed = 2;
constexpr unsigned ServeWorkers = 2;
constexpr unsigned ClientConns = 2;

BenchmarkSpec suiteSpec(const std::string &Name) {
  for (const BenchmarkSpec &S : paperSuites(Scale))
    if (S.Name == Name)
      return S;
  die("unknown suite " + Name);
}

std::string hex(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)V);
  return Buf;
}

int cmdPrepSuites(const std::string &Data) {
  for (const char *Name : {"linux", "wine"}) {
    ConstraintSystem CS = generateBenchmark(suiteSpec(Name));
    if (!CS.writeToFile(Data + "/suites/" + Name + ".cons"))
      die("cannot write suite");
  }
  // serve-demand: ghostscript's held-out delta cut into DemandParts parts,
  // each part peeled off the remainder with splitDelta.
  BenchmarkSpec Gs = suiteSpec("ghostscript");
  DeltaSplit Split = splitDelta(generateBenchmark(Gs), DemandDeltaFrac, Gs.Seed);
  ConstraintSystem Rest = Split.Base.cloneNodeTable();
  for (const Constraint &C : Split.Delta)
    Rest.add(C);
  ConstraintSystem State = Split.Base;
  std::string Prefix = Data + "/suites/ghostscript.";
  if (!State.writeToFile(Prefix + "base.cons") ||
      !State.writeToFile(Prefix + "state0.cons"))
    die("cannot write ghostscript base");
  for (unsigned J = 1; J <= DemandParts; ++J) {
    std::vector<Constraint> Part;
    if (J < DemandParts) {
      DeltaSplit S = splitDelta(Rest, 1.0 / double(DemandParts - J + 1),
                                Gs.Seed + J);
      Part = std::move(S.Delta);
      Rest = std::move(S.Base);
    } else {
      Part = Rest.constraints();
    }
    ConstraintSystem Delta = Split.Base.cloneNodeTable();
    for (const Constraint &C : Part) {
      Delta.add(C);
      State.add(C);
    }
    if (!Delta.writeToFile(Prefix + "delta" + std::to_string(J) + ".cons") ||
        !State.writeToFile(Prefix + "state" + std::to_string(J) + ".cons"))
      die("cannot write ghostscript delta");
  }
  return 0;
}

/// The reference: Naive (Figure 1: no cycle detection, no HCD), after
/// OVS as `ptatool solve <suite> Naive` runs it; Naive over the unreduced
/// system takes 20x longer (64 s against 3.3 s on ghostscript at scale
/// 1.0). OVS is a measured layer, so the unreduced input is also solved by
/// PKH+HCD without OVS; run.py requires the two hashes to agree, which an
/// OVS that drops or wrongly merges constraints breaks.
int cmdNaive(const std::string &In, const std::string &Prefix, bool Snap) {
  ConstraintSystem CS = loadCons(In);
  writeFile(Prefix + ".unreduced.hash",
            hex(solve(CS, SolverKind::PKHHCD).hash()) + "\n");
  OvsResult Ovs = runOfflineVariableSubstitution(CS);
  PointsToSolution Sol = solve(Ovs.Reduced, SolverKind::Naive, PtsRepr::Bitmap,
                               nullptr, SolverOptions(), &Ovs.Rep);
  writeFile(Prefix + ".naive.hash", hex(Sol.hash()) + "\n");
  if (Snap) {
    Snapshot S;
    S.CS = std::move(Ovs.Reduced);
    S.SeedReps = std::move(Ovs.Rep);
    S.Solution = std::move(Sol);
    S.Kind = SolverKind::Naive;
    check(writeSnapshotFile(S, Prefix + ".naive.snap"), "write reference");
  }
  return 0;
}

uint64_t seedFor(uint64_t Seed, uint64_t Salt) {
  return (Seed + 1) * 0x9e3779b97f4a7c15ull ^ Salt;
}

/// analyze-lcdhcd: the seed shuffles each suite's constraint file in blocks of
/// AnalyzeBlock constraints, keeping the generator's program order inside
/// each block. The least fixpoint, hence the reference hash, does not
/// depend on the order; the solvers' worklist schedules do.
constexpr size_t AnalyzeBlock = 2048;

void prepAnalyze(const std::string &Data, uint64_t Seed, const std::string &Dir) {
  uint64_t Salt = 1;
  for (const char *Name : {"linux", "wine"}) {
    ConstraintSystem CS = loadCons(Data + "/suites/" + Name + ".cons");
    const std::vector<Constraint> &Cons = CS.constraints();
    std::vector<size_t> Blocks((Cons.size() + AnalyzeBlock - 1) / AnalyzeBlock);
    for (size_t I = 0; I != Blocks.size(); ++I)
      Blocks[I] = I;
    Rng R(seedFor(Seed, Salt++));
    for (size_t I = Blocks.size(); I > 1; --I)
      std::swap(Blocks[I - 1], Blocks[R.nextBelow(I)]);
    ConstraintSystem Out = CS.cloneNodeTable();
    for (size_t B : Blocks)
      for (size_t I = B * AnalyzeBlock;
           I != std::min(Cons.size(), (B + 1) * AnalyzeBlock); ++I)
        Out.add(Cons[I]);
    if (!Out.writeToFile(Dir + "/" + Name + ".cons"))
      die("cannot write shuffled suite");
  }
}

Snapshot loadReference(const std::string &Path) {
  Snapshot S;
  check(readSnapshotFile(Path, S), "read reference " + Path);
  return S;
}

void writeExpect(const std::string &Path, const std::vector<uint64_t> &D) {
  writeFile(Path, std::string(reinterpret_cast<const char *>(D.data()),
                              D.size() * sizeof(uint64_t)));
}

/// What the seeded script below keeps fixed: the cost of a demand query
/// depends mostly on which function it names, so a seeded choice of the
/// functions would make the cost of the mix, and of the first answer,
/// depend on the seed. The seed only samples and orders the requests.
constexpr uint64_t FixedChoiceSeed = 0x5eed;

/// serve-demand: round 0 reads the base; round j >= 1 first resolves delta
/// j, then reads. Each round's reads stay inside three functions' node
/// ranges (a function object up to the next one). The functions and the
/// first read of round 0 (the first-answer probe) are fixed; the seed picks
/// the other reads inside those ranges.
void prepServeDemand(const std::string &Data, uint64_t Seed,
                     const std::string &Dir) {
  ConstraintSystem Base = loadCons(Data + "/suites/ghostscript.base.cons");
  std::vector<uint32_t> Funs;
  for (uint32_t V = 0; V != Base.numNodes(); ++V)
    if (Base.isFunction(V))
      Funs.push_back(V);
  Funs.push_back(Base.numNodes());
  Rng Fixed(FixedChoiceSeed), R(seedFor(Seed, 23));
  std::string Script;
  std::vector<uint64_t> Expect;
  for (unsigned J = 0; J <= DemandParts; ++J) {
    Snapshot Ref = loadReference(Data + "/ref/ghostscript.state" +
                                 std::to_string(J) + ".naive.snap");
    Oracle O(Ref.Solution);
    Script += "#round " + std::to_string(J) + "\n";
    if (J > 0) {
      Script += "resolve " + Data + "/suites/ghostscript.delta" +
                std::to_string(J) + ".cons\n";
      Expect.push_back(0); // Checked by its reply's prefix.
    }
    std::vector<std::pair<uint32_t, uint32_t>> Ranges;
    for (int F = 0; F != 3; ++F) {
      size_t I = Fixed.nextBelow(Funs.size() - 1);
      Ranges.emplace_back(Funs[I], Funs[I + 1]);
    }
    for (size_t I = 0; I != DemandReadsPerRound; ++I) {
      Rng &G = J == 0 && I == 0 ? Fixed : R;
      auto Draw = [&] {
        auto [Lo, Hi] = Ranges[G.nextBelow(Ranges.size())];
        return uint32_t(G.nextInRange(Lo, Hi - 1));
      };
      std::string L = G.nextDouble() < 0.7
                          ? "pts " + std::to_string(Draw())
                          : "alias " + std::to_string(Draw()) + " " +
                                std::to_string(Draw());
      Expect.push_back(O.expect(L));
      Script += L + "\n";
    }
  }
  writeFile(Dir + "/script.txt", Script);
  writeExpect(Dir + "/expect.bin", Expect);
}

int cmdPrepSeed(const std::string &Workload, const std::string &Data,
                uint64_t Seed, const std::string &Dir) {
  if (Workload == "analyze-lcdhcd")
    prepAnalyze(Data, Seed, Dir);
  else if (Workload == "serve-demand")
    prepServeDemand(Data, Seed, Dir);
  else
    die("unknown prep workload " + Workload);
  return 0;
}

//===-- Results --------------------------------------------------------------===//

struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, double> EndToEnd;
  std::map<std::string, double> Layer;
  std::map<std::string, uint64_t> Counts; ///< Must repeat per seed.
  std::vector<std::string> Errors;

  void fail(const std::string &Msg) {
    ++Failed;
    if (Errors.size() < 20)
      Errors.push_back(Msg);
  }
};

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

template <typename M> std::string jsonObject(const M &Map) {
  std::string Out = "{";
  bool First = true;
  for (const auto &[K, V] : Map) {
    Out += (First ? "" : ", ") + jsonString(K) + ": " + jsonNumber(double(V));
    First = false;
  }
  return Out + "}";
}

void printResult(const Result &R) {
  std::string Errs = "[";
  for (size_t I = 0; I != R.Errors.size(); ++I)
    Errs += (I ? ", " : "") + jsonString(R.Errors[I]);
  Errs += "]";
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"end_to_end\": %s, "
              "\"per_layer\": %s, \"counts\": %s, \"errors\": %s}\n",
              (unsigned long long)R.Attempted, (unsigned long long)R.Failed,
              jsonObject(R.EndToEnd).c_str(), jsonObject(R.Layer).c_str(),
              jsonObject(R.Counts).c_str(), Errs.c_str());
}

//===-- analyze-lcdhcd -------------------------------------------------------===//

struct AnalyzeCfg {
  std::string Dir, Data, Scratch;
  double Seconds;
  bool Trace;
};

/// Per-pass accumulators (one pass = every suite through the pipeline).
struct PassStats {
  double Ovs = 0, Hcd = 0, Solve = 0, Write = 0;
  double FirstAnswerEnd = 0; ///< Seconds from pass start to suite 0 done.
  uint64_t Constraints = 0, Kept = 0, PreMerged = 0, SnapshotBytes = 0;
  double PhysicalMb = 0, PeakBitmapMb = 0, ArenaPeakMb = 0;
  uint64_t InternHits = 0, InternMisses = 0;
  SolverStats Stats;
  double analysis() const { return Ovs + Hcd + Solve + Write; }
};

/// Largest first: the first answer is linux's.
const char *const AnalyzeSuites[] = {"linux", "wine"};

PassStats analyzePass(const AnalyzeCfg &Cfg,
                      const std::vector<ConstraintSystem> &Systems,
                      const std::vector<std::string> &RefHashes, Result &R) {
  PassStats P;
  Span PassSpan("bench.pass");
  int64_t PassStart = nowNs();
  InternStats::instance().reset();
  for (size_t I = 0; I != Systems.size(); ++I) {
    const ConstraintSystem &CS = Systems[I];
    Span SuiteSpan("bench.suite");
    MemTracker::instance().resetPeaks();
    ArenaStats::instance().resetPeaks();
    int64_t T0 = nowNs();
    OvsResult Ovs;
    {
      Span S("constraints.ovs");
      Ovs = runOfflineVariableSubstitution(CS);
    }
    int64_t T1 = nowNs();
    HcdResult Hcd;
    {
      Span S("core.hcd_offline");
      Hcd = runHcdOffline(Ovs.Reduced);
    }
    int64_t T2 = nowNs();
    SolverStats Stats;
    Snapshot Snap;
    {
      Span S("solvers.solve");
      Snap.Solution = solve(Ovs.Reduced, SolverKind::LCDHCD, PtsRepr::Bitmap,
                            &Stats, SolverOptions(), &Ovs.Rep, &Hcd);
    }
    int64_t T3 = nowNs();
    P.Constraints += CS.constraints().size();
    P.Kept += Ovs.Reduced.constraints().size();
    Snap.CS = std::move(Ovs.Reduced);
    Snap.SeedReps = std::move(Ovs.Rep);
    Snap.Kind = SolverKind::LCDHCD;
    std::string SnapPath =
        Cfg.Scratch + "/" + AnalyzeSuites[I] + ".snap";
    {
      Span S("serve.snapshot_write");
      check(writeSnapshotFile(Snap, SnapPath), "snapshot write");
    }
    int64_t T4 = nowNs();
    if (I == 0)
      P.FirstAnswerEnd = seconds(PassStart, T4);
    P.Ovs += seconds(T0, T1);
    P.Hcd += seconds(T1, T2);
    P.Solve += seconds(T2, T3);
    P.Write += seconds(T3, T4);
    P.PreMerged += Hcd.NumPreMerged;
    P.Stats.mergeFrom(Stats);
    // Outside the timed pipeline: read the layer counters, check the
    // answer, free the solution.
    Span Check("bench.check");
    P.PeakBitmapMb = std::max(
        P.PeakBitmapMb,
        double(MemTracker::instance().peakBytes(MemCategory::Bitmap)) / 1048576);
    P.ArenaPeakMb = std::max(
        P.ArenaPeakMb,
        double(ArenaStats::instance().peakReservedBytes()) / 1048576);
    P.PhysicalMb +=
        double(Snap.Solution.sharingSummary().PhysicalBytes) / 1048576;
    std::ifstream SnapFile(SnapPath, std::ios::binary | std::ios::ate);
    P.SnapshotBytes += uint64_t(SnapFile.tellg());
    ++R.Attempted;
    std::string Got = hex(Snap.Solution.hash());
    if (Got != RefHashes[I])
      R.fail(std::string(AnalyzeSuites[I]) + ": solution hash " + Got +
             " != Naive reference " + RefHashes[I]);
    Snap = Snapshot();
  }
  P.InternHits = InternStats::instance().hits();
  P.InternMisses = InternStats::instance().misses();
  return P;
}

Result runAnalyze(const AnalyzeCfg &Cfg) {
  Result R;
  std::vector<std::string> RefHashes;
  for (const char *Name : AnalyzeSuites) {
    std::string H = readFile(Cfg.Data + "/ref/" + Name + ".naive.hash");
    RefHashes.push_back(H.substr(0, 16));
  }
  Span RunSpan("bench.run");
  // Setup: load the inputs SetupReps times before the passes (the last
  // load is used) and SetupReps times after them.
  std::vector<double> SetupS;
  std::vector<ConstraintSystem> Systems;
  auto LoadAll = [&] {
    TraceOn = Cfg.Trace;
    for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
      Span S("bench.setup");
      Systems.clear();
      int64_t Start = nowNs();
      for (const char *Name : AnalyzeSuites) {
        Span L("constraints.load");
        Systems.push_back(loadCons(Cfg.Dir + "/" + Name + ".cons"));
      }
      SetupS.push_back(seconds(Start, nowNs()));
    }
    TraceOn = false;
  };
  LoadAll();

  std::vector<PassStats> Passes;
  int64_t MeasureStart = nowNs();
  for (;;) {
    // A traced run makes one untraced pass, then one traced pass: the
    // ratio of the two is the tracing overhead.
    bool TracedPass = Cfg.Trace && !Passes.empty();
    TraceOn = TracedPass;
    Passes.push_back(analyzePass(Cfg, Systems, RefHashes, R));
    TraceOn = false;
    if (Cfg.Trace) {
      if (TracedPass)
        break;
      continue;
    }
    double Elapsed = seconds(MeasureStart, nowNs());
    if (Elapsed + Passes.back().analysis() > Cfg.Seconds)
      break;
  }
  // The after-loads only time set-up; the peak is the measured work's.
  double PeakRssMb = peakRssMb();
  Systems.clear();
  LoadAll();

  const PassStats &Last = Passes.back();
  for (const PassStats &P : Passes)
    if (P.Stats.toString() != Last.Stats.toString())
      R.Errors.push_back("solver counters differ between passes of one run");

  std::vector<double> Analysis, FirstAnswer, Ovs, Hcd, Solve, Write;
  for (const PassStats &P : Passes) {
    Analysis.push_back(P.analysis());
    FirstAnswer.push_back(P.FirstAnswerEnd);
    Ovs.push_back(P.Ovs);
    Hcd.push_back(P.Hcd);
    Solve.push_back(P.Solve);
    Write.push_back(P.Write);
  }
  R.EndToEnd["setup_s"] = median(SetupS);
  R.EndToEnd["work_s"] = median(Analysis);
  // A user waits for the load, then for the first suite's pipeline.
  R.EndToEnd["first_answer_ms"] = (median(SetupS) + median(FirstAnswer)) * 1e3;
  R.EndToEnd["peak_rss_mb"] = PeakRssMb;

  auto &L = R.Layer;
  L["constraints.load_s"] = median(SetupS);
  L["constraints.ovs_s"] = median(Ovs);
  L["constraints.ovs_kept_ratio"] = ratio(double(Last.Kept), double(Last.Constraints));
  L["core.hcd_offline_s"] = median(Hcd);
  L["core.hcd_premerged"] = double(Last.PreMerged);
  L["core.solution_physical_mb"] = Last.PhysicalMb;
  L["solvers.solve_s"] = median(Solve);
  const SolverStats &St = Last.Stats;
  Last.Stats.forEachField([&](const char *Name, uint64_t V) {
    if (std::strncmp(Name, "parallel_", 9) && std::strncmp(Name, "warm_", 5))
      L[std::string("solvers.") + Name] = double(V);
    R.Counts[std::string("solvers.") + Name] = V;
  });
  L["solvers.useful_propagation_ratio"] =
      ratio(double(St.ChangedPropagations), double(St.Propagations));
  L["adt.peak_bitmap_mb"] = Last.PeakBitmapMb;
  L["adt.arena_peak_mb"] = Last.ArenaPeakMb;
  L["adt.intern_hit_ratio"] =
      ratio(double(Last.InternHits), double(Last.InternHits + Last.InternMisses));
  L["serve.snapshot_write_s"] = median(Write);
  L["serve.snapshot_mb"] = double(Last.SnapshotBytes) / 1048576;
  if (Cfg.Trace)
    L["obs.trace_overhead_ratio"] =
        ratio(Passes[1].analysis(), Passes[0].analysis());
  R.Counts["analyze.snapshot_bytes"] = Last.SnapshotBytes;
  for (const char *Name : AnalyzeSuites)
    std::remove((Cfg.Scratch + "/" + Name + ".snap").c_str());
  return R;
}

//===-- Socket client ----------------------------------------------------------===//

class Client {
public:
  explicit Client(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      die("socket failed");
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
      die("connect failed: " + std::string(std::strerror(errno)));
    std::string Banner;
    readLine(Banner);
  }
  ~Client() { ::close(Fd); }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  void sendLine(const std::string &Line) {
    std::string Buf = Line + "\n";
    size_t Off = 0;
    while (Off < Buf.size()) {
      ssize_t N = ::send(Fd, Buf.data() + Off, Buf.size() - Off, MSG_NOSIGNAL);
      if (N <= 0) {
        if (N < 0 && errno == EINTR)
          continue;
        die("send failed");
      }
      Off += size_t(N);
    }
  }

  /// Reads one reply line into \p Out (newline included).
  void readLine(std::string &Out) {
    Out.clear();
    for (;;) {
      if (Pos < Buf.size()) {
        const char *Start = Buf.data() + Pos;
        const void *Nl = std::memchr(Start, '\n', Buf.size() - Pos);
        if (Nl) {
          size_t Len = static_cast<const char *>(Nl) - Start + 1;
          Out.append(Start, Len);
          Pos += Len;
          return;
        }
        Out.append(Start, Buf.size() - Pos);
      }
      Buf.resize(1 << 20);
      ssize_t N = ::recv(Fd, Buf.data(), Buf.size(), 0);
      if (N <= 0) {
        if (N < 0 && errno == EINTR) {
          Buf.clear();
          Pos = 0;
          continue;
        }
        die("connection closed by server");
      }
      Buf.resize(size_t(N));
      Pos = 0;
    }
  }

  std::string request(const std::string &Line) {
    sendLine(Line);
    std::string Reply;
    readLine(Reply);
    return Reply;
  }

private:
  int Fd = -1;
  std::string Buf;
  size_t Pos = 0;
};

//===-- serve-* ----------------------------------------------------------------===//

struct Script {
  std::vector<std::string> Lines;
  std::vector<uint64_t> Expect;
};

Script loadScript(const std::string &Dir) {
  Script S;
  std::istringstream Iss(readFile(Dir + "/script.txt"));
  for (std::string L; std::getline(Iss, L);)
    S.Lines.push_back(L);
  std::string E = readFile(Dir + "/expect.bin");
  S.Expect.resize(E.size() / sizeof(uint64_t));
  std::memcpy(S.Expect.data(), E.data(), E.size());
  return S;
}

/// One client-side sample.
struct Sample {
  uint8_t Cmd; ///< 0 pts, 1 alias, 2 resolve.
  int64_t Start, End;
};

uint8_t commandOf(const std::string &Line) {
  switch (Line[0]) {
  case 'p':
    return 0;
  case 'a':
    return 1;
  default:
    return 2;
  }
}

/// Timings of one bring-up, from the start of its setup.
struct BringUpTimes {
  double LoadS = 0, SessionS = 0, ServerS = 0, SetupS = 0;
  double FirstReplyMs = -1, FirstAnswerMs = -1; ///< -1: no probe sent.
};

/// A served session plus its server, brought up and torn down as a unit.
struct Served {
  std::unique_ptr<ServeSession> Session;
  std::unique_ptr<Server> Srv;
  BringUpTimes T;

  uint16_t port() const {
    std::string E = Srv->endpoint();
    return uint16_t(std::stoul(E.substr(E.rfind(':') + 1)));
  }
  ~Served() {
    if (Srv)
      Srv->stop();
    Srv.reset();
    Session.reset();
  }
};

void startServer(Served &S) {
  Span Sp("serve.server_start");
  ServerOptions O;
  O.Port = 0;
  O.Workers = ServeWorkers;
  S.Srv = std::make_unique<Server>(*S.Session, O);
  check(S.Srv->start(), "server start");
}

/// Brings a demand-mode session up over \p Input and, when \p Probe is
/// non-empty, answers it once over a new connection \p Conn, timing every
/// step from the setup's start.
std::unique_ptr<Served> bringUp(const std::string &Input,
                                const std::string &Probe, uint64_t ProbeExpect,
                                Result &R, std::unique_ptr<Client> &Conn) {
  auto S = std::make_unique<Served>();
  Span Setup("bench.setup");
  int64_t T0 = nowNs();
  ConstraintSystem CS;
  {
    Span Sp("constraints.load");
    CS = loadCons(Input);
  }
  int64_t T1 = nowNs();
  {
    Span Sp("serve.session_init");
    // Default options: a synchronous session, the Server owns admission.
    S->Session = std::make_unique<ServeSession>(std::move(CS));
  }
  S->T.LoadS = seconds(T0, T1);
  S->T.SessionS = seconds(T1, nowNs());
  int64_t T2 = nowNs();
  startServer(*S);
  int64_t T3 = nowNs();
  S->T.ServerS = seconds(T2, T3);
  S->T.SetupS = seconds(T0, T3);
  if (Probe.empty())
    return S;
  Conn = std::make_unique<Client>(S->port());
  int64_t T4 = nowNs();
  std::string Reply;
  {
    // The demand tier answers every read of a demand-mode session.
    Span Sp("demand.request", 1);
    Reply = Conn->request(Probe);
  }
  int64_t T5 = nowNs();
  S->T.FirstReplyMs = seconds(T4, T5) * 1e3;
  S->T.FirstAnswerMs = seconds(T0, T5) * 1e3;
  ++R.Attempted;
  if (digest(Reply.data(), Reply.size()) != ProbeExpect)
    R.fail("wrong first answer to '" + Probe + "'");
  return S;
}

/// \p Count bring-ups, each torn down before the next; the last \p Probed
/// of them answer \p Probe. Appends their timings to \p Times and returns
/// the last one, still serving, with its probe connection in \p Conn.
std::unique_ptr<Served> bringUps(const std::string &Input,
                                 const std::string &Probe, uint64_t ProbeExpect,
                                 unsigned Count, unsigned Probed, Result &R,
                                 std::unique_ptr<Client> &Conn,
                                 std::vector<BringUpTimes> &Times) {
  std::unique_ptr<Served> Live;
  for (unsigned Rep = 0; Rep != Count; ++Rep) {
    Conn.reset();
    Live.reset();
    bool WithProbe = Rep + Probed >= Count;
    Live = bringUp(Input, WithProbe ? Probe : std::string(), ProbeExpect, R,
                   Conn);
    Times.push_back(Live->T);
  }
  return Live;
}

double ms(int64_t Ns) { return double(Ns) * 1e-6; }

void latencyLayers(const std::vector<Sample> &Samples, Result &R) {
  static const char *const Names[] = {"pts", "alias"};
  std::vector<double> Reads, PerCmd[2], Resolves;
  for (const Sample &S : Samples) {
    double Ms = ms(S.End - S.Start);
    if (S.Cmd == 2) {
      Resolves.push_back(Ms);
      continue;
    }
    Reads.push_back(Ms);
    PerCmd[S.Cmd].push_back(Ms);
  }
  auto &L = R.Layer;
  for (int C = 0; C != 2; ++C) {
    L[std::string("serve.") + Names[C] + "_p50_ms"] = quantile(PerCmd[C], 0.5);
    L[std::string("serve.") + Names[C] + "_p99_ms"] = quantile(PerCmd[C], 0.99);
  }
  L["serve.query_p50_ms"] = quantile(Reads, 0.5);
  L["serve.query_p99_ms"] = quantile(Reads, 0.99);
  L["serve.query_samples"] = double(Reads.size());
  L["serve.resolve_p50_ms"] = quantile(Resolves, 0.5);
}

/// Set-up metrics over every bring-up of the run.
void setupLayers(Result &R, const std::vector<BringUpTimes> &Times) {
  std::vector<double> Load, Session, Server, FirstReply, Setup, FirstAnswer;
  for (const BringUpTimes &T : Times) {
    Load.push_back(T.LoadS);
    Session.push_back(T.SessionS);
    Server.push_back(T.ServerS);
    Setup.push_back(T.SetupS);
    if (T.FirstAnswerMs >= 0) {
      FirstReply.push_back(T.FirstReplyMs);
      FirstAnswer.push_back(T.FirstAnswerMs);
    }
  }
  R.EndToEnd["setup_s"] = median(Setup);
  R.EndToEnd["first_answer_ms"] = median(FirstAnswer);
  auto &L = R.Layer;
  L["constraints.load_s"] = median(Load);
  L["serve.session_init_s"] = median(Session);
  L["serve.server_start_s"] = median(Server);
  L["serve.first_reply_ms"] = median(FirstReply);
}

/// Serving metrics of the session that ran the rounds, read before any
/// later bring-up adds to the process-wide telemetry.
void serveLayers(Result &R, const Served &Live, uint64_t ReplyBytes,
                 uint64_t Requests) {
  auto &L = R.Layer;
  L["serve.reply_kb_per_query"] = ratio(double(ReplyBytes) / 1024, double(Requests));
  obs::MetricsRegistry &M = obs::MetricsRegistry::instance();
  auto C = [&](obs::Counter X) { return double(M.counterValue(X)); };
  double Hits = C(obs::Counter::ServeLruHits);
  L["serve.lru_hit_ratio"] = ratio(Hits, Hits + C(obs::Counter::ServeLruMisses));
  double Reqs = C(obs::Counter::ServeRequests);
  L["serve.tier_share.lru"] = ratio(C(obs::Counter::ServeTierLru), Reqs);
  L["serve.tier_share.memo"] = ratio(C(obs::Counter::ServeTierMemo), Reqs);
  L["serve.tier_share.demand"] = ratio(C(obs::Counter::ServeTierDemand), Reqs);
  obs::LatencyTracker &LT = obs::LatencyTracker::instance();
  L["serve.server_p50_ms"] =
      double(LT.quantileMicros(obs::CommandClass::Query, 0.5)) / 1e3;
  L["serve.server_p99_ms"] =
      double(LT.quantileMicros(obs::CommandClass::Query, 0.99)) / 1e3;
  ServeCounters SC = Live.Session->counters();
  L["serve.shed"] = double(SC.Shed);
  L["serve.deadline_dropped"] = double(SC.DeadlineDropped);
  double Queries = C(obs::Counter::DemandQueries);
  L["demand.steps"] = C(obs::Counter::DemandSteps);
  L["demand.steps_per_query"] = ratio(C(obs::Counter::DemandSteps), Queries);
  double MemoHits = C(obs::Counter::DemandMemoHits);
  L["demand.memo_hit_ratio"] =
      ratio(MemoHits, MemoHits + C(obs::Counter::DemandMemoMisses));
  L["demand.invalidations"] = C(obs::Counter::DemandInvalidations);
  L["demand.escalations"] = C(obs::Counter::DemandEscalations);
  R.Failed += SC.Shed + SC.DeadlineDropped;
}

void resetServeTelemetry() {
  obs::MetricsRegistry::instance().reset();
  obs::LatencyTracker::instance().reset();
}

struct ServeCfg {
  std::string Dir, Data;
  double Seconds;
  bool Trace;
};

/// One serve-demand phase, a sequence of sessions until the time budget
/// ends: each session is brought up DemandBringUps times (the last
/// DemandProbed of them answer the probe), runs every round (resolve +
/// reads split over two closed-loop connections) and is torn down. The
/// serving layer metrics are the last session's; the rounds' reply bytes
/// and request count must repeat exactly in every session.
void serveDemandPhase(const ServeCfg &Cfg, const Script &Sc, Result &R,
                      std::vector<double> &RoundS, double &Qps) {
  std::string Base = Cfg.Data + "/suites/ghostscript.base.cons";
  // Rounds: [begin, end) line ranges, each led by its "#round" marker.
  std::vector<std::pair<size_t, size_t>> Rounds;
  std::vector<size_t> ExpectIdx(Sc.Lines.size(), 0);
  size_t E = 0;
  for (size_t I = 0; I != Sc.Lines.size(); ++I) {
    if (Sc.Lines[I][0] == '#') {
      if (!Rounds.empty())
        Rounds.back().second = I;
      Rounds.emplace_back(I + 1, Sc.Lines.size());
      continue;
    }
    ExpectIdx[I] = E++;
  }
  const std::string &Probe = Sc.Lines[Rounds[0].first];
  uint64_t ProbeExpect = Sc.Expect[ExpectIdx[Rounds[0].first]];

  std::vector<BringUpTimes> Times;
  std::vector<Sample> Samples;
  std::mutex SamplesMu;
  uint64_t AllRequests = 0;
  double ScriptS = 0;
  RoundS.clear();
  const int64_t Deadline = nowNs() + int64_t(Cfg.Seconds * 1e9);
  for (bool FirstSession = true; FirstSession || nowNs() < Deadline;
       FirstSession = false) {
    std::unique_ptr<Client> Conn;
    std::unique_ptr<Served> Live = bringUps(Base, Probe, ProbeExpect, DemandBringUps,
                                            DemandProbed, R, Conn, Times);
    Served &S = *Live;
    resetServeTelemetry();

    std::vector<std::unique_ptr<Client>> Conns;
    Conns.push_back(std::move(Conn));
    while (Conns.size() < ClientConns)
      Conns.push_back(std::make_unique<Client>(S.port()));
    uint64_t ReplyBytes = 0, Requests = 0, Retained = 0, Resolves = 0;
    Span ScriptSpan("bench.script");
    const int64_t Start = nowNs();
    for (auto [Begin, End] : Rounds) {
      Span RoundSpan("bench.round");
      const uint64_t Parent = RoundSpan.id();
      int64_t T0 = nowNs();
      size_t First = Begin;
      if (commandOf(Sc.Lines[Begin]) == 2) {
        Sample Smp{2, nowNs(), 0};
        std::string Reply;
        {
          Span Sp("demand.resolve", Begin + 2);
          Reply = Conns[0]->request(Sc.Lines[Begin]);
        }
        Smp.End = nowNs();
        Samples.push_back(Smp);
        ++Requests;
        ++Resolves;
        ReplyBytes += Reply.size();
        const std::string Ok = "resolved: demand delta adopted";
        size_t At = Reply.find("memo retained ");
        if (Reply.compare(0, Ok.size(), Ok) != 0 || At == std::string::npos)
          R.fail("resolve failed: " + Reply);
        else
          Retained += std::stoull(Reply.substr(At + 14));
        First = Begin + 1;
      }
      std::atomic<size_t> Next{First};
      std::vector<uint64_t> Bytes(ClientConns, 0);
      std::vector<std::vector<std::string>> Errors(ClientConns);
      auto Worker = [&](unsigned T) {
        std::string Reply;
        std::vector<Sample> Local;
        for (size_t I; (I = Next.fetch_add(1)) < End;) {
          Sample Smp{commandOf(Sc.Lines[I]), nowNs(), 0};
          {
            Span Sp("demand.request", I + 2, Parent);
            Conns[T]->sendLine(Sc.Lines[I]);
            Conns[T]->readLine(Reply);
          }
          Smp.End = nowNs();
          Local.push_back(Smp);
          Bytes[T] += Reply.size();
          if (digest(Reply.data(), Reply.size()) != Sc.Expect[ExpectIdx[I]])
            Errors[T].push_back("wrong reply to '" + Sc.Lines[I] + "'");
        }
        std::lock_guard<std::mutex> Lock(SamplesMu);
        Samples.insert(Samples.end(), Local.begin(), Local.end());
      };
      std::vector<std::thread> Threads;
      for (unsigned T = 0; T != ClientConns; ++T)
        Threads.emplace_back(Worker, T);
      for (std::thread &T : Threads)
        T.join();
      for (unsigned T = 0; T != ClientConns; ++T) {
        ReplyBytes += Bytes[T];
        for (const std::string &Er : Errors[T])
          R.fail(Er);
      }
      Requests += End - First;
      RoundS.push_back(seconds(T0, nowNs()));
    }
    ScriptS += seconds(Start, nowNs());
    ScriptSpan.end();
    Conns.clear();
    AllRequests += Requests;
    serveLayers(R, S, ReplyBytes, Requests);
    R.Layer["demand.memo_retained_classes"] =
        ratio(double(Retained), double(Resolves));
    if (FirstSession) {
      // The later sessions repeat the first; they only add samples.
      R.EndToEnd["peak_rss_mb"] = peakRssMb();
      R.Counts["serve.reply_bytes"] = ReplyBytes;
      R.Counts["serve.requests"] = Requests;
    } else if (R.Counts["serve.reply_bytes"] != ReplyBytes ||
               R.Counts["serve.requests"] != Requests) {
      R.Errors.push_back("reply bytes or requests differ between sessions");
    }
  }
  R.Attempted += AllRequests;
  Qps = double(AllRequests) / ScriptS;
  latencyLayers(Samples, R);
  R.Layer["serve.qps"] = Qps;
  setupLayers(R, Times);
}

/// Runs serve-demand. A traced run makes an untraced phase first, then a
/// traced one, and reports the traced phase plus the qps ratio as tracing
/// overhead.
Result runServe(const ServeCfg &Cfg) {
  Script Sc = loadScript(Cfg.Dir);
  obs::setMetricsEnabled(true); // As `ptatool serve` runs.
  Result R;
  std::vector<double> WorkS;
  double Qps = 0;
  if (Cfg.Trace) {
    Result Untraced;
    double UntracedQps = 0;
    serveDemandPhase(Cfg, Sc, Untraced, WorkS, UntracedQps);
    TraceOn = true;
    {
      Span Run("bench.run");
      serveDemandPhase(Cfg, Sc, R, WorkS, Qps);
    }
    TraceOn = false;
    R.Attempted += Untraced.Attempted;
    R.Failed += Untraced.Failed;
    R.Errors.insert(R.Errors.end(), Untraced.Errors.begin(),
                    Untraced.Errors.end());
    R.Layer["obs.trace_overhead_ratio"] = ratio(UntracedQps, Qps);
  } else {
    serveDemandPhase(Cfg, Sc, R, WorkS, Qps);
  }
  R.EndToEnd["work_s"] = median(WorkS);
  return R;
}

int cmdRun(const std::string &Workload, const std::string &Data,
           const std::string &Dir, double Secs, bool Trace,
           const std::string &Scratch, const std::string &SpansPath) {
  Result R;
  if (Workload == "analyze-lcdhcd") {
    R = runAnalyze({Dir, Data, Scratch, Secs, Trace});
  } else if (Workload == "serve-demand") {
    R = runServe({Dir, Data, Secs, Trace});
  } else {
    die("unknown workload " + Workload);
  }
  if (Trace)
    writeSpans(SpansPath);
  printResult(R);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> A(Argv + 1, Argv + Argc);
  if (A.size() == 2 && A[0] == "prep-suites")
    return cmdPrepSuites(A[1]);
  if ((A.size() == 3 || A.size() == 4) && A[0] == "naive")
    return cmdNaive(A[1], A[2], A.size() == 4);
  if (A.size() == 5 && A[0] == "prep-seed")
    return cmdPrepSeed(A[1], A[2], std::stoull(A[3]), A[4]);
  if (A.size() == 8 && A[0] == "run")
    return cmdRun(A[1], A[2], A[3], std::stod(A[4]), A[5] == "1", A[6], A[7]);
  std::fprintf(stderr, "usage: see the file comment of pipebench.cpp\n");
  return 2;
}
