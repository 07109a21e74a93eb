//===- SolutionChecker.cpp - Independent fixed-point verification ---------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "check/SolutionChecker.h"

#include "obs/TraceRecorder.h"

using namespace ag;

namespace {

/// Two-pointer subset probe over ascending element streams. On failure
/// \p MissingOut names the first element of \p Small absent from \p Big.
/// Extracted solutions hash-cons their sets, so most load/store checks
/// compare a set with itself; only that identity is short-cut, every
/// other pair is walked element by element, independent of the bitmap
/// kernels the solvers use.
bool isSubset(const SparseBitVector &Small, const SparseBitVector &Big,
              uint32_t &MissingOut) {
  if (&Small == &Big)
    return true;
  auto BI = Big.begin(), BE = Big.end();
  for (uint32_t V : Small) {
    while (BI != BE && *BI < V)
      ++BI;
    if (BI == BE || *BI != V) {
      MissingOut = V;
      return false;
    }
  }
  return true;
}

class Collector {
public:
  Collector(CheckReport &Report, const CheckOptions &Opts)
      : Report(Report), Opts(Opts) {}

  void add(CheckViolation V) {
    if (Opts.MaxViolations == 0 ||
        Report.Violations.size() < Opts.MaxViolations)
      Report.Violations.push_back(V);
    else
      ++Dropped;
  }

private:
  CheckReport &Report;
  const CheckOptions &Opts;
  uint64_t Dropped = 0;
};

} // namespace

std::string CheckViolation::toString(const ConstraintSystem &CS) const {
  auto NodeStr = [&](NodeId N) {
    std::string S = "n" + std::to_string(N);
    if (N < CS.numNodes() && !CS.nameOf(N).empty())
      S += "(" + CS.nameOf(N) + ")";
    return S;
  };
  switch (What) {
  case Kind::RepRange:
    return "rep table: rep(" + NodeStr(Node) + ") = " +
           std::to_string(Witness) + " is out of range";
  case Kind::RepIdempotent:
    return "rep table: rep(" + NodeStr(Node) + ") = " + NodeStr(Witness) +
           " is not itself a representative";
  case Kind::AddressOf:
  case Kind::Copy:
  case Kind::Load:
  case Kind::Store: {
    const Constraint &C = CS.constraints()[ConstraintIndex];
    return std::string(constraintKindName(C.Kind)) + " #" +
           std::to_string(ConstraintIndex) + " (" + NodeStr(C.Dst) +
           " <- " + NodeStr(C.Src) +
           (C.Offset ? " +" + std::to_string(C.Offset) : "") +
           "): pts(" + NodeStr(Node) + ") is missing object " +
           NodeStr(Witness);
  }
  case Kind::Superset:
    return "superset: pts(" + NodeStr(Node) + ") lost object " +
           NodeStr(Witness);
  }
  return "?";
}

std::string CheckReport::summary(const ConstraintSystem &CS) const {
  if (ok())
    return "certified: " + std::to_string(ConstraintsChecked) +
           " constraints, " + std::to_string(SubsetChecks) +
           " subset checks";
  std::string Out =
      "FAILED: " + std::to_string(Violations.size()) + " violation" +
      (Violations.size() == 1 ? "" : "s") +
      " (first: " + Violations.front().toString(CS) + ")";
  return Out;
}

CheckReport ag::checkSolution(const ConstraintSystem &CS,
                              const PointsToSolution &Sol,
                              const CheckOptions &Opts) {
  obs::TraceSpan Span("check_solution", "check");
  CheckReport Report;
  Collector Out(Report, Opts);
  const uint32_t N = CS.numNodes();

  if (Sol.numNodes() != N) {
    Out.add({CheckViolation::Kind::RepRange, 0, InvalidNode,
             Sol.numNodes()});
    return Report;
  }

  // Structural pass: the rep table must map into range and be idempotent
  // (every query routes through it, so a broken table poisons everything).
  for (NodeId V = 0; V != N; ++V) {
    NodeId R = Sol.repOf(V);
    if (R >= N) {
      Out.add({CheckViolation::Kind::RepRange, 0, V, R});
      continue;
    }
    if (Sol.repOf(R) != R)
      Out.add({CheckViolation::Kind::RepIdempotent, 0, V, R});
  }
  if (!Report.ok())
    return Report; // Closure rules assume a sane rep table.

  // Closure pass: one visit per constraint, subset merges against the
  // final sets only.
  const std::vector<Constraint> &Cons = CS.constraints();
  for (size_t I = 0; I != Cons.size(); ++I) {
    const Constraint &C = Cons[I];
    ++Report.ConstraintsChecked;
    uint32_t Missing = 0;
    switch (C.Kind) {
    case ConstraintKind::AddressOf:
      if (!Sol.pointsTo(C.Dst).test(C.Src))
        Out.add({CheckViolation::Kind::AddressOf, I, C.Dst, C.Src});
      break;
    case ConstraintKind::Copy:
      ++Report.SubsetChecks;
      if (!isSubset(Sol.pointsTo(C.Src), Sol.pointsTo(C.Dst), Missing))
        Out.add({CheckViolation::Kind::Copy, I, C.Dst, Missing});
      break;
    case ConstraintKind::Load:
      // a = *(b+k): every slot reachable through pts(b) must flow into a.
      for (uint32_t V : Sol.pointsTo(C.Src)) {
        NodeId T = CS.offsetTarget(V, C.Offset);
        if (T == InvalidNode)
          continue;
        ++Report.SubsetChecks;
        if (!isSubset(Sol.pointsTo(T), Sol.pointsTo(C.Dst), Missing))
          Out.add({CheckViolation::Kind::Load, I, C.Dst, Missing});
      }
      break;
    case ConstraintKind::Store:
      // *(a+k) = b: b must flow into every slot reachable through pts(a).
      for (uint32_t V : Sol.pointsTo(C.Dst)) {
        NodeId T = CS.offsetTarget(V, C.Offset);
        if (T == InvalidNode)
          continue;
        ++Report.SubsetChecks;
        if (!isSubset(Sol.pointsTo(C.Src), Sol.pointsTo(T), Missing))
          Out.add({CheckViolation::Kind::Store, I, T, Missing});
      }
      break;
    }
  }
  return Report;
}

CheckReport ag::checkSuperset(const PointsToSolution &Big,
                              const PointsToSolution &Small,
                              const CheckOptions &Opts) {
  CheckReport Report;
  Collector Out(Report, Opts);
  const uint32_t N = Small.numNodes();
  if (Big.numNodes() != N) {
    Out.add({CheckViolation::Kind::RepRange, 0, InvalidNode,
             Big.numNodes()});
    return Report;
  }
  for (NodeId V = 0; V != N; ++V) {
    ++Report.SubsetChecks;
    uint32_t Missing = 0;
    if (!isSubset(Small.pointsTo(V), Big.pointsTo(V), Missing))
      Out.add({CheckViolation::Kind::Superset, 0, V, Missing});
  }
  return Report;
}
