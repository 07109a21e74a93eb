//===- RequestTelemetryTest.cpp - Wide events end to end ------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Request-scoped telemetry through a real ServeSession: every executed
/// request emits exactly one well-formed "ag.events.v1" line with a unique
/// trace id, tier attribution reflects how the answer was produced
/// (cache_hit flips on a repeated query), `stats json` returns the
/// ag.metrics.v8 document, and the wide event of a request a Server drops
/// on its queue-wait deadline is correlated — by trace id — with its
/// slow-query log entry, which also carries a FlightRecorder ring snapshot.
///
//===----------------------------------------------------------------------===//

#include "serve/ServeSession.h"

#include "obs/EventLog.h"
#include "obs/MetricsRegistry.h"
#include "obs/Obs.h"

#include "ServeTestUtil.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace ag;
using ag::test::makeSnapshot;
using ag::test::tinySystem;

namespace {

std::vector<std::string> lines(const std::string &Text) {
  std::vector<std::string> Out;
  std::istringstream In(Text);
  for (std::string L; std::getline(In, L);)
    Out.push_back(L);
  return Out;
}

/// Extracts the string value of \p Key from one JSON event line (the
/// events are flat enough for textual extraction).
std::string jsonStr(const std::string &Line, const std::string &Key) {
  std::string Needle = "\"" + Key + "\":\"";
  size_t At = Line.find(Needle);
  if (At == std::string::npos)
    return "";
  At += Needle.size();
  size_t End = Line.find('"', At);
  return End == std::string::npos ? "" : Line.substr(At, End - At);
}

/// Extracts a numeric/bool value of \p Key.
std::string jsonRaw(const std::string &Line, const std::string &Key) {
  std::string Needle = "\"" + Key + "\":";
  size_t At = Line.find(Needle);
  if (At == std::string::npos)
    return "";
  At += Needle.size();
  size_t End = Line.find_first_of(",}", At);
  return End == std::string::npos ? "" : Line.substr(At, End - At);
}

TEST(RequestTelemetry, OneWellFormedEventPerRequestWithUniqueTraceIds) {
  std::ostringstream EventSink;
  obs::EventLog::Options EO;
  EO.ManualDrain = true;
  auto Events = std::make_shared<obs::EventLog>(EventSink, EO);

  ServeOptions Opts;
  Opts.Events = Events;
  {
    ServeSession S(makeSnapshot(tinySystem()), Opts);
    std::istringstream In("pts p\npts p\nalias p q\nbogus cmd\nstats\n"
                          "quit\n");
    std::ostringstream Out;
    EXPECT_EQ(S.run(In, Out), 0);
  }
  Events->drain();

  std::vector<std::string> L = lines(EventSink.str());
  ASSERT_EQ(L.size(), 6u) << "exactly one event per request line";
  std::set<std::string> Traces;
  for (const std::string &E : L) {
    EXPECT_EQ(jsonStr(E, "schema"), "ag.events.v1") << E;
    EXPECT_EQ(jsonStr(E, "trace").size(), 16u) << E;
    EXPECT_FALSE(jsonRaw(E, "micros").empty()) << E;
    Traces.insert(jsonStr(E, "trace"));
  }
  EXPECT_EQ(Traces.size(), 6u) << "trace ids must be unique per request";

  EXPECT_EQ(jsonStr(L[0], "cmd"), "pts");
  EXPECT_EQ(jsonStr(L[0], "class"), "query");
  EXPECT_EQ(jsonStr(L[0], "status"), "ok");
  EXPECT_EQ(jsonRaw(L[0], "result_size"), "1");
  EXPECT_EQ(jsonRaw(L[0], "cache_hit"), "false");
  // The repeated query is served from the LRU: the cache_hit bit flips.
  EXPECT_EQ(jsonRaw(L[1], "cache_hit"), "true");
  EXPECT_EQ(jsonStr(L[2], "cmd"), "alias");
  EXPECT_EQ(jsonStr(L[3], "cmd"), "bogus");
  EXPECT_EQ(jsonStr(L[3], "status"), "error");
  EXPECT_EQ(jsonStr(L[4], "class"), "admin");
  EXPECT_EQ(jsonStr(L[5], "cmd"), "quit");
}

TEST(RequestTelemetry, StatsJsonReturnsTheMetricsDocument) {
  obs::setMetricsEnabled(true);
  ServeSession S(makeSnapshot(tinySystem()));
  std::istringstream In("pts p\nstats json\nquit\n");
  std::ostringstream Out;
  EXPECT_EQ(S.run(In, Out), 0);
  const std::string Text = Out.str();
  EXPECT_NE(Text.find("\"ag.metrics.v8\""), std::string::npos)
      << "stats json must emit the renderJson document";
  EXPECT_NE(Text.find("\"serve.requests\""), std::string::npos);
  EXPECT_NE(Text.find("\"serve.latency.p99.query\""), std::string::npos);
  obs::setMetricsEnabled(false);
}

TEST(RequestTelemetry, DeadlineDropEventCorrelatesWithSlowQueryLog) {
  std::ostringstream EventSink, SlowSink;
  obs::EventLog::Options EO;
  EO.ManualDrain = true;
  auto Events = std::make_shared<obs::EventLog>(EventSink, EO);

  ServeOptions Opts;
  Opts.Events = Events;
  Opts.SlowOut = &SlowSink;
  ServerOptions SrvOpts;
  SrvOpts.QueueCapacity = 8;
  SrvOpts.DeadlineSeconds = 0.05;
  {
    ServeSession S(makeSnapshot(tinySystem()), Opts);
    ag::test::serveScript(S, SrvOpts, "sleep 200\npts p\nquit\n");
    EXPECT_GE(S.counters().DeadlineDropped, 1u);
  }
  Events->drain();

  // Find the dropped request's wide event.
  std::string DroppedTrace;
  for (const std::string &E : lines(EventSink.str())) {
    // `quit` may be deadline-dropped too (it also waited behind the
    // sleep); correlate on the query specifically.
    if (jsonStr(E, "status") != "deadline" || jsonStr(E, "cmd") != "pts")
      continue;
    // The event's latency is the time the client actually waited, which
    // exceeded the 50 ms deadline.
    EXPECT_GE(std::stoull(jsonRaw(E, "micros")), 50000u) << E;
    DroppedTrace = jsonStr(E, "trace");
  }
  ASSERT_FALSE(DroppedTrace.empty())
      << "the deadline drop must emit a wide event; events:\n"
      << EventSink.str();

  // The slow-query log captured the same event (same trace id) plus a
  // flight-ring snapshot with the absolute-epoch header.
  const std::string Slow = SlowSink.str();
  EXPECT_NE(Slow.find("slow-query: "), std::string::npos) << Slow;
  EXPECT_NE(Slow.find(DroppedTrace), std::string::npos)
      << "slow log entry must carry the dropped request's trace id";
  EXPECT_NE(Slow.find("flight snapshot:"), std::string::npos);
  EXPECT_NE(Slow.find("epoch_ms="), std::string::npos)
      << "flight dump must carry the absolute epoch header";
}

TEST(RequestTelemetry, SlowMillisThresholdCapturesSlowRequests) {
  std::ostringstream SlowSink;
  ServeOptions Opts;
  Opts.SlowMillis = 10; // `sleep 50` must trip the latency trigger.
  Opts.SlowOut = &SlowSink;
  ServeSession S(makeSnapshot(tinySystem()), Opts);
  std::istringstream In("pts p\nsleep 50\nquit\n");
  std::ostringstream Out;
  EXPECT_EQ(S.run(In, Out), 0);
  const std::string Slow = SlowSink.str();
  EXPECT_NE(Slow.find("slow-query: "), std::string::npos) << Slow;
  EXPECT_NE(Slow.find("\"cmd\":\"sleep\""), std::string::npos)
      << "only the slow request may be captured: " << Slow;
  EXPECT_EQ(Slow.find("\"cmd\":\"pts\""), std::string::npos)
      << "a fast request must not hit the slow log: " << Slow;
}

} // namespace
