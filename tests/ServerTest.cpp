//===- ServerTest.cpp - Concurrent line-protocol front-end ----------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The TCP/unix-socket Server front-end: K parallel clients produce
/// byte-identical transcripts to the serial stdin REPL, overload sheds at
/// --max-conns, a mid-request disconnect never hurts other connections,
/// oversized/garbage lines get the REPL's structured errors per
/// connection, requestStop() drains in-flight requests, idle connections
/// are reaped, and a `resolve` epoch swap under live query load keeps
/// every reader on a consistent snapshot (the TSan leg runs this suite).
/// The server is the only admission queue, so queue-full shedding and
/// queue-wait deadlines (with and without a queue bound) are tested here.
/// The E2e tests drive `ptatool serve --unix-socket` in a subprocess: it
/// sheds under --max-queue, and SIGTERM exits 0 after a graceful drain.
///
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "adt/Rng.h"
#include "serve/ServeSession.h"
#include "workload/WorkloadGen.h"

#include "ServeTestUtil.h"
#include "TestTimeouts.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <poll.h>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ag;
using ag::test::connectTcp;
using ag::test::countOccurrences;
using ag::test::makeSnapshot;
using ag::test::readToEof;
using ag::test::runScript;
using ag::test::scaledMs;
using ag::test::sendAll;
using ag::test::serveScript;
using ag::test::tinySystem;
using Clock = std::chrono::steady_clock;

namespace {

ConstraintSystem mediumSystem() {
  BenchmarkSpec Spec;
  Spec.NumFunctions = 10;
  Spec.VarsPerFunction = 8;
  Spec.NumGlobals = 16;
  Spec.Seed = 31;
  return generateBenchmark(Spec);
}

int connectUnix(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr = {};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    ::close(Fd);
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Incremental line reader over one socket (keeps the partial tail
/// between calls).
struct LineReader {
  int Fd;
  std::string Buf;

  /// Next '\n'-terminated line (without the newline); false on EOF or
  /// deadline.
  bool next(std::string &Line, std::chrono::milliseconds Deadline) {
    auto End = Clock::now() + Deadline;
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        Line = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return true;
      }
      auto Remain = std::chrono::duration_cast<std::chrono::milliseconds>(
          End - Clock::now());
      if (Remain.count() <= 0)
        return false;
      pollfd P = {Fd, POLLIN, 0};
      int R = ::poll(&P, 1, int(Remain.count()));
      if (R <= 0) {
        if (R < 0 && errno == EINTR)
          continue;
        return false;
      }
      char Tmp[4096];
      ssize_t N = ::recv(Fd, Tmp, sizeof(Tmp), 0);
      if (N <= 0)
        return false;
      Buf.append(Tmp, size_t(N));
    }
  }
};

/// A deterministic per-client query mix (read-only commands plus
/// structured-error lines, so replies are independent of what other
/// clients do to the shared session).
std::string makeScript(uint32_t NumNodes, uint64_t Seed, size_t Lines) {
  Rng R(Seed);
  std::ostringstream S;
  for (size_t I = 0; I != Lines; ++I) {
    switch (R.nextBelow(5)) {
    case 0:
      S << "pts " << R.nextBelow(NumNodes) << "\n";
      break;
    case 1:
      S << "alias " << R.nextBelow(NumNodes) << " " << R.nextBelow(NumNodes)
        << "\n";
      break;
    case 2:
      S << "pointedby " << R.nextBelow(NumNodes) << "\n";
      break;
    case 3:
      S << "help\n";
      break;
    default:
      S << "no-such-command-" << R.nextBelow(100) << "\n";
      break;
    }
  }
  S << "quit\n";
  return S.str();
}

TEST(Server, EightParallelClientsAreByteIdenticalToSerialRepl) {
  Snapshot Snap = makeSnapshot(mediumSystem());
  const uint32_t NumNodes = Snap.CS.numNodes();

  constexpr size_t NumClients = 8;
  std::vector<std::string> Scripts, Expected;
  for (size_t I = 0; I != NumClients; ++I) {
    Scripts.push_back(makeScript(NumNodes, /*Seed=*/1000 + I, 40));
    // The serial reference: a fresh REPL run over the same snapshot.
    ServeSession Ref(Snap);
    std::istringstream In(Scripts.back());
    std::ostringstream Out;
    EXPECT_EQ(Ref.run(In, Out), 0);
    Expected.push_back(Out.str());
  }

  ServeSession Session(Snap);
  ServerOptions SrvOpts;
  SrvOpts.Workers = 4;
  Server Srv(Session, SrvOpts);
  ASSERT_TRUE(Srv.start().ok());

  std::vector<std::string> Got(NumClients);
  std::vector<std::thread> Clients;
  for (size_t I = 0; I != NumClients; ++I)
    Clients.emplace_back([&, I] {
      int Fd = connectTcp(Srv.port());
      ASSERT_GE(Fd, 0);
      Got[I] = runScript(Fd, Scripts[I], scaledMs(20000));
      ::close(Fd);
    });
  for (std::thread &T : Clients)
    T.join();
  Srv.stop();

  for (size_t I = 0; I != NumClients; ++I)
    EXPECT_EQ(Got[I], Expected[I])
        << "client " << I << " transcript diverged from the serial REPL";
  EXPECT_EQ(Srv.counters().Accepted, NumClients);
}

TEST(Server, MaxConnsRejectsExtraClientsWithStructuredError) {
  ServeSession Session(makeSnapshot(tinySystem()));
  ServerOptions SrvOpts;
  SrvOpts.MaxConns = 2;
  Server Srv(Session, SrvOpts);
  ASSERT_TRUE(Srv.start().ok());

  int A = connectTcp(Srv.port());
  int B = connectTcp(Srv.port());
  ASSERT_GE(A, 0);
  ASSERT_GE(B, 0);
  // Both admitted clients must see the banner before the third connects,
  // otherwise its accept can race theirs.
  LineReader Ra{A, {}}, Rb{B, {}};
  std::string Banner;
  ASSERT_TRUE(Ra.next(Banner, scaledMs(5000)));
  EXPECT_NE(Banner.find("serving"), std::string::npos);
  ASSERT_TRUE(Rb.next(Banner, scaledMs(5000)));

  int Extra = connectTcp(Srv.port());
  ASSERT_GE(Extra, 0);
  std::string Reply = readToEof(Extra, scaledMs(5000));
  EXPECT_EQ(Reply, "ERR overloaded: too many connections (max 2)\n");
  ::close(Extra);

  // The admitted connections still serve.
  ASSERT_TRUE(sendAll(A, "pts p\n"));
  std::string Line;
  ASSERT_TRUE(Ra.next(Line, scaledMs(5000)));
  EXPECT_EQ(Line, "pts(p): 1");

  ::close(A);
  ::close(B);
  Srv.stop();
  ServerCounters SC = Srv.counters();
  EXPECT_EQ(SC.Accepted, 2u);
  EXPECT_GE(SC.Rejected, 1u);
}

TEST(Server, MidRequestDisconnectNeverAffectsOtherConnections) {
  ServeSession Session(makeSnapshot(tinySystem()));
  ServerOptions SrvOpts;
  SrvOpts.Workers = 2;
  Server Srv(Session, SrvOpts);
  ASSERT_TRUE(Srv.start().ok());

  // Client A starts a slow request and vanishes mid-flight without
  // reading a byte of the reply.
  int A = connectTcp(Srv.port());
  ASSERT_GE(A, 0);
  ASSERT_TRUE(sendAll(A, "sleep 200\n"));
  ::close(A);

  // Client B gets served normally, before and after A's request lands on
  // the closed socket.
  int B = connectTcp(Srv.port());
  ASSERT_GE(B, 0);
  std::string Transcript = runScript(B, "pts p\nsleep 250\npts q\nquit\n",
                                     scaledMs(20000));
  ::close(B);
  EXPECT_NE(Transcript.find("pts(p): 1\n"), std::string::npos) << Transcript;
  EXPECT_NE(Transcript.find("pts(q): 1\n"), std::string::npos) << Transcript;
  Srv.stop();
}

TEST(Server, OversizedAndGarbageLinesGetReplStructuredErrorsPerConn) {
  ServeOptions SessOpts;
  SessOpts.MaxLineBytes = 64;
  ServeSession Session(makeSnapshot(tinySystem()), SessOpts);
  Server Srv(Session, ServerOptions());
  ASSERT_TRUE(Srv.start().ok());

  int Fd = connectTcp(Srv.port());
  ASSERT_GE(Fd, 0);
  std::string Long(1000, 'x');
  std::string Transcript = runScript(
      Fd, "pts " + Long + "\n\x01\x02garbage\x7f\npts p\nquit\n",
      scaledMs(10000));
  ::close(Fd);
  EXPECT_NE(Transcript.find("error: line too long (max 64 bytes)\n"),
            std::string::npos)
      << Transcript;
  EXPECT_NE(Transcript.find("error: unknown command"), std::string::npos)
      << Transcript;
  EXPECT_NE(Transcript.find("pts(p): 1\n"), std::string::npos) << Transcript;
  EXPECT_EQ(Session.counters().OversizedLines, 1u);

  // A final unterminated line is still served, like the stdin REPL at EOF.
  int Fd2 = connectTcp(Srv.port());
  ASSERT_GE(Fd2, 0);
  std::string T2 = runScript(Fd2, "pts p", scaledMs(10000));
  ::close(Fd2);
  EXPECT_NE(T2.find("pts(p): 1\n"), std::string::npos) << T2;
  Srv.stop();
}

TEST(Server, UnixSocketInUseIsRefusedStaleIsReclaimed) {
  std::string Sock = ::testing::TempDir() + "server_inuse.sock";
  ::unlink(Sock.c_str());

  ServeSession SessionA(makeSnapshot(tinySystem()));
  ServerOptions SrvOpts;
  SrvOpts.UnixSocketPath = Sock;
  Server A(SessionA, SrvOpts);
  ASSERT_TRUE(A.start().ok());

  // A second server on the same path must fail instead of silently
  // unlinking the live server's socket and stealing the endpoint.
  ServeSession SessionB(makeSnapshot(tinySystem()));
  Server B(SessionB, SrvOpts);
  Status St = B.start();
  ASSERT_FALSE(St.ok());
  EXPECT_NE(St.toString().find("in use"), std::string::npos) << St.toString();

  // The first server still owns the endpoint and still serves.
  int Fd = connectUnix(Sock);
  ASSERT_GE(Fd, 0);
  std::string T = runScript(Fd, "pts p\nquit\n", scaledMs(10000));
  ::close(Fd);
  EXPECT_NE(T.find("pts(p): 1\n"), std::string::npos) << T;
  A.stop();
  EXPECT_NE(::access(Sock.c_str(), F_OK), 0);

  // A stale path — bound once by a process that died without unlinking —
  // is reclaimed: connect() on it gets ECONNREFUSED, so startup proceeds.
  int Stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Stale, 0);
  sockaddr_un Addr = {};
  Addr.sun_family = AF_UNIX;
  ASSERT_LT(Sock.size(), sizeof(Addr.sun_path));
  std::memcpy(Addr.sun_path, Sock.c_str(), Sock.size() + 1);
  ASSERT_EQ(::bind(Stale, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  ::close(Stale);
  ASSERT_EQ(::access(Sock.c_str(), F_OK), 0);

  ServeSession SessionC(makeSnapshot(tinySystem()));
  Server C(SessionC, SrvOpts);
  ASSERT_TRUE(C.start().ok());
  int Fd2 = connectUnix(Sock);
  ASSERT_GE(Fd2, 0);
  std::string T2 = runScript(Fd2, "pts p\nquit\n", scaledMs(10000));
  ::close(Fd2);
  EXPECT_NE(T2.find("pts(p): 1\n"), std::string::npos) << T2;
  C.stop();
}

TEST(Server, FloodingNonReaderNeverStallsOtherClients) {
  ServeOptions SessOpts;
  SessOpts.MaxLineBytes = 64;
  ServeSession Session(makeSnapshot(tinySystem()), SessOpts);
  ServerOptions SrvOpts;
  SrvOpts.Workers = 2;
  Server Srv(Session, SrvOpts);
  ASSERT_TRUE(Srv.start().ok());

  // The flooder pipelines oversized garbage and never reads a byte:
  // every line earns an error reply it will not consume, so the server
  // side of its socket wedges — the exact overload these replies handle.
  // The poll thread must keep serving everyone else regardless; only the
  // flooder's own worker may stall, and the pending-reply cap kills the
  // connection. A tiny receive buffer (set before connect so the
  // handshake honors it) makes the wedge happen fast.
  std::atomic<bool> Done{false};
  std::thread Flooder([&] {
    int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return;
    int Small = 2048;
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVBUF, &Small, sizeof(Small));
    timeval SendTimeout = {0, 200000}; // Bounded sends keep join() safe.
    ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &SendTimeout,
                 sizeof(SendTimeout));
    sockaddr_in Addr = {};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(Srv.port());
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0) {
      std::string Chunk;
      for (int I = 0; I != 128; ++I)
        Chunk += std::string(80, 'z') + "\n";
      while (!Done.load() && sendAll(Fd, Chunk)) {
      }
    }
    ::close(Fd);
  });

  // Meanwhile a well-behaved client's round trips must all complete
  // promptly: a poll thread that blocks sending the flooder's error
  // replies would starve this connection's reads and admissions.
  int B = connectTcp(Srv.port());
  ASSERT_GE(B, 0);
  LineReader Rb{B, {}};
  std::string Line;
  ASSERT_TRUE(Rb.next(Line, scaledMs(5000))); // Banner.
  for (int I = 0; I != 30; ++I) {
    ASSERT_TRUE(sendAll(B, "pts p\n"));
    ASSERT_TRUE(Rb.next(Line, scaledMs(5000)))
        << "query " << I << " starved behind the flooder";
    EXPECT_EQ(Line, "pts(p): 1");
  }
  Done.store(true);
  sendAll(B, "quit\n");
  ::close(B);
  Flooder.join();
  Srv.stop();
}

TEST(Server, RequestStopDrainsInFlightRequestsBeforeClosing) {
  ServeSession Session(makeSnapshot(tinySystem()));
  ServerOptions SrvOpts;
  SrvOpts.Workers = 2;
  Server Srv(Session, SrvOpts);
  ASSERT_TRUE(Srv.start().ok());

  int Fd = connectTcp(Srv.port());
  ASSERT_GE(Fd, 0);
  // Two requests in flight / pending when the drain begins; both must be
  // answered before the server closes the connection.
  ASSERT_TRUE(sendAll(Fd, "sleep 200\npts p\n"));
  std::this_thread::sleep_for(scaledMs(50));
  Srv.requestStop();
  std::string Transcript = readToEof(Fd, scaledMs(20000));
  ::close(Fd);
  Srv.wait();
  EXPECT_NE(Transcript.find("slept 200 ms\n"), std::string::npos)
      << Transcript;
  EXPECT_NE(Transcript.find("pts(p): 1\n"), std::string::npos) << Transcript;
}

TEST(Server, IdleConnectionsAreReapedAndCounted) {
  ServeSession Session(makeSnapshot(tinySystem()));
  ServerOptions SrvOpts;
  // The idle clock compares against wall time, so scale the threshold up
  // with the suite instead of the read deadline only.
  SrvOpts.IdleTimeoutSeconds = 0.1 * ag::test::timeoutScale();
  Server Srv(Session, SrvOpts);
  ASSERT_TRUE(Srv.start().ok());

  int Fd = connectTcp(Srv.port());
  ASSERT_GE(Fd, 0);
  // Read everything until the server closes us: only the banner, then EOF
  // once the reaper fires.
  std::string Out = readToEof(Fd, scaledMs(30000));
  ::close(Fd);
  EXPECT_NE(Out.find("serving"), std::string::npos);
  ServerCounters SC = Srv.counters();
  EXPECT_GE(SC.IdleClosed, 1u);
  Srv.stop();
}

TEST(Server, ResolveSwapUnderLiveQueryLoadKeepsReadersConsistent) {
  // Base/delta split where the delta genuinely adds points-to facts.
  ConstraintSystem Full = mediumSystem();
  DeltaSplit Split = splitDelta(Full, 0.3, /*Seed=*/5);
  ConstraintSystem DeltaCS = Full.cloneNodeTable();
  for (const Constraint &Cst : Split.Delta)
    DeltaCS.add(Cst);
  std::string DeltaPath = ::testing::TempDir() + "server_swap_delta.cons";
  ASSERT_TRUE(DeltaCS.writeToFile(DeltaPath));

  Snapshot BaseSnap = makeSnapshot(Split.Base);
  // The snapshot is OVS-reduced, so grow checks below compare against it,
  // not the pre-reduction split.
  const size_t BaseConstraints = BaseSnap.CS.constraints().size();
  ServeSession Session(std::move(BaseSnap));
  ServerOptions SrvOpts;
  SrvOpts.Workers = 4;
  Server Srv(Session, SrvOpts);
  ASSERT_TRUE(Srv.start().ok());

  // Three readers hammer pts while the writer swaps the epoch: every
  // reply must be a complete, well-formed answer from *some* epoch —
  // never a torn or half-built one (TSan guards the memory side).
  std::atomic<bool> Failed{false};
  std::vector<std::thread> Readers;
  for (int RIdx = 0; RIdx != 3; ++RIdx)
    Readers.emplace_back([&, RIdx] {
      int Fd = connectTcp(Srv.port());
      if (Fd < 0) {
        Failed.store(true);
        return;
      }
      LineReader R{Fd, {}};
      std::string Line;
      if (!R.next(Line, scaledMs(10000))) { // Banner.
        Failed.store(true);
        ::close(Fd);
        return;
      }
      for (int I = 0; I != 60 && !Failed.load(); ++I) {
        std::string Q = "pts " + std::to_string((RIdx * 7 + I) % 20) + "\n";
        if (!sendAll(Fd, Q) || !R.next(Line, scaledMs(10000)) ||
            Line.rfind("pts(", 0) != 0) {
          Failed.store(true);
          break;
        }
      }
      sendAll(Fd, "quit\n");
      ::close(Fd);
    });

  // The writer swaps mid-load.
  int WFd = connectTcp(Srv.port());
  ASSERT_GE(WFd, 0);
  std::string WriterOut =
      runScript(WFd, "resolve " + DeltaPath + "\nquit\n", scaledMs(60000));
  ::close(WFd);
  EXPECT_NE(WriterOut.find("resolved: outcome precise"), std::string::npos)
      << WriterOut;

  for (std::thread &T : Readers)
    T.join();
  EXPECT_FALSE(Failed.load()) << "a reader saw a torn or missing reply";
  Srv.stop();

  // The swap stuck: the served system now contains the delta.
  EXPECT_GT(Session.servingSnapshot().CS.constraints().size(),
            BaseConstraints);
}

TEST(Server, QueueOverloadShedsWithStructuredErrors) {
  ServeSession Session(makeSnapshot(tinySystem()));
  ServerOptions SrvOpts;
  SrvOpts.QueueCapacity = 1;
  // The worker parks on `sleep` while the poll thread admits the rest of
  // the pipelined burst: with a one-slot pending deque most of the pts
  // lines must be shed — with a structured reply each, never a crash or
  // hang.
  std::string Text = serveScript(
      Session, SrvOpts,
      "sleep 300\npts p\npts p\npts p\npts p\npts p\npts p\nquit\n");

  ServeCounters C = Session.counters();
  EXPECT_GE(C.Shed, 1u) << "a one-slot queue must shed under this burst";
  EXPECT_EQ(C.Admitted + C.Shed, 8u)
      << "every line is either admitted or shed";
  EXPECT_EQ(countOccurrences(Text, "ERR overloaded: queue full"), C.Shed);
  // Exactly one reply per line: sheds and admitted requests reply, an
  // executed `quit` replies nothing.
  size_t Replies = countOccurrences(Text, "\n") - 1; // Minus the banner.
  EXPECT_TRUE(Replies == 7 || Replies == 8) << Text;
}

TEST(Server, DeadlineDropsRequestsThatWaitedTooLong) {
  ServeSession Session(makeSnapshot(tinySystem()));
  ServerOptions SrvOpts;
  SrvOpts.QueueCapacity = 8;
  SrvOpts.DeadlineSeconds = 0.05;
  std::string Text =
      serveScript(Session, SrvOpts, "sleep 200\npts p\nquit\n");
  EXPECT_GE(Session.counters().DeadlineDropped, 1u);
  EXPECT_NE(Text.find("ERR deadline: waited"), std::string::npos) << Text;
  EXPECT_NE(Text.find("slept 200 ms"), std::string::npos)
      << "the request that ran promptly must not be dropped";
}

TEST(Server, DeadlineDropsWithAnUnboundedQueue) {
  // QueueCapacity = 0 turns shedding off, not the deadline.
  ServeSession Session(makeSnapshot(tinySystem()));
  ServerOptions SrvOpts;
  SrvOpts.QueueCapacity = 0;
  SrvOpts.DeadlineSeconds = 0.05;
  std::string Text =
      serveScript(Session, SrvOpts, "sleep 200\npts p\nquit\n");
  ServeCounters C = Session.counters();
  EXPECT_GE(C.DeadlineDropped, 1u);
  EXPECT_EQ(C.Shed, 0u);
  EXPECT_NE(Text.find("ERR deadline: waited"), std::string::npos) << Text;
  EXPECT_NE(Text.find("slept 200 ms"), std::string::npos) << Text;
}

#ifdef AG_PTATOOL_PATH

std::string slurpFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

bool waitForFile(const std::string &Path, std::chrono::milliseconds Limit,
                 bool WantSocket = false) {
  auto End = Clock::now() + Limit;
  while (Clock::now() < End) {
    std::ifstream Probe(Path);
    if (WantSocket) {
      // A socket path is not openable as a file; existence check instead.
      if (::access(Path.c_str(), F_OK) == 0)
        return true;
    } else if (Probe.good()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// `ptatool serve <snapshot of tinySystem> --unix-socket <sock> <extra>`
/// launched detached. The orphaned inner shell records the server's pid
/// and, on exit, its status, so a test can assert a graceful 0 without
/// being the parent.
struct DetachedServe {
  std::string Sock, ErrPath, PidPath, RcPath;

  /// Writes the snapshot, launches the server and waits until it has
  /// bound its socket.
  void start(const std::string &Tag, const std::string &Extra) {
    std::string Base = ::testing::TempDir() + Tag;
    std::string Cons = Base + ".cons", Snap = Base + ".snap";
    Sock = Base + ".sock";
    ErrPath = Base + ".err";
    PidPath = Base + ".pid";
    RcPath = Base + ".rc";
    ::unlink(Sock.c_str());
    ::unlink(PidPath.c_str());
    ::unlink(RcPath.c_str());

    ASSERT_TRUE(tinySystem().writeToFile(Cons));
    std::string SnapCmd = std::string(AG_PTATOOL_PATH) + " snapshot " + Cons +
                          " " + Snap + " > /dev/null";
    ASSERT_EQ(WEXITSTATUS(std::system(SnapCmd.c_str())), 0);

    std::string Cmd = "( ( exec " + std::string(AG_PTATOOL_PATH) + " serve " +
                      Snap + " --unix-socket " + Sock + " " + Extra + " 2> " +
                      ErrPath + " ) & echo $! > " + PidPath + "; wait $!; " +
                      "echo $? > " + RcPath + " ) &";
    ASSERT_EQ(WEXITSTATUS(std::system(Cmd.c_str())), 0);
    ASSERT_TRUE(waitForFile(Sock, scaledMs(20000), /*WantSocket=*/true))
        << "server never bound its unix socket; stderr: "
        << slurpFile(ErrPath);
  }

  /// Sends SIGTERM and waits for the server to exit.
  void terminate() {
    ASSERT_TRUE(waitForFile(PidPath, scaledMs(5000)));
    int Pid = std::atoi(slurpFile(PidPath).c_str());
    ASSERT_GT(Pid, 0);
    ASSERT_EQ(::kill(Pid, SIGTERM), 0);
    ASSERT_TRUE(waitForFile(RcPath, scaledMs(20000)))
        << "server did not exit after SIGTERM; stderr: "
        << slurpFile(ErrPath);
  }

  int exitCode() const { return std::atoi(slurpFile(RcPath).c_str()); }
};

TEST(ServerE2e, SigtermDrainsUnixSocketServeAndExitsZero) {
  DetachedServe Srv;
  ASSERT_NO_FATAL_FAILURE(Srv.start("server_e2e", ""));

  // One live query through the socket proves the server is up.
  int Fd = connectUnix(Srv.Sock);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(sendAll(Fd, "pts p\n"));
  LineReader R{Fd, {}};
  std::string Line;
  ASSERT_TRUE(R.next(Line, scaledMs(10000))); // Banner.
  ASSERT_TRUE(R.next(Line, scaledMs(10000)));
  EXPECT_EQ(Line, "pts(p): 1");

  // Drain: exit code 0, socket unlinked, our open connection sees EOF.
  ASSERT_NO_FATAL_FAILURE(Srv.terminate());
  std::string Rest = readToEof(Fd, scaledMs(10000));
  ::close(Fd);
  EXPECT_EQ(Rest, "") << "no partial reply may leak during drain";
  EXPECT_EQ(Srv.exitCode(), 0) << "stderr: " << slurpFile(Srv.ErrPath);
  EXPECT_NE(slurpFile(Srv.ErrPath).find("drained:"), std::string::npos);
  EXPECT_NE(::access(Srv.Sock.c_str(), F_OK), 0)
      << "the unix socket must be unlinked on shutdown";
}

TEST(ServerE2e, MaxQueueShedsOverUnixSocket) {
  DetachedServe Srv;
  ASSERT_NO_FATAL_FAILURE(Srv.start("server_e2e_shed", "--max-queue 1"));

  int Fd = connectUnix(Srv.Sock);
  ASSERT_GE(Fd, 0);
  std::string Transcript =
      runScript(Fd, "sleep 200\npts p\npts p\npts p\npts p\nquit\n",
                scaledMs(20000));
  ::close(Fd);
  EXPECT_NE(Transcript.find("ERR overloaded: queue full"), std::string::npos)
      << Transcript;

  ASSERT_NO_FATAL_FAILURE(Srv.terminate());
  EXPECT_EQ(Srv.exitCode(), 0) << "stderr: " << slurpFile(Srv.ErrPath);
}

#endif // AG_PTATOOL_PATH

} // namespace
