//===- ServeTestUtil.h - Shared serving-test fixtures -----------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixtures the serving tests share: an OVS-reduced LCD+HCD snapshot of a
/// system, the three-node `p = &o; q = p` system, and a blocking loopback
/// client that writes a whole script to a Server and reads the transcript
/// to EOF.
///
//===----------------------------------------------------------------------===//

#ifndef AG_TESTS_SERVETESTUTIL_H
#define AG_TESTS_SERVETESTUTIL_H

#include "TestTimeouts.h"

#include "constraints/OfflineVariableSubstitution.h"
#include "serve/Server.h"
#include "serve/Snapshot.h"
#include "solvers/Solve.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <netinet/in.h>
#include <poll.h>
#include <string>
#include <sys/socket.h>
#include <unistd.h>

namespace ag {
namespace test {

inline Snapshot makeSnapshot(const ConstraintSystem &CS) {
  OvsResult Ovs = runOfflineVariableSubstitution(CS);
  Snapshot Snap;
  Snap.Solution = solve(Ovs.Reduced, SolverKind::LCDHCD, PtsRepr::Bitmap,
                        nullptr, SolverOptions(), &Ovs.Rep);
  Snap.CS = std::move(Ovs.Reduced);
  Snap.SeedReps = std::move(Ovs.Rep);
  return Snap;
}

inline ConstraintSystem tinySystem() {
  ConstraintSystem CS;
  NodeId P = CS.addNode("p"), O = CS.addNode("o"), Q = CS.addNode("q");
  CS.addAddressOf(P, O);
  CS.addCopy(Q, P);
  return CS;
}

inline size_t countOccurrences(const std::string &Hay,
                               const std::string &Needle) {
  size_t N = 0;
  for (size_t Pos = Hay.find(Needle); Pos != std::string::npos;
       Pos = Hay.find(Needle, Pos + Needle.size()))
    ++N;
  return N;
}

inline int connectTcp(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

inline bool sendAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off,
                       MSG_NOSIGNAL);
    if (N > 0) {
      Off += size_t(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    return false;
  }
  return true;
}

/// Reads until EOF or the deadline; a hung server fails the test instead
/// of hanging it.
inline std::string readToEof(int Fd, std::chrono::milliseconds Deadline) {
  using Clock = std::chrono::steady_clock;
  std::string Out;
  auto End = Clock::now() + Deadline;
  char Buf[4096];
  for (;;) {
    auto Remain = std::chrono::duration_cast<std::chrono::milliseconds>(
        End - Clock::now());
    if (Remain.count() <= 0)
      break;
    pollfd P = {Fd, POLLIN, 0};
    int R = ::poll(&P, 1, int(Remain.count()));
    if (R <= 0 && errno != EINTR)
      break;
    if (R <= 0)
      continue;
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N <= 0)
      break;
    Out.append(Buf, size_t(N));
  }
  return Out;
}

/// Writes the whole script, half-closes, reads the full transcript.
inline std::string runScript(int Fd, const std::string &Script,
                             std::chrono::milliseconds Deadline) {
  EXPECT_TRUE(sendAll(Fd, Script));
  ::shutdown(Fd, SHUT_WR);
  return readToEof(Fd, Deadline);
}

/// Runs \p Script on one loopback connection to a Server over \p Session,
/// then stops the server, so every drop is counted when this returns.
inline std::string serveScript(ServeSession &Session,
                               const ServerOptions &SrvOpts,
                               const std::string &Script) {
  Server Srv(Session, SrvOpts);
  EXPECT_TRUE(Srv.start().ok());
  int Fd = connectTcp(Srv.port());
  EXPECT_GE(Fd, 0);
  std::string Transcript = runScript(Fd, Script, scaledMs(20000));
  ::close(Fd);
  Srv.stop();
  return Transcript;
}

} // namespace test
} // namespace ag

#endif // AG_TESTS_SERVETESTUTIL_H
