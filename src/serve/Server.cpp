//===- Server.cpp - Concurrent line-protocol front-end --------------------===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "obs/FlightRecorder.h"
#include "obs/MetricsRegistry.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ag;

using Clock = std::chrono::steady_clock;

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

bool setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

/// The answer to a line admitted behind an executed `quit`.
constexpr const char *ShutdownReply = "ERR shutdown: session closing\n";

} // namespace

/// Per-client state. Field ownership is split three ways and each group is
/// touched by exactly one locking discipline:
///  * read side (InBuf/Discarding/PeerClosed): poll thread only, no lock;
///  * scheduling (Pending/Busy): Server::QMu;
///  * write side: WriteMu serializes whole replies; Dead/CloseAfterReply/
///    LastActiveNs are atomics so the poll thread's reaper can read them
///    without taking a worker's lock.
struct Server::Connection {
  int Fd = -1;
  uint64_t Id = 0;

  // --- poll thread only ---
  std::string InBuf;      ///< Partial line being assembled.
  bool Discarding = false; ///< Swallowing an oversized line until '\n'.
  bool PeerClosed = false; ///< recv() saw EOF.

  // --- guarded by Server::QMu ---
  /// One unit of pipelined work: a line to execute (the deadline clock
  /// starts at its admission time), or a pre-rendered reply the poll
  /// thread handed off via queueReply (IsReply).
  struct PendingItem {
    std::string Text;
    Clock::time_point Enqueued;
    bool IsReply = false;
  };
  /// Work waiting behind this connection's in-flight request.
  std::deque<PendingItem> Pending;
  bool Busy = false; ///< A worker is executing (or flushing) a line.
  /// Pre-rendered reply bytes queued but not yet taken by a worker;
  /// bounded so a client flooding errors without reading cannot grow
  /// memory.
  size_t PendingReplyBytes = 0;

  // --- atomics, written by workers / read by the poll thread ---
  std::atomic<bool> CloseAfterReply{false}; ///< `quit` was executed.
  std::atomic<bool> Dead{false}; ///< Send failed/stalled; reap when drained.
  std::atomic<int64_t> LastActiveNs{0};

  std::mutex WriteMu; ///< Serializes whole replies onto the socket.
};

Server::Server(ServeSession &Session, ServerOptions Opts)
    : Session(Session), Opts(std::move(Opts)) {
  if (this->Opts.Workers == 0)
    this->Opts.Workers = 1;
  if (this->Opts.MaxConns == 0)
    this->Opts.MaxConns = 1;
}

Server::~Server() {
  stop();
  for (int &Fd : WakeFds)
    if (Fd >= 0) {
      ::close(Fd);
      Fd = -1;
    }
}

std::string Server::endpoint() const {
  if (!Opts.UnixSocketPath.empty())
    return "unix:" + Opts.UnixSocketPath;
  return "127.0.0.1:" + std::to_string(BoundPort);
}

ServerCounters Server::counters() const {
  ServerCounters R;
  R.Accepted = C.Accepted.load(std::memory_order_relaxed);
  R.Rejected = C.Rejected.load(std::memory_order_relaxed);
  R.IdleClosed = C.IdleClosed.load(std::memory_order_relaxed);
  R.Active = C.Active.load(std::memory_order_relaxed);
  return R;
}

Status Server::listenTcp() {
  ListenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (ListenFd < 0)
    return Status::ioError("serve: socket() failed");
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK); // Loopback-only, like
  Addr.sin_port = htons(Opts.Port);              // the metrics endpoint.
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    ::close(ListenFd);
    ListenFd = -1;
    return Status::ioError("serve: cannot bind 127.0.0.1:" +
                           std::to_string(Opts.Port));
  }
  if (::listen(ListenFd, 64) < 0 || !setNonBlocking(ListenFd)) {
    ::close(ListenFd);
    ListenFd = -1;
    return Status::ioError("serve: listen() failed");
  }
  socklen_t Len = sizeof(Addr);
  if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
    BoundPort = ntohs(Addr.sin_port);
  return Status::okStatus();
}

Status Server::listenUnix() {
  sockaddr_un Addr = {};
  if (Opts.UnixSocketPath.size() >= sizeof(Addr.sun_path))
    return Status::invalidArgument("serve: unix socket path too long");
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (ListenFd < 0)
    return Status::ioError("serve: socket() failed");
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Opts.UnixSocketPath.c_str(),
              Opts.UnixSocketPath.size() + 1);
  // Reclaim the path only when nothing answers on it: unconditionally
  // unlinking would silently steal the endpoint from a live server. A
  // connect() that succeeds means someone is serving; ECONNREFUSED means
  // a stale socket from a crash (ENOENT: no socket at all, nothing to
  // reclaim). Any other probe failure leaves the path alone and lets
  // bind() report the conflict.
  if (int Probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      Probe >= 0) {
    int RC = ::connect(Probe, reinterpret_cast<sockaddr *>(&Addr),
                       sizeof(Addr));
    int Err = errno;
    ::close(Probe);
    if (RC == 0) {
      ::close(ListenFd);
      ListenFd = -1;
      return Status::ioError("serve: unix socket " + Opts.UnixSocketPath +
                             " is in use by a live server");
    }
    if (Err == ECONNREFUSED)
      ::unlink(Opts.UnixSocketPath.c_str());
  }
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    ::close(ListenFd);
    ListenFd = -1;
    return Status::ioError("serve: cannot bind unix socket " +
                           Opts.UnixSocketPath);
  }
  if (::listen(ListenFd, 64) < 0 || !setNonBlocking(ListenFd)) {
    ::close(ListenFd);
    ListenFd = -1;
    return Status::ioError("serve: listen() failed");
  }
  return Status::okStatus();
}

Status Server::start() {
  if (Started)
    return Status::invalidArgument("serve: server already started");
  Status St =
      Opts.UnixSocketPath.empty() ? listenTcp() : listenUnix();
  if (!St.ok())
    return St;
  if (::pipe2(WakeFds, O_NONBLOCK | O_CLOEXEC) != 0) {
    ::close(ListenFd);
    ListenFd = -1;
    return Status::ioError("serve: pipe2() failed");
  }
  StopFlag.store(false, std::memory_order_release);
  WorkersExit = false;
  WorkerThreads.reserve(Opts.Workers);
  for (unsigned I = 0; I != Opts.Workers; ++I)
    WorkerThreads.emplace_back([this] { workerLoop(); });
  PollThread = std::thread([this] { pollLoop(); });
  Started = true;
  return Status::okStatus();
}

void Server::requestStop() {
  // Async-signal-safe: one relaxed-ish atomic store plus one write(2) to
  // the self-pipe. Never takes a lock and never allocates.
  StopFlag.store(true, std::memory_order_release);
  char B = 1;
  ssize_t R = ::write(WakeFds[1], &B, 1);
  (void)R; // A full pipe still wakes the poller; EBADF means not started.
}

void Server::wait() {
  if (!Started || Joined)
    return;
  if (PollThread.joinable())
    PollThread.join();
  Joined = true;
}

void Server::stop() {
  if (!Started)
    return;
  requestStop();
  wait();
}

void Server::wakePoll() {
  char B = 1;
  ssize_t R = ::write(WakeFds[1], &B, 1);
  (void)R;
}

//===----------------------------------------------------------------------===//
// Poll thread: accept, read, shed, reap.
//===----------------------------------------------------------------------===//

void Server::pollLoop() {
  std::vector<pollfd> Pfds;
  std::vector<size_t> PfdConn; // Pfds[i] -> Conns index, parallel array.
  for (;;) {
    bool Stopping = StopFlag.load(std::memory_order_acquire);
    if (Stopping && ListenFd >= 0) {
      ::close(ListenFd); // Refuse new connections the moment a drain
      ListenFd = -1;     // begins; admitted work still completes.
    }
    if (Stopping) {
      std::lock_guard<std::mutex> Lock(QMu);
      bool Drained = Queue.empty() && BusyWorkers == 0;
      for (const auto &Conn : Conns)
        Drained = Drained && Conn->Pending.empty() && !Conn->Busy;
      if (Drained)
        break;
    }

    Pfds.clear();
    PfdConn.clear();
    Pfds.push_back({WakeFds[0], POLLIN, 0});
    PfdConn.push_back(size_t(-1));
    if (ListenFd >= 0) {
      Pfds.push_back({ListenFd, POLLIN, 0});
      PfdConn.push_back(size_t(-1));
    }
    for (size_t I = 0; I != Conns.size(); ++I) {
      const auto &Conn = Conns[I];
      if (Stopping || Conn->PeerClosed ||
          Conn->Dead.load(std::memory_order_acquire) ||
          Conn->CloseAfterReply.load(std::memory_order_acquire))
        continue; // Stop reading from quitting/dying connections.
      Pfds.push_back({Conn->Fd, POLLIN, 0});
      PfdConn.push_back(I);
    }

    int R = ::poll(Pfds.data(), nfds_t(Pfds.size()), /*timeout_ms=*/100);
    if (R < 0 && errno != EINTR)
      break; // EBADF etc. — unrecoverable for a poller.
    if (R > 0) {
      if (Pfds[0].revents & POLLIN) { // Drain the self-pipe.
        char Buf[64];
        while (::read(WakeFds[0], Buf, sizeof(Buf)) > 0) {
        }
      }
      for (size_t I = 1; I != Pfds.size(); ++I) {
        if (!(Pfds[I].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        if (PfdConn[I] == size_t(-1))
          acceptPending();
        else
          readConnection(Conns[PfdConn[I]]);
      }
    }
    reapConnections();
  }

  // Drained: retire the workers, then the sockets.
  {
    std::lock_guard<std::mutex> Lock(QMu);
    WorkersExit = true;
  }
  QCv.notify_all();
  for (std::thread &T : WorkerThreads)
    T.join();
  WorkerThreads.clear();
  for (const auto &Conn : Conns)
    closeConnection(Conn, "shutdown");
  Conns.clear();
  C.Active.store(0, std::memory_order_relaxed);
  if (obs::metricsEnabled())
    obs::MetricsRegistry::instance().setGauge(obs::Gauge::ServeConnsActive, 0);
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  if (!Opts.UnixSocketPath.empty())
    ::unlink(Opts.UnixSocketPath.c_str());
}

void Server::acceptPending() {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // EAGAIN: backlog drained.
    }
    if (!setNonBlocking(Fd)) {
      ::close(Fd);
      continue;
    }
    ::fcntl(Fd, F_SETFD, FD_CLOEXEC);
    if (Conns.size() >= Opts.MaxConns) {
      C.Rejected.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::ServeConnsRejected);
      obs::flight("serve_conn_reject", Conns.size());
      std::string Msg = "ERR overloaded: too many connections (max " +
                        std::to_string(Opts.MaxConns) + ")\n";
      // Best-effort: the socket buffer of a fresh connection is empty, so
      // this cannot stall the poll thread.
      ssize_t N = ::send(Fd, Msg.data(), Msg.size(), MSG_NOSIGNAL);
      (void)N;
      ::close(Fd);
      continue;
    }
    auto Conn = std::make_shared<Connection>();
    Conn->Fd = Fd;
    Conn->Id = NextConnId++;
    Conn->LastActiveNs.store(nowNs(), std::memory_order_relaxed);
    Conns.push_back(Conn);
    C.Accepted.fetch_add(1, std::memory_order_relaxed);
    C.Active.store(Conns.size(), std::memory_order_relaxed);
    if (obs::metricsEnabled()) {
      obs::count(obs::Counter::ServeConnsAccepted);
      obs::MetricsRegistry::instance().setGauge(obs::Gauge::ServeConnsActive,
                                                Conns.size());
    }
    obs::flight("serve_conn_accept", Conn->Id);
    // A worker sends the banner; it is queued before any line can be
    // admitted, so it still precedes the first reply.
    queueReply(Conn, Session.bannerText());
  }
}

void Server::readConnection(const std::shared_ptr<Connection> &Conn) {
  char Buf[4096];
  // Bounded work per wakeup: a client pumping bytes faster than we drain
  // them must not pin the poll thread in this loop while other sockets
  // wait. poll() is level-triggered, so leftover bytes re-signal on the
  // next iteration and the reader resumes after everyone else got a turn.
  for (int Rounds = 0; Rounds != 16;) {
    ssize_t N = ::recv(Conn->Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      ++Rounds;
      Conn->LastActiveNs.store(nowNs(), std::memory_order_relaxed);
      ingestBytes(Conn, Buf, size_t(N));
      if (Conn->Dead.load(std::memory_order_acquire))
        return; // Flood-killed by the reply cap; stop ingesting.
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return;
    // EOF or error: flush the final unterminated line, exactly as the
    // stdin REPL treats input that ends without a newline.
    Conn->PeerClosed = true;
    if (Conn->Discarding) {
      rejectOversizedLine(Conn);
    } else if (!Conn->InBuf.empty()) {
      std::string Line;
      Line.swap(Conn->InBuf);
      admitLine(Conn, std::move(Line));
    }
    return;
  }
}

void Server::ingestBytes(const std::shared_ptr<Connection> &Conn,
                         const char *Data, size_t Len) {
  const size_t Max = Session.options().MaxLineBytes;
  for (size_t I = 0; I != Len; ++I) {
    char Ch = Data[I];
    if (Ch == '\n') {
      if (Conn->Discarding) {
        // The oversized line ends here; one structured error per line.
        rejectOversizedLine(Conn);
      } else {
        std::string Line;
        Line.swap(Conn->InBuf);
        admitLine(Conn, std::move(Line));
      }
      continue;
    }
    if (Conn->Discarding)
      continue; // O(1) memory while swallowing the rest of the line.
    if (Conn->InBuf.size() >= Max) {
      Conn->Discarding = true;
      Conn->InBuf.clear();
      continue;
    }
    Conn->InBuf.push_back(Ch);
  }
}

void Server::admitLine(const std::shared_ptr<Connection> &Conn,
                       std::string Line) {
  ServeSession::DropKind Kind = ServeSession::DropKind::Overloaded;
  std::string Reply;
  {
    std::lock_guard<std::mutex> Lock(QMu);
    // A free connection's line joins the global queue; a busy one's waits
    // in its own pending deque. Each is bounded by QueueCapacity.
    const bool Free = !Conn->Busy && Conn->Pending.empty();
    const size_t Backlog = Free ? Queue.size() : Conn->Pending.size();
    if (Conn->CloseAfterReply.load(std::memory_order_relaxed)) {
      // Lines pipelined behind a `quit` are answered, never executed.
      Kind = ServeSession::DropKind::Shutdown;
      Reply = ShutdownReply;
    } else if (Opts.QueueCapacity != 0 && Backlog >= Opts.QueueCapacity) {
      obs::flight("serve_overload_shed", Backlog);
      Reply = "ERR overloaded: queue full (" + std::to_string(Backlog) +
              " pending)\n";
    } else {
      Session.noteAdmitted();
      if (!Free) {
        Conn->Pending.push_back({std::move(Line), Clock::now(), false});
        return;
      }
      Conn->Busy = true;
      Queue.push_back(Task{Conn, std::move(Line), Clock::now()});
      QCv.notify_one();
      return;
    }
  }
  // Shed/shutdown path: the drop is recorded here, but the reply bytes
  // are handed to a worker — a blocking send from the poll thread would
  // stall admission for everyone else, and the client that earned this
  // reply is exactly the kind that may have stopped reading.
  Session.noteDroppedRequest(Kind, Line, Reply, /*WaitedNanos=*/0, Conn->Id);
  queueReply(Conn, std::move(Reply));
}

void Server::rejectOversizedLine(const std::shared_ptr<Connection> &Conn) {
  Conn->Discarding = false;
  Session.noteOversizedLine();
  queueReply(Conn, Session.oversizedLineReply());
}

void Server::queueReply(const std::shared_ptr<Connection> &Conn,
                        std::string Reply) {
  // Pre-rendered replies ride the same per-connection pipeline as
  // executed lines, so their bytes interleave with request replies in
  // admission order — byte-identical to the serial REPL's transcript.
  constexpr size_t MaxPendingReplyBytes = 64u << 10;
  if (Conn->Dead.load(std::memory_order_acquire))
    return; // Replies to a dead connection have nowhere to go.
  bool Promote = false;
  {
    std::lock_guard<std::mutex> Lock(QMu);
    if (Conn->PendingReplyBytes + Reply.size() > MaxPendingReplyBytes) {
      // The client piles up error replies faster than it reads them;
      // reap it instead of buffering without bound.
      Conn->Dead.store(true, std::memory_order_release);
      return;
    }
    Conn->PendingReplyBytes += Reply.size();
    if (Conn->Busy || !Conn->Pending.empty()) {
      Conn->Pending.push_back({std::move(Reply), Clock::now(), true});
    } else {
      Conn->Busy = true;
      Queue.push_back(Task{Conn, std::move(Reply), Clock::now(), true});
      Promote = true;
    }
  }
  if (Promote)
    QCv.notify_one();
}

void Server::closeConnection(const std::shared_ptr<Connection> &Conn,
                             const char *Reason) {
  obs::flight("serve_conn_close", Conn->Id);
  (void)Reason;
  Conn->Dead.store(true, std::memory_order_release);
  ::shutdown(Conn->Fd, SHUT_RDWR);
  ::close(Conn->Fd);
  Conn->Fd = -1;
}

void Server::reapConnections() {
  const int64_t Now = nowNs();
  const int64_t IdleNs = int64_t(Opts.IdleTimeoutSeconds * 1e9);
  bool Changed = false;
  for (size_t I = 0; I < Conns.size();) {
    const auto &Conn = Conns[I];
    bool Quiesced;
    {
      std::lock_guard<std::mutex> Lock(QMu);
      Quiesced = !Conn->Busy && Conn->Pending.empty();
    }
    const char *Reason = nullptr;
    if (Quiesced) {
      if (Conn->Dead.load(std::memory_order_acquire))
        Reason = "dead";
      else if (Conn->CloseAfterReply.load(std::memory_order_acquire))
        Reason = "quit";
      else if (Conn->PeerClosed)
        Reason = "eof";
      else if (IdleNs > 0 && Conn->InBuf.empty() &&
               Now - Conn->LastActiveNs.load(std::memory_order_relaxed) >
                   IdleNs) {
        Reason = "idle";
        C.IdleClosed.fetch_add(1, std::memory_order_relaxed);
        obs::count(obs::Counter::ServeConnsIdleClosed);
      }
    }
    if (!Reason) {
      ++I;
      continue;
    }
    closeConnection(Conn, Reason);
    Conns.erase(Conns.begin() + ptrdiff_t(I));
    Changed = true;
  }
  if (Changed) {
    C.Active.store(Conns.size(), std::memory_order_relaxed);
    if (obs::metricsEnabled())
      obs::MetricsRegistry::instance().setGauge(obs::Gauge::ServeConnsActive,
                                                Conns.size());
  }
}

//===----------------------------------------------------------------------===//
// Worker pool: execute, reply, promote.
//===----------------------------------------------------------------------===//

void Server::workerLoop() {
  // A connection's pipelined lines are drained in-worker in bounded
  // batches, with replies coalesced into one send per batch: promoting
  // every line through the global queue costs a condvar handoff (often
  // to a different, cache-cold worker) plus a poll-thread wakeup per
  // request, which caps aggregate throughput far below what the workers
  // can actually serve. The batch cap keeps rotation fair when there
  // are more active connections than workers, and per-line enqueue
  // timestamps ride along so deadline accounting is unchanged.
  constexpr unsigned BatchLimit = 32;
  constexpr size_t FlushBytes = 32u << 10;
  std::string Replies;
  for (;;) {
    Task T;
    {
      std::unique_lock<std::mutex> Lock(QMu);
      QCv.wait(Lock, [this] { return !Queue.empty() || WorkersExit; });
      if (Queue.empty())
        return; // WorkersExit with a drained queue.
      T = std::move(Queue.front());
      Queue.pop_front();
      if (T.IsReply)
        T.Conn->PendingReplyBytes -= T.Line.size();
      ++BusyWorkers;
    }
    Replies.clear();
    for (unsigned Batch = 1;; ++Batch) {
      if (T.IsReply) {
        // A pre-rendered reply from the poll thread (banner, oversized/
        // shed error); the drop telemetry was recorded at admit time.
        Replies += T.Line;
      } else if (T.Conn->CloseAfterReply.load(std::memory_order_acquire)) {
        // Lines pipelined behind a `quit` are answered, never executed.
        std::string Reply = ShutdownReply;
        Replies += Reply;
        Session.noteDroppedRequest(ServeSession::DropKind::Shutdown, T.Line,
                                   Reply, /*WaitedNanos=*/0, T.Conn->Id);
      } else {
        executeTask(T, Replies);
      }
      if (Batch >= BatchLimit || T.Conn->Dead.load(std::memory_order_acquire))
        break;
      if (Replies.size() >= FlushBytes) {
        if (!sendToConnection(T.Conn, Replies))
          break;
        Replies.clear();
      }
      {
        std::lock_guard<std::mutex> Lock(QMu);
        if (T.Conn->Pending.empty())
          break;
        auto P = std::move(T.Conn->Pending.front());
        T.Conn->Pending.pop_front();
        T.Line = std::move(P.Text);
        T.Enqueued = P.Enqueued;
        T.IsReply = P.IsReply;
        if (T.IsReply)
          T.Conn->PendingReplyBytes -= T.Line.size();
      }
    }
    if (!Replies.empty())
      sendToConnection(T.Conn, Replies);
    finishTask(T.Conn);
  }
}

void Server::executeTask(Task &T, std::string &Replies) {
  if (Opts.DeadlineSeconds > 0) {
    auto Waited = Clock::now() - T.Enqueued;
    int64_t WaitedMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(Waited).count();
    int64_t LimitMs = int64_t(Opts.DeadlineSeconds * 1000.0);
    if (WaitedMs > LimitMs) {
      obs::flight("serve_deadline_drop", uint64_t(WaitedMs));
      std::string Reply = "ERR deadline: waited " + std::to_string(WaitedMs) +
                          " ms (limit " + std::to_string(LimitMs) + " ms)\n";
      Replies += Reply;
      Session.noteDroppedRequest(
          ServeSession::DropKind::Deadline, T.Line, Reply,
          uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(Waited)
                       .count()),
          T.Conn->Id);
      return;
    }
  }
  std::ostringstream Reply;
  bool Continue = Session.handleLine(T.Line, Reply, T.Conn->Id);
  Replies += Reply.str();
  T.Conn->LastActiveNs.store(nowNs(), std::memory_order_relaxed);
  if (!Continue)
    T.Conn->CloseAfterReply.store(true, std::memory_order_release);
}

void Server::finishTask(const std::shared_ptr<Connection> &Conn) {
  bool Promoted = false;
  {
    std::lock_guard<std::mutex> Lock(QMu);
    if (Conn->Dead.load(std::memory_order_acquire)) {
      // Nothing queued can reach a dead socket; drop the pipeline whole
      // so the poller reaps without cycling each item through a worker.
      Conn->Pending.clear();
      Conn->PendingReplyBytes = 0;
      Conn->Busy = false;
    } else if (!Conn->Pending.empty()) {
      // The connection stays Busy: at most one in-flight item per client
      // keeps its transcript byte-identical to the serial REPL's. (Lines
      // pipelined behind a `quit` stay queued too — the batch loop turns
      // them into shutdown errors.) Reply items keep their byte budget
      // until a worker pops them from the global queue.
      auto P = std::move(Conn->Pending.front());
      Conn->Pending.pop_front();
      Queue.push_back(Task{Conn, std::move(P.Text), P.Enqueued, P.IsReply});
      Promoted = true;
    } else {
      // Busy clears only with an empty pipeline, under the same lock
      // admitLine/queueReply append under, so no item can be stranded
      // with nobody scheduled to send it.
      Conn->Busy = false;
    }
    --BusyWorkers;
  }
  if (Promoted)
    QCv.notify_one();
  // Wake the poller only when it has something due: a quitting/dead
  // connection to reap, or a drain check during shutdown. On the steady
  // path it is already watching this connection's fd, and a per-request
  // wakeup (pipe write + pollfd rebuild) serializes the whole pool.
  if (Conn->CloseAfterReply.load(std::memory_order_acquire) ||
      Conn->Dead.load(std::memory_order_acquire) ||
      StopFlag.load(std::memory_order_acquire))
    wakePoll();
}

bool Server::sendToConnection(const std::shared_ptr<Connection> &Conn,
                              const std::string &Data) {
  if (Data.empty())
    return true;
  if (Conn->Dead.load(std::memory_order_acquire))
    return false;
  std::lock_guard<std::mutex> Lock(Conn->WriteMu);
  auto Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             Opts.WriteTimeoutSeconds > 0
                                 ? Opts.WriteTimeoutSeconds
                                 : 10.0));
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N =
        ::send(Conn->Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N > 0) {
      Off += size_t(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (Conn->Dead.load(std::memory_order_acquire))
        break; // Flood-killed under us; no point finishing the flush.
      if (Clock::now() >= Deadline)
        break; // Client stopped reading; drop it, don't wedge a worker.
      pollfd Pfd = {Conn->Fd, POLLOUT, 0};
      ::poll(&Pfd, 1, /*timeout_ms=*/50);
      continue;
    }
    break; // EPIPE/ECONNRESET: mid-request disconnect.
  }
  if (Off == Data.size())
    return true;
  Conn->Dead.store(true, std::memory_order_release);
  wakePoll();
  return false;
}
