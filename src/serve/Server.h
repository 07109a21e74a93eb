//===- Server.h - Concurrent line-protocol front-end ------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dependency-free poll(2)-based socket front-end that multiplexes N
/// concurrent line-protocol clients onto one shared ServeSession
/// (`ptatool serve --port` / `--unix-socket`). Design:
///
///  * One poll thread owns the listener, the self-pipe wakeup and every
///    connection's read side: it accepts (loopback-only TCP, like the
///    MetricsHttp endpoint, or an AF_UNIX stream socket), runs each
///    connection's bounded line reader (oversized lines are drained in
///    O(1) memory and answered with the same structured error the stdin
///    REPL produces), and admits complete lines into a bounded global
///    queue feeding a worker pool. All socket writes happen on workers:
///    the poll thread hands banners and error replies off as pre-rendered
///    reply tasks, so a client that stops reading can stall only its own
///    worker (until the write timeout), never accept/read/reap.
///  * Per-connection ordering: a connection has at most one line executing
///    at a time; further pipelined lines wait in its own bounded pending
///    deque and are promoted when the previous reply is on the wire, so a
///    client's transcript is byte-identical to the serial REPL's.
///  * Every executed request runs under the session's RequestScope with
///    the connection id stamped into its wide event. The server is the
///    only admission queue: shedding (`ERR overloaded`) and queue-wait
///    deadlines (`ERR deadline`) happen here, never in the session, and
///    each drop still counts in the session's serve.* metrics and wide
///    events. Connections have their own accepted/active/rejected/
///    idle-closed telemetry.
///  * All clients share the session's RCU serve-state epoch: a `resolve`
///    on one connection builds the successor off-path and swaps it in
///    atomically while queries on other connections finish on the epoch
///    they started with (see ServeSession.h / DESIGN.md §16).
///  * requestStop() is async-signal-safe (one write to a self-pipe):
///    ptatool's SIGTERM handler calls it, the listener closes, admitted
///    requests drain to their clients, then connections close and wait()
///    returns — a graceful drain, never a mid-reply cut.
///
/// `quit` closes the issuing connection only; the server runs until
/// requestStop(). A client disconnecting mid-request never affects other
/// connections: the worker's reply send fails, the connection is reaped,
/// the session lives on.
///
//===----------------------------------------------------------------------===//

#ifndef AG_SERVE_SERVER_H
#define AG_SERVE_SERVER_H

#include "adt/Status.h"
#include "serve/ServeSession.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ag {

/// Front-end tuning. The session's own ServeOptions still governs line
/// length, resolve budgets and telemetry sinks.
struct ServerOptions {
  /// TCP listen port on 127.0.0.1; 0 binds an ephemeral port (port()
  /// reports the actual one). Ignored when UnixSocketPath is set.
  uint16_t Port = 0;

  /// When non-empty, listen on this AF_UNIX stream socket instead of TCP.
  /// A stale path (crash leftover nothing answers on) is reclaimed; a
  /// path a live server still answers on is an "in use" startup error.
  /// The path is removed again on shutdown.
  std::string UnixSocketPath;

  /// Connection cap: an accept beyond it is answered with `ERR
  /// overloaded: too many connections` and closed immediately.
  size_t MaxConns = 64;

  /// Closes connections idle (no in-flight or pending request, no bytes
  /// read) for longer than this. 0 disables.
  double IdleTimeoutSeconds = 0;

  /// Worker threads executing requests.
  unsigned Workers = 4;

  /// Bound on the global admission queue and on each connection's pending
  /// deque; a full one sheds with `ERR overloaded: queue full`. 0 =
  /// unbounded (no shedding).
  size_t QueueCapacity = 0;

  /// Per-request queue-wait deadline in seconds: a line that waited longer
  /// than this between admission and execution is answered with `ERR
  /// deadline` instead of being executed. 0 disables. Independent of
  /// QueueCapacity: an unbounded queue still drops on the deadline.
  double DeadlineSeconds = 0;

  /// A reply send stalled longer than this (client not reading) drops the
  /// connection instead of wedging a worker.
  double WriteTimeoutSeconds = 10;
};

/// Monotonic connection counters (also mirrored into the serve.conns_*
/// metrics).
struct ServerCounters {
  uint64_t Accepted = 0;   ///< Connections accepted (banner sent).
  uint64_t Rejected = 0;   ///< Connections refused at MaxConns.
  uint64_t IdleClosed = 0; ///< Connections reaped by the idle timeout.
  uint64_t Active = 0;     ///< Currently open connections.
};

/// The concurrent front-end over one ServeSession (see file comment).
/// start() spawns the poll thread and workers; wait() blocks until
/// requestStop() (or stop(), which is requestStop + wait) has drained.
class Server {
public:
  /// \p Session must outlive the server. The session is used re-entrantly
  /// from the worker pool.
  Server(ServeSession &Session, ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and listens, then spawns the poll thread and workers. The
  /// socket is accepting connections when this returns.
  Status start();

  /// The bound TCP port (0 for unix-socket servers).
  uint16_t port() const { return BoundPort; }

  /// Human-readable bound endpoint ("127.0.0.1:4711" / "unix:<path>").
  std::string endpoint() const;

  /// Begins a graceful drain: stop accepting, stop reading, finish
  /// admitted requests, close connections. Async-signal-safe (called from
  /// ptatool's SIGTERM handler); idempotent.
  void requestStop();

  /// Blocks until the drain completes and all threads joined. Idempotent.
  void wait();

  /// requestStop() + wait().
  void stop();

  ServerCounters counters() const;

private:
  struct Connection;
  struct Task {
    std::shared_ptr<Connection> Conn;
    /// A line to execute, or (IsReply) a pre-rendered reply to send.
    std::string Line;
    std::chrono::steady_clock::time_point Enqueued;
    bool IsReply = false;
  };

  Status listenTcp();
  Status listenUnix();
  void pollLoop();
  void workerLoop();
  void acceptPending();
  void readConnection(const std::shared_ptr<Connection> &Conn);
  void ingestBytes(const std::shared_ptr<Connection> &Conn, const char *Data,
                   size_t Len);
  /// Admits one complete line: global queue when the connection is free,
  /// its pending deque otherwise; sheds (with the reply handed to a
  /// worker via queueReply) when either is full.
  void admitLine(const std::shared_ptr<Connection> &Conn, std::string Line);
  /// Ends a discarded over-long line: counts it and queues the session's
  /// line-too-long reply.
  void rejectOversizedLine(const std::shared_ptr<Connection> &Conn);
  /// Poll-thread reply path: enqueues a pre-rendered reply (banner,
  /// oversized-line error, shed/shutdown error) through the connection's
  /// ordinary pipeline so a worker sends it. The poll thread itself never
  /// writes to a client socket — a send can block on the write mutex held
  /// by a worker mid-flush or stall on a client that is not reading, and
  /// either would freeze accept/read/reap for every connection.
  void queueReply(const std::shared_ptr<Connection> &Conn, std::string Reply);
  /// Runs one line and appends the reply to \p Replies (the worker
  /// coalesces a batch of replies into a single send).
  void executeTask(Task &T, std::string &Replies);
  /// Worker epilogue: promote the connection's next pending line or mark
  /// it idle; flush shutdown replies for a quitting connection.
  void finishTask(const std::shared_ptr<Connection> &Conn);
  void closeConnection(const std::shared_ptr<Connection> &Conn,
                       const char *Reason);
  void reapConnections();
  /// Writes the whole buffer; on a stall past WriteTimeoutSeconds or a
  /// peer error marks the connection dead. Worker threads only (may block
  /// up to the write timeout) and never called under QMu; the poll thread
  /// uses queueReply instead.
  bool sendToConnection(const std::shared_ptr<Connection> &Conn,
                        const std::string &Data);
  void wakePoll();

  ServeSession &Session;
  ServerOptions Opts;

  int ListenFd = -1;
  uint16_t BoundPort = 0;
  int WakeFds[2] = {-1, -1};
  std::atomic<bool> StopFlag{false};
  bool Started = false;
  bool Joined = false;

  std::thread PollThread;
  std::vector<std::thread> WorkerThreads;

  /// Poll-thread-only: the live connections.
  std::vector<std::shared_ptr<Connection>> Conns;
  uint64_t NextConnId = 1;

  /// Global admission queue + every connection's pending/busy state.
  std::mutex QMu;
  std::condition_variable QCv;
  std::deque<Task> Queue;
  bool WorkersExit = false;
  unsigned BusyWorkers = 0;

  struct AtomicCounters {
    std::atomic<uint64_t> Accepted{0};
    std::atomic<uint64_t> Rejected{0};
    std::atomic<uint64_t> IdleClosed{0};
    std::atomic<uint64_t> Active{0};
  };
  mutable AtomicCounters C;
};

} // namespace ag

#endif // AG_SERVE_SERVER_H
