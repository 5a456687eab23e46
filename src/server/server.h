// Server: the network front door. Accepts TCP and/or unix-socket
// connections, frames requests with the wire protocol (server/wire.h),
// and dispatches each session's commands onto a FIFO ThreadPool
// while one event-loop thread owns all socket I/O.
//
// Concurrency model (docs/SERVER.md):
//   * one event-loop thread: accept, read, frame-decode, write;
//   * at most ONE in-flight request per session (commands of a session
//     execute in order; BATCH state needs that), so a slow query on one
//     connection never blocks another session — their requests run on
//     other pool workers and the engine's reader-writer lock does the
//     interleaving;
//   * backpressure instead of unbounded buffering: a session whose
//     request queue or response buffer exceeds its bound stops being
//     read (the kernel's TCP window then pushes back on the client);
//   * teardown: Stop() closes the listeners first, lets in-flight
//     requests drain (their responses are flushed best-effort), then
//     closes every connection and joins the loop — repeated
//     Start/Stop in one process is leak-free.

#ifndef LAZYXML_SERVER_SERVER_H_
#define LAZYXML_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/socket.h"
#include "common/thread_pool.h"
#include "server/command.h"
#include "server/session.h"
#include "server/wire.h"

namespace lazyxml {
namespace server {

class ServerEngine;

struct ServerOptions {
  /// Listen on this unix-socket path when non-empty.
  std::string unix_path;
  /// Listen on tcp_host:tcp_port when `tcp` is true; port 0 picks an
  /// ephemeral port (read back with Server::tcp_port()).
  bool tcp = false;
  std::string tcp_host = "127.0.0.1";
  uint16_t tcp_port = 0;

  /// Sessions beyond this cap are sent an error frame and closed.
  size_t max_connections = 256;
  /// Decoded-but-unexecuted requests per session before its socket
  /// stops being read.
  size_t max_pending_requests = 8;
  /// Unwritten response bytes per session before its socket stops
  /// being read.
  size_t max_output_buffer_bytes = 8u << 20;
  /// Bytes pulled per read() call.
  size_t read_chunk_bytes = 64u << 10;

  WireLimits wire;
  CommandLimits command;
  SessionLimits session;

  /// Per-request deadlines in milliseconds by command class; 0 disables
  /// a class. The budget starts the moment the request frame is decoded
  /// — a request still waiting past its budget when a worker picks it up
  /// is answered `ERR DeadlineExceeded` without ever touching the
  /// engine, so a backlog cannot snowball into work nobody wants.
  struct Deadlines {
    uint32_t query_ms = 30000;   ///< PATH / TWIG / METRICS
    uint32_t update_ms = 60000;  ///< LOAD / INSERT / REMOVE / BATCH *
    uint32_t admin_ms = 0;       ///< FREEZE/COMPACT/CHECK/CHECKPOINT/QUIT
  };
  Deadlines deadline;

  /// Admission control (overload shedding). When the total
  /// decoded-but-unanswered requests across every session, or the total
  /// buffered response bytes, sit at or above a watermark, each newly
  /// decoded request is answered `ERR Unavailable` in arrival order
  /// instead of being queued for execution — a typed, retryable
  /// rejection, never a silent drop. 0 disables a watermark.
  size_t shed_pending_requests = 4096;
  size_t shed_buffered_bytes = 512u << 20;

  /// Reap a session with no traffic, no queued or executing request, and
  /// no unsent output for this long (one best-effort `ERR Unavailable`
  /// frame, then close). 0 = never. Driven off the Poller::Wait timeout
  /// via a min-heap of session deadlines — no reaper thread.
  uint32_t idle_timeout_ms = 0;
  /// Close a session whose pending output makes no progress for this
  /// long — a slow or dead client pinning buffer memory. 0 = never.
  uint32_t write_stall_timeout_ms = 0;
  /// How long Stop() keeps flushing already-computed responses before
  /// closing sockets (in-flight requests are always answered first).
  uint32_t drain_timeout_ms = 1000;
  /// When > 0, applied to each accepted socket as SO_SNDBUF — a tuning /
  /// testing knob that makes slow-client write stalls reproducible.
  int socket_send_buffer_bytes = 0;

  /// Worker threads executing requests. 0 = the process-wide
  /// ThreadPool::Shared(); > 0 = a pool owned (and drained) by this
  /// server.
  size_t num_threads = 0;

  /// Use the portable poll(2) poller even where epoll is available
  /// (tests exercise both backends).
  bool force_poll = false;
};

class Server {
 public:
  /// The engine must outlive the server.
  Server(ServerEngine* engine, ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the configured listeners and starts the event loop.
  /// InvalidArgument when no listener is configured or already running.
  Status Start();

  /// Stops accepting, drains in-flight requests, closes every
  /// connection, joins the loop thread. Idempotent; Start() may be
  /// called again afterwards.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The TCP port actually bound (after Start with tcp enabled).
  uint16_t tcp_port() const { return bound_tcp_port_; }
  const std::string& unix_path() const { return options_.unix_path; }

  /// Live sessions (event-loop-thread view; approximate from outside).
  size_t active_sessions() const {
    return active_sessions_.load(std::memory_order_acquire);
  }

 private:
  class Poller;
  class PollPoller;
#ifdef __linux__
  class EpollPoller;
#endif
  struct Connection;
  struct Completion {
    uint64_t conn_id = 0;
    std::string response;
    bool close = false;
  };

  struct SessionDeadline {
    std::chrono::steady_clock::time_point when;
    uint64_t conn_id = 0;
    bool operator>(const SessionDeadline& other) const {
      return when > other.when;
    }
  };

  void EventLoop();
  void AcceptAll(int listen_fd);
  bool DrainDecoder(Connection* conn, std::string* error_payload);
  /// Pushes a heap entry for `conn`'s earliest idle / write-stall
  /// deadline (at most one live entry per connection).
  void ArmSessionDeadline(Connection* conn);
  /// Reaps every session whose deadline has truly expired; stale heap
  /// entries re-arm themselves. Runs on the loop thread each wakeup.
  void RunReaper();
  /// Poll timeout to the nearest session deadline (-1 = no deadline).
  int NextReaperTimeoutMs() const;
  /// Bounded best-effort flush of buffered responses at shutdown.
  void DrainOutputsBeforeExit();
  void HandleReadable(Connection* conn);
  void HandleWritable(Connection* conn);
  void DispatchNext(Connection* conn);
  void ProcessCompletions();
  void EnqueueResponse(Connection* conn, std::string_view payload);
  void FlushOutput(Connection* conn);
  void UpdateInterest(Connection* conn);
  void CloseConnection(Connection* conn, bool abrupt);
  void ReapDead();
  void CloseListeners();
  void Wake() { PokeWakePipe(wake_.write_end.get()); }

  ServerEngine* const engine_;
  ServerOptions options_;

  ThreadPool* pool_ = nullptr;
  std::unique_ptr<ThreadPool> owned_pool_;

  UniqueFd tcp_listener_;
  UniqueFd unix_listener_;
  uint16_t bound_tcp_port_ = 0;
  WakePipe wake_;
  std::unique_ptr<Poller> poller_;

  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  bool listeners_closed_ = false;

  // Event-loop-thread state.
  std::vector<char> read_buf_;  ///< read_chunk_bytes, reused by every read
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 16;  // ids below 16 tag listeners + wake pipe
  std::atomic<size_t> active_sessions_{0};

  // Admission-control totals, maintained incrementally by the loop
  // thread (decode / dispatch / enqueue / flush / close).
  size_t pending_requests_total_ = 0;
  size_t buffered_out_total_ = 0;

  // Min-heap of session idle / write-stall deadlines. Entries are lazy:
  // a popped entry whose connection has been active since simply re-arms
  // at the new deadline.
  std::priority_queue<SessionDeadline, std::vector<SessionDeadline>,
                      std::greater<SessionDeadline>>
      session_deadlines_;

  // Worker → event-loop handoff. inflight_ counts dispatched requests
  // whose completion has not yet been *pushed*; the loop only exits once
  // it reaches 0 with the queue drained, which (because workers push and
  // decrement under done_mu_, then never touch the server again) makes
  // join-then-destruct safe even with the shared pool.
  std::mutex done_mu_;
  std::vector<Completion> done_;
  size_t inflight_ = 0;
};

}  // namespace server
}  // namespace lazyxml

#endif  // LAZYXML_SERVER_SERVER_H_
