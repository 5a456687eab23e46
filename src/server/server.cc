#include "server/server.h"

#include <poll.h>
#include <sys/socket.h>
#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "common/file_io.h"
#include "obs/metrics.h"
#include "server/engine.h"

namespace lazyxml {
namespace server {

namespace {
constexpr uint64_t kWakeTag = 0;
constexpr uint64_t kTcpTag = 1;
constexpr uint64_t kUnixTag = 2;

using Clock = std::chrono::steady_clock;

int64_t MsUntil(Clock::time_point when, Clock::time_point now) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(when - now)
      .count();
}
}  // namespace

// ---------------------------------------------------------------------------
// Pollers: one interface, an epoll backend (Linux) and a portable poll(2)
// backend. Both are level-triggered — the read/write handlers consume as
// much as the socket offers, so level semantics never spin.

class Server::Poller {
 public:
  struct Event {
    uint64_t tag = 0;
    bool readable = false;
    bool writable = false;
    bool error = false;
  };
  virtual ~Poller() = default;
  virtual Status Add(int fd, uint64_t tag, bool read, bool write) = 0;
  virtual Status Update(int fd, uint64_t tag, bool read, bool write) = 0;
  virtual void Remove(int fd) = 0;
  /// timeout_ms < 0 blocks. EINTR yields an empty event list.
  virtual Result<std::vector<Event>> Wait(int timeout_ms) = 0;
};

class Server::PollPoller : public Server::Poller {
 public:
  Status Add(int fd, uint64_t tag, bool read, bool write) override {
    fds_[fd] = {tag, Mask(read, write)};
    return Status::OK();
  }
  Status Update(int fd, uint64_t tag, bool read, bool write) override {
    fds_[fd] = {tag, Mask(read, write)};
    return Status::OK();
  }
  void Remove(int fd) override { fds_.erase(fd); }

  Result<std::vector<Event>> Wait(int timeout_ms) override {
    std::vector<pollfd> pfds;
    pfds.reserve(fds_.size());
    for (const auto& [fd, reg] : fds_) {
      pfds.push_back(pollfd{fd, reg.second, 0});
    }
    const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    std::vector<Event> out;
    if (rc < 0) {
      if (errno == EINTR) return out;
      return Status::IOError("poll: " + std::string(std::strerror(errno)));
    }
    for (const pollfd& p : pfds) {
      if (p.revents == 0) continue;
      auto it = fds_.find(p.fd);
      if (it == fds_.end()) continue;
      Event ev;
      ev.tag = it->second.first;
      ev.readable = (p.revents & (POLLIN | POLLHUP)) != 0;
      ev.writable = (p.revents & POLLOUT) != 0;
      ev.error = (p.revents & (POLLERR | POLLNVAL)) != 0;
      out.push_back(ev);
    }
    return out;
  }

 private:
  static short Mask(bool read, bool write) {
    short m = 0;
    if (read) m |= POLLIN;
    if (write) m |= POLLOUT;
    return m;
  }
  std::map<int, std::pair<uint64_t, short>> fds_;
};

#ifdef __linux__
class Server::EpollPoller : public Server::Poller {
 public:
  static Result<std::unique_ptr<Poller>> Create() {
    int fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (fd < 0) {
      return Status::IOError("epoll_create1: " +
                             std::string(std::strerror(errno)));
    }
    auto p = std::unique_ptr<EpollPoller>(new EpollPoller());
    p->epfd_.reset(fd);
    return std::unique_ptr<Poller>(std::move(p));
  }

  Status Add(int fd, uint64_t tag, bool read, bool write) override {
    return Ctl(EPOLL_CTL_ADD, fd, tag, read, write);
  }
  Status Update(int fd, uint64_t tag, bool read, bool write) override {
    return Ctl(EPOLL_CTL_MOD, fd, tag, read, write);
  }
  void Remove(int fd) override {
    epoll_event ev{};
    (void)::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, fd, &ev);
  }

  Result<std::vector<Event>> Wait(int timeout_ms) override {
    epoll_event evs[64];
    const int rc = ::epoll_wait(epfd_.get(), evs, 64, timeout_ms);
    std::vector<Event> out;
    if (rc < 0) {
      if (errno == EINTR) return out;
      return Status::IOError("epoll_wait: " +
                             std::string(std::strerror(errno)));
    }
    out.reserve(static_cast<size_t>(rc));
    for (int i = 0; i < rc; ++i) {
      Event ev;
      ev.tag = evs[i].data.u64;
      ev.readable = (evs[i].events & (EPOLLIN | EPOLLHUP | EPOLLRDHUP)) != 0;
      ev.writable = (evs[i].events & EPOLLOUT) != 0;
      ev.error = (evs[i].events & EPOLLERR) != 0;
      out.push_back(ev);
    }
    return out;
  }

 private:
  EpollPoller() = default;
  Status Ctl(int op, int fd, uint64_t tag, bool read, bool write) {
    epoll_event ev{};
    ev.data.u64 = tag;
    if (read) ev.events |= EPOLLIN | EPOLLRDHUP;
    if (write) ev.events |= EPOLLOUT;
    if (::epoll_ctl(epfd_.get(), op, fd, &ev) != 0) {
      return Status::IOError("epoll_ctl: " +
                             std::string(std::strerror(errno)));
    }
    return Status::OK();
  }
  UniqueFd epfd_;
};
#endif  // __linux__

// ---------------------------------------------------------------------------
// Connection

struct Server::Connection {
  Connection(uint64_t id_in, UniqueFd fd_in, const ServerOptions& options)
      : id(id_in),
        fd(std::move(fd_in)),
        session(id_in, options.session),
        decoder(options.wire) {}

  const uint64_t id;
  UniqueFd fd;
  SessionContext session;
  FrameDecoder decoder;

  /// One decoded-but-unanswered request. `arrival` starts the deadline
  /// budget; `shed` marks a request admission control already rejected —
  /// its ERR Unavailable response is emitted at dispatch, in order, so
  /// response/request correlation survives overload.
  struct PendingRequest {
    std::string payload;
    Clock::time_point arrival;
    bool shed = false;
  };

  /// Decoded request payloads not yet dispatched (bounded by
  /// max_pending_requests via read pausing).
  std::deque<PendingRequest> requests;
  /// True while one request of this session runs on the pool.
  bool executing = false;

  std::string out;
  size_t out_pos = 0;

  bool want_close = false;  ///< close once the output buffer drains
  bool dead = false;        ///< fd closed; object reaped when !executing
  bool read_interest = true;
  bool write_interest = false;
  bool paused_for_backpressure = false;

  // Reaper bookkeeping (loop thread only).
  Clock::time_point last_activity{};       ///< bytes read / request done
  Clock::time_point last_write_progress{}; ///< output bytes accepted
  /// Earliest armed heap entry; max() = none. Bounds the heap to one
  /// live entry per connection.
  Clock::time_point armed_deadline = Clock::time_point::max();
};

// ---------------------------------------------------------------------------
// Server

Server::Server(ServerEngine* engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      read_buf_(options_.read_chunk_bytes) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already running");
  }
  if (!options_.tcp && options_.unix_path.empty()) {
    return Status::InvalidArgument(
        "no listener configured (need a TCP address or a unix-socket path)");
  }
  stop_requested_.store(false, std::memory_order_release);
  listeners_closed_ = false;

  auto fail = [this](Status s) {
    tcp_listener_.reset();
    unix_listener_.reset();
    wake_.read_end.reset();
    wake_.write_end.reset();
    poller_.reset();
    return s;
  };

  if (options_.tcp) {
    auto l = ListenTcp(options_.tcp_host, options_.tcp_port);
    if (!l.ok()) return fail(l.status());
    tcp_listener_ = std::move(l).ValueOrDie();
    Status s = SetNonBlocking(tcp_listener_.get());
    if (!s.ok()) return fail(s);
    auto port = LocalPort(tcp_listener_.get());
    if (!port.ok()) return fail(port.status());
    bound_tcp_port_ = port.ValueOrDie();
  }
  if (!options_.unix_path.empty()) {
    auto l = ListenUnix(options_.unix_path);
    if (!l.ok()) return fail(l.status());
    unix_listener_ = std::move(l).ValueOrDie();
    Status s = SetNonBlocking(unix_listener_.get());
    if (!s.ok()) return fail(s);
  }

  auto wp = CreateWakePipe();
  if (!wp.ok()) return fail(wp.status());
  wake_ = std::move(wp).ValueOrDie();

#ifdef __linux__
  if (!options_.force_poll) {
    auto p = EpollPoller::Create();
    if (!p.ok()) return fail(p.status());
    poller_ = std::move(p).ValueOrDie();
  }
#endif
  if (poller_ == nullptr) poller_ = std::make_unique<PollPoller>();

  Status s = poller_->Add(wake_.read_end.get(), kWakeTag, true, false);
  if (s.ok() && tcp_listener_.valid()) {
    s = poller_->Add(tcp_listener_.get(), kTcpTag, true, false);
  }
  if (s.ok() && unix_listener_.valid()) {
    s = poller_->Add(unix_listener_.get(), kUnixTag, true, false);
  }
  if (!s.ok()) return fail(s);

  if (options_.num_threads > 0) {
    owned_pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    pool_ = owned_pool_.get();
  } else {
    pool_ = ThreadPool::Shared();
  }

  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread(&Server::EventLoop, this);
  return Status::OK();
}

void Server::Stop() {
  stop_requested_.store(true, std::memory_order_release);
  if (wake_.write_end.valid()) Wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop exits only after inflight_ == 0 with the completion queue
  // drained, and a worker's last server access is inside that same
  // critical section — so past this point no pool task can touch us.
  // Draining an owned pool additionally bounds worker lifetime to Stop.
  if (owned_pool_ != nullptr) owned_pool_->WaitIdle();
  connections_.clear();
  poller_.reset();
  tcp_listener_.reset();
  unix_listener_.reset();
  wake_.read_end.reset();
  wake_.write_end.reset();
  if (!options_.unix_path.empty()) {
    (void)RemoveFileIfExists(options_.unix_path);
  }
  owned_pool_.reset();
  pool_ = nullptr;
  active_sessions_.store(0, std::memory_order_release);
  done_.clear();
  inflight_ = 0;
  pending_requests_total_ = 0;
  buffered_out_total_ = 0;
  session_deadlines_ = {};
  listeners_closed_ = false;
  running_.store(false, std::memory_order_release);
}

void Server::CloseListeners() {
  if (listeners_closed_) return;
  listeners_closed_ = true;
  if (tcp_listener_.valid()) {
    poller_->Remove(tcp_listener_.get());
    tcp_listener_.reset();
  }
  if (unix_listener_.valid()) {
    poller_->Remove(unix_listener_.get());
    unix_listener_.reset();
  }
}

void Server::EventLoop() {
  for (;;) {
    ProcessCompletions();
    RunReaper();
    ReapDead();
    if (stop_requested_.load(std::memory_order_acquire)) {
      CloseListeners();
      bool drained;
      {
        std::lock_guard<std::mutex> l(done_mu_);
        drained = inflight_ == 0 && done_.empty();
      }
      if (drained) break;
    }
    int timeout_ms = NextReaperTimeoutMs();
    if (stop_requested_.load(std::memory_order_acquire) &&
        (timeout_ms < 0 || timeout_ms > 20)) {
      timeout_ms = 20;
    }
    auto events = poller_->Wait(timeout_ms);
    if (!events.ok()) break;  // poller broke; drain via the stop path
    for (const Poller::Event& ev : events.ValueOrDie()) {
      if (ev.tag == kWakeTag) {
        DrainWakePipe(wake_.read_end.get());
        continue;
      }
      if (ev.tag == kTcpTag) {
        if (!listeners_closed_) AcceptAll(tcp_listener_.get());
        continue;
      }
      if (ev.tag == kUnixTag) {
        if (!listeners_closed_) AcceptAll(unix_listener_.get());
        continue;
      }
      auto it = connections_.find(ev.tag);
      if (it == connections_.end()) continue;
      Connection* conn = it->second.get();
      if (conn->dead) continue;
      if (ev.error) {
        CloseConnection(conn, /*abrupt=*/true);
        continue;
      }
      if (ev.writable) HandleWritable(conn);
      if (ev.readable && !conn->dead) HandleReadable(conn);
    }
  }
  // Drain path: every in-flight request has been answered into its
  // output buffer by now; give the buffers a bounded window to reach
  // the sockets, then close everything.
  DrainOutputsBeforeExit();
  for (auto& [id, conn] : connections_) {
    if (!conn->dead) {
      CloseConnection(conn.get(), /*abrupt=*/false);
    }
  }
  connections_.clear();
}

void Server::DrainOutputsBeforeExit() {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.drain_timeout_ms);
  for (;;) {
    bool pending = false;
    for (auto& [id, conn] : connections_) {
      if (conn->dead) continue;
      FlushOutput(conn.get());
      if (!conn->dead && conn->out.size() > conn->out_pos) pending = true;
    }
    if (!pending || Clock::now() >= deadline) break;
    // Brief nap instead of re-registering writable interest: shutdown is
    // not a hot path, and the bound above keeps Stop() prompt.
    (void)::poll(nullptr, 0, 2);
  }
}

void Server::AcceptAll(int listen_fd) {
  LAZYXML_METRIC_COUNTER(accepted, "server.connections_accepted");
  LAZYXML_METRIC_COUNTER(rejected, "server.connections_rejected");
  for (;;) {
    auto r = AcceptConnection(listen_fd);
    if (!r.ok()) return;  // listener failure; the loop keeps serving
    UniqueFd fd = std::move(r).ValueOrDie();
    if (!fd.valid()) return;  // no more pending connections

    size_t live = 0;
    for (const auto& [id, c] : connections_) {
      if (!c->dead) ++live;
    }
    if (live >= options_.max_connections) {
      rejected.Increment();
      // A proper error frame, then close: the client sees a clean
      // rejection instead of an unexplained hangup. One best-effort
      // write — the socket is still blocking and the frame is tiny.
      auto frame = EncodeFrame(
          FrameType::kResponse,
          ErrorResponse(Status::InvalidArgument(
              "connection limit reached (" +
              std::to_string(options_.max_connections) + " sessions)")),
          options_.wire);
      if (frame.ok()) {
        const std::string& bytes = frame.ValueOrDie();
        (void)WriteSome(fd.get(), bytes.data(), bytes.size());
      }
      continue;  // fd closes via RAII
    }

    if (!SetNonBlocking(fd.get()).ok()) continue;
    if (options_.socket_send_buffer_bytes > 0) {
      (void)::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF,
                         &options_.socket_send_buffer_bytes,
                         sizeof(options_.socket_send_buffer_bytes));
    }
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(id, std::move(fd), options_);
    if (!poller_->Add(conn->fd.get(), id, true, false).ok()) continue;
    accepted.Increment();
    active_sessions_.fetch_add(1, std::memory_order_acq_rel);
    conn->last_activity = Clock::now();
    conn->last_write_progress = conn->last_activity;
    Connection* raw = conn.get();
    connections_.emplace(id, std::move(conn));
    ArmSessionDeadline(raw);
  }
}

/// Pulls complete frames out of the decoder into the request queue, up
/// to the per-session bound. Returns false on a fatal protocol error
/// (`*error_payload` then holds the ERR response to send before close).
bool Server::DrainDecoder(Connection* conn, std::string* error_payload) {
  LAZYXML_METRIC_COUNTER(shed_total, "server.shed_total");
  while (conn->requests.size() < options_.max_pending_requests) {
    auto fr = conn->decoder.Next();
    if (!fr.ok()) {
      *error_payload = ErrorResponse(fr.status());
      return false;
    }
    if (!fr.ValueOrDie().has_value()) return true;
    Frame frame = std::move(fr.ValueOrDie().value());
    if (frame.type != FrameType::kRequest) {
      *error_payload =
          ErrorResponse(Status::InvalidArgument("expected a request frame"));
      return false;
    }
    Connection::PendingRequest req;
    req.payload = std::move(frame.payload);
    req.arrival = Clock::now();
    // Admission control: over a watermark, the request is marked shed at
    // decode time and answered ERR Unavailable at dispatch time — the
    // response still goes out in arrival order, so clients can correlate
    // it, and the engine never sees the work.
    const bool over_pending =
        options_.shed_pending_requests > 0 &&
        pending_requests_total_ >= options_.shed_pending_requests;
    const bool over_bytes =
        options_.shed_buffered_bytes > 0 &&
        buffered_out_total_ >= options_.shed_buffered_bytes;
    if (over_pending || over_bytes) {
      req.shed = true;
      shed_total.Increment();
      ++conn->session.requests_shed;
    }
    conn->requests.push_back(std::move(req));
    ++pending_requests_total_;
  }
  return true;
}

void Server::HandleReadable(Connection* conn) {
  if (stop_requested_.load(std::memory_order_acquire)) return;
  LAZYXML_METRIC_COUNTER(bytes_read, "server.bytes_read");
  LAZYXML_METRIC_COUNTER(protocol_errors, "server.protocol_errors");
  if (conn->want_close) return;
  std::vector<char>& buf = read_buf_;
  for (;;) {
    // Respect backpressure even mid-read: once the queue or output
    // buffer is at its bound, leave the rest in the kernel.
    if (conn->requests.size() >= options_.max_pending_requests ||
        conn->out.size() - conn->out_pos > options_.max_output_buffer_bytes) {
      break;
    }
    auto r = ReadSome(conn->fd.get(), buf.data(), buf.size());
    if (!r.ok()) {
      CloseConnection(conn, /*abrupt=*/true);
      return;
    }
    const ReadOutcome& ro = r.ValueOrDie();
    if (ro.n > 0) {
      bytes_read.Add(ro.n);
      conn->last_activity = Clock::now();
      conn->decoder.Feed(std::string_view(buf.data(), ro.n));
      std::string error_payload;
      if (!DrainDecoder(conn, &error_payload)) {
        protocol_errors.Increment();
        EnqueueResponse(conn, error_payload);
        conn->want_close = true;
        break;
      }
    }
    if (ro.eof) {
      // Peer is gone. If responses are still buffered this was abrupt;
      // either way nothing more arrives.
      CloseConnection(conn, /*abrupt=*/!conn->want_close);
      return;
    }
    if (ro.would_block) break;
  }
  DispatchNext(conn);
  FlushOutput(conn);
  if (conn->dead) return;
  if (conn->want_close && conn->out.size() == conn->out_pos &&
      !conn->executing) {
    CloseConnection(conn, /*abrupt=*/false);
    return;
  }
  UpdateInterest(conn);
}

void Server::HandleWritable(Connection* conn) {
  FlushOutput(conn);
  if (conn->dead) return;
  if (conn->want_close && conn->out.size() == conn->out_pos &&
      !conn->executing) {
    CloseConnection(conn, /*abrupt=*/false);
    return;
  }
  UpdateInterest(conn);
}

void Server::DispatchNext(Connection* conn) {
  if (conn->executing || conn->dead || conn->want_close) return;
  if (stop_requested_.load(std::memory_order_acquire)) return;

  // Requests admission control already rejected are answered here, in
  // arrival order, without a pool round-trip. Answering sheds can empty
  // the queue while complete frames still sit in the decoder (reading
  // pauses at the queue cap, so no readable event is coming and no
  // worker completion is in flight to pull them) — drain again before
  // concluding there is nothing to do.
  while (true) {
    while (!conn->requests.empty() && conn->requests.front().shed) {
      conn->requests.pop_front();
      --pending_requests_total_;
      EnqueueResponse(
          conn, ErrorResponse(Status::Unavailable(
                    "server overloaded, retry with backoff (pending=" +
                    std::to_string(pending_requests_total_) + " buffered=" +
                    std::to_string(buffered_out_total_) + "B)")));
    }
    if (!conn->requests.empty()) break;
    std::string error_payload;
    if (!DrainDecoder(conn, &error_payload)) {
      LAZYXML_METRIC_COUNTER(protocol_errors, "server.protocol_errors");
      protocol_errors.Increment();
      EnqueueResponse(conn, error_payload);
      conn->want_close = true;
      return;
    }
    if (conn->requests.empty()) return;  // decoder truly dry (or partial)
  }

  std::string payload = std::move(conn->requests.front().payload);
  const Clock::time_point arrival = conn->requests.front().arrival;
  conn->requests.pop_front();
  --pending_requests_total_;
  conn->executing = true;
  {
    std::lock_guard<std::mutex> l(done_mu_);
    ++inflight_;
  }
  // The worker touches only the engine, this session (no other request
  // of the session can run concurrently), and the completion queue. The
  // Connection object outlives the task: it is reaped only when a
  // completion for it has been processed (executing back to false).
  pool_->Submit([this, id = conn->id, session = &conn->session,
                 payload = std::move(payload), arrival]() {
    LAZYXML_METRIC_COUNTER(requests, "server.requests");
    LAZYXML_METRIC_COUNTER(request_errors, "server.request_errors");
    LAZYXML_METRIC_COUNTER(deadline_exceeded,
                           "server.deadline_exceeded_total");
    requests.Increment();
    Completion done;
    done.conn_id = id;
    auto parsed = ParseCommand(payload, options_.command);
    if (!parsed.ok()) {
      request_errors.Increment();
      done.response = ErrorResponse(parsed.status());
    } else {
      // Deadline gate: the budget is per command class and covers queue
      // wait. An expired request dies here — parsed but never executed.
      const DeadlineClass cls = DeadlineClassOf(parsed.ValueOrDie().kind);
      uint32_t budget_ms = 0;
      switch (cls) {
        case DeadlineClass::kQuery: budget_ms = options_.deadline.query_ms; break;
        case DeadlineClass::kUpdate: budget_ms = options_.deadline.update_ms; break;
        case DeadlineClass::kAdmin: budget_ms = options_.deadline.admin_ms; break;
      }
      const int64_t waited_ms = MsUntil(Clock::now(), arrival);
      if (budget_ms > 0 && waited_ms > static_cast<int64_t>(budget_ms)) {
        deadline_exceeded.Increment();
        request_errors.Increment();
        ++session->requests_expired;
        done.response = ErrorResponse(Status::DeadlineExceeded(
            std::string(CommandKindName(parsed.ValueOrDie().kind)) +
            " waited " + std::to_string(waited_ms) + "ms, over the " +
            std::string(DeadlineClassName(cls)) + " budget of " +
            std::to_string(budget_ms) + "ms"));
      } else {
        ExecuteOutcome out = ExecuteCommand(engine_, session,
                                            parsed.ValueOrDie());
        if (out.error) request_errors.Increment();
        done.response = std::move(out.response);
        done.close = out.close;
      }
    }
    {
      // Push, decrement, and wake under one lock: the event loop's exit
      // check (inflight_ == 0 && done_.empty()) can then never pass
      // while this task still has server state to touch.
      std::lock_guard<std::mutex> l(done_mu_);
      done_.push_back(std::move(done));
      --inflight_;
      Wake();
    }
  });
}

void Server::ProcessCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> l(done_mu_);
    batch.swap(done_);
  }
  for (Completion& done : batch) {
    auto it = connections_.find(done.conn_id);
    if (it == connections_.end()) continue;
    Connection* conn = it->second.get();
    conn->executing = false;
    if (conn->dead) continue;  // reaped by ReapDead
    conn->last_activity = Clock::now();
    EnqueueResponse(conn, done.response);
    if (done.close) conn->want_close = true;
    if (!conn->want_close) {
      // The queue may have been full; frames can be waiting inside the
      // decoder even without new socket readability.
      std::string error_payload;
      if (!DrainDecoder(conn, &error_payload)) {
        LAZYXML_METRIC_COUNTER(protocol_errors, "server.protocol_errors");
        protocol_errors.Increment();
        EnqueueResponse(conn, error_payload);
        conn->want_close = true;
      }
      DispatchNext(conn);
    }
    FlushOutput(conn);
    if (conn->dead) continue;
    if (conn->want_close && conn->out.size() == conn->out_pos &&
        !conn->executing) {
      CloseConnection(conn, /*abrupt=*/false);
      continue;
    }
    UpdateInterest(conn);
  }
}

void Server::EnqueueResponse(Connection* conn, std::string_view payload) {
  if (conn->dead) return;
  auto frame = EncodeFrame(FrameType::kResponse, payload, options_.wire);
  if (!frame.ok()) {
    // The payload itself blew the wire cap (huge query result). Tell the
    // client in-band instead of silently dropping the response.
    frame = EncodeFrame(
        FrameType::kResponse,
        ErrorResponse(Status::InvalidArgument(
            "response of " + std::to_string(payload.size()) +
            " bytes exceeds the wire cap; narrow the query or raise "
            "--wire-cap")),
        options_.wire);
    if (!frame.ok()) return;
  }
  if (conn->out.size() == conn->out_pos) {
    // Output transitions empty → pending: the write-stall clock starts
    // now, not at the last time this client drained something.
    conn->last_write_progress = Clock::now();
  }
  conn->out.append(frame.ValueOrDie());
  buffered_out_total_ += frame.ValueOrDie().size();
  ArmSessionDeadline(conn);
}

void Server::FlushOutput(Connection* conn) {
  if (conn->dead) return;
  const size_t remaining = conn->out.size() - conn->out_pos;
  if (remaining == 0) return;
  LAZYXML_METRIC_COUNTER(bytes_written, "server.bytes_written");
  auto w = WriteSome(conn->fd.get(), conn->out.data() + conn->out_pos,
                     remaining);
  if (!w.ok()) {
    CloseConnection(conn, /*abrupt=*/true);
    return;
  }
  bytes_written.Add(w.ValueOrDie().n);
  conn->out_pos += w.ValueOrDie().n;
  buffered_out_total_ -= std::min(buffered_out_total_,
                                  static_cast<size_t>(w.ValueOrDie().n));
  if (w.ValueOrDie().n > 0) conn->last_write_progress = Clock::now();
  if (conn->out_pos == conn->out.size()) {
    conn->out.clear();
    conn->out_pos = 0;
  }
}

void Server::UpdateInterest(Connection* conn) {
  if (conn->dead) return;
  LAZYXML_METRIC_COUNTER(pauses, "server.backpressure_pauses");
  const bool queue_full =
      conn->requests.size() >= options_.max_pending_requests ||
      conn->out.size() - conn->out_pos > options_.max_output_buffer_bytes;
  const bool want_read = !conn->want_close && !queue_full;
  const bool want_write = conn->out.size() > conn->out_pos;
  if (queue_full && !conn->paused_for_backpressure) {
    pauses.Increment();
    conn->paused_for_backpressure = true;
  } else if (!queue_full) {
    conn->paused_for_backpressure = false;
  }
  if (want_read == conn->read_interest && want_write == conn->write_interest) {
    return;
  }
  conn->read_interest = want_read;
  conn->write_interest = want_write;
  (void)poller_->Update(conn->fd.get(), conn->id, want_read, want_write);
}

void Server::CloseConnection(Connection* conn, bool abrupt) {
  if (conn->dead) return;
  LAZYXML_METRIC_COUNTER(closed, "server.connections_closed");
  LAZYXML_METRIC_COUNTER(abrupt_disconnects, "server.disconnects_abrupt");
  LAZYXML_METRIC_COUNTER(batches_discarded, "server.batches_discarded");
  closed.Increment();
  if (abrupt) abrupt_disconnects.Increment();
  if (conn->session.in_batch()) {
    // The pending batch dies with the session — it was never applied,
    // so no sid was burned and the store is untouched (I-SRV-BATCH).
    batches_discarded.Increment();
  }
  poller_->Remove(conn->fd.get());
  conn->fd.reset();
  conn->dead = true;
  pending_requests_total_ -=
      std::min(pending_requests_total_, conn->requests.size());
  buffered_out_total_ -=
      std::min(buffered_out_total_, conn->out.size() - conn->out_pos);
  conn->requests.clear();
  conn->out.clear();
  conn->out_pos = 0;
  active_sessions_.fetch_sub(1, std::memory_order_acq_rel);
}

void Server::ArmSessionDeadline(Connection* conn) {
  if (conn->dead) return;
  auto candidate = Clock::time_point::max();
  if (options_.idle_timeout_ms > 0) {
    candidate = conn->last_activity +
                std::chrono::milliseconds(options_.idle_timeout_ms);
  }
  if (options_.write_stall_timeout_ms > 0 &&
      conn->out.size() > conn->out_pos) {
    candidate = std::min(
        candidate, conn->last_write_progress + std::chrono::milliseconds(
                                                   options_.write_stall_timeout_ms));
  }
  if (candidate == Clock::time_point::max()) return;
  // An earlier live entry already covers this connection; it re-arms on
  // pop. Keeps the heap at ~1 entry per connection.
  if (candidate >= conn->armed_deadline) return;
  conn->armed_deadline = candidate;
  session_deadlines_.push(SessionDeadline{candidate, conn->id});
}

int Server::NextReaperTimeoutMs() const {
  if (session_deadlines_.empty()) return -1;
  int64_t ms = MsUntil(session_deadlines_.top().when, Clock::now());
  if (ms < 0) ms = 0;
  if (ms > 60000) ms = 60000;
  // Round up: waking a hair early would spin on a not-yet-expired top.
  return static_cast<int>(ms) + 1;
}

void Server::RunReaper() {
  if (session_deadlines_.empty()) return;
  LAZYXML_METRIC_COUNTER(reaped_idle, "server.sessions_reaped_idle");
  LAZYXML_METRIC_COUNTER(reaped_slow, "server.sessions_reaped_slow");
  const auto now = Clock::now();
  while (!session_deadlines_.empty() &&
         session_deadlines_.top().when <= now) {
    const SessionDeadline entry = session_deadlines_.top();
    session_deadlines_.pop();
    auto it = connections_.find(entry.conn_id);
    if (it == connections_.end()) continue;
    Connection* conn = it->second.get();
    if (conn->dead) continue;
    if (entry.when != conn->armed_deadline) continue;  // superseded entry
    conn->armed_deadline = Clock::time_point::max();

    if (options_.write_stall_timeout_ms > 0 &&
        conn->out.size() > conn->out_pos &&
        now >= conn->last_write_progress +
                   std::chrono::milliseconds(options_.write_stall_timeout_ms)) {
      // Slow or dead client pinning output memory: nothing to say to it
      // (its receive path is the problem), just cut it loose.
      reaped_slow.Increment();
      CloseConnection(conn, /*abrupt=*/true);
      continue;
    }

    const bool idle_eligible = !conn->executing && conn->requests.empty() &&
                               conn->out.size() == conn->out_pos &&
                               !conn->want_close;
    if (options_.idle_timeout_ms > 0 && idle_eligible &&
        now >= conn->last_activity +
                   std::chrono::milliseconds(options_.idle_timeout_ms)) {
      reaped_idle.Increment();
      // One best-effort goodbye frame: a live-but-quiet client gets a
      // typed, retryable reason instead of a bare FIN.
      auto frame = EncodeFrame(
          FrameType::kResponse,
          ErrorResponse(Status::Unavailable(
              "idle session reaped after " +
              std::to_string(options_.idle_timeout_ms) + "ms (" +
              conn->session.DescribeActivity() + ")")),
          options_.wire);
      if (frame.ok()) {
        (void)WriteSome(conn->fd.get(), frame.ValueOrDie().data(),
                        frame.ValueOrDie().size());
      }
      CloseConnection(conn, /*abrupt=*/false);
      continue;
    }

    // The deadline moved (activity since arming): re-arm at the new one.
    ArmSessionDeadline(conn);
  }
}

void Server::ReapDead() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->second->dead && !it->second->executing) {
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace server
}  // namespace lazyxml
