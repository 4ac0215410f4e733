#include "pa/net/tcp_transport.h"

// The ONLY file in the repository allowed to make socket/poll syscalls
// (tools/lint.py rule 4): confining them here keeps every other layer
// testable against InProcTransport and keeps the I/O-thread-owns-sockets
// rule auditable in one place.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "pa/check/mutex.h"
#include "pa/common/error.h"
#include "pa/common/rng.h"
#include "pa/common/time_utils.h"
#include "pa/net/wire.h"

namespace pa::net {

namespace {

class TcpConnection;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  PA_CHECK_MSG(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
               "fcntl(O_NONBLOCK) failed: " << errno_message(errno));
}

void set_nodelay(int fd) {
  // Heartbeat RTT and unit-completion latency both suffer under Nagle.
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Parses "host:port" / "tcp://host:port" with a numeric IPv4 host.
sockaddr_in parse_endpoint(const std::string& endpoint) {
  std::string rest = endpoint;
  if (const auto scheme = rest.find("://"); scheme != std::string::npos) {
    PA_REQUIRE_ARG(rest.substr(0, scheme) == "tcp",
                   "TcpTransport: unsupported scheme in " << endpoint);
    rest = rest.substr(scheme + 3);
  }
  const auto colon = rest.rfind(':');
  PA_REQUIRE_ARG(colon != std::string::npos && colon + 1 < rest.size(),
                 "TcpTransport: endpoint needs host:port, got " << endpoint);
  const std::string host = rest.substr(0, colon);
  int port = 0;
  try {
    port = std::stoi(rest.substr(colon + 1));
  } catch (const std::exception&) {
    port = -1;
  }
  PA_REQUIRE_ARG(port >= 0 && port <= 65535,
                 "TcpTransport: bad port in " << endpoint);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  PA_REQUIRE_ARG(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                 "TcpTransport: host must be numeric IPv4, got " << host);
  return addr;
}

std::string format_endpoint(const sockaddr_in& addr) {
  char host[INET_ADDRSTRLEN] = {};
  ::inet_ntop(AF_INET, &addr.sin_addr, host, sizeof(host));
  return std::string(host) + ":" + std::to_string(ntohs(addr.sin_port));
}

struct Listener {
  int fd = -1;
  AcceptHandler on_accept;
};

}  // namespace

struct TcpTransport::Impl {
  explicit Impl(TcpTransportConfig c) : config(c), rng(c.jitter_seed) {}

  TcpTransportConfig config;

  check::Mutex mu{check::LockRank::kNetTransport, "net.tcp_transport"};
  std::vector<std::shared_ptr<Listener>> listeners PA_GUARDED_BY(mu);
  std::vector<std::shared_ptr<TcpConnection>> connections PA_GUARDED_BY(mu);
  bool stopping PA_GUARDED_BY(mu) = false;

  /// Self-pipe: any thread writes a byte to wake the I/O thread's poll.
  int wake_read_fd = -1;
  int wake_write_fd = -1;

  /// Eventcount: true from just before the I/O thread's pre-poll scan
  /// until poll() returns. A sender that enqueued while this is false
  /// knows the next scan will see its bytes (the scan re-reads every
  /// send queue under its lock), so the self-pipe syscall is elided —
  /// under load the pipe goes quiet and wake() costs one relaxed load.
  std::atomic<bool> io_may_block{false};

  std::atomic<std::thread::id> io_id{};
  std::thread io;

  pa::Rng rng;  ///< I/O thread only (backoff jitter)

  void wake() noexcept {
    const char byte = 1;
    // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
    (void)!::write(wake_write_fd, &byte, 1);
  }

  /// wake() for the send path: skip the syscall unless the I/O thread
  /// is in (or headed into) poll() without having seen the new bytes.
  /// Safe because io_may_block is set *before* the poll-set scan: either
  /// the scan observes the enqueued bytes (mutex ordering), or the
  /// sender observes the flag and writes the pipe.
  void wake_for_send() noexcept {
    if (io_may_block.load()) {
      wake();
    }
  }

  void run();
  void service(const std::shared_ptr<TcpConnection>& conn, short revents,
               double now);
  void handle_drop(const std::shared_ptr<TcpConnection>& conn, double now);
  void try_reconnect(const std::shared_ptr<TcpConnection>& conn, double now);
};

namespace {

class TcpConnection final : public Connection,
                            public std::enable_shared_from_this<TcpConnection> {
 public:
  TcpConnection(TcpTransport::Impl* owner, ConnectionHandlers handlers)
      : owner_(owner), handlers_(std::move(handlers)) {}

  ~TcpConnection() override {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  bool send(std::string frame) override {
    return enqueue(frame, 1);
  }

  bool send_gather(std::string_view frames,
                   std::uint64_t message_count) override {
    // The gather already IS contiguous framed bytes (arena encode path);
    // appending it to pending_ under one lock acquisition is the
    // userspace half of writev() — the I/O thread's swap-and-send loop
    // flushes it with the same ::send calls either way.
    return enqueue(frames, message_count);
  }

  bool enqueue(std::string_view bytes, std::uint64_t message_count) {
    const std::size_t size = bytes.size();
    if (closed_.load() ||
        queued_bytes_.load() + size > owner_->config.max_send_queue_bytes) {
      send_rejected_.fetch_add(1);
      return false;
    }
    {
      check::MutexLock lock(mu_);
      if (closed_.load()) {
        send_rejected_.fetch_add(1);
        return false;
      }
      pending_.append(bytes);
    }
    const std::size_t depth = queued_bytes_.fetch_add(size) + size;
    std::size_t hwm = send_queue_hwm_.load();
    while (depth > hwm && !send_queue_hwm_.compare_exchange_weak(hwm, depth)) {
    }
    messages_out_.fetch_add(message_count);
    owner_->wake_for_send();
    return true;
  }

  void close() override {
    const bool first = !closed_.exchange(true);
    // Same Dekker pairing as InProcTransport: the I/O thread publishes
    // dispatching_ before re-checking closed_, so spinning here makes
    // close() a barrier — skipped when we *are* the I/O thread.
    if (std::this_thread::get_id() != owner_->io_id.load()) {
      while (dispatching_.load() != 0) {
        std::this_thread::yield();
      }
    }
    if (first) {
      fire_on_close();
      owner_->wake();  // I/O thread reaps the fd
    }
  }

  bool is_open() const override { return !closed_.load(); }

  ConnectionStats stats() const override {
    ConnectionStats s;
    s.bytes_in = bytes_in_.load();
    s.bytes_out = bytes_out_.load();
    s.messages_in = messages_in_.load();
    s.messages_out = messages_out_.load();
    s.send_queue_depth = queued_bytes_.load();
    s.send_queue_hwm = send_queue_hwm_.load();
    s.send_rejected = send_rejected_.load();
    s.reconnects = reconnects_.load();
    return s;
  }

  void fire_on_close() {
    if (!close_fired_.exchange(true)) {
      if (handlers_.on_close) {
        handlers_.on_close();
      }
      // No handler can run after this point (closed_ is set, on_close
      // delivered): the owner may now drop handlers_, breaking any
      // handler→connection shared_ptr cycle (echo servers capture their
      // own ConnectionPtr in on_message).
      handlers_done_.store(true);
    }
  }

  TcpTransport::Impl* const owner_;
  ConnectionHandlers handlers_;

  mutable check::Mutex mu_{check::LockRank::kNetConnection,
                           "net.tcp_connection"};
  /// Whole frames awaiting the I/O thread; always frame-aligned, so it
  /// survives a reconnect intact.
  std::string pending_ PA_GUARDED_BY(mu_);

  std::atomic<bool> closed_{false};
  std::atomic<bool> close_fired_{false};
  std::atomic<bool> handlers_done_{false};  ///< on_close returned
  std::atomic<int> dispatching_{0};
  /// pending_ + writing_ bytes; lock-free backpressure check in send().
  std::atomic<std::size_t> queued_bytes_{0};

  // --- I/O thread only -------------------------------------------------
  int fd_ = -1;  ///< -1 while down (awaiting reconnect or reaped)
  /// Flush buffer; after a partial write its head sits mid-frame, so a
  /// drop discards it wholesale (at-most-once) rather than corrupting
  /// the next stream.
  std::string writing_;
  FrameDecoder decoder_;
  bool is_client_ = false;
  sockaddr_in remote_{};  ///< redial target for client connections
  int reconnect_attempts_ = 0;
  double backoff_seconds_ = 0.0;
  double next_reconnect_time_ = -1.0;  ///< wall_seconds deadline; <0 = none

  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> messages_in_{0};
  std::atomic<std::uint64_t> messages_out_{0};
  std::atomic<std::size_t> send_queue_hwm_{0};
  std::atomic<std::uint64_t> send_rejected_{0};
  std::atomic<std::uint64_t> reconnects_{0};
};

}  // namespace

void TcpTransport::Impl::run() {
  io_id.store(std::this_thread::get_id());
  std::vector<std::shared_ptr<Listener>> listener_snapshot;
  std::vector<std::shared_ptr<TcpConnection>> conn_snapshot;
  std::vector<pollfd> fds;
  for (;;) {
    {
      check::MutexLock lock(mu);
      if (stopping) {
        return;
      }
      // Prune connections that are fully closed (fd reaped, on_close
      // delivered and returned); nothing reaches them through the
      // transport anymore. Dropping the handlers here breaks any
      // handler→connection shared_ptr cycle so the object can die even
      // if its on_message captured its own ConnectionPtr.
      std::erase_if(connections, [](const auto& c) {
        if (c->closed_.load() && c->handlers_done_.load() && c->fd_ < 0) {
          c->handlers_ = ConnectionHandlers();
          return true;
        }
        return false;
      });
      listener_snapshot = listeners;
      conn_snapshot = connections;
    }
    const double now = pa::wall_seconds();

    // Senders must pipe-wake us from here on: the scan below is the last
    // look at the send queues before poll() blocks.
    io_may_block.store(true);

    // Reap closed connections' sockets and fire overdue reconnects
    // before building the poll set.
    double next_timer = now + config.poll_interval_seconds;
    for (const auto& conn : conn_snapshot) {
      if (conn->closed_.load()) {
        if (conn->fd_ >= 0) {
          ::close(conn->fd_);
          conn->fd_ = -1;
        }
        continue;
      }
      if (conn->fd_ < 0 && conn->next_reconnect_time_ >= 0.0) {
        if (now >= conn->next_reconnect_time_) {
          try_reconnect(conn, now);
        }
        if (conn->next_reconnect_time_ >= 0.0) {
          next_timer = std::min(next_timer, conn->next_reconnect_time_);
        }
      }
    }

    fds.clear();
    fds.push_back(pollfd{wake_read_fd, POLLIN, 0});
    for (const auto& listener : listener_snapshot) {
      fds.push_back(pollfd{listener->fd, POLLIN, 0});
    }
    for (const auto& conn : conn_snapshot) {
      if (conn->fd_ < 0 || conn->closed_.load()) {
        continue;
      }
      short events = POLLIN;
      {
        check::MutexLock lock(conn->mu_);
        if (!conn->writing_.empty() || !conn->pending_.empty()) {
          events |= POLLOUT;
        }
      }
      fds.push_back(pollfd{conn->fd_, events, 0});
    }

    const int timeout_ms =
        std::max(0, static_cast<int>((next_timer - now) * 1000.0));
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    io_may_block.store(false);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;  // revents are unreliable after a signal; re-poll
      }
      return;  // poll broken beyond repair; stop() still joins us
    }

    std::size_t index = 0;
    if (fds[index].revents & POLLIN) {
      char buf[64];
      while (::read(wake_read_fd, buf, sizeof(buf)) > 0) {
      }
    }
    ++index;

    for (const auto& listener : listener_snapshot) {
      const short revents = fds[index++].revents;
      if ((revents & POLLIN) == 0) {
        continue;
      }
      for (;;) {
        const int client = ::accept(listener->fd, nullptr, nullptr);
        if (client < 0) {
          break;  // EAGAIN / transient
        }
        set_nonblocking(client);
        set_nodelay(client);
        auto conn = std::make_shared<TcpConnection>(this, ConnectionHandlers{});
        conn->fd_ = client;
        // Acceptor contract: runs on the I/O thread, may not close. The
        // acceptor may publish `conn` to a thread that closes it before
        // the handlers below are stored; the dispatching_ guard makes that
        // close() wait for them (it reads handlers_ in fire_on_close).
        conn->dispatching_.store(1);
        conn->handlers_ = listener->on_accept(conn);
        conn->dispatching_.store(0);
        check::MutexLock lock(mu);
        // Listed even when stop() has begun: it collects late arrivals
        // after joining this thread, so their handlers — which may hold
        // the connection itself — are dropped like every other's.
        connections.push_back(std::move(conn));
        if (stopping) {
          return;
        }
        conn_snapshot = connections;
      }
    }

    for (const auto& conn : conn_snapshot) {
      if (conn->fd_ < 0 || conn->closed_.load()) {
        continue;
      }
      // Connections accepted during this iteration are not in `fds`;
      // they get polled next time around.
      short revents = 0;
      for (std::size_t i = index; i < fds.size(); ++i) {
        if (fds[i].fd == conn->fd_) {
          revents = fds[i].revents;
          break;
        }
      }
      service(conn, revents, now);
    }
  }
}

void TcpTransport::Impl::service(const std::shared_ptr<TcpConnection>& conn,
                                 short revents, double now) {
  // Flush: move whole frames out of pending_ under the connection lock,
  // write without it.
  {
    check::MutexLock lock(conn->mu_);
    if (conn->writing_.empty()) {
      conn->writing_.swap(conn->pending_);
    }
  }
  if (!conn->writing_.empty()) {
    while (!conn->writing_.empty()) {
      const ssize_t n = ::send(conn->fd_, conn->writing_.data(),
                               conn->writing_.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn->bytes_out_.fetch_add(static_cast<std::uint64_t>(n));
        conn->queued_bytes_.fetch_sub(static_cast<std::size_t>(n));
        conn->writing_.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      handle_drop(conn, now);
      return;
    }
  }

  if ((revents & (POLLERR | POLLHUP)) != 0 && (revents & POLLIN) == 0) {
    handle_drop(conn, now);
    return;
  }
  if ((revents & POLLIN) == 0) {
    return;
  }

  // Read + dispatch under the dispatching_ guard (close() barrier).
  conn->dispatching_.store(1);
  if (conn->closed_.load()) {
    conn->dispatching_.store(0);
    return;
  }
  bool dropped = false;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(conn->fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->bytes_in_.fetch_add(static_cast<std::uint64_t>(n));
      conn->decoder_.feed(buf, static_cast<std::size_t>(n));
      std::string payload;
      FrameDecoder::Status status;
      while ((status = conn->decoder_.next(payload)) ==
             FrameDecoder::Status::kFrame) {
        conn->messages_in_.fetch_add(1);
        if (conn->handlers_.on_message) {
          conn->handlers_.on_message(payload);
        }
        if (conn->closed_.load()) {
          break;
        }
      }
      if (status == FrameDecoder::Status::kError) {
        // Corrupt stream (wire.h): no resync point — drop it. A client
        // redials with a fresh decoder; a server-side conn closes.
        dropped = true;
      }
      if (dropped || conn->closed_.load()) {
        break;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    dropped = true;  // orderly shutdown (0) or hard error
    break;
  }
  conn->dispatching_.store(0);
  if (dropped && !conn->closed_.load()) {
    handle_drop(conn, now);
  }
}

void TcpTransport::Impl::handle_drop(const std::shared_ptr<TcpConnection>& conn,
                                     double now) {
  if (conn->fd_ >= 0) {
    ::close(conn->fd_);
    conn->fd_ = -1;
  }
  // writing_ may start mid-frame after a partial write; discard it rather
  // than corrupt the next stream (at-most-once). pending_ stays: it is
  // frame-aligned by construction.
  conn->queued_bytes_.fetch_sub(conn->writing_.size());
  conn->writing_.clear();
  conn->decoder_ = FrameDecoder();

  const bool give_up =
      !conn->is_client_ || !config.reconnect ||
      (config.max_reconnect_attempts > 0 &&
       conn->reconnect_attempts_ >= config.max_reconnect_attempts);
  if (give_up) {
    conn->dispatching_.store(1);
    if (!conn->closed_.exchange(true)) {
      conn->fire_on_close();
    }
    conn->dispatching_.store(0);
    return;
  }
  // backoff_seconds_ is zeroed on every successful (re)connect, so a
  // fresh drop starts at the initial delay and consecutive failed
  // redials grow it geometrically up to the cap.
  if (conn->backoff_seconds_ <= 0.0) {
    conn->backoff_seconds_ = config.backoff_initial_seconds;
  }
  const double jitter =
      rng.uniform(1.0 - config.backoff_jitter, 1.0 + config.backoff_jitter);
  conn->next_reconnect_time_ = now + conn->backoff_seconds_ * jitter;
  conn->backoff_seconds_ = std::min(
      config.backoff_max_seconds,
      conn->backoff_seconds_ * config.backoff_multiplier);
}

void TcpTransport::Impl::try_reconnect(
    const std::shared_ptr<TcpConnection>& conn, double now) {
  ++conn->reconnect_attempts_;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  bool up = fd >= 0;
  if (up && ::connect(fd, reinterpret_cast<const sockaddr*>(&conn->remote_),
                      sizeof(conn->remote_)) != 0) {
    // Blocking connect: on loopback this resolves immediately (success
    // or ECONNREFUSED), so the I/O thread never stalls meaningfully.
    ::close(fd);
    up = false;
  }
  if (!up) {
    handle_drop(conn, now);  // schedules the next, longer backoff
    return;
  }
  set_nonblocking(fd);
  set_nodelay(fd);
  conn->fd_ = fd;
  conn->next_reconnect_time_ = -1.0;
  conn->reconnect_attempts_ = 0;
  conn->backoff_seconds_ = 0.0;
  conn->reconnects_.fetch_add(1);
  conn->dispatching_.store(1);
  if (!conn->closed_.load() && conn->handlers_.on_reconnect) {
    conn->handlers_.on_reconnect();
  }
  conn->dispatching_.store(0);
}

TcpTransport::TcpTransport(TcpTransportConfig config)
    : impl_(std::make_unique<Impl>(config)) {
  int pipe_fds[2] = {-1, -1};
  PA_CHECK_MSG(::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) == 0,
               "TcpTransport: pipe2 failed: " << errno_message(errno));
  impl_->wake_read_fd = pipe_fds[0];
  impl_->wake_write_fd = pipe_fds[1];
  impl_->io = std::thread([impl = impl_.get()] { impl->run(); });
}

TcpTransport::~TcpTransport() {
  stop();
  ::close(impl_->wake_read_fd);
  ::close(impl_->wake_write_fd);
}

std::string TcpTransport::listen(const std::string& endpoint,
                                 AcceptHandler on_accept) {
  PA_REQUIRE_ARG(on_accept != nullptr, "TcpTransport::listen: null acceptor");
  sockaddr_in addr = parse_endpoint(endpoint);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw Error("TcpTransport: socket() failed: " + errno_message(errno));
  }
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    const std::string reason = errno_message(errno);
    ::close(fd);
    throw Error("TcpTransport: cannot listen on " + endpoint + ": " + reason);
  }
  socklen_t len = sizeof(addr);
  PA_CHECK_MSG(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
               "getsockname failed: " << errno_message(errno));
  set_nonblocking(fd);
  auto listener = std::make_shared<Listener>();
  listener->fd = fd;
  listener->on_accept = std::move(on_accept);
  {
    check::MutexLock lock(impl_->mu);
    if (impl_->stopping) {
      ::close(fd);
      throw Error("TcpTransport::listen after stop()");
    }
    impl_->listeners.push_back(std::move(listener));
  }
  impl_->wake();
  return format_endpoint(addr);
}

ConnectionPtr TcpTransport::connect(const std::string& endpoint,
                                    ConnectionHandlers handlers) {
  const sockaddr_in addr = parse_endpoint(endpoint);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw Error("TcpTransport: socket() failed: " + errno_message(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string reason = errno_message(errno);
    ::close(fd);
    throw Error("TcpTransport: connect to " + endpoint + " failed: " + reason);
  }
  set_nonblocking(fd);
  set_nodelay(fd);
  auto conn = std::make_shared<TcpConnection>(impl_.get(), std::move(handlers));
  conn->fd_ = fd;
  conn->is_client_ = true;
  conn->remote_ = addr;
  {
    check::MutexLock lock(impl_->mu);
    if (impl_->stopping) {
      throw Error("TcpTransport::connect raced with stop()");
    }
    impl_->connections.push_back(conn);
  }
  impl_->wake();
  return conn;
}

void TcpTransport::stop() {
  std::vector<std::shared_ptr<Listener>> listeners;
  std::vector<std::shared_ptr<TcpConnection>> conns;
  {
    check::MutexLock lock(impl_->mu);
    if (impl_->stopping) {
      return;
    }
    impl_->stopping = true;
    listeners.swap(impl_->listeners);
    conns.swap(impl_->connections);
  }
  impl_->wake();
  if (impl_->io.joinable()) {
    impl_->io.join();
  }
  {
    // Accepted while the I/O thread ran on toward its stop check.
    check::MutexLock lock(impl_->mu);
    for (auto& conn : impl_->connections) {
      conns.push_back(std::move(conn));
    }
    impl_->connections.clear();
  }
  // I/O thread is gone: sockets are safe to touch from here, close()
  // needs no barrier, unfired on_close handlers run on this thread.
  for (const auto& listener : listeners) {
    ::close(listener->fd);
  }
  for (const auto& conn : conns) {
    conn->close();
    conn->handlers_ = ConnectionHandlers();  // break handler→conn cycles
  }
}

bool tcp_loopback_available() {
  static const bool available = [] {
    const int server = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (server < 0) {
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bool ok = ::bind(server, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)) == 0 &&
              ::listen(server, 1) == 0;
    socklen_t len = sizeof(addr);
    ok = ok && ::getsockname(server, reinterpret_cast<sockaddr*>(&addr),
                             &len) == 0;
    int client = -1;
    if (ok) {
      client = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      ok = client >= 0 &&
           ::connect(client, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)) == 0;
    }
    if (client >= 0) {
      ::close(client);
    }
    ::close(server);
    return ok;
  }();
  return available;
}

}  // namespace pa::net
