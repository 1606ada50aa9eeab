// net::Reactor: the one epoll loop under every SenseDroid socket server
// (DESIGN.md §14).  Standard library + POSIX sockets only.  It owns what
// does not depend on the protocol: loopback TCP and optional UDS
// listeners, the serve thread and its eventfd wake, level-triggered
// epoll, accept with refuse-at-cap, a bounded read budget per event, a
// pending-out buffer per connection (EPOLLOUT armed only while bytes are
// pending), the idle sweep, and a periodic tick.  Nothing on the serve
// thread blocks.  The protocol lives in a Handler and one Session per
// connection, all called on the serve thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>

namespace sensedroid::net {

class Conn;

/// Why a connection closed.
enum class Close {
  kDone,      ///< close_when_flushed() was asked and all output was sent
  kDropped,   ///< any other close while serving (EOF, error, refusal,
              ///< idle deadline)
  kShutdown,  ///< Reactor::stop() closed it
};

/// One accepted connection's protocol state.
class Session {
 public:
  virtual ~Session() = default;
  /// One recv's worth of bytes (the view dies on return).  Returns false
  /// to close the connection at once.
  virtual bool on_data(Conn& conn, std::span<const std::uint8_t> bytes) = 0;
  /// Runs just before the fd closes, so a peer reacting to its EOF
  /// already sees whatever this records.
  virtual void on_close(Close why) = 0;
};

/// Server-wide events.
class Handler {
 public:
  virtual ~Handler() = default;
  /// A connection was accepted under the cap.
  virtual std::unique_ptr<Session> open() = 0;
  /// A connection was accepted over the cap; it closes right after.
  virtual void refused() = 0;
  /// Every Options::tick_s, after that loop iteration's events.
  virtual void tick() {}
};

/// The reactor's view of one connection, handed to its Session.
class Conn {
 public:
  using Clock = std::chrono::steady_clock;
  Conn(std::unique_ptr<Session> session, Clock::time_point deadline)
      : session_(std::move(session)), deadline_(deadline) {}

  /// Queues reply bytes; the reactor sends them without blocking.
  void write(std::string_view bytes) { out_.append(bytes); }
  /// Bytes queued but not yet taken by the kernel.
  std::size_t pending() const noexcept { return out_.size() - out_off_; }
  /// Counts this event as activity: the idle deadline restarts.
  void touch() noexcept { touched_ = true; }
  /// Reads nothing more; closes (Close::kDone) once pending() is 0.
  void close_when_flushed() noexcept { done_ = true; }

 private:
  friend class Reactor;
  bool reading() const noexcept { return !done_ && !eof_; }

  std::unique_ptr<Session> session_;
  std::string out_;
  std::size_t out_off_ = 0;
  Clock::time_point deadline_;
  std::uint32_t interest_ = 0;  // epoll events registered
  bool touched_ = false;
  bool done_ = false;
  bool eof_ = false;  // the peer closed its side, or recv failed
};

class Reactor {
 public:
  struct Options {
    std::uint16_t tcp_port = 0;  ///< loopback; 0 binds an ephemeral port
    bool listen_tcp = true;
    std::string uds_path;  ///< empty: no UDS listener; a stale file is
                           ///< replaced, and removed on stop()
    std::size_t max_connections = 16;
    double idle_timeout_s = 2.0;  ///< deadline after accept or touch()
    double tick_s = 0.0;          ///< Handler::tick period; 0: no tick
  };

  /// `handler` must outlive the reactor.
  explicit Reactor(Handler& handler) : handler_(handler) {}
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Binds the listeners, creates the eventfd and epoll, and spawns the
  /// serve thread.  Returns false, with everything torn down again, when
  /// any of that fails.  Idempotent while running.
  bool start(const Options& options);
  /// Joins the serve thread, closes every connection (Close::kShutdown)
  /// and listener.  Idempotent.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// Bound TCP port (valid after start() returned true).
  std::uint16_t tcp_port() const noexcept { return tcp_port_; }

 private:
  using Conns = std::map<int, Conn>;

  void serve();
  void accept_all(int listen_fd);
  void on_event(int fd, std::uint32_t events);
  void close_conn(Conns::iterator it, Close why);
  void close_fds();

  Handler& handler_;
  Options opts_;
  Conn::Clock::duration idle_{};
  int tcp_fd_ = -1;
  int uds_fd_ = -1;
  int wake_fd_ = -1;
  int epoll_fd_ = -1;
  std::uint16_t tcp_port_ = 0;
  Conns conns_;  // serve thread only
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace sensedroid::net
