#include "net/reactor.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace sensedroid::net {

namespace {

using Clock = Conn::Clock;

constexpr int kBacklog = 128;
// One recv's worth.  A readiness event reads at most kReadBudget bytes
// and then lets the loop move on; epoll is level-triggered, so leftover
// kernel bytes re-report the fd at once.
constexpr std::size_t kChunkBytes = 64 * 1024;
constexpr std::size_t kReadBudget = 4 * kChunkBytes;

Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

// Listen sockets are non-blocking: accept_all drains them until EAGAIN.
int make_tcp_listener(std::uint16_t port, std::uint16_t* bound_port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // host-local by design
  addr.sin_port = htons(port);
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, kBacklog) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

int make_uds_listener(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  const int fd =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // replace a stale socket file
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, kBacklog) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool watch(int ep, int op, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  return ::epoll_ctl(ep, op, fd, &ev) == 0;
}

}  // namespace

Reactor::~Reactor() { stop(); }

bool Reactor::start(const Options& options) {
  if (running()) return true;
  opts_ = options;
  idle_ = seconds(opts_.idle_timeout_s);

  bool ok = true;
  if (opts_.listen_tcp) {
    tcp_fd_ = make_tcp_listener(opts_.tcp_port, &tcp_port_);
    ok = tcp_fd_ >= 0;
  }
  if (ok && !opts_.uds_path.empty()) {
    uds_fd_ = make_uds_listener(opts_.uds_path);
    ok = uds_fd_ >= 0;
  }
  if (ok) ok = (wake_fd_ = ::eventfd(0, EFD_CLOEXEC)) >= 0;
  if (ok) ok = (epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC)) >= 0;
  for (const int fd : {tcp_fd_, uds_fd_, wake_fd_}) {
    if (ok && fd >= 0) ok = watch(epoll_fd_, EPOLL_CTL_ADD, fd, EPOLLIN);
  }
  if (!ok) {
    close_fds();
    return false;
  }

  accepting_ = true;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve(); });
  return true;
}

void Reactor::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  const std::uint64_t one = 1;
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;
  if (thread_.joinable()) thread_.join();
  close_fds();
}

void Reactor::close_fds() {
  if (uds_fd_ >= 0) ::unlink(opts_.uds_path.c_str());
  for (int* fd : {&tcp_fd_, &uds_fd_, &wake_fd_, &epoll_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void Reactor::serve() {
  // Wake at a fraction of the idle timeout so the sweep runs even while
  // every peer is silent; with no connection there is nothing to sweep.
  const int sweep_ms = static_cast<int>(
      std::clamp(opts_.idle_timeout_s * 250.0, 50.0, 1000.0));
  const bool ticking = opts_.tick_s > 0.0;
  const int tick_ms = static_cast<int>(opts_.tick_s * 1000.0);
  auto next_tick = Clock::now();

  while (running_.load(std::memory_order_acquire)) {
    int wait_ms = conns_.empty() && accepting_ ? -1 : sweep_ms;
    if (ticking) wait_ms = wait_ms < 0 ? tick_ms : std::min(wait_ms, tick_ms);
    epoll_event events[64];
    const int n = ::epoll_wait(epoll_fd_, events, 64, wait_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (!running_.load(std::memory_order_acquire)) break;
    // A quiet interval: fds held elsewhere in the process may have come
    // free since the listeners were paused (see accept_all).
    if (n == 0) set_accepting(true);

    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) continue;  // loop condition re-checked above
      if (fd == tcp_fd_ || fd == uds_fd_) {
        accept_all(fd);
      } else {
        on_event(fd, events[i].events);
      }
    }

    const auto now = Clock::now();
    if (ticking && now >= next_tick) {
      handler_.tick();
      next_tick = now + seconds(opts_.tick_s);
    }
    for (auto it = conns_.begin(); it != conns_.end();) {
      const auto cur = it++;
      if (now >= cur->second.deadline_) close_conn(cur, Close::kDropped);
    }
  }

  while (!conns_.empty()) close_conn(conns_.begin(), Close::kShutdown);
}

void Reactor::accept_all(int listen_fd) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      // Out of fds: the connection stays queued, and the level-triggered
      // listener would report it again at once — a busy loop.  Stop
      // watching the listeners until an fd may have come free.
      if (errno == EMFILE || errno == ENFILE) set_accepting(false);
      return;
    }
    if (conns_.size() >= opts_.max_connections) {
      // Refuse, never queue.
      handler_.refused();
      ::close(fd);
      continue;
    }
    const int one = 1;  // no-op (and harmless) on a Unix-domain socket
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn& c = conns_.try_emplace(fd, handler_.open(), Clock::now() + idle_)
                  .first->second;
    c.interest_ = EPOLLIN;
    watch(epoll_fd_, EPOLL_CTL_ADD, fd, EPOLLIN);
  }
}

void Reactor::on_event(int fd, std::uint32_t events) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;

  if (events & (EPOLLHUP | EPOLLERR)) {
    close_conn(it, Close::kDropped);
    return;
  }
  if (events & EPOLLIN) {
    std::uint8_t buf[kChunkBytes];
    std::size_t budget = kReadBudget;
    while (budget > 0 && c.reading()) {
      const ssize_t got = ::recv(fd, buf, std::min(sizeof(buf), budget), 0);
      if (got > 0) {
        const auto len = static_cast<std::size_t>(got);
        budget -= len;
        if (!c.session_->on_data(c, {buf, len})) {
          close_conn(it, Close::kDropped);
          return;
        }
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      c.eof_ = true;  // orderly close or hard error: flush, then close
    }
  }
  if (c.touched_) {
    c.touched_ = false;
    c.deadline_ = Clock::now() + idle_;
  }

  while (c.pending() > 0) {
    const ssize_t sent = ::send(fd, c.out_.data() + c.out_off_, c.pending(),
                                MSG_NOSIGNAL);
    if (sent > 0) {
      c.out_off_ += static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_conn(it, Close::kDropped);
    return;
  }
  if (c.pending() == 0) {
    // Reclaim the buffer so a long-lived connection's reply history
    // does not accumulate.
    c.out_.clear();
    c.out_off_ = 0;
    if (!c.reading()) {
      close_conn(it, c.done_ ? Close::kDone : Close::kDropped);
      return;
    }
  }

  const std::uint32_t want = (c.reading() ? EPOLLIN : 0u) |
                             (c.pending() > 0 ? EPOLLOUT : 0u);
  if (want != c.interest_) {
    c.interest_ = want;
    watch(epoll_fd_, EPOLL_CTL_MOD, fd, want);
  }
}

void Reactor::close_conn(Conns::iterator it, Close why) {
  const int fd = it->first;
  it->second.session_->on_close(why);  // before ::close: see on_close
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
  set_accepting(true);  // the fd just freed can take a queued connection
}

void Reactor::set_accepting(bool on) {
  if (on == accepting_) return;
  accepting_ = on;
  for (const int fd : {tcp_fd_, uds_fd_}) {
    if (fd >= 0) watch(epoll_fd_, EPOLL_CTL_MOD, fd, on ? EPOLLIN : 0u);
  }
}

}  // namespace sensedroid::net
