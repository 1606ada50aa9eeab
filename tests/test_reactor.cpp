// net::Reactor under fd exhaustion.  The reactor runs in a forked child
// whose RLIMIT_NOFILE is lowered (the test process keeps its own limit),
// so accept4 fails with EMFILE while connections are still queued on the
// listener.  The child must then idle instead of re-polling the readable
// listener, and must accept a queued connection once an fd frees: one
// of its own connections closing, or (a raised limit standing in) an fd
// freed elsewhere in the process.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include "net/reactor.h"

namespace sn = sensedroid::net;

namespace {

// Echoes every byte back, so the parent can tell an accepted connection
// from one still queued on the listener.
class EchoSession final : public sn::Session {
 public:
  bool on_data(sn::Conn& conn, std::span<const std::uint8_t> bytes) override {
    conn.write({reinterpret_cast<const char*>(bytes.data()), bytes.size()});
    return true;
  }
  void on_close(sn::Close) override {}
};

class EchoHandler final : public sn::Handler {
 public:
  std::unique_ptr<sn::Session> open() override {
    opened.fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<EchoSession>();
  }
  void refused() override {}
  std::atomic<int> opened{0};
};

// What the child reports after its measurement window.
struct ChildReport {
  double cpu_s = 0.0;
  double wall_s = 0.0;
  int opened = 0;
};

bool read_full(int fd, void* buf, std::size_t len) {
  auto* p = static_cast<char*>(buf);
  while (len > 0) {
    const ssize_t got = ::read(fd, p, len);
    if (got <= 0) return false;
    p += got;
    len -= static_cast<std::size_t>(got);
  }
  return true;
}

double clock_s(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// Child side: start the reactor, leave room for exactly two more fds,
// report the port, wait for the parent's clients, then measure this
// process's CPU time over one second of wall time.  On the parent's
// next byte, raise the limit by one.  Never returns.
[[noreturn]] void run_child(int to_parent, int from_parent) {
  EchoHandler handler;
  sn::Reactor reactor(handler);
  sn::Reactor::Options opts;
  opts.idle_timeout_s = 60.0;  // no idle drops during the test
  if (!reactor.start(opts)) ::_exit(2);

  // RLIMIT_NOFILE caps fd numbers: with the lowest free fd at `lowest`,
  // a soft limit of lowest + 2 lets two accepts through before EMFILE.
  const int lowest = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (lowest < 0) ::_exit(3);
  ::close(lowest);
  rlimit lim{};
  ::getrlimit(RLIMIT_NOFILE, &lim);
  lim.rlim_cur = static_cast<rlim_t>(lowest) + 2;
  if (::setrlimit(RLIMIT_NOFILE, &lim) != 0) ::_exit(4);

  const std::uint16_t port = reactor.tcp_port();
  if (::write(to_parent, &port, sizeof(port)) != sizeof(port)) ::_exit(5);
  char go = 0;
  if (!read_full(from_parent, &go, 1)) ::_exit(6);
  // Let the reactor take what it can and run into EMFILE.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  ChildReport rep;
  const double cpu0 = clock_s(CLOCK_PROCESS_CPUTIME_ID);
  const double wall0 = clock_s(CLOCK_MONOTONIC);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  rep.cpu_s = clock_s(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  rep.wall_s = clock_s(CLOCK_MONOTONIC) - wall0;
  rep.opened = handler.opened.load(std::memory_order_relaxed);
  if (::write(to_parent, &rep, sizeof(rep)) != sizeof(rep)) ::_exit(7);
  if (!read_full(from_parent, &go, 1)) ::_exit(8);
  lim.rlim_cur += 1;
  if (::setrlimit(RLIMIT_NOFILE, &lim) != 0) ::_exit(9);
  // Keep serving until the parent kills us.
  for (;;) ::pause();
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// True when `fd` echoes one byte back within `timeout_ms`.
bool echoes(int fd, int timeout_ms) {
  const char probe = 'x';
  if (::send(fd, &probe, 1, MSG_NOSIGNAL) != 1) return false;
  pollfd p{fd, POLLIN, 0};
  if (::poll(&p, 1, timeout_ms) != 1) return false;
  char back = 0;
  return ::recv(fd, &back, 1, 0) == 1 && back == probe;
}

}  // namespace

TEST(Reactor, PausesAcceptWhileOutOfFdsAndResumesOnClose) {
  int up[2];
  int down[2];
  ASSERT_EQ(::pipe2(up, O_CLOEXEC), 0);
  ASSERT_EQ(::pipe2(down, O_CLOEXEC), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(up[0]);
    ::close(down[1]);
    run_child(up[1], down[0]);
  }
  ::close(up[1]);
  ::close(down[0]);
  // Kill and reap the child however the test body exits.
  const auto reap = [&](void*) {
    ::kill(child, SIGKILL);
    int status = 0;
    ::waitpid(child, &status, 0);
    ::close(up[0]);
    ::close(down[1]);
  };
  const std::unique_ptr<void, decltype(reap)> guard(&up, reap);

  std::uint16_t port = 0;
  ASSERT_TRUE(read_full(up[0], &port, sizeof(port)));
  // Loopback connects complete in the kernel backlog whether or not the
  // child accepts them, and it accepts them in connect order.
  constexpr int kClients = 6;  // the child has room for two
  std::vector<int> clients;
  for (int i = 0; i < kClients; ++i) {
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0) << "client " << i;
    clients.push_back(fd);
  }
  const char go = 1;
  ASSERT_EQ(::write(down[1], &go, 1), 1);

  ChildReport rep;
  ASSERT_TRUE(read_full(up[0], &rep, sizeof(rep)));
  // Some clients were accepted, the rest are still queued: the child ran
  // out of fds with the listener readable.
  EXPECT_GE(rep.opened, 1);
  EXPECT_LE(rep.opened + 2, kClients);
  // A serve thread re-polling the readable listener burns a whole core
  // (about 1 s of CPU per 1 s of wall time); a paused one idles.
  EXPECT_LT(rep.cpu_s, 0.2 * rep.wall_s)
      << "cpu " << rep.cpu_s << " s over " << rep.wall_s << " s wall";

  if (rep.opened >= 1 && rep.opened + 2 <= kClients) {
    // Closing an accepted client frees an fd: the first queued client
    // is accepted and served.
    ::close(clients[0]);
    clients[0] = -1;
    EXPECT_TRUE(echoes(clients[rep.opened], 5000));
    // An fd freed outside the reactor closes no connection of its own;
    // the next quiet epoll wait (1 s here) retries the accept.
    ASSERT_EQ(::write(down[1], &go, 1), 1);
    EXPECT_TRUE(echoes(clients[rep.opened + 1], 5000));
  }

  for (const int fd : clients) {
    if (fd >= 0) ::close(fd);
  }
}
