// perfbench_loadgen — the benchmark's load generator.
//
// One process, one thread, at most nproc connections, so its CPU never
// lands on the system under test's clock.  Two modes:
//
//   flood  closed loop: each of --conns TCP connections keeps --window
//          frames in flight and sends the next frame when a status byte
//          frees a slot.  The frame timestamp is its first send time.
//   paced  open loop: frames fall due at --rate frames/s whatever the
//          gateway does; the frame timestamp is its due time.  With
//          --scrape-port a scraper polls GET /metrics every 100 ms on one
//          extra connection.
//
// Senders 0..--senders-1 publish on "zone/<sender % zones>/temperature";
// sender s always uses connection s % conns, so one sender's frames
// reach the gateway in send order.  A kBusy reply is retried with the
// same bytes, as the gateway contract asks; a frame fails only when it
// is still unacked 10 s after the measured window closes.
//
// Timeline (CLOCK_MONOTONIC seconds): traffic starts at once (warm-up),
// the measured window is [--start-at, --start-at + --seconds), then no
// new frames are made and the generator drains.  Results are printed as
// "key value" lines for perfbench_sut (sut.cpp) to read.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "gateway/framing.h"
#include "middleware/wire.h"
#include "sensing/sensor.h"
#include "summary.h"

namespace {

using perfbench::IngestLedger;
using perfbench::LogHistogram;
using perfbench::mono_s;

struct Args {
  std::string mode = "flood";
  int port = 0;
  std::size_t conns = 4;
  std::size_t window = 512;
  std::size_t senders = 10000;
  std::size_t zones = 64;
  std::uint64_t seed = 1;
  double start_at = 0.0;
  double seconds = 10.0;
  double rate = 50000.0;
  int scrape_port = 0;
  double tail_cap = 99.0;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--mode") a->mode = v;
    else if (k == "--port") a->port = std::atoi(v);
    else if (k == "--conns") a->conns = std::strtoull(v, nullptr, 10);
    else if (k == "--window") a->window = std::strtoull(v, nullptr, 10);
    else if (k == "--senders") a->senders = std::strtoull(v, nullptr, 10);
    else if (k == "--zones") a->zones = std::strtoull(v, nullptr, 10);
    else if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--start-at") a->start_at = std::strtod(v, nullptr);
    else if (k == "--seconds") a->seconds = std::strtod(v, nullptr);
    else if (k == "--rate") a->rate = std::strtod(v, nullptr);
    else if (k == "--scrape-port") a->scrape_port = std::atoi(v);
    else if (k == "--tail-cap") a->tail_cap = std::strtod(v, nullptr);
    else return false;
  }
  return a->port > 0 && a->conns > 0 && a->senders > 0 && a->zones > 0 &&
         a->window > 0 && a->rate > 0.0 && (a->mode == "flood" || a->mode == "paced");
}

constexpr double kDrainS = 10.0;        ///< give-up time after the window
constexpr double kScrapeEveryS = 0.1;   ///< /metrics polling cadence
constexpr std::size_t kSampleEvery = 97;  ///< senders reported for the cache check

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Reading value of a sender's seq-th report: a seeded pure function.
double reading_value(std::uint64_t seed, std::uint32_t sender, std::uint64_t seq) {
  const std::uint64_t h = splitmix64(seed ^ splitmix64(sender) ^ (seq << 20));
  return 10.0 + 25.0 * static_cast<double>(h >> 11) * 0x1.0p-53;
}

struct Frame {
  std::uint32_t sender = 0;
  double ts = 0.0;  ///< timestamp field and latency origin: first send / due time
  double value = 0.0;
};

// Hand-rolled encoder of one length-prefixed Record frame: the wire
// layout of middleware/wire.h, checked against the library encoder at
// start-up.  Keeps per-frame cost well below the gateway's.
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}
void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(bits >> (8 * i)));
}

void encode_frame(const std::string& topic, const Frame& f, std::string& out) {
  const std::size_t start = out.size();
  put_u32(out, 0);  // length, patched below
  out.push_back(static_cast<char>(topic.size() & 0xff));
  out.push_back(static_cast<char>(topic.size() >> 8));
  out += topic;
  put_u32(out, f.sender);
  put_f64(out, f.ts);
  out.push_back(3);  // payload tag: Record
  put_u32(out, f.sender);
  out.push_back(static_cast<char>(sensedroid::sensing::SensorKind::kTemperature));
  put_f64(out, f.ts);
  put_f64(out, f.value);
  const auto* body = reinterpret_cast<const std::uint8_t*>(out.data() + start + 4);
  const std::size_t body_len = out.size() - start - 4;
  put_u32(out, sensedroid::middleware::crc32({body, body_len}));
  const std::uint32_t len = static_cast<std::uint32_t>(body_len + 4);
  for (int i = 0; i < 4; ++i) out[start + i] = static_cast<char>(len >> (8 * i));
}

bool encoder_matches_library(const std::string& topic) {
  Frame f{7, 12.5, 21.25};
  std::string mine;
  encode_frame(topic, f, mine);
  sensedroid::middleware::Message msg;
  msg.topic = topic;
  msg.sender = f.sender;
  msg.timestamp = f.ts;
  msg.payload = sensedroid::middleware::Record{
      f.sender, sensedroid::sensing::SensorKind::kTemperature, f.ts, f.value};
  const auto lib = sensedroid::gateway::encode_framed(msg);
  return mine.size() == lib.size() && std::memcmp(mine.data(), lib.data(), lib.size()) == 0;
}

int connect_nonblocking(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  bool want_write = false;
  std::deque<Frame> inflight;  ///< sent (or queued to send), awaiting status
  std::deque<Frame> retry;     ///< busy-replied, to be sent again
  std::size_t next_sender = 0; ///< flood: index into this conn's senders
};

/// One GET /metrics in flight on the scrape connection.
struct Scrape {
  int fd = -1;
  double started = 0.0;
  bool sent = false;
  std::string in;
};

class Generator {
 public:
  explicit Generator(const Args& a)
      : a_(a), last_ts_(a.senders, 0.0), last_value_(a.senders, 0.0),
        seq_(a.senders, 0), zone_acked_(a.zones, 0),
        ack_window_us_(static_cast<std::size_t>(a.seconds) + 1) {
    topics_.reserve(a.zones);
    for (std::size_t z = 0; z < a.zones; ++z) {
      topics_.push_back("zone/" + std::to_string(z) + "/temperature");
    }
  }

  int run();

 private:
  bool flood() const { return a_.mode == "flood"; }
  bool generating(double now) const { return now < a_.start_at + a_.seconds; }
  bool in_window(double t) const {
    return t >= a_.start_at && t < a_.start_at + a_.seconds;
  }

  Frame make_frame(std::uint32_t sender, double ts) {
    Frame f;
    f.sender = sender;
    f.ts = ts;
    f.value = reading_value(a_.seed, sender, seq_[sender]++);
    ++ledger_.attempted;
    return f;
  }
  void send_frame(Conn& c, const Frame& f, double now) {
    encode_frame(topics_[f.sender % a_.zones], f, c.out);
    c.inflight.push_back(f);
    last_ts_[f.sender] = f.ts;
    last_value_[f.sender] = f.value;
    ++ledger_.sends;
    if (!flood()) lateness_us_.add((now - f.ts) * 1e6);
  }
  void fill_flood(Conn& c, std::size_t conn_index, double now);
  void fill_paced(double now);
  bool flush(Conn& c);
  bool read_status(Conn& c, double now);
  void set_write_interest(Conn& c, bool want);
  void scrape_step(double now);
  void finish_scrape(double now, bool ok);

  Args a_;
  int ep_ = -1;
  std::vector<Conn> conns_;
  std::vector<std::string> topics_;
  std::vector<double> last_ts_;
  std::vector<double> last_value_;
  std::vector<std::uint64_t> seq_;
  std::vector<std::uint64_t> zone_acked_;
  IngestLedger ledger_;
  LogHistogram ack_us_;
  std::vector<LogHistogram> ack_window_us_;  ///< per 1 s of the measured window
  LogHistogram lateness_us_;
  std::uint64_t next_due_ = 0;  // paced: index of the next frame to fall due
  double paced_origin_ = 0.0;
  bool io_error_ = false;

  Scrape scrape_;
  double next_scrape_ = 0.0;
  std::uint64_t scrapes_ = 0;
  std::uint64_t scrapes_failed_ = 0;
  std::uint64_t scrapes_incoherent_ = 0;  ///< more answers than frames, or frames fell
  std::uint64_t scrapes_torn_ = 0;        ///< answers caught behind frames
  std::vector<double> scrape_ms_;     // in-window scrape latencies
  std::vector<double> scrape_bytes_;  // every successful body
  double last_scrape_frames_ = -1.0;
};

void Generator::set_write_interest(Conn& c, bool want) {
  if (c.want_write == want) return;
  c.want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.fd = c.fd;
  ::epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
}

bool Generator::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
  set_write_interest(c, c.out_off < c.out.size());
  return true;
}

void Generator::fill_flood(Conn& c, std::size_t conn_index, double now) {
  const std::size_t per_conn = (a_.senders + a_.conns - 1 - conn_index) / a_.conns;
  while (c.inflight.size() < a_.window) {
    if (!c.retry.empty()) {
      const Frame f = c.retry.front();
      c.retry.pop_front();
      send_frame(c, f, now);
      continue;
    }
    if (!generating(now) || per_conn == 0) break;
    const auto sender =
        static_cast<std::uint32_t>(conn_index + a_.conns * (c.next_sender++ % per_conn));
    send_frame(c, make_frame(sender, now), now);
  }
}

void Generator::fill_paced(double now) {
  const double stop = a_.start_at + a_.seconds;
  for (;;) {
    const double due = paced_origin_ + static_cast<double>(next_due_) / a_.rate;
    if (due > now || due >= stop) break;
    const auto sender = static_cast<std::uint32_t>(next_due_ % a_.senders);
    ++next_due_;
    send_frame(conns_[sender % a_.conns], make_frame(sender, due), now);
  }
}

bool Generator::read_status(Conn& c, double now) {
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n <= 0) return false;
    for (ssize_t i = 0; i < n; ++i) {
      if (c.inflight.empty()) return false;  // a reply nobody asked for
      const Frame f = c.inflight.front();
      c.inflight.pop_front();
      switch (buf[i]) {
        case static_cast<std::uint8_t>(sensedroid::gateway::IngestStatus::kAck):
          ++ledger_.acked;
          ++zone_acked_[f.sender % a_.zones];
          if (in_window(now)) {
            ack_us_.add((now - f.ts) * 1e6);
            ack_window_us_[static_cast<std::size_t>(now - a_.start_at)].add((now - f.ts) * 1e6);
          }
          break;
        case static_cast<std::uint8_t>(sensedroid::gateway::IngestStatus::kBusy):
          ++ledger_.busy_replies;
          if (flood()) {
            c.retry.push_back(f);
          } else {
            send_frame(c, f, now);  // open loop: retry at once
          }
          break;
        default:
          ++ledger_.bad;
          break;
      }
    }
  }
}

void Generator::finish_scrape(double now, bool ok) {
  if (scrape_.fd >= 0) {
    ::epoll_ctl(ep_, EPOLL_CTL_DEL, scrape_.fd, nullptr);
    ::close(scrape_.fd);
  }
  ++scrapes_;
  const std::size_t hdr = scrape_.in.find("\r\n\r\n");
  if (ok && (scrape_.in.rfind("HTTP/1.", 0) != 0 || scrape_.in.find(" 200 ") > 12 ||
             hdr == std::string::npos)) {
    ok = false;
  }
  std::map<std::string, double> series;
  if (ok) ok = perfbench::parse_prometheus(std::string_view(scrape_.in).substr(hdr + 4), &series);
  if (!ok) {
    ++scrapes_failed_;
  } else {
    const double frames = perfbench::series(series, "gw_ingest_frames");
    const perfbench::GwCoherence c = perfbench::gw_coherence(series);
    if (c == perfbench::GwCoherence::kBroken || frames < last_scrape_frames_) {
      ++scrapes_incoherent_;
    } else if (c == perfbench::GwCoherence::kTorn) {
      ++scrapes_torn_;
    }
    last_scrape_frames_ = frames;
    scrape_bytes_.push_back(static_cast<double>(scrape_.in.size() - hdr - 4));
    if (in_window(scrape_.started)) scrape_ms_.push_back((now - scrape_.started) * 1e3);
  }
  scrape_ = Scrape{};
}

void Generator::scrape_step(double now) {
  if (a_.scrape_port <= 0) return;
  if (scrape_.fd >= 0 && now - scrape_.started > 5.0) finish_scrape(now, false);
  if (scrape_.fd >= 0 || now < next_scrape_ || !generating(now)) return;
  while (next_scrape_ <= now) next_scrape_ += kScrapeEveryS;
  scrape_.fd = connect_nonblocking(a_.scrape_port);
  scrape_.started = now;
  if (scrape_.fd < 0) {
    finish_scrape(now, false);
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLOUT | EPOLLIN;
  ev.data.fd = scrape_.fd;
  ::epoll_ctl(ep_, EPOLL_CTL_ADD, scrape_.fd, &ev);
}

int Generator::run() {
  if (!encoder_matches_library(topics_.front())) {
    std::fprintf(stderr, "loadgen: frame encoder disagrees with the wire codec\n");
    return 2;
  }
  ep_ = ::epoll_create1(EPOLL_CLOEXEC);
  conns_.resize(a_.conns);
  for (Conn& c : conns_) {
    c.fd = connect_nonblocking(a_.port);
    if (c.fd < 0) {
      std::fprintf(stderr, "loadgen: connect failed: %s\n", std::strerror(errno));
      return 2;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.fd = c.fd;
    c.want_write = true;
    ::epoll_ctl(ep_, EPOLL_CTL_ADD, c.fd, &ev);
  }
  std::map<int, std::size_t> index;
  for (std::size_t i = 0; i < conns_.size(); ++i) index[conns_[i].fd] = i;

  const double warm_start = mono_s();
  paced_origin_ = warm_start;
  next_scrape_ = warm_start;
  const double deadline = a_.start_at + a_.seconds + kDrainS;
  const double tick_s = flood() ? 1e-3 : 2e-4;
  for (;;) {
    double now = mono_s();
    if (flood()) {
      for (std::size_t i = 0; i < conns_.size(); ++i) fill_flood(conns_[i], i, now);
    } else {
      fill_paced(now);
    }
    for (Conn& c : conns_) {
      if (!flush(c)) io_error_ = true;
    }
    scrape_step(now);
    bool pending = false;
    for (const Conn& c : conns_) pending = pending || !c.inflight.empty() || !c.retry.empty();
    if (io_error_ || ((!generating(now) && !pending && scrape_.fd < 0)) || now > deadline) {
      break;
    }

    epoll_event events[16];
    const timespec timeout{0, static_cast<long>(tick_s * 1e9)};
    const int n = ::epoll_pwait2(ep_, events, 16, &timeout, nullptr);
    if (n < 0 && errno != EINTR) break;
    now = mono_s();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == scrape_.fd) {
        if (!scrape_.sent && (events[i].events & EPOLLOUT)) {
          static const char kReq[] = "GET /metrics HTTP/1.0\r\n\r\n";
          if (::send(fd, kReq, sizeof(kReq) - 1, MSG_NOSIGNAL) !=
              static_cast<ssize_t>(sizeof(kReq) - 1)) {
            finish_scrape(now, false);
            continue;
          }
          scrape_.sent = true;
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.fd = fd;
          ::epoll_ctl(ep_, EPOLL_CTL_MOD, fd, &ev);
        }
        if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
          char buf[65536];
          for (;;) {
            const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
            if (got > 0) {
              scrape_.in.append(buf, static_cast<std::size_t>(got));
              continue;
            }
            if (got < 0 && errno == EINTR) continue;
            if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            finish_scrape(now, got == 0 && scrape_.sent);
            break;
          }
        }
        continue;
      }
      const auto it = index.find(fd);
      if (it == index.end()) continue;
      Conn& c = conns_[it->second];
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        if (!read_status(c, now)) io_error_ = true;
      }
      if (events[i].events & EPOLLOUT) {
        if (!flush(c)) io_error_ = true;
      }
    }
  }
  if (scrape_.fd >= 0) finish_scrape(mono_s(), false);

  std::uint64_t unanswered = 0;
  for (Conn& c : conns_) {
    unanswered += c.inflight.size();
    ledger_.never_acked += c.inflight.size() + c.retry.size();
    ::close(c.fd);
  }
  ::close(ep_);

  std::printf("io_error %d\n", io_error_ ? 1 : 0);
  std::printf("attempted %" PRIu64 "\nsends %" PRIu64 "\nacked %" PRIu64 "\n", ledger_.attempted,
              ledger_.sends, ledger_.acked);
  std::printf("bad %" PRIu64 "\nbusy_replies %" PRIu64 "\nnever_acked %" PRIu64 "\n", ledger_.bad,
              ledger_.busy_replies, ledger_.never_acked);
  std::printf("unanswered %" PRIu64 "\nbalanced %d\n", unanswered,
              ledger_.balanced(unanswered) ? 1 : 0);
  // Ack tail per 1 s window, median across the whole windows.
  std::vector<std::uint64_t> sizes;
  for (std::size_t i = 0; i < static_cast<std::size_t>(a_.seconds); ++i) {
    sizes.push_back(ack_window_us_[i].count());
  }
  const perfbench::WindowedTail ack_tail = perfbench::windowed_tail(
      sizes, a_.tail_cap,
      [&](std::size_t i, double pct) { return ack_window_us_[i].percentile(pct); });
  std::printf("ack_p50_us %.3f\nack_tail_pct %g\nack_tail_us %.3f\nack_tail_windows %zu\n",
              ack_us_.percentile(50.0), ack_tail.pct, ack_tail.value, ack_tail.windows);
  const perfbench::Tail late_tail = perfbench::tail_of(lateness_us_.count(), a_.tail_cap);
  std::printf("lateness_tail_pct %g\nlateness_tail_us %.3f\n", late_tail.pct,
              lateness_us_.percentile(late_tail.pct));
  std::printf("scrapes %" PRIu64 "\nscrapes_failed %" PRIu64 "\nscrapes_incoherent %" PRIu64
              "\nscrapes_torn %" PRIu64 "\n",
              scrapes_, scrapes_failed_, scrapes_incoherent_, scrapes_torn_);
  std::sort(scrape_ms_.begin(), scrape_ms_.end());
  const perfbench::Tail scrape_tail = perfbench::tail_of(scrape_ms_.size(), a_.tail_cap);
  std::printf("scrape_count %zu\nscrape_tail_pct %g\nscrape_tail_ms %.4f\n", scrape_ms_.size(),
              scrape_tail.pct, perfbench::percentile_sorted(scrape_ms_, scrape_tail.pct));
  std::printf("scrape_bytes %.1f\n", perfbench::median(scrape_bytes_));
  for (std::size_t z = 0; z < zone_acked_.size(); ++z) {
    std::printf("zone_acked %zu %" PRIu64 "\n", z, zone_acked_[z]);
  }
  for (std::size_t s = 0; s < a_.senders; s += kSampleEvery) {
    std::printf("last %zu %a %a\n", s, last_ts_[s], last_value_[s]);
  }
  return io_error_ ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr, "usage: perfbench_loadgen --mode flood|paced --port P [options]\n");
    return 2;
  }
  Generator gen(args);
  return gen.run();
}
