// E24 — ingest gateway throughput: what does the wire-serving surface
// sustain over loopback, and does backpressure actually bound it?
//
// Three probes against a live Gateway (DESIGN.md §14):
//
//   * gw_frames_per_s     sustained ack'd frames/s with 10k distinct
//                         publisher identities multiplexed over 16 TCP
//                         connections (fd limits make one socket per
//                         publisher dishonest on a builder; identity
//                         lives in the frame's sender field, exactly as
//                         on real deployments behind NAT/brokers).
//                         Writers batch frames and drain acks
//                         concurrently, so the pipe stays full.
//   * gw_p99_ingest_us    p99 of the gateway's own ingest latency
//                         histogram (enqueue -> sink completion) over
//                         that run — the tail a consumer actually sees.
//   * cache-bound phase   100k distinct senders through a 4096-entry
//                         last-report cache: the LRU must evict, not
//                         grow (asserted here, not exported).
//   * backpressure phase  a deliberately slow sink behind a 64-deep
//                         queue: kBusy must appear and the queue's peak
//                         depth must stay at its capacity (asserted).
//
// Emits one BENCH_gateway.json trajectory point (JSONL on stdout, or
// appended to $SENSEDROID_REPORT when set) under a "metrics" key —
// frames/s is not a latency, so it does not ride "median_us".  The
// tier-1 gate reads it with check_regression.py --gateway, which bounds
// gw_frames_per_s from below (>= 100k) and gw_p99_ingest_us from above.
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gateway/framing.h"
#include "gateway/gateway.h"
#include "middleware/wire.h"
#include "obs/metrics.h"

using namespace sensedroid;
using Clock = std::chrono::steady_clock;

namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t sent = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (sent < 0 && errno == EINTR) continue;
    if (sent <= 0) return false;
    off += static_cast<std::size_t>(sent);
  }
  return true;
}

/// Reads exactly `n` status bytes; returns acks==kAck count, -1 on EOF.
long read_acks(int fd, std::size_t n) {
  long ok = 0;
  std::uint8_t buf[4096];
  std::size_t seen = 0;
  while (seen < n) {
    const ssize_t got =
        ::recv(fd, buf, std::min(sizeof(buf), n - seen), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return -1;
    seen += static_cast<std::size_t>(got);
    for (ssize_t i = 0; i < got; ++i) {
      if (buf[i] ==
          static_cast<std::uint8_t>(gateway::IngestStatus::kAck)) {
        ++ok;
      }
    }
  }
  return ok;
}

/// One writer: streams `frames` pre-encoded frames over a fresh
/// connection in large batches while a paired thread drains acks.
struct WriterResult {
  long acked = 0;
  bool io_error = false;
};

WriterResult drive_connection(std::uint16_t port,
                              const std::vector<std::uint8_t>& stream,
                              std::size_t frames) {
  WriterResult r;
  const int fd = connect_loopback(port);
  if (fd < 0) {
    r.io_error = true;
    return r;
  }
  // Acks are drained concurrently: with 1-byte replies per ~40-byte
  // frame the kernel buffers would otherwise deadlock a one-thread
  // write-then-read loop at this volume.
  std::thread reader([&] { r.acked = read_acks(fd, frames); });
  if (!send_all(fd, stream.data(), stream.size())) r.io_error = true;
  reader.join();
  ::close(fd);
  if (r.acked < 0) {
    r.acked = 0;
    r.io_error = true;
  }
  return r;
}

}  // namespace

int main() {
  constexpr std::size_t kConnections = 16;
  constexpr std::size_t kPublishers = 10000;
  constexpr std::size_t kFramesPerConn = 12500;  // 200k frames total
  constexpr std::size_t kWideSenders = 100000;
  constexpr std::size_t kCacheCap = 4096;

  obs::MetricsRegistry registry;
  obs::attach_registry(&registry);

  // ---- throughput: 10k publisher identities over 16 connections -------
  double frames_per_s = 0.0;
  double p99_us = 0.0;
  {
    gateway::GatewayConfig cfg;
    cfg.queue_depth = 65536;
    cfg.cache_capacity = kPublishers;
    std::atomic<std::uint64_t> delivered{0};
    gateway::Gateway gw(cfg, [&](const middleware::Message&) {
      delivered.fetch_add(1, std::memory_order_relaxed);
    });
    if (!gw.start()) {
      std::fprintf(stderr, "exp_gateway_throughput: gateway failed to start\n");
      return 1;
    }

    // Pre-encode each connection's stream so the timed region measures
    // the gateway, not message encoding in the load generator.
    std::vector<std::vector<std::uint8_t>> streams(kConnections);
    for (std::size_t c = 0; c < kConnections; ++c) {
      auto& stream = streams[c];
      stream.reserve(kFramesPerConn * 48);
      for (std::size_t i = 0; i < kFramesPerConn; ++i) {
        const auto sender = static_cast<middleware::NodeId>(
            (c * kFramesPerConn + i) % kPublishers);
        middleware::Message msg;
        msg.topic = "sensor/temperature";
        msg.sender = sender;
        msg.timestamp = static_cast<double>(i);
        msg.payload = middleware::Record{
            sender, sensing::SensorKind::kTemperature,
            static_cast<double>(i), 20.0};
        const auto framed = gateway::encode_framed(msg);
        stream.insert(stream.end(), framed.begin(), framed.end());
      }
    }

    const auto t0 = Clock::now();
    std::vector<std::thread> writers;
    std::vector<WriterResult> results(kConnections);
    for (std::size_t c = 0; c < kConnections; ++c) {
      writers.emplace_back([&, c] {
        results[c] =
            drive_connection(gw.tcp_port(), streams[c], kFramesPerConn);
      });
    }
    for (auto& t : writers) t.join();
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    gw.stop();

    long acked = 0;
    for (const auto& r : results) {
      acked += r.acked;
      if (r.io_error) {
        std::fprintf(stderr, "exp_gateway_throughput: writer io error\n");
        return 1;
      }
    }
    frames_per_s = static_cast<double>(acked) / wall_s;
    if (const auto* h = registry.find_histogram("gw.ingest.latency_us")) {
      p99_us = h->quantile(0.99);
    }
    const auto s = gw.stats();
    std::fprintf(stderr,
                 "throughput: %zu frames over %zu conns in %.3f s "
                 "(acked %ld, busy %llu, delivered %llu, cache %zu)\n",
                 kConnections * kFramesPerConn, kConnections, wall_s, acked,
                 static_cast<unsigned long long>(s.busy_rejected),
                 static_cast<unsigned long long>(s.delivered),
                 gw.cache().size());
    // Sanity, not export: every ack'd frame was delivered to the sink.
    if (delivered.load() != static_cast<std::uint64_t>(acked)) {
      std::fprintf(stderr, "exp_gateway_throughput: delivered %llu != "
                   "acked %ld\n",
                   static_cast<unsigned long long>(delivered.load()), acked);
      return 1;
    }
  }

  // ---- cache-bound phase: 100k senders, 4096-entry LRU ----------------
  {
    gateway::GatewayConfig cfg;
    cfg.cache_capacity = kCacheCap;
    cfg.queue_depth = 65536;
    gateway::Gateway gw(cfg, [](const middleware::Message&) {});
    if (!gw.start()) return 1;
    std::vector<std::uint8_t> stream;
    stream.reserve(kWideSenders * 48);
    for (std::size_t i = 0; i < kWideSenders; ++i) {
      middleware::Message msg;
      msg.topic = "sensor/x";
      msg.sender = static_cast<middleware::NodeId>(i);
      msg.timestamp = 0.0;
      msg.payload = 1.0;
      const auto framed = gateway::encode_framed(msg);
      stream.insert(stream.end(), framed.begin(), framed.end());
    }
    const auto r = drive_connection(gw.tcp_port(), stream, kWideSenders);
    gw.stop();
    if (r.io_error || gw.cache().size() > kCacheCap) {
      std::fprintf(stderr,
                   "exp_gateway_throughput: cache grew past its bound "
                   "(%zu > %zu)\n",
                   gw.cache().size(), kCacheCap);
      return 1;
    }
    std::fprintf(stderr, "cache-bound: %zu senders -> %zu cached, "
                 "%llu evictions\n", kWideSenders, gw.cache().size(),
                 static_cast<unsigned long long>(gw.cache().evictions()));
  }

  // ---- backpressure phase: slow sink, 64-deep queue -------------------
  {
    gateway::GatewayConfig cfg;
    cfg.queue_depth = 64;
    gateway::Gateway gw(cfg, [](const middleware::Message&) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
    if (!gw.start()) return 1;
    std::vector<std::uint8_t> stream;
    constexpr std::size_t kPressureFrames = 20000;
    for (std::size_t i = 0; i < kPressureFrames; ++i) {
      middleware::Message msg;
      msg.topic = "sensor/x";
      msg.sender = static_cast<middleware::NodeId>(i % 100);
      msg.timestamp = 0.0;
      msg.payload = 1.0;
      const auto framed = gateway::encode_framed(msg);
      stream.insert(stream.end(), framed.begin(), framed.end());
    }
    const auto r = drive_connection(gw.tcp_port(), stream, kPressureFrames);
    gw.stop();
    const auto s = gw.stats();
    if (r.io_error || s.busy_rejected == 0 ||
        s.queue_peak_depth > cfg.queue_depth) {
      std::fprintf(stderr,
                   "exp_gateway_throughput: backpressure contract broken "
                   "(busy %llu, peak %llu, cap %zu)\n",
                   static_cast<unsigned long long>(s.busy_rejected),
                   static_cast<unsigned long long>(s.queue_peak_depth),
                   cfg.queue_depth);
      return 1;
    }
    std::fprintf(stderr, "backpressure: busy %llu of %zu, queue peak "
                 "%llu/%zu\n",
                 static_cast<unsigned long long>(s.busy_rejected),
                 kPressureFrames,
                 static_cast<unsigned long long>(s.queue_peak_depth),
                 cfg.queue_depth);
  }

  obs::attach_registry(nullptr);

  const std::string label =
      std::getenv("SENSEDROID_BENCH_LABEL") != nullptr
          ? std::string(std::getenv("SENSEDROID_BENCH_LABEL"))
          : std::string("gateway");
  char line[256];
  std::snprintf(line, sizeof(line),
                "{\"label\":\"%s\",\"metrics\":{\"gw_frames_per_s\":%.1f,"
                "\"gw_p99_ingest_us\":%.3f}}",
                label.c_str(), frames_per_s, p99_us);
  if (const char* path = std::getenv("SENSEDROID_REPORT")) {
    if (FILE* fh = std::fopen(path, "a")) {
      std::fprintf(fh, "%s\n", line);
      std::fclose(fh);
    }
  }
  std::printf("%s\n", line);
  return 0;
}
