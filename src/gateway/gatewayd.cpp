// gatewayd — the SenseDroid ingest daemon.
//
// Serves the wire codec over TCP (loopback) and/or a Unix-domain
// socket, feeds decoded reports into a standalone broker, and exposes
// the whole gw.* surface (plus /metrics, /report, /flight) through an
// embedded TelemetryServer.  This is the paper's "middleware as a
// service" stance made literal: publishers are processes, not function
// calls.
//
//   gatewayd [--listen PORT] [--uds PATH] [--queue-depth N]
//            [--max-conns N] [--cache N] [--idle-timeout SECONDS]
//            [--telemetry-port PORT] [--quiet]
//
// A malformed or out-of-range flag value prints the usage line and
// exits 2.  Runs until SIGINT/SIGTERM, then drains the ingest queue and
// exits 0.
// Prints the bound ports on startup (machine-parseable `key=value`
// lines) so scripts can drive an ephemeral-port instance.
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "gateway/gateway.h"
#include "gateway/sinks.h"
#include "middleware/broker.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/telemetry_server.h"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--listen PORT] [--uds PATH] [--queue-depth N]\n"
               "          [--max-conns N] [--cache N] [--idle-timeout S]\n"
               "          [--telemetry-port PORT] [--quiet]\n",
               argv0);
  std::exit(2);
}

// The whole of `arg` as a number in [lo, hi] (a whole number when
// `integral`); anything else is a usage error.
double parse_number(const char* arg, double lo, double hi, bool integral,
                    const char* argv0) {
  char* end = nullptr;
  const double v = std::strtod(arg, &end);
  if (end == arg || *end != '\0' || !(v >= lo && v <= hi) ||
      (integral && v != std::floor(v))) {
    usage_and_exit(argv0);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  namespace gw = sensedroid::gateway;
  namespace mw = sensedroid::middleware;
  namespace obs = sensedroid::obs;

  gw::GatewayConfig cfg;
  std::uint16_t telemetry_port = 0;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_and_exit(argv[0]);
      return argv[++i];
    };
    const auto count = [&](double lo, double hi) {
      return static_cast<std::size_t>(
          parse_number(next(), lo, hi, /*integral=*/true, argv[0]));
    };
    if (arg == "--listen") {
      cfg.tcp_port = static_cast<std::uint16_t>(count(0, 65535));
    } else if (arg == "--uds") {
      cfg.uds_path = next();
    } else if (arg == "--queue-depth") {
      cfg.queue_depth = count(1, 1 << 24);
    } else if (arg == "--max-conns") {
      cfg.max_connections = count(1, 1 << 20);
    } else if (arg == "--cache") {
      cfg.cache_capacity = count(1, 1 << 24);
    } else if (arg == "--idle-timeout") {
      // At least 1 ms (a zero deadline reaps every connection), at most a day.
      cfg.idle_timeout_s = parse_number(next(), 1e-3, 86400.0,
                                        /*integral=*/false, argv[0]);
    } else if (arg == "--telemetry-port") {
      telemetry_port = static_cast<std::uint16_t>(count(0, 65535));
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      usage_and_exit(argv[0]);
    }
  }

  obs::MetricsRegistry registry;
  obs::attach_registry(&registry);

  // A standalone broker gives wire traffic the same home in-process
  // publishers get: DataStore + continuous queries + pub/sub fan-out.
  mw::Broker broker(/*id=*/0, {0.0, 0.0});

  gw::Gateway gateway(cfg, gw::make_broker_sink(broker));
  if (!gateway.start()) {
    std::fprintf(stderr, "gatewayd: failed to bind listeners\n");
    return 1;
  }

  obs::TelemetrySources sources;
  sources.metrics = &registry;
  sources.report_name = "gatewayd";
  obs::TelemetryServer telemetry(sources, telemetry_port);
  if (!telemetry.start()) {
    std::fprintf(stderr, "gatewayd: telemetry server failed to start\n");
    gateway.stop();
    return 1;
  }

  if (!quiet) {
    if (cfg.listen_tcp) std::printf("tcp_port=%u\n", gateway.tcp_port());
    if (!cfg.uds_path.empty()) std::printf("uds=%s\n", cfg.uds_path.c_str());
    std::printf("telemetry_port=%u\n", telemetry.port());
    std::fflush(stdout);
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  gateway.stop();
  telemetry.stop();
  obs::attach_registry(nullptr);

  if (!quiet) {
    const auto s = gateway.stats();
    std::printf("frames=%llu accepted=%llu busy=%llu delivered=%llu "
                "decode_errors=%llu dropped_conns=%llu\n",
                static_cast<unsigned long long>(s.frames),
                static_cast<unsigned long long>(s.accepted),
                static_cast<unsigned long long>(s.busy_rejected),
                static_cast<unsigned long long>(s.delivered),
                static_cast<unsigned long long>(s.decode_errors),
                static_cast<unsigned long long>(s.connections_dropped));
  }
  return 0;
}
