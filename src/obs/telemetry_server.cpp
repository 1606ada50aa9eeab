#include "obs/telemetry_server.h"

#include <algorithm>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/report.h"

namespace sensedroid::obs {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

}  // namespace

// One connection: buffers the request up to the header terminator (or
// the byte bound), queues the response, and closes once it is sent.
struct TelemetryServer::Request final : net::Session {
  explicit Request(TelemetryServer& s) : server(s) {}

  bool on_data(net::Conn& conn,
               std::span<const std::uint8_t> bytes) override {
    // Keep at most one byte past the bound: enough to know it is over.
    const std::size_t cap = server.limits_.max_request_bytes;
    in.append(reinterpret_cast<const char*>(bytes.data()),
              std::min(bytes.size(), cap + 1 - in.size()));
    if (in.size() > cap) {
      respond(conn, {400, "text/plain; charset=utf-8",
                     "request too large\n"});
    } else if (in.find("\r\n\r\n") != std::string::npos) {
      const std::string_view line =
          std::string_view(in).substr(0, in.find("\r\n"));
      if (!line.starts_with("GET ")) {
        respond(conn, {405, "text/plain; charset=utf-8", "GET only\n"});
      } else {
        std::string_view path = line.substr(4);
        path = path.substr(0, path.find(' '));
        respond(conn, server.handle(path.substr(0, path.find('?'))));
      }
    }
    return true;  // else wait for more bytes (or the deadline sweep)
  }

  void on_close(net::Close why) override {
    if (why == net::Close::kDone) {
      server.served_.fetch_add(1, std::memory_order_relaxed);
    } else if (why == net::Close::kDropped) {
      server.dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  static void respond(net::Conn& conn, const Response& resp) {
    conn.write("HTTP/1.0 " + std::to_string(resp.status) + " " +
               status_text(resp.status) +
               "\r\nContent-Type: " + resp.content_type +
               "\r\nContent-Length: " + std::to_string(resp.body.size()) +
               "\r\nConnection: close\r\n\r\n");
    conn.write(resp.body);
    conn.touch();  // the deadline restarts for sending the response
    conn.close_when_flushed();
  }

  TelemetryServer& server;
  std::string in;
};

TelemetryServer::TelemetryServer(TelemetrySources sources, std::uint16_t port)
    : sources_(std::move(sources)), requested_port_(port) {}

TelemetryServer::~TelemetryServer() { stop(); }

bool TelemetryServer::start() {
  net::Reactor::Options opts;
  opts.tcp_port = requested_port_;
  opts.max_connections = limits_.max_connections;
  opts.idle_timeout_s = limits_.idle_timeout_s;
  return reactor_.start(opts);
}

void TelemetryServer::stop() { reactor_.stop(); }

std::unique_ptr<net::Session> TelemetryServer::open() {
  return std::make_unique<Request>(*this);
}

void TelemetryServer::refused() {
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

TelemetryServer::Response TelemetryServer::handle(
    std::string_view path) const {
  if (path == "/metrics") {
    if (sources_.metrics == nullptr) {
      return {404, "text/plain; charset=utf-8", "no metrics source\n"};
    }
    std::string body = sources_.metrics->to_prometheus();
    if (sources_.health != nullptr) {
      sources_.health->evaluate();
      body += sources_.health->gauges().to_prometheus();
    }
    return {200, "text/plain; version=0.0.4; charset=utf-8",
            std::move(body)};
  }
  if (path == "/healthz") {
    if (sources_.health == nullptr) {
      return {200, "application/json",
              "{\"verdict\":\"healthy\",\"worst\":1,\"zones\":[]}"};
    }
    std::string body = sources_.health->to_json();
    const int status =
        std::string_view(sources_.health->verdict()) == "unhealthy" ? 503
                                                                    : 200;
    return {status, "application/json", std::move(body)};
  }
  if (path == "/report") {
    if (sources_.metrics == nullptr) {
      return {404, "text/plain; charset=utf-8", "no metrics source\n"};
    }
    return {200, "application/json",
            RunReport::from_registry(*sources_.metrics, sources_.report_name,
                                     /*include_wall_clock=*/true)
                .to_json()};
  }
  if (path == "/spans") {
    if (sources_.traces == nullptr) {
      return {404, "text/plain; charset=utf-8", "no trace source\n"};
    }
    return {200, "application/jsonl", sources_.traces->to_jsonl()};
  }
  if (path == "/flight") {
    return {200, "application/jsonl", FlightRecorder::dump_jsonl()};
  }
  return {404, "text/plain; charset=utf-8", "unknown endpoint\n"};
}

}  // namespace sensedroid::obs
