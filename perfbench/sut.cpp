// perfbench_sut — runs one SenseDroid workload end to end and reports it.
//
//   perfbench_sut --workload ingest_flood|rounds_small|live_city
//                 --seed N --seconds S --trace 0|1 --workdir DIR
//
// The process under test holds the whole SenseDroid stack in one place:
// the gateway, the LocalCloud and its NanoClouds, the worker pool, the
// checkpointing campaign driver and the telemetry server.  Load comes
// from perfbench_loadgen, started here as a separate single-threaded
// process so its CPU stays off this process's clock.  Every layer is
// measured from outside, through the public calls of its module; the
// traced run (--trace 1) additionally attaches an obs::TraceLog and
// reads the spans the stack already emits.
//
// Output: "# ..." lines for people (metrics under the names README.md
// uses, the per-layer table), then one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status 1 when a correctness check failed, 2 on a usage or set-up
// error.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/campaign_runner.h"
#include "exec/resumable.h"
#include "exec/thread_pool.h"
#include "fault/checkpoint.h"
#include "fault/fault.h"
#include "field/generators.h"
#include "field/zones.h"
#include "gateway/gateway.h"
#include "gateway/sinks.h"
#include "hierarchy/localcloud.h"
#include "linalg/gram_cache.h"
#include "linalg/random.h"
#include "middleware/broker.h"
#include "obs/metrics.h"
#include "obs/telemetry_server.h"
#include "obs/trace.h"
#include "summary.h"

using namespace sensedroid;
using perfbench::LogHistogram;
using perfbench::mono_s;

namespace {

// ---------------------------------------------------------------------
// Options, result, reporting

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
  std::size_t workers = 1;  ///< nproc: one pool worker per online CPU
  bool setup_probe = false;  ///< build the world once, print setup_s, exit
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;   // the JSON line: end-to-end or per-layer
  std::vector<Metric> readable;  // "# name value unit" lines

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void say(const std::string& name, double value, const std::string& unit) {
    readable.push_back({name, value, unit});
  }
};

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void sleep_until(double t) {
  const double dt = t - mono_s();
  if (dt > 0) std::this_thread::sleep_for(std::chrono::duration<double>(dt));
}

std::string tail_label(const perfbench::Tail& t) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%g of %" PRIu64, t.pct, t.count);
  return buf;
}

void print_result(const Result& r) {
  for (const Metric& m : r.readable) {
    std::printf("# %-26s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", r.metrics[i].name.c_str(), r.metrics[i].value,
                  r.metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Load generator process

std::string self_exe() {
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) return {};
  self[n] = '\0';
  return self;
}

/// A child process (the load generator, or a set-up probe) whose
/// "key value" stdout lines are collected when it exits.  It dies with
/// this process (PR_SET_PDEATHSIG) and is reaped before finish() returns.
class Child {
 public:
  /// Runs perfbench_loadgen from this executable's directory.
  bool start_loadgen(const std::vector<std::string>& args) {
    return start(std::filesystem::path(self_exe()).parent_path() / "perfbench_loadgen", args);
  }

  bool start(const std::string& path, const std::vector<std::string>& args) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return false;
    std::vector<std::string> argv_s = {path};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      ::execv(path.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    return true;
  }

  /// Collects output until EOF or `deadline` (then kills the child);
  /// returns the exit status (-1 when killed or crashed).
  int finish(double deadline) {
    std::string text;
    char buf[65536];
    while (out_fd_ >= 0) {
      const double left = deadline - mono_s();
      if (left <= 0) {
        ::kill(pid_, SIGKILL);
        break;
      }
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
      const ssize_t got = ::read(out_fd_, buf, sizeof(buf));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      text.append(buf, static_cast<std::size_t>(got));
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream ls(line);
      std::string key;
      ls >> key;
      if (key == "zone_acked") {
        std::size_t z = 0;
        std::uint64_t c = 0;
        ls >> z >> c;
        if (zone_acked.size() <= z) zone_acked.resize(z + 1, 0);
        zone_acked[z] = c;
      } else if (key == "last") {
        std::string s, ts, v;
        ls >> s >> ts >> v;
        last.push_back({static_cast<std::uint32_t>(std::stoul(s)),
                        std::strtod(ts.c_str(), nullptr), std::strtod(v.c_str(), nullptr)});
      } else if (!key.empty()) {
        std::string v;
        ls >> v;
        values[key] = std::strtod(v.c_str(), nullptr);
      }
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  ~Child() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  double get(const std::string& k) const {
    const auto it = values.find(k);
    return it == values.end() ? -1.0 : it->second;
  }

  struct LastSent {
    std::uint32_t sender;
    double ts;
    double value;
  };
  std::map<std::string, double> values;
  std::vector<std::uint64_t> zone_acked;
  std::vector<LastSent> last;

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

/// Ledger identities every ingest workload must satisfy, checked on both
/// sides of the socket: what the publisher counted and what the gateway
/// counted.
void check_ingest_ledger(Result& r, const Child& lg, const gateway::Gateway::Stats& s) {
  const double unanswered = lg.get("unanswered");
  r.check(lg.get("io_error") == 0.0, "load generator saw no I/O error");
  r.check(lg.get("balanced") == 1.0, "frames = acked + bad + never-acked");
  r.check(static_cast<double>(s.accepted) == lg.get("acked"),
          "gateway accepted == publisher acks");
  r.check(static_cast<double>(s.busy_rejected) == lg.get("busy_replies"),
          "gateway busy == publisher busy replies");
  r.check(static_cast<double>(s.decode_errors) == lg.get("bad") && s.decode_errors == 0,
          "no frame failed decode");
  r.check(s.frames == s.accepted + s.busy_rejected + s.decode_errors,
          "gateway frames = accepted + busy + bad");
  r.check(static_cast<double>(s.frames) <= lg.get("sends") &&
              static_cast<double>(s.frames) >= lg.get("sends") - unanswered,
          "gateway saw every answered send");
  r.check(s.delivered == s.accepted && s.sink_errors == 0,
          "after drain, delivered == accepted");
  r.check(s.framing_violations == 0, "no framing violations");
}

// ---------------------------------------------------------------------
// Span analysis (traced runs)

/// Per-name span totals plus the per-round figures the layer table needs.
struct SpanStats {
  struct Row {
    double calls = 0, total_us = 0, self_us = 0;
  };
  std::map<std::string, Row> rows;
  std::size_t rounds = 0;
  std::vector<double> round_self_us, uncovered_share, collect_us, gather_self_us,
      chs_us, zone_gather_max_us, worker_busy_share;
  LogHistogram chs_call_us;

  /// Folds one round's spans in.  Parallel children are merged as a
  /// union of intervals (self = span minus that union), never summed.
  void absorb(const std::vector<obs::SpanRecord>& spans, std::size_t workers) {
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> kids;
    for (std::size_t i = 0; i < spans.size(); ++i) kids[spans[i].parent].push_back(i);
    const auto iv = [&](std::size_t i) {
      return perfbench::Interval{spans[i].wall_start_us, spans[i].wall_end_us};
    };
    const auto child_ivs = [&](std::size_t i) {
      std::vector<perfbench::Interval> out;
      for (std::size_t k : kids[spans[i].id]) out.push_back(iv(k));
      return out;
    };
    for (std::size_t i = 0; i < spans.size(); ++i) {
      Row& row = rows[spans[i].name];
      row.calls += 1;
      row.total_us += spans[i].wall_end_us - spans[i].wall_start_us;
      row.self_us += perfbench::self_time(iv(i), child_ivs(i));
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name != "exec.runner.round") continue;
      ++rounds;
      const double round_us = spans[i].wall_end_us - spans[i].wall_start_us;
      const double self = perfbench::self_time(iv(i), child_ivs(i));
      round_self_us.push_back(self);
      uncovered_share.push_back(round_us > 0 ? self / round_us : 0.0);
      double collect = 0, gself = 0, chs = 0, gmax = 0, gsum = 0;
      for (std::size_t g : kids[spans[i].id]) {
        if (spans[g].name != "hier.nanocloud.gather") continue;
        const double gdur = spans[g].wall_end_us - spans[g].wall_start_us;
        gmax = std::max(gmax, gdur);
        gsum += gdur;
        gself += perfbench::self_time(iv(g), child_ivs(g));
        for (std::size_t c : kids[spans[g].id]) {
          const double d = spans[c].wall_end_us - spans[c].wall_start_us;
          if (spans[c].name == "mw.broker.collect") collect += d;
          if (spans[c].name == "cs.chs.reconstruct") {
            chs += d;
            chs_call_us.add(d);
          }
        }
      }
      collect_us.push_back(collect);
      gather_self_us.push_back(gself);
      chs_us.push_back(chs);
      zone_gather_max_us.push_back(gmax);
      worker_busy_share.push_back(round_us > 0 ? gsum / (round_us * workers) : 0.0);
    }
  }

  void print_table() const {
    std::printf("# per-layer self time over %zu traced rounds (us per round; parallel\n"
                "# children merged as a union of intervals)\n", rounds);
    std::printf("# %-24s %12s %14s %14s\n", "span", "calls/round", "total_us", "self_us");
    const double n = rounds > 0 ? static_cast<double>(rounds) : 1.0;
    for (const auto& [name, row] : rows) {
      std::printf("# %-24s %12.2f %14.1f %14.1f\n", name.c_str(), row.calls / n,
                  row.total_us / n, row.self_us / n);
    }
  }
};

/// Every per-layer metric, zero where the workload leaves the layer idle,
/// so each traced run reports the same set.
struct LayerMetrics {
  std::vector<Metric> m = {
      {"gateway.frames", 0, "count"},          {"gateway.busy_retries", 0, "count"},
      {"gateway.bad", 0, "count"},             {"gateway.queue_peak_depth", 0, "count"},
      {"gateway.cache_evictions", 0, "count"}, {"gateway.pre_sink_p50_us", 0, "us"},
      {"gateway.pre_sink_tail_us", 0, "us"},   {"middleware.sink_us", 0, "us"},
      {"middleware.sink_busy_share", 0, "ratio"}, {"middleware.store_records", 0, "count"},
      {"middleware.collect_us", 0, "us"},      {"sim.gather_self_us", 0, "us"},
      {"cs.chs_us", 0, "us"},                  {"cs.chs_p50_us", 0, "us"},
      {"linalg.gram_hits", 0, "count"},        {"linalg.gram_misses", 0, "count"},
      {"linalg.basis_bytes", 0, "B"},          {"exec.round_self_us", 0, "us"},
      {"exec.uncovered_share", 0, "ratio"},    {"exec.worker_busy_share", 0, "ratio"},
      {"exec.speedup_vs_1", 0, "ratio"},       {"hierarchy.zone_gather_max_us", 0, "us"},
      {"hierarchy.uplink_bytes", 0, "B"},      {"hierarchy.failovers", 0, "count"},
      {"fault.checkpoint_us", 0, "us"},        {"fault.checkpoint_bytes", 0, "B"},
      {"obs.scrape_bytes", 0, "B"},            {"obs.series", 0, "count"},
      {"obs.scrape_tail_ms", 0, "ms"},         {"obs.torn_scrapes", 0, "count"},
      {"obs.trace_overhead", 0, "ratio"},
      {"gen.lateness_tail_us", 0, "us"},       {"ingest.ack_p50_us", 0, "us"},
      {"ingest.ack_tail_us", 0, "us"},         {"ingest.visible_p50_ms", 0, "ms"},
      {"ingest.visible_tail_ms", 0, "ms"},     {"ingest.fail_share", 0, "ratio"},
      {"field.nrmse", 0, "ratio"},
  };
  void set(const std::string& name, double v) {
    for (Metric& x : m) {
      if (x.name == name) {
        x.value = v;
        return;
      }
    }
    std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n", name.c_str());
    std::abort();
  }
  void set_from_spans(const SpanStats& s) {
    set("middleware.collect_us", perfbench::median(s.collect_us));
    set("sim.gather_self_us", perfbench::median(s.gather_self_us));
    set("cs.chs_us", perfbench::median(s.chs_us));
    set("cs.chs_p50_us", s.chs_call_us.percentile(50.0));
    set("exec.round_self_us", perfbench::median(s.round_self_us));
    set("exec.uncovered_share", perfbench::median(s.uncovered_share));
    set("exec.worker_busy_share", perfbench::median(s.worker_busy_share));
    set("hierarchy.zone_gather_max_us", perfbench::median(s.zone_gather_max_us));
  }
};

// ---------------------------------------------------------------------
// Worlds: field + zones + LocalCloud + pool, built from the seed

constexpr double kWindowS = 1.0;        ///< throughput/CPU window length
constexpr std::size_t kCheckRounds = 3; ///< rounds compared 1 vs N workers
/// Set-up probes per run: each builds the workload's world once in a
/// fresh process, so setup_s is the cold set-up a deployment pays (first
/// touch of every page included), not a rebuild on a warm heap.
constexpr std::size_t kSetupProbes = 5;
double measure_setup(const Options& o);  // defined with the set-up probe

struct Shape {
  std::size_t field = 128;    ///< square field side
  std::size_t zone_rows = 16; ///< zones per side
  std::size_t per_zone = 16;  ///< readings per zone per round
  std::size_t plumes = 6;
  bool faults = false;
};

fault::FaultPlan light_fault_plan(std::uint64_t seed, std::size_t zones) {
  fault::FaultPlan plan;
  plan.seed = seed * 7919 + 17;
  plan.link.p_good_to_bad = 0.02;
  plan.link.p_bad_to_good = 0.5;
  plan.link.loss_bad = 0.5;
  plan.churn.leave_prob = 0.01;
  plan.churn.rejoin_prob = 0.5;
  plan.sensors.spike_prob = 0.005;
  // One short broker outage every 50 rounds, rotating over the zones.
  for (std::size_t k = 1; k <= 200; ++k) {
    plan.broker_crashes.push_back(
        {static_cast<std::uint32_t>((seed + k) % zones), 50 * k, 50 * k + 1});
  }
  return plan;
}

struct World {
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<hierarchy::LocalCloud> cloud;
  std::unique_ptr<exec::ThreadPool> pool;
  linalg::Rng rng{1};  ///< the campaign stream
  double setup_s = 0.0;
};

/// Builds a world; setup_s times the LocalCloud and pool construction
/// (the inputs — field and fault plan — are made before the clock starts).
World build_world(const field::SpatialField& truth, const Shape& shape, std::uint64_t seed,
                  std::size_t workers) {
  World w;
  const field::ZoneGrid grid(shape.field, shape.field, shape.zone_rows, shape.zone_rows);
  hierarchy::NanoCloudConfig cfg;  // library defaults
  if (shape.faults) {
    w.injector = std::make_unique<fault::FaultInjector>(
        light_fault_plan(seed, grid.zone_count()));
    cfg.injector = w.injector.get();
  }
  linalg::Rng world_rng(seed * 1000003 + 1);
  w.rng = linalg::Rng(seed * 1000003 + 2);
  const double t0 = mono_s();
  w.cloud = std::make_unique<hierarchy::LocalCloud>(truth, grid, cfg, world_rng);
  w.pool = std::make_unique<exec::ThreadPool>(workers);
  w.setup_s = mono_s() - t0;
  return w;
}

/// 128x128, 256 zones of 8x8 (n = 64), 16 readings per zone.
Shape rounds_small_shape() { return Shape{}; }

/// 128x128, 16 zones of 32x32 (n = 1024), 100 readings, light faults.
Shape live_city_shape() {
  Shape shape;
  shape.zone_rows = 4;
  shape.per_zone = 100;
  shape.faults = true;
  return shape;
}

field::SpatialField make_truth(const Shape& shape, std::uint64_t seed) {
  linalg::Rng rng(seed * 2654435761ULL + 99);
  return field::random_plume_field(shape.field, shape.field, shape.plumes, rng, 20.0);
}

/// First rounds of a world through the parallel runner: stitched fields
/// (raw bytes), regional NRMSEs, and round wall times.
struct RoundsProbe {
  std::vector<std::vector<double>> fields;
  std::vector<double> nrmse;
  std::vector<double> wall_ms;
};

RoundsProbe probe_rounds(World& w, std::size_t per_zone, std::size_t rounds) {
  RoundsProbe p;
  exec::ParallelCampaignRunner runner(*w.cloud, *w.pool);
  for (std::size_t r = 0; r < rounds; ++r) {
    const double t0 = mono_s();
    const hierarchy::RegionalResult res = runner.run_round_uniform(per_zone, w.rng);
    p.wall_ms.push_back((mono_s() - t0) * 1e3);
    const auto flat = res.reconstruction.flat();
    p.fields.emplace_back(flat.begin(), flat.end());
    p.nrmse.push_back(res.nrmse);
  }
  return p;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Builds the 1-worker reference and an N-worker copy of the same world,
/// runs their first rounds, and checks the stitched fields are
/// byte-identical.  Returns the reference NRMSEs and, in traced runs, the
/// 1-worker round p50 (for exec.speedup_vs_1).
struct DeterminismCheck {
  std::vector<double> nrmse;  ///< the reference's first-round NRMSEs
  double one_worker_p50_ms = 0.0;
};

DeterminismCheck check_worker_invariance(Result& r, const field::SpatialField& truth,
                                         const Shape& shape, const Options& o,
                                         std::size_t rounds, std::size_t timing_rounds) {
  DeterminismCheck d;
  RoundsProbe ref_probe;
  {
    World ref = build_world(truth, shape, o.seed, 1);
    ref_probe = probe_rounds(ref, shape.per_zone, rounds);
    if (timing_rounds > 0) {
      d.one_worker_p50_ms =
          perfbench::median(probe_rounds(ref, shape.per_zone, timing_rounds).wall_ms);
    }
  }
  {
    World par = build_world(truth, shape, o.seed, o.workers);
    const RoundsProbe par_probe = probe_rounds(par, shape.per_zone, rounds);
    for (std::size_t i = 0; i < rounds; ++i) {
      r.check(same_bytes(ref_probe.fields[i], par_probe.fields[i]),
              "round " + std::to_string(i) + " stitched field is byte-identical at 1 and " +
                  std::to_string(o.workers) + " workers");
    }
    r.attempted += 2 * rounds;
  }
  d.nrmse = ref_probe.nrmse;
  return d;
}

/// Fixed-length windows of a back-to-back round loop: rounds/s, CPU per
/// round and the round times of each window (medians across windows
/// resist host stalls).
struct RoundWindows {
  std::vector<double> rate, cpu_ms;
  std::vector<std::vector<double>> round_ms;  ///< per closed window, sorted
  std::vector<double> open_ms;
  double t0 = 0, c0 = 0;
  std::size_t n0 = 0;
  void begin(std::size_t rounds) {
    t0 = mono_s();
    c0 = cpu_s();
    n0 = rounds;
  }
  void add(std::size_t rounds, double ms) {
    open_ms.push_back(ms);
    const double now = mono_s();
    if (now - t0 < kWindowS) return;
    const double c = cpu_s();
    rate.push_back(static_cast<double>(rounds - n0) / (now - t0));
    cpu_ms.push_back((c - c0) * 1e3 / static_cast<double>(rounds - n0));
    std::sort(open_ms.begin(), open_ms.end());
    round_ms.push_back(std::move(open_ms));
    open_ms.clear();
    t0 = now;
    c0 = c;
    n0 = rounds;
  }
};

void put_round_metrics(Result& r, double setup_s, const RoundWindows& win,
                       std::vector<double> round_ms, double tail_cap,
                       const std::vector<double>& nrmse, double nrmse_bound) {
  std::sort(round_ms.begin(), round_ms.end());
  const double p50 = perfbench::percentile_sorted(round_ms, 50.0);
  // Tail per 1 s window, median across windows; runs whose windows are
  // too short for any rung (long rounds) take the whole-run tail.
  std::vector<std::uint64_t> sizes;
  for (const auto& w : win.round_ms) sizes.push_back(w.size());
  const perfbench::WindowedTail wt =
      perfbench::windowed_tail(sizes, tail_cap, [&](std::size_t i, double pct) {
        return perfbench::percentile_sorted(win.round_ms[i], pct);
      });
  double tail_ms = wt.value;
  char note[96];
  std::snprintf(note, sizeof(note), "p%g per 1 s window, median of %zu windows", wt.pct,
                wt.windows);
  std::string tail_note = note;
  if (wt.pct == 0.0) {
    const perfbench::Tail tail = perfbench::tail_of(round_ms.size(), tail_cap);
    r.check(tail.pct > 0, "enough measured rounds for a tail percentile");
    tail_ms = perfbench::percentile_sorted(round_ms, tail.pct);
    tail_note = tail_label(tail) + " rounds";
  }
  const double rate = perfbench::median(win.rate);
  const double cpu_ms = perfbench::median(win.cpu_ms);
  const double field_nrmse = perfbench::median(nrmse);
  char bound[48];
  std::snprintf(bound, sizeof(bound), "%g", nrmse_bound);
  r.check(field_nrmse > 0 && field_nrmse < nrmse_bound,
          std::string("field_nrmse below ") + bound);
  r.put("setup_s", setup_s, "s");
  r.put("peak_rss_mb", peak_rss_mb(), "MB");
  r.put("throughput_per_s", rate, "1/s");
  r.put("cpu_us_per_op", cpu_ms * 1e3, "us");
  r.put("latency_p50_ms", p50, "ms");
  r.put("latency_tail_ms", tail_ms, "ms");
  r.say("setup_s", setup_s, "s");
  r.say("peak_rss_mb", peak_rss_mb(), "MB");
  r.say("round_p50_ms", p50, "ms");
  r.say("round_tail_ms", tail_ms, "ms (" + tail_note + ")");
  r.say("rounds_per_s", rate, "1/s");
  r.say("cpu_ms_per_round", cpu_ms, "ms");
  r.say("field_nrmse", field_nrmse, std::string("ratio (bound ") + bound + ")");
}

// ---------------------------------------------------------------------
// rounds_small: back-to-back ParallelCampaignRunner rounds, nothing else

constexpr double kRoundsSmallNrmseBound = 0.03;
constexpr double kLiveCityNrmseBound = 0.04;

Result run_rounds_small(const Options& o) {
  Result r;
  const Shape shape = rounds_small_shape();
  const field::SpatialField truth = make_truth(shape, o.seed);

  DeterminismCheck det = check_worker_invariance(r, truth, shape, o, kCheckRounds,
                                                 o.trace ? 40 : 0);
  World w = build_world(truth, shape, o.seed, o.workers);
  exec::ParallelCampaignRunner runner(*w.cloud, *w.pool);

  // Warm-up: lazy caches fill, the pool's threads spin up.
  const double warm_end = mono_s() + 1.0;
  std::size_t rounds = 0;
  while (mono_s() < warm_end) {
    runner.run_round_uniform(shape.per_zone, w.rng);
    ++rounds;
  }

  obs::TraceLog log;
  SpanStats spans;
  std::vector<double> round_ms, traced_ms, nrmse;
  double uplink = 0, failovers = 0;
  const auto gram0 = linalg::gram_cache_stats();
  RoundWindows win;
  const double t_start = mono_s();
  const double t_end = t_start + o.seconds;
  win.begin(rounds);
  while (mono_s() < t_end) {
    // Traced runs alternate untraced and traced 1 s blocks; the traced
    // blocks feed the layer table, the ratio of the two is the overhead.
    const bool traced =
        o.trace && static_cast<std::size_t>((mono_s() - t_start) / kWindowS) % 2 == 1;
    if (traced) obs::attach_trace(&log);
    const double t0 = mono_s();
    const hierarchy::RegionalResult res = runner.run_round_uniform(shape.per_zone, w.rng);
    const double dt_ms = (mono_s() - t0) * 1e3;
    ++rounds;
    if (traced) {
      obs::attach_trace(nullptr);
      traced_ms.push_back(dt_ms);
      spans.absorb(log.snapshot(), o.workers);
      log.clear();
      uplink += static_cast<double>(res.uplink_bytes);
      failovers += static_cast<double>(res.failovers);
    } else {
      round_ms.push_back(dt_ms);
      win.add(rounds, dt_ms);
    }
    nrmse.push_back(res.nrmse);
  }
  const auto gram1 = linalg::gram_cache_stats();
  r.attempted += rounds;
  r.check(perfbench::median(det.nrmse) > 0, "reference rounds ran");

  if (!o.trace) {
    put_round_metrics(r, measure_setup(o), win, round_ms, 90.0, nrmse,
                      kRoundsSmallNrmseBound);
    return r;
  }
  LayerMetrics lm;
  lm.set_from_spans(spans);
  lm.set("linalg.gram_hits", static_cast<double>(gram1.hits - gram0.hits));
  lm.set("linalg.gram_misses", static_cast<double>(gram1.misses - gram0.misses));
  std::size_t basis = 0;
  for (std::size_t z = 0; z < w.cloud->zone_count(); ++z) {
    basis += w.cloud->nanocloud(z).basis_state_bytes();
  }
  lm.set("linalg.basis_bytes", static_cast<double>(basis));
  const double untraced_p50 = perfbench::median(round_ms);
  lm.set("exec.speedup_vs_1", det.one_worker_p50_ms / untraced_p50);
  lm.set("hierarchy.uplink_bytes", uplink / std::max<std::size_t>(spans.rounds, 1));
  lm.set("hierarchy.failovers", failovers);
  const double overhead = perfbench::median(traced_ms) / untraced_p50;
  lm.set("obs.trace_overhead", overhead);
  lm.set("field.nrmse", perfbench::median(nrmse));
  spans.print_table();
  std::printf("# uncovered share of round wall: %.4f\n", perfbench::median(spans.uncovered_share));
  std::printf("# obs.trace_overhead: %.4f (traced round p50 %.4f ms / untraced %.4f ms)\n",
              overhead, perfbench::median(traced_ms), untraced_p50);
  std::printf("# gen.lateness_tail_us: 0 (no load generator on this workload)\n");
  r.metrics = lm.m;
  return r;
}

// ---------------------------------------------------------------------
// ingest_flood: closed-loop flood into a LocalCloud of small zones

/// Sink wrapper that times the wrapped sink while `on` is set (traced
/// blocks) and always measures a frame's pre-sink and visible latency
/// from its timestamp field when `latency` is set (open-loop runs).
struct SinkProbe {
  std::atomic<bool> on{false};
  bool latency = false;
  double window_start = 0, window_end = 0;
  // Written by the gateway's drain thread only; read after stop().
  LogHistogram pre_sink_us, visible_us;
  double sink_s = 0;
  std::uint64_t calls = 0;

  gateway::Gateway::Sink wrap(gateway::Gateway::Sink inner) {
    return [this, inner = std::move(inner)](const middleware::Message& m) {
      if (!latency && !on.load(std::memory_order_relaxed)) {
        inner(m);
        return;
      }
      const double t0 = mono_s();
      inner(m);
      const double t1 = mono_s();
      if (on.load(std::memory_order_relaxed)) {
        sink_s += t1 - t0;
        ++calls;
        if (!latency) pre_sink_us.add((t0 - m.timestamp) * 1e6);
      }
      if (latency && m.timestamp >= window_start && m.timestamp < window_end) {
        pre_sink_us.add((t0 - m.timestamp) * 1e6);
        visible_us.add((t1 - m.timestamp) * 1e6);
      }
    };
  }
};

/// ingest_flood's world: a LocalCloud of 64 zones of 4x4 behind a
/// started Gateway whose sink routes into it (optionally through `probe`).
struct FloodWorld {
  std::unique_ptr<hierarchy::LocalCloud> cloud;
  std::unique_ptr<gateway::Gateway> gateway;  // declared last: stops first
  double setup_s = 0.0;
};

Shape flood_shape() {
  Shape shape;
  shape.field = 32;
  shape.zone_rows = 8;
  shape.plumes = 3;
  return shape;
}

FloodWorld build_flood_world(const field::SpatialField& truth, const Options& o,
                             SinkProbe* probe) {
  FloodWorld w;
  const Shape shape = flood_shape();
  const field::ZoneGrid grid(shape.field, shape.field, shape.zone_rows, shape.zone_rows);
  linalg::Rng world_rng(o.seed * 1000003 + 1);
  const double t0 = mono_s();
  w.cloud = std::make_unique<hierarchy::LocalCloud>(truth, grid, hierarchy::NanoCloudConfig{},
                                                     world_rng);
  gateway::Gateway::Sink sink = gateway::make_localcloud_sink(*w.cloud);
  if (probe != nullptr) sink = probe->wrap(std::move(sink));
  w.gateway = std::make_unique<gateway::Gateway>(gateway::GatewayConfig{}, std::move(sink));
  if (!w.gateway->start()) {
    std::fprintf(stderr, "perfbench: gateway failed to start\n");
    std::exit(2);
  }
  w.setup_s = mono_s() - t0;
  return w;
}

/// --setup-probe: builds the workload's world once, cold, and prints
/// "setup_s <seconds>".
int run_setup_probe(const Options& o) {
  double setup_s = 0.0;
  if (o.workload == "ingest_flood") {
    const field::SpatialField truth = make_truth(flood_shape(), o.seed);
    setup_s = build_flood_world(truth, o, nullptr).setup_s;
  } else {
    const Shape shape = o.workload == "live_city" ? live_city_shape() : rounds_small_shape();
    const field::SpatialField truth = make_truth(shape, o.seed);
    setup_s = build_world(truth, shape, o.seed, o.workers).setup_s;
  }
  std::printf("setup_s %.9f\n", setup_s);
  return 0;
}

/// setup_s: median of kSetupProbes cold builds, each in a fresh copy of
/// this program run with --setup-probe 1.
double measure_setup(const Options& o) {
  std::vector<double> samples;
  for (std::size_t i = 0; i < kSetupProbes; ++i) {
    Child probe;
    const bool started =
        probe.start(self_exe(), {"--workload", o.workload, "--seed", std::to_string(o.seed),
                                 "--setup-probe", "1"});
    if (!started || probe.finish(mono_s() + 60.0) != 0 || probe.get("setup_s") <= 0.0) {
      std::fprintf(stderr, "perfbench: set-up probe failed\n");
      std::exit(2);
    }
    samples.push_back(probe.get("setup_s"));
  }
  return perfbench::median(samples);
}

Result run_ingest_flood(const Options& o) {
  Result r;
  constexpr std::size_t kZones = 64, kSenders = 10000, kConns = 4, kWindow = 512;
  const field::SpatialField truth = make_truth(flood_shape(), o.seed);

  SinkProbe probe;
  FloodWorld fw = build_flood_world(truth, o, o.trace ? &probe : nullptr);
  hierarchy::LocalCloud* cloud = fw.cloud.get();
  gateway::Gateway* gw = fw.gateway.get();

  const double warmup_s = 1.5;
  const double t_start = mono_s() + warmup_s;
  Child lg;
  char start_at[64];
  std::snprintf(start_at, sizeof(start_at), "%.9f", t_start);
  if (!lg.start_loadgen({"--mode", "flood", "--port", std::to_string(gw->tcp_port()), "--conns",
                 std::to_string(kConns), "--window", std::to_string(kWindow), "--senders",
                 std::to_string(kSenders), "--zones", std::to_string(kZones), "--seed",
                 std::to_string(o.seed), "--start-at", start_at, "--seconds",
                 std::to_string(o.seconds), "--tail-cap", "90"})) {
    std::fprintf(stderr, "perfbench: cannot start the load generator\n");
    std::exit(2);
  }

  // Per-window gateway accepts and process CPU; traced runs time the
  // sink in every other window.
  std::vector<double> fps, cpu_us, cpu_us_on;
  double on_wall = 0;
  sleep_until(t_start);
  auto s_prev = gw->stats();
  double c_prev = cpu_s(), t_prev = mono_s();
  const std::size_t windows = static_cast<std::size_t>(o.seconds / kWindowS + 0.5);
  for (std::size_t k = 1; k <= windows; ++k) {
    const bool on = o.trace && k % 2 == 0;
    probe.on.store(on, std::memory_order_relaxed);
    sleep_until(t_start + static_cast<double>(k) * kWindowS);
    const auto s = gw->stats();
    const double c = cpu_s(), t = mono_s();
    const double frames = static_cast<double>(s.accepted - s_prev.accepted);
    if (frames > 0) {
      (on ? cpu_us_on : cpu_us).push_back((c - c_prev) * 1e6 / frames);
      if (!on) fps.push_back(frames / (t - t_prev));
    }
    if (on) on_wall += t - t_prev;
    s_prev = s;
    c_prev = c;
    t_prev = t;
  }
  probe.on.store(false, std::memory_order_relaxed);
  const int lg_status = lg.finish(t_start + o.seconds + 30.0);
  r.check(lg_status == 0, "load generator exited cleanly");
  gw->stop();
  const gateway::Gateway::Stats s = gw->stats();
  check_ingest_ledger(r, lg, s);

  // Last-report cache: every sampled sender's latest is the last frame
  // it put on the wire (one sender, one connection, so wire order holds).
  std::size_t sampled = 0;
  for (const Child::LastSent& ls : lg.last) {
    const auto latest = gw->cache().latest(ls.sender);
    if (ls.ts == 0.0) {
      r.check(!latest.has_value(), "silent sender absent from the cache");
      continue;
    }
    ++sampled;
    const auto* rec = latest ? std::get_if<middleware::Record>(&latest->payload) : nullptr;
    r.check(rec != nullptr && latest->timestamp == ls.ts && rec->value == ls.value,
            "cache latest == last frame sent, sender " + std::to_string(ls.sender));
  }
  r.check(sampled > 50, "enough sampled senders");
  // Per-zone stores hold exactly the frames routed to each zone (kept or
  // evicted by the ring buffer).
  r.check(lg.zone_acked.size() == kZones, "per-zone ack counts reported");
  double store_records = 0;
  for (std::size_t z = 0; z < kZones && z < lg.zone_acked.size(); ++z) {
    const middleware::DataStore& st = cloud->nanocloud(z).broker().store();
    store_records += static_cast<double>(st.size());
    r.check(st.size() + st.evicted() == lg.zone_acked[z],
            "zone " + std::to_string(z) + " store count == frames routed to it");
  }

  const double attempted = lg.get("attempted");
  const double never = lg.get("never_acked") + lg.get("bad");
  r.attempted = static_cast<std::uint64_t>(attempted);
  r.failed = static_cast<std::uint64_t>(never);
  r.check(fps.size() + cpu_us_on.size() >= 3, "enough measured windows");

  if (!o.trace) {
    const double setup_s = measure_setup(o);
    const double rate = perfbench::median(fps);
    const double cpu = perfbench::median(cpu_us);
    const double p50_ms = lg.get("ack_p50_us") / 1e3, tail_ms = lg.get("ack_tail_us") / 1e3;
    r.put("setup_s", setup_s, "s");
    r.put("peak_rss_mb", peak_rss_mb(), "MB");
    r.put("throughput_per_s", rate, "1/s");
    r.put("cpu_us_per_op", cpu, "us");
    r.put("latency_p50_ms", p50_ms, "ms");
    r.put("latency_tail_ms", tail_ms, "ms");
    r.say("setup_s", setup_s, "s");
    r.say("peak_rss_mb", peak_rss_mb(), "MB");
    r.say("ingest_fps", rate, "1/s");
    r.say("cpu_us_per_frame", cpu, "us");
    r.say("ingest_fail_share", attempted > 0 ? never / attempted : 0.0, "ratio");
    r.say("ack_p50_ms", p50_ms, "ms");
    char label[96];
    std::snprintf(label, sizeof(label), "ms (p%g per 1 s window, median of %.0f windows)",
                  lg.get("ack_tail_pct"), lg.get("ack_tail_windows"));
    r.say("ack_tail_ms", tail_ms, label);
    r.say("busy_replies", lg.get("busy_replies"), "count");
    return r;
  }

  LayerMetrics lm;
  lm.set("gateway.frames", static_cast<double>(s.frames));
  lm.set("gateway.busy_retries", lg.get("busy_replies"));
  lm.set("gateway.bad", static_cast<double>(s.decode_errors));
  lm.set("gateway.queue_peak_depth", static_cast<double>(s.queue_peak_depth));
  lm.set("gateway.cache_evictions", static_cast<double>(gw->cache().evictions()));
  const perfbench::Tail pre_tail = perfbench::tail_of(probe.pre_sink_us.count(), 99.9);
  lm.set("gateway.pre_sink_p50_us", probe.pre_sink_us.percentile(50.0));
  lm.set("gateway.pre_sink_tail_us", probe.pre_sink_us.percentile(pre_tail.pct));
  const double sink_us = probe.calls > 0 ? probe.sink_s * 1e6 / probe.calls : 0.0;
  lm.set("middleware.sink_us", sink_us);
  lm.set("middleware.sink_busy_share", on_wall > 0 ? probe.sink_s / on_wall : 0.0);
  lm.set("middleware.store_records", store_records);
  lm.set("ingest.ack_p50_us", lg.get("ack_p50_us"));
  lm.set("ingest.ack_tail_us", lg.get("ack_tail_us"));
  lm.set("ingest.fail_share", attempted > 0 ? never / attempted : 0.0);
  const double overhead = perfbench::median(cpu_us_on) / perfbench::median(cpu_us);
  lm.set("obs.trace_overhead", overhead);
  std::printf("# per-layer split of the ingest path (timed sink in every other 1 s window)\n");
  std::printf("# %-34s %12s\n", "layer", "value");
  std::printf("# %-34s %12.2f us (p50)\n", "gateway: send -> sink entry",
              probe.pre_sink_us.percentile(50.0));
  std::printf("# %-34s %12.2f us (%s frames)\n", "gateway: send -> sink entry",
              probe.pre_sink_us.percentile(pre_tail.pct), tail_label(pre_tail).c_str());
  std::printf("# %-34s %12.4f us per frame\n", "middleware: sink call", sink_us);
  std::printf("# %-34s %12.4f\n", "middleware: drain busy share",
              on_wall > 0 ? probe.sink_s / on_wall : 0.0);
  std::printf("# %-34s %12.0f\n", "gateway: queue peak depth",
              static_cast<double>(s.queue_peak_depth));
  std::printf("# %-34s %12.0f\n", "gateway: busy replies", lg.get("busy_replies"));
  std::printf("# uncovered share of round wall: n/a (no rounds on this workload)\n");
  std::printf("# obs.trace_overhead: %.4f (CPU us/frame, timed sink / plain sink)\n", overhead);
  std::printf("# gen.lateness_tail_us: 0 (closed loop: nothing falls due)\n");
  r.metrics = lm.m;
  return r;
}

// ---------------------------------------------------------------------
// live_city: checkpointed faulted rounds + paced ingest + live scrapes

Result run_live_city(const Options& o) {
  Result r;
  const Shape shape = live_city_shape();
  const field::SpatialField truth = make_truth(shape, o.seed);

  DeterminismCheck det = check_worker_invariance(r, truth, shape, o, kCheckRounds,
                                                 o.trace ? 8 : 0);

  obs::MetricsRegistry registry;
  obs::attach_registry(&registry);
  World w = build_world(truth, shape, o.seed, o.workers);

  const std::filesystem::path dir =
      std::filesystem::path(o.workdir) / ("live_city." + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string ckpt_path = (dir / "campaign.ckpt").string();
  const std::string probe_path = (dir / "probe.ckpt").string();
  constexpr std::size_t kCheckpointEvery = 10;

  obs::TraceLog log;
  obs::TelemetryServer telemetry({&registry, o.trace ? &log : nullptr, nullptr, "live_city"});
  middleware::Broker ingest_broker(1, sim::Point{0.0, 0.0});
  SinkProbe probe;
  probe.latency = true;
  gateway::Gateway gw(gateway::GatewayConfig{},
                      probe.wrap(gateway::make_broker_sink(ingest_broker)));
  if (!telemetry.start() || !gw.start()) {
    std::fprintf(stderr, "perfbench: telemetry or gateway failed to start\n");
    std::exit(2);
  }

  std::vector<double> round_ms, traced_ms, nrmse, ckpt_us;
  double ckpt_bytes = 0, uplink0 = 0, failover0 = 0;
  SpanStats spans;
  RoundWindows win;
  std::size_t rounds = 0, first_measured = 0;
  {
    exec::ResumableCampaign::Config cc;
    cc.rounds = 1000000;
    cc.budget_per_zone = shape.per_zone;
    cc.checkpoint.path = ckpt_path;
    cc.checkpoint.every_rounds = kCheckpointEvery;
    exec::ResumableCampaign campaign(*w.cloud, w.pool.get(), cc);

    const double warmup_s = 1.5;
    const double t_start = mono_s() + warmup_s;
    const double t_end = t_start + o.seconds;
    probe.window_start = t_start;
    probe.window_end = t_end;
    Child lg;
    char start_at[64];
    std::snprintf(start_at, sizeof(start_at), "%.9f", t_start);
    if (!lg.start_loadgen({"--mode", "paced", "--port", std::to_string(gw.tcp_port()), "--conns", "3",
                   "--senders", "10000", "--zones", "16", "--rate", "50000", "--seed",
                   std::to_string(o.seed), "--start-at", start_at, "--seconds",
                   std::to_string(o.seconds), "--scrape-port",
                   std::to_string(telemetry.port()), "--tail-cap", "99.9"})) {
      std::fprintf(stderr, "perfbench: cannot start the load generator\n");
      std::exit(2);
    }

    while (mono_s() < t_start) {
      campaign.run_until(w.rng, ++rounds);
    }
    first_measured = rounds;
    const auto gram0 = linalg::gram_cache_stats();
    uplink0 = registry.counter_sum("hier.localcloud.uplink_bytes");
    failover0 = registry.counter_sum("fault.failover.promotions");
    win.begin(rounds);
    while (mono_s() < t_end) {
      const bool traced =
          o.trace && static_cast<std::size_t>((mono_s() - t_start) / kWindowS) % 2 == 1;
      if (traced) obs::attach_trace(&log);
      const double t0 = mono_s();
      campaign.run_until(w.rng, ++rounds);
      const double dt_ms = (mono_s() - t0) * 1e3;
      if (traced) {
        obs::attach_trace(nullptr);
        traced_ms.push_back(dt_ms);
        spans.absorb(log.snapshot(), o.workers);
        log.clear();
        if (rounds % kCheckpointEvery == 0) {
          // The checkpoint calls, timed from outside: capture + atomic
          // write of the same snapshot the campaign writes.
          const double c0 = mono_s();
          const fault::CampaignSnapshot snap = campaign.snapshot(w.rng);
          ckpt_bytes = static_cast<double>(fault::write_atomic(probe_path, snap));
          ckpt_us.push_back((mono_s() - c0) * 1e6);
        }
      } else {
        round_ms.push_back(dt_ms);
        win.add(rounds, dt_ms);
      }
      nrmse.push_back(campaign.history().back().nrmse);
    }
    const auto gram1 = linalg::gram_cache_stats();
    const double measured_rounds = static_cast<double>(rounds - first_measured);

    const int lg_status = lg.finish(t_end + 30.0);
    r.check(lg_status == 0, "load generator exited cleanly");
    gw.stop();
    const gateway::Gateway::Stats s = gw.stats();
    check_ingest_ledger(r, lg, s);
    const middleware::DataStore& st = ingest_broker.store();
    r.check(static_cast<double>(st.size() + st.evicted()) == lg.get("acked"),
            "ingest broker stored every acked frame");
    r.check(lg.get("scrapes") > 0 && lg.get("scrapes_failed") == 0,
            "every /metrics scrape succeeded and parsed");
    // Live scrapes may be torn (see GwCoherence); they are counted, not
    // failed.  Answers ahead of frames, or frames going backwards, fail.
    r.check(lg.get("scrapes_incoherent") == 0,
            "no scrape shows more gw answers than frames, frames never fall");
    std::map<std::string, double> final_series;
    r.check(perfbench::parse_prometheus(registry.to_prometheus(), &final_series),
            "final metrics exposition parses");
    r.check(perfbench::gw_coherence(final_series) == perfbench::GwCoherence::kExact &&
                perfbench::series(final_series, "gw_sink_delivered") ==
                    perfbench::series(final_series, "gw_ingest_accepted") &&
                perfbench::series(final_series, "gw_ingest_accepted") == lg.get("acked"),
            "final gw_* series agree with the gateway and the publisher");

    // The measured campaign's first rounds are the verified rounds: the
    // ResumableCampaign path reproduces the runner's reference NRMSEs.
    for (std::size_t i = 0; i < kCheckRounds && i < campaign.history().size(); ++i) {
      r.check(campaign.history()[i].nrmse == det.nrmse[i],
              "campaign round " + std::to_string(i) + " matches the 1-worker reference");
    }
    const double lat_ack_p50 = lg.get("ack_p50_us"), lat_ack_tail = lg.get("ack_tail_us");
    const perfbench::Tail vis_tail = perfbench::tail_of(probe.visible_us.count(), 99.9);
    const double vis_p50_ms = probe.visible_us.percentile(50.0) / 1e3;
    const double vis_tail_ms = probe.visible_us.percentile(vis_tail.pct) / 1e3;
    const double attempted = lg.get("attempted");
    const double never = lg.get("never_acked") + lg.get("bad");
    const double fail_share = attempted > 0 ? never / attempted : 0.0;
    r.attempted += rounds + static_cast<std::uint64_t>(attempted + lg.get("scrapes"));
    r.failed += static_cast<std::uint64_t>(never + lg.get("scrapes_failed"));

    if (!o.trace) {
      put_round_metrics(r, measure_setup(o), win, round_ms, 90.0, nrmse,
                        kLiveCityNrmseBound);
      r.say("ingest_fail_share", fail_share, "ratio");
      r.say("ack_p50_us", lat_ack_p50, "us");
      char label[96];
      std::snprintf(label, sizeof(label), "us (p%g per 1 s window, median of %.0f windows)",
                    lg.get("ack_tail_pct"), lg.get("ack_tail_windows"));
      r.say("ack_tail_us", lat_ack_tail, label);
      r.say("visible_p50_ms", vis_p50_ms, "ms");
      r.say("visible_tail_ms", vis_tail_ms, "ms (" + tail_label(vis_tail) + " frames)");
      std::snprintf(label, sizeof(label), "ms (p%g of %.0f scrapes)", lg.get("scrape_tail_pct"),
                    lg.get("scrape_count"));
      r.say("scrape_tail_ms", lg.get("scrape_tail_ms"), label);
      r.say("gen_lateness_tail_us", lg.get("lateness_tail_us"), "us");
      r.say("torn_scrapes", lg.get("scrapes_torn"), "count");
    } else {
      LayerMetrics lm;
      lm.set_from_spans(spans);
      lm.set("gateway.frames", static_cast<double>(s.frames));
      lm.set("gateway.busy_retries", lg.get("busy_replies"));
      lm.set("gateway.bad", static_cast<double>(s.decode_errors));
      lm.set("gateway.queue_peak_depth", static_cast<double>(s.queue_peak_depth));
      lm.set("gateway.cache_evictions", static_cast<double>(gw.cache().evictions()));
      const perfbench::Tail pre_tail = perfbench::tail_of(probe.pre_sink_us.count(), 99.9);
      lm.set("gateway.pre_sink_p50_us", probe.pre_sink_us.percentile(50.0));
      lm.set("gateway.pre_sink_tail_us", probe.pre_sink_us.percentile(pre_tail.pct));
      lm.set("middleware.store_records", static_cast<double>(st.size()));
      lm.set("linalg.gram_hits", static_cast<double>(gram1.hits - gram0.hits));
      lm.set("linalg.gram_misses", static_cast<double>(gram1.misses - gram0.misses));
      std::size_t basis = 0;
      for (std::size_t z = 0; z < w.cloud->zone_count(); ++z) {
        basis += w.cloud->nanocloud(z).basis_state_bytes();
      }
      lm.set("linalg.basis_bytes", static_cast<double>(basis));
      const double untraced_p50 = perfbench::median(round_ms);
      lm.set("exec.speedup_vs_1", det.one_worker_p50_ms / untraced_p50);
      lm.set("hierarchy.uplink_bytes",
             (registry.counter_sum("hier.localcloud.uplink_bytes") - uplink0) /
                 std::max(measured_rounds, 1.0));
      lm.set("hierarchy.failovers", registry.counter_sum("fault.failover.promotions") - failover0);
      lm.set("fault.checkpoint_us", perfbench::median(ckpt_us));
      lm.set("fault.checkpoint_bytes", ckpt_bytes);
      lm.set("obs.scrape_bytes", lg.get("scrape_bytes"));
      lm.set("obs.series", static_cast<double>(registry.series_count()));
      lm.set("obs.scrape_tail_ms", lg.get("scrape_tail_ms"));
      lm.set("obs.torn_scrapes", lg.get("scrapes_torn"));
      const double overhead = perfbench::median(traced_ms) / untraced_p50;
      lm.set("obs.trace_overhead", overhead);
      lm.set("gen.lateness_tail_us", lg.get("lateness_tail_us"));
      lm.set("ingest.ack_p50_us", lat_ack_p50);
      lm.set("ingest.ack_tail_us", lat_ack_tail);
      lm.set("ingest.visible_p50_ms", vis_p50_ms);
      lm.set("ingest.visible_tail_ms", vis_tail_ms);
      lm.set("ingest.fail_share", fail_share);
      lm.set("field.nrmse", perfbench::median(nrmse));
      spans.print_table();
      std::printf("# uncovered share of round wall: %.4f\n",
                  perfbench::median(spans.uncovered_share));
      std::printf("# fault.checkpoint_us: %.1f (capture + atomic write, %.0f B)\n",
                  perfbench::median(ckpt_us), ckpt_bytes);
      std::printf("# obs.trace_overhead: %.4f (traced round p50 %.4f ms / untraced %.4f ms)\n",
                  overhead, perfbench::median(traced_ms), untraced_p50);
      std::printf("# gen.lateness_tail_us: %.1f (p%g)\n", lg.get("lateness_tail_us"),
                  lg.get("lateness_tail_pct"));
      r.metrics = lm.m;
    }
    telemetry.stop();
    // Campaign destruction joins the in-flight checkpoint write.
  }
  obs::attach_registry(nullptr);
  try {
    const fault::CampaignSnapshot snap = fault::load(ckpt_path);
    r.check(snap.rounds_done > 0 && snap.rounds_done % kCheckpointEvery == 0 &&
                snap.rounds_done <= rounds,
            "latest checkpoint loads and sits on a checkpoint round");
  } catch (const std::exception& e) {
    r.check(false, std::string("checkpoint loads: ") + e.what());
  }
  std::filesystem::remove_all(dir);
  return r;
}

bool parse_options(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") o->workload = v;
    else if (k == "--seed") o->seed = std::stoull(v);
    else if (k == "--seconds") o->seconds = std::stod(v);
    else if (k == "--trace") o->trace = v == "1";
    else if (k == "--workdir") o->workdir = v;
    else if (k == "--setup-probe") o->setup_probe = v == "1";
    else return false;
  }
  return !o->workload.empty() && o->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  o.workers = std::max<long>(1, ::sysconf(_SC_NPROCESSORS_ONLN));
  if (!parse_options(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench_sut --workload ingest_flood|rounds_small|live_city "
                 "--seed N --seconds S --trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  if (o.setup_probe) return run_setup_probe(o);
  std::printf("# workload %s seed %" PRIu64 " seconds %g trace %d workers %zu\n",
              o.workload.c_str(), o.seed, o.seconds, o.trace ? 1 : 0, o.workers);
  Result r;
  if (o.workload == "ingest_flood") {
    r = run_ingest_flood(o);
  } else if (o.workload == "rounds_small") {
    r = run_rounds_small(o);
  } else if (o.workload == "live_city") {
    r = run_live_city(o);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  print_result(r);
  return r.correct ? 0 : 1;
}
