// Summary statistics shared by the benchmark's system-under-test program
// (sut.cpp) and its load generator (loadgen.cpp).  Everything here is a
// pure function of its inputs so selftest.cpp can pin it down exactly.
//
//   * tail_of()        the tail-percentile rule: the highest rung of a
//                      fixed ladder that still has >= 10 samples beyond it
//   * windowed_tail()  that rule per fixed-length window, median across
//                      windows
//   * LogHistogram     1%-resolution latency histogram for streams too long
//                      to keep sample by sample
//   * union_length()   length of a union of intervals: parallel child
//                      spans are merged, never summed
//   * IngestLedger     per-frame accounting of a publisher that retries
//                      busy replies: a frame fails only if never acked
//   * parse_prometheus Prometheus text exposition -> series map, and
//     gw_coherence()   how its gateway counters agree
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <time.h>

namespace perfbench {

/// CLOCK_MONOTONIC in seconds.  std::chrono::steady_clock reads the same
/// clock on Linux, so the load generator (another process) and the
/// system under test can compare stamps directly.
inline double mono_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Median of an unsorted sample; 0 for an empty one.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least pct% of the sample at or below it.
inline double percentile_sorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Percentile ladder for tails, with the share of samples beyond each
/// rung expressed as 1/denominator so the ">= 10 beyond" test is exact
/// integer arithmetic.
struct Rung {
  double pct;
  std::uint64_t beyond_denominator;  ///< samples beyond = n / denominator
};
inline constexpr Rung kTailLadder[] = {
    {90.0, 10}, {95.0, 20}, {99.0, 100}, {99.9, 1000}, {99.99, 10000}};

/// A tail figure: which percentile was chosen, over how many samples.
struct Tail {
  double pct = 0.0;  ///< 0 when no rung qualifies (fewer than 100 samples)
  std::uint64_t count = 0;
};

/// The highest ladder rung, not above `max_pct`, that leaves at least 10
/// samples beyond it among `count` samples.  Capping keeps the chosen
/// rung fixed while the sample count of a fixed-length run drifts with
/// speed, so two runs report the same percentile.
inline Tail tail_of(std::uint64_t count, double max_pct) {
  Tail t;
  t.count = count;
  for (const Rung& r : kTailLadder) {
    if (r.pct > max_pct + 1e-9) break;
    if (count >= 10 * r.beyond_denominator) t.pct = r.pct;
  }
  return t;
}

/// A tail figure over fixed-length windows of one run.
struct WindowedTail {
  double pct = 0.0;       ///< rung used in every counted window
  double value = 0.0;     ///< median across counted windows of their tail
  std::size_t windows = 0;
};

/// Tail of a run measured in fixed-length windows: the rung is chosen
/// by tail_of() from the median window size, each window with enough
/// samples for that rung contributes its own tail, and the result is
/// the median of those.  One window spoilt by a host stall then moves
/// the figure no more than one sample moves a median.  `tail_at(i, pct)`
/// returns window i's pct-th percentile; `sizes` holds the window sizes.
template <class TailAt>
WindowedTail windowed_tail(const std::vector<std::uint64_t>& sizes, double max_pct,
                           TailAt tail_at) {
  WindowedTail out;
  if (sizes.empty()) return out;
  std::vector<double> counts(sizes.begin(), sizes.end());
  out.pct = tail_of(static_cast<std::uint64_t>(median(counts)), max_pct).pct;
  if (out.pct == 0.0) return out;
  std::vector<double> tails;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (tail_of(sizes[i], out.pct).pct == out.pct) tails.push_back(tail_at(i, out.pct));
  }
  out.windows = tails.size();
  out.value = median(tails);
  return out;
}

/// Log-bucketed histogram of positive values (1% relative resolution
/// from 0.01 to ~1e9); a value's bucket reports its geometric midpoint.
class LogHistogram {
 public:
  static constexpr double kMin = 0.01;
  static constexpr double kGrowth = 1.01;

  LogHistogram() : buckets_(bucket_count(), 0) {}

  void add(double v) {
    ++buckets_[index_of(v)];
    ++count_;
  }
  std::uint64_t count() const { return count_; }

  /// Nearest-rank percentile, to bucket resolution.  0 when empty.
  double percentile(double pct) const {
    if (count_ == 0) return 0.0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(pct / 100.0 * static_cast<double>(count_) - 1e-9));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= rank) return value_of(i);
    }
    return value_of(buckets_.size() - 1);
  }

  static std::size_t bucket_count() { return 2800; }
  static std::size_t index_of(double v) {
    if (!(v > kMin)) return 0;
    const double i = std::log(v / kMin) / std::log(kGrowth);
    return std::min<std::size_t>(static_cast<std::size_t>(i) + 1,
                                 bucket_count() - 1);
  }
  /// Geometric midpoint of bucket i (bucket 0 holds everything <= kMin).
  static double value_of(std::size_t i) {
    if (i == 0) return kMin;
    return kMin * std::pow(kGrowth, static_cast<double>(i) - 0.5);
  }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Total length covered by the union of `iv` (overlaps counted once).
inline double union_length(std::vector<Interval> iv) {
  std::sort(iv.begin(), iv.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double total = 0.0;
  bool open = false;
  double cur_s = 0.0;
  double cur_e = 0.0;
  for (const Interval& i : iv) {
    if (i.end <= i.start) continue;
    if (!open || i.start > cur_e) {
      if (open) total += cur_e - cur_s;
      cur_s = i.start;
      cur_e = i.end;
      open = true;
    } else {
      cur_e = std::max(cur_e, i.end);
    }
  }
  if (open) total += cur_e - cur_s;
  return total;
}

/// Self time of `parent`: its length minus the part of it that the
/// union of `children` (clipped to the parent) covers.
inline double self_time(const Interval& parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  return (parent.end - parent.start) - union_length(std::move(children));
}

/// Frame accounting of a retrying publisher.  A logical frame is
/// attempted once however often it is re-sent; a busy reply schedules a
/// retry and is counted separately; the frame fails only if it is still
/// unacked when the publisher gives up.
struct IngestLedger {
  std::uint64_t attempted = 0;     ///< logical frames created
  std::uint64_t sends = 0;         ///< wire sends, retries included
  std::uint64_t acked = 0;
  std::uint64_t bad = 0;           ///< kBad replies (never retried)
  std::uint64_t busy_replies = 0;  ///< kBusy replies (each one retried)
  std::uint64_t never_acked = 0;   ///< still pending when given up

  /// Every wire send got exactly one reply, every logical frame ended in
  /// exactly one of acked / bad / never_acked.
  bool balanced(std::uint64_t unanswered_sends) const {
    return attempted == acked + bad + never_acked &&
           sends == acked + bad + busy_replies + unanswered_sends;
  }
  double fail_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(never_acked + bad) /
                                static_cast<double>(attempted);
  }
};

/// Parses Prometheus text exposition into series -> value, keyed by the
/// series name including its label set.  False on any malformed line.
inline bool parse_prometheus(std::string_view body,
                             std::map<std::string, double>* out) {
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string_view::npos) eol = body.size();
    std::string_view line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line.front() == '#') continue;
    std::size_t key_end = line.find('{');
    if (key_end != std::string_view::npos) {
      const std::size_t close = line.find('}', key_end);
      if (close == std::string_view::npos) return false;
      key_end = close + 1;
    } else {
      key_end = line.find(' ');
      if (key_end == std::string_view::npos) return false;
    }
    if (key_end == 0 || key_end >= line.size() || line[key_end] != ' ') {
      return false;
    }
    const std::string value(line.substr(key_end + 1));
    if (value == "NaN" || value == "+Inf" || value == "-Inf") {
      (*out)[std::string(line.substr(0, key_end))] =
          value == "NaN" ? NAN : (value == "+Inf" ? INFINITY : -INFINITY);
      continue;
    }
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') return false;
    (*out)[std::string(line.substr(0, key_end))] = v;
  }
  return true;
}

/// Value of an unlabelled series, 0 when absent (a counter the gateway
/// has not yet advanced is simply not exported).
inline double series(const std::map<std::string, double>& m,
                     const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

/// How the gateway's exported counters relate.  Every framed frame is
/// answered exactly once (ack, busy or bad), so at rest answered ==
/// frames (kExact).  The gateway advances gw_ingest_frames before the
/// answer counters, each a separate atomic series, so a live scrape can
/// land between the two and read answered < frames (kTorn); answered >
/// frames is never right (kBroken).
enum class GwCoherence { kExact, kTorn, kBroken };

inline GwCoherence gw_coherence(const std::map<std::string, double>& m) {
  const double frames = series(m, "gw_ingest_frames");
  const double answered = series(m, "gw_ingest_accepted") + series(m, "gw_ingest_busy") +
                          series(m, "gw_ingest_decode_errors");
  if (answered == frames) return GwCoherence::kExact;
  return answered < frames ? GwCoherence::kTorn : GwCoherence::kBroken;
}

}  // namespace perfbench
