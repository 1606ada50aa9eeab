// perfbench_selftest — unit tests of the benchmark's summary code
// (summary.h).  run.py runs it before every workload; it prints one line
// per failed expectation and exits non-zero if there is any.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "summary.h"

namespace {

int failures = 0;
int checks = 0;

void expect(bool ok, const std::string& what) {
  ++checks;
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::fabs(b);
}

void test_tail_rule() {
  using perfbench::tail_of;
  // >= 10 samples beyond the chosen rung, the highest such rung wins.
  expect(tail_of(99, 99.99).pct == 0.0, "99 samples: no rung has 10 beyond p90");
  expect(tail_of(100, 99.99).pct == 90.0, "100 samples: p90 (10 beyond)");
  expect(tail_of(199, 99.99).pct == 90.0, "199 samples: p95 would leave 9.95");
  expect(tail_of(200, 99.99).pct == 95.0, "200 samples: p95 (10 beyond)");
  expect(tail_of(999, 99.99).pct == 95.0, "999 samples: still p95");
  expect(tail_of(1000, 99.99).pct == 99.0, "1000 samples: p99");
  expect(tail_of(10000, 99.99).pct == 99.9, "10000 samples: p99.9");
  expect(tail_of(100000, 99.99).pct == 99.99, "100000 samples: p99.99");
  // The cap pins the rung while counts drift.
  expect(tail_of(5000000, 99.0).pct == 99.0, "cap at p99 holds with 5M samples");
  expect(tail_of(150, 99.0).pct == 90.0, "cap does not lift a short run");
  expect(tail_of(1000, 99.0).count == 1000, "tail records its sample count");

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(perfbench::percentile_sorted(v, 99.0) == 990.0, "p99 of 1..1000 is 990");
  expect(perfbench::percentile_sorted(v, 50.0) == 500.0, "p50 of 1..1000 is 500");
  expect(perfbench::percentile_sorted(v, 100.0) == 1000.0, "p100 is the max");
  int beyond = 0;
  for (double x : v) beyond += x > perfbench::percentile_sorted(v, 99.0);
  expect(beyond == 10, "exactly 10 samples beyond p99 of 1000");
  // Windowed tails: 9 windows of 1..200 plus one stalled window whose
  // every sample is 1000; the rung comes from the window size (p95 for
  // 200 samples), and the stalled window cannot move the median.
  std::vector<std::vector<double>> windows(10);
  std::vector<std::uint64_t> sizes;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    for (int i = 1; i <= 200; ++i) windows[w].push_back(w == 3 ? 1000.0 : i);
    sizes.push_back(windows[w].size());
  }
  const auto at = [&](std::size_t w, double pct) {
    return perfbench::percentile_sorted(windows[w], pct);
  };
  const perfbench::WindowedTail wt = perfbench::windowed_tail(sizes, 99.9, at);
  expect(wt.pct == 95.0 && wt.value == 190.0 && wt.windows == 10,
         "windowed tail: p95 of 200-sample windows, stall ignored by the median");
  expect(perfbench::windowed_tail(sizes, 90.0, at).pct == 90.0, "windowed tail honours the cap");
  sizes.push_back(20);  // a short last window is left out of the median
  windows.emplace_back(20, 5000.0);
  const perfbench::WindowedTail short_last = perfbench::windowed_tail(sizes, 99.9, at);
  expect(short_last.windows == 10 && short_last.value == 190.0,
         "windowed tail skips a window too short for the rung");
  expect(perfbench::windowed_tail({20, 30}, 99.9, at).pct == 0.0,
         "windowed tail reports no rung when every window is short");
  expect(perfbench::median({3, 1, 2}) == 2.0, "median of odd sample");
  expect(perfbench::median({4, 1, 2, 3}) == 2.5, "median of even sample");
}

void test_log_histogram() {
  perfbench::LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.add(i);
  expect(h.count() == 1000, "histogram counts every sample");
  expect(near(h.percentile(50.0), 500.0, 0.011), "histogram p50 within 1%");
  expect(near(h.percentile(99.0), 990.0, 0.011), "histogram p99 within 1%");
  h.add(1e6);
  expect(near(h.percentile(100.0), 1e6, 0.011), "histogram p100 is the max");
  expect(perfbench::LogHistogram().percentile(50.0) == 0.0, "empty histogram reads 0");
}

void test_span_union() {
  using perfbench::Interval;
  // Four zones run in parallel on two workers: the round's children
  // cover [0,6] and [8,10]; summing them would claim 14 of 10.
  const Interval round{0, 12};
  const std::vector<Interval> zones = {{0, 4}, {1, 5}, {2, 6}, {8, 10}};
  expect(perfbench::union_length(zones) == 8.0, "union merges overlaps");
  expect(perfbench::self_time(round, zones) == 4.0, "self = 12 - union(8)");
  // A child spilling past its parent only counts inside the parent.
  expect(perfbench::self_time({0, 10}, {{5, 15}}) == 5.0, "children clipped to parent");
  // Nested and identical intervals count once.
  expect(perfbench::union_length({{0, 10}, {2, 3}, {0, 10}}) == 10.0, "nested counted once");
  expect(perfbench::union_length({{0, 1}, {1, 2}}) == 2.0, "touching intervals join");
  expect(perfbench::self_time({0, 10}, {}) == 10.0, "no children: all self");
  expect(perfbench::union_length({{3, 3}, {5, 4}}) == 0.0, "empty intervals ignored");
}

void test_fail_share_with_retries() {
  perfbench::IngestLedger l;
  // 10 frames: 5 acked at once; 3 refused busy once and acked on retry;
  // 1 refused twice and acked on its third send; 1 refused once whose
  // retry is still unanswered when the publisher gives up.
  l.attempted = 10;
  l.acked = 9;
  l.busy_replies = 3 + 2 + 1;
  l.sends = 5 + 3 * 2 + 3 + 2;
  l.never_acked = 1;
  expect(l.balanced(/*unanswered_sends=*/1), "ledger balances with retries");
  expect(l.fail_share() == 0.1, "retried-then-acked frames do not fail");
  // A busy reply is not a failure by itself.
  perfbench::IngestLedger ok{4, 6, 4, 0, 2, 0};
  expect(ok.balanced(0) && ok.fail_share() == 0.0, "busy then acked: zero fail share");
  // A bad frame is never acked and counts against the share.
  perfbench::IngestLedger bad{4, 4, 3, 1, 0, 0};
  expect(bad.balanced(0) && bad.fail_share() == 0.25, "bad frames fail");
  // A lost reply breaks the balance.
  expect(!ok.balanced(1), "unanswered send is noticed");
}

void test_prometheus() {
  std::map<std::string, double> m;
  const std::string body =
      "# TYPE gw_ingest_frames counter\n"
      "gw_ingest_frames 10\n"
      "gw_ingest_accepted 7\n"
      "gw_ingest_busy 2\n"
      "gw_ingest_decode_errors 1\n"
      "hier_zone_nrmse{zone=\"3\"} 0.125\n"
      "x_bucket{le=\"+Inf\"} 4\n";
  expect(perfbench::parse_prometheus(body, &m), "exposition parses");
  expect(m["hier_zone_nrmse{zone=\"3\"}"] == 0.125, "labelled series keyed with labels");
  using perfbench::GwCoherence;
  expect(perfbench::gw_coherence(m) == GwCoherence::kExact, "frames = accepted + busy + errors");
  m["gw_ingest_busy"] = 1;
  expect(perfbench::gw_coherence(m) == GwCoherence::kTorn, "answers behind frames: torn");
  m["gw_ingest_busy"] = 3;
  expect(perfbench::gw_coherence(m) == GwCoherence::kBroken, "more answers than frames");
  std::map<std::string, double> junk;
  expect(!perfbench::parse_prometheus("gw_ingest_frames ten\n", &junk), "bad value rejected");
  expect(!perfbench::parse_prometheus("novalue\n", &junk), "missing value rejected");
}

}  // namespace

int main() {
  test_tail_rule();
  test_log_histogram();
  test_span_union();
  test_fail_share_with_retries();
  test_prometheus();
  std::printf("selftest: %d checks, %d failed\n", checks, failures);
  return failures == 0 ? 0 : 1;
}
