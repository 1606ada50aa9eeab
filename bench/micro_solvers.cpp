// E11 — google-benchmark microbenchmarks of the CS solver stack: the
// costs a broker pays per reconstruction and a node pays per context
// window.
// Each run emits a RunReport (solver iteration counts, residual and
// latency histograms) as JSON — to $SENSEDROID_REPORT when set, else
// stdout — so BENCH_*.json trajectories capture solver-internal work,
// not just wall time.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cs/basis_pursuit.h"
#include "cs/greedy_variants.h"
#include "cs/chs.h"
#include "cs/least_squares.h"
#include "cs/omp.h"
#include "linalg/basis.h"
#include "linalg/decomposition.h"
#include "linalg/operator.h"
#include "linalg/random.h"
#include "obs/metrics.h"
#include "obs/report.h"

using namespace sensedroid;

namespace {

linalg::Matrix random_matrix(std::size_t m, std::size_t n,
                             std::uint64_t seed) {
  linalg::Rng rng(seed);
  linalg::Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.gaussian();
  }
  return a;
}

linalg::Vector sparse_signal(const linalg::Matrix& basis, std::size_t k,
                             linalg::Rng& rng) {
  linalg::Vector alpha(basis.cols(), 0.0);
  for (std::size_t j : rng.sample_without_replacement(basis.cols() / 2, k)) {
    alpha[j] = rng.uniform(1.0, 2.0);
  }
  return basis * alpha;
}

void BM_DctBasisBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::dct_basis(n));
  }
}
BENCHMARK(BM_DctBasisBuild)->Arg(64)->Arg(256)->Arg(512);

void BM_Omp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = n / 4, k = 6;
  const auto a = random_matrix(m, n, 11);
  linalg::Rng rng(12);
  linalg::Vector alpha(n, 0.0);
  for (std::size_t j : rng.sample_without_replacement(n, k)) {
    alpha[j] = rng.uniform(1.0, 2.0);
  }
  const auto y = a * alpha;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs::omp_solve(a, y, {.max_sparsity = k}));
  }
}
BENCHMARK(BM_Omp)->Arg(128)->Arg(256)->Arg(512);

void BM_Cosamp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = n / 4, k = 6;
  const auto a = random_matrix(m, n, 21);
  linalg::Rng rng(22);
  linalg::Vector alpha(n, 0.0);
  for (std::size_t j : rng.sample_without_replacement(n, k)) {
    alpha[j] = rng.uniform(1.0, 2.0);
  }
  const auto y = a * alpha;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs::cosamp_solve(a, y, {.sparsity = k}));
  }
}
BENCHMARK(BM_Cosamp)->Arg(128)->Arg(256)->Arg(512);

void BM_Niht(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = n / 4, k = 6;
  const auto a = random_matrix(m, n, 23);
  linalg::Rng rng(24);
  linalg::Vector alpha(n, 0.0);
  for (std::size_t j : rng.sample_without_replacement(n, k)) {
    alpha[j] = rng.uniform(1.0, 2.0);
  }
  const auto y = a * alpha;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs::iht_solve(a, y, {.sparsity = k}));
  }
}
BENCHMARK(BM_Niht)->Arg(128)->Arg(256)->Arg(512);

void BM_BasisPursuitLp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = n / 4, k = 4;
  const auto a = random_matrix(m, n, 13);
  linalg::Rng rng(14);
  linalg::Vector alpha(n, 0.0);
  for (std::size_t j : rng.sample_without_replacement(n, k)) {
    alpha[j] = rng.uniform(1.0, 2.0);
  }
  const auto y = a * alpha;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs::basis_pursuit(a, y));
  }
}
BENCHMARK(BM_BasisPursuitLp)->Arg(48)->Arg(96);

void BM_ChsReconstruct(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = n / 4;
  const auto basis = linalg::dct_basis(n);
  linalg::Rng rng(15);
  const auto x = sparse_signal(basis, 6, rng);
  auto plan = cs::MeasurementPlan::random(n, m, rng);
  const auto meas = cs::measure_exact(x, std::move(plan));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs::chs_reconstruct(basis, meas));
  }
}
BENCHMARK(BM_ChsReconstruct)->Arg(128)->Arg(256)->Arg(512);

void BM_Ols(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::size_t k = m / 3;
  const auto a = random_matrix(m, k, 16);
  linalg::Rng rng(17);
  const auto y = rng.gaussian_vector(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs::solve_ols(a, y));
  }
}
BENCHMARK(BM_Ols)->Arg(32)->Arg(128)->Arg(512);

void BM_GlsDiag(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::size_t k = m / 3;
  const auto a = random_matrix(m, k, 18);
  linalg::Rng rng(19);
  const auto y = rng.gaussian_vector(m);
  linalg::Vector sigma(m);
  for (auto& s : sigma) s = rng.uniform(0.01, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs::solve_gls_diag(a, y, sigma));
  }
}
BENCHMARK(BM_GlsDiag)->Arg(32)->Arg(128)->Arg(512);

void BM_PseudoInverse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_matrix(n + 8, n, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::pseudo_inverse(a));
  }
}
BENCHMARK(BM_PseudoInverse)->Arg(16)->Arg(48);

// ---------------------------------------------------------------------
// Fig. 4 regime trajectory point: median per-solve microseconds for each
// solver at n=256, m=30, k~10 (the per-zone per-round hot path the exec
// engine fans out).  Written as machine-readable JSON to
// $SENSEDROID_BENCH_JSON (default ./BENCH_solvers.json) so the bench
// trajectory has comparable before/after points across PRs.

template <typename Fn>
double median_solve_us(std::size_t reps, Fn&& solve_once) {
  std::vector<double> us;
  us.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    solve_once();
    const auto t1 = std::chrono::steady_clock::now();
    us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

bool write_fig4_regime_json() {
  constexpr std::size_t n = 256, m = 30, k = 10, reps = 400;
  const auto basis = linalg::dct_basis(n);
  linalg::Rng rng(404);
  linalg::Vector alpha(n, 0.0);
  for (std::size_t j : rng.sample_without_replacement(n, k)) {
    alpha[j] = rng.uniform(1.0, 2.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
  }
  const auto x = basis * alpha;
  auto plan = cs::MeasurementPlan::random(n, m, rng);
  const auto meas = cs::measure_exact(x, plan);
  const linalg::Matrix a = plan.select_rows(basis);  // M x N dictionary
  const linalg::Vector& y = meas.values;
  const auto support_cols = a.select_cols(rng.sample_without_replacement(n, k));

  const double omp_us = median_solve_us(reps, [&] {
    benchmark::DoNotOptimize(cs::omp_solve(a, y, {.max_sparsity = k}));
  });
  const double cosamp_us = median_solve_us(reps, [&] {
    benchmark::DoNotOptimize(cs::cosamp_solve(a, y, {.sparsity = k}));
  });
  const double iht_us = median_solve_us(reps, [&] {
    benchmark::DoNotOptimize(cs::iht_solve(a, y, {.sparsity = k}));
  });
  const double chs_us = median_solve_us(reps, [&] {
    benchmark::DoNotOptimize(cs::chs_reconstruct(basis, meas));
  });
  const double ols_us = median_solve_us(reps, [&] {
    benchmark::DoNotOptimize(cs::solve_ols(support_cols, y));
  });

  // Basis pursuit two ways.  "bp" is the revised simplex from its crash
  // start; "bp_warm" re-solves the same instance from the previous
  // solve's exported basis — the CHS cache-hit path, where the warm
  // basis is accepted and phase 2 terminates after one confirming price
  // (a perturbed-RHS warm basis is generally primal infeasible and falls
  // back to the crash start, i.e. it measures "bp" again).
  const double bp_us = median_solve_us(reps, [&] {
    benchmark::DoNotOptimize(cs::bp_solve(a, y));
  });

  const cs::BpSolution warm_seed = cs::bp_solve(a, y);
  cs::BasisPursuitOptions warm_opts;
  warm_opts.lp.warm_basis = warm_seed.basis;
  const double bp_warm_us = median_solve_us(reps, [&] {
    benchmark::DoNotOptimize(cs::bp_solve(a, y, warm_opts));
  });

  // Appends one JSONL trajectory point per run ($SENSEDROID_BENCH_LABEL
  // tags it, e.g. "pre-incremental-qr" vs "incremental-qr") so the file
  // accumulates comparable before/after points across PRs instead of
  // keeping only the newest run.
  const char* env = std::getenv("SENSEDROID_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_solvers.json";
  const char* label_env = std::getenv("SENSEDROID_BENCH_LABEL");
  const char* label = label_env != nullptr ? label_env : "head";
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_solvers: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\"bench\":\"micro_solvers\",\"regime\":\"fig4\","
               "\"label\":\"%s\","
               "\"fixture\":{\"n\":%zu,\"m\":%zu,\"k\":%zu,\"reps\":%zu},"
               "\"median_us\":{\"omp\":%.3f,\"cosamp\":%.3f,\"iht\":%.3f,"
               "\"chs\":%.3f,\"ols_30x10\":%.3f,\"bp\":%.3f,"
               "\"bp_warm\":%.3f}}\n",
               label, n, m, k, reps, omp_us, cosamp_us, iht_us, chs_us,
               ols_us, bp_us, bp_warm_us);
  std::fclose(f);
  std::printf("fig4 regime (n=%zu m=%zu k=%zu) median us: omp=%.2f "
              "cosamp=%.2f iht=%.2f chs=%.2f ols=%.2f bp=%.2f "
              "bp_warm=%.2f -> %s\n",
              n, m, k, omp_us, cosamp_us, iht_us, chs_us, ols_us, bp_us,
              bp_warm_us, path.c_str());
  return true;
}

// ---------------------------------------------------------------------
// Operator trajectory point (regime "batch_ops", the name of the series
// it continues; gated by check_regression.py --batch and by the plain
// trajectory mode):
//
//   sweep_dense_nN /  one A^T r correlation sweep at m = N/8, dense
//   sweep_fastdct_nN  matrix vs SubsampledDctOperator (>= 5x at 4096);
//   sweep_kron_nN     one CHS analyze sweep Phi^T e over the full grid of a
//                     sqrt(N) x sqrt(N) zone through the KroneckerOperator
//                     of its separable DCT2 basis (N inputs, not N/8; the
//                     dense equivalent is an N x N GEMV) — under
//                     "report_us", reporting only, never gated;
//   state_bytes       bytes each sweep fixture holds to represent A —
//                     reporting only, never trajectory-gated.

bool write_operator_json() {
  linalg::Rng rng(505);

  // One correlation sweep per rep, dense vs fast-DCT, m = N/8.  The
  // dense twin is assembled from the operator's exact columns so the two
  // sweeps compute the same product.
  struct SweepPoint {
    std::size_t n = 0;
    double dense_us = 0.0;
    double fast_us = 0.0;
    double kron_us = 0.0;
    std::size_t dense_bytes = 0;
    std::size_t fast_bytes = 0;
    std::size_t kron_bytes = 0;
  };
  std::vector<SweepPoint> sweeps;
  for (const std::size_t sn : {std::size_t{256}, std::size_t{1024},
                               std::size_t{4096}}) {
    const std::size_t sm = sn / 8;
    auto rows = rng.sample_without_replacement(sn, sm);
    std::vector<std::size_t> idx(rows.begin(), rows.end());
    std::sort(idx.begin(), idx.end());
    const linalg::SubsampledDctOperator op(sn, idx);
    const linalg::Matrix dense = op.to_dense();
    const auto r = linalg::Rng(sn).gaussian_vector(sm);
    linalg::Vector corr(sn);
    const std::size_t reps = std::max<std::size_t>(20, 400'000 / sn);
    SweepPoint p;
    p.n = sn;
    p.dense_us = median_solve_us(reps, [&] {
      dense.transpose_times_into(r, corr);
      benchmark::DoNotOptimize(corr.data());
    });
    p.fast_us = median_solve_us(reps, [&] {
      op.apply_transpose_into(r, corr);
      benchmark::DoNotOptimize(corr.data());
    });
    const auto side = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(sn))));  // square zone
    const linalg::KroneckerOperator kron(linalg::dct_basis(side),
                                         linalg::dct_basis(side));
    const auto grid = linalg::Rng(sn + 1).gaussian_vector(sn);
    p.kron_us = median_solve_us(reps, [&] {
      kron.apply_transpose_into(grid, corr);
      benchmark::DoNotOptimize(corr.data());
    });
    p.dense_bytes = sm * sn * sizeof(double);
    p.fast_bytes = op.state_bytes();
    p.kron_bytes = kron.state_bytes();
    sweeps.push_back(p);
  }

  const char* env = std::getenv("SENSEDROID_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_solvers.json";
  const char* label_env = std::getenv("SENSEDROID_BENCH_LABEL");
  const char* label = label_env != nullptr ? label_env : "head";
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_solvers: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\"bench\":\"micro_solvers\",\"regime\":\"batch_ops\","
               "\"label\":\"%s\",\"median_us\":{",
               label);
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    std::fprintf(f, "%s\"sweep_dense_n%zu\":%.3f,\"sweep_fastdct_n%zu\":%.3f",
                 i == 0 ? "" : ",", sweeps[i].n, sweeps[i].dense_us,
                 sweeps[i].n, sweeps[i].fast_us);
  }
  std::fprintf(f, "},\"report_us\":{");
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    std::fprintf(f, "%s\"sweep_kron_n%zu\":%.3f", i == 0 ? "" : ",",
                 sweeps[i].n, sweeps[i].kron_us);
  }
  std::fprintf(f, "},\"state_bytes\":{");
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    std::fprintf(f,
                 "%s\"sweep_dense_n%zu\":%zu,\"sweep_fastdct_n%zu\":%zu,"
                 "\"sweep_kron_n%zu\":%zu",
                 i == 0 ? "" : ",", sweeps[i].n, sweeps[i].dense_bytes,
                 sweeps[i].n, sweeps[i].fast_bytes, sweeps[i].n,
                 sweeps[i].kron_bytes);
  }
  std::fprintf(f, "}}\n");
  std::fclose(f);
  std::printf("batch_ops regime:");
  for (const auto& p : sweeps) {
    std::printf(" sweep n=%zu dense=%.2fus fast=%.2fus (%.2fx) kron=%.2fus;",
                p.n, p.dense_us, p.fast_us,
                p.fast_us > 0.0 ? p.dense_us / p.fast_us : 0.0, p.kron_us);
  }
  std::printf(" -> %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Attach the registry for the whole run: the per-call overhead (one
  // atomic load when idle, a mutex-guarded map lookup when counting) is
  // part of what production deployments pay, so the benches measure it.
  obs::MetricsRegistry registry;
  obs::attach_registry(&registry);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const bool bench_json_ok =
      write_fig4_regime_json() && write_operator_json();

  auto report = obs::RunReport::from_registry(registry, "micro_solvers");
  obs::attach_registry(nullptr);
  return obs::write_report(report) && bench_json_ok ? 0 : 1;
}
