// Batch-of-signals solving and structured operators (DESIGN.md §15):
// the blocked A^T R kernel, the fast-DCT subsampled operator against its
// dense twin, batch-vs-sequential equality for every registry solver,
// operator-core CHS, and the NanoCloud's size-chosen basis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "cs/cancel.h"
#include "cs/chs.h"
#include "cs/greedy_variants.h"
#include "cs/measurement.h"
#include "cs/omp.h"
#include "cs/solver.h"
#include "field/generators.h"
#include "hierarchy/nanocloud.h"
#include "linalg/basis.h"
#include "linalg/operator.h"
#include "linalg/random.h"
#include "linalg/vector_ops.h"

namespace sc = sensedroid::cs;
namespace sh = sensedroid::hierarchy;
namespace sf = sensedroid::field;
namespace sl = sensedroid::linalg;

namespace {

sl::Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  sl::Rng rng(seed);
  sl::Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.gaussian();
  }
  return a;
}

// y = A alpha for a random k-sparse alpha with magnitudes in [1, 2].
sl::Vector sparse_signal(const sl::Matrix& a, std::size_t k, sl::Rng& rng) {
  sl::Vector alpha(a.cols(), 0.0);
  for (std::size_t j : rng.sample_without_replacement(a.cols(), k)) {
    const double mag = rng.uniform(1.0, 2.0);
    alpha[j] = rng.bernoulli(0.5) ? mag : -mag;
  }
  return a * alpha;
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace

// --------------------------------------------------- blocked kernels ----

TEST(TransposeTimesBlock, BitIdenticalToPerSignalSweeps) {
  const auto a = random_matrix(23, 41, 11);
  sl::Rng rng(12);
  const std::size_t bcount = 5;
  std::vector<double> stacked(bcount * a.rows());
  for (double& v : stacked) v = rng.gaussian();

  std::vector<double> block(bcount * a.cols());
  a.transpose_times_block(stacked, bcount, block);

  for (std::size_t b = 0; b < bcount; ++b) {
    sl::Vector one(a.cols());
    a.transpose_times_into(
        std::span<const double>(stacked).subspan(b * a.rows(), a.rows()),
        one);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(block[b * a.cols() + j], one[j]) << "signal " << b
                                                 << " col " << j;
    }
  }
}

TEST(Dct2Basis, SeparableFillMatchesKroneckerExactly) {
  // Non-square and square grids: the cached-factor fill must reproduce
  // kron(dct_w, dct_h) entry-for-entry (same products, same order).
  const std::vector<std::pair<std::size_t, std::size_t>> grids{{5, 7}, {6, 6}};
  for (const auto& [w, h] : grids) {
    const auto direct = sl::dct2_basis(w, h);
    const auto kron = sl::kronecker(sl::dct_basis(w), sl::dct_basis(h));
    ASSERT_EQ(direct.rows(), kron.rows());
    ASSERT_EQ(direct.cols(), kron.cols());
    for (std::size_t i = 0; i < direct.rows(); ++i) {
      for (std::size_t j = 0; j < direct.cols(); ++j) {
        EXPECT_EQ(direct(i, j), kron(i, j)) << w << "x" << h << " @ (" << i
                                            << "," << j << ")";
      }
    }
  }
}

// ------------------------------------------- SubsampledDctOperator ----

namespace {

// Dense twin of the subsampled 1-D DCT operator.
sl::Matrix dense_rows(const sl::Matrix& basis,
                      std::span<const std::size_t> rows) {
  sl::Matrix out(rows.size(), basis.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < basis.cols(); ++j) {
      out(i, j) = basis(rows[i], j);
    }
  }
  return out;
}

void expect_operator_matches_dense(const sl::LinearOperator& op,
                                   const sl::Matrix& dense, double tol,
                                   std::uint64_t seed) {
  ASSERT_EQ(op.rows(), dense.rows());
  ASSERT_EQ(op.cols(), dense.cols());
  sl::Rng rng(seed);
  const auto x = rng.gaussian_vector(dense.cols());
  const auto y = rng.gaussian_vector(dense.rows());
  EXPECT_LE(max_abs_diff(op.apply(x), dense * x), tol);
  EXPECT_LE(max_abs_diff(op.apply_transpose(y), dense.transpose_times(y)),
            tol);
  // Column entries are computed from the closed form, not the transform:
  // exact equality with the basis builders.
  sl::Vector col(dense.rows());
  for (std::size_t c : {std::size_t{0}, dense.cols() / 2, dense.cols() - 1}) {
    op.column_into(c, col);
    for (std::size_t i = 0; i < dense.rows(); ++i) {
      EXPECT_EQ(col[i], dense(i, c)) << "col " << c << " row " << i;
    }
  }
  sl::Vector sq(dense.cols());
  sl::Vector sq_dense(dense.cols());
  op.column_sqnorms_into(sq);
  dense.col_sqnorms_into(sq_dense);
  EXPECT_LE(max_abs_diff(sq, sq_dense), tol);
}

}  // namespace

TEST(SubsampledDctOperator, MatchesDense1d) {
  // Power-of-two, mixed 2^a*q, and fully odd non-power-of-two sizes.
  // n = 330 = 2 * 3 * 5 * 11 leaves a large odd base case, so the
  // butterfly recursion is shallow and rounding accumulates a bit more.
  struct Case {
    std::size_t n;
    double tol;
  };
  for (const auto& c :
       {Case{64, 1e-12}, Case{96, 1e-12}, Case{100, 1e-12}, Case{330, 5e-12}}) {
    const auto basis = sl::dct_basis(c.n);
    sl::Rng rng(c.n);
    const auto rows = rng.sample_without_replacement(c.n, c.n / 3);
    std::vector<std::size_t> idx(rows.begin(), rows.end());
    std::sort(idx.begin(), idx.end());
    sl::SubsampledDctOperator op(c.n, idx);
    expect_operator_matches_dense(op, dense_rows(basis, idx), c.tol, c.n + 1);
  }
}

TEST(SubsampledDctOperator, MatchesDense2d) {
  // 8 x 12 grid (n = 96): separable basis with distinct factor lengths.
  const std::size_t w = 8, h = 12, n = w * h;
  const auto basis = sl::dct2_basis(w, h);
  sl::Rng rng(77);
  auto rows = rng.sample_without_replacement(n, 40);
  std::vector<std::size_t> idx(rows.begin(), rows.end());
  std::sort(idx.begin(), idx.end());
  sl::SubsampledDctOperator op(w, h, idx);
  expect_operator_matches_dense(op, dense_rows(basis, idx), 1e-12, 78);
}

TEST(SubsampledDctOperator, EmptyRowListIsFullSquareOperator) {
  const std::size_t n = 48;
  sl::SubsampledDctOperator op(n, {});
  EXPECT_EQ(op.rows(), n);
  EXPECT_EQ(op.cols(), n);
  expect_operator_matches_dense(op, sl::dct_basis(n), 1e-12, 79);
}

TEST(SubsampledDctOperator, StateIsLinearNotQuadratic) {
  const std::size_t n = 4096;
  sl::Rng rng(80);
  auto rows = rng.sample_without_replacement(n, 300);
  std::vector<std::size_t> idx(rows.begin(), rows.end());
  std::sort(idx.begin(), idx.end());
  sl::SubsampledDctOperator op(n, idx);
  const std::size_t dense_bytes = idx.size() * n * sizeof(double);
  EXPECT_LT(op.state_bytes(), dense_bytes / 10);
}

TEST(ScaledRowOperator, MatchesDenseWhitening) {
  const std::size_t m = 20, n = 32;
  const auto a = random_matrix(m, n, 81);
  sl::Rng rng(82);
  std::vector<double> w(m);
  for (double& v : w) v = rng.uniform(0.5, 2.0);
  sl::Matrix scaled = a;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) scaled(i, j) *= w[i];
  }
  sl::DenseOperator inner(a);
  sl::ScaledRowOperator op(inner, w);
  expect_operator_matches_dense(op, scaled, 1e-12, 83);
}

TEST(SensingOperatorFactories, MatchSelectRows) {
  sl::Rng rng(84);
  const std::size_t n = 96;
  auto plan = sc::MeasurementPlan::random(n, 30, rng);
  auto op1 = sc::dct_sensing_operator(plan);
  expect_operator_matches_dense(*op1, plan.select_rows(sl::dct_basis(n)),
                                1e-12, 85);
  auto op2 = sc::dct2_sensing_operator(plan, 8, 12);
  expect_operator_matches_dense(*op2, plan.select_rows(sl::dct2_basis(8, 12)),
                                1e-12, 86);
  EXPECT_THROW(sc::dct2_sensing_operator(plan, 8, 11), std::invalid_argument);
}

// ------------------------------------------------ batch vs sequential ----

namespace {

void expect_batch_matches_sequential(
    const std::vector<sc::SparseSolution>& batch,
    const std::vector<sc::SparseSolution>& seq, double coef_tol,
    const char* what) {
  ASSERT_EQ(batch.size(), seq.size()) << what;
  for (std::size_t b = 0; b < batch.size(); ++b) {
    EXPECT_EQ(batch[b].support, seq[b].support) << what << " signal " << b;
    EXPECT_LE(
        max_abs_diff(batch[b].coefficients, seq[b].coefficients), coef_tol)
        << what << " signal " << b;
    EXPECT_NEAR(batch[b].residual_norm, seq[b].residual_norm,
                coef_tol * (1.0 + seq[b].residual_norm))
        << what << " signal " << b;
  }
}

}  // namespace

TEST(SolveBatch, EveryRegistrySolverMatchesSequentialLoop) {
  // The acceptance bar from the batch contract: identical supports,
  // coefficients within 1e-12 of the one-signal-at-a-time loop.  Solvers
  // without an override run the base loop and match trivially; omp,
  // cosamp, and iht run their blocked sweeps and must still agree.
  const auto a = random_matrix(40, 32, 90);
  sl::Rng rng(91);
  std::vector<sl::Vector> ys;
  for (std::size_t b = 0; b < 6; ++b) ys.push_back(sparse_signal(a, 5, rng));

  sc::SolveContext ctx;
  ctx.sparsity = 5;
  for (const auto& name : sc::SolverRegistry::global().names()) {
    auto solver = sc::SolverRegistry::global().create(name);
    std::vector<sc::SparseSolution> seq;
    for (const auto& y : ys) seq.push_back(solver->solve(a, y, ctx));
    const auto batch = solver->solve_batch(a, ys, ctx);
    expect_batch_matches_sequential(batch, seq, 1e-12, name.c_str());
  }
}

TEST(SolveBatch, FreeFunctionBatchesMatchSequential) {
  // Exercise the free-function layer directly, including batch sizes that
  // straddle the Gram gate (bcount large enough to amortize A^T A).
  const auto a = random_matrix(30, 48, 92);
  sl::Rng rng(93);
  for (std::size_t bcount : {std::size_t{1}, std::size_t{3}, std::size_t{17}}) {
    std::vector<sl::Vector> ys;
    for (std::size_t b = 0; b < bcount; ++b) {
      ys.push_back(sparse_signal(a, 6, rng));
    }
    sc::OmpOptions oo;
    oo.max_sparsity = 6;
    std::vector<sc::SparseSolution> seq;
    for (const auto& y : ys) seq.push_back(sc::omp_solve(a, y, oo));
    expect_batch_matches_sequential(sc::omp_solve_batch(a, ys, oo), seq,
                                    1e-12, "omp");

    sc::CosampOptions co;
    co.sparsity = 6;
    seq.clear();
    for (const auto& y : ys) seq.push_back(sc::cosamp_solve(a, y, co));
    expect_batch_matches_sequential(sc::cosamp_solve_batch(a, ys, co), seq,
                                    1e-12, "cosamp");

    sc::IhtOptions io;
    io.sparsity = 6;
    seq.clear();
    for (const auto& y : ys) seq.push_back(sc::iht_solve(a, y, io));
    expect_batch_matches_sequential(sc::iht_solve_batch(a, ys, io), seq,
                                    1e-12, "iht");
  }
}

TEST(SolveBatch, ChunkBoundariesNeverChangeABit) {
  // Each signal's batch output is a deterministic function of
  // (a, y, opts) alone for any bcount >= 2: the Gram gate ignores batch
  // size and the per-signal state never crosses signals.  This is the
  // invariant exec::solve_batch_parallel leans on when it slices a
  // workload by an arbitrary batch_size knob — re-chunking must be
  // bitwise invisible.
  const auto a = random_matrix(28, 44, 97);
  sl::Rng rng(98);
  std::vector<sl::Vector> ys;
  for (std::size_t b = 0; b < 12; ++b) ys.push_back(sparse_signal(a, 5, rng));
  sc::OmpOptions oo;
  oo.max_sparsity = 5;

  const auto whole = sc::omp_solve_batch(a, ys, oo);
  ASSERT_EQ(whole.size(), ys.size());
  std::vector<sc::SparseSolution> rechunked;
  for (const std::size_t count : {std::size_t{4}, std::size_t{6},
                                  std::size_t{2}}) {
    const std::span<const sl::Vector> slice(ys.data() + rechunked.size(),
                                            count);
    for (auto& sol : sc::omp_solve_batch(a, slice, oo)) {
      rechunked.push_back(std::move(sol));
    }
  }
  ASSERT_EQ(rechunked.size(), whole.size());
  for (std::size_t s = 0; s < whole.size(); ++s) {
    SCOPED_TRACE(s);
    EXPECT_EQ(rechunked[s].support, whole[s].support);
    EXPECT_EQ(rechunked[s].residual_norm, whole[s].residual_norm);
    EXPECT_EQ(rechunked[s].iterations, whole[s].iterations);
    ASSERT_EQ(rechunked[s].coefficients.size(), whole[s].coefficients.size());
    for (std::size_t i = 0; i < whole[s].coefficients.size(); ++i) {
      EXPECT_EQ(rechunked[s].coefficients[i], whole[s].coefficients[i]);
    }
  }
}

TEST(SolveBatch, ValidatesShapesAndEmptyBatch) {
  const auto a = random_matrix(10, 16, 94);
  sc::OmpOptions oo;
  EXPECT_TRUE(sc::omp_solve_batch(a, {}, oo).empty());
  std::vector<sl::Vector> bad{sl::Vector(9, 0.0)};
  EXPECT_THROW(sc::omp_solve_batch(a, bad, oo), std::invalid_argument);
}

TEST(SolveBatch, CancelledTokenStopsWholeBatchLikeSequential) {
  // A token cancelled before the call: every member of the batch must
  // come back exactly as the sequential loop would return it (empty
  // support, zero iterations, residual = ||y||).
  const auto a = random_matrix(24, 36, 95);
  sl::Rng rng(96);
  std::vector<sl::Vector> ys;
  for (std::size_t b = 0; b < 4; ++b) ys.push_back(sparse_signal(a, 4, rng));

  sc::CancelToken token;
  token.cancel();
  sc::SolveContext ctx;
  ctx.sparsity = 4;
  ctx.cancel = &token;
  for (const char* name : {"omp", "cosamp", "iht"}) {
    auto solver = sc::SolverRegistry::global().create(name);
    std::vector<sc::SparseSolution> seq;
    for (const auto& y : ys) seq.push_back(solver->solve(a, y, ctx));
    const auto batch = solver->solve_batch(a, ys, ctx);
    expect_batch_matches_sequential(batch, seq, 1e-12, name);
    for (const auto& sol : batch) EXPECT_TRUE(sol.support.empty()) << name;
  }
}

// ----------------------------------------------------- operator CHS ----

TEST(ChsOperator, MatchesDenseBasis1d) {
  const std::size_t n = 64;
  const auto basis = sl::dct_basis(n);
  sl::Rng rng(100);
  sl::Vector alpha(n, 0.0);
  for (std::size_t j : rng.sample_without_replacement(n, 6)) {
    alpha[j] = rng.uniform(1.0, 2.0);
  }
  const auto x = sl::synthesize(basis, alpha);
  auto meas = sc::measure_exact(x, sc::MeasurementPlan::random(n, 28, rng));

  sc::ChsOptions opts;
  opts.max_support = 10;
  const auto dense = sc::chs_reconstruct(basis, meas, opts);
  sl::SubsampledDctOperator op(n, {});
  const auto fast = sc::chs_reconstruct(op, meas, opts);

  EXPECT_EQ(fast.support, dense.support);
  EXPECT_LE(max_abs_diff(fast.coefficients, dense.coefficients), 1e-9);
  EXPECT_LE(max_abs_diff(fast.reconstruction, dense.reconstruction), 1e-9);
}

TEST(ChsOperator, MatchesDenseBasis2dLinearInterpolation) {
  const std::size_t w = 10, h = 8, n = w * h;
  const auto basis = sl::dct2_basis(w, h);
  sl::Rng rng(101);
  sl::Vector alpha(n, 0.0);
  for (std::size_t j : rng.sample_without_replacement(n, 5)) {
    alpha[j] = rng.uniform(1.0, 2.0);
  }
  const auto x = sl::synthesize(basis, alpha);
  auto meas = sc::measure_exact(x, sc::MeasurementPlan::random(n, 32, rng));

  sc::ChsOptions opts;
  opts.max_support = 10;
  opts.interpolation = sc::Interpolation::kLinear;
  opts.grid_height = h;
  const auto dense = sc::chs_reconstruct(basis, meas, opts);
  sl::SubsampledDctOperator op(w, h, {});
  const auto fast = sc::chs_reconstruct(op, meas, opts);

  EXPECT_EQ(fast.support, dense.support);
  EXPECT_LE(max_abs_diff(fast.reconstruction, dense.reconstruction), 1e-9);
}

TEST(ChsOperator, ValidatesNonSquareOperator) {
  sl::Rng rng(102);
  const std::size_t n = 32;
  auto plan = sc::MeasurementPlan::random(n, 12, rng);
  auto meas = sc::measure_exact(sl::Rng(103).gaussian_vector(n), plan);
  // A genuinely subsampled operator is not a square synthesis basis.
  auto sub = sc::dct_sensing_operator(plan);
  EXPECT_THROW(sc::chs_reconstruct(*sub, meas, {}), std::invalid_argument);
}

// ---------------------------------------------------- NanoCloud basis ----

// A zone's basis representation follows its size, so the operator core
// must compute what the dense basis would: on one zone measurement, with
// the NanoCloud's reconstruction options (GLS refit over heterogeneous
// noise, linear Upsilon), operator CHS matches dense CHS.
TEST(NanoCloudBasis, OperatorChsMatchesDenseOnZoneMeasurement) {
  sl::Rng field_rng(110);
  const auto zone = sf::random_plume_field(16, 16, 2, field_rng, 20.0);
  const std::size_t w = zone.width(), h = zone.height(), n = zone.size();
  sl::Rng rng(111);
  auto plan = sc::MeasurementPlan::random(n, 100, rng);
  auto noise = sc::SensorNoise::heterogeneous(100, 0.01, 0.3, rng);
  const auto meas =
      sc::measure(zone.flat(), std::move(plan), std::move(noise), rng);

  for (bool separable : {true, false}) {
    sc::ChsOptions opts = sh::NanoCloudConfig{}.chs;
    if (separable) opts.grid_height = h;  // as NanoCloud sets it
    const auto dense = sc::chs_reconstruct(
        separable ? sl::dct2_basis(w, h) : sl::dct_basis(n), meas, opts);
    const auto op =
        separable ? std::make_unique<sl::SubsampledDctOperator>(
                        w, h, std::vector<std::size_t>{})
                  : std::make_unique<sl::SubsampledDctOperator>(
                        n, std::vector<std::size_t>{});
    const auto fast = sc::chs_reconstruct(*op, meas, opts);
    EXPECT_EQ(fast.support, dense.support) << "separable=" << separable;
    EXPECT_LE(max_abs_diff(fast.reconstruction, dense.reconstruction), 1e-8)
        << "separable=" << separable;
  }
}

TEST(NanoCloudBasis, RepresentationFollowsZoneSize) {
  sl::Rng field_rng(112);
  const auto at_crossover =
      sf::random_plume_field(32, 32, 2, field_rng, 20.0);  // n = 1024
  const auto above = sf::random_plume_field(64, 32, 2, field_rng, 20.0);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  cfg.cell_m = 1.0;  // keep the 64 x 32 zone inside one WiFi cell
  sl::Rng rng(113);

  // Up to n = 1024 the zone holds the dense basis: 8 n^2 bytes.
  const sh::NanoCloud dense_zone(at_crossover, cfg, rng);
  EXPECT_EQ(dense_zone.basis_state_bytes(),
            std::size_t{1024 * 1024 * sizeof(double)});

  // Beyond it, the fast-DCT operator: O(n) state, and rounds still run.
  sh::NanoCloud fast_zone(above, cfg, rng);
  EXPECT_LT(fast_zone.basis_state_bytes(), 64 * above.size());
  const auto res = fast_zone.gather(400, rng);
  EXPECT_GT(res.m_used, 300u);
  EXPECT_LT(res.nrmse, 0.1);
}
