// Structured operators (DESIGN.md §15): the fast-DCT subsampled
// operator against its dense twin, the whitening row scaler, the
// separable DCT basis fill, operator-core CHS, and the NanoCloud's
// size-chosen basis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "cs/chs.h"
#include "cs/measurement.h"
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

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace

// ------------------------------------------------------ Dct2Basis ----

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

  // Up to n = 1024 a separable DCT zone holds its two Kronecker factors:
  // 8 (w^2 + h^2) bytes, not the 8 n^2 of the dense matrix.
  const sh::NanoCloud kron_zone(at_crossover, cfg, rng);
  EXPECT_EQ(kron_zone.basis_state_bytes(),
            std::size_t{(32 * 32 + 32 * 32) * sizeof(double)});

  // The stacked 1-D DCT is not separable: a dense 8 n^2 matrix.
  sh::NanoCloudConfig stacked = cfg;
  stacked.separable_2d = false;
  const sh::NanoCloud dense_zone(at_crossover, stacked, rng);
  EXPECT_EQ(dense_zone.basis_state_bytes(),
            std::size_t{1024 * 1024 * sizeof(double)});

  // Beyond it, the fast-DCT operator: O(n) state, and rounds still run.
  sh::NanoCloud fast_zone(above, cfg, rng);
  EXPECT_LT(fast_zone.basis_state_bytes(), 64 * above.size());
  const auto res = fast_zone.gather(400, rng);
  EXPECT_GT(res.m_used, 300u);
  EXPECT_LT(res.nrmse, 0.1);
}

TEST(NanoCloudBasis, SameShapeZonesOwnEqualBases) {
  sl::Rng field_rng(114);
  const auto a = sf::random_plume_field(16, 16, 2, field_rng, 20.0);
  const auto b = sf::random_plume_field(16, 16, 2, field_rng, 20.0);
  const auto wide = sf::random_plume_field(32, 8, 2, field_rng, 20.0);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  sl::Rng rng(115);

  // A separable DCT2 basis is 8 (w^2 + h^2) bytes, so every zone holds its
  // own copy; same-shape copies are entry-for-entry dct2_basis.
  auto za = std::make_unique<sh::NanoCloud>(a, cfg, rng);
  const sh::NanoCloud zb(b, cfg, rng);
  EXPECT_NE(&za->basis(), &zb.basis());
  EXPECT_EQ(zb.basis_state_bytes(), std::size_t{2 * 16 * 16 * sizeof(double)});
  const sl::Matrix want = sl::dct2_basis(16, 16);
  EXPECT_EQ(max_abs_diff(za->basis().to_dense().data(), want.data()), 0.0);
  EXPECT_EQ(max_abs_diff(zb.basis().to_dense().data(), want.data()), 0.0);

  // Another shape with the same N: its own factors, 8 (32^2 + 8^2) bytes.
  const sh::NanoCloud zw(wide, cfg, rng);
  EXPECT_EQ(zw.basis_state_bytes(),
            std::size_t{(32 * 32 + 8 * 8) * sizeof(double)});
  EXPECT_EQ(max_abs_diff(zw.basis().to_dense().data(),
                         sl::dct2_basis(32, 8).data()),
            0.0);

  // A zone's basis lives and dies with the zone; the others keep running.
  za.reset();
  sh::NanoCloud zc(b, cfg, rng);
  const auto res = zc.gather(80, rng);
  EXPECT_GT(res.m_used, 60u);
  EXPECT_LT(res.nrmse, 0.2);
}
