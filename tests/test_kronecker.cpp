// KroneckerOperator (linalg/operator.h): the separable zone basis held as
// its two 1-D factors.  Entries (column_into, select_rows) must equal
// dct2_basis bit for bit, because CHS refits and synthesizes from them;
// the two-factor products (apply, apply_transpose) only have to agree
// with the dense GEMV to rounding.  The CHS checks run the NanoCloud's
// own reconstruction options against the Matrix overload on dct2_basis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <utility>
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
namespace sf = sensedroid::field;
namespace sh = sensedroid::hierarchy;
namespace sl = sensedroid::linalg;

namespace {

struct Shape {
  std::size_t w, h;
};
constexpr Shape kShapes[] = {{8, 8}, {32, 32}, {16, 8}, {1, 32}, {32, 1}};

sl::KroneckerOperator dct2_operator(std::size_t w, std::size_t h) {
  return sl::KroneckerOperator(sl::dct_basis(w), sl::dct_basis(h));
}

// Entries of `got` that differ from `want` (exact comparison).
std::size_t mismatches(std::span<const double> got,
                       std::span<const double> want) {
  if (got.size() != want.size()) return std::max(got.size(), want.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) bad += got[i] != want[i];
  return bad;
}

double rel_err(std::span<const double> got, std::span<const double> want) {
  return sl::norm2(sl::subtract(got, want)) /
         std::max(sl::norm2(want), 1e-300);
}

sl::Matrix random_matrix(std::size_t rows, std::size_t cols, sl::Rng& rng) {
  sl::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.gaussian();
  }
  return m;
}

TEST(KroneckerOperator, ColumnsEqualDct2Basis) {
  for (const auto [w, h] : kShapes) {
    const sl::Matrix dense = sl::dct2_basis(w, h);
    const auto op = dct2_operator(w, h);
    ASSERT_EQ(op.rows(), w * h);
    ASSERT_EQ(op.cols(), w * h);
    sl::Vector got(op.rows());
    sl::Vector want(op.rows());
    std::size_t bad = 0;
    for (std::size_t c = 0; c < op.cols(); ++c) {
      op.column_into(c, got);
      dense.col_into(c, want);
      bad += mismatches(got, want);
    }
    EXPECT_EQ(bad, 0u) << w << "x" << h;
  }
}

TEST(KroneckerOperator, RowSelectionEqualsDct2Basis) {
  sl::Rng rng(1);
  for (const auto [w, h] : kShapes) {
    const std::size_t n = w * h;
    const sl::Matrix dense = sl::dct2_basis(w, h);
    const auto op = dct2_operator(w, h);
    // Every row, then a random subset in plan order (sorted), then an
    // unsorted list with a repeat.
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    auto some =
        rng.sample_without_replacement(n, std::max<std::size_t>(n / 10, 1));
    std::sort(some.begin(), some.end());
    const std::vector<std::size_t> odd{n - 1, 0, n / 2, n - 1};
    for (const auto& idx : {all, some, odd}) {
      const sl::Matrix got = op.select_rows(idx);
      const sl::Matrix want = dense.select_rows(idx);
      ASSERT_EQ(got.rows(), idx.size());
      ASSERT_EQ(got.cols(), n);
      EXPECT_EQ(mismatches(got.data(), want.data()), 0u)
          << w << "x" << h << " rows=" << idx.size();
    }
  }
}

TEST(KroneckerOperator, GeneralFactorsMatchKroneckerEntries) {
  // Non-square, unequal factors: the index layout, not just the DCT case.
  sl::Rng rng(2);
  const sl::Matrix a = random_matrix(3, 5, rng);
  const sl::Matrix b = random_matrix(4, 2, rng);
  const sl::Matrix dense = sl::kronecker(a, b);
  const sl::KroneckerOperator op(a, b);
  ASSERT_EQ(op.rows(), 12u);
  ASSERT_EQ(op.cols(), 10u);
  EXPECT_EQ(op.state_bytes(), (15u + 8u) * sizeof(double));
  EXPECT_EQ(mismatches(op.to_dense().data(), dense.data()), 0u);
  const std::vector<std::size_t> idx{11, 0, 5};
  EXPECT_EQ(mismatches(op.select_rows(idx).data(),
                       dense.select_rows(idx).data()),
            0u);

  const sl::Vector x = rng.gaussian_vector(op.cols());
  const sl::Vector y = rng.gaussian_vector(op.rows());
  EXPECT_LE(rel_err(op.apply(x), dense * x), 1e-12);
  EXPECT_LE(rel_err(op.apply_transpose(y), dense.transpose_times(y)), 1e-12);
}

TEST(KroneckerOperator, AdjointIdentity) {
  sl::Rng rng(3);
  for (const auto [w, h] : kShapes) {
    const auto op = dct2_operator(w, h);
    for (int trial = 0; trial < 4; ++trial) {
      const sl::Vector x = rng.gaussian_vector(op.cols());
      const sl::Vector y = rng.gaussian_vector(op.rows());
      const double lhs = sl::dot(op.apply(x), y);
      const double rhs = sl::dot(x, op.apply_transpose(y));
      EXPECT_NEAR(lhs, rhs, 1e-12 * sl::norm2(x) * sl::norm2(y))
          << w << "x" << h;
    }
  }
}

TEST(KroneckerOperator, ProductsMatchDenseMatrix) {
  sl::Rng rng(4);
  for (const auto [w, h] : kShapes) {
    const sl::Matrix dense = sl::dct2_basis(w, h);
    const auto op = dct2_operator(w, h);
    sl::Vector out(op.rows());
    for (int trial = 0; trial < 4; ++trial) {
      const sl::Vector x = rng.gaussian_vector(op.cols());
      op.apply_into(x, out);
      EXPECT_LE(rel_err(out, dense * x), 1e-12) << w << "x" << h;
      op.apply_transpose_into(x, out);
      EXPECT_LE(rel_err(out, dense.transpose_times(x)), 1e-12)
          << w << "x" << h;
    }
  }
}

TEST(KroneckerOperator, NanSpreadsLikeTheDenseProduct) {
  // Straight-line products: a zero factor entry times NaN is still NaN,
  // so every output the dense product poisons is poisoned here too.
  const sl::Matrix eye = sl::Matrix::identity(2);
  const sl::KroneckerOperator op(eye, eye);
  const sl::Matrix dense = sl::kronecker(eye, eye);
  sl::Vector v{std::numeric_limits<double>::quiet_NaN(), 0.0, 0.0, 0.0};
  const sl::Vector fwd = op.apply(v);
  const sl::Vector adj = op.apply_transpose(v);
  const sl::Vector dense_adj = dense.transpose_times(v);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::isnan(adj[i])) << i;
    EXPECT_TRUE(std::isnan(dense_adj[i])) << i;
  }
  EXPECT_TRUE(std::isnan(fwd[0]));
}

TEST(KroneckerOperator, Validation) {
  EXPECT_THROW(sl::KroneckerOperator(sl::Matrix(), sl::dct_basis(4)),
               std::invalid_argument);
  EXPECT_THROW(sl::KroneckerOperator(sl::dct_basis(4), sl::Matrix()),
               std::invalid_argument);
  const auto op = dct2_operator(4, 2);
  sl::Vector short_vec(7);
  sl::Vector out(8);
  EXPECT_THROW(op.apply_into(short_vec, out), std::invalid_argument);
  EXPECT_THROW(op.apply_transpose_into(short_vec, out),
               std::invalid_argument);
  EXPECT_THROW(op.column_into(8, out), std::out_of_range);
  EXPECT_THROW(op.column_into(0, short_vec), std::invalid_argument);
  const std::vector<std::size_t> past_end{0, 8};
  EXPECT_THROW((void)op.select_rows(past_end), std::out_of_range);
}

TEST(KroneckerOperator, DefaultAndDenseRowSelection) {
  // The base-class select_rows assembles columns; the fast-DCT operator's
  // closed-form columns make it exact too.  DenseOperator forwards.
  const std::size_t w = 6, h = 4;
  const sl::Matrix dense = sl::dct2_basis(w, h);
  const sl::SubsampledDctOperator fast(w, h, {});
  const sl::DenseOperator wrapped(dense);
  const std::vector<std::size_t> idx{3, 0, 23, 11};
  const sl::Matrix want = dense.select_rows(idx);
  EXPECT_EQ(mismatches(fast.select_rows(idx).data(), want.data()), 0u);
  EXPECT_EQ(mismatches(wrapped.select_rows(idx).data(), want.data()), 0u);
  const std::vector<std::size_t> past_end{24};
  EXPECT_THROW((void)fast.select_rows(past_end), std::out_of_range);
}

// One zone reading as a NanoCloud takes it: smooth plume field, random
// covered cells, heterogeneous phone noise, optional spiking sensors.
sc::Measurement zone_measurement(std::size_t w, std::size_t h, std::size_t m,
                                 bool spikes, sl::Rng& rng) {
  const auto zone = sf::random_plume_field(w, h, 2, rng, 20.0);
  auto plan = sc::MeasurementPlan::random(w * h, m, rng);
  auto noise = sc::SensorNoise::heterogeneous(m, 0.01, 0.3, rng);
  auto meas = sc::measure(zone.flat(), std::move(plan), std::move(noise), rng);
  if (spikes) {
    for (std::size_t s : rng.sample_without_replacement(m, m / 20)) {
      meas.values[s] += 500.0;
    }
  }
  return meas;
}

TEST(KroneckerOperator, ChsMatchesDenseOnNanoCloudMeasurements) {
  sl::Rng rng(5);
  const Shape shapes[] = {{32, 32}, {16, 16}, {16, 8}, {8, 32}};
  for (const auto [w, h] : shapes) {
    const sl::Matrix dense = sl::dct2_basis(w, h);
    const auto op = dct2_operator(w, h);
    for (const bool screened : {false, true}) {
      for (int trial = 0; trial < 3; ++trial) {
        const std::size_t m = std::max<std::size_t>(w * h / 10, 24);
        const auto meas = zone_measurement(w, h, m, screened, rng);
        sc::ChsOptions opts = sh::NanoCloudConfig{}.chs;  // kLinear, GLS
        opts.grid_height = h;                             // as NanoCloud sets it
        if (screened) opts.mad_threshold = 5.0;
        const auto want = sc::chs_reconstruct(dense, meas, opts);
        const auto got = sc::chs_reconstruct(op, meas, opts);
        EXPECT_EQ(got.degraded, screened) << w << "x" << h;
        EXPECT_EQ(got.outliers_rejected, want.outliers_rejected);
        EXPECT_EQ(got.support, want.support)
            << w << "x" << h << " screened=" << screened;
        EXPECT_LE(sl::norm_inf(sl::subtract(got.reconstruction,
                                           want.reconstruction)),
                  1e-9)
            << w << "x" << h << " screened=" << screened;
        EXPECT_GT(got.iterations, 0u);
      }
    }
  }
}

TEST(KroneckerOperator, ZeroFillChsIsBitIdenticalToDense) {
  // Zero-fill analyzes through the exact row slice, so no step of the
  // solve sees the two-factor rounding: OLS (incremental-QR cache) and
  // GLS refits alike reproduce the dense overload bit for bit.
  sl::Rng rng(6);
  const std::size_t w = 16, h = 16;
  const sl::Matrix dense = sl::dct2_basis(w, h);
  const auto op = dct2_operator(w, h);
  for (const char* refit : {"ols", "gls"}) {
    const auto meas = zone_measurement(w, h, 60, false, rng);
    sc::ChsOptions opts;
    opts.refit_solver = refit;
    opts.max_support = 20;
    const auto want = sc::chs_reconstruct(dense, meas, opts);
    const auto got = sc::chs_reconstruct(op, meas, opts);
    EXPECT_EQ(got.support, want.support) << refit;
    EXPECT_EQ(mismatches(got.reconstruction, want.reconstruction), 0u)
        << refit;
    EXPECT_EQ(mismatches(got.coefficients, want.coefficients), 0u) << refit;
    EXPECT_GT(got.iterations, 1u) << refit;
  }
}

}  // namespace
