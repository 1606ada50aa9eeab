// Tests for the Compressive Heterogeneous Sensing loop (Fig. 6) and the
// error decomposition of Section 4.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "cs/chs.h"
#include "cs/error_model.h"
#include "linalg/basis.h"
#include "linalg/operator.h"
#include "linalg/random.h"
#include "linalg/vector_ops.h"

namespace sc = sensedroid::cs;
namespace sl = sensedroid::linalg;

namespace {

// Sparse-in-DCT test signal of size n with k active coefficients.
sl::Vector sparse_dct_signal(std::size_t n, std::size_t k, sl::Rng& rng,
                             const sl::Matrix& basis) {
  sl::Vector alpha(n, 0.0);
  for (std::size_t j : rng.sample_without_replacement(n / 2, k)) {
    // Concentrate support in the low frequencies like physical fields do.
    alpha[j] = rng.uniform(1.0, 3.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
  }
  return sl::synthesize(basis, alpha);
}

}  // namespace

// ----------------------------------------------------- interpolation ----

TEST(Interpolation, ZeroFillPlacesValuesOnly) {
  sl::Vector v{1.0, 2.0};
  std::vector<std::size_t> loc{1, 3};
  auto g = sc::interpolate_to_grid(v, loc, 5, sc::Interpolation::kZeroFill);
  EXPECT_DOUBLE_EQ(g[0], 0.0);
  EXPECT_DOUBLE_EQ(g[1], 1.0);
  EXPECT_DOUBLE_EQ(g[2], 0.0);
  EXPECT_DOUBLE_EQ(g[3], 2.0);
  EXPECT_DOUBLE_EQ(g[4], 0.0);
}

TEST(Interpolation, NearestCopiesClosestSample) {
  sl::Vector v{1.0, 5.0};
  std::vector<std::size_t> loc{0, 4};
  auto g = sc::interpolate_to_grid(v, loc, 5, sc::Interpolation::kNearest);
  EXPECT_DOUBLE_EQ(g[0], 1.0);
  EXPECT_DOUBLE_EQ(g[1], 1.0);
  EXPECT_DOUBLE_EQ(g[3], 5.0);
  EXPECT_DOUBLE_EQ(g[4], 5.0);
}

TEST(Interpolation, LinearInterpolatesBetweenSamples) {
  sl::Vector v{0.0, 4.0};
  std::vector<std::size_t> loc{0, 4};
  auto g = sc::interpolate_to_grid(v, loc, 5, sc::Interpolation::kLinear);
  EXPECT_DOUBLE_EQ(g[1], 1.0);
  EXPECT_DOUBLE_EQ(g[2], 2.0);
  EXPECT_DOUBLE_EQ(g[3], 3.0);
}

TEST(Interpolation, LinearExtrapolatesFlat) {
  sl::Vector v{2.0, 6.0};
  std::vector<std::size_t> loc{2, 4};
  auto g = sc::interpolate_to_grid(v, loc, 8, sc::Interpolation::kLinear);
  EXPECT_DOUBLE_EQ(g[0], 2.0);
  EXPECT_DOUBLE_EQ(g[1], 2.0);
  EXPECT_DOUBLE_EQ(g[7], 6.0);
}

TEST(Interpolation, ValidatesSizes) {
  sl::Vector v{1.0};
  std::vector<std::size_t> loc{1, 2};
  EXPECT_THROW(
      sc::interpolate_to_grid(v, loc, 5, sc::Interpolation::kLinear),
      std::invalid_argument);
}

// --------------------------------------------------------------- CHS ----

TEST(Chs, RecoversSparseSignalNoiseFree) {
  const std::size_t n = 128, m = 40, k = 5;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(100);
  auto x = sparse_dct_signal(n, k, rng, basis);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  auto meas = sc::measure_exact(x, plan);
  auto res = sc::chs_reconstruct(basis, meas);
  EXPECT_LT(sl::nrmse(res.reconstruction, x), 1e-6);
  EXPECT_GE(res.iterations, 1u);
}

TEST(Chs, AccuracyImprovesWithMeasurements) {
  // The monotone trend behind Fig. 4.
  const std::size_t n = 256, k = 8;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(101);
  auto x = sparse_dct_signal(n, k, rng, basis);
  double prev_err = 1e9;
  int improvements = 0;
  for (std::size_t m : {12u, 24u, 48u, 96u}) {
    sl::Rng plan_rng(300 + m);
    auto plan = sc::MeasurementPlan::random(n, m, plan_rng);
    auto meas = sc::measure_exact(x, plan);
    auto res = sc::chs_reconstruct(basis, meas);
    const double err = sl::nrmse(res.reconstruction, x);
    if (err < prev_err) ++improvements;
    prev_err = err;
  }
  EXPECT_GE(improvements, 3);
}

TEST(Chs, GlsBeatsOlsUnderHeterogeneousNoise) {
  const std::size_t n = 128, m = 48, k = 4;
  auto basis = sl::dct_basis(n);
  double ols_total = 0.0, gls_total = 0.0;
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    sl::Rng rng(200 + trial);
    auto x = sparse_dct_signal(n, k, rng, basis);
    auto plan = sc::MeasurementPlan::random(n, m, rng);
    // Wildly heterogeneous phone quality.
    auto noise = sc::SensorNoise::heterogeneous(m, 0.001, 1.0, rng);
    auto meas = sc::measure(x, plan, noise, rng);
    sc::ChsOptions ols_opts{.max_support = k, .refit_solver = "ols"};
    sc::ChsOptions gls_opts{.max_support = k, .refit_solver = "gls"};
    ols_total += sl::nrmse(sc::chs_reconstruct(basis, meas, ols_opts)
                               .reconstruction, x);
    gls_total += sl::nrmse(sc::chs_reconstruct(basis, meas, gls_opts)
                               .reconstruction, x);
  }
  EXPECT_LT(gls_total, ols_total);
}

TEST(Chs, RespectsSupportBudget) {
  const std::size_t n = 64, m = 32;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(110);
  auto x = sparse_dct_signal(n, 10, rng, basis);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  auto meas = sc::measure_exact(x, plan);
  auto res = sc::chs_reconstruct(basis, meas, {.max_support = 3});
  EXPECT_LE(res.support.size(), 3u);
}

TEST(Chs, SupportIsSortedAndCoefficientsConsistent) {
  const std::size_t n = 64, m = 24;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(111);
  auto x = sparse_dct_signal(n, 4, rng, basis);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  auto meas = sc::measure_exact(x, plan);
  auto res = sc::chs_reconstruct(basis, meas);
  for (std::size_t i = 1; i < res.support.size(); ++i) {
    EXPECT_LT(res.support[i - 1], res.support[i]);
  }
  // Off-support coefficients must be zero.
  std::vector<bool> on(n, false);
  for (auto j : res.support) on[j] = true;
  for (std::size_t j = 0; j < n; ++j) {
    if (!on[j]) EXPECT_DOUBLE_EQ(res.coefficients[j], 0.0);
  }
}

TEST(Chs, ZeroSignalGivesZeroReconstruction) {
  const std::size_t n = 32, m = 8;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(112);
  sl::Vector x(n, 0.0);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  auto meas = sc::measure_exact(x, plan);
  auto res = sc::chs_reconstruct(basis, meas);
  EXPECT_LT(sl::norm2(res.reconstruction), 1e-12);
}

TEST(Chs, ValidatesDimensions) {
  auto basis = sl::dct_basis(16);
  sl::Rng rng(113);
  sl::Vector x(8, 1.0);
  auto plan = sc::MeasurementPlan::random(8, 4, rng);
  auto meas = sc::measure_exact(x, plan);
  EXPECT_THROW(sc::chs_reconstruct(basis, meas), std::invalid_argument);
}

// A "gls" refit weights every reading by its noise stddev, so a noise
// model that does not cover the measurement is an input error — not a
// silent fall back to the unweighted fit.
TEST(Chs, GlsRefitRejectsMismatchedNoiseModel) {
  const std::size_t n = 16;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(114);
  sl::Vector x(n, 1.0);
  auto meas = sc::measure_exact(x, sc::MeasurementPlan::random(n, 8, rng));
  meas.noise = sc::SensorNoise::homogeneous(5, 0.1);  // 5 sigmas, 8 readings
  sc::ChsOptions gls;
  gls.refit_solver = "gls";
  EXPECT_THROW(sc::chs_reconstruct(basis, meas, gls), std::invalid_argument);
  sl::SubsampledDctOperator op(n, {});
  EXPECT_THROW(sc::chs_reconstruct(op, meas, gls), std::invalid_argument);
  // The unweighted refit never reads the noise model.
  EXPECT_NO_THROW(sc::chs_reconstruct(basis, meas, {}));
}

TEST(Chs, InterpolationChoicesAllRecoverSmoothFields) {
  // Nearest/linear Upsilon pre-smooth the residual, so they are only exact
  // on smooth (low-frequency) fields — the paper's spatial-field case.
  const std::size_t n = 128, m = 48, k = 4;
  auto basis = sl::dct_basis(n);
  for (auto kind : {sc::Interpolation::kZeroFill, sc::Interpolation::kNearest,
                    sc::Interpolation::kLinear}) {
    sl::Rng rng(120);
    sl::Vector alpha(n, 0.0);
    for (std::size_t j : rng.sample_without_replacement(n / 8, k)) {
      alpha[j] = rng.uniform(1.0, 3.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
    }
    auto x = sl::synthesize(basis, alpha);
    auto plan = sc::MeasurementPlan::random(n, m, rng);
    auto meas = sc::measure_exact(x, plan);
    auto res = sc::chs_reconstruct(basis, meas, {.interpolation = kind});
    EXPECT_LT(sl::nrmse(res.reconstruction, x), 0.05)
        << "interpolation kind " << static_cast<int>(kind);
  }
}

// ------------------------------------------------------- error model ----

TEST(ErrorModel, ApproximationErrorDecreasesWithK) {
  const std::size_t n = 64, m = 32;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(130);
  // A compressible (not exactly sparse) signal: decaying spectrum.
  sl::Vector alpha(n);
  for (std::size_t j = 0; j < n; ++j) {
    alpha[j] = std::pow(0.7, static_cast<double>(j)) *
               (rng.bernoulli(0.5) ? 1.0 : -1.0);
  }
  auto x = sl::synthesize(basis, alpha);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  double prev = 1e18;
  for (std::size_t k = 1; k <= 16; k += 3) {
    auto b = sc::decompose_error(basis, x, plan, 0.0, k);
    EXPECT_LE(b.approximation, prev + 1e-12);
    prev = b.approximation;
  }
}

TEST(ErrorModel, NoiseTermScalesWithSigma) {
  const std::size_t n = 64, m = 24;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(131);
  auto x = sparse_dct_signal(n, 5, rng, basis);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  auto b1 = sc::decompose_error(basis, x, plan, 0.1, 5);
  auto b2 = sc::decompose_error(basis, x, plan, 0.2, 5);
  EXPECT_NEAR(b2.noise, 2.0 * b1.noise, 1e-9);
  EXPECT_DOUBLE_EQ(b1.approximation, b2.approximation);
}

TEST(ErrorModel, ExactlySparseSignalHasZeroApproxAtTrueK) {
  const std::size_t n = 64, m = 32, k = 5;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(132);
  auto x = sparse_dct_signal(n, k, rng, basis);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  auto b = sc::decompose_error(basis, x, plan, 0.0, k);
  EXPECT_LT(b.approximation, 1e-10);
  EXPECT_LT(b.conditioning, 1e-8);
}

TEST(ErrorModel, KappaGrowsTowardM) {
  const std::size_t n = 64, m = 16;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(133);
  auto x = sparse_dct_signal(n, 4, rng, basis);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  auto small = sc::decompose_error(basis, x, plan, 0.0, 2);
  auto big = sc::decompose_error(basis, x, plan, 0.0, m);
  EXPECT_GE(big.kappa, small.kappa);
}

TEST(ErrorModel, ValidatesArguments) {
  const std::size_t n = 16;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(134);
  sl::Vector x(n, 1.0);
  auto plan = sc::MeasurementPlan::random(n, 8, rng);
  EXPECT_THROW(sc::decompose_error(basis, x, plan, 0.0, 0),
               std::invalid_argument);
  EXPECT_THROW(sc::decompose_error(basis, x, plan, 0.0, 9),
               std::invalid_argument);
}

TEST(ErrorModel, OptimalKBalancesTerms) {
  // Compressible signal + noise: optimal K should be interior (neither 1
  // nor M), demonstrating the U-shaped total of Section 4.
  const std::size_t n = 128, m = 32;
  auto basis = sl::dct_basis(n);
  sl::Rng rng(135);
  sl::Vector alpha(n);
  for (std::size_t j = 0; j < n; ++j) {
    alpha[j] = 4.0 * std::pow(0.75, static_cast<double>(j));
  }
  auto x = sl::synthesize(basis, alpha);
  auto plan = sc::MeasurementPlan::random(n, m, rng);
  auto best = sc::optimal_k(basis, x, plan, 0.05);
  EXPECT_GT(best.k, 1u);
  EXPECT_LT(best.k, m);
}
