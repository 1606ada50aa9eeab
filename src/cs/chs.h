// The paper's core reconstruction routine: "Compressive Heterogeneous
// Sensing" (Fig. 6).  Runs primarily in the brokers, and on nodes for
// temporal context processing.
//
// Per iteration:
//   (a) interpolate the residual from the M sensor locations onto the full
//       N-grid (the function Upsilon: R^M -> R^N),
//   (b) analyze it in the basis (alpha_r = Phi^dagger e_new; Phi
//       orthonormal, so the dagger is the transpose),
//   (c) add the most significant coefficient indices I to the support J,
//   (d) refit alpha_K on the support by OLS (homogeneous sensors, eq. 11)
//       or GLS (heterogeneous sensors, eq. 12),
//   (e) recompute the measurement-domain residual; stop when it is small,
//       the support budget is exhausted, or iterations run out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cs/cancel.h"
#include "cs/measurement.h"
#include "linalg/matrix.h"

namespace sensedroid::cs {

/// How Upsilon spreads the residual across unsampled grid points.
enum class Interpolation : std::uint8_t {
  kZeroFill,  ///< unsampled points get 0 (pure projection)
  kNearest,   ///< each grid point copies its nearest sampled residual
  kLinear,    ///< linear interpolation between neighboring sampled points
};

struct ChsOptions {
  /// K budget; 0 = half the measurement count.  Keeping K well below M
  /// preserves overdetermination of eq. 7 — at K == M the refit
  /// interpolates the samples exactly and the off-sample reconstruction
  /// is unconstrained (the epsilon_c blow-up of Section 4).
  std::size_t max_support = 0;
  std::size_t coeffs_per_iter = 4;   ///< |I| added per iteration
  std::size_t max_iterations = 64;
  double residual_tol = 1e-6;        ///< stop at ||e_r|| <= tol * ||x_S||
  /// Upsilon choice.  kZeroFill makes step (b) exact matched filtering
  /// (alpha_r = Phi~^T e_r, the OMP correlation step) and is robust for
  /// any spectrum; kNearest/kLinear pre-smooth the residual, which sharpens
  /// atom selection on smooth physical fields but aliases oscillatory ones.
  Interpolation interpolation = Interpolation::kZeroFill;
  /// Registry name of the step-(e) refit solver (SolverRegistry::global()):
  /// "ols" (eq. 11, homogeneous sensors), "gls" (eq. 12, weighted by the
  /// measurement's noise model, which must then cover every reading), or
  /// any other registered name.  The rank-deficiency fallback to "ridge"
  /// applies regardless of choice.
  std::string refit_solver = "ols";
  /// Significance threshold: a coefficient is eligible when its magnitude
  /// is at least this fraction of the current largest one.
  double significance = 0.1;
  /// Stop (and roll the last batch back) when a batch shrinks the
  /// residual by less than this relative factor — the noise-fitting guard.
  double min_improvement = 1e-3;
  /// Warm-start support: coefficient indices seeded into J before the
  /// first iteration (deduplicated, clipped to the budget).  Sequential
  /// spatio-temporal reconstruction passes the previous frame's support
  /// here — fields move slowly, so most of yesterday's atoms are still
  /// right.
  std::vector<std::size_t> initial_support;
  /// When > 0, the signal is the eq.-1 column stacking of a 2-D field of
  /// this height (width = N / grid_height) and Upsilon interpolates in
  /// 2-D: kNearest takes the Euclidean-nearest sample, kLinear an
  /// inverse-distance blend of nearby samples.  Must divide N.
  std::size_t grid_height = 0;
  /// Robust-degrade guard: when > 0, readings whose residual from the
  /// sample median exceeds mad_threshold * 1.4826 * MAD are screened out
  /// before the solve (spiking sensors would otherwise drag the OLS/GLS
  /// refit arbitrarily far).  Applied only with >= 8 measurements and a
  /// nonzero MAD; when anything is rejected the result is flagged
  /// degraded.  0 disables screening (seed behavior).  Typical: 4-6.
  double mad_threshold = 0.0;
  /// Cooperative cancellation, polled once per Fig. 6 iteration; the
  /// reconstruction built so far is returned.  nullptr = never cancel.
  const CancelToken* cancel = nullptr;
};

struct ChsResult {
  Vector reconstruction;              ///< x_hat = Phi_K alpha_K, length N
  Vector coefficients;                ///< full-length alpha (zeros off-support)
  std::vector<std::size_t> support;   ///< J, ascending
  double residual_norm = 0.0;         ///< final ||x_S - Phi~_K alpha_K||
  std::size_t iterations = 0;
  std::size_t outliers_rejected = 0;  ///< readings screened out by MAD
  bool degraded = false;              ///< solved on a screened subset
};

/// Runs the Fig. 6 loop.  `basis` is the N x N synthesis basis Phi;
/// `meas` carries the plan (locations L), values x_S, and the noise model
/// a "gls" refit weights by.  Throws std::invalid_argument on dimension
/// mismatches (including a "gls" refit whose noise model does not match
/// the measurement count) and on an unregistered refit solver.
ChsResult chs_reconstruct(const Matrix& basis, const Measurement& meas,
                          const ChsOptions& opts = {});

/// Operator-core CHS: same Fig. 6 loop against an N x N synthesis
/// operator.  A linalg::DenseOperator runs the Matrix overload on its
/// matrix (bit-identical, same speed).  A structured operator (e.g.
/// linalg::SubsampledDctOperator with an empty row list) runs the analyze
/// sweep as its fast transform in O(N log N), refits on only the O(K)
/// assembled support columns, and keeps zone-side state at O(N) instead
/// of the 8 N^2 bytes of the dense basis.  Column entries are exact, so
/// results match the dense overload up to near-exact atom-selection ties.
ChsResult chs_reconstruct(const linalg::LinearOperator& basis,
                          const Measurement& meas,
                          const ChsOptions& opts = {});

/// The interpolation operator Upsilon exposed for tests: spreads `values`
/// at sorted `locations` onto a length-n grid.
Vector interpolate_to_grid(std::span<const double> values,
                           std::span<const std::size_t> locations,
                           std::size_t n, Interpolation kind);

/// 2-D Upsilon over a column-stacked height x (n/height) field:
/// kZeroFill as in 1-D; kNearest copies the Euclidean-nearest sample;
/// kLinear blends the four nearest samples by inverse distance.
/// Throws std::invalid_argument when height does not divide n.
Vector interpolate_to_grid_2d(std::span<const double> values,
                              std::span<const std::size_t> locations,
                              std::size_t n, std::size_t height,
                              Interpolation kind);

}  // namespace sensedroid::cs
