#include "cs/chs.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "cs/basis_pursuit.h"
#include "cs/least_squares.h"
#include "cs/solver.h"
#include "linalg/operator.h"
#include "linalg/updatable_qr.h"
#include "linalg/vector_ops.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sensedroid::cs {

using linalg::norm2;

Vector interpolate_to_grid(std::span<const double> values,
                           std::span<const std::size_t> locations,
                           std::size_t n, Interpolation kind) {
  if (values.size() != locations.size()) {
    throw std::invalid_argument("interpolate_to_grid: size mismatch");
  }
  Vector out(n, 0.0);
  if (values.empty()) return out;
  const std::size_t m = values.size();

  switch (kind) {
    case Interpolation::kZeroFill:
      for (std::size_t i = 0; i < m; ++i) out[locations[i]] = values[i];
      return out;

    case Interpolation::kNearest: {
      std::size_t j = 0;  // index of nearest-on-the-left sample
      for (std::size_t g = 0; g < n; ++g) {
        while (j + 1 < m && locations[j + 1] <= g) ++j;
        std::size_t pick = j;
        if (j + 1 < m) {
          const std::size_t dl = g >= locations[j] ? g - locations[j]
                                                   : locations[j] - g;
          const std::size_t dr = locations[j + 1] - g;
          if (dr < dl) pick = j + 1;
        }
        out[g] = values[pick];
      }
      return out;
    }

    case Interpolation::kLinear: {
      for (std::size_t g = 0; g < n; ++g) {
        if (g <= locations.front()) {
          out[g] = values.front();
        } else if (g >= locations.back()) {
          out[g] = values.back();
        } else {
          // Find the bracketing pair (locations sorted).
          const auto it =
              std::upper_bound(locations.begin(), locations.end(), g);
          const std::size_t hi = static_cast<std::size_t>(
              std::distance(locations.begin(), it));
          const std::size_t lo = hi - 1;
          const double t = static_cast<double>(g - locations[lo]) /
                           static_cast<double>(locations[hi] - locations[lo]);
          out[g] = (1.0 - t) * values[lo] + t * values[hi];
        }
      }
      return out;
    }
  }
  throw std::invalid_argument("interpolate_to_grid: unknown interpolation");
}

Vector interpolate_to_grid_2d(std::span<const double> values,
                              std::span<const std::size_t> locations,
                              std::size_t n, std::size_t height,
                              Interpolation kind) {
  if (values.size() != locations.size()) {
    throw std::invalid_argument("interpolate_to_grid_2d: size mismatch");
  }
  if (height == 0 || n % height != 0) {
    throw std::invalid_argument(
        "interpolate_to_grid_2d: height must divide n");
  }
  if (kind == Interpolation::kZeroFill || values.empty()) {
    return interpolate_to_grid(values, locations, n,
                               Interpolation::kZeroFill);
  }
  const std::size_t m = values.size();
  Vector out(n, 0.0);
  for (std::size_t g = 0; g < n; ++g) {
    const double gi = static_cast<double>(g % height);
    const double gj = static_cast<double>(g / height);
    if (kind == Interpolation::kNearest) {
      double best_d2 = 1e300;
      double best_v = 0.0;
      for (std::size_t s = 0; s < m; ++s) {
        const double di = static_cast<double>(locations[s] % height) - gi;
        const double dj = static_cast<double>(locations[s] / height) - gj;
        const double d2 = di * di + dj * dj;
        if (d2 < best_d2) {
          best_d2 = d2;
          best_v = values[s];
        }
      }
      out[g] = best_v;
    } else {  // kLinear: inverse-distance blend of the 4 nearest samples
      constexpr std::size_t kNeighbors = 4;
      std::array<double, kNeighbors> nd2;
      std::array<double, kNeighbors> nv;
      nd2.fill(1e300);
      nv.fill(0.0);
      for (std::size_t s = 0; s < m; ++s) {
        const double di = static_cast<double>(locations[s] % height) - gi;
        const double dj = static_cast<double>(locations[s] / height) - gj;
        double d2 = di * di + dj * dj;
        double v = values[s];
        // Insertion into the small sorted neighbor set.
        for (std::size_t r = 0; r < kNeighbors; ++r) {
          if (d2 < nd2[r]) {
            std::swap(d2, nd2[r]);
            std::swap(v, nv[r]);
          }
        }
      }
      if (nd2[0] <= 1e-12) {
        out[g] = nv[0];  // exactly on a sample
      } else {
        double wsum = 0.0, acc = 0.0;
        for (std::size_t r = 0; r < kNeighbors && nd2[r] < 1e300; ++r) {
          const double w = 1.0 / nd2[r];  // inverse squared distance
          acc += w * nv[r];
          wsum += w;
        }
        out[g] = wsum > 0.0 ? acc / wsum : 0.0;
      }
    }
  }
  return out;
}

namespace {

// Median of a scratch copy (nth_element mutates).
double median_of(Vector v) {
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  double med = v[mid];
  if (v.size() % 2 == 0) {
    std::nth_element(v.begin(), v.begin() + (mid - 1), v.begin() + mid);
    med = 0.5 * (med + v[mid - 1]);
  }
  return med;
}

// MAD screening (the robust-degrade path): drop readings far from the
// sample median before the refit sees them.  Returns nullopt when
// screening does not apply (too few samples, degenerate MAD, nothing
// rejected, or rejection would leave too little to solve on).
std::optional<Measurement> mad_screen(const Measurement& meas,
                                      double threshold,
                                      std::size_t* rejected) {
  constexpr std::size_t kMinSamples = 8;  // below this the median is noise
  constexpr std::size_t kMinKept = 4;     // enough rows left to refit
  const std::size_t m = meas.values.size();
  if (m < kMinSamples) return std::nullopt;

  const double med = median_of(meas.values);
  Vector dev(m);
  for (std::size_t i = 0; i < m; ++i) {
    dev[i] = std::abs(meas.values[i] - med);
  }
  const double mad = median_of(dev);
  if (mad <= 0.0) return std::nullopt;  // half the fleet agrees exactly

  const double cut = threshold * 1.4826 * mad;  // 1.4826: MAD -> sigma
  const auto locations = meas.plan.indices();
  const bool has_noise = meas.noise.size() == m;
  std::vector<std::size_t> kept_loc;
  Vector kept_val;
  Vector kept_sigma;
  for (std::size_t i = 0; i < m; ++i) {
    if (dev[i] > cut) continue;
    kept_loc.push_back(locations[i]);
    kept_val.push_back(meas.values[i]);
    if (has_noise) kept_sigma.push_back(meas.noise.stddev[i]);
  }
  if (kept_val.size() == m || kept_val.size() < kMinKept) return std::nullopt;

  *rejected = m - kept_val.size();
  auto plan = MeasurementPlan::from_indices(meas.plan.signal_size(),
                                            std::move(kept_loc));
  return Measurement{std::move(plan), std::move(kept_val),
                     SensorNoise{std::move(kept_sigma)}};
}

// The Fig. 6 loop is written once against a "basis view" so the dense
// matrix path and the structured-operator path cannot drift.  The view
// supplies the four places the basis representation matters:
//
//   analyze()          — steps (a)+(b), residual -> coefficient proxy;
//   support_matrix()   — the M x K refit matrix Phi~_K;
//   try_cache_refit()  — the incremental-QR shortcut (dense only);
//   reconstruct_into() — step 4's synthesis x_hat = Phi_K alpha_K.
//
// DenseChsView contains the historical code verbatim, so the Matrix
// overload of chs_reconstruct is bit-identical to its pre-refactor
// behavior.  OperatorChsView runs the analyze sweep through
// LinearOperator::apply_transpose (O(N log N) for the fast DCT instead
// of the O(MN) row-matrix product) and assembles only the O(K) columns
// a refit actually touches, so a zone never materializes the basis.
struct DenseChsView {
  const Matrix& basis;
  const Matrix phi_rows;  // M x N
  linalg::SupportQrCache qr_cache;

  DenseChsView(const Matrix& b, const MeasurementPlan& plan)
      : basis(b), phi_rows(plan.select_rows(b)), qr_cache(phi_rows) {}

  Vector analyze(const Vector& residual,
                 std::span<const std::size_t> locations, std::size_t n,
                 const ChsOptions& opts) const {
    // (a)+(b) Upsilon then analyze: residual onto the full grid, then
    // into the basis.  Zero-fill leaves e_full zero off the sampled
    // locations, so Phi^T e_full collapses to Phi_rows^T residual — the
    // sparsity is exploited explicitly here (M rows instead of N)
    // rather than by a data-dependent zero-skip inside the kernel.
    if (opts.interpolation == Interpolation::kZeroFill) {
      return phi_rows.transpose_times(residual);
    }
    const Vector e_full =
        opts.grid_height > 0
            ? interpolate_to_grid_2d(residual, locations, n,
                                     opts.grid_height, opts.interpolation)
            : interpolate_to_grid(residual, locations, n,
                                  opts.interpolation);
    return basis.transpose_times(e_full);
  }

  Matrix support_matrix(const std::vector<std::size_t>& support) const {
    return phi_rows.select_cols(support);
  }

  bool try_cache_refit(bool cacheable,
                       const std::vector<std::size_t>& support,
                       std::span<const double> y, Vector* out,
                       std::size_t* cols_reused) {
    if (!cacheable || !qr_cache.refit(support)) return false;
    *cols_reused += qr_cache.reused_columns();
    *out = qr_cache.solve(y);
    return true;
  }

  void reconstruct_into(const std::vector<std::size_t>& support,
                        const Vector& coef, Vector* out) const {
    for (std::size_t idx = 0; idx < support.size(); ++idx) {
      const std::size_t j = support[idx];
      const double c = coef[idx];
      for (std::size_t i = 0; i < basis.rows(); ++i) {
        (*out)[i] += basis(i, j) * c;
      }
    }
  }
};

struct OperatorChsView {
  const linalg::LinearOperator& basis;  // full N x N synthesis operator
  std::span<const std::size_t> locations;
  mutable Vector colbuf;  // one full basis column, length N

  OperatorChsView(const linalg::LinearOperator& b,
                  const MeasurementPlan& plan)
      : basis(b), locations(plan.indices()), colbuf(b.rows()) {}

  Vector analyze(const Vector& residual,
                 std::span<const std::size_t> locs, std::size_t n,
                 const ChsOptions& opts) const {
    // Zero-fill *is* the scatter here: the fast analysis transform wants
    // the full grid anyway, and scatter + O(N log N) beats the dense
    // path's O(MN) row-matrix product.
    Vector e_full;
    if (opts.interpolation == Interpolation::kZeroFill) {
      e_full.assign(n, 0.0);
      for (std::size_t i = 0; i < residual.size(); ++i) {
        e_full[locs[i]] = residual[i];
      }
    } else {
      e_full = opts.grid_height > 0
                   ? interpolate_to_grid_2d(residual, locs, n,
                                            opts.grid_height,
                                            opts.interpolation)
                   : interpolate_to_grid(residual, locs, n,
                                         opts.interpolation);
    }
    return basis.apply_transpose(e_full);
  }

  Matrix support_matrix(const std::vector<std::size_t>& support) const {
    // Exact basis entries (column_into evaluates the closed forms), so a
    // refit on the same support matches the dense path bit-for-bit.
    Matrix phi_k(locations.size(), support.size());
    for (std::size_t j = 0; j < support.size(); ++j) {
      basis.column_into(support[j], colbuf);
      for (std::size_t i = 0; i < locations.size(); ++i) {
        phi_k(i, j) = colbuf[locations[i]];
      }
    }
    return phi_k;
  }

  bool try_cache_refit(bool, const std::vector<std::size_t>&,
                       std::span<const double>, Vector*, std::size_t*) {
    // The incremental-QR cache keys off a materialized M x N matrix;
    // operator mode refits are dense on O(K) assembled columns instead.
    return false;
  }

  void reconstruct_into(const std::vector<std::size_t>& support,
                        const Vector& coef, Vector* out) const {
    for (std::size_t idx = 0; idx < support.size(); ++idx) {
      basis.column_into(support[idx], colbuf);
      const double c = coef[idx];
      for (std::size_t i = 0; i < colbuf.size(); ++i) {
        (*out)[i] += colbuf[i] * c;
      }
    }
  }
};

template <typename View>
ChsResult chs_core(View& view, std::size_t n, const Measurement& meas,
                   const ChsOptions& opts, const SparseSolver& refit) {
  const std::size_t m = meas.plan.measurement_count();

  obs::ScopedSpan span("cs.chs.reconstruct");
  obs::ScopedTimer timer("cs.chs.solve_us");

  // Step (e)'s coefficient solver comes from the registry (resolved once
  // per call by chs_entry; stateless and reentrant).  Rank-deficient
  // supports still fall back to a lightly regularized ridge fit instead
  // of aborting the round.
  SolveContext refit_ctx;
  if (meas.noise.size() == m) refit_ctx.noise_stddev = meas.noise.stddev;
  refit_ctx.cancel = opts.cancel;

  const std::size_t k_budget = std::min(
      opts.max_support == 0 ? std::max<std::size_t>(m / 2, 1)
                            : opts.max_support,
      m);
  const auto locations = meas.plan.indices();

  // The support grows by sorted insertion each accepted batch and the
  // undo path retracts exactly the last batch, so successive refit
  // supports share long prefixes: route plain-OLS refits through the
  // incremental factorization cache (prefix reuse, O(mk) per new
  // column).  Weighted ("gls" with a noise model) or custom registry
  // solvers, numerically dependent supports, and operator mode take the
  // dense path.
  const bool cacheable = refit.name() == "ols";
  std::size_t cache_cols_reused = 0;
  // BP refits thread the previous round's optimal basis into the next
  // solve: the support only grows between accepted batches, so every
  // old basis column still exists in the new [phi_k, -phi_k] universe
  // and the old vertex stays primal feasible for the unchanged y — the
  // warm-started simplex skips phase 1 outright.  Basis ids are local
  // to each refit's support, so they are remapped through dictionary
  // column ids.  While the support is still too small to span y the LP
  // is infeasible; the ridge fallback covers those early rounds.
  const bool bp_refit =
      refit.name() == "bp" || refit.name() == "basis_pursuit";
  std::vector<std::size_t> bp_prev_support;
  std::vector<std::size_t> bp_prev_basis;
  const auto refit_fit = [&](const Matrix& phi_k,
                             const std::vector<std::size_t>& support) {
    if (bp_refit) {
      const std::size_t k = support.size();
      BasisPursuitOptions bo;
      bo.lp.cancel = opts.cancel;
      if (!bp_prev_basis.empty()) {
        const std::size_t kp = bp_prev_support.size();
        std::vector<std::size_t> warm;
        warm.reserve(bp_prev_basis.size());
        bool ok = true;
        for (const std::size_t id : bp_prev_basis) {
          if (id >= 2 * kp) {  // row artificial: position is preserved
            warm.push_back(2 * k + (id - 2 * kp));
            continue;
          }
          const std::size_t dict = bp_prev_support[id < kp ? id : id - kp];
          const auto it =
              std::lower_bound(support.begin(), support.end(), dict);
          if (it == support.end() || *it != dict) {
            ok = false;  // column left the support: cold start
            break;
          }
          const auto p = static_cast<std::size_t>(it - support.begin());
          warm.push_back(id < kp ? p : k + p);
        }
        if (ok) bo.lp.warm_basis = std::move(warm);
      }
      const BpSolution bp = bp_solve(phi_k, meas.values, bo);
      if (bp.status == LpStatus::kOptimal) {
        bp_prev_support = support;
        bp_prev_basis = bp.basis;
        if (obs::attached()) obs::add_counter("cs.chs.bp_refits");
        return bp.solution.coefficients;
      }
      bp_prev_support.clear();
      bp_prev_basis.clear();
      const double scale = std::max(phi_k.frobenius_norm(), 1e-12);
      return solve_ridge(phi_k, meas.values, 1e-8 * scale * scale);
    }
    Vector cached;
    if (view.try_cache_refit(cacheable, support, meas.values, &cached,
                             &cache_cols_reused)) {
      return cached;
    }
    try {
      return refit.solve(phi_k, meas.values, refit_ctx).coefficients;
    } catch (const std::runtime_error&) {
      const double scale = std::max(phi_k.frobenius_norm(), 1e-12);
      return solve_ridge(phi_k, meas.values, 1e-8 * scale * scale);
    }
  };

  ChsResult res;
  res.coefficients.assign(n, 0.0);
  Vector residual = meas.values;  // e_r = x_S initially
  const double xs_norm = std::max(norm2(meas.values), 1e-300);
  double prev_res_norm = norm2(residual);
  std::vector<bool> in_support(n, false);
  Vector coef_on_support;

  // Warm start: seed the support with the caller's prior (deduplicated,
  // clipped to the budget) and refit once so the first iteration already
  // works on the warm residual.
  if (!opts.initial_support.empty()) {
    for (std::size_t j : opts.initial_support) {
      if (j >= n) {
        throw std::invalid_argument(
            "chs_reconstruct: initial support index out of range");
      }
      if (!in_support[j] && res.support.size() < k_budget) {
        in_support[j] = true;
        res.support.push_back(j);
      }
    }
    if (!res.support.empty()) {
      std::sort(res.support.begin(), res.support.end());
      const Matrix phi_k = view.support_matrix(res.support);
      coef_on_support = refit_fit(phi_k, res.support);
      residual = linalg::subtract(meas.values, phi_k * coef_on_support);
      prev_res_norm = norm2(residual);
    }
  }

  for (std::size_t iter = 0; iter < opts.max_iterations; ++iter) {
    if (poll_cancelled(opts.cancel)) break;
    if (norm2(residual) <= opts.residual_tol * xs_norm) break;
    if (res.support.size() >= k_budget) break;
    ++res.iterations;

    // (a)+(b) Upsilon then analyze — representation-specific, see the
    // view comments above.
    const Vector alpha_r = view.analyze(residual, locations, n, opts);

    // (c) pick significant, not-yet-selected coefficients.
    double max_mag = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (!in_support[j]) max_mag = std::max(max_mag, std::abs(alpha_r[j]));
    }
    if (max_mag == 0.0) break;  // residual orthogonal to every new atom

    std::vector<std::size_t> candidates;
    for (std::size_t j = 0; j < n; ++j) {
      if (!in_support[j] &&
          std::abs(alpha_r[j]) >= opts.significance * max_mag) {
        candidates.push_back(j);
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](std::size_t a, std::size_t b) {
                return std::abs(alpha_r[a]) > std::abs(alpha_r[b]);
              });
    const std::size_t room = k_budget - res.support.size();
    const std::size_t take =
        std::min({candidates.size(), opts.coeffs_per_iter, room});
    if (take == 0) break;

    // (d) grow J (tentatively — rolled back if the batch buys nothing).
    const std::vector<std::size_t> prev_support = res.support;
    const Vector prev_coeffs = coef_on_support;
    for (std::size_t i = 0; i < take; ++i) {
      in_support[candidates[i]] = true;
      res.support.push_back(candidates[i]);
    }
    std::sort(res.support.begin(), res.support.end());

    // (e) refit on the support via the cache or the registry solver.
    const Matrix phi_k = view.support_matrix(res.support);
    coef_on_support = refit_fit(phi_k, res.support);

    // (f) new measurement-domain residual.
    const Vector fitted = phi_k * coef_on_support;
    residual = linalg::subtract(meas.values, fitted);

    const double res_norm = norm2(residual);
    if (prev_res_norm - res_norm <
        opts.min_improvement * std::max(prev_res_norm, 1e-300)) {
      // The batch no longer reduces the residual meaningfully: undo it and
      // stop rather than fit sampling noise (Section 4's epsilon_c guard).
      for (std::size_t i = 0; i < take; ++i) {
        in_support[candidates[i]] = false;
      }
      res.support = prev_support;
      coef_on_support = prev_coeffs;
      if (!res.support.empty()) {
        const Matrix phi_prev = view.support_matrix(res.support);
        residual = linalg::subtract(meas.values,
                                    phi_prev * coef_on_support);
      } else {
        residual = meas.values;
      }
      break;
    }
    prev_res_norm = res_norm;
    // Residual trajectory: one observation per accepted batch, relative
    // to ||x_S|| so campaigns of different scale share one histogram.
    obs::observe("cs.chs.residual_trajectory", res_norm / xs_norm);
  }

  for (std::size_t i = 0; i < res.support.size(); ++i) {
    res.coefficients[res.support[i]] = coef_on_support[i];
  }
  res.residual_norm = norm2(residual);
  obs::fr_record(obs::FrEvent::kSolverSolve,
                 static_cast<std::uint32_t>(res.support.size()),
                 res.residual_norm / xs_norm);
  if (obs::attached()) {
    obs::add_counter("cs.chs.solves");
    obs::add_counter("cs.chs.iterations",
                     static_cast<double>(res.iterations));
    if (cache_cols_reused > 0) {
      obs::add_counter("cs.chs.refit_cols_reused",
                       static_cast<double>(cache_cols_reused));
    }
    obs::observe("cs.chs.residual_rel", res.residual_norm / xs_norm);
    obs::observe("cs.chs.support_size",
                 static_cast<double>(res.support.size()));
  }

  // Step 4: x_hat = Phi_K alpha_K.
  res.reconstruction.assign(n, 0.0);
  view.reconstruct_into(res.support, coef_on_support, &res.reconstruction);
  return res;
}

// Shared validation + MAD screening ahead of the core loop.  `solve`
// runs the core against the caller's basis representation; screening
// happens at most once (the screened sub-measurement goes straight to
// the core with screening disabled).
template <typename Solve>
ChsResult chs_entry(std::size_t n, std::size_t basis_cols,
                    const Measurement& meas, const ChsOptions& opts,
                    const Solve& solve) {
  if (basis_cols != n) {
    throw std::invalid_argument("chs_reconstruct: basis must be square");
  }
  if (meas.plan.signal_size() != n) {
    throw std::invalid_argument("chs_reconstruct: plan/basis size mismatch");
  }
  const std::size_t m = meas.plan.measurement_count();
  if (meas.values.size() != m) {
    throw std::invalid_argument("chs_reconstruct: measurement size mismatch");
  }
  // Resolved once here: the weighted refit needs one noise stddev per
  // reading, and must not quietly degrade to an unweighted fit.
  const std::unique_ptr<SparseSolver> refit =
      SolverRegistry::global().create(opts.refit_solver);
  if (refit->name() == "gls" && meas.noise.size() != m) {
    throw std::invalid_argument("chs_reconstruct: noise model size mismatch");
  }

  if (opts.mad_threshold > 0.0) {
    std::size_t rejected = 0;
    if (auto screened = mad_screen(meas, opts.mad_threshold, &rejected)) {
      ChsOptions inner = opts;
      inner.mad_threshold = 0.0;  // screen once; recurse for the solve
      ChsResult res = solve(*screened, inner, *refit);
      res.outliers_rejected = rejected;
      res.degraded = true;
      if (obs::attached()) {
        obs::add_counter("cs.chs.outliers_rejected",
                         static_cast<double>(rejected));
        obs::add_counter("cs.chs.degraded_solves");
      }
      return res;
    }
  }
  return solve(meas, opts, *refit);
}

}  // namespace

ChsResult chs_reconstruct(const Matrix& basis, const Measurement& meas,
                          const ChsOptions& opts) {
  const std::size_t n = basis.rows();
  return chs_entry(n, basis.cols(), meas, opts,
                   [&](const Measurement& mm, const ChsOptions& oo,
                       const SparseSolver& refit) {
                     DenseChsView view(basis, mm.plan);
                     return chs_core(view, n, mm, oo, refit);
                   });
}

ChsResult chs_reconstruct(const linalg::LinearOperator& basis,
                          const Measurement& meas, const ChsOptions& opts) {
  // A dense operator takes the Matrix path: its view slices the M x N
  // row matrix once and keeps the incremental-QR refit cache, which the
  // column-assembling operator view cannot.
  if (const auto* dense = dynamic_cast<const linalg::DenseOperator*>(&basis)) {
    return chs_reconstruct(dense->matrix(), meas, opts);
  }
  const std::size_t n = basis.rows();
  return chs_entry(n, basis.cols(), meas, opts,
                   [&](const Measurement& mm, const ChsOptions& oo,
                       const SparseSolver& refit) {
                     OperatorChsView view(basis, mm.plan);
                     return chs_core(view, n, mm, oo, refit);
                   });
}

}  // namespace sensedroid::cs
