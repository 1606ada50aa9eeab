#include "cs/greedy_variants.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cs/least_squares.h"
#include "linalg/decomposition.h"
#include "linalg/random.h"
#include "linalg/vector_ops.h"

namespace sensedroid::cs {

using linalg::norm2;
using linalg::subtract;
using linalg::top_k_by_magnitude;

namespace {

// Residual y - A_S c for support S with coefficients c.
Vector residual_for(const Matrix& a, std::span<const double> y,
                    const std::vector<std::size_t>& support,
                    const Vector& coef) {
  Vector r(y.begin(), y.end());
  for (std::size_t s = 0; s < support.size(); ++s) {
    const double c = coef[s];
    if (c == 0.0) continue;
    for (std::size_t i = 0; i < a.rows(); ++i) {
      r[i] -= a(i, support[s]) * c;
    }
  }
  return r;
}

// A x for a structurally sparse x, synthesized from the nonzero columns
// only.  The dense kernels deliberately do not zero-skip (a masked
// 0 * NaN would hide poisoned entries), so sparsity must be explicit at
// call sites that hold a hard-thresholded iterate — IHT multiplies a
// k-sparse vector against the full dictionary every iteration, and the
// dense product would turn its O(m k) step into O(m n).
Vector sparse_times(const Matrix& a, const Vector& x) {
  Vector out(a.rows(), 0.0);
  for (std::size_t j = 0; j < x.size(); ++j) {
    const double c = x[j];
    if (c == 0.0) continue;
    for (std::size_t i = 0; i < a.rows(); ++i) out[i] += a(i, j) * c;
  }
  return out;
}

Vector least_squares_or_ridge(const Matrix& a_sub,
                              std::span<const double> y) {
  try {
    // A square selection (CoSaMP's merged candidate set saturates at M
    // columns) has a zero-residual interpolant, so partial-pivot LU
    // returns the least-squares solution at a third of the Householder
    // flops with row-major-friendly access.  A singular selection throws
    // and lands on the same ridge fallback as the QR rank check.
    if (a_sub.rows() == a_sub.cols() && a_sub.rows() > 0) {
      return linalg::lu_solve(a_sub, y);
    }
    return solve_ols(a_sub, y);
  } catch (const std::runtime_error&) {
    const double scale = std::max(a_sub.frobenius_norm(), 1e-12);
    return solve_ridge(a_sub, y, 1e-8 * scale * scale);
  }
}

// The incremental factorization cache (linalg::SupportQrCache) is
// deliberately NOT used here.  Measured in the Fig. 4 regime (n=256,
// m=30, k=10): CoSaMP's supports churn wholesale between iterations —
// the merged candidate set saturates at M columns and the pruned set
// shares too short a sorted prefix with its predecessor — so every
// solve pays the MGS ladder seeding cost and reuses almost nothing
// (~6% slower end to end than the dense path).  IHT's debias refit is
// one-shot, where seeding is pure overhead.  The cache earns its keep
// in cs::chs, whose supports grow by sorted insertion.

// Dictionary views for the IHT core: DenseDict forwards to the exact
// Matrix kernels (bit-identical to the historical direct-Matrix solver),
// OpDict routes through LinearOperator so the correlation sweep runs a
// fast transform.  Both expose the four primitives IHT consumes.
struct DenseDict {
  const Matrix& a;
  std::size_t rows() const { return a.rows(); }
  std::size_t cols() const { return a.cols(); }
  Vector times_sparse(const Vector& x) const { return sparse_times(a, x); }
  Vector transpose_times(std::span<const double> r) const {
    return a.transpose_times(r);
  }
  Matrix select_cols(const std::vector<std::size_t>& idx) const {
    return a.select_cols(idx);
  }
};

struct OpDict {
  const linalg::LinearOperator& a;
  std::size_t rows() const { return a.rows(); }
  std::size_t cols() const { return a.cols(); }
  Vector times_sparse(const Vector& x) const {
    // Same column-order accumulation as the dense sparse_times; columns
    // come from column_into, which evaluates the exact basis expressions.
    Vector out(a.rows(), 0.0);
    Vector col(a.rows());
    for (std::size_t j = 0; j < x.size(); ++j) {
      const double c = x[j];
      if (c == 0.0) continue;
      a.column_into(j, col);
      for (std::size_t i = 0; i < out.size(); ++i) out[i] += col[i] * c;
    }
    return out;
  }
  Vector transpose_times(std::span<const double> r) const {
    return a.apply_transpose(r);
  }
  Matrix select_cols(const std::vector<std::size_t>& idx) const {
    Matrix sub(a.rows(), idx.size());
    Vector col(a.rows());
    for (std::size_t j = 0; j < idx.size(); ++j) {
      a.column_into(idx[j], col);
      for (std::size_t i = 0; i < col.size(); ++i) sub(i, j) = col[i];
    }
    return sub;
  }
};

// One signal's CoSaMP pursuit.  needs_sweep() runs the pre-sweep checks
// (cancellation, tolerance, iteration budget) and, when it returns true,
// the caller owes the proxy A^T r for the current residual `r` and must
// pass it to step().  cosamp_solve drives it with one dense A^T r sweep
// per iteration; the split mirrors IhtRun, whose sweep differs between
// the dense and operator solvers.
struct CosampRun {
  const Matrix& a;
  std::span<const double> y;
  const CosampOptions& opts;
  std::size_t k = 0;
  SparseSolution sol;
  std::vector<std::size_t> support;  // current S, sorted
  Vector coef;
  Vector r;
  double y_norm = 0.0;
  // Best iterate seen so far; starts at the zero solution so the
  // returned (support, coefficients, residual_norm) triple is always
  // self-consistent even when no iteration improves on it.
  double best_res = 0.0;
  std::vector<std::size_t> best_support;
  Vector best_coef;
  std::size_t it = 0;
  bool done = false;

  CosampRun(const Matrix& a_in, std::span<const double> y_in,
            const CosampOptions& opts_in)
      : a(a_in), y(y_in), opts(opts_in) {
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    if (m == 0 || n == 0 || y.size() != m) {
      throw std::invalid_argument("cosamp_solve: shape mismatch");
    }
    if (opts.sparsity == 0) {
      throw std::invalid_argument("cosamp_solve: sparsity must be positive");
    }
    k = std::min(opts.sparsity, std::min(m / 2, n));
    sol.coefficients.assign(n, 0.0);
    r.assign(y.begin(), y.end());
    y_norm = std::max(norm2(y), 1e-300);
    best_res = norm2(r);
  }

  bool needs_sweep() {
    if (done || it >= opts.max_iterations) {
      done = true;
      return false;
    }
    if (poll_cancelled(opts.cancel)) {
      done = true;
      return false;
    }
    if (norm2(r) <= opts.residual_tol * y_norm) {
      done = true;
      return false;
    }
    ++sol.iterations;
    return true;
  }

  void step(std::span<const double> proxy) {
    // Identify 2K largest correlations and merge with current support.
    auto candidates = top_k_by_magnitude(proxy, 2 * k);
    candidates.insert(candidates.end(), support.begin(), support.end());
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    // Least squares on the merged set cannot exceed M columns; keep the
    // strongest correlations, not the lowest-numbered ones.
    candidates =
        clamp_candidates_by_proxy(std::move(candidates), proxy, a.rows());

    const Vector c_merged =
        least_squares_or_ridge(a.select_cols(candidates), y);

    // Prune back to the K strongest.
    const auto keep = top_k_by_magnitude(c_merged, k);
    std::vector<std::size_t> new_support(keep.size());
    for (std::size_t i = 0; i < keep.size(); ++i) {
      new_support[i] = candidates[keep[i]];
    }
    std::sort(new_support.begin(), new_support.end());
    const Vector c_sub =
        least_squares_or_ridge(a.select_cols(new_support), y);

    support = std::move(new_support);
    coef = c_sub;
    r = residual_for(a, y, support, coef);

    const double res = norm2(r);
    if (res < best_res) {
      best_res = res;
      best_support = support;
      best_coef = coef;
    } else if (res > best_res * (1.0 + 1e-9) && it > 0) {
      done = true;  // stalled / oscillating: keep the best iterate
    }
    ++it;
  }

  SparseSolution finish() {
    // Return the best iterate unconditionally — an empty best_support
    // means the zero solution, whose residual is exactly best_res.
    sol.support = best_support;
    for (std::size_t s = 0; s < best_support.size(); ++s) {
      sol.coefficients[best_support[s]] = best_coef[s];
    }
    sol.residual_norm = best_res;
    return std::move(sol);
  }
};

// One signal's IHT pursuit, same needs_sweep()/step() contract as
// CosampRun; needs_sweep() additionally refreshes the residual `r` from
// the current iterate (IHT's gradient is taken at the thresholded x).
// The caller runs the gradient sweep through the matching kernel, so one
// pursuit serves the dense (DenseDict) and operator (OpDict) solvers.
template <typename Dict>
struct IhtRun {
  Dict dict;
  std::span<const double> y;
  const IhtOptions& opts;
  std::size_t k = 0;
  SparseSolution sol;
  Vector x;
  Vector r;
  double y_norm = 0.0;
  std::size_t it = 0;
  bool done = false;

  IhtRun(Dict dict_in, std::span<const double> y_in,
         const IhtOptions& opts_in)
      : dict(dict_in), y(y_in), opts(opts_in) {
    const std::size_t m = dict.rows();
    const std::size_t n = dict.cols();
    if (m == 0 || n == 0 || y.size() != m) {
      throw std::invalid_argument("iht_solve: shape mismatch");
    }
    if (opts.sparsity == 0) {
      throw std::invalid_argument("iht_solve: sparsity must be positive");
    }
    k = std::min(opts.sparsity, n);
    x.assign(n, 0.0);
    y_norm = std::max(norm2(y), 1e-300);
  }

  bool needs_sweep() {
    if (done || it >= opts.max_iterations) {
      done = true;
      return false;
    }
    if (poll_cancelled(opts.cancel)) {
      done = true;
      return false;
    }
    const Vector ax = dict.times_sparse(x);  // x is k-sparse
    r = subtract(y, ax);
    if (norm2(r) <= opts.residual_tol * y_norm) {
      done = true;
      return false;
    }
    ++sol.iterations;
    return true;
  }

  void step(std::span<const double> grad) {
    const std::size_t n = dict.cols();
    double mu = opts.step;
    if (mu <= 0.0) {
      // Normalized IHT (Blumensath & Davies): the exact line-search step
      // for the gradient restricted to the working support — converges in
      // tens of iterations where a global-Lipschitz step crawls.
      std::vector<std::size_t> working;
      if (linalg::norm0(x) > 0) {
        for (std::size_t j = 0; j < n; ++j) {
          if (x[j] != 0.0) working.push_back(j);
        }
      } else {
        working = top_k_by_magnitude(grad, k);
      }
      Vector g_s(n, 0.0);
      for (std::size_t j : working) g_s[j] = grad[j];
      const double num = linalg::dot(g_s, g_s);
      const Vector ag = dict.times_sparse(g_s);  // g_s lives on the working set
      const double den = linalg::dot(ag, ag);
      mu = den > 1e-300 ? num / den : 1.0;
    }

    for (std::size_t j = 0; j < n; ++j) x[j] += mu * grad[j];
    x = linalg::hard_threshold(x, k);
    ++it;
  }

  SparseSolution finish() {
    const std::size_t n = dict.cols();
    sol.coefficients = x;
    for (std::size_t j = 0; j < n; ++j) {
      if (x[j] != 0.0) sol.support.push_back(j);
    }
    if (opts.debias && !sol.support.empty()) {
      // Hard thresholding biases surviving magnitudes toward zero; a final
      // least-squares refit on the selected support (same support, better
      // coefficients) removes the bias.  One-shot, so it takes the dense
      // path directly; ridge fallback on dependent columns.
      const Vector c =
          least_squares_or_ridge(dict.select_cols(sol.support), y);
      for (std::size_t s = 0; s < sol.support.size(); ++s) {
        sol.coefficients[sol.support[s]] = c[s];
      }
    }
    sol.residual_norm =
        norm2(subtract(y, dict.times_sparse(sol.coefficients)));
    return std::move(sol);
  }
};

}  // namespace

std::vector<std::size_t> clamp_candidates_by_proxy(
    std::vector<std::size_t> candidates, std::span<const double> proxy,
    std::size_t max_count) {
  if (candidates.size() <= max_count) return candidates;
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t lhs, std::size_t rhs) {
              const double pl = std::abs(proxy[lhs]);
              const double pr = std::abs(proxy[rhs]);
              if (pl != pr) return pl > pr;
              return lhs < rhs;
            });
  candidates.resize(max_count);
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

SparseSolution cosamp_solve(const Matrix& a, std::span<const double> y,
                            const CosampOptions& opts) {
  CosampRun run(a, y, opts);
  while (run.needs_sweep()) {
    const Vector proxy = a.transpose_times(run.r);
    run.step(proxy);
  }
  return run.finish();
}

SparseSolution iht_solve(const Matrix& a, std::span<const double> y,
                         const IhtOptions& opts) {
  IhtRun<DenseDict> run(DenseDict{a}, y, opts);
  while (run.needs_sweep()) {
    const Vector grad = a.transpose_times(run.r);
    run.step(grad);
  }
  return run.finish();
}

SparseSolution iht_solve(const linalg::LinearOperator& a,
                         std::span<const double> y, const IhtOptions& opts) {
  IhtRun<OpDict> run(OpDict{a}, y, opts);
  while (run.needs_sweep()) {
    const Vector grad = a.apply_transpose(run.r);
    run.step(grad);
  }
  return run.finish();
}

}  // namespace sensedroid::cs
