#include "cs/omp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "linalg/updatable_qr.h"
#include "linalg/vector_ops.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sensedroid::cs {

using linalg::axpy;
using linalg::norm2;

namespace {

// Four independent chains: the scalar reduction is latency-bound at the
// m = 30 Fig. 4 regime.  Fixed reassociation, deterministic.
double dot4(const double* __restrict a, const double* __restrict b,
            std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

// argmax_j corr[j]^2 * sel[j] in three branch-free-ish passes: a
// vectorizable scale (sel[j] is the reciprocal *squared* column norm,
// or an exact 0.0 for picked / zero-norm columns, whose product is then
// an exact 0 — or NaN for an infinite correlation — and can never win),
// a four-chain max reduction, and a first-index-equal scan.  Comparing
// squared normalized correlations is argmax-equivalent to comparing
// |corr|/norm (squaring is monotone on non-negatives) but replaces a
// sqrt pass and a vdivpd per candidate (~16+ cycles per vector) with
// two vmulpd (1 cycle each); the scaled values differ from the naive
// guarded divide loop by a couple of ulps, so the greedy pick can only
// change on near-exact ties between distinct atoms — the equivalence
// tests against the old algorithm stay support-identical.
std::size_t argmax_scaled(const double* __restrict corr,
                          const double* __restrict sel,
                          double* __restrict val, std::size_t n,
                          double* best_val) {
  for (std::size_t j = 0; j < n; ++j) val[j] = corr[j] * corr[j] * sel[j];
  double b0 = 0.0, b1 = 0.0, b2 = 0.0, b3 = 0.0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    b0 = val[j] > b0 ? val[j] : b0;
    b1 = val[j + 1] > b1 ? val[j + 1] : b1;
    b2 = val[j + 2] > b2 ? val[j + 2] : b2;
    b3 = val[j + 3] > b3 ? val[j + 3] : b3;
  }
  for (; j < n; ++j) b0 = val[j] > b0 ? val[j] : b0;
  const double b01 = b0 > b1 ? b0 : b1;
  const double b23 = b2 > b3 ? b2 : b3;
  const double best = b01 > b23 ? b01 : b23;
  *best_val = best;
  if (!(best > 0.0)) return n;
  for (j = 0; j < n; ++j) {
    if (val[j] == best) return j;
  }
  return n;
}

}  // namespace

SparseSolution omp_solve(const Matrix& a, std::span<const double> y,
                         const OmpOptions& opts) {
  return omp_solve(linalg::DenseOperator(a), y, opts);
}

SparseSolution omp_solve(const linalg::LinearOperator& a,
                         std::span<const double> y, const OmpOptions& opts) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (m == 0 || n == 0) {
    throw std::invalid_argument("omp_solve: empty matrix");
  }
  if (y.size() != m) {
    throw std::invalid_argument("omp_solve: y size mismatch");
  }
  const std::size_t k_max =
      opts.max_sparsity == 0 ? std::min(m, n)
                             : std::min({opts.max_sparsity, m, n});
  obs::ScopedSpan span("cs.omp.solve");
  obs::ScopedTimer timer("cs.omp.solve_us");

  // One scratch block for the per-candidate arrays (correlations, the
  // argmax scratch, the eligibility scale) and the picked-column copy:
  // the Fig. 4 solve is short enough that per-vector malloc/free shows
  // up, and the four live regions never overlap.
  Vector scratch(3 * n + m);
  const std::span<double> corr(scratch.data(), n);
  const std::span<double> sel(scratch.data() + n, n);
  const std::span<double> val(scratch.data() + 2 * n, n);
  const std::span<double> col_buf(scratch.data() + 3 * n, m);

  // Column norms make the correlation scale-invariant even if a caller
  // passes a non-normalized dictionary.  The norms sweep is fused with
  // the first correlation pass (residual == y there), saving one full
  // traversal of the dictionary, and the argmax compares *squared*
  // normalized correlations, so only the reciprocal squared norm is
  // kept — no sqrt pass.  sel[] doubles as the argmax eligibility mask:
  // an exact 0.0 for zero-norm (and later picked) columns scales any
  // finite correlation down to an exact 0.
  a.apply_transpose_sqnorms_into(y, corr, sel);
  bool have_corr = true;
  for (std::size_t j = 0; j < n; ++j) {
    sel[j] = sel[j] == 0.0 ? 0.0 : 1.0 / sel[j];
  }

  SparseSolution sol;
  sol.coefficients.assign(n, 0.0);
  Vector residual(y.begin(), y.end());
  const double y_norm = norm2(y);
  double prev_res = y_norm;
  double res = y_norm;

  // Incremental factorization of the support columns (the "orthogonal"
  // step).  Appending the picked column extends Q/R in O(mk); because
  // the new Q column q is orthonormal to the previous ones, the exact
  // least-squares residual updates in place as r -= (q.y) q, so each
  // greedy iteration is one correlation pass + O(mk) bookkeeping instead
  // of a from-scratch O(mk^2) QR.  Coefficients are recovered once at
  // the end by a single back-substitution against the maintained Q^T y.
  linalg::UpdatableQR qr(m, k_max);
  Vector qty;
  qty.reserve(k_max);

  while (sol.support.size() < k_max) {
    if (poll_cancelled(opts.cancel)) break;
    if (res <= opts.residual_tol * std::max(y_norm, 1e-300)) break;
    // Greedy step: column with the largest normalized correlation.  The
    // first iteration's correlations were fused with the norms sweep.
    if (!have_corr) a.apply_transpose_into(residual, corr);
    have_corr = false;
    double best_val = 0.0;
    const std::size_t best =
        argmax_scaled(corr.data(), sel.data(), val.data(), n, &best_val);
    if (best == n) break;  // nothing left correlates

    a.column_into(best, col_buf);
    if (!qr.append_column(col_buf)) {
      // Numerically dependent on the support already picked: it cannot
      // reduce the residual, and no remaining candidate beat it, so the
      // pursuit has converged to the span it can reach.
      break;
    }
    sel[best] = 0.0;
    sol.support.push_back(best);
    ++sol.iterations;

    const auto q = qr.q_column(qr.size() - 1);
    const double qy = dot4(q.data(), y.data(), m);
    qty.push_back(qy);
    axpy(-qy, q, residual);
    res = norm2(residual);
    obs::fr_record(obs::FrEvent::kSolverIteration,
                   static_cast<std::uint32_t>(sol.iterations), res);

    if (opts.min_improvement > 0.0 &&
        prev_res - res < opts.min_improvement * std::max(y_norm, 1e-300)) {
      // The atom bought almost nothing: undo it (restore the residual
      // before the Q column disappears, then downdate) and stop.  Note
      // sol.iterations stays: the work was performed even though the
      // atom was rejected.
      axpy(qy, q, residual);
      qr.remove_last();
      qty.pop_back();
      sol.support.pop_back();
      res = norm2(residual);
      break;
    }
    prev_res = res;
  }

  const Vector coef_on_support = qr.solve_from_qty(qty);
  for (std::size_t i = 0; i < sol.support.size(); ++i) {
    sol.coefficients[sol.support[i]] = coef_on_support[i];
  }
  sol.residual_norm = res;
  obs::fr_record(obs::FrEvent::kSolverSolve,
                 static_cast<std::uint32_t>(sol.support.size()),
                 sol.residual_norm);
  if (obs::attached()) {
    obs::add_counter("cs.omp.solves");
    obs::add_counter("cs.omp.iterations",
                     static_cast<double>(sol.iterations));
    obs::add_counter("cs.omp.accepted_atoms",
                     static_cast<double>(sol.support.size()));
    obs::observe("cs.omp.residual_rel",
                 sol.residual_norm / std::max(y_norm, 1e-300));
  }
  return sol;
}

Vector reconstruct(const Matrix& basis, const SparseSolution& sol) {
  if (basis.cols() != sol.coefficients.size()) {
    throw std::invalid_argument("reconstruct: basis/coefficient mismatch");
  }
  // Exploit sparsity: synthesize from the support only.  Every support
  // atom participates, even with a zero coefficient — a NaN/Inf basis
  // entry on the support must reach the output, not be skip-masked.
  Vector x(basis.rows(), 0.0);
  for (std::size_t j : sol.support) {
    const double c = sol.coefficients[j];
    for (std::size_t i = 0; i < basis.rows(); ++i) x[i] += basis(i, j) * c;
  }
  return x;
}

}  // namespace sensedroid::cs
