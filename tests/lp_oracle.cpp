#include "lp_oracle.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "cs/cancel.h"

namespace sensedroid::cs::oracle {

namespace {

// Dense tableau: rows 0..m-1 are constraints, row m is the (reduced) cost
// row.  Column layout: structural+artificial variables, last column = RHS.
class Tableau {
 public:
  Tableau(std::size_t m, std::size_t n_total)
      : m_(m), n_(n_total), t_((m + 1) * (n_total + 1), 0.0) {}

  double& at(std::size_t r, std::size_t c) { return t_[r * (n_ + 1) + c]; }
  double at(std::size_t r, std::size_t c) const {
    return t_[r * (n_ + 1) + c];
  }
  double& rhs(std::size_t r) { return at(r, n_); }
  double rhs(std::size_t r) const { return at(r, n_); }
  std::size_t rows() const { return m_; }
  std::size_t cols() const { return n_; }

  void pivot(std::size_t pr, std::size_t pc) {
    const double p = at(pr, pc);
    const double inv = 1.0 / p;
    for (std::size_t c = 0; c <= n_; ++c) at(pr, c) *= inv;
    at(pr, pc) = 1.0;
    for (std::size_t r = 0; r <= m_; ++r) {
      if (r == pr) continue;
      const double f = at(r, pc);
      if (f == 0.0) continue;
      for (std::size_t c = 0; c <= n_; ++c) at(r, c) -= f * at(pr, c);
      at(r, pc) = 0.0;
    }
  }

 private:
  std::size_t m_, n_;
  std::vector<double> t_;
};

// Runs simplex iterations until optimal/unbounded/limit.  `allowed` marks
// columns eligible to enter the basis (used in phase 2 to freeze
// artificials out).  Uses Bland's rule: smallest-index entering column
// with negative reduced cost, smallest-index tie-break on the ratio test.
LpStatus tableau_iterate(Tableau& t, std::vector<std::size_t>& basis,
                         const std::vector<bool>& allowed, double tol,
                         std::size_t max_iters, const CancelToken* cancel,
                         std::size_t& iter_count) {
  const std::size_t m = t.rows();
  const std::size_t n = t.cols();
  for (; iter_count < max_iters; ++iter_count) {
    if (poll_cancelled(cancel)) return LpStatus::kCancelled;
    // Entering column: Bland — first allowed column with cost < -tol.
    std::size_t enter = n;
    for (std::size_t c = 0; c < n; ++c) {
      if (allowed[c] && t.at(m, c) < -tol) {
        enter = c;
        break;
      }
    }
    if (enter == n) return LpStatus::kOptimal;

    // Ratio test: min rhs/col over positive column entries; Bland
    // tie-break by basis variable index.
    std::size_t leave = m;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < m; ++r) {
      const double a = t.at(r, enter);
      if (a > tol) {
        const double ratio = t.rhs(r) / a;
        if (ratio < best_ratio - tol ||
            (std::abs(ratio - best_ratio) <= tol && leave < m &&
             basis[r] < basis[leave])) {
          best_ratio = ratio;
          leave = r;
        }
      }
    }
    if (leave == m) return LpStatus::kUnbounded;

    t.pivot(leave, enter);
    basis[leave] = enter;
  }
  return LpStatus::kIterationLimit;
}

LpSolution solve_dense(const Matrix& a, std::span<const double> b,
                         std::span<const double> c,
                         const SimplexOptions& opts) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const double tol = opts.tol;
  const std::size_t max_iters =
      opts.max_iterations != 0 ? opts.max_iterations : 200 + 40 * (m + n);

  // Total columns: n structural + m artificial.
  Tableau t(m, n + m);
  std::vector<std::size_t> basis(m);
  for (std::size_t r = 0; r < m; ++r) {
    const double sign = b[r] < 0.0 ? -1.0 : 1.0;
    for (std::size_t col = 0; col < n; ++col) {
      t.at(r, col) = sign * a(r, col);
    }
    t.at(r, n + r) = 1.0;  // artificial
    t.rhs(r) = sign * b[r];
    basis[r] = n + r;
  }

  LpSolution sol;
  // ---- Phase 1: minimize sum of artificials. ----
  // Cost row = -(sum of constraint rows) expresses the phase-1 reduced
  // costs with the artificial basis already priced out.
  for (std::size_t col = 0; col <= n + m; ++col) {
    double s = 0.0;
    for (std::size_t r = 0; r < m; ++r) s += t.at(r, col);
    t.at(m, col) = -s;
  }
  for (std::size_t r = 0; r < m; ++r) t.at(m, n + r) = 0.0;

  std::vector<bool> allow_all(n + m, true);
  sol.status = tableau_iterate(t, basis, allow_all, tol, max_iters,
                               opts.cancel, sol.iterations);
  sol.basis = basis;
  if (sol.status != LpStatus::kOptimal) return sol;
  // Feasible iff the artificial sum reached ~0 (objective row RHS is
  // -(sum of artificials)).
  if (std::abs(t.rhs(m)) > 1e-6) {
    sol.status = LpStatus::kInfeasible;
    return sol;
  }

  // Drive any artificial still in the basis out (degenerate but possible).
  for (std::size_t r = 0; r < m; ++r) {
    if (basis[r] < n) continue;
    std::size_t enter = n;
    for (std::size_t col = 0; col < n; ++col) {
      if (std::abs(t.at(r, col)) > tol) {
        enter = col;
        break;
      }
    }
    if (enter < n) {
      t.pivot(r, enter);
      basis[r] = enter;
    }
    // If the whole row is zero the constraint was redundant; the
    // artificial stays basic at value 0, which is harmless.
  }

  // ---- Phase 2: original objective, artificials frozen. ----
  std::vector<bool> allow(n + m, false);
  for (std::size_t col = 0; col < n; ++col) allow[col] = true;
  for (std::size_t col = 0; col <= n + m; ++col) t.at(m, col) = 0.0;
  for (std::size_t col = 0; col < n; ++col) t.at(m, col) = c[col];
  // Price out the current basis.
  for (std::size_t r = 0; r < m; ++r) {
    if (basis[r] >= n) continue;
    const double cb = c[basis[r]];
    if (cb == 0.0) continue;
    for (std::size_t col = 0; col <= n + m; ++col) {
      t.at(m, col) -= cb * t.at(r, col);
    }
  }

  sol.status = tableau_iterate(t, basis, allow, tol, max_iters, opts.cancel,
                               sol.iterations);
  sol.basis = basis;
  if (sol.status != LpStatus::kOptimal) return sol;

  sol.x.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    if (basis[r] < n) sol.x[basis[r]] = t.rhs(r);
  }
  sol.objective = 0.0;
  for (std::size_t col = 0; col < n; ++col) {
    sol.objective += c[col] * sol.x[col];
  }
  return sol;
}

}  // namespace

LpSolution tableau_solve(const LpProblem& problem,
                         const SimplexOptions& opts) {
  if (problem.b.size() != problem.a.rows()) {
    throw std::invalid_argument("tableau_solve: b size mismatch");
  }
  if (problem.c.size() != problem.a.cols()) {
    throw std::invalid_argument("tableau_solve: c size mismatch");
  }
  return solve_dense(problem.a, problem.b, problem.c, opts);
}

LpSolution tableau_solve_bp(const Matrix& a, std::span<const double> y,
                            const SimplexOptions& opts) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (y.size() != m) {
    throw std::invalid_argument("tableau_solve_bp: y size mismatch");
  }
  Matrix wide(m, 2 * n);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      wide(r, c) = a(r, c);
      wide(r, n + c) = -a(r, c);
    }
  }
  const Vector ones(2 * n, 1.0);
  return solve_dense(wide, y, ones, opts);
}

}  // namespace sensedroid::cs::oracle
