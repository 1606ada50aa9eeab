// L1-norm sparse recovery (eqs. 9-10): basis pursuit via linear
// programming.
//
// The paper introduces slack variables theta with -theta_i <= alpha_i <=
// theta_i and minimizes sum(theta) (eq. 10).  We solve the classic
// equivalent standard-form LP obtained by the positive/negative split
// alpha = u - v, u,v >= 0, min sum(u+v) s.t. A(u-v) = y: at any optimum at
// most one of u_i, v_i is nonzero, so sum(u_i + v_i) = |alpha_i| = theta_i
// — exactly the paper's objective, with M equality constraints instead of
// M + 2K.  The revised simplex never materializes the [A, -A]
// doubling; see simplex_solve_bp.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "cs/omp.h"
#include "cs/simplex.h"
#include "linalg/matrix.h"

namespace sensedroid::cs {

struct BasisPursuitOptions {
  SimplexOptions lp;            ///< forwarded to the simplex engine
  double support_tol = 1e-7;    ///< |alpha_i| above this counts as support
};

/// Full basis-pursuit result: the recovered sparse solution plus the LP
/// status and final basis (ids as in simplex_solve_bp: column j < n is
/// +alpha_j, n + j is -alpha_j, 2n + r is row r's artificial).  Feed
/// `basis` into BasisPursuitOptions::lp.warm_basis to warm-start a
/// related solve — same y with a grown dictionary, or same dictionary
/// with an evolved y (both keep the old basis primal feasible).
struct BpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  SparseSolution solution;             ///< valid when status == kOptimal
  std::vector<std::size_t> basis;
  std::size_t iterations = 0;
};

/// Solves min ||alpha||_1 s.t. A alpha = y (noise-free BP) and reports
/// the LP status instead of throwing on non-optimal outcomes — the
/// building block for warm-started refit chains (cs::chs) and
/// cancellation-aware callers.  Throws std::invalid_argument on shape
/// mismatch only.
BpSolution bp_solve(const Matrix& a, std::span<const double> y,
                    const BasisPursuitOptions& opts = {});

/// Convenience wrapper around bp_solve: returns the sparse solution,
/// throws std::runtime_error when the LP reports anything but optimal
/// (cannot happen for consistent systems).
SparseSolution basis_pursuit(const Matrix& a, std::span<const double> y,
                             const BasisPursuitOptions& opts = {});

}  // namespace sensedroid::cs
