// Test-only LP oracle: the original dense-tableau two-phase simplex with
// Bland's rule.  Slow but simple, so the revised engine in cs/simplex.h
// is checked against it (statuses and objectives; pivot paths may
// differ).  Honors SimplexOptions::tol, max_iterations and cancel; the
// pricing, refactorization and warm-start knobs do not apply.
#pragma once

#include <span>

#include "cs/simplex.h"

namespace sensedroid::cs::oracle {

/// Dense-tableau solve of the standard-form LP.  Throws
/// std::invalid_argument on shape mismatches.
LpSolution tableau_solve(const LpProblem& problem,
                         const SimplexOptions& opts = {});

/// Basis-pursuit LP min 1^T [u; v] s.t. [A, -A][u; v] = y through the
/// explicitly materialized [A, -A] tableau.  Basis ids match
/// simplex_solve_bp's: structural < 2n, artificial 2n + r.
LpSolution tableau_solve_bp(const Matrix& a, std::span<const double> y,
                            const SimplexOptions& opts = {});

}  // namespace sensedroid::cs::oracle
