// Orthogonal Matching Pursuit (Tropp & Gilbert), the solver the paper
// recommends for the sparse-regression form of reconstruction (eq. 13):
//   min ||y - A alpha||_2^2  s.t.  ||alpha||_0 <= K.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "cs/cancel.h"
#include "linalg/matrix.h"
#include "linalg/operator.h"

namespace sensedroid::cs {

using linalg::Matrix;
using linalg::Vector;

/// Knobs for OMP; defaults match the paper's usage (run to the sparsity
/// budget unless the residual dies first).
struct OmpOptions {
  std::size_t max_sparsity = 0;  ///< K; 0 means min(rows, cols)
  double residual_tol = 1e-9;    ///< stop when ||r||_2 <= tol * ||y||_2
  /// Stop early if adding the best new atom no longer reduces the
  /// residual meaningfully (guards against noise fitting).
  double min_improvement = 0.0;
  /// Cooperative cancellation, polled once per greedy iteration; the
  /// partial solution built so far is returned.  nullptr = never cancel.
  const CancelToken* cancel = nullptr;
};

/// Result of a greedy sparse solve.
struct SparseSolution {
  Vector coefficients;                ///< full-length alpha (N), zeros off-support
  std::vector<std::size_t> support;   ///< selected column indices J, in pick order
  double residual_norm = 0.0;         ///< final ||y - A alpha||_2
  /// Greedy iterations actually performed, including a final iteration
  /// whose atom was rejected by min_improvement — i.e. work done, not
  /// atoms kept.  Accepted atoms = support.size().
  std::size_t iterations = 0;
};

/// Solves eq. 13 greedily: pick the column most correlated with the
/// residual, refit all picked coefficients by least squares, repeat.
/// A is M x N with M <= N typically; y has size M.
/// Throws std::invalid_argument on size mismatch or empty inputs.
SparseSolution omp_solve(const Matrix& a, std::span<const double> y,
                         const OmpOptions& opts = {});

/// Operator-core OMP: the same greedy pursuit against any structured
/// dictionary (correlation sweeps through apply_transpose, atom gathers
/// through column_into).  The Matrix overload above routes here through
/// a DenseOperator whose methods are the exact dense kernels, so the
/// dense path is bit-identical to the historical direct-Matrix solver.
SparseSolution omp_solve(const linalg::LinearOperator& a,
                         std::span<const double> y,
                         const OmpOptions& opts = {});

/// Reconstructs a full N-length signal from a sparse coefficient solution
/// in a given synthesis basis: x_hat = Phi alpha.
Vector reconstruct(const Matrix& basis, const SparseSolution& sol);

}  // namespace sensedroid::cs
