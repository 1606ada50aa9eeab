// Alternative greedy sparse solvers for eq. 13, complementing OMP:
//   - CoSaMP (Needell & Tropp): batched support selection (2K candidates
//     per iteration) with pruning back to K — more robust to noise than
//     one-atom-at-a-time OMP;
//   - IHT (Blumensath & Davies): iterative hard thresholding, a gradient
//     method x <- H_K(x + mu A^T (y - A x)) — cheapest per iteration.
// Used by the solver-ablation experiment (E17) to justify the default.
#pragma once

#include <cstddef>
#include <span>

#include "cs/cancel.h"
#include "cs/omp.h"

namespace sensedroid::cs {

struct CosampOptions {
  std::size_t sparsity = 1;         ///< target K (required, >= 1)
  std::size_t max_iterations = 50;
  double residual_tol = 1e-9;       ///< stop at ||r|| <= tol * ||y||
  /// Polled once per iteration; best-so-far solution is returned.
  const CancelToken* cancel = nullptr;
};

/// CoSaMP solve of min ||y - A alpha|| s.t. ||alpha||_0 <= K.
/// The returned (support, coefficients, residual_norm) triple is always
/// self-consistent: residual_norm is the norm of y - A * coefficients
/// for the best iterate found (the zero solution if nothing improved).
/// Throws std::invalid_argument on shape errors or K == 0.
SparseSolution cosamp_solve(const Matrix& a, std::span<const double> y,
                            const CosampOptions& opts);

/// Caps a candidate index set at max_count entries, keeping those with
/// the largest |proxy[index]| (ties broken toward the lower index so the
/// result is deterministic); the result is sorted ascending.  Exposed
/// for testing: this is the truncation CoSaMP applies when the merged
/// candidate set exceeds the measurement count M — truncating by index,
/// as a plain resize after an ascending sort would, silently favors
/// low-numbered dictionary columns over strong correlations.
std::vector<std::size_t> clamp_candidates_by_proxy(
    std::vector<std::size_t> candidates, std::span<const double> proxy,
    std::size_t max_count);

struct IhtOptions {
  std::size_t sparsity = 1;          ///< target K (required, >= 1)
  std::size_t max_iterations = 300;
  double residual_tol = 1e-9;
  /// Step size mu; 0 = automatic (1 / ||A||_2^2 estimated by power
  /// iteration), the guaranteed-stable choice.
  double step = 0.0;
  /// Debias the final iterate: refit the coefficients on the selected
  /// support by least squares (through the shared incremental
  /// factorization cache).  Hard thresholding biases magnitudes toward
  /// zero; the refit removes that bias without changing the support.
  bool debias = true;
  /// Polled once per iteration; best-so-far solution is returned.
  const CancelToken* cancel = nullptr;
};

/// Iterative hard thresholding solve of the same problem.
SparseSolution iht_solve(const Matrix& a, std::span<const double> y,
                         const IhtOptions& opts);

/// Operator-core IHT: the gradient sweep runs through
/// LinearOperator::apply_transpose (a fast transform for structured
/// dictionaries), A x and the debias refit assemble only the O(k)
/// touched columns through column_into.
SparseSolution iht_solve(const linalg::LinearOperator& a,
                         std::span<const double> y, const IhtOptions& opts);

}  // namespace sensedroid::cs
