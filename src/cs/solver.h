// The unified sparse-solver API of the execution engine (DESIGN.md §9).
//
// The free-function solver layer grew five signature shapes and five
// option structs (omp_solve, cosamp_solve, iht_solve, basis_pursuit,
// solve_ols/gls/ridge) — fine for bench code, hostile to a parallel
// runtime that wants to treat "a solver" as one schedulable, reentrant
// unit the way GSN treats a virtual sensor.  This header introduces:
//
//   - CancelToken     — cooperative cancellation shared across workers;
//   - SolveContext    — the one per-call parameter block (budgets,
//                       tolerances, noise model, metrics sink, token)
//                       that replaces the per-solver option structs at
//                       call sites;
//   - SparseSolver    — the polymorphic interface.  Implementations are
//                       STATELESS: solve() is const, touches no mutable
//                       statics, and keeps all scratch on the stack or
//                       in locals, so one instance may serve any number
//                       of threads concurrently;
//   - SolverRegistry  — name -> factory, so campaign configs and bench
//                       harnesses select solvers by string instead of
//                       hand-rolled switches.
//
// The original free functions remain the implementation layer and stay
// public; see README.md for the free-function -> registry-name table.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cs/cancel.h"
#include "cs/omp.h"
#include "linalg/matrix.h"

namespace sensedroid::obs {
class MetricsRegistry;
}  // namespace sensedroid::obs

namespace sensedroid::cs {

/// The single per-call parameter block of SparseSolver::solve.  Plain
/// aggregate with in-class defaults; zero-initialized means "solver
/// defaults" everywhere.  Fields a solver does not use are ignored
/// (e.g. `noise_stddev` by OMP, `sparsity` by OLS).
struct SolveContext {
  /// Sparsity budget K.  0 = solver default (OMP: min(M, N); CoSaMP and
  /// IHT reject 0 with std::invalid_argument — they are K-targeted by
  /// construction and have no sensible default).
  std::size_t sparsity = 0;
  /// Relative residual stop: ||r|| <= residual_tol * ||y||.  < 0 =
  /// solver default.
  double residual_tol = -1.0;
  /// Iteration cap.  0 = solver default.
  std::size_t max_iterations = 0;
  /// Per-measurement noise stddevs for weighted refits ("gls"); empty
  /// span = homogeneous/unknown noise (weighted solvers fall back to
  /// their unweighted form).
  std::span<const double> noise_stddev{};
  /// Tikhonov strength for "ridge"; <= 0 picks a scale-aware default of
  /// 1e-8 * ||A||_F^2.
  double ridge_lambda = 0.0;
  /// Metrics destination for this solve.  When non-null the solve runs
  /// under a ScopedMetricShard bound to it, so per-task shards capture
  /// solver counters without touching the process registry; nullptr
  /// inherits the caller's sink (thread shard or attached registry).
  obs::MetricsRegistry* metrics = nullptr;
  /// Cooperative cancellation; nullptr = not cancellable.
  const CancelToken* cancel = nullptr;
};

/// A reconstruction algorithm behind one uniform, reentrant signature.
///
/// Contract (enforced by test_exec registry round-trips and the TSan
/// suite): implementations hold no mutable state — solve() const, no
/// mutable statics, no caches — so a single instance may be shared by
/// every worker thread of a campaign.  Throws std::invalid_argument on
/// shape errors exactly like the underlying free functions.
class SparseSolver {
 public:
  virtual ~SparseSolver() = default;

  /// Registry name of this solver ("omp", "cosamp", ...).
  virtual std::string_view name() const noexcept = 0;

  /// Solves min ||y - A alpha|| under this algorithm's model (sparse
  /// greedy, L1, or least-squares refit) and returns the solution with
  /// support extracted.  `a` is M x N, `y` has length M.
  virtual SparseSolution solve(const linalg::Matrix& a,
                               std::span<const double> y,
                               const SolveContext& ctx) const = 0;
};

/// Name -> factory registry.  The process-wide instance (global()) comes
/// pre-loaded with every built-in solver; campaigns and tests may
/// register additional ones.  All methods are thread-safe; the registry
/// itself is the only intentional global in the solver layer and is
/// only mutated at registration time, never during a solve.
class SolverRegistry {
 public:
  using Factory = std::function<std::unique_ptr<SparseSolver>()>;

  /// The process-wide registry, lazily initialized with the built-ins:
  ///   "omp"     -> omp_solve            (eq. 13 greedy; the default)
  ///   "cosamp"  -> cosamp_solve         (batched greedy, needs K)
  ///   "iht"     -> iht_solve            (normalized IHT, needs K)
  ///   "bp"      -> basis_pursuit        (eqs. 9-10 L1 via simplex)
  ///   "ols"     -> solve_ols            (eq. 11 refit)
  ///   "gls"     -> solve_gls_diag       (eq. 12 refit; noise_stddev)
  ///   "ridge"   -> solve_ridge          (conditioning fallback)
  /// plus aliases "niht" (iht) and "basis_pursuit" (bp).
  static SolverRegistry& global();

  /// Registers (or replaces) a factory under `name`.  Throws
  /// std::invalid_argument on an empty name or null factory.
  void register_solver(std::string name, Factory factory);

  /// Instantiates the named solver; throws std::invalid_argument for
  /// unknown names (message lists what is registered).
  std::unique_ptr<SparseSolver> create(std::string_view name) const;

  bool contains(std::string_view name) const;

  /// Registered names, sorted, aliases included.
  std::vector<std::string> names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Factory, std::less<>> factories_;
};

}  // namespace sensedroid::cs
