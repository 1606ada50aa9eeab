#include "cs/solver.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "cs/basis_pursuit.h"
#include "cs/greedy_variants.h"
#include "cs/least_squares.h"
#include "linalg/vector_ops.h"
#include "obs/metrics.h"

namespace sensedroid::cs {

namespace {

using linalg::norm2;

// Every adapter routes metrics through the context's sink when one is
// given; a local optional because ScopedMetricShard is neither copyable
// nor movable.
struct SinkGuard {
  std::optional<obs::ScopedMetricShard> shard;
  explicit SinkGuard(const SolveContext& ctx) {
    if (ctx.metrics != nullptr) shard.emplace(ctx.metrics);
  }
};

// Wraps a dense least-squares coefficient vector as a full-support
// SparseSolution so the refit solvers fit the common interface.
SparseSolution full_support_solution(const Matrix& a,
                                     std::span<const double> y, Vector coef) {
  SparseSolution s;
  s.support.resize(a.cols());
  std::iota(s.support.begin(), s.support.end(), std::size_t{0});
  const Vector fitted = a * coef;
  Vector r(y.begin(), y.end());
  for (std::size_t i = 0; i < r.size(); ++i) r[i] -= fitted[i];
  s.residual_norm = norm2(r);
  s.coefficients = std::move(coef);
  s.iterations = 1;
  return s;
}

class OmpSolver final : public SparseSolver {
 public:
  std::string_view name() const noexcept override { return "omp"; }
  SparseSolution solve(const Matrix& a, std::span<const double> y,
                       const SolveContext& ctx) const override {
    SinkGuard guard(ctx);
    OmpOptions o;
    o.max_sparsity = ctx.sparsity;  // 0 = min(M, N), OMP's own default
    if (ctx.residual_tol >= 0.0) o.residual_tol = ctx.residual_tol;
    // ctx.max_iterations is redundant for OMP (one atom per iteration,
    // already bounded by the sparsity budget) and is ignored.
    o.cancel = ctx.cancel;
    return omp_solve(a, y, o);
  }
};

class CosampSolver final : public SparseSolver {
 public:
  std::string_view name() const noexcept override { return "cosamp"; }
  SparseSolution solve(const Matrix& a, std::span<const double> y,
                       const SolveContext& ctx) const override {
    SinkGuard guard(ctx);
    CosampOptions o;
    o.sparsity = ctx.sparsity;  // 0 rejected by cosamp_solve (K-targeted)
    if (ctx.max_iterations) o.max_iterations = ctx.max_iterations;
    if (ctx.residual_tol >= 0.0) o.residual_tol = ctx.residual_tol;
    o.cancel = ctx.cancel;
    return cosamp_solve(a, y, o);
  }
};

class IhtSolver final : public SparseSolver {
 public:
  std::string_view name() const noexcept override { return "iht"; }
  SparseSolution solve(const Matrix& a, std::span<const double> y,
                       const SolveContext& ctx) const override {
    SinkGuard guard(ctx);
    IhtOptions o;
    o.sparsity = ctx.sparsity;  // 0 rejected by iht_solve (K-targeted)
    if (ctx.max_iterations) o.max_iterations = ctx.max_iterations;
    if (ctx.residual_tol >= 0.0) o.residual_tol = ctx.residual_tol;
    o.cancel = ctx.cancel;
    return iht_solve(a, y, o);
  }
};

class BasisPursuitSolver final : public SparseSolver {
 public:
  std::string_view name() const noexcept override { return "bp"; }
  SparseSolution solve(const Matrix& a, std::span<const double> y,
                       const SolveContext& ctx) const override {
    SinkGuard guard(ctx);
    BasisPursuitOptions o;
    if (ctx.max_iterations) o.lp.max_iterations = ctx.max_iterations;
    // The simplex polls the token once per pivot; a cancelled
    // solve yields the zero solution (residual = ||y||), same shape as
    // the other solvers' partial results.
    o.lp.cancel = ctx.cancel;
    BpSolution bp = bp_solve(a, y, o);
    if (bp.status == LpStatus::kCancelled) {
      SparseSolution s;
      s.coefficients.assign(a.cols(), 0.0);
      s.residual_norm = norm2(y);
      s.iterations = bp.iterations;
      return s;
    }
    if (bp.status != LpStatus::kOptimal) {
      throw std::runtime_error(std::string("bp solver: LP ") +
                               to_string(bp.status));
    }
    return std::move(bp.solution);
  }
};

class OlsSolver final : public SparseSolver {
 public:
  std::string_view name() const noexcept override { return "ols"; }
  SparseSolution solve(const Matrix& a, std::span<const double> y,
                       const SolveContext& ctx) const override {
    SinkGuard guard(ctx);
    return full_support_solution(a, y, solve_ols(a, y));
  }
};

class GlsSolver final : public SparseSolver {
 public:
  std::string_view name() const noexcept override { return "gls"; }
  SparseSolution solve(const Matrix& a, std::span<const double> y,
                       const SolveContext& ctx) const override {
    SinkGuard guard(ctx);
    // Degrades to OLS when no (or mismatched) noise model is supplied —
    // the homogeneous-fleet limit of eq. 12.
    Vector coef = ctx.noise_stddev.size() == a.rows()
                      ? solve_gls_diag(a, y, ctx.noise_stddev)
                      : solve_ols(a, y);
    return full_support_solution(a, y, std::move(coef));
  }
};

class RidgeSolver final : public SparseSolver {
 public:
  std::string_view name() const noexcept override { return "ridge"; }
  SparseSolution solve(const Matrix& a, std::span<const double> y,
                       const SolveContext& ctx) const override {
    SinkGuard guard(ctx);
    double lambda = ctx.ridge_lambda;
    if (lambda <= 0.0) {
      const double scale = std::max(a.frobenius_norm(), 1e-12);
      lambda = 1e-8 * scale * scale;
    }
    return full_support_solution(a, y, solve_ridge(a, y, lambda));
  }
};

}  // namespace

SolverRegistry& SolverRegistry::global() {
  static SolverRegistry reg;
  static const bool initialized = [] {
    reg.register_solver("omp",
                        [] { return std::make_unique<OmpSolver>(); });
    reg.register_solver("cosamp",
                        [] { return std::make_unique<CosampSolver>(); });
    reg.register_solver("iht",
                        [] { return std::make_unique<IhtSolver>(); });
    reg.register_solver("niht",
                        [] { return std::make_unique<IhtSolver>(); });
    reg.register_solver("bp",
                        [] { return std::make_unique<BasisPursuitSolver>(); });
    reg.register_solver("basis_pursuit",
                        [] { return std::make_unique<BasisPursuitSolver>(); });
    reg.register_solver("ols",
                        [] { return std::make_unique<OlsSolver>(); });
    reg.register_solver("gls",
                        [] { return std::make_unique<GlsSolver>(); });
    reg.register_solver("ridge",
                        [] { return std::make_unique<RidgeSolver>(); });
    return true;
  }();
  (void)initialized;
  return reg;
}

void SolverRegistry::register_solver(std::string name, Factory factory) {
  if (name.empty()) {
    throw std::invalid_argument("SolverRegistry: empty solver name");
  }
  if (!factory) {
    throw std::invalid_argument("SolverRegistry: null factory for '" + name +
                                "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  factories_[std::move(name)] = std::move(factory);
}

std::unique_ptr<SparseSolver> SolverRegistry::create(
    std::string_view name) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = factories_.find(name);
    if (it == factories_.end()) {
      std::string msg = "SolverRegistry: unknown solver '";
      msg += name;
      msg += "' (registered:";
      for (const auto& [n, f] : factories_) {
        msg += ' ';
        msg += n;
      }
      msg += ')';
      throw std::invalid_argument(msg);
    }
    factory = it->second;  // copy so the call runs outside the lock
  }
  return factory();
}

bool SolverRegistry::contains(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.find(name) != factories_.end();
}

std::vector<std::string> SolverRegistry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [n, f] : factories_) out.push_back(n);
  return out;
}

}  // namespace sensedroid::cs
