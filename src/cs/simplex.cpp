#include "cs/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "linalg/updatable_lu.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sensedroid::cs {

const char* to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterationLimit: return "iteration-limit";
    case LpStatus::kCancelled: return "cancelled";
  }
  return "unknown";
}

namespace {

constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

// ------------------------------------------------------------------ revised
//
// Column providers.  The engine only touches the constraint matrix
// through these four calls, so the BP provider can serve the 2n-wide
// [A, -A] universe from the m x n dictionary without ever forming it.

// Explicit columns of a general standard-form LP.
struct ExplicitColumns {
  const Matrix& a;
  std::span<const double> c;

  std::size_t rows() const { return a.rows(); }
  std::size_t nstruct() const { return a.cols(); }
  double cost(std::size_t j) const { return c[j]; }
  void col_into(std::size_t j, std::span<double> out) const {
    a.col_into(j, out);
  }
  /// out[j] = a_j . w for every structural column, one kernel sweep.
  void dots(std::span<const double> w, std::span<double> out) const {
    a.transpose_times_into(w, out);
  }
  void col_sqnorms(std::span<double> out) const { a.col_sqnorms_into(out); }
};

// The [A, -A] universe of basis pursuit: column j < n is +A_j, column
// n + j is -A_j, both with unit cost.  One A^T w sweep prices all 2n.
struct BpColumns {
  const Matrix& a;

  std::size_t rows() const { return a.rows(); }
  std::size_t nstruct() const { return 2 * a.cols(); }
  double cost(std::size_t) const { return 1.0; }
  void col_into(std::size_t j, std::span<double> out) const {
    const std::size_t n = a.cols();
    if (j < n) {
      a.col_into(j, out);
    } else {
      a.col_into(j - n, out);
      for (double& v : out) v = -v;
    }
  }
  void dots(std::span<const double> w, std::span<double> out) const {
    const std::size_t n = a.cols();
    a.transpose_times_into(w, out.subspan(0, n));
    for (std::size_t j = 0; j < n; ++j) out[n + j] = -out[j];
  }
  void col_sqnorms(std::span<double> out) const {
    const std::size_t n = a.cols();
    a.col_sqnorms_into(out.subspan(0, n));
    for (std::size_t j = 0; j < n; ++j) out[n + j] = out[j];
  }
  /// Dantzig entering choice specialized to the paired universe: with
  /// z_{n+j} = -z_j and both members at unit cost, the pair's best
  /// reduced cost is cost - |z_j|, and at most one member is eligible
  /// (the one matching sign(z_j)).  One A^T w sweep plus one |z| scan of
  /// n entries replaces the generic 2n reduced-cost pass — the generic
  /// scan was the single most expensive step of a BP pivot.  Ordering
  /// matches the generic scan (first strictly-best index wins), so this
  /// is a pure strength reduction, not a pricing change.
  /// The paired universe makes ANY nonsingular column selection a
  /// feasible starting basis: with B' = B D (D a diagonal of signs),
  /// x_B = D B^{-1} y = |B^{-1} y| >= 0 once every negative component
  /// swaps its column for the mirrored one.  Candidates are the m
  /// columns most correlated with y (ties to the lower index), so phase
  /// 1 is skipped outright and phase 2 opens near the l1 optimum.
  std::vector<std::size_t> crash_candidates(std::span<const double> b) const {
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    if (n < m) return {};
    std::vector<double> z(n);
    a.transpose_times_into(b, z);
    std::vector<std::size_t> order(n);
    for (std::size_t j = 0; j < n; ++j) order[j] = j;
    std::partial_sort(order.begin(), order.begin() + m, order.end(),
                      [&](std::size_t l, std::size_t r) {
                        const double zl = std::abs(z[l]);
                        const double zr = std::abs(z[r]);
                        if (zl != zr) return zl > zr;
                        return l < r;
                      });
    order.resize(m);
    return order;
  }
  std::size_t mirror(std::size_t j) const {
    const std::size_t n = a.cols();
    return j < n ? j + n : j - n;
  }
  std::size_t dantzig_enter(std::span<const double> w, std::span<double> z,
                            const std::uint8_t* is_basic, bool phase1,
                            double tol) const {
    const std::size_t n = a.cols();
    a.transpose_times_into(w, z.subspan(0, n));
    double best = (phase1 ? 0.0 : 1.0) + tol;
    std::size_t enter = kNoIndex;
    for (std::size_t j = 0; j < n; ++j) {
      const double v = std::abs(z[j]);
      if (v > best) {
        const std::size_t id = z[j] > 0.0 ? j : n + j;
        if (!is_basic[id]) {
          best = v;
          enter = id;
        }
      }
    }
    return enter;
  }
};

// Revised-simplex driver over a column provider.  Artificial variable r
// carries internal id nstruct() + r (exactly the exported basis-id
// convention), with column sign(b_r) * e_r so the all-artificial cold
// start is feasible at x = |b|.
template <typename Columns>
class RevisedSimplex {
 public:
  RevisedSimplex(const Columns& cols, std::span<const double> b,
                 const SimplexOptions& opts)
      : cols_(cols),
        b_(b),
        opts_(opts),
        m_(b.size()),
        ns_(cols.nstruct()),
        lu_(m_),
        basis_(m_),
        is_basic_(ns_, 0),
        xb_(m_, 0.0),
        cb_(m_, 0.0),
        w_(m_, 0.0),
        d_(m_, 0.0),
        colbuf_(m_, 0.0),
        rc_(ns_, 0.0) {
    art_sign_.resize(m_);
    for (std::size_t r = 0; r < m_; ++r) {
      art_sign_[r] = b_[r] < 0.0 ? -1.0 : 1.0;
    }
    bscale_ = 1.0;
    for (const double v : b_) bscale_ = std::max(bscale_, std::abs(v));
    feas_eps_ = 1e-7 * bscale_;
    max_iters_ = opts.max_iterations != 0 ? opts.max_iterations
                                          : 200 + 40 * (m_ + ns_);
  }

  LpSolution run() {
    LpSolution sol;
    if (m_ == 0) {
      sol.status = LpStatus::kOptimal;
      sol.x.assign(ns_, 0.0);
      return sol;
    }

    bool warm = try_warm_start();
    if (!warm && try_crash_start()) warm = true;
    if (!warm) cold_start();

    if (!warm) {
      const LpStatus p1 = iterate(/*phase1=*/true, sol.iterations);
      if (p1 != LpStatus::kOptimal) {
        sol.status = p1;
        export_basis(sol);
        return sol;
      }
      double infeas = 0.0;
      for (std::size_t r = 0; r < m_; ++r) {
        if (basis_[r] >= ns_) infeas += std::max(xb_[r], 0.0);
      }
      if (infeas > 1e-6 * bscale_) {
        sol.status = LpStatus::kInfeasible;
        export_basis(sol);
        return sol;
      }
      drive_out_artificials();
    }

    const LpStatus p2 = iterate(/*phase1=*/false, sol.iterations);
    sol.status = p2;
    export_basis(sol);
    if (p2 != LpStatus::kOptimal) return sol;

    sol.x.assign(ns_, 0.0);
    sol.objective = 0.0;
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] < ns_) {
        const double v = std::max(xb_[r], 0.0);
        sol.x[basis_[r]] = v;
        sol.objective += cols_.cost(basis_[r]) * v;
      }
    }
    if (refactors_ > 0 && obs::attached()) {
      obs::add_counter("cs.simplex.refactorizations",
                       static_cast<double>(refactors_));
    }
    return sol;
  }

 private:
  void column_of(std::size_t id, std::span<double> out) const {
    if (id < ns_) {
      cols_.col_into(id, out);
    } else {
      std::fill(out.begin(), out.end(), 0.0);
      out[id - ns_] = art_sign_[id - ns_];
    }
  }

  // Builds the basis matrix from the current basis ids and refactorizes;
  // recomputes x_B from scratch.  False only when the basis is singular
  // to working precision (should not happen for a genuine simplex basis).
  bool refactorize() {
    Matrix bm(m_, m_);
    Vector col(m_);
    for (std::size_t s = 0; s < m_; ++s) {
      column_of(basis_[s], col);
      for (std::size_t i = 0; i < m_; ++i) bm(i, s) = col[i];
    }
    if (!lu_.factor(bm)) return false;
    ++refactors_;
    recompute_xb();
    return true;
  }

  void recompute_xb() {
    lu_.ftran(b_, xb_);
    for (double& v : xb_) {
      if (v < 0.0 && v > -feas_eps_) v = 0.0;
    }
  }

  void cold_start() {
    for (std::size_t r = 0; r < m_; ++r) basis_[r] = ns_ + r;
    std::fill(is_basic_.begin(), is_basic_.end(), 0);
    refactorize();  // diagonal of +/-1: cannot fail
  }

  // Accept the caller's basis when it is nonsingular, primal feasible,
  // and carries no artificial slack — then phase 1 is skipped outright.
  bool try_warm_start() {
    const auto& wb = opts_.warm_basis;
    if (wb.size() != m_) return false;
    std::vector<std::uint8_t> seen(ns_ + m_, 0);
    for (const std::size_t id : wb) {
      if (id >= ns_ + m_ || seen[id]) return false;
      seen[id] = 1;
    }
    std::copy(wb.begin(), wb.end(), basis_.begin());
    std::fill(is_basic_.begin(), is_basic_.end(), 0);
    for (const std::size_t id : wb) {
      if (id < ns_) is_basic_[id] = 1;
    }
    if (!refactorize()) return false;
    for (std::size_t r = 0; r < m_; ++r) {
      if (xb_[r] < 0.0) return false;  // primal infeasible for this b
      if (basis_[r] >= ns_ && xb_[r] > feas_eps_) return false;
    }
    if (obs::attached()) obs::add_counter("cs.simplex.warm_starts");
    return true;
  }

  // Column providers whose universe admits a direct feasible basis (the
  // BP pairing) expose crash_candidates/mirror; everyone else falls
  // through to the artificial phase-1 start.  On success the basis is
  // feasible by construction, so phase 1 is skipped like a warm start.
  bool try_crash_start() {
    if constexpr (requires {
                    cols_.crash_candidates(std::span<const double>{});
                    cols_.mirror(std::size_t{});
                  }) {
      const std::vector<std::size_t> ids = cols_.crash_candidates(b_);
      if (ids.size() != m_) return false;
      std::copy(ids.begin(), ids.end(), basis_.begin());
      std::fill(is_basic_.begin(), is_basic_.end(), 0);
      for (const std::size_t id : ids) is_basic_[id] = 1;
      if (!refactorize()) return false;  // cold_start() resets the state
      bool flipped = false;
      for (std::size_t r = 0; r < m_; ++r) {
        if (xb_[r] < 0.0) {
          is_basic_[basis_[r]] = 0;
          basis_[r] = cols_.mirror(basis_[r]);
          is_basic_[basis_[r]] = 1;
          flipped = true;
        }
      }
      if (flipped && !refactorize()) return false;
      for (std::size_t r = 0; r < m_; ++r) {
        if (xb_[r] < 0.0) return false;
      }
      if (obs::attached()) obs::add_counter("cs.simplex.crash_starts");
      return true;
    }
    return false;
  }

  // Entering-variable choice.  `bland` overrides the configured rule
  // while a degenerate streak lasts.
  std::size_t price(bool phase1, bool bland) {
    // Duals: w = B^{-T} c_B.
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t id = basis_[r];
      cb_[r] = phase1 ? (id >= ns_ ? 1.0 : 0.0)
                      : (id < ns_ ? cols_.cost(id) : 0.0);
    }
    lu_.btran(cb_, w_);
    const double tol = opts_.tol;
    if constexpr (requires {
                    cols_.dantzig_enter(std::span<const double>{},
                                        std::span<double>{},
                                        static_cast<const std::uint8_t*>(
                                            nullptr),
                                        true, 0.0);
                  }) {
      if (!bland && opts_.pricing == SimplexPricing::kDantzig) {
        return cols_.dantzig_enter(w_, rc_, is_basic_.data(), phase1, tol);
      }
    }
    cols_.dots(w_, rc_);  // rc_ holds a_j . w for now
    std::size_t enter = kNoIndex;
    double best = -tol;
    for (std::size_t j = 0; j < ns_; ++j) {
      if (is_basic_[j]) continue;
      const double rc = (phase1 ? 0.0 : cols_.cost(j)) - rc_[j];
      if (rc >= -tol) continue;
      if (bland) return j;  // smallest eligible index
      double score = rc;
      if (opts_.pricing == SimplexPricing::kSteepestEdge) {
        ensure_gammas();
        score = rc / gamma_[j];
      }
      if (score < best) {
        best = score;
        enter = j;
      }
    }
    return enter;
  }

  void ensure_gammas() {
    if (!gamma_.empty()) return;
    gamma_.assign(ns_, 0.0);
    cols_.col_sqnorms(gamma_);
    for (double& g : gamma_) g = std::sqrt(1.0 + g);
  }

  LpStatus iterate(bool phase1, std::size_t& iter_count) {
    const double tol = opts_.tol;
    bool bland = opts_.pricing == SimplexPricing::kBland;
    std::size_t degen_streak = 0;
    const std::size_t bland_trigger = 2 * m_ + 16;

    for (; iter_count < max_iters_; ++iter_count) {
      if (poll_cancelled(opts_.cancel)) return LpStatus::kCancelled;

      const bool bland_now = bland || degen_streak > bland_trigger;
      const std::size_t enter = price(phase1, bland_now);
      if (enter == kNoIndex) return LpStatus::kOptimal;

      cols_.col_into(enter, colbuf_);
      lu_.ftran(colbuf_, d_);

      // Ratio test.  Basic artificials are pinned at zero in phase 2:
      // any one the entering direction touches leaves immediately
      // (theta = 0), or the original equalities would be violated.
      std::size_t leave = kNoIndex;
      double best_ratio = std::numeric_limits<double>::infinity();
      double best_piv = 0.0;
      for (std::size_t i = 0; i < m_; ++i) {
        const double di = d_[i];
        if (!phase1 && basis_[i] >= ns_ && std::abs(di) > tol) {
          if (best_ratio > 0.0 || std::abs(di) > std::abs(best_piv)) {
            best_ratio = 0.0;
            best_piv = di;
            leave = i;
          }
          continue;
        }
        if (di > tol) {
          const double ratio = std::max(xb_[i], 0.0) / di;
          const bool better =
              ratio < best_ratio - tol ||
              (ratio <= best_ratio + tol &&
               (bland_now ? (leave != kNoIndex && basis_[i] < basis_[leave])
                          : di > best_piv));
          if (leave == kNoIndex || better) {
            if (ratio < best_ratio) best_ratio = ratio;
            best_piv = di;
            leave = i;
          }
        }
      }
      if (leave == kNoIndex) return LpStatus::kUnbounded;

      const double theta = std::max(best_ratio, 0.0);
      if (theta > 0.0) {
        for (std::size_t i = 0; i < m_; ++i) xb_[i] -= theta * d_[i];
      }
      xb_[leave] = theta;
      const std::size_t old_id = basis_[leave];
      if (old_id < ns_) is_basic_[old_id] = 0;
      basis_[leave] = enter;
      is_basic_[enter] = 1;

      if (lu_.updates_since_factor() + 1 >= opts_.refactor_interval) {
        if (!refactorize()) return LpStatus::kIterationLimit;
      } else if (!lu_.replace_column(leave, colbuf_)) {
        // Unstable update: rebuild from the true basis columns.
        if (!refactorize()) return LpStatus::kIterationLimit;
      }

      if (theta <= tol) {
        ++degen_streak;  // Bland fallback arms after a long streak
      } else {
        degen_streak = 0;
      }
    }
    return LpStatus::kIterationLimit;
  }

  // Post-phase-1 cleanup: swap basic (zero-valued) artificials for any
  // structural column with a nonzero entry in that basis row.  One
  // B^{-T} e_r + one pricing-style sweep per stuck artificial; rows with
  // an all-zero structural row are redundant and keep their artificial.
  void drive_out_artificials() {
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] < ns_) continue;
      std::fill(cb_.begin(), cb_.end(), 0.0);
      cb_[r] = 1.0;
      lu_.btran(cb_, w_);     // row r of B^{-1}, in constraint space
      cols_.dots(w_, rc_);    // entries of that row across all columns
      std::size_t enter = kNoIndex;
      double best = opts_.tol;
      for (std::size_t j = 0; j < ns_; ++j) {
        if (is_basic_[j]) continue;
        if (std::abs(rc_[j]) > best) {
          best = std::abs(rc_[j]);
          enter = j;
        }
      }
      if (enter == kNoIndex) continue;  // redundant constraint
      cols_.col_into(enter, colbuf_);
      basis_[r] = enter;
      is_basic_[enter] = 1;
      if (!lu_.replace_column(r, colbuf_)) {
        if (!refactorize()) continue;
      } else {
        recompute_xb();
      }
    }
  }

  void export_basis(LpSolution& sol) const { sol.basis = basis_; }

  const Columns& cols_;
  std::span<const double> b_;
  const SimplexOptions& opts_;
  std::size_t m_;
  std::size_t ns_;
  linalg::UpdatableLU lu_;
  std::vector<std::size_t> basis_;
  std::vector<std::uint8_t> is_basic_;
  Vector xb_, cb_, w_, d_, colbuf_, rc_;
  Vector art_sign_;
  Vector gamma_;  // steepest-edge reference weights, built on demand
  double bscale_ = 1.0;
  double feas_eps_ = 1e-7;
  std::size_t max_iters_ = 0;
  std::size_t refactors_ = 0;
};

// Records solve metrics on every exit path (optimal, infeasible, limit).
struct Recorder {
  const LpSolution& s;
  ~Recorder() {
    if (!obs::attached()) return;
    obs::add_counter("cs.simplex.solves");
    obs::add_counter("cs.simplex.pivots", static_cast<double>(s.iterations));
    obs::add_counter("cs.simplex.outcome", {{"status", to_string(s.status)}},
                     1.0);
  }
};

}  // namespace

LpSolution simplex_solve(const LpProblem& problem,
                         const SimplexOptions& opts) {
  const std::size_t m = problem.a.rows();
  const std::size_t n = problem.a.cols();
  if (problem.b.size() != m) {
    throw std::invalid_argument("simplex_solve: b size mismatch");
  }
  if (problem.c.size() != n) {
    throw std::invalid_argument("simplex_solve: c size mismatch");
  }

  obs::ScopedSpan span("cs.simplex.solve");
  obs::ScopedTimer timer("cs.simplex.solve_us");

  LpSolution sol;
  Recorder recorder{sol};
  const ExplicitColumns cols{problem.a, problem.c};
  sol = RevisedSimplex<ExplicitColumns>(cols, problem.b, opts).run();
  return sol;
}

LpSolution simplex_solve_bp(const Matrix& a, std::span<const double> y,
                            const SimplexOptions& opts) {
  if (y.size() != a.rows()) {
    throw std::invalid_argument("simplex_solve_bp: y size mismatch");
  }

  obs::ScopedSpan span("cs.simplex.solve");
  obs::ScopedTimer timer("cs.simplex.solve_us");

  LpSolution sol;
  Recorder recorder{sol};
  const BpColumns cols{a};
  sol = RevisedSimplex<BpColumns>(cols, y, opts).run();
  return sol;
}

}  // namespace sensedroid::cs
