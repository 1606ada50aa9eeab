// Structured sensing operators (ROADMAP item 3b).
//
// A zone's sensing matrix is almost never "random dense": it is
// (selected rows) x (structured orthonormal basis), e.g. the m sensor
// locations of a zone reading a DCT-sparse field.  Materializing it as a
// dense m x n Matrix costs O(mn) memory per zone and O(mn) per
// correlation sweep — the two terms that stop the hierarchy from scaling
// past n ~ 256.  LinearOperator abstracts the product form so the greedy
// solvers' hot loops (A^T r sweeps, column gathers, column norms) run
// against O(n log n) fast transforms and O(m + n) state instead.
//
// DenseOperator wraps an explicit Matrix and forwards to the exact same
// blocked kernels the solvers called before, so the dense path through
// the operator interface is bit-identical to the historical direct-
// Matrix path.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace sensedroid::linalg {

/// Abstract rows() x cols() linear map.  Implementations must be
/// reentrant: apply* on a shared const instance from many threads
/// concurrently is the normal batch-solve usage.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  virtual std::size_t rows() const noexcept = 0;
  virtual std::size_t cols() const noexcept = 0;

  /// out = A x.  x.size() == cols(), out.size() == rows().
  virtual void apply_into(std::span<const double> x,
                          std::span<double> out) const = 0;

  /// out = A^T y.  y.size() == rows(), out.size() == cols().
  virtual void apply_transpose_into(std::span<const double> y,
                                    std::span<double> out) const = 0;

  /// Bytes of state this operator holds to represent A — the "per-zone
  /// operator memory" number E25 reports.  A dense matrix is 8mn; the
  /// structured forms are O(m + n).
  virtual std::size_t state_bytes() const noexcept = 0;

  /// Column c of A into out (size rows()).  Default applies A to the
  /// c-th unit vector; structured operators override with a direct
  /// formula so greedy refits see exact basis entries.
  virtual void column_into(std::size_t c, std::span<double> out) const;

  /// Squared Euclidean norm of every column into out (size cols()).
  /// Default assembles each column; structured operators override.
  virtual void column_sqnorms_into(std::span<double> out) const;

  /// Fused A^T y and column squared norms (both size cols()), the form
  /// OMP's first iteration consumes.  Default: two separate calls.
  virtual void apply_transpose_sqnorms_into(std::span<const double> y,
                                            std::span<double> out,
                                            std::span<double> sqnorms) const;

  /// Rows `idx` of A as an idx.size() x cols() matrix (the M x N row
  /// slice a measurement plan reads).  Throws std::out_of_range for an
  /// index >= rows().  Default assembles every column; operators with a
  /// closed form override so the slice holds exact entries.
  virtual Matrix select_rows(std::span<const std::size_t> idx) const;

  /// Allocating conveniences.
  Vector apply(std::span<const double> x) const;
  Vector apply_transpose(std::span<const double> y) const;

  /// Assembles the explicit dense matrix (tests / fallbacks only).
  Matrix to_dense() const;
};

/// Dense matrix behind the operator interface.  Every method forwards to
/// the corresponding blocked Matrix kernel, so solver paths routed
/// through a DenseOperator produce bit-identical results to the direct
/// Matrix overloads.  Non-owning by default (the Matrix must outlive the
/// operator); the rvalue constructor takes ownership.
class DenseOperator final : public LinearOperator {
 public:
  explicit DenseOperator(const Matrix& a) : a_(&a) {}
  explicit DenseOperator(Matrix&& a) : owned_(std::move(a)), a_(&owned_) {}
  DenseOperator(const DenseOperator&) = delete;
  DenseOperator& operator=(const DenseOperator&) = delete;

  std::size_t rows() const noexcept override { return a_->rows(); }
  std::size_t cols() const noexcept override { return a_->cols(); }
  std::size_t state_bytes() const noexcept override {
    return a_->rows() * a_->cols() * sizeof(double);
  }

  void apply_into(std::span<const double> x,
                  std::span<double> out) const override;
  void apply_transpose_into(std::span<const double> y,
                            std::span<double> out) const override;
  void column_into(std::size_t c, std::span<double> out) const override;
  void column_sqnorms_into(std::span<double> out) const override;
  void apply_transpose_sqnorms_into(std::span<const double> y,
                                    std::span<double> out,
                                    std::span<double> sqnorms) const override;
  Matrix select_rows(std::span<const std::size_t> idx) const override;

 private:
  Matrix owned_;
  const Matrix* a_;
};

/// Kronecker product A (x) B of two dense factors, never formed: entry
/// (i * B.rows() + k, j * B.cols() + l) is A(i, j) * B(k, l), the layout
/// of kronecker() and dct2_basis.  A separable zone basis is exactly this
/// shape (dct2_basis(w, h) == dct_basis(w) (x) dct_basis(h)), so a zone
/// holds 8 (w^2 + h^2) bytes instead of 8 N^2.  apply and
/// apply_transpose run as two small dense products, O(N (w + h)) instead
/// of O(N^2); they round differently from the dense GEMV (within 1e-12
/// relative).  column_into and select_rows compute every entry as the
/// single product A(i, j) * B(k, l), as dct2_basis does, so refit
/// matrices and synthesis columns match the dense basis bit for bit.
class KroneckerOperator final : public LinearOperator {
 public:
  /// Takes both factors.  Throws std::invalid_argument when either is
  /// empty.
  KroneckerOperator(Matrix a, Matrix b);

  std::size_t rows() const noexcept override { return a_.rows() * b_.rows(); }
  std::size_t cols() const noexcept override { return a_.cols() * b_.cols(); }
  std::size_t state_bytes() const noexcept override {
    return (a_.rows() * a_.cols() + b_.rows() * b_.cols()) * sizeof(double);
  }

  void apply_into(std::span<const double> x,
                  std::span<double> out) const override;
  void apply_transpose_into(std::span<const double> y,
                            std::span<double> out) const override;
  void column_into(std::size_t c, std::span<double> out) const override;
  Matrix select_rows(std::span<const std::size_t> idx) const override;

 private:
  Matrix a_;
  Matrix b_;
};

/// Phi = (selected rows) x (orthonormal DCT synthesis basis), the
/// measurement operator of eq. 7 when the zone basis is kDct — without
/// ever forming the n x n basis.  apply runs a fast inverse DCT
/// (DCT-III butterfly recursion) then gathers the selected rows;
/// apply_transpose scatters into the full grid then runs a fast forward
/// DCT (DCT-II).  O(n log n) per sweep for any n whose factorization is
/// 2^a * q (the odd tail q falls back to a naive O(q^2) base case, so
/// non-power-of-two sizes stay exact, just less fast).  State is
/// O(m + n): the row list, per-level twiddle factors, and precomputed
/// column norms.
///
/// Supports both the 1-D DCT basis (dct_basis) and the separable 2-D
/// basis (dct2_basis) under the same eq.-1 column stacking; column
/// entries are computed with the exact expressions those builders use,
/// so refits against gathered columns match the dense path bit-for-bit.
class SubsampledDctOperator final : public LinearOperator {
 public:
  /// 1-D basis of size n; `row_idx` selects the measured grid points in
  /// order (values < n; an empty list means "all n rows", i.e. the full
  /// square synthesis operator).
  SubsampledDctOperator(std::size_t n, std::vector<std::size_t> row_idx);

  /// Separable 2-D basis over a width x height grid (n = width*height),
  /// matching dct2_basis's column ordering.
  SubsampledDctOperator(std::size_t width, std::size_t height,
                        std::vector<std::size_t> row_idx);

  std::size_t rows() const noexcept override {
    return row_idx_.empty() ? n_ : row_idx_.size();
  }
  std::size_t cols() const noexcept override { return n_; }
  std::size_t state_bytes() const noexcept override;

  void apply_into(std::span<const double> x,
                  std::span<double> out) const override;
  void apply_transpose_into(std::span<const double> y,
                            std::span<double> out) const override;
  void column_into(std::size_t c, std::span<double> out) const override;
  void column_sqnorms_into(std::span<double> out) const override;

 private:
  // Per-length butterfly plan: level v holds the 1/(2 cos((i+0.5)pi/L))
  // factors for L = len >> v while even.  Shared by forward and inverse.
  struct Plan {
    std::size_t len = 0;
    std::vector<std::vector<double>> recip;
    void build(std::size_t n);
    void forward(double* x, double* tmp) const;   // unscaled DCT-II
    void inverse(double* x, double* tmp) const;   // unscaled DCT-III
  };

  void synth_1d(const Plan& plan, double scale0, double scale, double* x,
                double* tmp) const;
  void analyze_1d(const Plan& plan, double scale0, double scale, double* x,
                  double* tmp) const;
  void full_synthesis(std::span<const double> alpha,
                      std::span<double> grid) const;
  void full_analysis(std::span<const double> grid,
                     std::span<double> alpha) const;
  Vector full_sqnorms_1d(std::size_t len, const Plan& plan, double scale0,
                         double scale,
                         std::span<const std::size_t> sel) const;
  void precompute_sqnorms();

  std::size_t n_ = 0;
  std::size_t width_ = 0;   // 0 for 1-D
  std::size_t height_ = 0;  // 0 for 1-D
  std::vector<std::size_t> row_idx_;
  Plan plan_a_;             // length n_ (1-D) or width_ (2-D)
  Plan plan_b_;             // length height_ (2-D only)
  double scale0_a_ = 0.0, scale_a_ = 0.0;
  double scale0_b_ = 0.0, scale_b_ = 0.0;
  Vector col_sqnorms_;
};

/// Row-scaled view D * A (D diagonal from `weights`): the GLS whitening
/// shape.  Non-owning — both the inner operator and the weights must
/// outlive this view.
class ScaledRowOperator final : public LinearOperator {
 public:
  ScaledRowOperator(const LinearOperator& inner,
                    std::span<const double> weights);

  std::size_t rows() const noexcept override { return inner_->rows(); }
  std::size_t cols() const noexcept override { return inner_->cols(); }
  std::size_t state_bytes() const noexcept override {
    return inner_->state_bytes() + weights_.size() * sizeof(double);
  }

  void apply_into(std::span<const double> x,
                  std::span<double> out) const override;
  void apply_transpose_into(std::span<const double> y,
                            std::span<double> out) const override;
  void column_into(std::size_t c, std::span<double> out) const override;

 private:
  const LinearOperator* inner_;
  std::span<const double> weights_;
};

}  // namespace sensedroid::linalg
