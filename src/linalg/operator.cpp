#include "linalg/operator.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

namespace sensedroid::linalg {

// ---------------------------------------------------------------------------
// LinearOperator defaults
// ---------------------------------------------------------------------------

void LinearOperator::column_into(std::size_t c, std::span<double> out) const {
  if (c >= cols()) throw std::out_of_range("LinearOperator::column_into");
  Vector e(cols(), 0.0);
  e[c] = 1.0;
  apply_into(e, out);
}

void LinearOperator::column_sqnorms_into(std::span<double> out) const {
  if (out.size() != cols()) {
    throw std::invalid_argument("LinearOperator::column_sqnorms_into: size");
  }
  Vector col(rows());
  for (std::size_t c = 0; c < cols(); ++c) {
    column_into(c, col);
    double acc = 0.0;
    for (double v : col) acc += v * v;
    out[c] = acc;
  }
}

void LinearOperator::apply_transpose_sqnorms_into(
    std::span<const double> y, std::span<double> out,
    std::span<double> sqnorms) const {
  apply_transpose_into(y, out);
  column_sqnorms_into(sqnorms);
}

Matrix LinearOperator::select_rows(std::span<const std::size_t> idx) const {
  for (std::size_t r : idx) {
    if (r >= rows()) throw std::out_of_range("LinearOperator::select_rows");
  }
  Matrix out(idx.size(), cols());
  Vector col(rows());
  for (std::size_t c = 0; c < cols(); ++c) {
    column_into(c, col);
    for (std::size_t r = 0; r < idx.size(); ++r) out(r, c) = col[idx[r]];
  }
  return out;
}

Vector LinearOperator::apply(std::span<const double> x) const {
  Vector out(rows(), 0.0);
  apply_into(x, out);
  return out;
}

Vector LinearOperator::apply_transpose(std::span<const double> y) const {
  Vector out(cols(), 0.0);
  apply_transpose_into(y, out);
  return out;
}

Matrix LinearOperator::to_dense() const {
  Matrix a(rows(), cols());
  Vector col(rows());
  for (std::size_t c = 0; c < cols(); ++c) {
    column_into(c, col);
    for (std::size_t r = 0; r < rows(); ++r) a(r, c) = col[r];
  }
  return a;
}

// ---------------------------------------------------------------------------
// DenseOperator: forwards to the exact Matrix kernels so results are
// bit-identical to the historical direct-Matrix solver paths.
// ---------------------------------------------------------------------------

void DenseOperator::apply_into(std::span<const double> x,
                               std::span<double> out) const {
  if (x.size() != cols() || out.size() != rows()) {
    throw std::invalid_argument("DenseOperator::apply_into: size");
  }
  // Same row-dot accumulation order as Matrix::operator*(span).
  for (std::size_t r = 0; r < rows(); ++r) {
    const auto row = a_->row(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < row.size(); ++c) acc += row[c] * x[c];
    out[r] = acc;
  }
}

void DenseOperator::apply_transpose_into(std::span<const double> y,
                                         std::span<double> out) const {
  a_->transpose_times_into(y, out);
}

void DenseOperator::column_into(std::size_t c, std::span<double> out) const {
  a_->col_into(c, out);
}

void DenseOperator::column_sqnorms_into(std::span<double> out) const {
  a_->col_sqnorms_into(out);
}

void DenseOperator::apply_transpose_sqnorms_into(
    std::span<const double> y, std::span<double> out,
    std::span<double> sqnorms) const {
  a_->transpose_times_sqnorms_into(y, out, sqnorms);
}

Matrix DenseOperator::select_rows(std::span<const std::size_t> idx) const {
  return a_->select_rows(idx);
}

// ---------------------------------------------------------------------------
// KroneckerOperator: (A (x) B) x reshapes x into a cols(A) x cols(B)
// row-major grid X and computes A X B^T; the transpose computes A^T Y B.
// Both run as two passes over contiguous rows of the small factors.
// Straight-line, no zero-skip: 0 * NaN must stay NaN.
// ---------------------------------------------------------------------------

KroneckerOperator::KroneckerOperator(Matrix a, Matrix b)
    : a_(std::move(a)), b_(std::move(b)) {
  if (a_.empty() || b_.empty()) {
    throw std::invalid_argument("KroneckerOperator: empty factor");
  }
}

void KroneckerOperator::apply_into(std::span<const double> x,
                                   std::span<double> out) const {
  if (x.size() != cols() || out.size() != rows()) {
    throw std::invalid_argument("KroneckerOperator::apply_into: size");
  }
  const std::size_t p = a_.rows(), q = a_.cols();
  const std::size_t r = b_.rows(), s = b_.cols();
  // T = X B^T (q x r): T[j][k] = <row j of X, row k of B>.
  Vector t(q * r);
  for (std::size_t j = 0; j < q; ++j) {
    const double* __restrict xj = x.data() + j * s;
    double* __restrict tj = t.data() + j * r;
    for (std::size_t k = 0; k < r; ++k) {
      const double* __restrict bk = b_.row(k).data();
      double acc = 0.0;
      for (std::size_t l = 0; l < s; ++l) acc += bk[l] * xj[l];
      tj[k] = acc;
    }
  }
  // out = A T (p x r): row i accumulates A(i, j) * row j of T.
  for (std::size_t i = 0; i < p; ++i) {
    const double* __restrict ai = a_.row(i).data();
    double* __restrict oi = out.data() + i * r;
    std::fill(oi, oi + r, 0.0);
    for (std::size_t j = 0; j < q; ++j) {
      const double aij = ai[j];
      const double* __restrict tj = t.data() + j * r;
      for (std::size_t k = 0; k < r; ++k) oi[k] += aij * tj[k];
    }
  }
}

void KroneckerOperator::apply_transpose_into(std::span<const double> y,
                                             std::span<double> out) const {
  if (y.size() != rows() || out.size() != cols()) {
    throw std::invalid_argument(
        "KroneckerOperator::apply_transpose_into: size");
  }
  const std::size_t p = a_.rows(), q = a_.cols();
  const std::size_t r = b_.rows(), s = b_.cols();
  // U = Y B (p x s): row i accumulates Y[i][k] * row k of B.
  Vector u(p * s, 0.0);
  for (std::size_t i = 0; i < p; ++i) {
    const double* __restrict yi = y.data() + i * r;
    double* __restrict ui = u.data() + i * s;
    for (std::size_t k = 0; k < r; ++k) {
      const double yik = yi[k];
      const double* __restrict bk = b_.row(k).data();
      for (std::size_t l = 0; l < s; ++l) ui[l] += yik * bk[l];
    }
  }
  // out = A^T U (q x s): row i of U feeds every output row j with A(i, j).
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t i = 0; i < p; ++i) {
    const double* __restrict ai = a_.row(i).data();
    const double* __restrict ui = u.data() + i * s;
    for (std::size_t j = 0; j < q; ++j) {
      const double aij = ai[j];
      double* __restrict oj = out.data() + j * s;
      for (std::size_t l = 0; l < s; ++l) oj[l] += aij * ui[l];
    }
  }
}

void KroneckerOperator::column_into(std::size_t c,
                                    std::span<double> out) const {
  if (c >= cols()) throw std::out_of_range("KroneckerOperator::column_into");
  if (out.size() != rows()) {
    throw std::invalid_argument("KroneckerOperator::column_into: size");
  }
  const std::size_t r = b_.rows(), s = b_.cols();
  const std::size_t j = c / s, l = c % s;
  for (std::size_t i = 0; i < a_.rows(); ++i) {
    const double aij = a_(i, j);
    for (std::size_t k = 0; k < r; ++k) out[i * r + k] = aij * b_(k, l);
  }
}

Matrix KroneckerOperator::select_rows(std::span<const std::size_t> idx) const {
  for (std::size_t g : idx) {
    if (g >= rows()) throw std::out_of_range("KroneckerOperator::select_rows");
  }
  const std::size_t r = b_.rows(), q = a_.cols(), s = b_.cols();
  Matrix out(idx.size(), cols());
  for (std::size_t m = 0; m < idx.size(); ++m) {
    const auto ai = a_.row(idx[m] / r);
    const double* __restrict bk = b_.row(idx[m] % r).data();
    double* __restrict dst = out.row(m).data();
    for (std::size_t j = 0; j < q; ++j) {
      const double aij = ai[j];
      for (std::size_t l = 0; l < s; ++l) dst[j * s + l] = aij * bk[l];
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// SubsampledDctOperator
// ---------------------------------------------------------------------------

namespace {

// Naive unscaled DCT-II base case (odd lengths): X_k = sum_m x_m
// cos(pi (2m+1) k / (2 len)).
void naive_forward(double* x, double* tmp, std::size_t len) {
  const double denom = 2.0 * static_cast<double>(len);
  for (std::size_t k = 0; k < len; ++k) {
    double acc = 0.0;
    for (std::size_t m = 0; m < len; ++m) {
      acc += x[m] * std::cos(std::numbers::pi *
                             (2.0 * static_cast<double>(m) + 1.0) *
                             static_cast<double>(k) / denom);
    }
    tmp[k] = acc;
  }
  for (std::size_t k = 0; k < len; ++k) x[k] = tmp[k];
}

// Naive unscaled DCT-III base case: y_m = sum_k x_k
// cos(pi (2m+1) k / (2 len)) — the transpose of naive_forward.
void naive_inverse(double* x, double* tmp, std::size_t len) {
  const double denom = 2.0 * static_cast<double>(len);
  for (std::size_t m = 0; m < len; ++m) {
    double acc = 0.0;
    for (std::size_t k = 0; k < len; ++k) {
      acc += x[k] * std::cos(std::numbers::pi *
                             (2.0 * static_cast<double>(m) + 1.0) *
                             static_cast<double>(k) / denom);
    }
    tmp[m] = acc;
  }
  for (std::size_t m = 0; m < len; ++m) x[m] = tmp[m];
}

void forward_rec(double* x, double* tmp, std::size_t len, std::size_t level,
                 const std::vector<std::vector<double>>& recip) {
  if (len == 1) return;
  if (len % 2 != 0) {
    naive_forward(x, tmp, len);
    return;
  }
  const std::size_t half = len / 2;
  const std::vector<double>& rc = recip[level];
  for (std::size_t i = 0; i < half; ++i) {
    const double a = x[i];
    const double b = x[len - 1 - i];
    tmp[i] = a + b;
    tmp[i + half] = (a - b) * rc[i];
  }
  forward_rec(tmp, x, half, level + 1, recip);
  forward_rec(tmp + half, x, half, level + 1, recip);
  for (std::size_t i = 0; i + 1 < half; ++i) {
    x[2 * i] = tmp[i];
    x[2 * i + 1] = tmp[i + half] + tmp[i + half + 1];
  }
  x[len - 2] = tmp[half - 1];
  x[len - 1] = tmp[len - 1];
}

void inverse_rec(double* x, double* tmp, std::size_t len, std::size_t level,
                 const std::vector<std::vector<double>>& recip) {
  if (len == 1) return;
  if (len % 2 != 0) {
    naive_inverse(x, tmp, len);
    return;
  }
  const std::size_t half = len / 2;
  const std::vector<double>& rc = recip[level];
  tmp[0] = x[0];
  tmp[half] = x[1];
  for (std::size_t i = 1; i < half; ++i) {
    tmp[i] = x[2 * i];
    tmp[i + half] = x[2 * i - 1] + x[2 * i + 1];
  }
  inverse_rec(tmp, x, half, level + 1, recip);
  inverse_rec(tmp + half, x, half, level + 1, recip);
  for (std::size_t i = 0; i < half; ++i) {
    const double a = tmp[i];
    const double b = tmp[i + half] * rc[i];
    x[i] = a + b;
    x[len - 1 - i] = a - b;
  }
}

// Exact dct_basis entry phi(m, k) for an n-point basis — kept textually
// in sync with dct_basis so gathered columns match the dense build
// bit-for-bit.
double dct_entry(std::size_t n, double scale0, double scale, std::size_t m,
                 std::size_t k) {
  const double c = k == 0 ? scale0 : scale;
  return c * std::cos(std::numbers::pi *
                      (2.0 * static_cast<double>(m) + 1.0) *
                      static_cast<double>(k) /
                      (2.0 * static_cast<double>(n)));
}

}  // namespace

void SubsampledDctOperator::Plan::build(std::size_t n) {
  len = n;
  recip.clear();
  std::size_t l = n;
  while (l > 1 && l % 2 == 0) {
    std::vector<double> rc(l / 2);
    for (std::size_t i = 0; i < rc.size(); ++i) {
      rc[i] = 1.0 / (2.0 * std::cos((static_cast<double>(i) + 0.5) *
                                    std::numbers::pi /
                                    static_cast<double>(l)));
    }
    recip.push_back(std::move(rc));
    l /= 2;
  }
}

void SubsampledDctOperator::Plan::forward(double* x, double* tmp) const {
  forward_rec(x, tmp, len, 0, recip);
}

void SubsampledDctOperator::Plan::inverse(double* x, double* tmp) const {
  inverse_rec(x, tmp, len, 0, recip);
}

SubsampledDctOperator::SubsampledDctOperator(std::size_t n,
                                             std::vector<std::size_t> row_idx)
    : n_(n), row_idx_(std::move(row_idx)) {
  if (n_ == 0) {
    throw std::invalid_argument("SubsampledDctOperator: n must be positive");
  }
  for (std::size_t r : row_idx_) {
    if (r >= n_) {
      throw std::out_of_range("SubsampledDctOperator: row index >= n");
    }
  }
  plan_a_.build(n_);
  scale0_a_ = std::sqrt(1.0 / static_cast<double>(n_));
  scale_a_ = std::sqrt(2.0 / static_cast<double>(n_));
  precompute_sqnorms();
}

SubsampledDctOperator::SubsampledDctOperator(std::size_t width,
                                             std::size_t height,
                                             std::vector<std::size_t> row_idx)
    : n_(width * height),
      width_(width),
      height_(height),
      row_idx_(std::move(row_idx)) {
  if (width_ == 0 || height_ == 0) {
    throw std::invalid_argument(
        "SubsampledDctOperator: dimensions must be positive");
  }
  for (std::size_t r : row_idx_) {
    if (r >= n_) {
      throw std::out_of_range("SubsampledDctOperator: row index >= n");
    }
  }
  plan_a_.build(width_);
  plan_b_.build(height_);
  scale0_a_ = std::sqrt(1.0 / static_cast<double>(width_));
  scale_a_ = std::sqrt(2.0 / static_cast<double>(width_));
  scale0_b_ = std::sqrt(1.0 / static_cast<double>(height_));
  scale_b_ = std::sqrt(2.0 / static_cast<double>(height_));
  precompute_sqnorms();
}

std::size_t SubsampledDctOperator::state_bytes() const noexcept {
  std::size_t bytes = sizeof(*this);
  bytes += row_idx_.size() * sizeof(std::size_t);
  bytes += col_sqnorms_.size() * sizeof(double);
  for (const auto& rc : plan_a_.recip) bytes += rc.size() * sizeof(double);
  for (const auto& rc : plan_b_.recip) bytes += rc.size() * sizeof(double);
  return bytes;
}

void SubsampledDctOperator::synth_1d(const Plan& plan, double scale0,
                                     double scale, double* x,
                                     double* tmp) const {
  x[0] *= scale0;
  for (std::size_t k = 1; k < plan.len; ++k) x[k] *= scale;
  plan.inverse(x, tmp);
}

void SubsampledDctOperator::analyze_1d(const Plan& plan, double scale0,
                                       double scale, double* x,
                                       double* tmp) const {
  plan.forward(x, tmp);
  x[0] *= scale0;
  for (std::size_t k = 1; k < plan.len; ++k) x[k] *= scale;
}

void SubsampledDctOperator::full_synthesis(std::span<const double> alpha,
                                           std::span<double> grid) const {
  if (width_ == 0) {
    for (std::size_t k = 0; k < n_; ++k) grid[k] = alpha[k];
    Vector tmp(n_);
    synth_1d(plan_a_, scale0_a_, scale_a_, grid.data(), tmp.data());
    return;
  }
  // Separable: height synthesis down each width column, then width
  // synthesis across each height index (grid index g = i*h + k).
  const std::size_t w = width_, h = height_;
  for (std::size_t g = 0; g < n_; ++g) grid[g] = alpha[g];
  Vector tmp(std::max(w, h));
  for (std::size_t j = 0; j < w; ++j) {
    synth_1d(plan_b_, scale0_b_, scale_b_, grid.data() + j * h, tmp.data());
  }
  Vector lane(w);
  for (std::size_t k = 0; k < h; ++k) {
    for (std::size_t i = 0; i < w; ++i) lane[i] = grid[i * h + k];
    synth_1d(plan_a_, scale0_a_, scale_a_, lane.data(), tmp.data());
    for (std::size_t i = 0; i < w; ++i) grid[i * h + k] = lane[i];
  }
}

void SubsampledDctOperator::full_analysis(std::span<const double> grid,
                                          std::span<double> alpha) const {
  if (width_ == 0) {
    for (std::size_t k = 0; k < n_; ++k) alpha[k] = grid[k];
    Vector tmp(n_);
    analyze_1d(plan_a_, scale0_a_, scale_a_, alpha.data(), tmp.data());
    return;
  }
  const std::size_t w = width_, h = height_;
  for (std::size_t g = 0; g < n_; ++g) alpha[g] = grid[g];
  Vector tmp(std::max(w, h));
  for (std::size_t i = 0; i < w; ++i) {
    analyze_1d(plan_b_, scale0_b_, scale_b_, alpha.data() + i * h,
               tmp.data());
  }
  Vector lane(w);
  for (std::size_t l = 0; l < h; ++l) {
    for (std::size_t j = 0; j < w; ++j) lane[j] = alpha[j * h + l];
    analyze_1d(plan_a_, scale0_a_, scale_a_, lane.data(), tmp.data());
    for (std::size_t j = 0; j < w; ++j) alpha[j * h + l] = lane[j];
  }
}

void SubsampledDctOperator::apply_into(std::span<const double> x,
                                       std::span<double> out) const {
  if (x.size() != cols() || out.size() != rows()) {
    throw std::invalid_argument("SubsampledDctOperator::apply_into: size");
  }
  if (row_idx_.empty()) {
    full_synthesis(x, out);
    return;
  }
  Vector grid(n_);
  full_synthesis(x, grid);
  for (std::size_t r = 0; r < row_idx_.size(); ++r) {
    out[r] = grid[row_idx_[r]];
  }
}

void SubsampledDctOperator::apply_transpose_into(std::span<const double> y,
                                                 std::span<double> out) const {
  if (y.size() != rows() || out.size() != cols()) {
    throw std::invalid_argument(
        "SubsampledDctOperator::apply_transpose_into: size");
  }
  if (row_idx_.empty()) {
    full_analysis(y, out);
    return;
  }
  Vector grid(n_, 0.0);
  for (std::size_t r = 0; r < row_idx_.size(); ++r) {
    grid[row_idx_[r]] += y[r];
  }
  full_analysis(grid, out);
}

void SubsampledDctOperator::column_into(std::size_t c,
                                        std::span<double> out) const {
  if (c >= cols()) {
    throw std::out_of_range("SubsampledDctOperator::column_into");
  }
  if (out.size() != rows()) {
    throw std::invalid_argument("SubsampledDctOperator::column_into: size");
  }
  const std::size_t m = rows();
  if (width_ == 0) {
    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t g = row_idx_.empty() ? r : row_idx_[r];
      out[r] = dct_entry(n_, scale0_a_, scale_a_, g, c);
    }
    return;
  }
  // 2-D entry (g, c) = a(i, j) * b(k, l) with g = i*h + k, c = j*h + l —
  // the same factor product dct2_basis writes.
  const std::size_t h = height_;
  const std::size_t j = c / h, l = c % h;
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t g = row_idx_.empty() ? r : row_idx_[r];
    const double aij = dct_entry(width_, scale0_a_, scale_a_, g / h, j);
    const double bkl = dct_entry(height_, scale0_b_, scale_b_, g % h, l);
    out[r] = aij * bkl;
  }
}

Vector SubsampledDctOperator::full_sqnorms_1d(
    std::size_t len, const Plan& plan, double scale0, double scale,
    std::span<const std::size_t> sel) const {
  // cos^2 t = (1 + cos 2t) / 2 turns every column's squared norm over
  // the selected rows into one unscaled forward DCT of the row-indicator
  // vector: sq[c] = c_c^2 (m + S_c)/2 with S_c = X_{2c} folded by the
  // X_{2len-k} = -X_k symmetry.  O(len log len) instead of O(m * len).
  const std::size_t m = sel.empty() ? len : sel.size();
  Vector t(len, 0.0);
  if (sel.empty()) {
    for (std::size_t i = 0; i < len; ++i) t[i] = 1.0;
  } else {
    for (std::size_t g : sel) t[g] += 1.0;
  }
  Vector tmp(len);
  plan.forward(t.data(), tmp.data());
  Vector sq(len);
  sq[0] = scale0 * scale0 * static_cast<double>(m);
  const double s2 = scale * scale;
  for (std::size_t c = 1; c < len; ++c) {
    double s_c = 0.0;
    if (2 * c < len) {
      s_c = t[2 * c];
    } else if (2 * c > len) {
      s_c = -t[2 * len - 2 * c];
    }
    sq[c] = s2 * (static_cast<double>(m) + s_c) / 2.0;
  }
  return sq;
}

void SubsampledDctOperator::precompute_sqnorms() {
  col_sqnorms_.assign(n_, 0.0);
  if (width_ == 0) {
    col_sqnorms_ = full_sqnorms_1d(n_, plan_a_, scale0_a_, scale_a_,
                                   row_idx_);
    return;
  }
  const std::size_t w = width_, h = height_;
  if (row_idx_.empty()) {
    // Full separable operator: the column norm factorizes across the
    // two 1-D factors.
    const Vector sq_a =
        full_sqnorms_1d(w, plan_a_, scale0_a_, scale_a_, {});
    const Vector sq_b =
        full_sqnorms_1d(h, plan_b_, scale0_b_, scale_b_, {});
    for (std::size_t j = 0; j < w; ++j) {
      for (std::size_t l = 0; l < h; ++l) {
        col_sqnorms_[j * h + l] = sq_a[j] * sq_b[l];
      }
    }
    return;
  }
  // Subsampled 2-D does not factorize; accumulate squared row outer
  // products with the 1-D factor rows cached per selected grid point:
  // O(m (w + h)) cosines + O(m n) flops, still O(n) memory.
  Vector arow(w), brow(h);
  for (std::size_t g : row_idx_) {
    const std::size_t i = g / h, k = g % h;
    for (std::size_t j = 0; j < w; ++j) {
      arow[j] = dct_entry(w, scale0_a_, scale_a_, i, j);
    }
    for (std::size_t l = 0; l < h; ++l) {
      brow[l] = dct_entry(h, scale0_b_, scale_b_, k, l);
    }
    for (std::size_t j = 0; j < w; ++j) {
      const double aa = arow[j] * arow[j];
      double* __restrict dst = col_sqnorms_.data() + j * h;
      for (std::size_t l = 0; l < h; ++l) {
        dst[l] += aa * brow[l] * brow[l];
      }
    }
  }
}

void SubsampledDctOperator::column_sqnorms_into(std::span<double> out) const {
  if (out.size() != cols()) {
    throw std::invalid_argument(
        "SubsampledDctOperator::column_sqnorms_into: size");
  }
  for (std::size_t c = 0; c < n_; ++c) out[c] = col_sqnorms_[c];
}

// ---------------------------------------------------------------------------
// ScaledRowOperator
// ---------------------------------------------------------------------------

ScaledRowOperator::ScaledRowOperator(const LinearOperator& inner,
                                     std::span<const double> weights)
    : inner_(&inner), weights_(weights) {
  if (weights_.size() != inner_->rows()) {
    throw std::invalid_argument("ScaledRowOperator: weights size != rows");
  }
}

void ScaledRowOperator::apply_into(std::span<const double> x,
                                   std::span<double> out) const {
  inner_->apply_into(x, out);
  for (std::size_t r = 0; r < out.size(); ++r) out[r] *= weights_[r];
}

void ScaledRowOperator::apply_transpose_into(std::span<const double> y,
                                             std::span<double> out) const {
  Vector scaled(y.size());
  for (std::size_t r = 0; r < y.size(); ++r) scaled[r] = y[r] * weights_[r];
  inner_->apply_transpose_into(scaled, out);
}

void ScaledRowOperator::column_into(std::size_t c,
                                    std::span<double> out) const {
  inner_->column_into(c, out);
  for (std::size_t r = 0; r < out.size(); ++r) out[r] *= weights_[r];
}

}  // namespace sensedroid::linalg
