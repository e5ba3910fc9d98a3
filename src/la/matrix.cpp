#include "la/matrix.hpp"

#include <algorithm>
#include <cmath>

namespace ht::la {

Matrix Matrix::view(std::size_t rows, std::size_t cols, const double* data,
                    storage::ArenaPtr arena) {
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.store_ =
      storage::Span<double>::view(data, rows * cols, std::move(arena));
  m.refresh();
  return m;
}

void Matrix::set_zero() {
  auto& v = store_.vec();
  std::fill(v.begin(), v.end(), 0.0);
}

void Matrix::resize_zero(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  store_.vec().assign(rows * cols, 0.0);
  refresh();
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  // vector::resize never shrinks capacity: repeated reshapes between mode
  // widths settle at the largest size and stop allocating. Growing past the
  // capacity drops the old buffer before allocating the new one (the
  // contents are unspecified anyway), so the two are never live together:
  // HOOI's Y(n) grows from a small mode's rows to a large mode's.
  std::vector<double>& v = store_.vec();
  if (rows * cols > v.capacity()) v = std::vector<double>();
  v.resize(rows * cols);
  refresh();
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double v : flat()) s += v * v;
  return std::sqrt(s);
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  }
  return t;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

bool Matrix::approx_equal(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (std::size_t k = 0; k < size(); ++k) {
    if (std::abs(ptr_[k] - other.ptr_[k]) > tol) return false;
  }
  return true;
}

}  // namespace ht::la
