// Row-major dense matrix.
//
// Factor matrices U_n (I_n x R_n) and matricized TTMc outputs Y(n) are all
// tall-and-skinny row-major matrices; the nonzero-based TTMc kernel works on
// contiguous rows, which is why row-major is the only layout provided.
//
// The buffer is held through storage::Span<double>: heap-owned by default
// (exactly the std::vector semantics this class always had), or a read-only
// view into a shared storage::Arena — the state a factor matrix loaded from
// an mmap'd model bundle is in. Reads work identically in both states; the
// mutating accessors (non-const operator()/row()/data()/flat(), set_zero,
// resize*) require the owned state and throw ht::Error on a view —
// ensure_owned() converts a view into an owned deep copy first. Element and
// row access go through pointers cached by refresh(), so the hot kernels
// pay nothing for the indirection.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "storage/span.hpp"
#include "util/error.hpp"

namespace ht::la {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols),
        store_(std::vector<double>(rows * cols, 0.0)) {
    refresh();
  }

  /// rows x cols initialized from a flat row-major buffer.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
      : rows_(rows), cols_(cols), store_(std::move(data)) {
    HT_CHECK_MSG(store_.size() == rows_ * cols_,
                 "data size " << store_.size() << " != " << rows_ << "x"
                              << cols_);
    refresh();
  }

  /// rows x cols over `data` inside `arena` (read-only, zero-copy); the
  /// arena is kept alive for the matrix's lifetime.
  static Matrix view(std::size_t rows, std::size_t cols, const double* data,
                     storage::ArenaPtr arena);

  Matrix(const Matrix& o) : rows_(o.rows_), cols_(o.cols_), store_(o.store_) {
    refresh();
  }
  Matrix(Matrix&& o) noexcept
      : rows_(o.rows_), cols_(o.cols_), store_(std::move(o.store_)) {
    refresh();
    o.rows_ = o.cols_ = 0;
    o.refresh();
  }
  Matrix& operator=(const Matrix& o) {
    if (this != &o) {
      rows_ = o.rows_;
      cols_ = o.cols_;
      store_ = o.store_;
      refresh();
    }
    return *this;
  }
  Matrix& operator=(Matrix&& o) noexcept {
    if (this != &o) {
      rows_ = o.rows_;
      cols_ = o.cols_;
      store_ = std::move(o.store_);
      refresh();
      o.rows_ = o.cols_ = 0;
      o.refresh();
    }
    return *this;
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return rows_ * cols_; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// True when the buffer is a read-only view into a shared arena.
  [[nodiscard]] bool is_view() const { return store_.is_view(); }
  /// Deep-copy a view into owned (mutable) storage; no-op when owned.
  void ensure_owned() {
    store_.detach();
    refresh();
  }

  [[nodiscard]] double& operator()(std::size_t i, std::size_t j) {
    return mut_[i * cols_ + j];
  }
  [[nodiscard]] const double& operator()(std::size_t i, std::size_t j) const {
    return ptr_[i * cols_ + j];
  }

  /// Contiguous view of row i.
  [[nodiscard]] std::span<double> row(std::size_t i) {
    return {mut_ + i * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    return {ptr_ + i * cols_, cols_};
  }

  [[nodiscard]] double* data() {
    HT_CHECK_MSG(!is_view(), "cannot mutate a view matrix");
    return mut_;
  }
  [[nodiscard]] const double* data() const { return ptr_; }

  [[nodiscard]] std::span<double> flat() {
    HT_CHECK_MSG(!is_view(), "cannot mutate a view matrix");
    return {mut_, size()};
  }
  [[nodiscard]] std::span<const double> flat() const { return {ptr_, size()}; }

  void set_zero();

  /// Resize to rows x cols; contents are zeroed.
  void resize_zero(std::size_t rows, std::size_t cols);

  /// Resize to rows x cols preserving the underlying capacity; contents are
  /// unspecified afterwards (no zeroing, no reshaped-element preservation).
  /// Hot-path callers that overwrite every row — the TTMc kernels reuse one
  /// Y(n) buffer across modes whose widths differ — use this to avoid a
  /// realloc+memset per mode.
  void resize(std::size_t rows, std::size_t cols);

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const;

  /// Transposed copy.
  [[nodiscard]] Matrix transposed() const;

  /// Identity matrix of order n.
  static Matrix identity(std::size_t n);

  /// Elementwise comparison within absolute tolerance.
  [[nodiscard]] bool approx_equal(const Matrix& other, double tol) const;

 private:
  /// Re-derive the cached element pointers from the store. Every operation
  /// that can move or re-seat the buffer (construction, assignment, resize,
  /// detach) ends with a call to this; nothing else may touch the store's
  /// vector, so the cache can never go stale. mut_ is null for views: the
  /// unchecked hot accessors (operator(), row()) fault immediately instead
  /// of silently writing through a read-only mapping.
  void refresh() {
    ptr_ = store_.data();
    mut_ = store_.is_view() ? nullptr : store_.vec().data();
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  storage::Span<double> store_;
  const double* ptr_ = nullptr;
  double* mut_ = nullptr;
};

}  // namespace ht::la
