// Sparse N-mode tensor in coordinate (COO) format.
//
// Structure-of-arrays layout: one contiguous index array per mode plus one
// value array. The nonzero-based TTMc kernel reads every mode index of every
// nonzero, and the symbolic pass streams one mode's array at a time — both
// favor SoA over an array-of-tuples layout.
//
// The arrays are held through storage::Span: heap-owned by default (fully
// mutable, the train-time state), or read-only views into a shared
// storage::Arena (the mmap-backed serve/out-of-core state; see
// from_columns).
// All read paths work identically in both states; the mutating entry points
// (push_back, sort_lexicographic, sum_duplicates, non-const indices()/
// values()) throw ht::Error on a view instead of writing through a
// read-only mapping.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "storage/span.hpp"
#include "tensor/types.hpp"
#include "util/error.hpp"

namespace ht::tensor {

class CooTensor {
 public:
  CooTensor() = default;

  /// Empty tensor with the given shape.
  explicit CooTensor(Shape shape);

  /// Tensor over prebuilt index/value arrays (one index span per mode, all
  /// of equal length), taken over without copying: owned vectors (the file
  /// readers) or views into a shared arena, whose arenas are kept alive for
  /// the tensor's lifetime.
  static CooTensor from_columns(Shape shape,
                                std::vector<storage::Span<index_t>> indices,
                                storage::Span<value_t> values);

  [[nodiscard]] std::size_t order() const { return shape_.size(); }
  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] index_t dim(std::size_t mode) const { return shape_[mode]; }
  [[nodiscard]] nnz_t nnz() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }

  /// True when any buffer is a read-only view into a shared arena.
  [[nodiscard]] bool is_view() const;

  /// Index array of one mode (length nnz).
  [[nodiscard]] std::span<const index_t> indices(std::size_t mode) const {
    return indices_[mode];
  }
  [[nodiscard]] std::span<index_t> indices(std::size_t mode) {
    auto& v = indices_[mode].vec();
    return {v.data(), v.size()};
  }

  [[nodiscard]] std::span<const value_t> values() const { return values_; }
  [[nodiscard]] std::span<value_t> values() {
    auto& v = values_.vec();
    return {v.data(), v.size()};
  }

  /// Mode index of nonzero t along mode n.
  [[nodiscard]] index_t index(std::size_t mode, nnz_t t) const {
    return indices_[mode][t];
  }
  [[nodiscard]] value_t value(nnz_t t) const { return values_[t]; }

  /// Append one nonzero; `idx` must have order() entries within the shape.
  void push_back(std::span<const index_t> idx, value_t value);

  /// Reserve capacity for n nonzeros.
  void reserve(nnz_t n);

  /// Sort nonzeros lexicographically by (mode 0, mode 1, ...).
  void sort_lexicographic();

  /// Sum duplicate coordinates (requires any consistent order; sorts first).
  /// Entries that cancel to exactly zero are kept (harmless).
  void sum_duplicates();

  /// Squared Frobenius norm: sum of squared values.
  [[nodiscard]] double norm2_squared() const;

  /// Number of nonzeros in each mode-n slice (histogram of mode indices);
  /// the coarse-grain partitioners balance on this.
  [[nodiscard]] std::vector<nnz_t> slice_nnz(std::size_t mode) const;

  /// The non-empty mode-n slices (J_n), in increasing order.
  [[nodiscard]] std::vector<index_t> nonempty_rows(std::size_t mode) const;

  /// Subset of nonzeros selected by ordinal; keeps shape. Used to build
  /// per-rank local tensors from a fine-grain partition.
  [[nodiscard]] CooTensor select(std::span<const nnz_t> ordinals) const;

  /// Validate all indices are within shape; throws ht::InvalidArgument.
  void validate() const;

  /// Validate the values a decomposition can fit: every value finite, and
  /// norm2_squared() finite and positive. Throws ht::InvalidArgument naming
  /// the first non-finite nonzero, or the norm.
  void validate_values() const;

  /// Human-readable one-line summary, e.g. "3-mode 100x80x60, 5000 nnz".
  [[nodiscard]] std::string summary() const;

 private:
  Shape shape_;
  std::vector<storage::Span<index_t>> indices_;  // [mode][nonzero]
  storage::Span<value_t> values_;
};

}  // namespace ht::tensor
