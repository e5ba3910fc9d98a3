// Tucker decomposition container and quality measures.
//
// Compact factors: HOOI trains, and a decomposition holds, only the factor
// rows that can be non-zero. For each mode n, factors[n] keeps the rows
// rows[n] of the I_n x R_n factor, listed by their sorted global ids: J_n,
// the mode's non-empty rows, plus any row outside J_n that the completion
// of a rank-deficient or unconverged solve filled. Every other row of the
// I_n x R_n factor is zero, and a lookup of it (factor_row) returns a zero
// row, so it scores exactly as the zero row of a whole factor does. A mode
// that keeps every row stores no list, and a decomposition whose `rows` is
// empty has whole factors in every mode.
//
// The rank-deficient case, |J_n| < R_n: the solve gives at most |J_n|
// directions, and the completion fills the other columns with directions
// on rows outside J_n, orthogonal to every row of X(n). Their core slices
// are zero, so they change no prediction; their rows are kept so the
// factor stays orthonormal.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "la/matrix.hpp"
#include "storage/span.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/dense_tensor.hpp"

namespace ht::core {

using tensor::index_t;

/// [[G; U_1, ..., U_N]]: a core tensor of shape ranks and one orthonormal
/// factor matrix (I_n x R_n) per mode, stored compact.
struct TuckerDecomposition {
  tensor::DenseTensor core;
  std::vector<la::Matrix> factors;
  /// Per mode, the sorted global ids of factors[n]'s rows; empty for a mode
  /// whose factor holds every row (none at all when `rows` is empty).
  /// Heap-owned after training, views into the mapped file after a kMap
  /// bundle load.
  std::vector<storage::Span<index_t>> rows;

  [[nodiscard]] std::size_t order() const { return factors.size(); }
  [[nodiscard]] std::vector<index_t> ranks() const;

  /// Global ids of factors[mode]'s rows; empty when the factor holds every
  /// row.
  [[nodiscard]] std::span<const index_t> row_ids(std::size_t mode) const {
    return mode < rows.size() ? std::span<const index_t>(rows[mode])
                              : std::span<const index_t>{};
  }

  /// U_mode(i, :) in global numbering: the kept row, or `zero` (at least
  /// R_mode zeros) for a row the mode does not keep. Every model evaluation
  /// reads factor rows through this one lookup.
  [[nodiscard]] std::span<const double> factor_row(
      std::size_t mode, index_t i, std::span<const double> zero) const;

  /// The whole I_n x R_n factor of mode `mode` (dim = I_n): the kept rows
  /// at their global ids, zeros elsewhere.
  [[nodiscard]] la::Matrix dense_factor(std::size_t mode, index_t dim) const;

  /// Model value at one coordinate:
  ///   sum_{r} G(r) * prod_n U_n(i_n, r_n).
  /// Used by the recommender/prediction examples.
  [[nodiscard]] double reconstruct_at(std::span<const index_t> idx) const;

  /// Densify the model (test sizes only). Needs whole factors (no row
  /// lists): their row counts are the shape.
  [[nodiscard]] tensor::DenseTensor reconstruct_dense() const;
};

/// Fit of a decomposition against X: 1 - ||X - Xhat|| / ||X||. For
/// orthonormal factors ||X - Xhat||^2 = ||X||^2 - ||G||^2 (the quantity the
/// paper's convergence check uses), which avoids forming Xhat.
double fit_from_core_norm(double x_norm2, double core_norm2);

/// Exact fit by evaluating the model at every nonzero and accounting for the
/// model mass off the nonzero support (test sizes only; O(nnz * prod R)).
double fit_exact(const tensor::CooTensor& x, const TuckerDecomposition& t);

}  // namespace ht::core
