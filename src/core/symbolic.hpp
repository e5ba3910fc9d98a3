// Symbolic TTMc (paper Section III-A.1).
//
// One preprocessing pass per mode builds the update list ul_n: for every
// mode-n row i with nonzeros, the list of nonzero ordinals contributing to
// Y(n)(i, :). Stored as CSR over the *compacted* set of non-empty rows J_n,
// holding nonzero ordinals (the paper's "we only store the index t of the
// nonzero"). This resolves every index computation and write dependency
// before the HOOI iterations: the numeric TTMc becomes a lock-free parallel
// loop over rows of Y(n), and the symbolic result is reused across all
// iterations (and across HOOI runs with different ranks). Within a row the
// ordinals ascend, so the per-nnz kernel's accumulation order is a pure
// function of the tensor.
//
// The lists are the index of a per-nnz core::TtmcPlan (kPerNnz, orders past
// 8, empty tensors); a kAuto plan holds the CSF forest instead, whose
// root nodes are the same compact rows. Masked completion reads the lists
// directly for its per-row normal equations.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/coo_tensor.hpp"

namespace ht::core {

using tensor::CooTensor;
using tensor::index_t;
using tensor::nnz_t;

/// Update lists of one mode.
struct ModeSymbolic {
  /// J_n: sorted global row indices with at least one nonzero.
  std::vector<index_t> rows;
  /// CSR offsets into nnz_order, size rows.size() + 1.
  std::vector<nnz_t> row_ptr;
  /// Nonzero ordinals grouped by row (a permutation of 0..nnz-1).
  std::vector<nnz_t> nnz_order;

  [[nodiscard]] std::size_t num_rows() const { return rows.size(); }

  /// Update list of the r-th compacted row.
  [[nodiscard]] std::span<const nnz_t> update_list(std::size_t r) const {
    return {nnz_order.data() + row_ptr[r], row_ptr[r + 1] - row_ptr[r]};
  }
};

/// Symbolic TTMc for all modes. Modes are processed in parallel (they are
/// independent, as the paper notes).
struct SymbolicTtmc {
  std::vector<ModeSymbolic> modes;

  static SymbolicTtmc build(const CooTensor& x);
};

/// Symbolic pass for a single mode.
ModeSymbolic build_mode_symbolic(const CooTensor& x, std::size_t mode);

}  // namespace ht::core
