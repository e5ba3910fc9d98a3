// Numeric TTMc: the nonzero-based formulation of paper Eq. (4) /
// Algorithm 2.
//
// For mode n, computes the compact matricized product
//   Y(n)(i, :) = sum_{x in ul_n(i)} x * kron_{t != n} U_t(i_t, :)
// with one dense row of width prod_{t != n} R_t per non-empty row i in J_n.
// Rows are independent (single writer), so the loop is a lock-free OpenMP
// parfor, scheduled dynamically to absorb slice-size skew (the paper's
// choice, Sec. III-A.1).
//
// Two kernel families are provided per mode; each ttmc_mode overload takes
// the index its kernel runs over:
//   CSF (tensor::CsfTree): the kernel of every HOOI driver, at any order
//                   >= 2. A depth-first walk of the mode's compressed fiber
//                   tree (tensor/csf.*): leaf runs accumulate the
//                   trailing-rank partial from *streamed* values and
//                   coordinates, every internal node expands its partial
//                   into its parent's once, and finished root rows are
//                   scattered from tree Kronecker order into Y(n)'s layout.
//                   Root subtrees are dispatched in nnz-balanced tiles so
//                   skewed rows cannot serialize a thread. ttmc_mode_subset
//                   computes only listed rows (the coarse grain's owned
//                   rows).
//   per-nnz (ModeSymbolic): the paper's Algorithm 2 over the symbolic
//                   update lists; every nonzero pays the full Kronecker-row
//                   expansion (R_a*R_b flops for 3-mode, R_a*R_b*R_c for
//                   4-mode). It is the reference the CSF walk is tested
//                   and benchmarked against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/symbolic.hpp"
#include "la/matrix.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/csf.hpp"

namespace ht::core {

/// Width of Y(n) rows: product of factor column counts over modes != n.
std::size_t ttmc_row_width(const std::vector<la::Matrix>& factors,
                           std::size_t mode);

/// Compute the compact Y(n) with the per-nnz kernel: row r corresponds to
/// global row sym.rows[r]. `y` is resized to (sym.num_rows() x
/// ttmc_row_width()). `sym` must be mode `mode`'s lists of `x`.
void ttmc_mode(const CooTensor& x, const std::vector<la::Matrix>& factors,
               std::size_t mode, const ModeSymbolic& sym, la::Matrix& y);

/// Compute the compact Y(n) with the CSF walk: row r corresponds to global
/// row tree.idx[0][r]. `tree` must be rooted at `mode` and built from `x`
/// (it reads the values the tree copied, not x's).
void ttmc_mode(const CooTensor& x, const std::vector<la::Matrix>& factors,
               std::size_t mode, const tensor::CsfTree& tree, la::Matrix& y);

/// CSF TTMc restricted to a subset of the compact rows: row p of `y` is the
/// compact row positions[p] of the full computation. The coarse-grain
/// distributed algorithm computes only its owned rows this way (paper
/// Algorithm 4, K_n = I_n^k).
void ttmc_mode_subset(const CooTensor& x,
                      const std::vector<la::Matrix>& factors, std::size_t mode,
                      const tensor::CsfTree& tree,
                      std::span<const std::uint32_t> positions, la::Matrix& y);

}  // namespace ht::core
