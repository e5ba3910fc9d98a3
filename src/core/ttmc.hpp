// Numeric TTMc: the nonzero-based formulation of paper Eq. (4) /
// Algorithm 2, evaluated with the precomputed symbolic update lists.
//
// For mode n, computes the compact matricized product
//   Y(n)(i, :) = sum_{x in ul_n(i)} x * kron_{t != n} U_t(i_t, :)
// with one dense row of width prod_{t != n} R_t per non-empty row i in J_n.
// Rows are independent (single writer), so the loop is a lock-free OpenMP
// parfor; the paper uses dynamic scheduling to absorb slice-size skew.
//
// Two kernel families are provided per mode, one per index a TtmcPlan can
// hold; each ttmc_mode overload takes the index its kernel runs over:
//   per-nnz (ModeSymbolic): every nonzero pays the full Kronecker-row
//                   expansion (R_a*R_b flops for 3-mode, R_a*R_b*R_c for
//                   4-mode) — the reference the CSF walk is tested
//                   against, and the kernel for orders past 8;
//   CSF (tensor::CsfTree): a depth-first walk of the mode's compressed
//                   fiber tree (tensor/csf.*, orders 2..8): leaf runs
//                   accumulate the trailing-rank partial from *streamed*
//                   values and coordinates, every internal node expands its
//                   partial into its parent's once, and finished root rows
//                   are scattered from tree Kronecker order into Y(n)'s
//                   layout. Root subtrees are dispatched in nnz-balanced
//                   tiles so skewed rows cannot serialize a thread.
// The kernel choice is made once, when TtmcPlan::build decides which index
// to build (ttmc_wants_csf).
#pragma once

#include <cstddef>
#include <vector>

#include "core/symbolic.hpp"
#include "la/matrix.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/csf.hpp"

namespace ht::core {

enum class Schedule { kDynamic, kStatic };

/// Numeric kernel family. kAuto and kCsf build the CSF forest where it can
/// run (orders 2..8, a nonempty tensor) and the update lists elsewhere.
enum class TtmcKernel { kAuto, kPerNnz, kCsf };

struct TtmcOptions {
  Schedule schedule = Schedule::kDynamic;
  TtmcKernel kernel = TtmcKernel::kAuto;

  bool operator==(const TtmcOptions&) const = default;
};

/// Whether TtmcPlan::build should build the CSF forest rather than the
/// update lists: kAuto or kCsf on an order-2..8 tensor.
bool ttmc_wants_csf(std::size_t order, const TtmcOptions& options);

/// Width of Y(n) rows: product of factor column counts over modes != n.
std::size_t ttmc_row_width(const std::vector<la::Matrix>& factors,
                           std::size_t mode);

/// Compute the compact Y(n) with the per-nnz kernel: row r corresponds to
/// global row sym.rows[r]. `y` is resized to (sym.num_rows() x
/// ttmc_row_width()). `sym` must be mode `mode`'s lists of `x`.
void ttmc_mode(const CooTensor& x, const std::vector<la::Matrix>& factors,
               std::size_t mode, const ModeSymbolic& sym, la::Matrix& y,
               Schedule schedule = Schedule::kDynamic);

/// Compute the compact Y(n) with the CSF walk: row r corresponds to global
/// row tree.idx[0][r]. `tree` must be rooted at `mode` and built from `x`
/// (it reads the values the tree copied, not x's).
void ttmc_mode(const CooTensor& x, const std::vector<la::Matrix>& factors,
               std::size_t mode, const tensor::CsfTree& tree, la::Matrix& y,
               Schedule schedule = Schedule::kDynamic);

/// Single-nonzero contribution: out += value * kron_{t != n} U_t(idx_t, :).
/// Exposed for tests and the fine-grain distributed path.
void accumulate_kron(const CooTensor& x, nnz_t e,
                     const std::vector<la::Matrix>& factors, std::size_t mode,
                     std::span<double> out);

/// TTMc restricted to a subset of the compact rows: row p of `y` is the
/// compact row positions[p] of the full computation. The coarse-grain
/// distributed algorithm computes only its owned rows this way (paper
/// Algorithm 4, K_n = I_n^k). One overload per index, as for ttmc_mode.
void ttmc_mode_subset(const CooTensor& x,
                      const std::vector<la::Matrix>& factors, std::size_t mode,
                      const ModeSymbolic& sym,
                      std::span<const std::uint32_t> positions, la::Matrix& y,
                      Schedule schedule = Schedule::kDynamic);
void ttmc_mode_subset(const CooTensor& x,
                      const std::vector<la::Matrix>& factors, std::size_t mode,
                      const tensor::CsfTree& tree,
                      std::span<const std::uint32_t> positions, la::Matrix& y,
                      Schedule schedule = Schedule::kDynamic);

}  // namespace ht::core
