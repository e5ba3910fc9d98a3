// Numeric TTMc: the nonzero-based formulation of paper Eq. (4) /
// Algorithm 2, evaluated with the precomputed symbolic update lists.
//
// For mode n, computes the compact matricized product
//   Y(n)(i, :) = sum_{x in ul_n(i)} x * kron_{t != n} U_t(i_t, :)
// with one dense row of width prod_{t != n} R_t per non-empty row i in J_n.
// Rows are independent (single writer), so the loop is a lock-free OpenMP
// parfor; the paper uses dynamic scheduling to absorb slice-size skew.
//
// Two kernel families are provided per mode:
//   per-nnz:        every nonzero pays the full Kronecker-row expansion
//                   (R_a*R_b flops for 3-mode, R_a*R_b*R_c for 4-mode) —
//                   the reference the CSF walk is tested against, and the
//                   kernel for orders past 8 and for plans with no forest;
//   CSF:            a depth-first walk of the mode's compressed fiber tree
//                   (tensor/csf.*, any order >= 2): leaf runs accumulate
//                   the trailing-rank partial from *streamed* values and
//                   coordinates, every internal node expands its partial
//                   into its parent's once, and finished root rows are
//                   scattered from tree Kronecker order into Y(n)'s layout.
//                   Root subtrees are dispatched in nnz-balanced tiles so
//                   skewed rows cannot serialize a thread.
// The kernel choice is made once, when TtmcPlan::build decides whether to
// build the CSF forest (ttmc_wants_csf); per mode, ttmc_selected_kernel
// then runs whatever is in hand: the CSF tree, else per-nnz.
#pragma once

#include <cstddef>
#include <vector>

#include "core/symbolic.hpp"
#include "la/matrix.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/csf.hpp"

namespace ht::core {

enum class Schedule { kDynamic, kStatic };

/// Numeric kernel family. kCsf degrades to per-nnz when the caller
/// supplied no CSF tree for the mode.
enum class TtmcKernel { kAuto, kPerNnz, kCsf };

struct TtmcOptions {
  Schedule schedule = Schedule::kDynamic;
  TtmcKernel kernel = TtmcKernel::kAuto;

  bool operator==(const TtmcOptions&) const = default;
};

/// The kernel kAuto (or an explicit request) resolves to for this mode,
/// given the optional CSF tree rooted at it (nullptr: not available):
/// kAuto and kCsf take the tree, else per-nnz. No tensor statistic is
/// consulted — the structure decision was made when the plan was built.
/// Exposed for benches and tests.
TtmcKernel ttmc_selected_kernel(std::size_t order, const TtmcOptions& options,
                                const tensor::CsfTree* csf = nullptr);

/// Whether TtmcPlan::build should build the CSF forest: kAuto or kCsf on an
/// order-2..8 tensor.
bool ttmc_wants_csf(std::size_t order, const TtmcOptions& options);

/// Width of Y(n) rows: product of factor column counts over modes != n.
std::size_t ttmc_row_width(const std::vector<la::Matrix>& factors,
                           std::size_t mode);

/// Compute the compact Y(n): row r corresponds to global row sym.rows[r].
/// `y` is resized to (sym.num_rows() x ttmc_row_width()). `csf`, when
/// non-null, must be the tree rooted at `mode` built from the same tensor
/// (its root nodes then coincide with the compact symbolic rows).
void ttmc_mode(const CooTensor& x, const std::vector<la::Matrix>& factors,
               std::size_t mode, const ModeSymbolic& sym, la::Matrix& y,
               const TtmcOptions& options = {},
               const tensor::CsfTree* csf = nullptr);

/// Single-nonzero contribution: out += value * kron_{t != n} U_t(idx_t, :).
/// Exposed for tests and the fine-grain distributed path.
void accumulate_kron(const CooTensor& x, nnz_t e,
                     const std::vector<la::Matrix>& factors, std::size_t mode,
                     std::span<double> out);

/// TTMc restricted to a subset of the symbolic rows: row p of `y` is the
/// compact row positions[p] of the full computation. The coarse-grain
/// distributed algorithm computes only its owned rows this way (paper
/// Algorithm 4, K_n = I_n^k).
void ttmc_mode_subset(const CooTensor& x,
                      const std::vector<la::Matrix>& factors, std::size_t mode,
                      const ModeSymbolic& sym,
                      std::span<const std::uint32_t> positions, la::Matrix& y,
                      const TtmcOptions& options = {},
                      const tensor::CsfTree* csf = nullptr);

}  // namespace ht::core
