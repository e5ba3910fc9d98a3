// Numeric TTMc: the nonzero-based formulation of paper Eq. (4) /
// Algorithm 2, evaluated with the precomputed symbolic update lists.
//
// For mode n, computes the compact matricized product
//   Y(n)(i, :) = sum_{x in ul_n(i)} x * kron_{t != n} U_t(i_t, :)
// with one dense row of width prod_{t != n} R_t per non-empty row i in J_n.
// Rows are independent (single writer), so the loop is a lock-free OpenMP
// parfor; the paper uses dynamic scheduling to absorb slice-size skew.
//
// Three kernel families are provided per mode:
//   per-nnz:        every nonzero pays the full Kronecker-row expansion
//                   (R_a*R_b flops for 3-mode, R_a*R_b*R_c for 4-mode) —
//                   the reference the other families are tested against,
//                   and the kernel for orders past 8 and for tensors with
//                   no structure built;
//   CSF:            a depth-first walk of the mode's compressed fiber tree
//                   (tensor/csf.*, any order >= 2): leaf runs accumulate
//                   the trailing-rank partial from *streamed* values and
//                   coordinates, every internal node expands its partial
//                   into its parent's once, and finished root rows are
//                   scattered from tree Kronecker order into Y(n)'s layout.
//                   Root subtrees are dispatched in nnz-balanced tiles so
//                   skewed rows cannot serialize a thread.
//   ALTO:           a two-phase sweep over the single linearized structure
//                   (tensor/alto.*, any order >= 2, the same structure for
//                   every mode): phase 1 streams each nnz-balanced
//                   partition's keys and values sequentially, delinearizes,
//                   and accumulates the Kronecker expansion into a dense
//                   staging block over the partition's narrow mode-n index
//                   range; phase 2 merges staging rows into Y(n) in fixed
//                   partition order with one writer per output row.
//                   Partitions are processed in fixed-byte waves so staging
//                   memory is bounded by a machine-independent constant.
// The kernel choice is made once, when TtmcPlan::build decides which
// structure to build (ttmc_wants_csf / ttmc_wants_alto); per mode,
// ttmc_selected_kernel then runs whatever is in hand: the CSF tree, else
// the ALTO structure, else per-nnz.
#pragma once

#include <cstddef>
#include <vector>

#include "core/symbolic.hpp"
#include "la/matrix.hpp"
#include "tensor/alto.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/csf.hpp"

namespace ht::core {

enum class Schedule { kDynamic, kStatic };

/// Numeric kernel family. kCsf degrades to the ALTO structure, then to
/// per-nnz, when the caller supplied no CSF tree for the mode. kAlto
/// degrades to the CSF tree, then to per-nnz, when no ALTO structure was
/// supplied, or when one mode's per-partition staging blocks would exceed
/// the fixed wave budget (a pathological range x width combination).
enum class TtmcKernel { kAuto, kPerNnz, kCsf, kAlto };

struct TtmcOptions {
  Schedule schedule = Schedule::kDynamic;
  TtmcKernel kernel = TtmcKernel::kAuto;
  /// Structure-memory budget in bytes for kAuto's preprocessing decisions
  /// (0 = unlimited). When the estimated N-tree CSF forest would exceed it,
  /// ttmc_wants_csf says no and ttmc_wants_alto offers the single
  /// linearized structure instead (~1/N the footprint) — the
  /// serve/out-of-core regime where N trees may not fit at all. Explicit
  /// kernel requests are honored regardless of the budget.
  double structure_budget_bytes = 0.0;

  bool operator==(const TtmcOptions&) const = default;
};

/// The kernel kAuto (or an explicit request) resolves to for this mode,
/// given the optional CSF tree rooted at it and/or the optional ALTO
/// structure (nullptr: not available): kAuto and kCsf take the tree, else
/// the ALTO structure, else per-nnz; kAlto takes the ALTO structure first.
/// No tensor statistic is consulted — the structure decision was made when
/// the plan was built. Exposed for benches and tests.
TtmcKernel ttmc_selected_kernel(std::size_t order, const TtmcOptions& options,
                                const tensor::CsfTree* csf = nullptr,
                                const tensor::AltoTensor* alto = nullptr);

/// Whether TtmcPlan::build should build the CSF forest: kAuto or kCsf on an
/// order-2..8 tensor, unless, for kAuto, the forest's estimated footprint
/// blows TtmcOptions::structure_budget_bytes — in which case
/// ttmc_wants_alto may offer the single linearized structure instead.
bool ttmc_wants_csf(std::size_t nnz, std::size_t order,
                    const TtmcOptions& options);

/// Whether the options ask for an ALTO structure: an explicit kAlto
/// request, or kAuto under a structure budget that the CSF forest exceeds
/// but the single linearized structure fits, on a tensor large enough to
/// leave the last-level cache (below that the flat per-nnz kernel's
/// per-row constants win and the build would not pay). Always false when
/// the shape exceeds the 128-bit key budget.
bool ttmc_wants_alto(std::size_t nnz, const tensor::Shape& shape,
                     const TtmcOptions& options);

/// Build-free planning estimates of structure memory (bytes): the N-tree
/// CSF forest vs the single ALTO structure for a tensor of this size.
/// ttmc_wants_csf/ttmc_wants_alto compare these against the structure
/// budget before committing to a build.
double csf_forest_bytes_estimate(std::size_t nnz, std::size_t order);
double alto_bytes_estimate(std::size_t nnz, const tensor::Shape& shape);

/// Width of Y(n) rows: product of factor column counts over modes != n.
std::size_t ttmc_row_width(const std::vector<la::Matrix>& factors,
                           std::size_t mode);

/// Compute the compact Y(n): row r corresponds to global row sym.rows[r].
/// `y` is resized to (sym.num_rows() x ttmc_row_width()). `csf`, when
/// non-null, must be the tree rooted at `mode` built from the same tensor
/// (its root nodes then coincide with the compact symbolic rows). `alto`,
/// when non-null, must be built from the same tensor (one structure serves
/// every mode, so unlike `csf` it is not per-mode).
void ttmc_mode(const CooTensor& x, const std::vector<la::Matrix>& factors,
               std::size_t mode, const ModeSymbolic& sym, la::Matrix& y,
               const TtmcOptions& options = {},
               const tensor::CsfTree* csf = nullptr,
               const tensor::AltoTensor* alto = nullptr);

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
                      const tensor::CsfTree* csf = nullptr,
                      const tensor::AltoTensor* alto = nullptr);

}  // namespace ht::core
