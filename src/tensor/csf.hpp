// Compressed sparse fiber (CSF) trees: the hierarchical tensor layout of
// SPLATT (Smith & Karypis) adapted to the compact TTMc of this repo.
//
// One tree per root mode n. Nonzeros are sorted lexicographically by
// (i_n, i_{m_1}, ..., i_{m_{L-1}}) and equal-prefix runs are collapsed into
// nodes: level 0 holds one node per non-empty mode-n row (exactly the
// compact row set J_n of core::ModeSymbolic, in the same sorted order),
// level d holds one node per distinct (root..d)-prefix, and the leaf level
// holds one entry per nonzero with its trailing coordinate and value
// gathered into tree order. Where the flat update lists of core/symbolic.*
// chase a permutation (`nnz_order[i]` then `values[e]`, `idx[e]` — two
// random reads per nonzero), a CSF walk streams coordinates and values
// sequentially and pays each shared prefix's factor-row product once — the
// locality the kCsf TTMc kernel in core/ttmc.cpp exploits.
//
// Internal level order (the mode-permutation heuristic): below the root the
// remaining modes are sorted shortest-mode-first (ascending count of
// distinct indices that occur, ties by mode id). Short modes near the root
// have few distinct indices, so upper-level runs are long and more nonzeros
// share each stored prefix. The count ignores empty slices, so a tensor and
// its reindexed rank-local copy build the same tree. The
// kernel un-permutes at the root: a served row is produced in tree Kronecker
// order and scattered once into ttmc_mode's increasing-mode layout.
//
// Each tree copies the tensor's values into leaf order when it is built,
// so one CsfTensor is reused across HOOI iterations, HOOI runs, and the
// rank grid of a rank_sweep over the tensor it was built from. Trees live
// on the heap of the process that built them (core::TtmcPlan); they are
// not part of a saved model.
//
// Determinism: the lexicographic sort breaks ties by nonzero ordinal, so
// the tree — and therefore the kCsf kernel's per-row accumulation order —
// is a pure function of the tensor, independent of thread count.
// Thread-safety: CsfTree/CsfTensor are immutable after build and may be
// shared by any number of concurrent readers.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/coo_tensor.hpp"
#include "tensor/types.hpp"

namespace ht::tensor {

/// Compressed fiber tree rooted at one mode.
struct CsfTree {
  /// Tree level -> tensor mode; level_modes[0] is the root mode, the rest
  /// are the remaining modes shortest-first. Size = tensor order.
  std::vector<std::size_t> level_modes;
  /// idx[d][k]: coordinate (along level_modes[d]) of node k at level d.
  /// Level 0 enumerates the non-empty root-mode rows in increasing order —
  /// node k IS compact row k of core::ModeSymbolic for the root mode. The
  /// deepest level has one entry per nonzero, in tree order.
  std::vector<std::vector<index_t>> idx;
  /// ptr[d] (d >= 1, size num_nodes(d-1) + 1): node k at level d-1 owns the
  /// level-d children [ptr[d][k], ptr[d][k+1]). ptr[0] is empty.
  std::vector<std::vector<nnz_t>> ptr;
  /// Leaf span under each root subtree (size num_roots() + 1): the nnz
  /// weights the kernel's tile scheduler balances on.
  std::vector<nnz_t> root_leaf_ptr;
  /// Tensor values in leaf order.
  std::vector<double> values;

  [[nodiscard]] std::size_t levels() const { return level_modes.size(); }
  [[nodiscard]] std::size_t root_mode() const { return level_modes[0]; }
  [[nodiscard]] std::size_t num_nodes(std::size_t d) const {
    return idx[d].size();
  }
  [[nodiscard]] std::size_t num_roots() const {
    return idx.empty() ? 0 : idx[0].size();
  }
  [[nodiscard]] std::size_t num_leaves() const { return values.size(); }

  /// Mean leaves per deepest internal node: how many nonzeros share each
  /// leaf-level prefix under the tree's own level order. bench_ablation
  /// reports it per mode; the kernel choice does not consult it. Zero for
  /// an empty tree.
  [[nodiscard]] double avg_leaf_fiber_length() const;

  /// Index-traversal compression: (leaves * internal levels) / stored
  /// internal+leaf nodes. 1.0 means every nonzero walks its own path (no
  /// sharing, CSF degenerates to COO); larger means each stored prefix is
  /// amortized over that many path visits. Zero for an empty tree.
  [[nodiscard]] double prefix_sharing_ratio() const;

  /// nnz under root node k — the tile scheduler's balance weight.
  [[nodiscard]] nnz_t root_nnz(std::size_t k) const {
    return root_leaf_ptr[k + 1] - root_leaf_ptr[k];
  }

  /// Build the tree rooted at `root` with `x`'s values in leaf order.
  /// Requires order >= 2, root < order.
  static CsfTree build(const CooTensor& x, std::size_t root);
};

/// One CSF tree per root mode. Built once per tensor and shared across
/// HOOI iterations, runs, and rank grids.
struct CsfTensor {
  std::vector<CsfTree> modes;

  [[nodiscard]] std::size_t order() const { return modes.size(); }

  /// Build all per-mode trees (modes in parallel).
  static CsfTensor build(const CooTensor& x);
};

}  // namespace ht::tensor
