// Dimension-tree TTMc scheduler: cross-mode reuse of partial contractions.
//
// The nonzero-based TTMc (paper Eq. 4 / Algorithm 2) recomputes Y(n) from
// raw nonzeros for every mode of every HOOI sweep, even though consecutive
// modes share all factors but one. The dimension tree removes that
// redundancy (cf. Oh et al., "Scalable Tucker Factorization for Sparse
// Tensors", and CSF/ALTO-style compressed intermediates): split the modes
// into a left group L = [0, split) and a right group R = [split, N), and
// materialize per sweep
//   P_L = X x_{t in L} U_t^T   (semi-sparse in the R modes),
//   P_R = X x_{t in R} U_t^T   (semi-sparse in the L modes).
// Every mode n is then served from the *opposite* partial by contracting
// the remaining factors of its own group:
//   n in L:  Y(n) = P_R x_{t in L \ {n}} U_t^T,
//   n in R:  Y(n) = P_L x_{t in R \ {n}} U_t^T.
// Each partial is built once per sweep instead of each mode re-touching all
// nonzeros, cutting the per-iteration nonzero passes from N to 2 (~half the
// TTMc flops for 3-mode tensors, more for 4/5-mode). HOOI's freshness
// contract survives exactly: modes are updated in increasing order, so P_R
// built at sweep start only depends on factors updated *after* all L modes,
// and P_L is (re)built after the last L update — tree-served Y(n) equals
// the direct computation to rounding.
//
// Block layouts are arranged so a served Y(n) matches ttmc_mode bit-layout:
// partials append their group's ranks in increasing mode order (fastest
// last); serving a left mode prepends the remaining left factors in
// decreasing mode order, serving a right mode appends the remaining right
// factors in increasing mode order.
//
// All merge plans (tensor::TtmPlan) are symbolic: they depend only on the
// nonzero pattern, so one DimTreePlan is reused across iterations, HOOI
// runs, and the rank grid of a rank sweep.
//
// Determinism: plan construction and the numeric applies are pure
// functions of (tensor pattern, factors) — group orders come from stable
// radix sorts and every output block has a single writer accumulating in
// plan order, so results are bitwise reproducible for any thread count or
// schedule. Thread-safety: DimTreePlan is immutable after build() and may
// be shared by any number of concurrent TtmcScheduler instances;
// TtmcScheduler itself is stateful (owns the partial buffers, tracks
// factor freshness) and must not be used from two threads at once — give
// each SPMD rank or concurrent HOOI run its own scheduler over the shared
// plan.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/symbolic.hpp"
#include "core/ttmc.hpp"
#include "tensor/semi_sparse.hpp"

namespace ht::core {

struct TtmcPlan;

/// Symbolic dimension-tree plan for one tensor. Immutable after build();
/// shared by any number of concurrent TtmcScheduler instances.
class DimTreePlan {
 public:
  DimTreePlan() = default;

  /// Build the contraction and serve plans. Requires order >= 2.
  static DimTreePlan build(const CooTensor& x);

  [[nodiscard]] std::size_t order() const { return order_; }
  /// Left group is [0, split()), right group [split(), order()).
  [[nodiscard]] std::size_t split() const { return split_; }
  [[nodiscard]] bool in_left(std::size_t mode) const { return mode < split_; }

  /// Chain contracting the left (resp. right) group's modes out of X. Its
  /// output partial is semi-sparse in the opposite group's modes and serves
  /// them.
  [[nodiscard]] const std::vector<tensor::TtmPlan>& contract_chain(
      bool left) const {
    return left ? contract_left_ : contract_right_;
  }

  /// Steps applied to the opposite partial to serve this mode; empty when
  /// the mode's group is a singleton (the partial's rows *are* Y(n)).
  [[nodiscard]] const std::vector<tensor::TtmPlan>& serve_chain(
      std::size_t mode) const {
    return serve_[mode];
  }

  /// Rows of the served compact Y(n); equals ModeSymbolic::rows.size().
  [[nodiscard]] std::size_t serve_rows(std::size_t mode) const {
    return serve_rows_[mode];
  }

  /// Cost estimate (flop-equivalents, including per-slot memory-traffic
  /// charges — see dim_tree.cpp) of building the left/right contraction
  /// chain at the given ranks: per step, slots * in_block * rank for the
  /// accumulation plus groups * out_block for the zero-and-write.
  [[nodiscard]] double contract_cost(bool left,
                                     std::span<const index_t> ranks) const;

  /// Cost estimate of serving one mode from its (already built) partial.
  [[nodiscard]] double serve_cost(std::size_t mode,
                                  std::span<const index_t> ranks) const;

 private:
  static double chain_cost(const std::vector<tensor::TtmPlan>& chain,
                           std::size_t in_block,
                           std::span<const index_t> ranks,
                           bool leaf_gathered);

  std::size_t order_ = 0;
  std::size_t split_ = 0;
  std::vector<tensor::TtmPlan> contract_left_;
  std::vector<tensor::TtmPlan> contract_right_;
  std::vector<std::vector<tensor::TtmPlan>> serve_;
  std::vector<std::size_t> serve_rows_;
};

/// Per-run numeric engine. Owns the two partial value buffers and serves
/// compact Y(n) by the selected strategy (direct kernels or tree-served),
/// lazily (re)building a partial when the factors it depends on changed.
///
/// Caller contract (HOOI's access pattern): compute() / compute_subset()
/// is called with the *current* factors, and factors[mode] may be replaced
/// right after the call — the scheduler conservatively invalidates the
/// partial contracted over `mode` on every call. Callers that mutate
/// factors outside this pattern must call invalidate().
class TtmcScheduler {
 public:
  /// Runs TTMc over `plan`'s structures with `plan.options`: modes resolve
  /// to tree serving only when the plan holds a DimTreePlan. `x` must be
  /// the tensor the plan was built from; `x` and `plan` must outlive the
  /// scheduler.
  TtmcScheduler(const CooTensor& x, const TtmcPlan& plan,
                std::span<const index_t> ranks);

  /// Strategy the cost model (or an explicit request) resolved for a mode.
  [[nodiscard]] TtmcStrategy selected(std::size_t mode) const {
    return selected_[mode];
  }

  /// Cost estimates behind the kAuto decision, exposed for tests/benches.
  [[nodiscard]] double direct_cost(std::size_t mode) const {
    return direct_cost_[mode];
  }
  [[nodiscard]] double serve_cost(std::size_t mode) const {
    return serve_cost_[mode];
  }

  /// Compute the full compact Y(mode) into y (resized as needed).
  void compute(const std::vector<la::Matrix>& factors, std::size_t mode,
               la::Matrix& y);

  /// Compute only the listed compact rows: row p of y is compact row
  /// positions[p] (the coarse-grain distributed owned-row path).
  void compute_subset(const std::vector<la::Matrix>& factors,
                      std::size_t mode,
                      std::span<const std::uint32_t> positions, la::Matrix& y);

  /// Force both partials to rebuild on next use (factors changed outside
  /// the compute() protocol).
  void invalidate();

 private:
  struct Partial {
    std::vector<double> values;
    std::size_t block = 1;
    bool valid = false;
  };

  // side 0: output of contract_chain(left=true), serves right modes;
  // side 1: output of contract_chain(left=false), serves left modes.
  [[nodiscard]] std::size_t serving_side(std::size_t mode) const {
    return tree_->in_left(mode) ? 1 : 0;
  }
  void refresh_partial(std::size_t side, const std::vector<la::Matrix>& factors);
  void serve(const std::vector<la::Matrix>& factors, std::size_t mode,
             const std::uint32_t* positions, std::size_t npos, la::Matrix& y);
  void select_strategies();

  const CooTensor* x_;
  const TtmcPlan* plan_;
  const DimTreePlan* tree_;  // plan_->tree, or null
  std::vector<index_t> ranks_;
  std::vector<TtmcStrategy> selected_;
  std::vector<double> direct_cost_;
  std::vector<double> serve_cost_;
  Partial partial_[2];
  std::vector<double> leaf_values_[2];  // x values pre-permuted per chain
  std::vector<double> chain_scratch_[2];
};

}  // namespace ht::core
