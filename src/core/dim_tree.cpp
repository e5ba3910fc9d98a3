#include "core/dim_tree.hpp"

#include <algorithm>

#include "core/ttmc_plan.hpp"
#include "util/error.hpp"

namespace ht::core {

using tensor::PatternView;
using tensor::TtmPlan;

// ---- DimTreePlan -----------------------------------------------------------

DimTreePlan DimTreePlan::build(const CooTensor& x) {
  DimTreePlan plan;
  plan.order_ = x.order();
  HT_CHECK_MSG(plan.order_ >= 2, "dimension tree needs at least 2 modes");
  plan.split_ = (plan.order_ + 1) / 2;

  std::vector<std::size_t> base_modes;
  const PatternView base = PatternView::of(x, base_modes);

  // Contract a mode range out of X in increasing order with append layout:
  // the partial's block ends up ordered by increasing mode, fastest last —
  // the tail of ttmc_mode's Kronecker order.
  auto build_chain = [&](std::size_t lo, std::size_t hi) {
    std::vector<TtmPlan> chain;
    for (std::size_t t = lo; t < hi; ++t) {
      const PatternView cur =
          chain.empty() ? base : chain.back().out_pattern();
      chain.push_back(tensor::build_ttm_plan(cur, t, /*prepend=*/false));
    }
    return chain;
  };
  plan.contract_left_ = build_chain(0, plan.split_);
  plan.contract_right_ = build_chain(plan.split_, plan.order_);

  // Serve chains. A left mode prepends the remaining left factors in
  // decreasing mode order (they sit *before* the partial's right-mode ranks
  // in Y(n)'s layout); a right mode appends the remaining right factors in
  // increasing mode order. Either way the final groups are sorted by the
  // mode-n row index — the compact row order of ModeSymbolic.
  plan.serve_.resize(plan.order_);
  plan.serve_rows_.assign(plan.order_, 0);
  for (std::size_t n = 0; n < plan.order_; ++n) {
    const bool left = plan.in_left(n);
    const auto& partial_chain =
        left ? plan.contract_right_ : plan.contract_left_;
    std::vector<TtmPlan>& chain = plan.serve_[n];
    auto add_step = [&](std::size_t t, bool prepend) {
      const PatternView cur =
          chain.empty() ? partial_chain.back().out_pattern()
                        : chain.back().out_pattern();
      chain.push_back(tensor::build_ttm_plan(cur, t, prepend));
    };
    if (left) {
      for (std::size_t t = plan.split_; t-- > 0;) {
        if (t != n) add_step(t, /*prepend=*/true);
      }
    } else {
      for (std::size_t t = plan.split_; t < plan.order_; ++t) {
        if (t != n) add_step(t, /*prepend=*/false);
      }
    }
    plan.serve_rows_[n] =
        chain.empty() ? partial_chain.back().num_groups()
                      : chain.back().num_groups();
  }

  // The numeric applies never read output coordinates; keep only the final
  // steps' (tests inspect the served row ids) and drop the intermediates.
  auto shrink_chain = [](std::vector<TtmPlan>& chain) {
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) chain[i].shrink();
  };
  shrink_chain(plan.contract_left_);
  shrink_chain(plan.contract_right_);
  for (auto& chain : plan.serve_) shrink_chain(chain);
  return plan;
}

// Cost-model calibration (flop-equivalents per slot/nonzero). Flops alone
// misprice these kernels: they are memory-bound, and the per-element
// *indirection* traffic differs by path. A direct kernel chases nnz_order,
// a mode index, a value, and a random factor row per nonzero; a tree step
// chases src_entry + src_row per slot — except the leaf step of a partial
// build, whose values the scheduler pre-gathers into slot order once per
// run, leaving a sequential stream. Measured on bench_ablation arm 5, the
// tree's leaf pass runs ~1.5-2x faster per nonzero than a direct kernel
// pass at equal flops; these constants encode that asymmetry.
namespace {
constexpr double kSlotIndirectCost = 4.0;  // direct kernels, non-leaf steps
constexpr double kSlotGatheredCost = 2.0;  // pre-gathered leaf steps
}  // namespace

double DimTreePlan::chain_cost(const std::vector<TtmPlan>& chain,
                               std::size_t in_block,
                               std::span<const index_t> ranks,
                               bool leaf_gathered) {
  double cost = 0.0;
  double block = static_cast<double>(in_block);
  bool first = true;
  for (const TtmPlan& step : chain) {
    const auto rank = static_cast<double>(ranks[step.source_mode]);
    const auto slots = static_cast<double>(step.num_slots());
    // Accumulation over every slot plus the zero-and-write of the output,
    // plus the slot indirection traffic.
    cost += slots * block * rank +
            static_cast<double>(step.num_groups()) * block * rank +
            slots * (first && leaf_gathered ? kSlotGatheredCost
                                            : kSlotIndirectCost);
    block *= rank;
    first = false;
  }
  return cost;
}

double DimTreePlan::contract_cost(bool left,
                                  std::span<const index_t> ranks) const {
  return chain_cost(contract_chain(left), 1, ranks, /*leaf_gathered=*/true);
}

double DimTreePlan::serve_cost(std::size_t mode,
                               std::span<const index_t> ranks) const {
  const bool left = in_left(mode);
  std::size_t in_block = 1;
  if (left) {
    for (std::size_t t = split_; t < order_; ++t) in_block *= ranks[t];
  } else {
    for (std::size_t t = 0; t < split_; ++t) in_block *= ranks[t];
  }
  const auto& chain = serve_[mode];
  if (chain.empty()) {
    // Row gather only: one block copy per served row.
    return static_cast<double>(serve_rows_[mode]) *
           static_cast<double>(in_block);
  }
  return chain_cost(chain, in_block, ranks, /*leaf_gathered=*/false);
}

// ---- TtmcScheduler ---------------------------------------------------------

namespace {

// Cost estimate of the direct kernel ttmc_selected_kernel would run for
// the mode, including the zero-and-write of the compact output and the
// per-nonzero indirection charge (see the calibration constants above).
// Mirrors the kernels in ttmc.cpp: per-nnz pays the full Kronecker row per
// nonzero; CSF pays one expansion per tree node; ALTO pays per-nnz flops
// plus its staging merge.
double direct_mode_cost(const ModeSymbolic& sym, std::size_t order,
                        std::size_t mode, std::span<const index_t> ranks,
                        const TtmcOptions& options,
                        const tensor::CsfTree* csf,
                        const tensor::AltoTensor* alto) {
  const auto nnz = static_cast<double>(sym.nnz_order.size());
  double width = 1.0;
  for (std::size_t t = 0; t < order; ++t) {
    if (t != mode) width *= static_cast<double>(ranks[t]);
  }
  const double rows_write = static_cast<double>(sym.num_rows()) * width;
  const TtmcKernel kernel = ttmc_selected_kernel(order, options, csf, alto);
  if (kernel == TtmcKernel::kAlto) {
    // Phase 1 pays the full Kronecker expansion per nonzero (like per-nnz)
    // but streams keys/values sequentially (the gathered traffic rate);
    // phase 2 adds one staged row per touched (partition, row) pair, at
    // most min(range, partition nnz) rows each.
    double merge_rows = 0.0;
    for (std::size_t p = 0; p < alto->num_partitions(); ++p) {
      const double range =
          static_cast<double>(alto->partition_max(p, mode) -
                              alto->partition_min(p, mode)) +
          1.0;
      merge_rows += std::min(range, static_cast<double>(alto->partition_nnz(p)));
    }
    return nnz * width + merge_rows * width + rows_write +
           nnz * kSlotGatheredCost;
  }
  if (kernel == TtmcKernel::kCsf) {
    // Every node at level d pays one expansion of its partial into its
    // parent's (width of the parent partial); leaves are the d = L-1 term.
    // Values and coordinates stream in tree order, so the traffic charge is
    // the pre-gathered one, like the tree scheduler's leaf pass.
    double cost = rows_write + nnz * kSlotGatheredCost;
    double level_width = width;  // parent-partial width at level d = 1
    for (std::size_t d = 1; d < csf->levels(); ++d) {
      cost += static_cast<double>(csf->num_nodes(d)) * level_width;
      level_width /= static_cast<double>(ranks[csf->level_modes[d]]);
    }
    return cost;
  }
  return nnz * width + rows_write + nnz * kSlotIndirectCost;
}

}  // namespace

TtmcScheduler::TtmcScheduler(const CooTensor& x, const TtmcPlan& plan,
                             std::span<const index_t> ranks)
    : x_(&x),
      plan_(&plan),
      tree_(plan.tree ? &*plan.tree : nullptr),
      ranks_(ranks.begin(), ranks.end()) {
  const std::size_t order = x.order();
  HT_CHECK_MSG(plan.symbolic.modes.size() == order &&
                   (order == 0 ||
                    plan.symbolic.modes[0].nnz_order.size() == x.nnz()),
               "TTMc plan was built for another tensor");
  HT_CHECK_MSG(ranks_.size() == order, "need one rank per mode");
  HT_CHECK_MSG(plan.csf == nullptr || plan.csf->order() == order,
               "CSF trees built for another tensor order");
  HT_CHECK_MSG(plan.alto == nullptr || plan.alto->shape == x.shape(),
               "ALTO structure built for another shape");
  if (tree_ != nullptr) {
    HT_CHECK_MSG(tree_->order() == order, "tree plan built for another order");
    for (std::size_t n = 0; n < order; ++n) {
      HT_CHECK_MSG(tree_->serve_rows(n) == plan.symbolic.modes[n].num_rows(),
                   "tree plan row count disagrees with symbolic for mode "
                       << n);
    }
  }
  select_strategies();
}

void TtmcScheduler::select_strategies() {
  const std::size_t order = plan_->symbolic.modes.size();
  const TtmcOptions& options = plan_->options;
  selected_.assign(order, TtmcStrategy::kDirect);
  direct_cost_.assign(order, 0.0);
  serve_cost_.assign(order, 0.0);
  for (std::size_t n = 0; n < order; ++n) {
    direct_cost_[n] =
        direct_mode_cost(plan_->symbolic.modes[n], order, n, ranks_, options,
                         plan_->csf_tree(n), plan_->alto.get());
  }
  if (tree_ == nullptr) {
    HT_CHECK_MSG(options.strategy != TtmcStrategy::kTree,
                 "TtmcStrategy::kTree requires a DimTreePlan");
    return;
  }
  for (std::size_t n = 0; n < order; ++n) {
    serve_cost_[n] = tree_->serve_cost(n, ranks_);
  }
  if (options.strategy == TtmcStrategy::kDirect) return;
  if (options.strategy == TtmcStrategy::kTree) {
    selected_.assign(order, TtmcStrategy::kTree);
    return;
  }

  // kAuto: decide per group. A mode joins the served set only if its serve
  // step alone beats the direct kernel; the group then goes tree-served if
  // the shared partial build plus the serves still beat direct with a
  // safety margin (biasing ties toward direct keeps kAuto within noise of
  // direct on tensors where the tree cannot win).
  constexpr double kTreeSafety = 0.9;
  const std::size_t split = tree_->split();
  const struct {
    std::size_t lo, hi;
    bool left;
  } groups[2] = {{0, split, true}, {split, order, false}};
  for (const auto& g : groups) {
    double sum_serve = 0.0, sum_direct = 0.0;
    std::vector<std::size_t> chosen;
    for (std::size_t n = g.lo; n < g.hi; ++n) {
      if (serve_cost_[n] < direct_cost_[n]) {
        chosen.push_back(n);
        sum_serve += serve_cost_[n];
        sum_direct += direct_cost_[n];
      }
    }
    if (chosen.empty()) continue;
    // The partial serving this group contracts the *other* group's modes.
    const double build = tree_->contract_cost(/*left=*/!g.left, ranks_);
    if (build + sum_serve < kTreeSafety * sum_direct) {
      for (std::size_t n : chosen) selected_[n] = TtmcStrategy::kTree;
    }
  }
}

void TtmcScheduler::invalidate() {
  partial_[0].valid = false;
  partial_[1].valid = false;
}

void TtmcScheduler::refresh_partial(std::size_t side,
                                    const std::vector<la::Matrix>& factors) {
  const bool left_chain = side == 0;
  const auto& chain = tree_->contract_chain(left_chain);
  Partial& p = partial_[side];

  // Leaf level: pre-permute the (immutable) tensor values by the first
  // step's slot order once, so every rebuild streams them sequentially
  // instead of chasing src_entry per nonzero.
  std::vector<double>& leaf = leaf_values_[side];
  const TtmPlan& first = chain.front();
  if (leaf.size() != first.num_slots()) {
    leaf.resize(first.num_slots());
    const auto values = x_->values();
    for (std::size_t s = 0; s < leaf.size(); ++s) {
      leaf[s] = values[first.src_entry[s]];
    }
  }

  const bool dyn = plan_->options.schedule == Schedule::kDynamic;
  std::size_t in_block = 1;
  const std::vector<double>* cur = &leaf;
  bool gathered = true;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const TtmPlan& step = chain[i];
    const la::Matrix& u = factors[step.source_mode];
    const std::size_t out_block = in_block * u.cols();
    std::vector<double>* dst =
        i + 1 == chain.size()
            ? &p.values
            : (cur == &chain_scratch_[0] ? &chain_scratch_[1]
                                         : &chain_scratch_[0]);
    dst->resize(step.num_groups() * out_block);
    tensor::ttm_apply(step, in_block, *cur, u, {dst->data(), dst->size()},
                      gathered, dyn);
    cur = dst;
    in_block = out_block;
    gathered = false;
  }
  p.block = in_block;
  p.valid = true;
}

void TtmcScheduler::serve(const std::vector<la::Matrix>& factors,
                          std::size_t mode, const std::uint32_t* positions,
                          std::size_t npos, la::Matrix& y) {
  const std::size_t side = serving_side(mode);
  if (!partial_[side].valid) refresh_partial(side, factors);
  const Partial& p = partial_[side];

  const bool dyn = plan_->options.schedule == Schedule::kDynamic;
  const std::size_t width = ttmc_row_width(factors, mode);
  const std::size_t rows =
      positions != nullptr ? npos : tree_->serve_rows(mode);
  y.resize(rows, width);

  const auto& chain = tree_->serve_chain(mode);
  if (chain.empty()) {
    // Singleton group: the partial's groups are the compact Y(n) rows.
    HT_CHECK_MSG(p.block == width, "partial block width mismatch");
    if (positions == nullptr) {
      std::copy(p.values.begin(), p.values.end(), y.data());
    } else {
      const auto n = static_cast<std::ptrdiff_t>(npos);
#pragma omp parallel for schedule(static)
      for (std::ptrdiff_t i = 0; i < n; ++i) {
        const double* src =
            p.values.data() +
            static_cast<std::size_t>(positions[i]) * p.block;
        std::copy(src, src + p.block,
                  y.row(static_cast<std::size_t>(i)).begin());
      }
    }
    return;
  }

  std::size_t in_block = p.block;
  const std::vector<double>* cur = &p.values;
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    // Intermediate serve steps run over all groups even for a subset
    // request: only the final step knows which rows the caller owns.
    const TtmPlan& step = chain[i];
    const la::Matrix& u = factors[step.source_mode];
    const std::size_t out_block = in_block * u.cols();
    std::vector<double>* dst = cur == &chain_scratch_[0]
                                   ? &chain_scratch_[1]
                                   : &chain_scratch_[0];
    dst->resize(step.num_groups() * out_block);
    tensor::ttm_apply(step, in_block, *cur, u, {dst->data(), dst->size()},
                      /*gathered_input=*/false, dyn);
    cur = dst;
    in_block = out_block;
  }
  const TtmPlan& last = chain.back();
  const la::Matrix& u = factors[last.source_mode];
  HT_CHECK_MSG(in_block * u.cols() == width, "served row width mismatch");
  if (positions == nullptr) {
    tensor::ttm_apply(last, in_block, *cur, u, y.flat(),
                      /*gathered_input=*/false, dyn);
  } else {
    tensor::ttm_apply_subset(last, in_block, *cur, u, {positions, npos},
                             y.flat(), dyn);
  }
}

void TtmcScheduler::compute(const std::vector<la::Matrix>& factors,
                            std::size_t mode, la::Matrix& y) {
  if (selected_[mode] == TtmcStrategy::kTree) {
    serve(factors, mode, nullptr, 0, y);
  } else {
    ttmc_mode(*x_, factors, mode, plan_->symbolic.modes[mode], y,
              plan_->options, plan_->csf_tree(mode), plan_->alto.get());
  }
  // The caller updates factors[mode] next (HOOI's contract): the partial
  // contracted over mode's own group goes stale. Conservative for callers
  // that do not update the factor — they just pay a rebuild.
  if (tree_ != nullptr) {
    partial_[tree_->in_left(mode) ? 0 : 1].valid = false;
  }
}

void TtmcScheduler::compute_subset(const std::vector<la::Matrix>& factors,
                                   std::size_t mode,
                                   std::span<const std::uint32_t> positions,
                                   la::Matrix& y) {
  if (selected_[mode] == TtmcStrategy::kTree) {
    serve(factors, mode, positions.data(), positions.size(), y);
  } else {
    ttmc_mode_subset(*x_, factors, mode, plan_->symbolic.modes[mode],
                     positions, y, plan_->options, plan_->csf_tree(mode),
                     plan_->alto.get());
  }
  if (tree_ != nullptr) {
    partial_[tree_->in_left(mode) ? 0 : 1].valid = false;
  }
}

}  // namespace ht::core
