// TTMc preprocessing, built once per tensor: the one object every HOOI
// driver (hooi, rank_sweep, dist_hooi per rank, tucker_cli) consumes.
//
// TtmcPlan::build(x, options) runs every pattern-only pass the options ask
// for — the symbolic update lists, the dimension-tree merge plans unless the
// strategy is kDirect, and the CSF forest or the single ALTO structure when
// ttmc_wants_csf / ttmc_wants_alto say so. This is the one place the TTMc
// kernel is decided: each mode's direct TTMc runs whichever structure the
// plan holds (TtmcPlan::kernel). Nothing in the plan depends on the ranks,
// so one plan serves every sweep, HOOI run, and rank choice over the same
// tensor; TtmcScheduler resolves the rank-dependent direct-vs-tree strategy
// per run on top of it.
//
// The plan is a plain aggregate: tests and benches that want a specific
// structure combination can assemble one field by field.
#pragma once

#include <memory>
#include <optional>

#include "core/dim_tree.hpp"
#include "core/symbolic.hpp"
#include "core/ttmc.hpp"
#include "tensor/alto.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/csf.hpp"

namespace ht::core {

struct TtmcPlan {
  /// Options the plan was built for; every TTMc through it runs with them.
  TtmcOptions options;
  SymbolicTtmc symbolic;
  /// Dimension-tree merge plans; absent under TtmcStrategy::kDirect.
  std::optional<DimTreePlan> tree{};
  /// Per-mode CSF trees / the ALTO structure; null when not built. Shared so
  /// a TuckerModel can carry them into a bundle without a copy.
  std::shared_ptr<const tensor::CsfTensor> csf{};
  std::shared_ptr<const tensor::AltoTensor> alto{};
  /// Wall seconds build() took (charged to HooiTimers::symbolic).
  double build_seconds = 0.0;

  static TtmcPlan build(const CooTensor& x, const TtmcOptions& options = {});

  /// CSF tree rooted at `mode`, or null.
  [[nodiscard]] const tensor::CsfTree* csf_tree(std::size_t mode) const {
    return csf ? &csf->modes[mode] : nullptr;
  }

  /// Kernel the direct TTMc of `mode` resolves to over this plan's
  /// structures (kAuto applied). kAlto may still fall back per call when one
  /// mode's staging would overflow the wave budget at the run's ranks.
  [[nodiscard]] TtmcKernel kernel(std::size_t mode) const {
    return ttmc_selected_kernel(symbolic.modes.size(), options,
                                csf_tree(mode), alto.get());
  }
};

}  // namespace ht::core
