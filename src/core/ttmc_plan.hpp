// TTMc preprocessing, built once per tensor: the one object every HOOI
// driver (hooi, rank_sweep, dist_hooi per rank, tucker_cli) consumes.
//
// TtmcPlan::build(x, options) runs every preprocessing pass the options ask
// for — the symbolic update lists, and the CSF forest when ttmc_wants_csf
// says so. This is the one place the TTMc kernel is decided: every mode of
// every sweep runs the direct kernel over whatever the plan holds
// (TtmcPlan::kernel), through ttmc() / ttmc_subset(). Nothing in the plan
// depends on the ranks, so one plan serves every sweep, HOOI run, and rank
// choice over the same tensor. The CSF trees copy the tensor's values, not
// only its pattern: a plan runs only the tensor it was built from.
//
// The plan is a plain aggregate: tests and benches that want a specific
// structure combination can assemble one field by field.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/symbolic.hpp"
#include "core/ttmc.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/csf.hpp"

namespace ht::core {

struct TtmcPlan {
  /// Options the plan was built for; every TTMc through it runs with them.
  TtmcOptions options;
  SymbolicTtmc symbolic;
  /// Per-mode CSF trees; empty when not built.
  std::optional<tensor::CsfTensor> csf;
  /// Wall seconds build() took (charged to HooiTimers::symbolic).
  double build_seconds = 0.0;

  static TtmcPlan build(const CooTensor& x, const TtmcOptions& options = {});

  /// CSF tree rooted at `mode`, or null.
  [[nodiscard]] const tensor::CsfTree* csf_tree(std::size_t mode) const {
    return csf ? &csf->modes[mode] : nullptr;
  }

  /// Kernel the direct TTMc of `mode` resolves to over this plan's
  /// structures (kAuto applied).
  [[nodiscard]] TtmcKernel kernel(std::size_t mode) const {
    return ttmc_selected_kernel(symbolic.modes.size(), options,
                                csf_tree(mode));
  }

  /// Compact Y(mode) of `x` (ttmc_mode over this plan's symbolic lists and
  /// CSF tree). `x` must be the tensor the plan was built from.
  void ttmc(const CooTensor& x, const std::vector<la::Matrix>& factors,
            std::size_t mode, la::Matrix& y) const {
    ttmc_mode(x, factors, mode, symbolic.modes[mode], y, options,
              csf_tree(mode));
  }

  /// Only the listed compact rows: row p of y is compact row positions[p]
  /// (ttmc_mode_subset; the coarse-grain distributed owned-row path).
  void ttmc_subset(const CooTensor& x, const std::vector<la::Matrix>& factors,
                   std::size_t mode, std::span<const std::uint32_t> positions,
                   la::Matrix& y) const {
    ttmc_mode_subset(x, factors, mode, symbolic.modes[mode], positions, y,
                     options, csf_tree(mode));
  }
};

}  // namespace ht::core
