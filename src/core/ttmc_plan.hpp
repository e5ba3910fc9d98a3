// TTMc preprocessing, built once per tensor: the one object every HOOI
// driver (hooi, rank_sweep, dist_hooi per rank, tucker_cli) consumes.
//
// TtmcPlan::build(x, options) builds exactly one index: the CSF forest when
// ttmc_wants_csf says so and the tensor has nonzeros, otherwise the
// symbolic update lists. This is the one place the TTMc kernel is decided:
// every mode of every sweep runs the kernel of the index the plan holds
// (TtmcPlan::kernel), through ttmc() / ttmc_subset(). Nothing in the plan
// depends on the ranks, so one plan serves every sweep, HOOI run, and rank
// choice over the same tensor. The lists index the tensor's nonzeros and
// the trees copy its values: a plan runs only the tensor it was built from.
//
// The plan is a plain aggregate: tests and benches that want a specific
// index can assemble one field by field.
#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "core/symbolic.hpp"
#include "core/ttmc.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/csf.hpp"

namespace ht::core {

struct TtmcPlan {
  /// Options the plan was built for; every TTMc through it runs with them.
  TtmcOptions options;
  /// The one index every mode runs over: the update lists (per-nnz kernel)
  /// or the CSF forest (CSF walk).
  std::variant<SymbolicTtmc, tensor::CsfTensor> index;
  /// Wall seconds build() took (charged to HooiTimers::symbolic).
  double build_seconds = 0.0;

  static TtmcPlan build(const CooTensor& x, const TtmcOptions& options = {});

  /// Kernel every mode of this plan runs: kCsf over a forest, kPerNnz over
  /// the lists.
  [[nodiscard]] TtmcKernel kernel() const {
    return std::holds_alternative<tensor::CsfTensor>(index)
               ? TtmcKernel::kCsf
               : TtmcKernel::kPerNnz;
  }

  /// Compact rows of `mode`, increasing: row r of Y(mode) is global row
  /// rows(mode)[r]. A tree's level-0 ids are exactly these rows.
  [[nodiscard]] const std::vector<index_t>& rows(std::size_t mode) const {
    if (const auto* csf = std::get_if<tensor::CsfTensor>(&index)) {
      return csf->modes[mode].idx[0];
    }
    return std::get<SymbolicTtmc>(index).modes[mode].rows;
  }

  /// Compact Y(mode) of `x` (ttmc_mode over this plan's index). `x` must be
  /// the tensor the plan was built from.
  void ttmc(const CooTensor& x, const std::vector<la::Matrix>& factors,
            std::size_t mode, la::Matrix& y) const {
    std::visit(
        [&](const auto& idx) {
          ttmc_mode(x, factors, mode, idx.modes[mode], y, options.schedule);
        },
        index);
  }

  /// Only the listed compact rows: row p of y is compact row positions[p]
  /// (ttmc_mode_subset; the coarse-grain distributed owned-row path).
  void ttmc_subset(const CooTensor& x, const std::vector<la::Matrix>& factors,
                   std::size_t mode, std::span<const std::uint32_t> positions,
                   la::Matrix& y) const {
    std::visit(
        [&](const auto& idx) {
          ttmc_mode_subset(x, factors, mode, idx.modes[mode], positions, y,
                           options.schedule);
        },
        index);
  }
};

}  // namespace ht::core
