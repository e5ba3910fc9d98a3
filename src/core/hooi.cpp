#include "core/hooi.hpp"

#include <span>
#include <variant>

#include "core/sweep.hpp"
#include "parallel/thread_info.hpp"
#include "util/error.hpp"

namespace ht::core {

namespace {

// Nonzeros one mode's index covers.
std::size_t index_entries(const ModeSymbolic& sym) {
  return sym.nnz_order.size();
}
std::size_t index_entries(const tensor::CsfTree& tree) {
  return tree.num_leaves();
}

}  // namespace

void validate_hooi_options(const CooTensor& x, const HooiOptions& options) {
  if (x.nnz() == 0) throw InvalidArgument("HOOI needs a nonempty tensor");
  if (options.ranks.size() != x.order()) {
    throw InvalidArgument("need one rank per tensor mode");
  }
  for (std::size_t n = 0; n < x.order(); ++n) {
    if (options.ranks[n] < 1 || options.ranks[n] > x.dim(n)) {
      throw InvalidArgument("rank out of range for mode " + std::to_string(n));
    }
  }
  if (options.max_iterations < 1) {
    throw InvalidArgument("max_iterations must be >= 1");
  }
}

HooiResult hooi(const CooTensor& x, const HooiOptions& options) {
  validate_hooi_options(x, options);
  parallel::ThreadScope threads(options.num_threads);
  const TtmcPlan plan = TtmcPlan::build(x, options.ttmc_kernel);
  HooiResult result = hooi(x, options, plan);
  result.timers.symbolic = plan.build_seconds;
  return result;
}

HooiResult hooi(const CooTensor& x, const HooiOptions& options,
                const TtmcPlan& plan) {
  validate_hooi_options(x, options);
  const std::size_t order = x.order();
  if ((plan.kernel() == TtmcKernel::kCsf) !=
      ttmc_wants_csf(order, options.ttmc_kernel)) {
    throw InvalidArgument("TTMc plan runs another kernel than requested");
  }
  // Whichever index the plan holds covers x's nonzeros (the lists index
  // them, the trees copy their values) and its compact rows index x's
  // factor rows: a plan built from another tensor would read and write out
  // of bounds or fit other data. Rows are sorted, so the last one bounds
  // them all.
  const bool same_tensor = std::visit(
      [&](const auto& idx) {
        if (idx.modes.size() != order) return false;
        for (std::size_t n = 0; n < order; ++n) {
          const auto& rows = plan.rows(n);
          if (index_entries(idx.modes[n]) != x.nnz() ||
              (!rows.empty() && rows.back() >= x.dim(n))) {
            return false;
          }
        }
        return true;
      },
      plan.index);
  if (!same_tensor) {
    throw InvalidArgument("TTMc plan was built for another tensor");
  }
  std::vector<std::span<const index_t>> rows;
  for (std::size_t n = 0; n < order; ++n) rows.emplace_back(plan.rows(n));
  return hooi_one_rank(x, options, rows,
                       [&](const std::vector<la::Matrix>& factors,
                           std::size_t mode, la::Matrix& y) {
                         plan.ttmc(x, factors, mode, y);
                       });
}

}  // namespace ht::core
