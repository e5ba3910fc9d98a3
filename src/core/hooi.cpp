#include "core/hooi.hpp"

#include <span>

#include "core/sweep.hpp"
#include "core/ttmc.hpp"
#include "parallel/thread_info.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace ht::core {

void validate_hooi_options(const CooTensor& x, const HooiOptions& options) {
  if (x.nnz() == 0) throw InvalidArgument("HOOI needs a nonempty tensor");
  if (x.order() < 2) throw InvalidArgument("HOOI needs an order >= 2 tensor");
  x.validate_values();
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
  WallTimer timer;
  const tensor::CsfTensor forest = tensor::CsfTensor::build(x);
  const double build_seconds = timer.seconds();
  HooiResult result = hooi(x, options, forest);
  result.timers.symbolic = build_seconds;
  return result;
}

HooiResult hooi(const CooTensor& x, const HooiOptions& options,
                const tensor::CsfTensor& forest) {
  validate_hooi_options(x, options);
  const std::size_t order = x.order();
  // The trees copy x's values and their root rows index x's factor rows: a
  // forest built from another tensor would read and write out of bounds or
  // fit other data. Root rows are sorted, so the last one bounds them all.
  bool same_tensor = forest.order() == order;
  for (std::size_t n = 0; same_tensor && n < order; ++n) {
    const tensor::CsfTree& tree = forest.modes[n];
    same_tensor = tree.num_leaves() == x.nnz() && tree.num_roots() > 0 &&
                  tree.idx[0].back() < x.dim(n);
  }
  if (!same_tensor) {
    throw InvalidArgument("CSF forest was built for another tensor");
  }
  return hooi_one_rank(x, options, forest.nonempty_rows(),
                       [&](const std::vector<la::Matrix>& factors,
                           std::size_t mode, la::Matrix& y) {
                         ttmc_mode(x, factors, mode, forest.modes[mode], y);
                       });
}

}  // namespace ht::core
