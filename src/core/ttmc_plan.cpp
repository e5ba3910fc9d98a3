#include "core/ttmc_plan.hpp"

#include "util/timer.hpp"

namespace ht::core {

TtmcPlan TtmcPlan::build(const CooTensor& x, const TtmcOptions& options) {
  WallTimer timer;
  TtmcPlan plan;
  plan.options = options;
  // An empty tensor (a rank-local slice can be one) has nothing to sort.
  if (x.nnz() > 0 && ttmc_wants_csf(x.order(), options)) {
    plan.index = tensor::CsfTensor::build(x);
  } else {
    plan.index = SymbolicTtmc::build(x);
  }
  plan.build_seconds = timer.seconds();
  return plan;
}

}  // namespace ht::core
