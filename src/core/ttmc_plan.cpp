#include "core/ttmc_plan.hpp"

#include "util/timer.hpp"

namespace ht::core {

TtmcPlan TtmcPlan::build(const CooTensor& x, TtmcKernel kernel) {
  WallTimer timer;
  TtmcPlan plan;
  // An empty tensor (a rank-local slice can be one) has nothing to sort.
  if (x.nnz() > 0 && ttmc_wants_csf(x.order(), kernel)) {
    plan.index = tensor::CsfTensor::build(x);
  } else {
    plan.index = SymbolicTtmc::build(x);
  }
  plan.build_seconds = timer.seconds();
  return plan;
}

}  // namespace ht::core
