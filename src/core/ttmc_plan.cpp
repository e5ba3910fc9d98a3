#include "core/ttmc_plan.hpp"

#include "util/timer.hpp"

namespace ht::core {

TtmcPlan TtmcPlan::build(const CooTensor& x, const TtmcOptions& options) {
  WallTimer timer;
  TtmcPlan plan;
  plan.options = options;
  plan.symbolic = SymbolicTtmc::build(x);
  // An empty tensor (a rank-local slice can be one) has nothing to sort.
  if (x.nnz() > 0 && ttmc_wants_csf(x.nnz(), x.order(), options)) {
    plan.csf = std::make_shared<const tensor::CsfTensor>(
        tensor::CsfTensor::build(x));
  }
  if (x.nnz() > 0 && ttmc_wants_alto(x.nnz(), x.shape(), options)) {
    plan.alto = std::make_shared<const tensor::AltoTensor>(
        tensor::AltoTensor::build(x));
  }
  plan.build_seconds = timer.seconds();
  return plan;
}

}  // namespace ht::core
