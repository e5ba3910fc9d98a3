// Regenerates the sequential comparison from Section V: the paper reports
// 87.2 s for MET (materialized TTM chains, MATLAB Tensor Toolbox evaluation
// order) vs 11.3 s for their fused nonzero-based method on a random
// 10K x 10K x 10K tensor with 1M nonzeros, five HOOI iterations, one core.
//
// Expected shape: the fused formulation wins by a large factor; the gap
// comes from MET materializing (and sorting/merging) semi-sparse
// intermediates per mode.
#include <cstdio>

#include "bench_common.hpp"
#include "core/hooi.hpp"
#include "core/met_baseline.hpp"

int main() {
  using namespace ht;

  // Paper: 10K^3, 1M nnz; scaled by HT_SCALE (0.25 default -> 2.5K^3, 250K).
  const double scale = htb::bench_scale();
  const auto dim = static_cast<tensor::index_t>(10000 * scale);
  const auto nnz = static_cast<tensor::nnz_t>(1e6 * scale);
  const int iters = htb::bench_iters();

  tensor::CooTensor x =
      tensor::random_uniform({dim, dim, dim}, nnz, /*seed=*/42);
  std::printf("=== Sequential MET comparison (Sec. V): %s, %d iterations, 1 "
              "thread ===\n",
              x.summary().c_str(), iters);

  core::HooiOptions options;
  options.ranks = {10, 10, 10};
  options.max_iterations = iters;
  options.fit_tolerance = 0.0;
  options.num_threads = 1;  // the paper's comparison is sequential
  // The paper's SLEPc configuration: Lanczos on every solve, as the MET
  // baseline also runs.
  options.trsvd_method = core::TrsvdMethod::kLanczos;

  WallTimer t_fused;
  const auto fused = core::hooi(x, options);
  const double fused_s = t_fused.seconds();

  WallTimer t_met;
  const auto met = core::hooi_met_baseline(x, options);
  const double met_s = t_met.seconds();

  TextTable table({"method", "total (s)", "ttmc (s)", "trsvd (s)", "fit"});
  table.add_row({"HyperTensor (fused TTMc)", fmt_time_s(fused_s),
                 fmt_time_s(fused.timers.ttmc), fmt_time_s(fused.timers.trsvd),
                 fmt_fixed(fused.final_fit(), 4)});
  table.add_row({"MET-style (materialized)", fmt_time_s(met_s),
                 fmt_time_s(met.timers.ttmc), fmt_time_s(met.timers.trsvd),
                 fmt_fixed(met.final_fit(), 4)});
  std::printf("%s", table.to_string().c_str());
  std::printf("speedup of fused over MET-style: %.1fx (paper: 87.2/11.3 = "
              "7.7x)\n",
              met_s / fused_s);
  return 0;
}
