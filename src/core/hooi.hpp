// Shared-memory parallel HOOI (paper Algorithm 3).
//
// TTMc preprocessing (core::TtmcPlan) runs once; each ALS sweep then
// performs, per mode,
//   (i)  numeric TTMc into the compact Y(n)            [lock-free parfor]
//   (ii) TRSVD of Y(n) -> U_n                          [kAuto, trsvd.hpp]
// and forms the core G = Y x_N U_N^T after the last mode (one GEMM, since
// Y(N) already holds X x_{-N} U). Convergence is monitored through the fit
// 1 - ||X - Xhat||/||X||, evaluated exactly from ||G|| (paper's check).
//
// The default TRSVD (kAuto) is matrix-free Lanczos for every solve of the
// first two sweeps and for every small mode. From the third sweep on, a
// mode whose compact Y(n) holds at least kWarmMinEntries entries starts
// from the compact rows of its current factor and takes kWarmSteps block
// power steps instead (core::warm_trsvd), rerunning Lanczos when the steps
// have not settled; HooiResult::warm_solves counts the solves whose factor
// came from the steps.
#pragma once

#include <cstdint>
#include <vector>

#include "core/trsvd.hpp"
#include "core/ttmc_plan.hpp"
#include "core/tucker.hpp"
#include "tensor/coo_tensor.hpp"

namespace ht::core {

enum class HooiInit { kRandom, kRandomizedRange };

struct HooiOptions {
  /// Decomposition ranks, one per mode (required).
  std::vector<index_t> ranks;
  int max_iterations = 5;  // the paper's benchmark setting
  /// Stop when the fit improves by less than this between sweeps.
  double fit_tolerance = 1e-6;
  HooiInit init = HooiInit::kRandom;
  /// TRSVD solver; kAuto warm-starts large modes from the third sweep on
  /// (trsvd.hpp), and kLanczos runs Lanczos on every solve. The randomized
  /// solver's oversample/power knobs live in `trsvd` below.
  TrsvdMethod trsvd_method = TrsvdMethod::kAuto;
  /// TTMc kernel family and schedule (TtmcOptions documents each;
  /// docs/TUNING.md the kAuto rule).
  TtmcOptions ttmc;
  /// OpenMP threads (0 = runtime default). Paper Table V sweeps this.
  int num_threads = 0;
  std::uint64_t seed = 42;
  /// Inner-solver controls; ALS does not need tight residuals here (the
  /// factors move every sweep anyway).
  la::TrsvdOptions trsvd = {.tol = 1e-7};
};

struct HooiTimers {
  double symbolic = 0;
  double ttmc = 0;
  double trsvd = 0;
  double core = 0;

  [[nodiscard]] double iteration_total() const { return ttmc + trsvd + core; }
};

struct HooiResult {
  TuckerDecomposition decomposition;
  /// Fit after each completed sweep.
  std::vector<double> fits;
  int iterations = 0;
  bool converged = false;
  HooiTimers timers;
  /// Per mode, how many TRSVD solves kept kAuto's warm power steps (a warm
  /// solve that reran Lanczos is not counted).
  std::vector<int> warm_solves;

  [[nodiscard]] double final_fit() const {
    return fits.empty() ? 0.0 : fits.back();
  }
};

/// Run HOOI; builds the TTMc plan for options.ttmc internally (its build
/// time lands in timers.symbolic).
HooiResult hooi(const CooTensor& x, const HooiOptions& options);

/// Run HOOI over a prebuilt plan (the paper reuses the symbolic structure
/// across runs with different ranks; rank_sweep shares one plan across its
/// grid). `plan` must be built from `x` with options.ttmc; a plan for other
/// TTMc options, or one whose lists or structures do not fit `x`'s order,
/// nonzero count or mode sizes, throws ht::InvalidArgument.
/// timers.symbolic stays 0: the caller paid the build.
HooiResult hooi(const CooTensor& x, const HooiOptions& options,
                const TtmcPlan& plan);

/// Validate options against the tensor; throws ht::InvalidArgument.
void validate_hooi_options(const CooTensor& x, const HooiOptions& options);

}  // namespace ht::core
