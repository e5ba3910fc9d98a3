// Shared-memory parallel HOOI (paper Algorithm 3).
//
// TTMc preprocessing (the CSF forest, tensor::CsfTensor) runs once; each
// ALS sweep then performs, per mode,
//   (i)   numeric TTMc into the compact Y(n): the CSF walk over the mode's
//         tree                                        [lock-free parfor]
//   (ii)  TRSVD of Y(n)                               [kAuto, trsvd.hpp]
//   (iii) U_n zeroed and its compact rows written in place; a rank-deficient
//         or unconverged solve completed to orthonormal columns
// and forms the core G = Y x_N U_N^T after the last mode (one GEMM, since
// Y(N) already holds X x_{-N} U). Convergence is monitored through the fit
// 1 - ||X - Xhat||/||X||, evaluated exactly from ||G|| (paper's check).
// This is core/sweep.hpp's loop, run at one rank in the caller's thread.
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
#include "core/tucker.hpp"
#include "tensor/coo_tensor.hpp"
#include "tensor/csf.hpp"

namespace ht::core {

using tensor::CooTensor;
using tensor::index_t;
using tensor::nnz_t;

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

/// Run HOOI; builds the CSF forest of `x` internally (its build time lands
/// in timers.symbolic).
HooiResult hooi(const CooTensor& x, const HooiOptions& options);

/// Run HOOI over a prebuilt forest (the paper reuses the symbolic structure
/// across runs with different ranks; rank_sweep shares one forest across
/// its grid). `forest` must be tensor::CsfTensor::build(x): one whose order,
/// nonzeros per tree or root rows do not fit `x` throws
/// ht::InvalidArgument. timers.symbolic stays 0: the caller paid the build.
HooiResult hooi(const CooTensor& x, const HooiOptions& options,
                const tensor::CsfTensor& forest);

/// Validate options against the tensor (nonempty, order >= 2, one rank in
/// 1..I_n per mode, at least one iteration); throws ht::InvalidArgument.
void validate_hooi_options(const CooTensor& x, const HooiOptions& options);

}  // namespace ht::core
