// MET-style baseline: HOOI whose TTMc materializes intermediate semi-sparse
// tensors mode by mode (the evaluation order of the MATLAB Tensor Toolbox's
// Memory-Efficient Tucker), instead of the paper's fused nonzero-based
// formulation. Reproduces the sequential comparison in Section V
// ("87.2 s MET vs 11.3 s ours" on a random 10K^3 / 1M-nnz tensor).
//
// What makes this the *baseline* is the evaluation order: a fresh
// full-length TTM chain per mode per iteration, every contraction sorting
// and merging its input anew, no reuse across contractions, modes
// or iterations. The chain (semi-sparse intermediates, append layout) is
// private to met_baseline.cpp.
#pragma once

#include "core/hooi.hpp"

namespace ht::core {

/// HOOI with TTM-chain (materialized) TTMc. Same options/result contract as
/// hooi(); options.ttmc is ignored (the chain parallelizes per merge
/// group).
HooiResult hooi_met_baseline(const CooTensor& x, const HooiOptions& options);

}  // namespace ht::core
