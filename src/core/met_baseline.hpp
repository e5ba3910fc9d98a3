// MET-style baseline: HOOI whose TTMc materializes intermediate semi-sparse
// tensors mode by mode (the evaluation order of the MATLAB Tensor Toolbox's
// Memory-Efficient Tucker), instead of the paper's fused nonzero-based
// formulation. Reproduces the sequential comparison in Section V
// ("87.2 s MET vs 11.3 s ours" on a random 10K^3 / 1M-nnz tensor).
//
// The semi-sparse representation and TTM contraction themselves are the
// shared ones in tensor/semi_sparse.* (also the substrate of the
// dimension-tree TTMc scheduler); what makes this the *baseline* is the
// evaluation order — a fresh full-length TTM chain per mode per iteration,
// merge plans rebuilt every contraction, no cross-mode reuse.
#pragma once

#include "core/hooi.hpp"

namespace ht::core {

/// HOOI with TTM-chain (materialized) TTMc. Same options/result contract as
/// hooi(); options.ttmc is ignored (the chain parallelizes per merge
/// group).
HooiResult hooi_met_baseline(const CooTensor& x, const HooiOptions& options);

}  // namespace ht::core
