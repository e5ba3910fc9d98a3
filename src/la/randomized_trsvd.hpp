// Randomized subspace-iteration TRSVD (Halko–Martinsson–Tropp range finder
// with Rayleigh–Ritz extraction).
//
// Designed for the HOOI regime where the scalar Lanczos solver is memory
// bound: A is m x c with m huge (tensor mode size) and c small (prod of
// Tucker ranks), and every Lanczos step streams all of A through a gemv.
// The randomized solver instead makes 2q+2 *block* passes of width
// l = rank + oversample:
//   U = orth(A Omega)                      (seeded Gaussian sketch Omega)
//   repeat q times:  U = orth(A orth(A^T U))   (power iteration)
//   B = A^T U;  SVD(B^T) = W S V^T;  left vectors = U W, sigma = S.
// Every pass is a gemm (or one batched fold/expand round in the
// distributed operator), so the flops-per-byte ratio rises by ~l and the
// total memory traffic falls by steps/(2q+2) versus scalar Lanczos.
//
// Accuracy comes from the budget, not from an iteration-to-tolerance loop:
// the captured subspace error decays as (sigma_{l+1}/sigma_rank)^(2q+1).
// With l >= numerical rank the result is exact; the defaults are q = 1,
// p = 8 (TrsvdOptions::power_iterations / oversample). Deterministic for a
// fixed seed, and identical on every rank of a distributed operator (the
// sketch is column-space data, which is replicated).
#pragma once

#include <cstddef>

#include "la/linear_operator.hpp"
#include "la/trsvd_types.hpp"

namespace ht::la {

/// Leading `rank` singular triplets of `op` by randomized subspace
/// iteration. rank must satisfy 1 <= rank <= min(row_global_size, col_size).
/// Uses options.seed / options.oversample / options.power_iterations;
/// tol and the step caps are not consulted (fixed budget).
TrsvdResult randomized_trsvd(TrsvdOperator& op, std::size_t rank,
                             const TrsvdOptions& options = {});

}  // namespace ht::la
