// Truncated SVD by Golub–Kahan–Lanczos bidiagonalization (SLEPc substitute).
//
// Computes the leading `rank` left singular vectors/values of an operator A
// (m x c) using only A v / A^T u products. Designed for the HOOI TRSVD
// regime: c = prod of Tucker ranks (small), m = tensor mode size (huge).
//
// Memory: only the column-space basis V (c x steps) and two row-space
// vectors are kept; one-sided reorthogonalization on V (Simon & Zha) keeps
// the factorization accurate without storing the long left basis. Left
// vectors are recovered at the end as u_i = A (V q_i) / sigma_i and then
// re-orthonormalized.
#pragma once

#include <cstddef>
#include <vector>

#include "la/linear_operator.hpp"
#include "la/matrix.hpp"
#include "la/trsvd_types.hpp"

namespace ht::la {

/// Leading `rank` singular triplets of `op`. rank must satisfy
/// 1 <= rank <= min(row_global_size, col_size).
TrsvdResult lanczos_trsvd(TrsvdOperator& op, std::size_t rank,
                          const TrsvdOptions& options = {});

/// Gram-matrix TRSVD: forms A^T A (c x c), eigendecomposes it, and
/// recovers U = A V S^{-1}. The tests' oracle and bench_micro_kernels'
/// reference, not a HOOI solver: it needs the assembled matrix, which the
/// fine-grain distributed setting never forms (the paper's point).
TrsvdResult gram_trsvd(const Matrix& a, std::size_t rank);

}  // namespace ht::la
