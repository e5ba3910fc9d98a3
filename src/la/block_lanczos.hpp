// Block Golub–Kahan–Lanczos bidiagonalization TRSVD.
//
// Same Krylov recurrence as la::lanczos_trsvd, advanced b vectors at a
// time:
//   W_j    = A V_j - U_{j-1} B_{j-1}^T        U_j = orth(W_j),  A_j = U_j^T W_j
//   What_j = A^T U_j - V_j A_j^T              (block reorthogonalized
//                                              against the whole V basis)
//   V_{j+1} = orth(What_j),                   B_j = V_{j+1}^T What_j
// Every operator touch is a block apply — gemm in shared memory, one
// batched fold/expand round in the distributed operator — so a step does b
// columns of progress per pass over A instead of one. The projected matrix
// T = U^T A V is block upper bidiagonal (diagonal blocks A_j, superdiagonal
// B_j^T); its small dense SVD supplies Ritz values, the convergence test
// (residual of triplet i is ||What_j w_i[last block]||, the block analog of
// beta * |last entry|), and the final rotation. Left vectors are recovered
// like the scalar solver: u_i = A (V q_i) / sigma_i in one block apply.
//
// One-sided reorthogonalization on the V basis (Simon & Zha) is retained:
// only the previous U block is stored, so memory stays O(c * steps + m*b).
// Projected blocks are computed as explicit cross-Grams (A_j via
// TrsvdOperator::row_gram, B_j locally), which keeps T exact under the
// eig-QR orthonormalization's rank-deficiency drops — deflated directions
// become zero rows of T, and deficient V blocks are refilled with fresh
// seeded random directions orthogonal to the basis (the block analog of the
// scalar solver's breakdown restart).
//
// Contract: `op` must implement the TrsvdOperator block interface (the
// default scalar-looping implementations suffice); the solver only touches
// it through apply/apply_transpose/row_gram, so row-distributed operators
// work unchanged and column-space quantities stay replicated. Determinism:
// the starting block and every deficiency refill derive from
// TrsvdOptions::seed, column-space reductions go through the blas layer's
// fixed-block reductions, and the iteration order is fixed — two runs with
// the same (operator, options) produce bitwise-identical results for any
// OpenMP thread count, and identical results on every rank of a
// distributed run. Thread-safety: block_lanczos_trsvd keeps all mutable
// state in locals, so concurrent solves over distinct operators are safe;
// a single operator is only shared when its own apply methods are
// const-safe (DistYOperator is — per-rank instances).
#pragma once

#include <cstddef>

#include "la/linear_operator.hpp"
#include "la/trsvd_types.hpp"

namespace ht::la {

/// Leading `rank` singular triplets of `op` by block Lanczos
/// bidiagonalization with block size options.block_size
/// (0 = clamp(rank, 4, 16)).
/// rank must satisfy 1 <= rank <= min(row_global_size, col_size).
/// options.max_steps caps total basis *columns* (0 = automatic, same budget
/// as the scalar solver); the convergence test runs once per block step.
TrsvdResult block_lanczos_trsvd(TrsvdOperator& op, std::size_t rank,
                                const TrsvdOptions& options = {});

}  // namespace ht::la
