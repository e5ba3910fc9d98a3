// Block-vector orthonormalizers shared by the blocked TRSVD solvers
// (randomized subspace iteration and HOOI's warm power steps).
//
// Row-space blocks (row_local x b, one column per vector) live distributed
// across ranks: their Gram matrices must come from TrsvdOperator::row_gram,
// which counts every global row once and allreduces, so orthonormalization
// is globally consistent and deterministic. Column-space blocks (c x b) are
// replicated and use a local Gram.
//
// Orthonormalization is "eig-QR": G = U^T U is eigendecomposed and U is
// multiplied by V diag(lambda^{-1/2}) with eigenvalues descending, so the
// leading `kept` columns form an orthonormal basis of span(U) and
// numerically dependent directions become trailing zero columns instead of
// amplified noise. Two passes give CholQR2-grade orthonormality; the
// solvers only need the basis, never a triangular R.
#pragma once

#include <cstddef>

#include "la/linear_operator.hpp"
#include "la/matrix.hpp"

namespace ht::la {

/// Orthonormalize the columns of the row-space block `u` in place using the
/// operator's global Gram. Returns the number of kept (nonzero) columns;
/// dropped directions are trailing zero columns. `scratch` is a reusable
/// buffer (swapped with u internally).
std::size_t orthonormalize_rowspace_block(TrsvdOperator& op, Matrix& u,
                                          Matrix& scratch, int passes = 2);

/// Same for a replicated column-space block (local Gram via gemm_tn).
std::size_t orthonormalize_colspace_block(Matrix& v, Matrix& scratch,
                                          int passes = 2);

}  // namespace ht::la
