// Column orthonormalization of a tall matrix. HOOI's starting factors
// (core/hosvd.*) and the completion of a rank-deficient or unconverged
// TRSVD solve (core/sweep.*) use it; Lanczos reorthogonalizes its bases
// with its own Gram–Schmidt loop.
#pragma once

#include "la/matrix.hpp"

namespace ht::la {

/// Replace the columns of `a` (m x n, m >= n) with an orthonormal basis of
/// their span (thin Q of the QR factorization). Columns that are numerically
/// dependent are completed with canonical directions so the result always has
/// full column rank.
void orthonormalize_columns(Matrix& a);

}  // namespace ht::la
