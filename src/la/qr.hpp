// Column orthonormalization of a tall matrix: one modified Gram–Schmidt,
// run down contiguous columns. HOOI's starting factors (core/hosvd.*) draw
// straight into the column-major form; the completion of a rank-deficient
// or unconverged TRSVD solve (core/sweep.*) and the range finder call the
// row-major form, which runs the same loops over a column-major copy, so
// both forms give the same bits. Lanczos reorthogonalizes its bases with
// its own Gram–Schmidt loop.
#pragma once

#include <cstddef>
#include <span>

#include "la/matrix.hpp"

namespace ht::la {

/// Replace the columns of the m x n column-major matrix `a` (column j at
/// a[j*m, (j+1)*m), m >= n) with an orthonormal basis of their span (thin Q
/// of the QR factorization). Columns that are numerically dependent are
/// completed with canonical directions so the result always has full
/// column rank.
void orthonormalize_columns(std::span<double> a, std::size_t m,
                            std::size_t n);

/// The same for a row-major matrix.
void orthonormalize_columns(Matrix& a);

}  // namespace ht::la
