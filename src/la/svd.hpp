// Dense SVD via one-sided Jacobi rotations.
//
// Only used on small matrices: the k x k projected bidiagonal problem inside
// the Lanczos TRSVD, the projected sketch of the randomized TRSVD, and
// reference checks in tests. Accuracy over speed.
#pragma once

#include "la/matrix.hpp"

#include <vector>

namespace ht::la {

/// Thin SVD A = U diag(s) V^T with U: m x k, V: n x k, k = min(m, n),
/// singular values sorted descending.
struct SvdResult {
  Matrix u;
  std::vector<double> s;
  Matrix v;
};

/// One-sided Jacobi SVD. Intended for min(m, n) up to a few hundred.
SvdResult svd_jacobi(const Matrix& a);

}  // namespace ht::la
