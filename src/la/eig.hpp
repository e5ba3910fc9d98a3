// Symmetric eigensolver (cyclic Jacobi) for small dense matrices.
//
// Used by the blocked TRSVD solvers' orthonormalization (la/block_ops.*,
// a block-width Gram matrix) and by la::gram_trsvd, the tests' oracle
// (eigenpairs of Y^T Y, which is only prod-of-ranks sized).
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace ht::la {

/// Eigendecomposition A = V diag(w) V^T of a symmetric matrix, eigenvalues
/// sorted descending.
struct EigResult {
  std::vector<double> w;
  Matrix v;  // columns are eigenvectors
};

/// Cyclic Jacobi eigensolver; `a` must be symmetric. Intended for order up
/// to a few hundred.
EigResult eig_sym_jacobi(const Matrix& a);

}  // namespace ht::la
