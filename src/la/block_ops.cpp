#include "la/block_ops.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "la/blas.hpp"
#include "la/eig.hpp"

namespace ht::la {

namespace {

// Relative eigenvalue cutoff below which a Gram direction is treated as
// numerically dependent. Eigenvalues are squared column norms, so this is a
// ~1e-12 relative column-norm threshold — the same scale the scalar Lanczos
// solver uses for breakdown detection.
constexpr double kGramDropRel = 1e-24;

// u <- u * V diag(lambda^{-1/2}) for the eigenpairs of `gram` (descending),
// zeroing directions below the drop threshold. Returns kept count.
std::size_t whiten_from_gram(Matrix& u, const Matrix& gram, Matrix& scratch) {
  const EigResult eig = eig_sym_jacobi(gram);
  const std::size_t b = gram.rows();
  const double lmax = eig.w.empty() ? 0.0 : std::max(0.0, eig.w[0]);
  Matrix mix(b, b);  // zero-initialized; dropped columns stay zero
  std::size_t kept = 0;
  for (std::size_t j = 0; j < b; ++j) {
    const double lam = eig.w[j];
    if (lam <= 0.0 || lam <= kGramDropRel * lmax) continue;
    const double inv = 1.0 / std::sqrt(lam);
    for (std::size_t i = 0; i < b; ++i) mix(i, j) = eig.v(i, j) * inv;
    ++kept;
  }
  gemm_into(u, mix, scratch);
  std::swap(u, scratch);
  return kept;
}

}  // namespace

std::size_t orthonormalize_rowspace_block(TrsvdOperator& op, Matrix& u,
                                          Matrix& scratch, int passes) {
  Matrix gram;
  std::size_t kept = u.cols();
  for (int pass = 0; pass < passes; ++pass) {
    op.row_gram(u, u, gram);
    kept = whiten_from_gram(u, gram, scratch);
    if (kept == 0) break;
  }
  return kept;
}

std::size_t orthonormalize_colspace_block(Matrix& v, Matrix& scratch,
                                          int passes) {
  Matrix gram;
  std::size_t kept = v.cols();
  for (int pass = 0; pass < passes; ++pass) {
    gemm_tn_into(v, v, gram);
    kept = whiten_from_gram(v, gram, scratch);
    if (kept == 0) break;
  }
  return kept;
}

}  // namespace ht::la
