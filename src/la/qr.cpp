#include "la/qr.hpp"

#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace ht::la {

void orthonormalize_columns(std::span<double> a, std::size_t m,
                            std::size_t n) {
  HT_CHECK_MSG(m >= n, "orthonormalize requires rows >= cols");
  HT_CHECK_MSG(a.size() == m * n, "column-major buffer is not m x n");
  const auto col = [&](std::size_t j) { return a.data() + j * m; };
  // Two passes of projecting column j off columns 0..j-1.
  const auto project_out = [&](std::size_t j) {
    double* cj = col(j);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t k = 0; k < j; ++k) {
        const double* ck = col(k);
        double s = 0.0;
        for (std::size_t i = 0; i < m; ++i) s += ck[i] * cj[i];
        for (std::size_t i = 0; i < m; ++i) cj[i] -= s * ck[i];
      }
    }
  };

  // Modified Gram-Schmidt with re-orthogonalization pass; rank-deficient
  // columns are replaced by canonical basis vectors orthogonalized in turn.
  for (std::size_t j = 0; j < n; ++j) {
    double* cj = col(j);
    project_out(j);
    double norm = 0.0;
    for (std::size_t i = 0; i < m; ++i) norm += cj[i] * cj[i];
    norm = std::sqrt(norm);
    if (norm > 1e-12) {
      for (std::size_t i = 0; i < m; ++i) cj[i] /= norm;
      continue;
    }
    // Degenerate column: try canonical vectors until one survives.
    bool replaced = false;
    for (std::size_t e = 0; e < m && !replaced; ++e) {
      for (std::size_t i = 0; i < m; ++i) cj[i] = (i == e) ? 1.0 : 0.0;
      project_out(j);
      double n2 = 0.0;
      for (std::size_t i = 0; i < m; ++i) n2 += cj[i] * cj[i];
      if (n2 > 1e-8) {
        const double inv = 1.0 / std::sqrt(n2);
        for (std::size_t i = 0; i < m; ++i) cj[i] *= inv;
        replaced = true;
      }
    }
    HT_CHECK_MSG(replaced, "could not complete orthonormal basis");
  }
}

void orthonormalize_columns(Matrix& a) {
  const std::size_t m = a.rows(), n = a.cols();
  HT_CHECK_MSG(m >= n, "orthonormalize requires rows >= cols");
  std::vector<double> cols(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) cols[j * m + i] = a(i, j);
  }
  orthonormalize_columns(cols, m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = cols[j * m + i];
  }
}

}  // namespace ht::la
