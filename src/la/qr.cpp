#include "la/qr.hpp"

#include <cmath>

#include "util/error.hpp"

namespace ht::la {

void orthonormalize_columns(Matrix& a) {
  const std::size_t m = a.rows(), n = a.cols();
  HT_CHECK_MSG(m >= n, "orthonormalize requires rows >= cols");

  // Modified Gram-Schmidt with re-orthogonalization pass; rank-deficient
  // columns are replaced by canonical basis vectors orthogonalized in turn.
  for (std::size_t j = 0; j < n; ++j) {
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t k = 0; k < j; ++k) {
        double s = 0.0;
        for (std::size_t i = 0; i < m; ++i) s += a(i, k) * a(i, j);
        for (std::size_t i = 0; i < m; ++i) a(i, j) -= s * a(i, k);
      }
    }
    double norm = 0.0;
    for (std::size_t i = 0; i < m; ++i) norm += a(i, j) * a(i, j);
    norm = std::sqrt(norm);
    if (norm > 1e-12) {
      for (std::size_t i = 0; i < m; ++i) a(i, j) /= norm;
      continue;
    }
    // Degenerate column: try canonical vectors until one survives.
    bool replaced = false;
    for (std::size_t e = 0; e < m && !replaced; ++e) {
      for (std::size_t i = 0; i < m; ++i) a(i, j) = (i == e) ? 1.0 : 0.0;
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t k = 0; k < j; ++k) {
          double s = 0.0;
          for (std::size_t i = 0; i < m; ++i) s += a(i, k) * a(i, j);
          for (std::size_t i = 0; i < m; ++i) a(i, j) -= s * a(i, k);
        }
      }
      double n2 = 0.0;
      for (std::size_t i = 0; i < m; ++i) n2 += a(i, j) * a(i, j);
      if (n2 > 1e-8) {
        const double inv = 1.0 / std::sqrt(n2);
        for (std::size_t i = 0; i < m; ++i) a(i, j) *= inv;
        replaced = true;
      }
    }
    HT_CHECK_MSG(replaced, "could not complete orthonormal basis");
  }
}

}  // namespace ht::la
