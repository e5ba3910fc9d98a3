#include "la/svd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace ht::la {

SvdResult svd_jacobi(const Matrix& a_in) {
  // One-sided Jacobi on columns: orthogonalize pairs of columns of W = A
  // (work on A^T if m < n so the rotated dimension is the long one).
  const bool transposed = a_in.rows() < a_in.cols();
  Matrix w = transposed ? a_in.transposed() : a_in;
  const std::size_t m = w.rows(), n = w.cols();

  Matrix v = Matrix::identity(n);

  const double eps = 1e-14;
  const int max_sweeps = 60;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double app = 0.0, aqq = 0.0, apq = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          app += w(i, p) * w(i, p);
          aqq += w(i, q) * w(i, q);
          apq += w(i, p) * w(i, q);
        }
        if (std::abs(apq) <= eps * std::sqrt(app * aqq)) continue;
        off = std::max(off, std::abs(apq) / std::sqrt(app * aqq + 1e-300));

        const double zeta = (aqq - app) / (2.0 * apq);
        const double t = (zeta >= 0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t i = 0; i < m; ++i) {
          const double wip = w(i, p), wiq = w(i, q);
          w(i, p) = c * wip - s * wiq;
          w(i, q) = s * wip + c * wiq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vip = v(i, p), viq = v(i, q);
          v(i, p) = c * vip - s * viq;
          v(i, q) = s * vip + c * viq;
        }
      }
    }
    if (off < 1e-13) break;
  }

  // Column norms are singular values; normalize to get U.
  std::vector<double> s(n, 0.0);
  Matrix u(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    double norm = 0.0;
    for (std::size_t i = 0; i < m; ++i) norm += w(i, j) * w(i, j);
    norm = std::sqrt(norm);
    s[j] = norm;
    if (norm > 1e-300) {
      for (std::size_t i = 0; i < m; ++i) u(i, j) = w(i, j) / norm;
    } else {
      // Zero singular value: leave U column as zero (caller may not need it).
      for (std::size_t i = 0; i < m; ++i) u(i, j) = 0.0;
    }
  }

  // Sort descending by singular value.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) { return s[x] > s[y]; });
  Matrix us(m, n), vs(n, n);
  std::vector<double> ss(n);
  for (std::size_t j = 0; j < n; ++j) {
    ss[j] = s[order[j]];
    for (std::size_t i = 0; i < m; ++i) us(i, j) = u(i, order[j]);
    for (std::size_t i = 0; i < n; ++i) vs(i, j) = v(i, order[j]);
  }

  SvdResult out;
  if (transposed) {
    // A = (W^T); W = A^T = U_w S V_w^T  =>  A = V_w S U_w^T.
    out.u = std::move(vs);
    out.v = std::move(us);
  } else {
    out.u = std::move(us);
    out.v = std::move(vs);
  }
  out.s = std::move(ss);
  return out;
}

}  // namespace ht::la
