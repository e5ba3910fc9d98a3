#include "la/lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/eig.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace ht::la {

namespace {

// Steps between convergence tests. The test costs an SVD of the projected
// (steps x steps) matrix: running it every step would dominate the solve
// for small operators (and is replicated on every rank in the distributed
// setting).
constexpr std::size_t kCheckInterval = 4;

// Orthogonalize `x` against the first `count` columns of basis (c x cap),
// two passes of classical Gram-Schmidt (enough at these sizes).
void reorthogonalize(std::span<double> x, const Matrix& basis,
                     std::size_t count) {
  const std::size_t c = x.size();
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t k = 0; k < count; ++k) {
      double s = 0.0;
      for (std::size_t i = 0; i < c; ++i) s += basis(i, k) * x[i];
      for (std::size_t i = 0; i < c; ++i) x[i] -= s * basis(i, k);
    }
  }
}

// Deterministic unit-norm starting vector; identical on every rank.
std::vector<double> starting_vector(std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(c);
  for (auto& x : v) x = rng.normal();
  const double n = nrm2(v);
  HT_CHECK(n > 0);
  for (auto& x : v) x /= n;
  return v;
}

}  // namespace

TrsvdResult lanczos_trsvd(TrsvdOperator& op, std::size_t rank,
                          const TrsvdOptions& options) {
  const std::size_t m_local = op.row_local_size();
  const std::size_t m_global = op.row_global_size();
  const std::size_t c = op.col_size();
  HT_CHECK_MSG(rank >= 1, "rank must be positive");
  HT_CHECK_MSG(rank <= std::min(m_global, c),
               "rank " << rank << " exceeds min(" << m_global << ", " << c
                       << ")");

  const std::size_t max_steps =
      options.max_steps > 0
          ? std::min(options.max_steps, c)
          : std::min(c, std::max<std::size_t>(2 * rank + 20, 30));

  TrsvdResult result;

  // Column-space basis V: c x max_steps, filled column by column.
  Matrix v_basis(c, max_steps);
  std::vector<double> alphas, betas;  // B diag / superdiag entries
  alphas.reserve(max_steps);
  betas.reserve(max_steps);

  std::vector<double> v = starting_vector(c, options.seed);
  std::vector<double> u_prev(m_local, 0.0), u(m_local, 0.0);
  std::vector<double> vhat(c, 0.0);

  double beta_prev = 0.0;
  std::size_t steps = 0;
  SvdResult bsvd;  // SVD of the projected bidiagonal matrix
  std::uint64_t restart_seed = options.seed;

  while (steps < max_steps) {
    const std::size_t j = steps;
    for (std::size_t i = 0; i < c; ++i) v_basis(i, j) = v[i];

    // u_j = A v_j - beta_{j-1} u_{j-1}
    op.apply(v, u);
    ++result.operator_applies;
    if (beta_prev != 0.0) {
      for (std::size_t i = 0; i < m_local; ++i) u[i] -= beta_prev * u_prev[i];
    }
    double alpha = std::sqrt(std::max(0.0, op.row_dot(u, u)));

    if (alpha <= 1e-13) {
      // Row-space breakdown: the image of the Krylov space lies inside the
      // captured left subspace, i.e. we hold an exact invariant pair. If we
      // already have `rank` directions the Ritz triplets are exact; otherwise
      // record a zero step and restart with a fresh direction if any remain.
      alphas.push_back(0.0);
      betas.push_back(0.0);
      ++steps;
      if (steps >= rank) {
        result.converged = true;
        break;
      }
      if (steps >= max_steps) break;
      std::vector<double> fresh = starting_vector(c, ++restart_seed);
      reorthogonalize(fresh, v_basis, steps);
      const double n = nrm2(fresh);
      if (n <= 1e-12) break;  // column space exhausted
      for (std::size_t i = 0; i < c; ++i) v[i] = fresh[i] / n;
      beta_prev = 0.0;
      continue;
    }
    for (std::size_t i = 0; i < m_local; ++i) u[i] /= alpha;
    alphas.push_back(alpha);

    // vhat = A^T u_j - alpha_j v_j, reorthogonalized against all of V.
    op.apply_transpose(u, vhat);
    ++result.operator_applies;
    for (std::size_t i = 0; i < c; ++i) vhat[i] -= alpha * v[i];
    reorthogonalize(vhat, v_basis, j + 1);
    double beta = nrm2(vhat);

    ++steps;

    // Convergence test on the projected bidiagonal matrix B (steps x steps):
    // residual of triplet i is beta * |last entry of left vector of B|.
    // Tested periodically (and whenever beta collapses or steps run out).
    const bool do_check =
        steps >= rank && ((steps - rank) % kCheckInterval == 0 ||
                          steps == max_steps || beta <= 1e-13);
    if (do_check) {
      Matrix b(steps, steps);
      for (std::size_t t = 0; t < steps; ++t) {
        b(t, t) = alphas[t];
        if (t + 1 < steps) b(t, t + 1) = betas.size() > t ? betas[t] : 0.0;
      }
      // betas currently holds beta_1..beta_{steps-1}; entry for this step is
      // appended below.
      bsvd = svd_jacobi(b);
      const double sigma_max = bsvd.s.empty() ? 0.0 : bsvd.s[0];
      bool all_converged = true;
      for (std::size_t i = 0; i < rank; ++i) {
        const double resid = beta * std::abs(bsvd.u(steps - 1, i));
        if (resid > options.tol * std::max(sigma_max, 1e-300)) {
          all_converged = false;
          break;
        }
      }
      if (all_converged) {
        result.converged = true;
        betas.push_back(beta);
        break;
      }
    }

    if (beta <= 1e-13) {
      // Invariant subspace. If we still need more directions, restart with a
      // fresh random vector orthogonal to V; otherwise the factorization is
      // exact and the convergence test above will pass next round.
      if (steps >= std::min(c, m_global)) {
        betas.push_back(0.0);
        break;
      }
      std::vector<double> fresh = starting_vector(c, ++restart_seed);
      reorthogonalize(fresh, v_basis, steps);
      const double n = nrm2(fresh);
      if (n <= 1e-12) {  // column space exhausted
        betas.push_back(0.0);
        break;
      }
      for (std::size_t i = 0; i < c; ++i) v[i] = fresh[i] / n;
      betas.push_back(0.0);
      beta_prev = 0.0;
      std::swap(u_prev, u);
      continue;
    }

    betas.push_back(beta);
    for (std::size_t i = 0; i < c; ++i) v[i] = vhat[i] / beta;
    beta_prev = beta;
    std::swap(u_prev, u);
  }

  result.steps = steps;
  HT_CHECK_MSG(steps >= rank, "Lanczos terminated with " << steps
                                << " steps < rank " << rank);

  // Final projected SVD (if the loop exited without a fresh factorization).
  if (bsvd.s.size() != steps) {
    Matrix b(steps, steps);
    for (std::size_t t = 0; t < steps; ++t) {
      b(t, t) = alphas[t];
      if (t + 1 < steps && t < betas.size()) b(t, t + 1) = betas[t];
    }
    bsvd = svd_jacobi(b);
  }

  // Recover left singular vectors: u_i = A (V q_i) / sigma_i.
  result.sigma.assign(bsvd.s.begin(), bsvd.s.begin() + static_cast<long>(rank));
  result.u.resize_zero(m_local, rank);
  std::vector<double> w(c), au(m_local);
  for (std::size_t i = 0; i < rank; ++i) {
    std::fill(w.begin(), w.end(), 0.0);
    for (std::size_t t = 0; t < steps; ++t) {
      const double q = bsvd.v(t, i);
      for (std::size_t r = 0; r < c; ++r) w[r] += v_basis(r, t) * q;
    }
    op.apply(w, au);
    ++result.operator_applies;
    const double s = result.sigma[i];
    if (s > 1e-300) {
      for (std::size_t r = 0; r < m_local; ++r) result.u(r, i) = au[r] / s;
    }
  }

  return result;
}

TrsvdResult gram_trsvd(const Matrix& a, std::size_t rank) {
  HT_CHECK_MSG(rank >= 1 && rank <= std::min(a.rows(), a.cols()),
               "invalid rank " << rank);
  const Matrix gram = gemm_tn(a, a);  // c x c
  const EigResult eig = eig_sym_jacobi(gram);

  TrsvdResult result;
  result.converged = true;
  result.steps = a.cols();
  result.sigma.resize(rank);
  Matrix w(a.cols(), rank);
  for (std::size_t j = 0; j < rank; ++j) {
    result.sigma[j] = std::sqrt(std::max(0.0, eig.w[j]));
    for (std::size_t i = 0; i < a.cols(); ++i) w(i, j) = eig.v(i, j);
  }
  result.u = gemm(a, w);
  for (std::size_t j = 0; j < rank; ++j) {
    const double s = result.sigma[j];
    if (s > 1e-300) {
      for (std::size_t i = 0; i < result.u.rows(); ++i) result.u(i, j) /= s;
    }
  }
  return result;
}

}  // namespace ht::la
