#include "core/hooi.hpp"

#include <cmath>
#include <variant>

#include "core/hosvd.hpp"
#include "la/blas.hpp"
#include "la/linear_operator.hpp"
#include "parallel/thread_info.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace ht::core {

namespace {

// Nonzeros one mode's index covers.
std::size_t index_entries(const ModeSymbolic& sym) {
  return sym.nnz_order.size();
}
std::size_t index_entries(const tensor::CsfTree& tree) {
  return tree.num_leaves();
}

}  // namespace

void validate_hooi_options(const CooTensor& x, const HooiOptions& options) {
  if (x.nnz() == 0) throw InvalidArgument("HOOI needs a nonempty tensor");
  if (options.ranks.size() != x.order()) {
    throw InvalidArgument("need one rank per tensor mode");
  }
  for (std::size_t n = 0; n < x.order(); ++n) {
    if (options.ranks[n] < 1 || options.ranks[n] > x.dim(n)) {
      throw InvalidArgument("rank out of range for mode " + std::to_string(n));
    }
  }
  if (options.max_iterations < 1) {
    throw InvalidArgument("max_iterations must be >= 1");
  }
}

HooiResult hooi(const CooTensor& x, const HooiOptions& options) {
  validate_hooi_options(x, options);
  parallel::ThreadScope threads(options.num_threads);
  const TtmcPlan plan = TtmcPlan::build(x, options.ttmc);
  HooiResult result = hooi(x, options, plan);
  result.timers.symbolic = plan.build_seconds;
  return result;
}

HooiResult hooi(const CooTensor& x, const HooiOptions& options,
                const TtmcPlan& plan) {
  validate_hooi_options(x, options);
  if (plan.options != options.ttmc) {
    throw InvalidArgument("TTMc plan was built for other TTMc options");
  }
  // Whichever index the plan holds covers x's nonzeros (the lists index
  // them, the trees copy their values) and its compact rows index x's
  // factor rows: a plan built from another tensor would read and write out
  // of bounds or fit other data. Rows are sorted, so the last one bounds
  // them all.
  const std::size_t order = x.order();
  const bool same_tensor = std::visit(
      [&](const auto& idx) {
        if (idx.modes.size() != order) return false;
        for (std::size_t n = 0; n < order; ++n) {
          const auto& rows = plan.rows(n);
          if (index_entries(idx.modes[n]) != x.nnz() ||
              (!rows.empty() && rows.back() >= x.dim(n))) {
            return false;
          }
        }
        return true;
      },
      plan.index);
  if (!same_tensor) {
    throw InvalidArgument("TTMc plan was built for another tensor");
  }
  parallel::ThreadScope threads(options.num_threads);

  HooiResult result;

  std::vector<la::Matrix> factors =
      options.init == HooiInit::kRandom
          ? random_orthonormal_factors(x.shape(), options.ranks, options.seed)
          : randomized_range_factors(x, options.ranks, options.seed);

  const double x_norm2 = x.norm2_squared();

  la::Matrix y;  // compact Y(n), reused across modes/iterations
  la::Matrix last_compact_u;
  WarmStart warm;  // power-step buffers, reused across modes/iterations
  result.warm_solves.assign(order, 0);
  double previous_fit = -1.0;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    for (std::size_t n = 0; n < order; ++n) {
      WallTimer t_ttmc;
      plan.ttmc(x, factors, n, y);
      result.timers.ttmc += t_ttmc.seconds();

      WallTimer t_trsvd;
      const auto& rows = plan.rows(n);
      const std::size_t rank = options.ranks[n];
      FactorTrsvd svd;
      if (iter >= kWarmFirstSweep &&
          warm_trsvd_applies(options.trsvd_method, y.rows(), y.cols(), rank)) {
        warm.load(factors[n], rows);
        la::DenseOperator op(y);
        result.warm_solves[n] += warm_trsvd(op, warm, options.trsvd);
        svd = scatter_trsvd_solution(warm.basis, rank, rows, x.dim(n), rank);
      } else {
        svd = trsvd_factor(y, rows, x.dim(n), rank, options.trsvd_method,
                           options.trsvd);
      }
      result.timers.trsvd += t_trsvd.seconds();

      factors[n] = std::move(svd.factor);
      if (n + 1 == order) last_compact_u = std::move(svd.compact_u);
    }

    // Core tensor: G(N) = U_N^T Y(N); Y still holds the mode-(N-1) TTMc.
    WallTimer t_core;
    const la::Matrix g_mat = la::gemm_tn(last_compact_u, y);
    tensor::Shape core_shape(options.ranks.begin(), options.ranks.end());
    result.decomposition.core =
        tensor::DenseTensor::dematricize(g_mat, core_shape, order - 1);
    result.timers.core += t_core.seconds();

    const double core_norm = result.decomposition.core.frobenius_norm();
    const double fit = fit_from_core_norm(x_norm2, core_norm * core_norm);
    result.fits.push_back(fit);
    result.iterations = iter + 1;

    if (previous_fit >= 0.0 &&
        std::abs(fit - previous_fit) < options.fit_tolerance) {
      result.converged = true;
      break;
    }
    previous_fit = fit;
  }

  result.decomposition.factors = std::move(factors);
  return result;
}

}  // namespace ht::core
