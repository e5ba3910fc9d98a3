#include "core/met_baseline.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/hosvd.hpp"
#include "la/blas.hpp"
#include "parallel/thread_info.hpp"
#include "tensor/radix_sort.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace ht::core {

namespace {

// Sparse in `modes` (increasing mode ids), with a dense block of `block`
// already-contracted ranks attached to every entry.
struct ChainTensor {
  std::vector<std::size_t> modes;
  std::vector<std::vector<index_t>> idx;  // [position in modes][entry]
  std::size_t block = 1;
  std::vector<double> values;             // entries * block
};

ChainTensor lift(const CooTensor& x) {
  ChainTensor s;
  for (std::size_t n = 0; n < x.order(); ++n) {
    s.modes.push_back(n);
    const auto src = x.indices(n);
    s.idx.emplace_back(src.begin(), src.end());
  }
  s.values.assign(x.values().begin(), x.values().end());
  return s;
}

// Multiply along `mode` with U (I_mode x R), contracting the mode away and
// appending R as the fastest dense dimension. Entries are sorted by their
// surviving coordinates (ties by ordinal); each run that shares all of them
// is one fiber of `mode` and merges into one output entry, so the output
// is sorted by the surviving coordinates. Groups write disjoint blocks,
// each summing its slots in sorted order: the result does not depend on
// the thread count.
ChainTensor ttm(const ChainTensor& in, std::size_t mode, const la::Matrix& u) {
  const auto it = std::find(in.modes.begin(), in.modes.end(), mode);
  HT_CHECK_MSG(it != in.modes.end(), "mode already contracted");
  const auto pos = static_cast<std::size_t>(it - in.modes.begin());
  const std::size_t entries = in.idx[pos].size();

  ChainTensor out;
  std::vector<std::span<const index_t>> keys;
  for (std::size_t k = 0; k < in.modes.size(); ++k) {
    if (k == pos) continue;
    out.modes.push_back(in.modes[k]);
    keys.emplace_back(in.idx[k]);
  }
  const std::vector<nnz_t> order = tensor::lexicographic_order(entries, keys);

  std::vector<nnz_t> group_ptr;
  out.idx.resize(keys.size());
  for (std::size_t s = 0; s < entries; ++s) {
    const nnz_t e = order[s];
    if (s > 0 && std::all_of(keys.begin(), keys.end(), [&](const auto& key) {
          return key[e] == key[order[s - 1]];
        })) {
      continue;
    }
    group_ptr.push_back(s);
    for (std::size_t k = 0; k < keys.size(); ++k) {
      out.idx[k].push_back(keys[k][e]);
    }
  }
  group_ptr.push_back(entries);

  const std::size_t rank = u.cols();
  out.block = in.block * rank;
  const auto groups = static_cast<std::ptrdiff_t>(group_ptr.size() - 1);
  out.values.resize(static_cast<std::size_t>(groups) * out.block);
#pragma omp parallel for schedule(dynamic, 16)
  for (std::ptrdiff_t g = 0; g < groups; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    double* dst = out.values.data() + gi * out.block;
    for (nnz_t s = group_ptr[gi]; s < group_ptr[gi + 1]; ++s) {
      const double* blk = in.values.data() + order[s] * in.block;
      const auto urow = u.row(in.idx[pos][order[s]]);
      for (std::size_t b = 0; b < in.block; ++b) {
        const double vb = blk[b];
        double* d = dst + b * rank;
        for (std::size_t r = 0; r < rank; ++r) d[r] += vb * urow[r];
      }
    }
  }
  return out;
}

}  // namespace

HooiResult hooi_met_baseline(const CooTensor& x, const HooiOptions& options) {
  validate_hooi_options(x, options);
  parallel::ThreadScope threads(options.num_threads);

  const std::size_t order = x.order();
  HooiResult result;

  std::vector<la::Matrix> factors =
      options.init == HooiInit::kRandom
          ? random_orthonormal_factors(x.shape(), options.ranks, options.seed)
          : randomized_range_factors(x, options.ranks, options.seed);

  const double x_norm2 = x.norm2_squared();
  const ChainTensor lifted = lift(x);

  la::Matrix y;
  la::Matrix last_compact_u;
  std::vector<index_t> rows;
  double previous_fit = -1.0;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    for (std::size_t n = 0; n < order; ++n) {
      WallTimer t_ttmc;
      // Materialized TTM chain over all modes but n, in increasing order —
      // the dense block dimension ordering then matches ttmc_mode's. Each
      // contraction sorts and merges its input anew: MET's cost model.
      const ChainTensor* chain = &lifted;
      ChainTensor z;
      for (std::size_t t = 0; t < order; ++t) {
        if (t == n) continue;
        z = ttm(*chain, t, factors[t]);
        chain = &z;
      }
      // z is now sparse in mode n only, merged and sorted by row index: its
      // entries are exactly the compact rows of Y(n).
      HT_CHECK(z.modes.size() == 1 && z.modes[0] == n);
      rows.assign(z.idx[0].begin(), z.idx[0].end());
      y.resize(rows.size(), z.block);
      std::copy(z.values.begin(), z.values.end(), y.data());
      result.timers.ttmc += t_ttmc.seconds();

      WallTimer t_trsvd;
      FactorTrsvd svd = trsvd_factor(y, rows, x.dim(n), options.ranks[n],
                                     options.trsvd_method, options.trsvd);
      result.timers.trsvd += t_trsvd.seconds();
      factors[n] = std::move(svd.factor);
      if (n + 1 == order) last_compact_u = std::move(svd.compact_u);
    }

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
