#include "core/hosvd.hpp"

#include <algorithm>

#include "la/qr.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace ht::core {

namespace {

// Rows `keep` (all rows when empty) of the m x r column-major matrix
// `cols`, as a row-major matrix.
la::Matrix cut_rows(std::span<const double> cols, std::size_t m,
                    std::size_t r, std::span<const index_t> keep) {
  la::Matrix f(keep.empty() ? m : keep.size(), r);
  for (std::size_t k = 0; k < f.rows(); ++k) {
    const std::size_t i = keep.empty() ? k : keep[k];
    HT_CHECK_MSG(i < m, "kept row " << i << " past the mode size " << m);
    for (std::size_t j = 0; j < r; ++j) f(k, j) = cols[j * m + i];
  }
  return f;
}

// Deterministic Rademacher sketch entry for (column key, sketch column j).
inline double sketch_entry(std::uint64_t key, std::size_t j) {
  SplitMix64 sm(key ^ (0x517cc1b727220a95ULL * (j + 1)));
  return (sm.next() & 1) ? 1.0 : -1.0;
}

}  // namespace

std::vector<la::Matrix> random_orthonormal_factors(
    const tensor::Shape& shape, std::span<const index_t> ranks,
    std::uint64_t seed, std::span<const std::span<const index_t>> keep) {
  HT_CHECK_MSG(ranks.size() == shape.size(), "rank arity mismatch");
  HT_CHECK_MSG(keep.empty() || keep.size() == shape.size(),
               "need one kept-row list per mode");
  std::vector<la::Matrix> factors;
  factors.reserve(shape.size());
  for (std::size_t n = 0; n < shape.size(); ++n) {
    HT_CHECK_MSG(ranks[n] >= 1 && ranks[n] <= shape[n],
                 "rank " << ranks[n] << " invalid for mode size " << shape[n]);
    Rng rng(seed + 0x9e37 * (n + 1));
    const std::size_t m = shape[n], r = ranks[n];
    // Column-major, so the Gram-Schmidt runs down contiguous columns.
    std::vector<double> cols(m * r);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < r; ++j) cols[j * m + i] = rng.normal();
    }
    la::orthonormalize_columns(cols, m, r);
    factors.push_back(
        cut_rows(cols, m, r, keep.empty() ? std::span<const index_t>{} : keep[n]));
  }
  return factors;
}

std::vector<la::Matrix> randomized_range_factors(
    const CooTensor& x, std::span<const index_t> ranks, std::uint64_t seed,
    std::size_t oversample, std::span<const std::span<const index_t>> keep) {
  HT_CHECK_MSG(ranks.size() == x.order(), "rank arity mismatch");
  HT_CHECK_MSG(keep.empty() || keep.size() == x.order(),
               "need one kept-row list per mode");
  std::vector<la::Matrix> factors(x.order());

  for (std::size_t n = 0; n < x.order(); ++n) {
    const index_t dim = x.dim(n);
    HT_CHECK_MSG(ranks[n] >= 1 && ranks[n] <= dim,
                 "rank " << ranks[n] << " invalid for mode size " << dim);
    const std::size_t sketch =
        std::min<std::size_t>(ranks[n] + oversample, dim);

    // B = X(n) * Omega accumulated nonzero by nonzero; the column key packs
    // the other-mode indices (the actual linearized value does not matter,
    // only that equal columns hash equally).
    la::Matrix b(dim, sketch);
    for (tensor::nnz_t e = 0; e < x.nnz(); ++e) {
      std::uint64_t key = seed ^ (0xabcdef12345ULL + n);
      for (std::size_t t = 0; t < x.order(); ++t) {
        if (t == n) continue;
        key = key * 0x100000001b3ULL + x.index(t, e) + 1;
      }
      const double v = x.value(e);
      auto row = b.row(x.index(n, e));
      for (std::size_t j = 0; j < sketch; ++j) {
        row[j] += v * sketch_entry(key, j);
      }
    }

    la::orthonormalize_columns(b);
    const std::span<const index_t> rows =
        keep.empty() ? std::span<const index_t>{} : keep[n];
    la::Matrix f(rows.empty() ? dim : rows.size(), ranks[n]);
    for (std::size_t k = 0; k < f.rows(); ++k) {
      const auto src = b.row(rows.empty() ? k : rows[k]);
      std::copy_n(src.begin(), ranks[n], f.row(k).begin());
    }
    factors[n] = std::move(f);
  }
  return factors;
}

}  // namespace ht::core
