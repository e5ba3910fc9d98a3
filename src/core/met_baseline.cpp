#include "core/met_baseline.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "core/sweep.hpp"
#include "tensor/radix_sort.hpp"
#include "util/error.hpp"

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

// The chain's first tensor: x with each coordinate replaced by its compact
// id, its position among the mode's non-empty rows `rows[n]` (the rows of
// the compact factors the chain multiplies with). The map is monotone, so
// every sort below orders entries as global ids would.
ChainTensor lift(const CooTensor& x,
                 const std::vector<std::vector<index_t>>& rows) {
  ChainTensor s;
  std::vector<index_t> compact;
  for (std::size_t n = 0; n < x.order(); ++n) {
    s.modes.push_back(n);
    compact.assign(x.dim(n), 0);
    for (std::size_t k = 0; k < rows[n].size(); ++k) {
      compact[rows[n][k]] = static_cast<index_t>(k);
    }
    std::vector<index_t>& ids = s.idx.emplace_back();
    ids.reserve(x.nnz());
    for (const index_t g : x.indices(n)) ids.push_back(compact[g]);
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
  const std::size_t order = x.order();
  // The chain's last contraction leaves one entry per non-empty row, in
  // increasing order: Y(n)'s compact rows, and the compact factors' rows.
  std::vector<std::vector<index_t>> nonempty(order);
  std::vector<std::span<const index_t>> rows;
  for (std::size_t n = 0; n < order; ++n) {
    nonempty[n] = x.nonempty_rows(n);
    rows.emplace_back(nonempty[n]);
  }
  const ChainTensor lifted = lift(x, nonempty);
  return hooi_one_rank(
      x, options, rows,
      [&](const std::vector<la::Matrix>& factors, std::size_t n,
          la::Matrix& y) {
        // TTM chain over all modes but n in increasing order (the block
        // layout of ttmc_mode's Y), each contraction sorting and merging
        // its input anew: MET's cost model.
        const ChainTensor* chain = &lifted;
        ChainTensor z;
        for (std::size_t t = 0; t < order; ++t) {
          if (t == n) continue;
          z = ttm(*chain, t, factors[t]);
          chain = &z;
        }
        HT_CHECK(z.modes.size() == 1 && z.modes[0] == n &&
                 z.idx[0].size() == nonempty[n].size());
        y.resize(nonempty[n].size(), z.block);
        std::copy(z.values.begin(), z.values.end(), y.data());
      });
}

}  // namespace ht::core
