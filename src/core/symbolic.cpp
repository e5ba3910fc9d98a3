#include "core/symbolic.hpp"

#include "util/error.hpp"

namespace ht::core {

ModeSymbolic build_mode_symbolic(const CooTensor& x, std::size_t mode) {
  HT_CHECK(mode < x.order());
  ModeSymbolic sym;
  const auto idx = x.indices(mode);

  // Histogram of row populations (counting sort).
  std::vector<nnz_t> count(x.dim(mode), 0);
  for (index_t i : idx) ++count[i];

  // Compact non-empty rows, in increasing row order.
  std::vector<nnz_t> compact_of(x.dim(mode), 0);
  sym.row_ptr.push_back(0);
  for (index_t i = 0; i < x.dim(mode); ++i) {
    if (count[i] == 0) continue;
    compact_of[i] = sym.rows.size();
    sym.rows.push_back(i);
    sym.row_ptr.push_back(sym.row_ptr.back() + count[i]);
  }

  // Scatter nonzero ordinals into their row buckets.
  sym.nnz_order.resize(x.nnz());
  std::vector<nnz_t> cursor(sym.row_ptr.begin(), sym.row_ptr.end() - 1);
  for (nnz_t t = 0; t < x.nnz(); ++t) {
    sym.nnz_order[cursor[compact_of[idx[t]]]++] = t;
  }
  return sym;
}

SymbolicTtmc SymbolicTtmc::build(const CooTensor& x) {
  SymbolicTtmc sym;
  const auto order = static_cast<int>(x.order());
  sym.modes.resize(order);
  // Modes in parallel: a handful of independent passes.
#pragma omp parallel for schedule(dynamic, 1)
  for (int n = 0; n < order; ++n) {
    sym.modes[n] = build_mode_symbolic(x, static_cast<std::size_t>(n));
  }
  return sym;
}

}  // namespace ht::core
