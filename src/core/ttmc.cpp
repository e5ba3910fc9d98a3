#include "core/ttmc.hpp"

#include <algorithm>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "util/error.hpp"

namespace ht::core {

namespace {

// One scratch buffer per thread, shared by every kernel in this translation
// unit. A thread_local inside each body would be duplicated per kernel (and
// per instantiation of the CSF walk); routing them all through one buffer
// means it grows once and is reused across rows, calls, kernels, and modes.
inline std::vector<double>& kernel_scratch() {
  thread_local std::vector<double> scratch;
  return scratch;
}

// The CSF walk's per-level partial pointers into kernel_scratch(), per
// thread for the same reason: a tile allocates nothing once it has grown.
inline std::vector<double*>& walk_parts() {
  thread_local std::vector<double*> parts;
  return parts;
}

// Specialized 3-mode kernel: y[ja * Rb + jb] += v * ua[ja] * ub[jb].
inline void kron2_accumulate(double v, std::span<const double> ua,
                             std::span<const double> ub, double* y) {
  const std::size_t ra = ua.size(), rb = ub.size();
  for (std::size_t ja = 0; ja < ra; ++ja) {
    const double s = v * ua[ja];
    double* yrow = y + ja * rb;
    for (std::size_t jb = 0; jb < rb; ++jb) yrow[jb] += s * ub[jb];
  }
}

// Specialized 4-mode kernel.
inline void kron3_accumulate(double v, std::span<const double> ua,
                             std::span<const double> ub,
                             std::span<const double> uc, double* y) {
  const std::size_t ra = ua.size(), rb = ub.size(), rc = uc.size();
  for (std::size_t ja = 0; ja < ra; ++ja) {
    const double sa = v * ua[ja];
    for (std::size_t jb = 0; jb < rb; ++jb) {
      const double sab = sa * ub[jb];
      double* yrow = y + (ja * rb + jb) * rc;
      for (std::size_t jc = 0; jc < rc; ++jc) yrow[jc] += sab * uc[jc];
    }
  }
}

// General-N kernel: progressive in-place expansion into a scratch buffer of
// the full row width, then accumulate into the output row.
void kron_general_accumulate(const CooTensor& x, nnz_t e,
                             const std::vector<la::Matrix>& factors,
                             std::size_t mode, std::span<double> out,
                             std::vector<double>& scratch) {
  scratch.resize(out.size());
  scratch[0] = x.value(e);
  std::size_t len = 1;
  for (std::size_t t = 0; t < x.order(); ++t) {
    if (t == mode) continue;
    const auto u = factors[t].row(x.index(t, e));
    const std::size_t r = u.size();
    for (std::size_t i = len; i-- > 0;) {
      const double s = scratch[i];
      double* dst = scratch.data() + i * r;
      for (std::size_t j = r; j-- > 0;) dst[j] = s * u[j];
    }
    len *= r;
  }
  HT_CHECK(len == out.size());
  for (std::size_t i = 0; i < len; ++i) out[i] += scratch[i];
}

// Modes other than `skip`, in increasing order (Kronecker factor order).
struct OtherModes {
  std::size_t m[3];
  std::size_t count;
};

inline OtherModes other_modes(std::size_t order, std::size_t skip) {
  OtherModes o{};
  o.count = 0;
  for (std::size_t t = 0; t < order; ++t) {
    if (t != skip) o.m[o.count++] = t;
  }
  return o;
}

// Run `body(r)` over [0, nrows), dynamically scheduled: rows differ in
// nonzero count, and dynamic chunks absorb the skew (paper Sec. III-A.1).
template <typename Body>
void parallel_rows(std::size_t nrows, Body&& body) {
  const auto n = static_cast<std::ptrdiff_t>(nrows);
#pragma omp parallel for schedule(dynamic, 16)
  for (std::ptrdiff_t r = 0; r < n; ++r) body(static_cast<std::size_t>(r));
}

// The CSF full-mode and subset entry points share the walk through a row
// map: the loop index r runs over output rows, map(r) names the compact row
// it computes.

struct IdentityRowMap {
  std::size_t operator()(std::ptrdiff_t r) const {
    return static_cast<std::size_t>(r);
  }
};

struct SubsetRowMap {
  std::span<const std::uint32_t> positions;
  std::size_t operator()(std::ptrdiff_t r) const {
    return positions[static_cast<std::size_t>(r)];
  }
};

// ---- per-nonzero kernels --------------------------------------------------

void ttmc3_per_nnz(const CooTensor& x, const std::vector<la::Matrix>& factors,
                   std::size_t mode, const ModeSymbolic& sym, la::Matrix& y) {
  const auto o = other_modes(x.order(), mode);
  const auto idx_a = x.indices(o.m[0]);
  const auto idx_b = x.indices(o.m[1]);
  const auto values = x.values();
  const la::Matrix& fa = factors[o.m[0]];
  const la::Matrix& fb = factors[o.m[1]];
  parallel_rows(sym.num_rows(), [&](std::size_t r) {
    auto row = y.row(r);
    std::fill(row.begin(), row.end(), 0.0);
    for (nnz_t e : sym.update_list(r)) {
      kron2_accumulate(values[e], fa.row(idx_a[e]), fb.row(idx_b[e]),
                       row.data());
    }
  });
}

void ttmc4_per_nnz(const CooTensor& x, const std::vector<la::Matrix>& factors,
                   std::size_t mode, const ModeSymbolic& sym, la::Matrix& y) {
  const auto o = other_modes(x.order(), mode);
  const auto idx_a = x.indices(o.m[0]);
  const auto idx_b = x.indices(o.m[1]);
  const auto idx_c = x.indices(o.m[2]);
  const auto values = x.values();
  const la::Matrix& fa = factors[o.m[0]];
  const la::Matrix& fb = factors[o.m[1]];
  const la::Matrix& fc = factors[o.m[2]];
  parallel_rows(sym.num_rows(), [&](std::size_t r) {
    auto row = y.row(r);
    std::fill(row.begin(), row.end(), 0.0);
    for (nnz_t e : sym.update_list(r)) {
      kron3_accumulate(values[e], fa.row(idx_a[e]), fb.row(idx_b[e]),
                       fc.row(idx_c[e]), row.data());
    }
  });
}

void ttmc_general_per_nnz(const CooTensor& x,
                          const std::vector<la::Matrix>& factors,
                          std::size_t mode, const ModeSymbolic& sym,
                          la::Matrix& y) {
  parallel_rows(sym.num_rows(), [&](std::size_t r) {
    auto row = y.row(r);
    std::fill(row.begin(), row.end(), 0.0);
    for (nnz_t e : sym.update_list(r)) {
      kron_general_accumulate(x, e, factors, mode, row, kernel_scratch());
    }
  });
}

// ---- CSF kernel ------------------------------------------------------------

// Read-only per-invocation context of the CSF depth-first walk, shared by
// every thread (per-thread state is only the partial buffers).
struct CsfWalkCtx {
  const tensor::CsfTree* tree = nullptr;
  std::size_t nlevels = 0;
  // Per tree level: factor of that level's mode, and the width of a node
  // partial at that level (product of the ranks of all deeper levels).
  std::vector<const la::Matrix*> u;
  std::vector<std::size_t> width;
};

// DFS over one subtree: fills part[d] (width[d] doubles) with the node's
// partial contraction in tree Kronecker order. Leaf runs stream values and
// trailing coordinates sequentially (they were gathered into tree order at
// build time); every internal node pays its factor-row expansion exactly
// once, so shared prefixes amortize across all leaves below them.
void csf_walk(const CsfWalkCtx& c, std::size_t d, nnz_t node,
              double* const* part) {
  double* acc = part[d];
  std::fill(acc, acc + c.width[d], 0.0);
  const nnz_t* cptr = c.tree->ptr[d + 1].data();
  const nnz_t begin = cptr[node], end = cptr[node + 1];
  if (d + 2 == c.nlevels) {
    // Children are leaves: acc has the trailing factor's width.
    const index_t* leaf_idx = c.tree->idx[c.nlevels - 1].data();
    const double* vals = c.tree->values.data();
    const la::Matrix& uf = *c.u[c.nlevels - 1];
    const std::size_t r = c.width[d];
    for (nnz_t s = begin; s < end; ++s) {
      const double v = vals[s];
      const double* urow = uf.data() + static_cast<std::size_t>(leaf_idx[s]) * r;
      for (std::size_t j = 0; j < r; ++j) acc[j] += v * urow[j];
    }
    return;
  }
  const index_t* child_idx = c.tree->idx[d + 1].data();
  const la::Matrix& uc = *c.u[d + 1];
  const std::size_t rc = uc.cols();
  const std::size_t wc = c.width[d + 1];
  for (nnz_t k = begin; k < end; ++k) {
    csf_walk(c, d + 1, k, part);
    const double* child = part[d + 1];
    const double* urow = uc.data() + static_cast<std::size_t>(child_idx[k]) * rc;
    for (std::size_t j = 0; j < rc; ++j) {
      const double s = urow[j];
      double* dst = acc + j * wc;
      for (std::size_t q = 0; q < wc; ++q) dst[q] += s * child[q];
    }
  }
}

// Tile target: a tile closes once it holds this many leaves, so one giant
// root row becomes its own tile while sparse rows coalesce. The constant is
// independent of the thread count — tiling only partitions work, each row
// is still accumulated sequentially by one thread, so results are bitwise
// reproducible for any OpenMP configuration.
constexpr nnz_t kCsfTileNnz = 8192;

template <typename RowMap>
void ttmc_csf_tree(const std::vector<la::Matrix>& factors,
                   const tensor::CsfTree& tree, std::size_t mode,
                   std::ptrdiff_t nrows, RowMap map, la::Matrix& y) {
  const std::size_t L = tree.levels();
  CsfWalkCtx c;
  c.tree = &tree;
  c.nlevels = L;
  c.u.resize(L);
  c.width.resize(L);
  for (std::size_t d = 0; d < L; ++d) c.u[d] = &factors[tree.level_modes[d]];
  c.width[L - 1] = 1;
  for (std::size_t d = L - 1; d-- > 0;) {
    c.width[d] = c.width[d + 1] * c.u[d + 1]->cols();
  }

  // The walk produces rows in *tree* Kronecker order (level 1 slowest, the
  // leaf level fastest). When the shortest-mode-first permutation reordered
  // the internal levels, a precomputed digit permutation scatters each
  // finished row into Y(n)'s increasing-mode layout; when the orders agree
  // the walk writes the output row in place.
  const bool identity = std::is_sorted(tree.level_modes.begin() + 1,
                                       tree.level_modes.end());
  std::vector<std::uint32_t> perm;
  if (!identity) {
    std::vector<std::size_t> stride_y(L);  // per tree level, stride in Y(n)'s layout
    for (std::size_t d = 1; d < L; ++d) {
      std::size_t stride = 1;
      for (std::size_t t = factors.size(); t-- > 0;) {
        if (t == mode) continue;
        if (t > tree.level_modes[d]) stride *= factors[t].cols();
      }
      stride_y[d] = stride;
    }
    perm.resize(c.width[0]);
    for (std::size_t p = 0; p < perm.size(); ++p) {
      std::size_t rem = p, q = 0;
      for (std::size_t d = 1; d < L; ++d) {
        q += (rem / c.width[d]) * stride_y[d];
        rem %= c.width[d];
      }
      perm[p] = static_cast<std::uint32_t>(q);
    }
  }

  // nnz-balanced tiles over the output rows.
  std::vector<std::ptrdiff_t> tile{0};
  nnz_t acc = 0;
  for (std::ptrdiff_t r = 0; r < nrows; ++r) {
    acc += tree.root_nnz(map(r));
    if (acc >= kCsfTileNnz) {
      tile.push_back(r + 1);
      acc = 0;
    }
  }
  if (tile.back() != nrows) tile.push_back(nrows);
  const auto ntiles = static_cast<std::ptrdiff_t>(tile.size() - 1);

  // Per-thread partial buffers, one per level 0..L-2, from the shared arena.
  std::vector<std::size_t> off(L);
  std::size_t total = 0;
  for (std::size_t d = 0; d + 1 < L; ++d) {
    off[d] = total;
    total += c.width[d];
  }

  const auto body = [&](std::ptrdiff_t ti) {
    std::vector<double>& buf = kernel_scratch();
    buf.resize(total);
    std::vector<double*>& part = walk_parts();
    part.resize(L);
    for (std::size_t d = 0; d + 1 < L; ++d) part[d] = buf.data() + off[d];
    for (std::ptrdiff_t r = tile[ti]; r < tile[ti + 1]; ++r) {
      auto row = y.row(static_cast<std::size_t>(r));
      if (identity) {
        part[0] = row.data();  // csf_walk zero-fills before accumulating
        csf_walk(c, 0, map(r), part.data());
      } else {
        part[0] = buf.data() + off[0];
        csf_walk(c, 0, map(r), part.data());
        const double* src = part[0];
        for (std::size_t p = 0; p < perm.size(); ++p) row[perm[p]] = src[p];
      }
    }
  };
  // Chunk size 1: tiles are already coarse, nnz-balanced units.
#pragma omp parallel for schedule(dynamic, 1)
  for (std::ptrdiff_t ti = 0; ti < ntiles; ++ti) body(ti);
}

// ---- dispatch --------------------------------------------------------------

void check_inputs(const CooTensor& x, const std::vector<la::Matrix>& factors,
                  std::size_t mode) {
  HT_CHECK_MSG(factors.size() == x.order(), "factor arity mismatch");
  HT_CHECK(mode < x.order());
  for (std::size_t t = 0; t < x.order(); ++t) {
    HT_CHECK_MSG(factors[t].rows() == x.dim(t),
                 "factor " << t << " has " << factors[t].rows()
                           << " rows, mode size is " << x.dim(t));
  }
}

// The CSF walk indexes compact factors: mode t's has |J_t| rows.
void check_inputs(const CooTensor& x, const std::vector<la::Matrix>& factors,
                  std::size_t mode, const tensor::CsfTree& tree) {
  HT_CHECK_MSG(factors.size() == x.order(), "factor arity mismatch");
  HT_CHECK_MSG(tree.levels() == x.order() && tree.root_mode() == mode &&
                   tree.num_leaves() == x.nnz(),
               "CSF tree was not built from this tensor and mode");
  for (std::size_t t = 0; t < x.order(); ++t) {
    HT_CHECK_MSG(factors[t].rows() == tree.compact_rows[t],
                 "factor " << t << " has " << factors[t].rows()
                           << " rows, mode " << t << " has "
                           << tree.compact_rows[t] << " non-empty rows");
  }
}

// Debug-only: dist_hooi calls the subset entry point once per mode per
// HOOI iteration with plan-derived positions that are fixed at plan
// construction; an O(|positions|) per-call scan would serialize the hot
// loop for nothing. In Release an out-of-range position is undefined
// behavior (the row loop reads past the index) — callers own the contract,
// and CI's Debug job keeps this check live.
void check_positions([[maybe_unused]] std::span<const std::uint32_t> positions,
                     [[maybe_unused]] std::size_t num_rows) {
#ifndef NDEBUG
  for (std::uint32_t p : positions) {
    HT_CHECK_MSG(p < num_rows, "subset position out of range");
  }
#endif
}

}  // namespace

std::size_t ttmc_row_width(const std::vector<la::Matrix>& factors,
                           std::size_t mode) {
  std::size_t width = 1;
  for (std::size_t t = 0; t < factors.size(); ++t) {
    if (t != mode) width *= factors[t].cols();
  }
  return width;
}

// Capacity-preserving resizes below: every kernel zeroes each output row
// before accumulating, so the realloc+memset of resize_zero would be pure
// waste when mode widths differ across modes/iterations.

void ttmc_mode(const CooTensor& x, const std::vector<la::Matrix>& factors,
               std::size_t mode, const ModeSymbolic& sym, la::Matrix& y) {
  check_inputs(x, factors, mode);
  y.resize(sym.num_rows(), ttmc_row_width(factors, mode));
  if (x.order() == 3) {
    ttmc3_per_nnz(x, factors, mode, sym, y);
  } else if (x.order() == 4) {
    ttmc4_per_nnz(x, factors, mode, sym, y);
  } else {
    ttmc_general_per_nnz(x, factors, mode, sym, y);
  }
}

void ttmc_mode(const CooTensor& x, const std::vector<la::Matrix>& factors,
               std::size_t mode, const tensor::CsfTree& tree, la::Matrix& y) {
  check_inputs(x, factors, mode, tree);
  y.resize(tree.num_roots(), ttmc_row_width(factors, mode));
  ttmc_csf_tree(factors, tree, mode,
                static_cast<std::ptrdiff_t>(tree.num_roots()),
                IdentityRowMap{}, y);
}

void ttmc_mode_subset(const CooTensor& x,
                      const std::vector<la::Matrix>& factors, std::size_t mode,
                      const tensor::CsfTree& tree,
                      std::span<const std::uint32_t> positions, la::Matrix& y) {
  check_inputs(x, factors, mode, tree);
  check_positions(positions, tree.num_roots());
  y.resize(positions.size(), ttmc_row_width(factors, mode));
  ttmc_csf_tree(factors, tree, mode,
                static_cast<std::ptrdiff_t>(positions.size()),
                SubsetRowMap{positions}, y);
}

}  // namespace ht::core
