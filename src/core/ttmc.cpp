#include "core/ttmc.hpp"

#include <algorithm>
#include <bit>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "util/error.hpp"

namespace ht::core {

namespace {

// One scratch arena per thread, shared by every kernel in this translation
// unit. The kernels are function templates (one instantiation per row map),
// so a thread_local inside each body would be duplicated per instantiation
// and per kernel; routing them all through one arena means the buffers grow
// once and are reused across rows, calls, kernels, and modes.
struct KernelScratch {
  std::vector<double> a;
  std::vector<double> b;
  std::vector<tensor::index_t> idx;
  // ALTO staging arena (tens of MB): persists across calls so the kernel
  // does not re-fault a fresh allocation every mode of every iteration.
  std::vector<double> stage;
};

inline KernelScratch& kernel_scratch() {
  thread_local KernelScratch scratch;
  return scratch;
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

// Run `body(r)` over [0, nrows) with the requested OpenMP schedule. The
// dynamic/static choice is the paper's load-balancing knob (Sec. III-A.1);
// the ablation bench compares both.
template <typename Body>
void parallel_rows(std::ptrdiff_t nrows, Schedule schedule, Body&& body) {
  if (schedule == Schedule::kDynamic) {
#pragma omp parallel for schedule(dynamic, 16)
    for (std::ptrdiff_t r = 0; r < nrows; ++r) body(r);
  } else {
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t r = 0; r < nrows; ++r) body(r);
  }
}

// The full-mode and subset entry points share every kernel below through a
// row map: the loop index r runs over output rows, map(r) names the compact
// symbolic row it computes.

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

template <typename RowMap>
void ttmc3_per_nnz(const CooTensor& x, const std::vector<la::Matrix>& factors,
                   std::size_t mode, const ModeSymbolic& sym,
                   std::ptrdiff_t nrows, RowMap map, la::Matrix& y,
                   const TtmcOptions& options) {
  const auto o = other_modes(x.order(), mode);
  const auto idx_a = x.indices(o.m[0]);
  const auto idx_b = x.indices(o.m[1]);
  const auto values = x.values();
  const la::Matrix& fa = factors[o.m[0]];
  const la::Matrix& fb = factors[o.m[1]];
  parallel_rows(nrows, options.schedule, [&](std::ptrdiff_t r) {
    auto row = y.row(static_cast<std::size_t>(r));
    std::fill(row.begin(), row.end(), 0.0);
    for (nnz_t e : sym.update_list(map(r))) {
      kron2_accumulate(values[e], fa.row(idx_a[e]), fb.row(idx_b[e]),
                       row.data());
    }
  });
}

template <typename RowMap>
void ttmc4_per_nnz(const CooTensor& x, const std::vector<la::Matrix>& factors,
                   std::size_t mode, const ModeSymbolic& sym,
                   std::ptrdiff_t nrows, RowMap map, la::Matrix& y,
                   const TtmcOptions& options) {
  const auto o = other_modes(x.order(), mode);
  const auto idx_a = x.indices(o.m[0]);
  const auto idx_b = x.indices(o.m[1]);
  const auto idx_c = x.indices(o.m[2]);
  const auto values = x.values();
  const la::Matrix& fa = factors[o.m[0]];
  const la::Matrix& fb = factors[o.m[1]];
  const la::Matrix& fc = factors[o.m[2]];
  parallel_rows(nrows, options.schedule, [&](std::ptrdiff_t r) {
    auto row = y.row(static_cast<std::size_t>(r));
    std::fill(row.begin(), row.end(), 0.0);
    for (nnz_t e : sym.update_list(map(r))) {
      kron3_accumulate(values[e], fa.row(idx_a[e]), fb.row(idx_b[e]),
                       fc.row(idx_c[e]), row.data());
    }
  });
}

template <typename RowMap>
void ttmc_general_per_nnz(const CooTensor& x,
                          const std::vector<la::Matrix>& factors,
                          std::size_t mode, const ModeSymbolic& sym,
                          std::ptrdiff_t nrows, RowMap map, la::Matrix& y,
                          const TtmcOptions& options) {
  parallel_rows(nrows, options.schedule, [&](std::ptrdiff_t r) {
    auto row = y.row(static_cast<std::size_t>(r));
    std::fill(row.begin(), row.end(), 0.0);
    for (nnz_t e : sym.update_list(map(r))) {
      kron_general_accumulate(x, e, factors, mode, row, kernel_scratch().a);
    }
  });
}

// ---- CSF kernel ------------------------------------------------------------

// Deepest CSF tree the kernel's fixed-size per-level arrays accommodate;
// higher orders stay on the general per-nnz kernel (the selection logic
// never offers CSF trees past this depth to the dispatcher).
constexpr std::size_t kCsfMaxOrder = 8;

// Read-only per-invocation context of the CSF depth-first walk, shared by
// every thread (per-thread state is only the partial buffers).
struct CsfWalkCtx {
  const tensor::CsfTree* tree = nullptr;
  std::size_t nlevels = 0;
  // Per tree level: factor of that level's mode, and the width of a node
  // partial at that level (product of the ranks of all deeper levels).
  const la::Matrix* u[kCsfMaxOrder] = {};
  std::size_t width[kCsfMaxOrder] = {};
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
                   std::ptrdiff_t nrows, RowMap map, la::Matrix& y,
                   const TtmcOptions& options) {
  const std::size_t L = tree.levels();
  HT_CHECK_MSG(L <= kCsfMaxOrder, "CSF kernel supports tensors up to order 8");
  CsfWalkCtx c;
  c.tree = &tree;
  c.nlevels = L;
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
    std::size_t stride_y[kCsfMaxOrder] = {};  // per tree level, stride in Y(n)'s layout
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
  std::size_t off[kCsfMaxOrder] = {};
  std::size_t total = 0;
  for (std::size_t d = 0; d + 1 < L; ++d) {
    off[d] = total;
    total += c.width[d];
  }

  const auto body = [&](std::ptrdiff_t ti) {
    std::vector<double>& buf = kernel_scratch().a;
    buf.resize(total);
    double* part[kCsfMaxOrder] = {};
    for (std::size_t d = 0; d + 1 < L; ++d) part[d] = buf.data() + off[d];
    for (std::ptrdiff_t r = tile[ti]; r < tile[ti + 1]; ++r) {
      auto row = y.row(static_cast<std::size_t>(r));
      if (identity) {
        part[0] = row.data();  // csf_walk zero-fills before accumulating
        csf_walk(c, 0, map(r), part);
      } else {
        part[0] = buf.data() + off[0];
        csf_walk(c, 0, map(r), part);
        const double* src = part[0];
        for (std::size_t p = 0; p < perm.size(); ++p) row[perm[p]] = src[p];
      }
    }
  };
  // Chunk size 1: tiles are already coarse, nnz-balanced units.
  if (options.schedule == Schedule::kDynamic) {
#pragma omp parallel for schedule(dynamic, 1)
    for (std::ptrdiff_t ti = 0; ti < ntiles; ++ti) body(ti);
  } else {
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t ti = 0; ti < ntiles; ++ti) body(ti);
  }
}

// ---- ALTO kernel -----------------------------------------------------------

// Total staging doubles live per wave (64 MB). Fixed — never derived from
// the thread count or the machine — so wave boundaries, and therefore the
// per-row merge order, are reproducible anywhere. A mode whose largest
// per-partition staging block (index range x row width) cannot fit in one
// wave is not ALTO-feasible and the dispatcher degrades to a coordinate
// kernel for that mode.
constexpr std::size_t kAltoWaveDoubles = std::size_t{1} << 23;

// Ceiling of the dense path's single staging block (16 MB): modes whose
// full output block fits accumulate into one shared dim x width buffer
// with the columns split across threads; larger modes take the wave path.
constexpr std::size_t kAltoDenseDoubles = std::size_t{1} << 21;

// Flattened per-mode delinearization: one extraction mask per key word
// instead of AltoTensor::mode_index's per-run loop. The round-robin
// interleave assigns each mode's bits to the key in increasing index-bit
// order, so a parallel bit extract over the word mask concatenates them
// exactly — on BMI2 hardware that is one PEXT per word; the portable
// fallback walks the runs with the key words hoisted into registers.
struct AltoDecoder {
  struct Mode {
    std::uint64_t mask_lo = 0;   // extraction mask within key_lo
    std::uint64_t mask_hi = 0;   // extraction mask within key_hi
    unsigned lo_bits = 0;        // index bits coming from key_lo
    const tensor::AltoRun* runs = nullptr;
    std::size_t num_runs = 0;
  };
  std::vector<Mode> modes;
  std::size_t order = 0;

  explicit AltoDecoder(const tensor::AltoTensor& alto)
      : modes(alto.order()), order(alto.order()) {
    for (std::size_t n = 0; n < order; ++n) {
      Mode& m = modes[n];
      m.runs = alto.mode_runs[n].data();
      m.num_runs = alto.mode_runs[n].size();
      for (const tensor::AltoRun& r : alto.mode_runs[n]) {
        if (r.word == 0) {
          m.mask_lo |= r.mask << r.key_shift;
          m.lo_bits += static_cast<unsigned>(std::popcount(r.mask));
        } else {
          m.mask_hi |= r.mask << r.key_shift;
        }
      }
    }
  }

  inline void decode_runs(std::uint64_t lo, std::uint64_t hi,
                          index_t* idx) const {
    for (std::size_t n = 0; n < order; ++n) {
      const Mode& m = modes[n];
      std::uint64_t v = 0;
      for (std::size_t r = 0; r < m.num_runs; ++r) {
        const tensor::AltoRun& run = m.runs[r];
        const std::uint64_t w = run.word == 0 ? lo : hi;
        v |= ((w >> run.key_shift) & run.mask) << run.index_shift;
      }
      idx[n] = static_cast<index_t>(v);
    }
  }

  inline index_t decode_one_runs(std::uint64_t lo, std::uint64_t hi,
                                 std::size_t n) const {
    const Mode& m = modes[n];
    std::uint64_t v = 0;
    for (std::size_t r = 0; r < m.num_runs; ++r) {
      const tensor::AltoRun& run = m.runs[r];
      const std::uint64_t w = run.word == 0 ? lo : hi;
      v |= ((w >> run.key_shift) & run.mask) << run.index_shift;
    }
    return static_cast<index_t>(v);
  }

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __attribute__((target("bmi2"))) inline void decode_pext(
      std::uint64_t lo, std::uint64_t hi, index_t* idx) const {
    for (std::size_t n = 0; n < order; ++n) {
      const Mode& m = modes[n];
      std::uint64_t v = __builtin_ia32_pext_di(lo, m.mask_lo);
      if (m.mask_hi != 0) {
        v |= __builtin_ia32_pext_di(hi, m.mask_hi) << m.lo_bits;
      }
      idx[n] = static_cast<index_t>(v);
    }
  }
  __attribute__((target("bmi2"))) inline index_t decode_one_pext(
      std::uint64_t lo, std::uint64_t hi, std::size_t n) const {
    const Mode& m = modes[n];
    std::uint64_t v = __builtin_ia32_pext_di(lo, m.mask_lo);
    if (m.mask_hi != 0) {
      v |= __builtin_ia32_pext_di(hi, m.mask_hi) << m.lo_bits;
    }
    return static_cast<index_t>(v);
  }
  static bool pext_available() {
    static const bool ok = __builtin_cpu_supports("bmi2");
    return ok;
  }
#else
  inline void decode_pext(std::uint64_t, std::uint64_t, index_t*) const {}
  inline index_t decode_one_pext(std::uint64_t, std::uint64_t,
                                 std::size_t) const {
    return 0;
  }
  static bool pext_available() { return false; }
#endif

  // One perfectly-predicted branch per nonzero; both arms produce the same
  // indices, so the kernel's arithmetic is identical either way.
  inline void decode(std::uint64_t lo, std::uint64_t hi, index_t* idx,
                     bool pext) const {
    if (pext) {
      decode_pext(lo, hi, idx);
    } else {
      decode_runs(lo, hi, idx);
    }
  }

  // Just one mode's index — cheap enough to run ahead of the main stream
  // for prefetching the staging row it targets.
  inline index_t decode_one(std::uint64_t lo, std::uint64_t hi, std::size_t n,
                            bool pext) const {
    return pext ? decode_one_pext(lo, hi, n) : decode_one_runs(lo, hi, n);
  }
};

inline std::size_t alto_stage_rows(const tensor::AltoTensor& alto,
                                   std::size_t p, std::size_t mode) {
  return static_cast<std::size_t>(alto.partition_max(p, mode) -
                                  alto.partition_min(p, mode)) +
         1;
}

bool alto_mode_feasible(const tensor::AltoTensor& alto, std::size_t mode,
                        std::size_t width) {
  const std::size_t cap = kAltoWaveDoubles / std::max<std::size_t>(width, 1);
  for (std::size_t p = 0; p < alto.num_partitions(); ++p) {
    if (alto_stage_rows(alto, p, mode) > cap) return false;
  }
  return true;
}

// General-N single-nonzero expansion from delinearized indices: the
// kron_general_accumulate shape without a CooTensor behind it.
void kron_idx_accumulate(double v, const std::vector<la::Matrix>& factors,
                         std::size_t mode, const index_t* idx, double* out,
                         std::size_t width, std::vector<double>& scratch) {
  scratch.resize(width);
  scratch[0] = v;
  std::size_t len = 1;
  for (std::size_t t = 0; t < factors.size(); ++t) {
    if (t == mode) continue;
    const auto u = factors[t].row(idx[t]);
    const std::size_t r = u.size();
    for (std::size_t i = len; i-- > 0;) {
      const double s = scratch[i];
      double* dst = scratch.data() + i * r;
      for (std::size_t j = r; j-- > 0;) dst[j] = s * u[j];
    }
    len *= r;
  }
  for (std::size_t i = 0; i < width; ++i) out[i] += scratch[i];
}

// Two-phase mode-agnostic TTMc over the single linearized structure, with
// two staging layouts behind the same deterministic contract:
//
// Dense column-split path (mode's full output block fits kAltoDenseDoubles):
// one shared dim x width staging block whose columns are carved into
// per-thread chunks along the leading other-mode's rank range. Each chunk
// streams every slot in order and accumulates only its column slice, so a
// given output column is always summed in slot order — the carve (and
// therefore the thread count) cannot change any sum's order, and a serial
// run is a single pass over a single block with no merge-sum at all.
// Phase B copies the requested rows out of the block.
//
// Wave path (huge modes): partitions are processed in waves bounded by
// kAltoWaveDoubles of staging. Phase 1 gives each partition to one thread,
// accumulating into a block indexed by (i_mode - partition_min) with
// lazy zeroing + a touched list; phase 2 merges partitions in increasing
// order, parallel over each partition's touched rows (single writer per
// row). Wave boundaries are budget-derived, never thread-derived.
//
// Both paths stream keys/values in slot order and fix every summation
// order structurally, so the result is bitwise identical for any thread
// count, schedule, and entry point (full or subset) — the CSF tiler's
// guarantee. Which path runs depends only on the tensor shape and rank
// widths, never on the machine.
template <typename RowMap>
void ttmc_alto(const std::vector<la::Matrix>& factors,
               const tensor::AltoTensor& alto, std::size_t mode,
               const ModeSymbolic& sym, std::ptrdiff_t nrows, RowMap map,
               la::Matrix& y, const TtmcOptions& options) {
  const std::size_t order = alto.order();
  const std::size_t width = y.cols();
  const std::size_t parts = alto.num_partitions();
  if (parts == 0 || nrows == 0 || width == 0) {
    parallel_rows(nrows, options.schedule, [&](std::ptrdiff_t r) {
      auto row = y.row(static_cast<std::size_t>(r));
      std::fill(row.begin(), row.end(), 0.0);
    });
    return;
  }

  const AltoDecoder dec(alto);
  const bool pext = AltoDecoder::pext_available();
  const std::uint64_t* klo = alto.key_lo.data();
  const std::uint64_t* khi = alto.key_hi.empty() ? nullptr : alto.key_hi.data();
  const double* vals = alto.values.data();

  OtherModes om{};
  const la::Matrix* fa = nullptr;
  const la::Matrix* fb = nullptr;
  const la::Matrix* fc = nullptr;
  if (order == 3 || order == 4) {
    om = other_modes(order, mode);
    fa = &factors[om.m[0]];
    fb = &factors[om.m[1]];
    if (order == 4) fc = &factors[om.m[2]];
  }

  // Stream [begin, end) slots, accumulating each nonzero's expansion into
  // the staging row srow_of(i_mode). Shared by both paths. addr_of(i_mode)
  // is the side-effect-free address of that row: the accumulation is a
  // read-modify-write of a key-dependent row, so a lookahead decode of just
  // the target mode (one PEXT) plus a write prefetch hides most of the
  // staging block's access latency.
  auto accumulate_slots = [&](nnz_t begin, nnz_t end, auto&& srow_of,
                              auto&& addr_of) {
    constexpr nnz_t kLookahead = 8;
    std::vector<index_t>& idx = kernel_scratch().idx;
    idx.resize(order);
    for (nnz_t s = begin; s < end; ++s) {
      if (s + kLookahead < end) {
        const nnz_t q = s + kLookahead;
        const std::uint64_t qhi = khi != nullptr ? khi[q] : 0;
        const double* pr = addr_of(dec.decode_one(klo[q], qhi, mode, pext));
        for (std::size_t b = 0; b < width; b += 8) {
          __builtin_prefetch(pr + b, 1);
        }
      }
      const std::uint64_t lo = klo[s];
      const std::uint64_t hi = khi != nullptr ? khi[s] : 0;
      dec.decode(lo, hi, idx.data(), pext);
      double* srow = srow_of(idx[mode]);
      const double v = vals[s];
      if (order == 3) {
        kron2_accumulate(v, fa->row(idx[om.m[0]]), fb->row(idx[om.m[1]]),
                         srow);
      } else if (order == 4) {
        kron3_accumulate(v, fa->row(idx[om.m[0]]), fb->row(idx[om.m[1]]),
                         fc->row(idx[om.m[2]]), srow);
      } else {
        kron_idx_accumulate(v, factors, mode, idx.data(), srow, width,
                            kernel_scratch().a);
      }
    }
  };

  const std::size_t dim = alto.shape[mode];
  if (dim * width <= kAltoDenseDoubles) {
    // ---- dense column-split path ----
    // One shared dim x width staging block; threads split the *columns* by
    // carving the leading other-mode's rank range [0, ra) into contiguous
    // chunks (so a chunk's columns are served by a sliced leading factor
    // row). Every thread streams all slots, but each output column is
    // accumulated by exactly one thread in slot order — so the sums are
    // bitwise identical for ANY chunk carve, and the chunk count can
    // follow the machine's thread count without breaking determinism.
    // Serially this degenerates to one pass over one block: no staging
    // replication, no merge-sum — staging traffic is one zero + one copy
    // of dim x width.
    const std::size_t lead = mode == 0 ? 1 : 0;
    const la::Matrix& flead = factors[lead];
    const std::size_t ra = flead.cols();
    const std::size_t inner = ra > 0 ? width / ra : width;
#ifdef _OPENMP
    const std::size_t nblocks = std::clamp<std::size_t>(
        static_cast<std::size_t>(omp_get_max_threads()), std::size_t{1},
        std::max<std::size_t>(ra, 1));
#else
    const std::size_t nblocks = 1;
#endif

    // Accumulate every slot's expansion restricted to leading-factor
    // columns [a0, a1): the chunk's slice of the full Kronecker row.
    auto accumulate_chunk = [&](std::size_t a0, std::size_t a1,
                                double* block) {
      const std::size_t wt = (a1 - a0) * inner;
      std::vector<index_t>& idx = kernel_scratch().idx;
      idx.resize(order);
      std::vector<double>& tail = kernel_scratch().b;
      const nnz_t begin = alto.part_ptr[0];
      const nnz_t end = alto.part_ptr[parts];
      for (nnz_t s = begin; s < end; ++s) {
        const std::uint64_t lo = klo[s];
        const std::uint64_t hi = khi != nullptr ? khi[s] : 0;
        dec.decode(lo, hi, idx.data(), pext);
        double* srow = block + idx[mode] * wt;
        const double v = vals[s];
        const auto ua = flead.row(idx[lead]).subspan(a0, a1 - a0);
        if (order == 3) {
          kron2_accumulate(v, ua, fb->row(idx[om.m[1]]), srow);
        } else if (order == 4) {
          kron3_accumulate(v, ua, fb->row(idx[om.m[1]]),
                           fc->row(idx[om.m[2]]), srow);
        } else {
          // Order 2 (empty tail = the scalar 1) and order >= 5: expand the
          // trailing modes' Kronecker row once, then the sliced outer.
          tail.resize(std::max<std::size_t>(inner, 1));
          tail[0] = 1.0;
          std::size_t len = 1;
          for (std::size_t t2 = 0; t2 < order; ++t2) {
            if (t2 == mode || t2 == lead) continue;
            const auto u = factors[t2].row(idx[t2]);
            const std::size_t r = u.size();
            for (std::size_t i = len; i-- > 0;) {
              const double sc = tail[i];
              double* dst = tail.data() + i * r;
              for (std::size_t j = r; j-- > 0;) dst[j] = sc * u[j];
            }
            len *= r;
          }
          kron2_accumulate(v, ua, std::span<const double>(tail.data(), len),
                           srow);
        }
      }
    };

    std::vector<double>& stage = kernel_scratch().stage;
    stage.resize(dim * width);
    const auto c_blocks = static_cast<std::ptrdiff_t>(nblocks);
#pragma omp parallel for schedule(static, 1)
    for (std::ptrdiff_t t = 0; t < c_blocks; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      const std::size_t a0 = ra * ti / nblocks;
      const std::size_t a1 = ra * (ti + 1) / nblocks;
      if (a0 == a1) continue;
      const std::size_t wt = (a1 - a0) * inner;
      double* block = stage.data() + dim * a0 * inner;
      std::fill(block, block + dim * wt, 0.0);
      accumulate_chunk(a0, a1, block);
    }
    // Phase B: copy each requested row's column chunks out of the shared
    // block (assignment, not accumulation — the chunks are disjoint).
    parallel_rows(nrows, options.schedule, [&](std::ptrdiff_t r) {
      const std::size_t i = sym.rows[map(r)];
      auto yrow = y.row(static_cast<std::size_t>(r));
      for (std::size_t t = 0; t < nblocks; ++t) {
        const std::size_t a0 = ra * t / nblocks;
        const std::size_t a1 = ra * (t + 1) / nblocks;
        if (a0 == a1) continue;
        const std::size_t wt = (a1 - a0) * inner;
        const double* src = stage.data() + dim * a0 * inner + i * wt;
        double* dst = yrow.data() + a0 * inner;
        for (std::size_t j = 0; j < wt; ++j) dst[j] = src[j];
      }
    });
    return;
  }

  // ---- wave path ----
  // Zero the output first; the merge phase only adds rows that partitions
  // touched (rows with no nonzeros in the subset stay zero).
  parallel_rows(nrows, options.schedule, [&](std::ptrdiff_t r) {
    auto row = y.row(static_cast<std::size_t>(r));
    std::fill(row.begin(), row.end(), 0.0);
  });

  // Output row of each compact symbolic row (identity for the full entry,
  // sparse for a subset). kNoRow rows still accumulate in staging — their
  // partitions cannot know — but are skipped at merge time.
  constexpr std::uint32_t kNoRow = 0xFFFFFFFFu;
  std::vector<std::uint32_t> out_row(sym.num_rows(), kNoRow);
  for (std::ptrdiff_t r = 0; r < nrows; ++r) {
    out_row[map(r)] = static_cast<std::uint32_t>(r);
  }

  std::vector<double>& stage = kernel_scratch().stage;
  std::vector<std::uint8_t> touched_flag;
  std::vector<std::vector<index_t>> touched;
  std::vector<std::size_t> off;

  std::size_t wave_begin = 0;
  while (wave_begin < parts) {
    // Greedy fixed-budget wave [wave_begin, wave_end).
    std::size_t wave_end = wave_begin;
    std::size_t doubles = 0;
    off.clear();
    while (wave_end < parts) {
      const std::size_t need = alto_stage_rows(alto, wave_end, mode) * width;
      if (wave_end > wave_begin && doubles + need > kAltoWaveDoubles) break;
      off.push_back(doubles);
      doubles += need;
      ++wave_end;
    }
    HT_CHECK_MSG(doubles <= kAltoWaveDoubles,
                 "ALTO staging block exceeds the wave budget");
    const std::size_t wave_n = wave_end - wave_begin;
    stage.resize(doubles);
    touched_flag.assign(doubles / width, 0);
    touched.assign(wave_n, {});

    // Phase 1: accumulate every partition into its staging block.
    const auto c_wave = static_cast<std::ptrdiff_t>(wave_n);
#pragma omp parallel for schedule(dynamic, 1)
    for (std::ptrdiff_t w = 0; w < c_wave; ++w) {
      const auto wi = static_cast<std::size_t>(w);
      const std::size_t p = wave_begin + wi;
      const index_t base = alto.partition_min(p, mode);
      double* block = stage.data() + off[wi];
      std::uint8_t* flag = touched_flag.data() + off[wi] / width;
      std::vector<index_t>& rows_hit = touched[wi];
      accumulate_slots(alto.part_ptr[p], alto.part_ptr[p + 1],
                       [&](index_t i) {
                         const auto local = static_cast<std::size_t>(i - base);
                         double* srow = block + local * width;
                         if (!flag[local]) {
                           flag[local] = 1;
                           rows_hit.push_back(static_cast<index_t>(local));
                           std::fill(srow, srow + width, 0.0);
                         }
                         return srow;
                       },
                       [&](index_t i) -> const double* {
                         return block + static_cast<std::size_t>(i - base) *
                                            width;
                       });
    }

    // Phase 2: merge, one partition at a time in increasing order.
    for (std::size_t w = 0; w < wave_n; ++w) {
      const std::size_t p = wave_begin + w;
      const index_t base = alto.partition_min(p, mode);
      const double* block = stage.data() + off[w];
      const std::vector<index_t>& rows_hit = touched[w];
      const auto c_hits = static_cast<std::ptrdiff_t>(rows_hit.size());
#pragma omp parallel for schedule(static)
      for (std::ptrdiff_t h = 0; h < c_hits; ++h) {
        const index_t local = rows_hit[static_cast<std::size_t>(h)];
        const index_t i = base + local;
        // Compact row of global row i: present by construction (the row
        // has nonzeros), found by binary search in the sorted row set.
        const auto it =
            std::lower_bound(sym.rows.begin(), sym.rows.end(), i);
        const auto cr = static_cast<std::size_t>(it - sym.rows.begin());
        const std::uint32_t outr = out_row[cr];
        if (outr == kNoRow) continue;
        auto yrow = y.row(outr);
        const double* srow = block + static_cast<std::size_t>(local) * width;
        for (std::size_t j = 0; j < width; ++j) yrow[j] += srow[j];
      }
    }
    wave_begin = wave_end;
  }
}

// ---- dispatch --------------------------------------------------------------

template <typename RowMap>
void ttmc_dispatch(const CooTensor& x, const std::vector<la::Matrix>& factors,
                   std::size_t mode, const ModeSymbolic& sym,
                   std::ptrdiff_t nrows, RowMap map, la::Matrix& y,
                   const TtmcOptions& options, const tensor::CsfTree* csf,
                   const tensor::AltoTensor* alto) {
  const std::size_t order = x.order();
  TtmcKernel kernel = ttmc_selected_kernel(order, options, csf, alto);
  if (kernel == TtmcKernel::kAlto &&
      !alto_mode_feasible(*alto, mode, y.cols())) {
    // Pathological index-range x width staging for this mode: re-select as
    // if no ALTO structure were in hand.
    kernel = ttmc_selected_kernel(order, options, csf, nullptr);
  }
  if (kernel == TtmcKernel::kAlto) {
    HT_CHECK_MSG(alto->nnz() == sym.nnz_order.size(),
                 "ALTO structure does not match the symbolic structure");
    ttmc_alto(factors, *alto, mode, sym, nrows, map, y, options);
  } else if (kernel == TtmcKernel::kCsf) {
    HT_CHECK_MSG(csf->num_roots() == sym.num_rows(),
                 "CSF tree does not match the symbolic structure");
    ttmc_csf_tree(factors, *csf, mode, nrows, map, y, options);
  } else if (order == 3) {
    ttmc3_per_nnz(x, factors, mode, sym, nrows, map, y, options);
  } else if (order == 4) {
    ttmc4_per_nnz(x, factors, mode, sym, nrows, map, y, options);
  } else {
    ttmc_general_per_nnz(x, factors, mode, sym, nrows, map, y, options);
  }
}

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

}  // namespace

std::size_t ttmc_row_width(const std::vector<la::Matrix>& factors,
                           std::size_t mode) {
  std::size_t width = 1;
  for (std::size_t t = 0; t < factors.size(); ++t) {
    if (t != mode) width *= factors[t].cols();
  }
  return width;
}

TtmcKernel ttmc_selected_kernel(std::size_t order, const TtmcOptions& options,
                                const tensor::CsfTree* csf,
                                const tensor::AltoTensor* alto) {
  const bool csf_capable = csf != nullptr && csf->levels() == order &&
                           order >= 2 && order <= kCsfMaxOrder &&
                           csf->has_values();
  const bool alto_capable = alto != nullptr && alto->order() == order &&
                            order >= 2 && alto->has_values();
  if (options.kernel == TtmcKernel::kPerNnz) return TtmcKernel::kPerNnz;
  if (options.kernel == TtmcKernel::kAlto && alto_capable) {
    return TtmcKernel::kAlto;
  }
  // kAuto and kCsf run whatever structure is in hand: the plan built the
  // forest whenever it could (ttmc_wants_csf), and the walk does the
  // factored flops while streaming values and coordinates — on prefix-free
  // inputs it still streams where per-nnz chases nnz_order.
  if (csf_capable) return TtmcKernel::kCsf;
  if (alto_capable) return TtmcKernel::kAlto;
  return TtmcKernel::kPerNnz;
}

double csf_forest_bytes_estimate(std::size_t nnz, std::size_t order) {
  // Per tree and per nonzero, worst case: a 4B leaf coordinate, ~8B of
  // level pointers, the 8B leaf gather map, and the 8B gathered value.
  // Internal-level coordinates compress below this; the estimate errs
  // toward the uncompressed bound, which is the safe direction for a
  // memory budget.
  return static_cast<double>(order) * static_cast<double>(nnz) * 28.0;
}

double alto_bytes_estimate(std::size_t nnz, const tensor::Shape& shape) {
  const unsigned words =
      tensor::AltoTensor::fits_key_budget(shape) &&
              tensor::AltoTensor::key_bits_for(shape) > 64
          ? 2
          : 1;
  // Keys + gather map + gathered values; the partition table is O(nnz /
  // kAltoPartNnz) and disappears in the rounding.
  return static_cast<double>(nnz) * (8.0 * words + 8.0 + 8.0);
}

bool ttmc_wants_csf(std::size_t nnz, std::size_t order,
                    const TtmcOptions& options) {
  if (order < 2 || order > kCsfMaxOrder) return false;
  if (options.kernel == TtmcKernel::kCsf) return true;
  if (options.kernel != TtmcKernel::kAuto) return false;
  // Memory gate: under a structure budget the N-tree forest may simply not
  // fit (the serve/out-of-core regime). ttmc_wants_alto offers the single
  // linearized structure for the same tensors instead.
  return options.structure_budget_bytes <= 0 ||
         csf_forest_bytes_estimate(nnz, order) <=
             options.structure_budget_bytes;
}

// Working-set threshold past which kAuto builds an ALTO structure when the
// CSF forest is over the structure budget: beyond this many bytes of
// per-nonzero traffic a flat kernel's random reads leave the last-level
// cache and the linearized structure's sequential streams win on bandwidth
// alone. Per nonzero a flat kernel touches the value (8B), the nnz_order
// indirection (8B), and one 4B index per other mode (order - 1 of them,
// rounded up to order). Sized at a typical LLC; the exact value only
// matters near the boundary, where the kernels tie anyway.
constexpr double kStreamBytes = 24.0 * 1024.0 * 1024.0;

bool ttmc_wants_alto(std::size_t nnz, const tensor::Shape& shape,
                     const TtmcOptions& options) {
  const std::size_t order = shape.size();
  if (order < 2) return false;
  if (!tensor::AltoTensor::fits_key_budget(shape)) return false;
  if (options.kernel == TtmcKernel::kAlto) return true;
  if (options.kernel != TtmcKernel::kAuto) return false;
  // kAuto: ALTO steps in exactly when the CSF forest blows the structure
  // budget and the single linearized structure fits — the
  // footprint-vs-speed trade the budget exists to arbitrate.
  if (options.structure_budget_bytes <= 0) return false;
  if (csf_forest_bytes_estimate(nnz, order) <=
      options.structure_budget_bytes) {
    return false;  // the faster forest fits; ttmc_wants_csf said yes
  }
  if (alto_bytes_estimate(nnz, shape) > options.structure_budget_bytes) {
    return false;  // nothing fits; stay on the structure-free flat kernels
  }
  // Time gate: in-cache tensors stay on per-nnz, whose per-row constants
  // are lower, so building a structure for them would be pure waste.
  return static_cast<double>(nnz) *
             (16.0 + 4.0 * static_cast<double>(order)) >=
         kStreamBytes;
}

void accumulate_kron(const CooTensor& x, nnz_t e,
                     const std::vector<la::Matrix>& factors, std::size_t mode,
                     std::span<double> out) {
  const std::size_t order = x.order();
  const double v = x.value(e);
  if (order == 3) {
    const auto o = other_modes(order, mode);
    kron2_accumulate(v, factors[o.m[0]].row(x.index(o.m[0], e)),
                     factors[o.m[1]].row(x.index(o.m[1], e)), out.data());
    return;
  }
  if (order == 4) {
    const auto o = other_modes(order, mode);
    kron3_accumulate(v, factors[o.m[0]].row(x.index(o.m[0], e)),
                     factors[o.m[1]].row(x.index(o.m[1], e)),
                     factors[o.m[2]].row(x.index(o.m[2], e)), out.data());
    return;
  }
  kron_general_accumulate(x, e, factors, mode, out, kernel_scratch().a);
}

void ttmc_mode(const CooTensor& x, const std::vector<la::Matrix>& factors,
               std::size_t mode, const ModeSymbolic& sym, la::Matrix& y,
               const TtmcOptions& options, const tensor::CsfTree* csf,
               const tensor::AltoTensor* alto) {
  check_inputs(x, factors, mode);
  HT_CHECK_MSG(csf == nullptr || csf->root_mode() == mode,
               "CSF tree is rooted at another mode");
  HT_CHECK_MSG(alto == nullptr || alto->shape == x.shape(),
               "ALTO structure was built for another shape");
  // Capacity-preserving: every kernel zeroes each output row before
  // accumulating, so the realloc+memset of resize_zero would be pure waste
  // when mode widths differ across modes/iterations.
  y.resize(sym.num_rows(), ttmc_row_width(factors, mode));
  ttmc_dispatch(x, factors, mode, sym,
                static_cast<std::ptrdiff_t>(sym.num_rows()), IdentityRowMap{},
                y, options, csf, alto);
}

void ttmc_mode_subset(const CooTensor& x,
                      const std::vector<la::Matrix>& factors, std::size_t mode,
                      const ModeSymbolic& sym,
                      std::span<const std::uint32_t> positions, la::Matrix& y,
                      const TtmcOptions& options, const tensor::CsfTree* csf,
                      const tensor::AltoTensor* alto) {
  check_inputs(x, factors, mode);
  HT_CHECK_MSG(csf == nullptr || csf->root_mode() == mode,
               "CSF tree is rooted at another mode");
  HT_CHECK_MSG(alto == nullptr || alto->shape == x.shape(),
               "ALTO structure was built for another shape");

#ifndef NDEBUG
  // Debug-only: dist_hooi calls this once per mode per HOOI iteration with
  // plan-derived positions that are fixed at plan construction; an
  // O(|positions|) per-call scan would serialize the hot loop for nothing.
  // In Release an out-of-range position is undefined behavior (the row loop
  // reads row_ptr past the end) — callers own the contract,
  // and CI's Debug job keeps this check live.
  for (std::uint32_t p : positions) {
    HT_CHECK_MSG(p < sym.num_rows(), "subset position out of range");
  }
#endif

  const auto npos = static_cast<std::ptrdiff_t>(positions.size());
  y.resize(positions.size(), ttmc_row_width(factors, mode));
  ttmc_dispatch(x, factors, mode, sym, npos, SubsetRowMap{positions}, y,
                options, csf, alto);
}

}  // namespace ht::core
