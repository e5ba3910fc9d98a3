#include "la/blas.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace ht::la {

namespace {
std::atomic<bool> g_threaded{true};

// Rows below this threshold are not worth an OpenMP region.
constexpr std::size_t kParallelRowThreshold = 256;

// Entries below this threshold are not worth an OpenMP region for the
// level-1 kernels (one multiply-add per entry; the fork/join would
// dominate). Column-space vectors (prod-of-ranks sized) stay serial,
// row-space vectors (one entry per tensor slice) go parallel.
constexpr std::size_t kParallelVecThreshold = 16384;

// Fixed reduction granularity: dot/nrm2 sum blocks of kReduceEntries
// entries, gemv_t/gemm_tn sum blocks of kReduceRows rows, and the block
// partials are combined in ascending block order. The block sizes are
// constants, never the team size, and the serial path walks the same
// blocks, so every result is bitwise identical for any thread count and
// with set_blas_threading(false).
constexpr std::size_t kReduceEntries = 8192;
constexpr std::size_t kReduceRows = 1024;
// Row blocks whose partials are held at once by gemv_t/gemm_tn, bounding
// the scratch to kReduceWave * width doubles whatever the row count.
constexpr std::size_t kReduceWave = 64;

// x . y over n entries: four interleaved partial sums combined in a fixed
// order, so the result is defined by the source alone (no reassociation
// is licensed, vectorized or not).
double block_dot(const double* x, const double* y, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += x[i] * y[i];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
  }
  for (; i < n; ++i) s0 += x[i] * y[i];
  return (s0 + s1) + (s2 + s3);
}

// ---- narrow right operands ---------------------------------------------------
//
// HOOI's TRSVD multiplies the tall compact Y(n) (m x prod-of-ranks) by
// blocks of a few columns: Y Z and Y^T U in the warm power steps, U^T U and
// U M in the block orthonormalizer. For right operands of at most
// kNarrowCols columns the kernels below hold a tile of the output in
// registers and stream the left operand once. Each output entry sums the
// same products in the same order as the plain loops (from zero, over
// ascending l for A B and ascending rows for A^T B), and every lane
// multiplies and adds with separate roundings (no FMA), so the results are
// those of the plain loops bit for bit. An AVX2 clone is picked at run time
// (__builtin_cpu_supports), so the portable build still runs everywhere.
constexpr std::size_t kNarrowCols = 16;
// Rows per work item of the row-parallel A B loop.
constexpr std::size_t kNarrowRowChunk = 64;
// Rows of the left operand one column-tile pass of A^T B walks before the
// next tile: 32 rows of a 125-column Y(n) (32 KB) stay in L1 between
// passes.
constexpr std::size_t kTnSubRows = 32;

using v4d = double __attribute__((vector_size(32)));
// Unaligned, aliasing view of four consecutive doubles.
using v4d_u = double __attribute__((vector_size(32), aligned(8), may_alias));

// RB rows of C = A B, each row's n <= 4*NV outputs in NV four-wide
// accumulators. `bp` is B with every row zero-padded to 4*NV entries, so
// its loads are whole vectors; the padding lanes are never stored.
template <int NV, int RB>
[[gnu::always_inline]] inline void nn_tile(const double* a, std::size_t k,
                                           const double* bp, std::size_t n,
                                           double* c) {
  v4d acc[RB][NV] = {};
  for (std::size_t l = 0; l < k; ++l) {
    v4d bl[NV];
    for (int v = 0; v < NV; ++v) {
      bl[v] = *reinterpret_cast<const v4d_u*>(bp + (l * NV + v) * 4);
    }
    for (int r = 0; r < RB; ++r) {
      const double ar = a[r * k + l];
      for (int v = 0; v < NV; ++v) acc[r][v] += ar * bl[v];
    }
  }
  for (int r = 0; r < RB; ++r) {
    for (std::size_t j = 0; j < n; ++j) c[r * n + j] = acc[r][j / 4][j % 4];
  }
}

template <int NV, int RB>
[[gnu::always_inline]] inline void nn_rows_nv(const double* a, std::size_t k,
                                              const double* bp, std::size_t n,
                                              double* c, std::size_t r0,
                                              std::size_t r1) {
  std::size_t i = r0;
  for (; i + RB <= r1; i += RB) {
    // The next tile's rows, one prefetch per cache line.
    for (std::size_t l = 0; l < RB * k; l += 8) {
      __builtin_prefetch(a + (i + RB) * k + l);
    }
    nn_tile<NV, RB>(a + i * k, k, bp, n, c + i * n);
  }
  for (; i < r1; ++i) nn_tile<NV, 1>(a + i * k, k, bp, n, c + i * n);
}

// Rows [r0, r1) of C = A B for 1 <= n <= kNarrowCols; tile heights keep
// the accumulators within the 16 vector registers of AVX2.
[[gnu::always_inline]] inline void nn_rows_body(const double* a, std::size_t k,
                                                const double* bp, std::size_t n,
                                                double* c, std::size_t r0,
                                                std::size_t r1) {
  switch ((n + 3) / 4) {
    case 1: return nn_rows_nv<1, 8>(a, k, bp, n, c, r0, r1);
    case 2: return nn_rows_nv<2, 4>(a, k, bp, n, c, r0, r1);
    case 3: return nn_rows_nv<3, 3>(a, k, bp, n, c, r0, r1);
    default: return nn_rows_nv<4, 2>(a, k, bp, n, c, r0, r1);
  }
}

// sums += A[r0:r1)^T B[r0:r1) restricted to the 4*LV columns of A from
// l0, for column-major sums (entry (l, j) at sums[j * k + l]): one
// accumulator per (column vector, output column), loaded and stored whole.
template <int LV, int N>
[[gnu::always_inline]] inline void tn_tile(const double* a, std::size_t k,
                                           const double* b, std::size_t r0,
                                           std::size_t r1, std::size_t l0,
                                           double* sums) {
  v4d acc[N][LV];
  for (int j = 0; j < N; ++j) {
    for (int v = 0; v < LV; ++v) {
      acc[j][v] = *reinterpret_cast<const v4d_u*>(sums + j * k + l0 + 4 * v);
    }
  }
  for (std::size_t i = r0; i < r1; ++i) {
    v4d av[LV];
    for (int v = 0; v < LV; ++v) {
      av[v] = *reinterpret_cast<const v4d_u*>(a + i * k + l0 + 4 * v);
    }
    const double* bi = b + i * N;
    for (int j = 0; j < N; ++j) {
      const double bij = bi[j];
      for (int v = 0; v < LV; ++v) acc[j][v] += av[v] * bij;
    }
  }
  for (int j = 0; j < N; ++j) {
    for (int v = 0; v < LV; ++v) {
      *reinterpret_cast<v4d_u*>(sums + j * k + l0 + 4 * v) = acc[j][v];
    }
  }
}

// out (k x N, overwritten) = A[r0:r1)^T B[r0:r1), rows accumulated in
// ascending order: each column-tile pass continues its entries' sums over
// the next kTnSubRows rows, and each sub-block prefetches the next one.
template <int N>
[[gnu::always_inline]] inline void tn_rows_body(const double* a, std::size_t k,
                                                const double* b, std::size_t r0,
                                                std::size_t r1, double* out) {
  constexpr int LV = N <= 3 ? 3 : N <= 6 ? 2 : 1;
  thread_local std::vector<double> scratch;
  scratch.assign(k * N, 0.0);
  double* sums = scratch.data();
  for (std::size_t s0 = r0; s0 < r1; s0 += kTnSubRows) {
    const std::size_t s1 = std::min(r1, s0 + kTnSubRows);
    for (std::size_t i = s1; i < std::min(r1, s1 + kTnSubRows); ++i) {
      for (std::size_t l = 0; l < k; l += 8) __builtin_prefetch(a + i * k + l);
    }
    std::size_t l0 = 0;
    for (; l0 + 4 * LV <= k; l0 += 4 * LV) {
      tn_tile<LV, N>(a, k, b, s0, s1, l0, sums);
    }
    for (; l0 + 4 <= k; l0 += 4) tn_tile<1, N>(a, k, b, s0, s1, l0, sums);
    // Fewer than four trailing columns: scalar.
    for (std::size_t i = s0; i < s1 && l0 < k; ++i) {
      for (std::size_t l = l0; l < k; ++l) {
        const double ail = a[i * k + l];
        for (int j = 0; j < N; ++j) sums[j * k + l] += ail * b[i * N + j];
      }
    }
  }
  for (std::size_t l = 0; l < k; ++l) {
    for (int j = 0; j < N; ++j) out[l * N + j] = sums[j * k + l];
  }
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HT_TARGET_AVX2 __attribute__((target("avx2")))
bool avx2_available() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}
#else
#define HT_TARGET_AVX2
bool avx2_available() { return false; }
#endif

// Each kernel body compiled twice: for the baseline ISA and for AVX2.
void nn_rows_generic(const double* a, std::size_t k, const double* bp,
                     std::size_t n, double* c, std::size_t r0, std::size_t r1) {
  nn_rows_body(a, k, bp, n, c, r0, r1);
}
HT_TARGET_AVX2 void nn_rows_avx2(const double* a, std::size_t k,
                                 const double* bp, std::size_t n, double* c,
                                 std::size_t r0, std::size_t r1) {
  nn_rows_body(a, k, bp, n, c, r0, r1);
}

template <int N>
void tn_rows_generic(const double* a, std::size_t k, const double* b,
                     std::size_t r0, std::size_t r1, double* out) {
  tn_rows_body<N>(a, k, b, r0, r1, out);
}
template <int N>
HT_TARGET_AVX2 void tn_rows_avx2(const double* a, std::size_t k,
                                 const double* b, std::size_t r0,
                                 std::size_t r1, double* out) {
  tn_rows_body<N>(a, k, b, r0, r1, out);
}

using NnRowsFn = void (*)(const double*, std::size_t, const double*,
                          std::size_t, double*, std::size_t, std::size_t);
using TnRowsFn = void (*)(const double*, std::size_t, const double*,
                          std::size_t, std::size_t, double*);

NnRowsFn narrow_nn_kernel() {
  return avx2_available() ? nn_rows_avx2 : nn_rows_generic;
}

// The A^T B kernel for a right operand of n columns, 1 <= n <= kNarrowCols.
template <std::size_t... I>
TnRowsFn narrow_tn_kernel(std::size_t n, std::index_sequence<I...>) {
  static constexpr std::array<TnRowsFn, sizeof...(I)> kGeneric = {
      &tn_rows_generic<static_cast<int>(I) + 1>...};
  static constexpr std::array<TnRowsFn, sizeof...(I)> kAvx2 = {
      &tn_rows_avx2<static_cast<int>(I) + 1>...};
  return (avx2_available() ? kAvx2 : kGeneric)[n - 1];
}

TnRowsFn narrow_tn_kernel(std::size_t n) {
  return narrow_tn_kernel(n, std::make_index_sequence<kNarrowCols>{});
}

// out (k x n, overwritten) = A[r0:r1)^T B[r0:r1) for row-major A (m x k)
// and B (m x n), accumulating the rows in ascending order.
void tn_rows(const double* a, std::size_t k, const double* b, std::size_t n,
             std::size_t r0, std::size_t r1, double* out) {
  if (n >= 1 && n <= kNarrowCols) {
    narrow_tn_kernel(n)(a, k, b, r0, r1, out);
    return;
  }
  std::fill(out, out + k * n, 0.0);
  for (std::size_t i = r0; i < r1; ++i) {
    const double* ai = a + i * k;
    const double* bi = b + i * n;
    for (std::size_t l = 0; l < k; ++l) {
      const double ail = ai[l];
      double* ol = out + l * n;
      for (std::size_t j = 0; j < n; ++j) ol[j] += ail * bi[j];
    }
  }
}

// out = A^T B over m rows (the shared body of gemv_t and gemm_tn): one
// partial per kReduceRows-row block, summed in block order. At most
// kReduceWave partials are live at once; each wave continues the same
// left-to-right sum, so the wave size does not change the result either.
void tn_blocked(const double* a, std::size_t k, const double* b,
                std::size_t n, std::size_t m, std::span<double> out) {
  const std::size_t width = k * n;
  const std::size_t nblocks = (m + kReduceRows - 1) / kReduceRows;
  if (nblocks <= 1) {
    tn_rows(a, k, b, n, 0, m, out.data());
    return;
  }
  // Capacity persists across calls; taken by pointer so the worker threads
  // of the regions below share the calling thread's buffer.
  thread_local std::vector<double> arena;
  arena.resize(std::min(nblocks, kReduceWave) * width);
  double* partial = arena.data();
  [[maybe_unused]] const bool par =
      g_threaded.load() && m >= kParallelRowThreshold;
  for (std::size_t w0 = 0; w0 < nblocks; w0 += kReduceWave) {
    const std::size_t wn = std::min(kReduceWave, nblocks - w0);
    const auto c_wave = static_cast<std::ptrdiff_t>(wn);
#pragma omp parallel if (par)
    {
#pragma omp for schedule(static)
      for (std::ptrdiff_t blk = 0; blk < c_wave; ++blk) {
        const auto ub = static_cast<std::size_t>(blk);
        const std::size_t r0 = (w0 + ub) * kReduceRows;
        tn_rows(a, k, b, n, r0, std::min(m, r0 + kReduceRows),
                partial + ub * width);
      }
      // The worksharing loop above ends in a barrier: every partial of the
      // wave is complete before any entry is combined.
#pragma omp for schedule(static)
      for (std::size_t j = 0; j < width; ++j) {
        double s = w0 == 0 ? partial[j] : out[j] + partial[j];
        for (std::size_t ub = 1; ub < wn; ++ub) s += partial[ub * width + j];
        out[j] = s;
      }
    }
  }
}
}  // namespace

void set_blas_threading(bool enabled) { g_threaded.store(enabled); }
bool blas_threading() { return g_threaded.load(); }

double dot(std::span<const double> x, std::span<const double> y) {
  HT_CHECK(x.size() == y.size());
  const std::size_t n = x.size();
  if (n <= kReduceEntries) return block_dot(x.data(), y.data(), n);
  const std::size_t nblocks = (n + kReduceEntries - 1) / kReduceEntries;
  std::vector<double> partial(nblocks);
  const auto c_blocks = static_cast<std::ptrdiff_t>(nblocks);
  [[maybe_unused]] const bool par =
      g_threaded.load() && n >= kParallelVecThreshold;
#pragma omp parallel for schedule(static) if (par)
  for (std::ptrdiff_t blk = 0; blk < c_blocks; ++blk) {
    const auto i0 = static_cast<std::size_t>(blk) * kReduceEntries;
    partial[static_cast<std::size_t>(blk)] = block_dot(
        x.data() + i0, y.data() + i0, std::min(n - i0, kReduceEntries));
  }
  double s = 0.0;
  for (const double p : partial) s += p;
  return s;
}

double nrm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

void gemv(const Matrix& a, std::span<const double> x, std::span<double> y) {
  HT_CHECK(x.size() == a.cols());
  HT_CHECK(y.size() == a.rows());
  const std::size_t m = a.rows();
  [[maybe_unused]] const bool par =
      g_threaded.load() && m >= kParallelRowThreshold;
#pragma omp parallel for schedule(static) if (par)
  for (std::size_t i = 0; i < m; ++i) {
    const auto row = a.row(i);
    double s = 0.0;
    for (std::size_t j = 0; j < row.size(); ++j) s += row[j] * x[j];
    y[i] = s;
  }
}

void gemv_t(const Matrix& a, std::span<const double> x, std::span<double> y) {
  HT_CHECK(x.size() == a.rows());
  HT_CHECK(y.size() == a.cols());
  // y^T = x^T A: A^T B with the m x 1 matrix x as the left operand.
  tn_blocked(x.data(), 1, a.data(), a.cols(), a.rows(), y);
}

void gemm_into(const Matrix& a, const Matrix& b, Matrix& c) {
  HT_CHECK_MSG(a.cols() == b.rows(), "gemm shape mismatch: " << a.rows() << "x"
                                       << a.cols() << " * " << b.rows() << "x"
                                       << b.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  c.resize(m, n);
  [[maybe_unused]] const bool par =
      g_threaded.load() && m >= kParallelRowThreshold;
  if (n >= 1 && n <= kNarrowCols) {
    // Narrow B: pad its rows to whole vectors for the register-tiled kernel.
    const std::size_t width = (n + 3) / 4 * 4;
    std::vector<double> bp(k * width, 0.0);
    for (std::size_t l = 0; l < k; ++l) {
      std::copy_n(b.data() + l * n, n, bp.data() + l * width);
    }
    const NnRowsFn kernel = narrow_nn_kernel();
    const auto chunks =
        static_cast<std::ptrdiff_t>((m + kNarrowRowChunk - 1) / kNarrowRowChunk);
#pragma omp parallel for schedule(static) if (par)
    for (std::ptrdiff_t ch = 0; ch < chunks; ++ch) {
      const std::size_t r0 = static_cast<std::size_t>(ch) * kNarrowRowChunk;
      kernel(a.data(), k, bp.data(), n, c.data(), r0,
             std::min(m, r0 + kNarrowRowChunk));
    }
    return;
  }
#pragma omp parallel for schedule(static) if (par)
  for (std::size_t i = 0; i < m; ++i) {
    double* ci = c.data() + i * n;
    const double* ai = a.data() + i * k;
    std::fill(ci, ci + n, 0.0);
    for (std::size_t l = 0; l < k; ++l) {
      const double ail = ai[l];
      const double* bl = b.data() + l * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += ail * bl[j];
    }
  }
}

Matrix gemm(const Matrix& a, const Matrix& b) {
  Matrix c;
  gemm_into(a, b, c);
  return c;
}

void gemm_tn_into(const Matrix& a, const Matrix& b, Matrix& c) {
  HT_CHECK_MSG(a.rows() == b.rows(), "gemm_tn shape mismatch");
  c.resize(a.cols(), b.cols());
  tn_blocked(a.data(), a.cols(), b.data(), b.cols(), a.rows(), c.flat());
}

Matrix gemm_tn(const Matrix& a, const Matrix& b) {
  Matrix c;
  gemm_tn_into(a, b, c);
  return c;
}

Matrix gemm_nt(const Matrix& a, const Matrix& b) {
  HT_CHECK_MSG(a.cols() == b.cols(), "gemm_nt shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  Matrix c(m, n);
  [[maybe_unused]] const bool par =
      g_threaded.load() && m >= kParallelRowThreshold;
#pragma omp parallel for schedule(static) if (par)
  for (std::size_t i = 0; i < m; ++i) {
    const double* ai = a.data() + i * k;
    double* ci = c.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const double* bj = b.data() + j * k;
      double s = 0.0;
      for (std::size_t l = 0; l < k; ++l) s += ai[l] * bj[l];
      ci[j] = s;
    }
  }
  return c;
}

}  // namespace ht::la
