#include "la/blas.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
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

// out (k x n, overwritten) = A[r0:r1)^T B[r0:r1) for row-major A (m x k)
// and B (m x n), accumulating the rows in ascending order.
void tn_rows(const double* a, std::size_t k, const double* b, std::size_t n,
             std::size_t r0, std::size_t r1, double* out) {
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

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  HT_CHECK(x.size() == y.size());
  const std::size_t n = x.size();
#ifdef _OPENMP
  if (g_threaded.load() && n >= kParallelVecThreshold) {
#pragma omp parallel for simd schedule(static)
    for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
    return;
  }
#endif
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

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

void scal(double alpha, std::span<double> x) {
  const std::size_t n = x.size();
#ifdef _OPENMP
  if (g_threaded.load() && n >= kParallelVecThreshold) {
#pragma omp parallel for simd schedule(static)
    for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
    return;
  }
#endif
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

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
