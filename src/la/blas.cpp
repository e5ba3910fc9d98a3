#include "la/blas.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

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
  double s = 0.0;
#ifdef _OPENMP
  if (g_threaded.load() && n >= kParallelVecThreshold) {
#pragma omp parallel for simd reduction(+ : s) schedule(static)
    for (std::size_t i = 0; i < n; ++i) s += x[i] * y[i];
    return s;
  }
#endif
#pragma omp simd reduction(+ : s)
  for (std::size_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

double nrm2(std::span<const double> x) {
  const std::size_t n = x.size();
  double s = 0.0;
#ifdef _OPENMP
  if (g_threaded.load() && n >= kParallelVecThreshold) {
#pragma omp parallel for simd reduction(+ : s) schedule(static)
    for (std::size_t i = 0; i < n; ++i) s += x[i] * x[i];
    return std::sqrt(s);
  }
#endif
#pragma omp simd reduction(+ : s)
  for (std::size_t i = 0; i < n; ++i) s += x[i] * x[i];
  return std::sqrt(s);
}

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

// Shared tail of gemv_t / gemm_tn: per-thread partial buffers of `width`
// entries in one arena, followed by a parallel strided reduction over the
// output entries. Replaces the old `omp critical` accumulation, which
// serialized O(threads * width) work behind a lock at high thread counts;
// the reduction sums thread partials in ascending thread order, so the
// result is deterministic for a fixed thread count.
#ifdef _OPENMP
template <typename FillPartial>
void reduce_over_threads(std::size_t width, std::span<double> out,
                         FillPartial&& fill) {
  std::vector<double> arena;
  int nthreads = 1;
#pragma omp parallel
  {
#pragma omp single
    {
      nthreads = omp_get_num_threads();
      arena.assign(static_cast<std::size_t>(nthreads) * width, 0.0);
    }
    double* local =
        arena.data() + static_cast<std::size_t>(omp_get_thread_num()) * width;
    fill(local);
    // fill's worksharing loop ends with an implicit barrier, so every
    // thread's partial is complete before the reduction below starts.
#pragma omp for schedule(static)
    for (std::size_t j = 0; j < width; ++j) {
      double s = 0.0;
      for (int t = 0; t < nthreads; ++t) {
        s += arena[static_cast<std::size_t>(t) * width + j];
      }
      out[j] = s;
    }
  }
}
#endif

void gemv_t(const Matrix& a, std::span<const double> x, std::span<double> y) {
  HT_CHECK(x.size() == a.rows());
  HT_CHECK(y.size() == a.cols());
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
#ifdef _OPENMP
  const bool par = g_threaded.load() && m >= kParallelRowThreshold && n >= 8;
  if (par) {
    reduce_over_threads(n, y, [&](double* local) {
#pragma omp for schedule(static)
      for (std::size_t i = 0; i < m; ++i) {
        const auto row = a.row(i);
        const double xi = x[i];
        for (std::size_t j = 0; j < n; ++j) local[j] += xi * row[j];
      }
    });
    return;
  }
#endif
  std::fill(y.begin(), y.end(), 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const auto row = a.row(i);
    const double xi = x[i];
    for (std::size_t j = 0; j < n; ++j) y[j] += xi * row[j];
  }
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
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  c.resize(k, n);
#ifdef _OPENMP
  const bool par = g_threaded.load() && m >= kParallelRowThreshold;
  if (par) {
    reduce_over_threads(k * n, c.flat(), [&](double* local) {
#pragma omp for schedule(static)
      for (std::size_t i = 0; i < m; ++i) {
        const double* ai = a.data() + i * k;
        const double* bi = b.data() + i * n;
        for (std::size_t l = 0; l < k; ++l) {
          const double ail = ai[l];
          double* cl = local + l * n;
          for (std::size_t j = 0; j < n; ++j) cl[j] += ail * bi[j];
        }
      }
    });
    return;
  }
#endif
  c.set_zero();
  for (std::size_t i = 0; i < m; ++i) {
    const double* ai = a.data() + i * k;
    const double* bi = b.data() + i * n;
    for (std::size_t l = 0; l < k; ++l) {
      const double ail = ai[l];
      double* cl = c.data() + l * n;
      for (std::size_t j = 0; j < n; ++j) cl[j] += ail * bi[j];
    }
  }
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
