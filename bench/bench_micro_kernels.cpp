// Google-benchmark microbenchmarks for the hot kernels: numeric TTMc per
// mode, the Kronecker row update, TRSVD solvers and their narrow products,
// symbolic preprocessing, and the simulated collectives.
#include <benchmark/benchmark.h>

#include <map>

#include "core/hosvd.hpp"
#include "core/symbolic.hpp"
#include "core/trsvd.hpp"
#include "core/ttmc.hpp"
#include "la/blas.hpp"
#include "la/lanczos.hpp"
#include "la/linear_operator.hpp"
#include "smp/communicator.hpp"
#include "tensor/csf.hpp"
#include "tensor/generators.hpp"
#include "util/random.hpp"

namespace {

using ht::core::SymbolicTtmc;
using ht::la::Matrix;
using ht::tensor::CooTensor;
using ht::tensor::index_t;
using ht::tensor::Shape;

struct TtmcFixture {
  CooTensor x;
  SymbolicTtmc sym;
  std::vector<Matrix> factors;

  static const TtmcFixture& instance() {
    static TtmcFixture f = [] {
      TtmcFixture fx;
      fx.x = ht::tensor::random_zipf(Shape{20000, 1000, 120}, 200000,
                                     {0.9, 1.0, 0.4}, 42);
      fx.sym = SymbolicTtmc::build(fx.x);
      fx.factors = ht::core::random_orthonormal_factors(
          fx.x.shape(), std::vector<index_t>{10, 10, 10}, 7);
      return fx;
    }();
    return f;
  }
};

void BM_TtmcMode(benchmark::State& state) {
  const auto& f = TtmcFixture::instance();
  const auto mode = static_cast<std::size_t>(state.range(0));
  Matrix y;
  for (auto _ : state) {
    ht::core::ttmc_mode(f.x, f.factors, mode, f.sym.modes[mode], y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.x.nnz()));
}
BENCHMARK(BM_TtmcMode)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// Per-nnz vs CSF across fiber-length regimes: one tensor per fiber length
// (constant total nnz), mode 0 (whose tree's leaf runs are the generator's
// last-mode fibers).
struct FiberFixture {
  CooTensor x;
  SymbolicTtmc sym;
  ht::tensor::CsfTensor csf;
  std::vector<Matrix> factors;  // whole, for the per-nnz kernel
  std::vector<Matrix> compact;  // non-empty rows, for the CSF walk
};

const FiberFixture& fiber_fixture(index_t fiber_len) {
  static std::map<index_t, FiberFixture> cache;
  auto it = cache.find(fiber_len);
  if (it == cache.end()) {
    FiberFixture fx;
    fx.x = ht::tensor::random_fibered(Shape{2000, 2000, 3000},
                                      200000 / fiber_len, fiber_len, 97);
    fx.sym = SymbolicTtmc::build(fx.x);
    fx.csf = ht::tensor::CsfTensor::build(fx.x);
    fx.factors = ht::core::random_orthonormal_factors(
        fx.x.shape(), std::vector<index_t>{10, 10, 10}, 7);
    fx.compact = ht::core::random_orthonormal_factors(
        fx.x.shape(), std::vector<index_t>{10, 10, 10}, 7,
        fx.csf.nonempty_rows());
    it = cache.emplace(fiber_len, std::move(fx)).first;
  }
  return it->second;
}

void BM_TtmcKernelByFiberLength(benchmark::State& state) {
  const auto fiber_len = static_cast<index_t>(state.range(0));
  const bool csf_kernel = state.range(1) != 0;
  const auto& f = fiber_fixture(fiber_len);
  Matrix y;
  for (auto _ : state) {
    if (csf_kernel) {
      ht::core::ttmc_mode(f.x, f.compact, 0, f.csf.modes[0], y);
    } else {
      ht::core::ttmc_mode(f.x, f.factors, 0, f.sym.modes[0], y);
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.x.nnz()));
}
BENCHMARK(BM_TtmcKernelByFiberLength)
    ->ArgsProduct({{1, 2, 4, 8, 16}, {0, 1}})
    ->ArgNames({"fiber_len", "csf_kernel"})
    ->Unit(benchmark::kMillisecond);

void BM_SymbolicTtmc(benchmark::State& state) {
  const auto& f = TtmcFixture::instance();
  for (auto _ : state) {
    auto sym = SymbolicTtmc::build(f.x);
    benchmark::DoNotOptimize(sym.modes.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.x.nnz()));
}
BENCHMARK(BM_SymbolicTtmc)->Unit(benchmark::kMillisecond);

Matrix tall_skinny(std::size_t m, std::size_t c, std::uint64_t seed) {
  ht::Rng rng(seed);
  Matrix a(m, c);
  for (auto& v : a.flat()) v = rng.uniform(-1, 1);
  // Impose decay so Lanczos converges like on real TTMc output.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < c; ++j) a(i, j) /= (1.0 + j);
  }
  return a;
}

void BM_LanczosTrsvd(benchmark::State& state) {
  const Matrix a = tall_skinny(20000, 100, 3);
  for (auto _ : state) {
    ht::la::DenseOperator op(a);
    auto r = ht::la::lanczos_trsvd(op, 10);
    benchmark::DoNotOptimize(r.sigma.data());
  }
}
BENCHMARK(BM_LanczosTrsvd)->Unit(benchmark::kMillisecond);

void BM_GramTrsvd(benchmark::State& state) {
  const Matrix a = tall_skinny(20000, 100, 3);
  for (auto _ : state) {
    auto r = ht::la::gram_trsvd(a, 10);
    benchmark::DoNotOptimize(r.sigma.data());
  }
}
BENCHMARK(BM_GramTrsvd)->Unit(benchmark::kMillisecond);

// The warm TRSVD step's two narrow products at flickr-4d's largest Y(n)
// shape (59,659 x 125, 5-column partner), beside one gemv over the same
// matrix. Each reports the bytes of Y it streams per second; pick the team
// size with OMP_NUM_THREADS and compare with bench_e2e's STREAM triad.
struct NarrowFixture {
  Matrix y, z, u;
  std::vector<double> x, out;

  static NarrowFixture& instance() {
    static NarrowFixture f = [] {
      NarrowFixture fx;
      fx.y = tall_skinny(59659, 125, 11);
      fx.z = tall_skinny(125, 5, 12);
      fx.u = tall_skinny(59659, 5, 13);
      fx.x.assign(125, 1.0);
      fx.out.resize(59659);
      return fx;
    }();
    return f;
  }
};

void set_y_bytes(benchmark::State& state, const Matrix& y) {
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(y.size() * sizeof(double)));
}

void BM_GemvY(benchmark::State& state) {
  auto& f = NarrowFixture::instance();
  for (auto _ : state) {
    ht::la::gemv(f.y, f.x, f.out);
    benchmark::DoNotOptimize(f.out.data());
    benchmark::ClobberMemory();
  }
  set_y_bytes(state, f.y);
}
BENCHMARK(BM_GemvY)->Unit(benchmark::kMillisecond);

void BM_GemmYZ(benchmark::State& state) {
  auto& f = NarrowFixture::instance();
  Matrix w;
  for (auto _ : state) {
    ht::la::gemm_into(f.y, f.z, w);
    benchmark::DoNotOptimize(w.data());
    benchmark::ClobberMemory();
  }
  set_y_bytes(state, f.y);
}
BENCHMARK(BM_GemmYZ)->Unit(benchmark::kMillisecond);

void BM_GemmTnYU(benchmark::State& state) {
  auto& f = NarrowFixture::instance();
  Matrix z;
  for (auto _ : state) {
    ht::la::gemm_tn_into(f.y, f.u, z);
    benchmark::DoNotOptimize(z.data());
    benchmark::ClobberMemory();
  }
  set_y_bytes(state, f.y);
}
BENCHMARK(BM_GemmTnYU)->Unit(benchmark::kMillisecond);

void BM_AllreduceSum(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const std::size_t n = 4096;
  for (auto _ : state) {
    ht::smp::run_spmd(p, [n](ht::smp::Communicator& comm) {
      std::vector<double> v(n, comm.rank());
      comm.allreduce_sum(v);
      benchmark::DoNotOptimize(v.data());
    });
  }
}
BENCHMARK(BM_AllreduceSum)->Arg(2)->Arg(8)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
