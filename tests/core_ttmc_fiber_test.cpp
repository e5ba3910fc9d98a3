// Golden equivalence of the fiber-factored TTMc kernels against the
// per-nonzero kernels, plus the fiber-index invariants and the kAuto
// selection heuristic.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/hooi.hpp"
#include "core/symbolic.hpp"
#include "core/ttmc.hpp"
#include "dist/dist_hooi.hpp"
#include "la/matrix.hpp"
#include "tensor/generators.hpp"
#include "util/random.hpp"

namespace {

using ht::core::ModeSymbolic;
using ht::core::Schedule;
using ht::core::SymbolicTtmc;
using ht::core::TtmcKernel;
using ht::core::TtmcOptions;
using ht::la::Matrix;
using ht::tensor::CooTensor;
using ht::tensor::index_t;
using ht::tensor::nnz_t;
using ht::tensor::Shape;

Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  ht::Rng rng(seed);
  Matrix a(m, n);
  for (auto& v : a.flat()) v = rng.uniform(-1.0, 1.0);
  return a;
}

std::vector<Matrix> random_factors(const Shape& shape,
                                   const std::vector<index_t>& ranks,
                                   std::uint64_t seed) {
  std::vector<Matrix> f;
  for (std::size_t n = 0; n < shape.size(); ++n) {
    f.push_back(random_matrix(shape[n], ranks[n], seed + n));
  }
  return f;
}

// Factoring reorders floating-point additions, so equivalence is to a tight
// absolute tolerance rather than bit-for-bit (values are O(1), rows hold at
// most a few hundred terms).
constexpr double kTol = 1e-11;

struct FiberCase {
  std::string name;
  CooTensor tensor;
  std::vector<index_t> ranks;
};

std::vector<FiberCase> equivalence_cases() {
  std::vector<FiberCase> cases;
  cases.push_back({"order3_fibered",
                   ht::tensor::random_fibered(Shape{40, 30, 50}, 300, 6, 11),
                   {4, 3, 5}});
  cases.push_back({"order3_scattered",
                   ht::tensor::random_uniform(Shape{40, 30, 50}, 800, 13),
                   {4, 3, 5}});
  cases.push_back({"order4_fibered",
                   ht::tensor::random_fibered(Shape{15, 12, 10, 40}, 250, 5, 17),
                   {3, 2, 4, 3}});
  cases.push_back({"order4_scattered",
                   ht::tensor::random_uniform(Shape{15, 12, 10, 40}, 700, 19),
                   {3, 2, 4, 3}});
  cases.push_back({"order5_fibered",
                   ht::tensor::random_fibered(Shape{8, 7, 6, 5, 20}, 150, 4, 23),
                   {2, 2, 2, 2, 3}});
  return cases;
}

TEST(FiberIndexTest, InvariantsHoldPerMode) {
  for (const auto& c : equivalence_cases()) {
    const auto& x = c.tensor;
    if (x.order() != 3 && x.order() != 4) continue;
    const SymbolicTtmc sym = SymbolicTtmc::build(x);
    for (std::size_t n = 0; n < x.order(); ++n) {
      const ModeSymbolic& m = sym.modes[n];
      ASSERT_TRUE(m.has_fibers()) << c.name << " mode " << n;
      ASSERT_EQ(m.fiber_row_ptr.size(), m.num_rows() + 1);
      ASSERT_EQ(m.fiber_ptr.front(), 0u);
      ASSERT_EQ(m.fiber_ptr.back(), x.nnz());

      std::vector<std::size_t> others;
      for (std::size_t t = 0; t < x.order(); ++t) {
        if (t != n) others.push_back(t);
      }
      const auto idx_a = x.indices(others[0]);
      for (std::size_t r = 0; r < m.num_rows(); ++r) {
        ASSERT_EQ(m.fiber_ptr[m.fiber_row_ptr[r]], m.row_ptr[r]);
        ASSERT_EQ(m.fiber_ptr[m.fiber_row_ptr[r + 1]], m.row_ptr[r + 1]);
        for (nnz_t k = m.fiber_row_ptr[r]; k < m.fiber_row_ptr[r + 1]; ++k) {
          ASSERT_LT(m.fiber_ptr[k], m.fiber_ptr[k + 1]);
          const index_t a = idx_a[m.nnz_order[m.fiber_ptr[k]]];
          for (nnz_t i = m.fiber_ptr[k]; i < m.fiber_ptr[k + 1]; ++i) {
            ASSERT_EQ(idx_a[m.nnz_order[i]], a)
                << c.name << " mode " << n << ": fiber " << k
                << " mixes leading indices";
          }
          // Fibers within a row are maximal: adjacent fibers differ.
          if (k + 1 < m.fiber_row_ptr[r + 1]) {
            ASSERT_NE(idx_a[m.nnz_order[m.fiber_ptr[k + 1]]], a);
          }
        }
      }

      if (x.order() == 4) {
        const auto idx_b = x.indices(others[1]);
        ASSERT_EQ(m.subfiber_fiber_ptr.size(), m.fiber_ptr.size());
        for (std::size_t k = 0; k + 1 < m.fiber_ptr.size(); ++k) {
          ASSERT_EQ(m.subfiber_ptr[m.subfiber_fiber_ptr[k]], m.fiber_ptr[k]);
          ASSERT_EQ(m.subfiber_ptr[m.subfiber_fiber_ptr[k + 1]],
                    m.fiber_ptr[k + 1]);
          for (nnz_t j = m.subfiber_fiber_ptr[k];
               j < m.subfiber_fiber_ptr[k + 1]; ++j) {
            const nnz_t first = m.nnz_order[m.subfiber_ptr[j]];
            for (nnz_t i = m.subfiber_ptr[j]; i < m.subfiber_ptr[j + 1]; ++i) {
              ASSERT_EQ(idx_a[m.nnz_order[i]], idx_a[first]);
              ASSERT_EQ(idx_b[m.nnz_order[i]], idx_b[first]);
            }
          }
        }
      }
    }
  }
}

TEST(FiberIndexTest, OptOutBuildsNoFibers) {
  const CooTensor x = ht::tensor::random_fibered(Shape{20, 20, 20}, 50, 4, 3);
  const SymbolicTtmc sym = SymbolicTtmc::build(x, /*with_fibers=*/false);
  for (const auto& m : sym.modes) {
    EXPECT_FALSE(m.has_fibers());
    EXPECT_EQ(m.avg_fiber_length(), 0.0);
  }
}

TEST(FiberIndexTest, OrderFiveSkipsFiberIndex) {
  const CooTensor x =
      ht::tensor::random_uniform(Shape{5, 5, 5, 5, 5}, 100, 29);
  const SymbolicTtmc sym = SymbolicTtmc::build(x);
  for (const auto& m : sym.modes) EXPECT_FALSE(m.has_fibers());
}

TEST(FiberTtmcTest, MatchesPerNnzFullModeAllSchedules) {
  for (const auto& c : equivalence_cases()) {
    const auto& x = c.tensor;
    const auto factors = random_factors(x.shape(), c.ranks, 31);
    const SymbolicTtmc sym = SymbolicTtmc::build(x);
    for (std::size_t n = 0; n < x.order(); ++n) {
      for (const Schedule s : {Schedule::kDynamic, Schedule::kStatic}) {
        Matrix y_nnz, y_fib;
        ht::core::ttmc_mode(x, factors, n, sym.modes[n], y_nnz,
                            {s, TtmcKernel::kPerNnz});
        ht::core::ttmc_mode(x, factors, n, sym.modes[n], y_fib,
                            {s, TtmcKernel::kFiberFactored});
        ASSERT_EQ(y_nnz.rows(), y_fib.rows());
        ASSERT_EQ(y_nnz.cols(), y_fib.cols());
        EXPECT_TRUE(y_nnz.approx_equal(y_fib, kTol))
            << c.name << " mode " << n << " schedule "
            << (s == Schedule::kDynamic ? "dynamic" : "static");
      }
    }
  }
}

TEST(FiberTtmcTest, MatchesPerNnzSubsetPath) {
  for (const auto& c : equivalence_cases()) {
    const auto& x = c.tensor;
    const auto factors = random_factors(x.shape(), c.ranks, 37);
    const SymbolicTtmc sym = SymbolicTtmc::build(x);
    for (std::size_t n = 0; n < x.order(); ++n) {
      // Every other compact row, as the coarse-grain owners would request.
      std::vector<std::uint32_t> positions;
      for (std::uint32_t p = 0; p < sym.modes[n].num_rows(); p += 2) {
        positions.push_back(p);
      }
      for (const Schedule s : {Schedule::kDynamic, Schedule::kStatic}) {
        Matrix y_nnz, y_fib;
        ht::core::ttmc_mode_subset(x, factors, n, sym.modes[n], positions,
                                   y_nnz, {s, TtmcKernel::kPerNnz});
        ht::core::ttmc_mode_subset(x, factors, n, sym.modes[n], positions,
                                   y_fib, {s, TtmcKernel::kFiberFactored});
        EXPECT_TRUE(y_nnz.approx_equal(y_fib, kTol))
            << c.name << " mode " << n;
      }
    }
  }
}

TEST(FiberTtmcTest, OrderFiveFiberRequestFallsBackExactly) {
  const CooTensor x =
      ht::tensor::random_fibered(Shape{8, 7, 6, 5, 20}, 150, 4, 23);
  const auto factors = random_factors(x.shape(), {2, 2, 2, 2, 3}, 41);
  const SymbolicTtmc sym = SymbolicTtmc::build(x);
  Matrix y_nnz, y_fib;
  ht::core::ttmc_mode(x, factors, 0, sym.modes[0], y_nnz,
                      {Schedule::kDynamic, TtmcKernel::kPerNnz});
  ht::core::ttmc_mode(x, factors, 0, sym.modes[0], y_fib,
                      {Schedule::kDynamic, TtmcKernel::kFiberFactored});
  // No fiber kernel exists for order 5: same kernel runs, bit-equal result.
  EXPECT_TRUE(y_nnz.approx_equal(y_fib, 0.0));
}

TEST(FiberTtmcTest, AutoHeuristicSelectsByFiberLength) {
  const CooTensor dense_fibers =
      ht::tensor::random_fibered(Shape{30, 30, 60}, 200, 8, 43);
  const CooTensor sparse_fibers =
      ht::tensor::random_uniform(Shape{200, 200, 200}, 500, 47);
  const SymbolicTtmc sym_dense = SymbolicTtmc::build(dense_fibers);
  const SymbolicTtmc sym_sparse = SymbolicTtmc::build(sparse_fibers);

  // Mode 0 of the fibered tensor sees ~8-long fibers (leading other mode is
  // mode 1, shared along each last-mode fiber).
  EXPECT_GE(sym_dense.modes[0].avg_fiber_length(), 4.0);
  EXPECT_EQ(ht::core::ttmc_selected_kernel(sym_dense.modes[0], 3, {}),
            TtmcKernel::kFiberFactored);

  // 500 nonzeros in a 200^3 cube: virtually every fiber is a singleton.
  EXPECT_LT(sym_sparse.modes[0].avg_fiber_length(), 2.0);
  EXPECT_EQ(ht::core::ttmc_selected_kernel(sym_sparse.modes[0], 3, {}),
            TtmcKernel::kPerNnz);

  // The threshold is a knob: an impossible threshold forces per-nnz, a
  // trivial one forces fiber-factored.
  TtmcOptions never;
  never.fiber_threshold = 1e9;
  EXPECT_EQ(ht::core::ttmc_selected_kernel(sym_dense.modes[0], 3, never),
            TtmcKernel::kPerNnz);
  TtmcOptions always;
  always.fiber_threshold = 0.0;
  EXPECT_EQ(ht::core::ttmc_selected_kernel(sym_sparse.modes[0], 3, always),
            TtmcKernel::kFiberFactored);
}

TEST(FiberTtmcTest, HooiConvergesIdenticallyUnderBothKernels) {
  const CooTensor x = ht::tensor::random_fibered(Shape{25, 20, 40}, 300, 5, 53);
  ht::core::HooiOptions base;
  base.ranks = {3, 3, 3};
  base.max_iterations = 3;
  base.fit_tolerance = 0.0;

  ht::core::HooiOptions per_nnz = base;
  per_nnz.ttmc.kernel = TtmcKernel::kPerNnz;
  ht::core::HooiOptions fiber = base;
  fiber.ttmc.kernel = TtmcKernel::kFiberFactored;

  const auto a = ht::core::hooi(x, per_nnz);
  const auto b = ht::core::hooi(x, fiber);
  ASSERT_EQ(a.fits.size(), b.fits.size());
  for (std::size_t i = 0; i < a.fits.size(); ++i) {
    EXPECT_NEAR(a.fits[i], b.fits[i], 1e-8) << "sweep " << i;
  }
}

TEST(FiberTtmcTest, DistHooiMatchesUnderBothKernels) {
  const CooTensor x = ht::tensor::random_fibered(Shape{25, 20, 40}, 250, 5, 59);
  ht::dist::DistHooiOptions base;
  base.ranks = {3, 3, 3};
  base.max_iterations = 2;
  base.num_ranks = 4;
  base.grain = ht::dist::Grain::kCoarse;  // exercises ttmc_mode_subset

  ht::dist::DistHooiOptions per_nnz = base;
  per_nnz.ttmc.kernel = TtmcKernel::kPerNnz;
  ht::dist::DistHooiOptions fiber = base;
  fiber.ttmc.kernel = TtmcKernel::kFiberFactored;

  const auto a = ht::dist::dist_hooi(x, per_nnz);
  const auto b = ht::dist::dist_hooi(x, fiber);
  ASSERT_EQ(a.fits.size(), b.fits.size());
  for (std::size_t i = 0; i < a.fits.size(); ++i) {
    EXPECT_NEAR(a.fits[i], b.fits[i], 1e-8) << "sweep " << i;
  }
}

}  // namespace
