// CSF tree invariants, golden equivalence of the CSF TTMc kernel against
// the per-nnz kernel across orders and entry points, the plan's kernel
// selection and one index, and thread-count determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <variant>
#include <vector>

#include "core/hooi.hpp"
#include "core/rank_sweep.hpp"
#include "core/symbolic.hpp"
#include "core/ttmc.hpp"
#include "core/ttmc_plan.hpp"
#include "dist/dist_hooi.hpp"
#include "la/matrix.hpp"
#include "parallel/thread_info.hpp"
#include "tensor/csf.hpp"
#include "tensor/generators.hpp"
#include "util/random.hpp"

namespace {

using ht::core::ModeSymbolic;
using ht::core::SymbolicTtmc;
using ht::core::TtmcKernel;
using ht::la::Matrix;
using ht::tensor::CooTensor;
using ht::tensor::CsfTensor;
using ht::tensor::CsfTree;
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

// The CSF walk reassociates additions (and may reorder the Kronecker
// digits), so equivalence is to a tight absolute tolerance.
constexpr double kTol = 1e-11;

struct CsfCase {
  std::string name;
  CooTensor tensor;
  std::vector<index_t> ranks;
};

std::vector<CsfCase> equivalence_cases() {
  std::vector<CsfCase> cases;
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

TEST(CsfTreeTest, StructureInvariantsHoldPerMode) {
  for (const auto& c : equivalence_cases()) {
    const auto& x = c.tensor;
    const CsfTensor csf = CsfTensor::build(x);
    ASSERT_EQ(csf.order(), x.order());
    const SymbolicTtmc sym = SymbolicTtmc::build(x);
    for (std::size_t n = 0; n < x.order(); ++n) {
      const CsfTree& t = csf.modes[n];
      const std::size_t L = t.levels();
      ASSERT_EQ(L, x.order()) << c.name;
      ASSERT_EQ(t.root_mode(), n);

      // Level modes: a permutation with the internal part shortest-first,
      // counting the distinct indices that occur (= non-empty rows).
      std::vector<std::size_t> seen = t.level_modes;
      std::sort(seen.begin(), seen.end());
      for (std::size_t m = 0; m < L; ++m) ASSERT_EQ(seen[m], m);
      for (std::size_t d = 2; d < L; ++d) {
        ASSERT_LE(sym.modes[t.level_modes[d - 1]].num_rows(),
                  sym.modes[t.level_modes[d]].num_rows())
            << c.name << " mode " << n << ": internal levels not shortest-first";
      }

      // Root nodes are exactly the compact symbolic rows, in order.
      ASSERT_EQ(t.num_roots(), sym.modes[n].num_rows());
      for (std::size_t k = 0; k < t.num_roots(); ++k) {
        ASSERT_EQ(t.idx[0][k], sym.modes[n].rows[k]);
      }

      // CSR nesting: ptr[d] spans cover the next level exactly, and the
      // leaves count the nonzeros.
      ASSERT_EQ(t.num_leaves(), x.nnz());
      for (std::size_t d = 1; d < L; ++d) {
        ASSERT_EQ(t.ptr[d].size(), t.num_nodes(d - 1) + 1);
        ASSERT_EQ(t.ptr[d].front(), 0u);
        ASSERT_EQ(t.ptr[d].back(), t.num_nodes(d));
        for (std::size_t k = 0; k + 1 < t.ptr[d].size(); ++k) {
          ASSERT_LT(t.ptr[d][k], t.ptr[d][k + 1]) << "empty node";
        }
      }
      // root_leaf_ptr is each root's leaf span: compose ptr[1..L-1].
      for (std::size_t k = 0; k < t.num_roots(); ++k) {
        nnz_t lo = k, hi = k + 1;
        for (std::size_t d = 1; d < L; ++d) {
          lo = t.ptr[d][lo];
          hi = t.ptr[d][hi];
        }
        ASSERT_EQ(t.root_leaf_ptr[k], lo);
        ASSERT_EQ(t.root_leaf_ptr[k + 1], hi);
      }

      // The root-to-leaf paths, as (coordinates, value) tuples, are exactly
      // the tensor's nonzeros: every leaf below a node shares the node's
      // prefix, and the values were gathered in leaf order.
      std::vector<nnz_t> node(L);  // current node per level on the path
      std::vector<std::pair<std::vector<index_t>, double>> paths, entries;
      for (nnz_t s = 0; s < t.num_leaves(); ++s) {
        node[L - 1] = s;
        for (std::size_t d = L - 1; d-- > 0;) {
          // Parent of node[d + 1]: the last level-d node whose child span
          // starts at or before it.
          const auto& cp = t.ptr[d + 1];
          node[d] = static_cast<nnz_t>(
              std::upper_bound(cp.begin(), cp.end(), node[d + 1]) -
              cp.begin() - 1);
        }
        std::vector<index_t> coords(L);
        for (std::size_t d = 0; d < L; ++d) {
          coords[t.level_modes[d]] = t.idx[d][node[d]];
        }
        paths.emplace_back(std::move(coords), t.values[s]);
      }
      for (nnz_t e = 0; e < x.nnz(); ++e) {
        std::vector<index_t> coords(L);
        for (std::size_t m = 0; m < L; ++m) coords[m] = x.index(m, e);
        entries.emplace_back(std::move(coords), x.value(e));
      }
      std::sort(paths.begin(), paths.end());
      std::sort(entries.begin(), entries.end());
      ASSERT_EQ(paths, entries) << c.name << " mode " << n;

      EXPECT_GT(t.prefix_sharing_ratio(), 0.99);
      EXPECT_GT(t.avg_leaf_fiber_length(), 0.0);
    }
  }
}

TEST(CsfTtmcTest, MatchesOtherKernelsFullMode) {
  for (const auto& c : equivalence_cases()) {
    const auto& x = c.tensor;
    const auto factors = random_factors(x.shape(), c.ranks, 31);
    const SymbolicTtmc sym = SymbolicTtmc::build(x);
    const CsfTensor csf = CsfTensor::build(x);
    for (std::size_t n = 0; n < x.order(); ++n) {
      Matrix y_nnz, y_csf;
      ht::core::ttmc_mode(x, factors, n, sym.modes[n], y_nnz);
      ht::core::ttmc_mode(x, factors, n, csf.modes[n], y_csf);
      ASSERT_EQ(y_nnz.rows(), y_csf.rows());
      ASSERT_EQ(y_nnz.cols(), y_csf.cols());
      EXPECT_TRUE(y_nnz.approx_equal(y_csf, kTol))
          << c.name << " mode " << n << " vs per-nnz";
    }
  }
}

TEST(CsfTtmcTest, MatchesPerNnzSubsetPath) {
  for (const auto& c : equivalence_cases()) {
    const auto& x = c.tensor;
    const auto factors = random_factors(x.shape(), c.ranks, 37);
    const SymbolicTtmc sym = SymbolicTtmc::build(x);
    const CsfTensor csf = CsfTensor::build(x);
    for (std::size_t n = 0; n < x.order(); ++n) {
      // Every other compact row, as the coarse-grain owners would request.
      std::vector<std::uint32_t> positions;
      for (std::uint32_t p = 0; p < sym.modes[n].num_rows(); p += 2) {
        positions.push_back(p);
      }
      Matrix y_nnz, y_csf;
      ht::core::ttmc_mode_subset(x, factors, n, sym.modes[n], positions,
                                 y_nnz);
      ht::core::ttmc_mode_subset(x, factors, n, csf.modes[n], positions,
                                 y_csf);
      EXPECT_TRUE(y_nnz.approx_equal(y_csf, kTol)) << c.name << " mode " << n;
    }
  }
}

TEST(CsfTtmcTest, DefaultSelectionPinsPrefixRegimes) {
  // The default plan (kCsf) builds and runs the forest, prefix-heavy or
  // prefix-free. No tensor statistic enters the choice.
  const CooTensor heavy =
      ht::tensor::random_fibered(Shape{30, 30, 60}, 200, 8, 43);
  const CooTensor free_ =
      ht::tensor::random_uniform(Shape{200, 200, 200}, 500, 47);
  for (const CooTensor* x : {&heavy, &free_}) {
    const ht::core::TtmcPlan plan = ht::core::TtmcPlan::build(*x);
    EXPECT_TRUE(std::holds_alternative<CsfTensor>(plan.index));
    EXPECT_EQ(plan.kernel(), TtmcKernel::kCsf);
  }

  // ttmc_wants_csf: kCsf on orders 2..8; never for kPerNnz.
  for (std::size_t order = 2; order <= 8; ++order) {
    EXPECT_TRUE(ht::core::ttmc_wants_csf(order, TtmcKernel::kCsf)) << order;
  }
  EXPECT_FALSE(ht::core::ttmc_wants_csf(9, TtmcKernel::kCsf));
  EXPECT_FALSE(ht::core::ttmc_wants_csf(1, TtmcKernel::kCsf));
  EXPECT_FALSE(ht::core::ttmc_wants_csf(3, TtmcKernel::kPerNnz));
}

TEST(TtmcPlanTest, HoldsOneIndex) {
  // Whichever index the plan holds, rows(n) is the mode's compact row set
  // and kernel() names the index.
  const auto expect_rows = [](const ht::core::TtmcPlan& plan,
                              const CooTensor& x) {
    for (std::size_t n = 0; n < x.order(); ++n) {
      EXPECT_EQ(plan.rows(n), ht::core::build_mode_symbolic(x, n).rows)
          << "mode " << n;
    }
  };

  // The default kCsf on 3- and 4-mode tensors: the forest and no lists.
  const CooTensor x3 =
      ht::tensor::random_fibered(Shape{25, 20, 40}, 300, 5, 81);
  const CooTensor x4 =
      ht::tensor::random_fibered(Shape{12, 10, 8, 25}, 300, 5, 83);
  for (const CooTensor* x : {&x3, &x4}) {
    const ht::core::TtmcPlan plan = ht::core::TtmcPlan::build(*x);
    EXPECT_TRUE(std::holds_alternative<CsfTensor>(plan.index));
    EXPECT_FALSE(std::holds_alternative<SymbolicTtmc>(plan.index));
    EXPECT_EQ(plan.kernel(), TtmcKernel::kCsf);
    expect_rows(plan, *x);
  }

  // kPerNnz, an order past the walk's depth and an empty tensor: the lists
  // and no forest, whatever kernel was asked for.
  const CooTensor order9 = ht::tensor::random_uniform(Shape(9, 4), 60, 85);
  const CooTensor empty(Shape{5, 6, 7});
  const std::vector<std::pair<const CooTensor*, TtmcKernel>> lists_cases = {
      {&x3, TtmcKernel::kPerNnz},
      {&order9, TtmcKernel::kPerNnz},
      {&order9, TtmcKernel::kCsf},
      {&empty, TtmcKernel::kCsf}};
  for (const auto& [x, kernel] : lists_cases) {
    const ht::core::TtmcPlan plan = ht::core::TtmcPlan::build(*x, kernel);
    EXPECT_TRUE(std::holds_alternative<SymbolicTtmc>(plan.index));
    EXPECT_FALSE(std::holds_alternative<CsfTensor>(plan.index));
    EXPECT_EQ(plan.kernel(), TtmcKernel::kPerNnz);
    expect_rows(plan, *x);
  }
}

TEST(CsfTtmcTest, DeterministicAcrossThreadCounts) {
  // One row is accumulated by exactly one thread, in tree order or update
  // list order, and the CSF tile boundaries do not depend on the team
  // size: both kernels give bitwise identical results for any thread
  // count, on the full mode and on a row subset.
  const CooTensor x = ht::tensor::random_fibered(Shape{40, 30, 50}, 400, 6, 61);
  const auto factors = random_factors(x.shape(), {4, 3, 5}, 67);
  const SymbolicTtmc sym = SymbolicTtmc::build(x);
  const CsfTensor csf = CsfTensor::build(x);
  std::vector<std::uint32_t> positions;
  for (std::uint32_t p = 1; p < sym.modes[0].num_rows(); p += 3) {
    positions.push_back(p);
  }
  const auto check = [&](const auto& index) {
    Matrix y1, y4, sub1, sub4;
    for (const int threads : {1, 4}) {
      ht::parallel::ThreadScope scope(threads);
      ht::core::ttmc_mode(x, factors, 0, index, threads == 1 ? y1 : y4);
      ht::core::ttmc_mode_subset(x, factors, 0, index, positions,
                                 threads == 1 ? sub1 : sub4);
    }
    EXPECT_TRUE(y1.approx_equal(y4, 0.0));
    EXPECT_TRUE(sub1.approx_equal(sub4, 0.0));
  };
  check(csf.modes[0]);
  check(sym.modes[0]);
}

TEST(CsfTtmcTest, HooiConvergesIdenticallyUnderCsfKernel) {
  for (const Shape& shape : {Shape{25, 20, 40}, Shape{12, 10, 8, 25}}) {
    const CooTensor x = ht::tensor::random_fibered(shape, 300, 5, 53);
    ht::core::HooiOptions base;
    base.ranks.assign(x.order(), 3);
    base.max_iterations = 3;
    base.fit_tolerance = 0.0;

    ht::core::HooiOptions per_nnz = base;
    per_nnz.ttmc_kernel = TtmcKernel::kPerNnz;
    ht::core::HooiOptions with_csf = base;
    with_csf.ttmc_kernel = TtmcKernel::kCsf;

    const auto a = ht::core::hooi(x, per_nnz);
    const auto b = ht::core::hooi(x, with_csf);
    ASSERT_EQ(a.fits.size(), b.fits.size()) << x.order() << "-mode";
    for (std::size_t i = 0; i < a.fits.size(); ++i) {
      EXPECT_NEAR(a.fits[i], b.fits[i], 1e-8) << "sweep " << i;
    }

    // A hand-assembled forest-only plan through the plan overload runs the
    // same computation as the plan hooi builds itself.
    const ht::core::TtmcPlan plan{.index = CsfTensor::build(x)};
    const auto c = ht::core::hooi(x, with_csf, plan);
    EXPECT_EQ(b.fits, c.fits) << x.order() << "-mode";
  }
}

TEST(CsfTtmcTest, RankSweepReusesTreesAcrossGrid) {
  const CooTensor x = ht::tensor::random_fibered(Shape{25, 20, 40}, 300, 5, 71);
  ht::core::HooiOptions base;
  base.max_iterations = 2;
  base.ttmc_kernel = TtmcKernel::kCsf;
  const std::vector<std::vector<index_t>> grid = {{2, 2, 2}, {3, 3, 3}};
  const auto swept = ht::core::rank_sweep(x, grid, base);
  ASSERT_EQ(swept.entries.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ht::core::HooiOptions o = base;
    o.ranks = grid[i];
    const auto solo = ht::core::hooi(x, o);
    EXPECT_NEAR(swept.entries[i].fit, solo.final_fit(), 1e-10);
  }
}

TEST(CsfTtmcTest, DistHooiMatchesUnderCsfKernelBothGrains) {
  const CooTensor x = ht::tensor::random_fibered(Shape{25, 20, 40}, 250, 5, 59);
  for (const auto grain : {ht::dist::Grain::kCoarse, ht::dist::Grain::kFine}) {
    ht::dist::DistHooiOptions base;
    base.ranks = {3, 3, 3};
    base.max_iterations = 2;
    base.num_ranks = 4;
    base.grain = grain;  // coarse exercises the CSF subset path

    ht::dist::DistHooiOptions per_nnz = base;
    per_nnz.ttmc_kernel = TtmcKernel::kPerNnz;
    ht::dist::DistHooiOptions with_csf = base;
    with_csf.ttmc_kernel = TtmcKernel::kCsf;

    const auto a = ht::dist::dist_hooi(x, per_nnz);
    const auto b = ht::dist::dist_hooi(x, with_csf);
    ASSERT_EQ(a.fits.size(), b.fits.size());
    for (std::size_t i = 0; i < a.fits.size(); ++i) {
      EXPECT_NEAR(a.fits[i], b.fits[i], 1e-8)
          << (grain == ht::dist::Grain::kCoarse ? "coarse" : "fine")
          << " sweep " << i;
    }
  }
}

}  // namespace
