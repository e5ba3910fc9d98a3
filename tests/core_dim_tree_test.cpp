// Golden equivalence of tree-served TTMc against the direct kernels across
// orders 3/4/5 x {full mode, subset, HOOI, distributed coarse grain} x both
// OpenMP schedules, plus unit tests pinning the kAuto cost model's choice
// on degenerate shapes.
#include <gtest/gtest.h>

#include <vector>

#include "core/dim_tree.hpp"
#include "core/hooi.hpp"
#include "core/rank_sweep.hpp"
#include "core/symbolic.hpp"
#include "core/ttmc_plan.hpp"
#include "dist/dist_hooi.hpp"
#include "la/matrix.hpp"
#include "tensor/generators.hpp"
#include "util/random.hpp"

namespace {

using ht::core::DimTreePlan;
using ht::core::Schedule;
using ht::core::SymbolicTtmc;
using ht::core::TtmcOptions;
using ht::core::TtmcPlan;
using ht::core::TtmcScheduler;
using ht::core::TtmcStrategy;
using ht::la::Matrix;
using ht::tensor::CooTensor;
using ht::tensor::index_t;
using ht::tensor::Shape;

// Reordered floating-point sums: tight absolute tolerance, not bit-equal.
constexpr double kTol = 1e-12;

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

struct TreeCase {
  std::string name;
  CooTensor tensor;
  std::vector<index_t> ranks;
};

std::vector<TreeCase> equivalence_cases() {
  std::vector<TreeCase> cases;
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

TEST(DimTreePlanTest, StructureMatchesSymbolic) {
  for (const auto& c : equivalence_cases()) {
    const auto& x = c.tensor;
    const DimTreePlan tree = DimTreePlan::build(x);
    const SymbolicTtmc sym = SymbolicTtmc::build(x);
    EXPECT_EQ(tree.order(), x.order());
    EXPECT_EQ(tree.split(), (x.order() + 1) / 2);
    for (std::size_t n = 0; n < x.order(); ++n) {
      // Tree-served Y(n) has one row per non-empty mode-n slice, in the
      // compact order of ModeSymbolic.
      ASSERT_EQ(tree.serve_rows(n), sym.modes[n].num_rows()) << c.name;
      const auto& chain = tree.serve_chain(n);
      if (!chain.empty()) {
        const auto& rows = chain.back().out_idx;
        ASSERT_EQ(rows.size(), 1u);
        for (std::size_t r = 0; r < rows[0].size(); ++r) {
          ASSERT_EQ(rows[0][r], sym.modes[n].rows[r])
              << c.name << " mode " << n << " row " << r;
        }
      }
      EXPECT_GT(tree.serve_cost(n, c.ranks), 0.0);
    }
    EXPECT_GT(tree.contract_cost(true, c.ranks), 0.0);
    EXPECT_GT(tree.contract_cost(false, c.ranks), 0.0);
  }
}

TEST(DimTreeTtmcTest, TreeServedMatchesDirectFullMode) {
  for (const auto& c : equivalence_cases()) {
    const auto& x = c.tensor;
    const auto factors = random_factors(x.shape(), c.ranks, 31);
    for (const Schedule s : {Schedule::kDynamic, Schedule::kStatic}) {
      TtmcOptions direct_opts;
      direct_opts.schedule = s;
      direct_opts.strategy = TtmcStrategy::kDirect;
      TtmcOptions tree_opts = direct_opts;
      tree_opts.strategy = TtmcStrategy::kTree;
      const TtmcPlan direct_plan = TtmcPlan::build(x, direct_opts);
      const TtmcPlan tree_plan = TtmcPlan::build(x, tree_opts);
      TtmcScheduler direct(x, direct_plan, c.ranks);
      TtmcScheduler served(x, tree_plan, c.ranks);
      for (std::size_t n = 0; n < x.order(); ++n) {
        ASSERT_EQ(served.selected(n), TtmcStrategy::kTree);
        Matrix y_direct, y_tree;
        direct.compute(factors, n, y_direct);
        served.compute(factors, n, y_tree);
        ASSERT_EQ(y_direct.rows(), y_tree.rows()) << c.name << " mode " << n;
        ASSERT_EQ(y_direct.cols(), y_tree.cols()) << c.name << " mode " << n;
        EXPECT_TRUE(y_direct.approx_equal(y_tree, kTol))
            << c.name << " mode " << n << " schedule "
            << (s == Schedule::kDynamic ? "dynamic" : "static");
      }
    }
  }
}

TEST(DimTreeTtmcTest, TreeServedMatchesDirectSubset) {
  for (const auto& c : equivalence_cases()) {
    const auto& x = c.tensor;
    const auto factors = random_factors(x.shape(), c.ranks, 37);
    for (const Schedule s : {Schedule::kDynamic, Schedule::kStatic}) {
      TtmcOptions tree_opts;
      tree_opts.schedule = s;
      tree_opts.strategy = TtmcStrategy::kTree;
      const TtmcPlan plan = TtmcPlan::build(x, tree_opts);
      const SymbolicTtmc& sym = plan.symbolic;
      TtmcScheduler served(x, plan, c.ranks);
      for (std::size_t n = 0; n < x.order(); ++n) {
        // Every other compact row, as the coarse-grain owners request.
        std::vector<std::uint32_t> positions;
        for (std::uint32_t p = 0; p < sym.modes[n].num_rows(); p += 2) {
          positions.push_back(p);
        }
        Matrix y_direct, y_tree;
        ht::core::ttmc_mode_subset(x, factors, n, sym.modes[n], positions,
                                   y_direct, {s});
        served.compute_subset(factors, n, positions, y_tree);
        EXPECT_TRUE(y_direct.approx_equal(y_tree, kTol))
            << c.name << " mode " << n;
      }
    }
  }
}

// Full HOOI runs: the tree schedule reuses partials across modes while the
// factors evolve; the fits must track the direct runs through every sweep.
TEST(DimTreeTtmcTest, HooiFitsMatchDirectAllOrders) {
  for (const auto& c : equivalence_cases()) {
    ht::core::HooiOptions base;
    base.ranks = c.ranks;
    base.max_iterations = 3;
    base.fit_tolerance = 0.0;

    ht::core::HooiOptions direct = base;
    direct.ttmc.strategy = TtmcStrategy::kDirect;
    ht::core::HooiOptions tree = base;
    tree.ttmc.strategy = TtmcStrategy::kTree;

    const auto a = ht::core::hooi(c.tensor, direct);
    const auto b = ht::core::hooi(c.tensor, tree);
    ASSERT_EQ(a.fits.size(), b.fits.size()) << c.name;
    for (std::size_t i = 0; i < a.fits.size(); ++i) {
      EXPECT_NEAR(a.fits[i], b.fits[i], 1e-8) << c.name << " sweep " << i;
    }
  }
}

TEST(DimTreeTtmcTest, DistCoarseFitsMatchDirect) {
  const CooTensor x = ht::tensor::random_fibered(Shape{25, 20, 40}, 250, 5, 59);
  ht::dist::DistHooiOptions base;
  base.ranks = {3, 3, 3};
  base.max_iterations = 2;
  base.num_ranks = 4;
  base.grain = ht::dist::Grain::kCoarse;  // exercises subset serving

  ht::dist::DistHooiOptions direct = base;
  direct.ttmc.strategy = TtmcStrategy::kDirect;
  ht::dist::DistHooiOptions tree = base;
  tree.ttmc.strategy = TtmcStrategy::kTree;

  const auto a = ht::dist::dist_hooi(x, direct);
  const auto b = ht::dist::dist_hooi(x, tree);
  ASSERT_EQ(a.fits.size(), b.fits.size());
  for (std::size_t i = 0; i < a.fits.size(); ++i) {
    EXPECT_NEAR(a.fits[i], b.fits[i], 1e-8) << "sweep " << i;
  }
}

TEST(DimTreeTtmcTest, DistFineFitsMatchDirect) {
  const CooTensor x = ht::tensor::random_fibered(Shape{25, 20, 40}, 250, 5, 61);
  ht::dist::DistHooiOptions base;
  base.ranks = {3, 3, 3};
  base.max_iterations = 2;
  base.num_ranks = 4;
  base.grain = ht::dist::Grain::kFine;

  ht::dist::DistHooiOptions direct = base;
  direct.ttmc.strategy = TtmcStrategy::kDirect;
  ht::dist::DistHooiOptions tree = base;
  tree.ttmc.strategy = TtmcStrategy::kTree;

  const auto a = ht::dist::dist_hooi(x, direct);
  const auto b = ht::dist::dist_hooi(x, tree);
  ASSERT_EQ(a.fits.size(), b.fits.size());
  for (std::size_t i = 0; i < a.fits.size(); ++i) {
    EXPECT_NEAR(a.fits[i], b.fits[i], 1e-8) << "sweep " << i;
  }
}

TEST(DimTreeTtmcTest, RankSweepSharesOnePlan) {
  const CooTensor x = ht::tensor::random_uniform(Shape{20, 18, 22}, 900, 67);
  ht::core::HooiOptions base;
  base.max_iterations = 2;
  base.fit_tolerance = 0.0;
  const std::vector<std::vector<index_t>> candidates = {{2, 2, 2}, {3, 3, 3}};

  ht::core::HooiOptions tree_base = base;
  tree_base.ttmc.strategy = TtmcStrategy::kTree;
  ht::core::HooiOptions direct_base = base;
  direct_base.ttmc.strategy = TtmcStrategy::kDirect;

  const auto swept_tree = ht::core::rank_sweep(x, candidates, tree_base);
  const auto swept_direct = ht::core::rank_sweep(x, candidates, direct_base);
  ASSERT_EQ(swept_tree.entries.size(), swept_direct.entries.size());
  for (std::size_t i = 0; i < swept_tree.entries.size(); ++i) {
    EXPECT_NEAR(swept_tree.entries[i].fit, swept_direct.entries[i].fit, 1e-8);
  }
}

// ---- cost model ------------------------------------------------------------

// Symbolic structure and dimension tree only: the cost model weighs tree
// serving against the flat direct kernels (no CSF/ALTO structure in hand).
TtmcPlan tree_plan(const CooTensor& x, const TtmcOptions& opts = {}) {
  return {.options = opts,
          .symbolic = SymbolicTtmc::build(x),
          .tree = DimTreePlan::build(x)};
}

TEST(TtmcCostModelTest, SingletonFibersStayDirect) {
  // 500 nonzeros in a 200^3 cube: no two nonzeros share a coordinate pair,
  // so every merge group is a singleton and the tree cannot amortize its
  // two extra nonzero passes.
  const CooTensor x = ht::tensor::random_uniform(Shape{200, 200, 200}, 500, 71);
  const TtmcPlan plan = tree_plan(x);
  const std::vector<index_t> ranks = {4, 4, 4};
  const TtmcScheduler s(x, plan, ranks);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(s.selected(n), TtmcStrategy::kDirect) << "mode " << n;
  }
}

TEST(TtmcCostModelTest, HeavyMergingGoesTree) {
  // 20K nonzeros in a 30^3 cube: every coordinate-pair projection is
  // saturated (<= 900 groups). Modes 0 and 1 share one partial whose build
  // is amortized across both; mode 2's partial build is a single
  // *streaming* nonzero pass, cheaper than the indirected direct kernel it
  // replaces — all three modes go tree-served.
  const CooTensor x = ht::tensor::random_uniform(Shape{30, 30, 30}, 20000, 73);
  const TtmcPlan plan = tree_plan(x);
  const std::vector<index_t> ranks = {5, 5, 5};
  const TtmcScheduler s(x, plan, ranks);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(s.selected(n), TtmcStrategy::kTree) << "mode " << n;
    EXPECT_LT(s.serve_cost(n), s.direct_cost(n)) << "mode " << n;
  }
}

TEST(TtmcCostModelTest, RankOneFollowsMerging) {
  // Rank 1 everywhere: widths collapse to 1 and the decision reduces to
  // nonzero passes vs merge-group passes — tree on the merge-saturated
  // tensor, direct when every group is a singleton.
  const CooTensor merged = ht::tensor::random_uniform(Shape{30, 30, 30}, 20000, 79);
  const TtmcPlan plan_m = tree_plan(merged);
  const std::vector<index_t> ones = {1, 1, 1};
  const TtmcScheduler sm(merged, plan_m, ones);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(sm.selected(n), TtmcStrategy::kTree) << "mode " << n;
  }

  const CooTensor scattered =
      ht::tensor::random_uniform(Shape{200, 200, 200}, 500, 83);
  const TtmcPlan plan_s = tree_plan(scattered);
  const TtmcScheduler ss(scattered, plan_s, ones);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(ss.selected(n), TtmcStrategy::kDirect) << "mode " << n;
  }
}

TEST(TtmcCostModelTest, HugeModeServesOnlyTheCheapGroup) {
  // One huge mode: the left-group partial (contract mode 2) has ~one group
  // per nonzero — serving modes 0/1 from it costs more than direct. The
  // right-group partial collapses to <= 36 (i1, i2) groups, so mode 2 is
  // served from the tree while 0 and 1 stay direct.
  const CooTensor x =
      ht::tensor::random_uniform(Shape{50000, 6, 6}, 20000, 89);
  const TtmcPlan plan = tree_plan(x);
  const std::vector<index_t> ranks = {4, 3, 3};
  const TtmcScheduler s(x, plan, ranks);
  EXPECT_EQ(s.selected(0), TtmcStrategy::kDirect);
  EXPECT_EQ(s.selected(1), TtmcStrategy::kDirect);
  EXPECT_EQ(s.selected(2), TtmcStrategy::kTree);
}

TEST(TtmcCostModelTest, ExplicitStrategyOverridesModel) {
  const CooTensor x = ht::tensor::random_uniform(Shape{200, 200, 200}, 500, 97);
  const std::vector<index_t> ranks = {3, 3, 3};
  const TtmcPlan force_tree = tree_plan(x, {.strategy = TtmcStrategy::kTree});
  const TtmcScheduler st(x, force_tree, ranks);
  const TtmcPlan force_direct =
      tree_plan(x, {.strategy = TtmcStrategy::kDirect});
  const TtmcScheduler sd(x, force_direct, ranks);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(st.selected(n), TtmcStrategy::kTree);
    EXPECT_EQ(sd.selected(n), TtmcStrategy::kDirect);
  }
}

// The scheduler must track factor updates: serving mode k after factors of
// other modes changed has to use the fresh factors, exactly like a direct
// recomputation would (HOOI's correctness depends on this).
TEST(DimTreeTtmcTest, PartialsRefreshAfterFactorUpdates) {
  const CooTensor x = ht::tensor::random_uniform(Shape{18, 16, 20}, 600, 101);
  const std::vector<index_t> ranks = {3, 3, 3};
  auto factors = random_factors(x.shape(), ranks, 103);

  const TtmcPlan plan = tree_plan(x, {.strategy = TtmcStrategy::kTree});
  const SymbolicTtmc& sym = plan.symbolic;
  TtmcScheduler served(x, plan, ranks);

  // Two HOOI-like sweeps replacing each factor right after its mode.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (std::size_t n = 0; n < x.order(); ++n) {
      Matrix y_tree, y_direct;
      served.compute(factors, n, y_tree);
      ht::core::ttmc_mode(x, factors, n, sym.modes[n], y_direct,
                          {Schedule::kDynamic, ht::core::TtmcKernel::kPerNnz});
      ASSERT_TRUE(y_direct.approx_equal(y_tree, kTol))
          << "sweep " << sweep << " mode " << n;
      factors[n] = random_matrix(x.dim(n), ranks[n],
                                 200 + 10 * sweep + n);  // "update" U_n
    }
  }
}

}  // namespace
