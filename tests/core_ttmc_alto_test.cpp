// Golden equivalence of the ALTO linearized TTMc kernel against the
// per-nnz and CSF kernels across orders and entry points,
// HOOI fit equivalence, bitwise thread-count determinism, the degrade
// chain when no structure is in hand, and the budget-driven kAuto trade
// between the CSF forest and the single linearized structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/hooi.hpp"
#include "core/rank_sweep.hpp"
#include "core/symbolic.hpp"
#include "core/ttmc.hpp"
#include "core/ttmc_plan.hpp"
#include "dist/dist_hooi.hpp"
#include "la/matrix.hpp"
#include "parallel/thread_info.hpp"
#include "tensor/alto.hpp"
#include "tensor/csf.hpp"
#include "tensor/generators.hpp"
#include "util/random.hpp"

namespace {

using ht::core::Schedule;
using ht::core::SymbolicTtmc;
using ht::core::TtmcKernel;
using ht::core::TtmcOptions;
using ht::la::Matrix;
using ht::tensor::AltoTensor;
using ht::tensor::CooTensor;
using ht::tensor::CsfTensor;
using ht::tensor::index_t;
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

// The ALTO kernel accumulates per partition in slot order and merges
// staging rows in partition order — a different association than any other
// kernel — so equivalence is to a tight absolute tolerance.
constexpr double kTol = 1e-11;

struct AltoCase {
  std::string name;
  CooTensor tensor;
  std::vector<index_t> ranks;
};

std::vector<AltoCase> equivalence_cases() {
  std::vector<AltoCase> cases;
  cases.push_back({"order3_fibered",
                   ht::tensor::random_fibered(Shape{40, 30, 50}, 300, 6, 11),
                   {4, 3, 5}});
  cases.push_back({"order3_scattered",
                   ht::tensor::random_uniform(Shape{40, 30, 50}, 800, 13),
                   {4, 3, 5}});
  cases.push_back({"order3_multipart",
                   ht::tensor::random_uniform(Shape{60, 50, 40}, 30000, 41),
                   {4, 4, 4}});
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

TEST(AltoTtmcTest, MatchesOtherKernelsFullModeAllSchedules) {
  for (const auto& c : equivalence_cases()) {
    const auto& x = c.tensor;
    const auto factors = random_factors(x.shape(), c.ranks, 31);
    const SymbolicTtmc sym = SymbolicTtmc::build(x);
    const CsfTensor csf = CsfTensor::build(x);
    const AltoTensor alto = AltoTensor::build(x);
    for (std::size_t n = 0; n < x.order(); ++n) {
      for (const Schedule s : {Schedule::kDynamic, Schedule::kStatic}) {
        Matrix y_nnz, y_csf, y_alto;
        ht::core::ttmc_mode(x, factors, n, sym.modes[n], y_nnz,
                            {s, TtmcKernel::kPerNnz});
        ht::core::ttmc_mode(x, factors, n, sym.modes[n], y_csf,
                            {s, TtmcKernel::kCsf}, &csf.modes[n]);
        ht::core::ttmc_mode(x, factors, n, sym.modes[n], y_alto,
                            {s, TtmcKernel::kAlto}, nullptr, &alto);
        ASSERT_EQ(y_nnz.rows(), y_alto.rows());
        ASSERT_EQ(y_nnz.cols(), y_alto.cols());
        EXPECT_TRUE(y_nnz.approx_equal(y_alto, kTol))
            << c.name << " mode " << n << " vs per-nnz, schedule "
            << (s == Schedule::kDynamic ? "dynamic" : "static");
        EXPECT_TRUE(y_csf.approx_equal(y_alto, kTol))
            << c.name << " mode " << n << " vs csf";
      }
    }
  }
}

TEST(AltoTtmcTest, MatchesPerNnzSubsetPath) {
  for (const auto& c : equivalence_cases()) {
    const auto& x = c.tensor;
    const auto factors = random_factors(x.shape(), c.ranks, 37);
    const SymbolicTtmc sym = SymbolicTtmc::build(x);
    const AltoTensor alto = AltoTensor::build(x);
    for (std::size_t n = 0; n < x.order(); ++n) {
      // Every other compact row, as the coarse-grain owners would request.
      std::vector<std::uint32_t> positions;
      for (std::uint32_t p = 0; p < sym.modes[n].num_rows(); p += 2) {
        positions.push_back(p);
      }
      for (const Schedule s : {Schedule::kDynamic, Schedule::kStatic}) {
        Matrix y_nnz, y_alto;
        ht::core::ttmc_mode_subset(x, factors, n, sym.modes[n], positions,
                                   y_nnz, {s, TtmcKernel::kPerNnz});
        ht::core::ttmc_mode_subset(x, factors, n, sym.modes[n], positions,
                                   y_alto, {s, TtmcKernel::kAlto}, nullptr,
                                   &alto);
        EXPECT_TRUE(y_nnz.approx_equal(y_alto, kTol))
            << c.name << " mode " << n;
      }
    }
  }
}

TEST(AltoTtmcTest, AltoRequestWithoutStructureDegradesExactly) {
  const CooTensor x = ht::tensor::random_fibered(Shape{25, 20, 40}, 200, 5, 43);
  const auto factors = random_factors(x.shape(), {3, 3, 3}, 47);
  const SymbolicTtmc sym = SymbolicTtmc::build(x);
  const CsfTensor csf = CsfTensor::build(x);
  // Degrade chain: alto -> csf -> per-nnz, by what's in hand.
  EXPECT_EQ(ht::core::ttmc_selected_kernel(3, {.kernel = TtmcKernel::kAlto},
                                           &csf.modes[0]),
            TtmcKernel::kCsf);
  EXPECT_EQ(ht::core::ttmc_selected_kernel(3, {.kernel = TtmcKernel::kAlto}),
            TtmcKernel::kPerNnz);
  // A kAlto request without the structure runs the degraded kernel exactly.
  Matrix y_nnz, y_alto;
  ht::core::ttmc_mode(x, factors, 0, sym.modes[0], y_nnz,
                      {Schedule::kDynamic, TtmcKernel::kPerNnz});
  ht::core::ttmc_mode(x, factors, 0, sym.modes[0], y_alto,
                      {Schedule::kDynamic, TtmcKernel::kAlto});
  EXPECT_TRUE(y_nnz.approx_equal(y_alto, 0.0));  // same kernel ran
}

TEST(AltoTtmcTest, AutoSelectionAndBudgetTrade) {
  // kAuto runs whatever the plan holds, the forest first: with both
  // structures in hand it walks the tree, with only the linearized one it
  // runs ALTO. On the prefix-free uniform tensor the kAuto plan holds the
  // forest (and no ALTO structure) and every mode resolves to kCsf.
  const CooTensor small =
      ht::tensor::random_uniform(Shape{200, 200, 200}, 500, 47);
  const CsfTensor csf_small = CsfTensor::build(small);
  const AltoTensor alto_small = AltoTensor::build(small);
  EXPECT_EQ(ht::core::ttmc_selected_kernel(3, {}, &csf_small.modes[0],
                                           &alto_small),
            TtmcKernel::kCsf);
  EXPECT_EQ(ht::core::ttmc_selected_kernel(3, {}, nullptr, &alto_small),
            TtmcKernel::kAlto);
  const ht::core::TtmcPlan plan = ht::core::TtmcPlan::build(small);
  ASSERT_NE(plan.csf, nullptr);
  EXPECT_EQ(plan.alto, nullptr);
  for (std::size_t n = 0; n < small.order(); ++n) {
    EXPECT_EQ(plan.kernel(n), TtmcKernel::kCsf) << "mode " << n;
  }

  // In-cache tensor: without a budget ttmc_wants_alto stays quiet under
  // kAuto, and even a budget that rules the forest out builds nothing (the
  // per-nnz kernel's per-row constants win in cache).
  const std::size_t small_nnz = small.nnz();
  EXPECT_FALSE(ht::core::ttmc_wants_alto(small_nnz, small.shape(), {}));
  TtmcOptions small_squeezed;
  small_squeezed.structure_budget_bytes =
      0.5 * (ht::core::csf_forest_bytes_estimate(small_nnz, 3) +
             ht::core::alto_bytes_estimate(small_nnz, small.shape()));
  EXPECT_FALSE(ht::core::ttmc_wants_csf(small_nnz, 3, small_squeezed));
  EXPECT_FALSE(
      ht::core::ttmc_wants_alto(small_nnz, small.shape(), small_squeezed));
  // Explicit request always builds/uses the structure (budget ignored).
  EXPECT_TRUE(ht::core::ttmc_wants_alto(small_nnz, small.shape(),
                                        {.kernel = TtmcKernel::kAlto}));
  // ...unless the shape cannot be linearized at all.
  const Shape too_wide(5, index_t{1u << 30});
  EXPECT_FALSE(ht::core::ttmc_wants_alto(small_nnz, too_wide,
                                         {.kernel = TtmcKernel::kAlto}));

  // Out-of-cache nnz: with no budget kAuto wants the CSF forest; squeeze
  // the budget between the two estimates and the trade flips to the single
  // linearized structure; squeeze below both and neither is built.
  const std::size_t big_nnz = 1u << 20;  // * (16 + 12) B > 24 MiB
  const std::size_t order = 3;
  const Shape big_shape{4096, 4096, 4096};
  const double forest = ht::core::csf_forest_bytes_estimate(big_nnz, order);
  const double linearized =
      ht::core::alto_bytes_estimate(big_nnz, big_shape);
  EXPECT_LE(linearized, 0.5 * forest) << "the memory headline";
  TtmcOptions no_budget;
  EXPECT_TRUE(ht::core::ttmc_wants_csf(big_nnz, order, no_budget));
  EXPECT_FALSE(ht::core::ttmc_wants_alto(big_nnz, big_shape, no_budget));
  TtmcOptions squeezed;
  squeezed.structure_budget_bytes = 0.5 * (forest + linearized);
  EXPECT_FALSE(ht::core::ttmc_wants_csf(big_nnz, order, squeezed));
  EXPECT_TRUE(ht::core::ttmc_wants_alto(big_nnz, big_shape, squeezed));
  TtmcOptions starved;
  starved.structure_budget_bytes = 0.5 * linearized;
  EXPECT_FALSE(ht::core::ttmc_wants_csf(big_nnz, order, starved));
  EXPECT_FALSE(ht::core::ttmc_wants_alto(big_nnz, big_shape, starved));
}

TEST(AltoTtmcTest, DeterministicAcrossThreadCounts) {
  // Phase 1 accumulates each partition on a single thread in slot order;
  // phase 2 merges partitions in increasing order with one writer per
  // output row: bitwise identical for any thread count, both schedules.
  // The tensor spans several partitions so the merge order matters.
  const CooTensor x =
      ht::tensor::random_uniform(Shape{60, 50, 40}, 30000, 61);
  const auto factors = random_factors(x.shape(), {4, 3, 5}, 67);
  const SymbolicTtmc sym = SymbolicTtmc::build(x);
  const AltoTensor alto = AltoTensor::build(x);
  for (const Schedule s : {Schedule::kDynamic, Schedule::kStatic}) {
    Matrix y1, y4;
    {
      ht::parallel::ThreadScope threads(1);
      ht::core::ttmc_mode(x, factors, 0, sym.modes[0], y1,
                          {s, TtmcKernel::kAlto}, nullptr, &alto);
    }
    {
      ht::parallel::ThreadScope threads(4);
      ht::core::ttmc_mode(x, factors, 0, sym.modes[0], y4,
                          {s, TtmcKernel::kAlto}, nullptr, &alto);
    }
    EXPECT_TRUE(y1.approx_equal(y4, 0.0));
  }
}

TEST(AltoTtmcTest, HooiConvergesIdenticallyUnderAltoKernel) {
  for (const Shape& shape : {Shape{25, 20, 40}, Shape{12, 10, 8, 25}}) {
    const CooTensor x = ht::tensor::random_fibered(shape, 300, 5, 53);
    ht::core::HooiOptions base;
    base.ranks.assign(x.order(), 3);
    base.max_iterations = 3;
    base.fit_tolerance = 0.0;

    ht::core::HooiOptions per_nnz = base;
    per_nnz.ttmc.kernel = TtmcKernel::kPerNnz;
    ht::core::HooiOptions with_alto = base;
    with_alto.ttmc.kernel = TtmcKernel::kAlto;

    const auto a = ht::core::hooi(x, per_nnz);
    const auto b = ht::core::hooi(x, with_alto);
    ASSERT_EQ(a.fits.size(), b.fits.size()) << x.order() << "-mode";
    for (std::size_t i = 0; i < a.fits.size(); ++i) {
      EXPECT_NEAR(a.fits[i], b.fits[i], 1e-8) << "sweep " << i;
    }

    // A hand-assembled plan through the plan overload.
    const ht::core::TtmcPlan plan{
        .options = with_alto.ttmc,
        .symbolic = SymbolicTtmc::build(x),
        .alto = std::make_shared<const AltoTensor>(AltoTensor::build(x))};
    const auto c = ht::core::hooi(x, with_alto, plan);
    ASSERT_EQ(b.fits.size(), c.fits.size());
    for (std::size_t i = 0; i < b.fits.size(); ++i) {
      EXPECT_NEAR(b.fits[i], c.fits[i], 1e-8) << "sweep " << i;
    }
  }
}

TEST(AltoTtmcTest, RankSweepReusesStructureAcrossGrid) {
  const CooTensor x = ht::tensor::random_fibered(Shape{25, 20, 40}, 300, 5, 71);
  ht::core::HooiOptions base;
  base.max_iterations = 2;
  base.ttmc.kernel = TtmcKernel::kAlto;
  const std::vector<std::vector<index_t>> grid = {{2, 2, 2}, {3, 3, 3}};
  const auto swept = ht::core::rank_sweep(x, grid, base);
  ASSERT_EQ(swept.entries.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ht::core::HooiOptions o = base;
    o.ranks = grid[i];
    const auto solo = ht::core::hooi(x, o);
    EXPECT_NEAR(swept.entries[i].fit, solo.final_fit(), 1e-10);
  }
  // The winning model carries the sweep's linearized structure.
  ASSERT_TRUE(swept.best_model.has_value());
  EXPECT_TRUE(swept.best_model->has_alto());
  EXPECT_EQ(swept.best_model->alto->nnz(), x.nnz());
}

TEST(AltoTtmcTest, DistHooiMatchesUnderAltoKernelBothGrains) {
  const CooTensor x = ht::tensor::random_fibered(Shape{25, 20, 40}, 250, 5, 59);
  for (const auto grain : {ht::dist::Grain::kCoarse, ht::dist::Grain::kFine}) {
    ht::dist::DistHooiOptions base;
    base.ranks = {3, 3, 3};
    base.max_iterations = 2;
    base.num_ranks = 4;
    base.grain = grain;  // coarse exercises the ALTO subset path

    ht::dist::DistHooiOptions per_nnz = base;
    per_nnz.ttmc.kernel = TtmcKernel::kPerNnz;
    ht::dist::DistHooiOptions with_alto = base;
    with_alto.ttmc.kernel = TtmcKernel::kAlto;

    const auto a = ht::dist::dist_hooi(x, per_nnz);
    const auto b = ht::dist::dist_hooi(x, with_alto);
    ASSERT_EQ(a.fits.size(), b.fits.size());
    for (std::size_t i = 0; i < a.fits.size(); ++i) {
      EXPECT_NEAR(a.fits[i], b.fits[i], 1e-8)
          << (grain == ht::dist::Grain::kCoarse ? "coarse" : "fine")
          << " sweep " << i;
    }
  }
}

}  // namespace
