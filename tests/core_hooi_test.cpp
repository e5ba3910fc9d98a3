#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/hooi.hpp"
#include "core/hosvd.hpp"
#include "core/met_baseline.hpp"
#include "core/symbolic.hpp"
#include "core/trsvd.hpp"
#include "la/blas.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/generators.hpp"
#include "util/random.hpp"

namespace {

using ht::core::HooiOptions;
using ht::core::HooiResult;
using ht::core::TtmcPlan;
using ht::core::TuckerDecomposition;
using ht::la::Matrix;
using ht::tensor::CooTensor;
using ht::tensor::DenseTensor;
using ht::tensor::index_t;
using ht::tensor::Shape;

// Tensor with *exact* Tucker rank: random core times random orthonormal
// factors, stored as COO over every position (small sizes). HOOI with
// matching ranks must reach fit ~= 1.
CooTensor exact_low_rank_tensor(const Shape& shape,
                                const std::vector<index_t>& ranks,
                                std::uint64_t seed) {
  TuckerDecomposition t;
  t.factors = ht::core::random_orthonormal_factors(
      shape, std::span<const index_t>(ranks), seed);
  t.core = DenseTensor(Shape(ranks.begin(), ranks.end()));
  ht::Rng rng(seed ^ 0xc0ffee);
  for (auto& v : t.core.flat()) v = rng.uniform(-1.0, 1.0);

  const DenseTensor dense = t.reconstruct_dense();
  CooTensor x(shape);
  std::vector<index_t> idx(shape.size(), 0);
  for (std::size_t off = 0; off < dense.size(); ++off) {
    if (std::abs(dense.flat()[off]) > 1e-14) {
      x.push_back(idx, dense.flat()[off]);
    }
    for (std::size_t n = shape.size(); n-- > 0;) {
      if (++idx[n] < shape[n]) break;
      idx[n] = 0;
    }
  }
  return x;
}

HooiOptions basic_options(std::vector<index_t> ranks, int iters = 5) {
  HooiOptions opt;
  opt.ranks = std::move(ranks);
  opt.max_iterations = iters;
  return opt;
}

TEST(HooiTest, RecoversExactLowRankTensor) {
  const CooTensor x = exact_low_rank_tensor({8, 9, 7}, {2, 3, 2}, 1);
  const HooiResult r = ht::core::hooi(x, basic_options({2, 3, 2}, 8));
  EXPECT_GT(r.final_fit(), 0.9999);
}

TEST(HooiTest, FourModeExactRecovery) {
  const CooTensor x = exact_low_rank_tensor({5, 6, 4, 5}, {2, 2, 2, 2}, 2);
  const HooiResult r = ht::core::hooi(x, basic_options({2, 2, 2, 2}, 8));
  EXPECT_GT(r.final_fit(), 0.9999);
}

TEST(HooiTest, FitsAreNonDecreasing) {
  CooTensor x = ht::tensor::random_zipf(Shape{40, 30, 20}, 1500,
                                        {0.8, 0.5, 0.2}, 3);
  ht::tensor::plant_low_rank_values(x, 4, 0.1, 4);
  const HooiResult r = ht::core::hooi(x, basic_options({4, 4, 4}, 6));
  for (std::size_t i = 1; i < r.fits.size(); ++i) {
    EXPECT_GE(r.fits[i], r.fits[i - 1] - 1e-8) << "iteration " << i;
  }
  EXPECT_GT(r.final_fit(), 0.0);
}

TEST(HooiTest, ReportedFitMatchesExactFit) {
  CooTensor x = ht::tensor::random_uniform(Shape{10, 11, 12}, 250, 5);
  const HooiResult r = ht::core::hooi(x, basic_options({3, 3, 3}, 4));
  const double exact = ht::core::fit_exact(x, r.decomposition);
  EXPECT_NEAR(r.final_fit(), exact, 1e-8);
}

TEST(HooiTest, FactorsAreOrthonormal) {
  CooTensor x = ht::tensor::random_uniform(Shape{25, 15, 20}, 600, 6);
  const HooiResult r = ht::core::hooi(x, basic_options({4, 3, 5}, 3));
  for (const auto& f : r.decomposition.factors) {
    const Matrix g = ht::la::gemm_tn(f, f);
    for (std::size_t i = 0; i < g.rows(); ++i) {
      for (std::size_t j = 0; j < g.cols(); ++j) {
        EXPECT_NEAR(g(i, j), i == j ? 1.0 : 0.0, 1e-8);
      }
    }
  }
}

TEST(HooiTest, GramAndLanczosMethodsAgree) {
  CooTensor x = ht::tensor::random_zipf(Shape{30, 30, 30}, 1200,
                                        {0.6, 0.6, 0.6}, 7);
  ht::tensor::plant_low_rank_values(x, 5, 0.05, 8);
  HooiOptions lanczos = basic_options({4, 4, 4}, 4);
  HooiOptions gram = basic_options({4, 4, 4}, 4);
  gram.trsvd_method = ht::core::TrsvdMethod::kGram;
  const HooiResult rl = ht::core::hooi(x, lanczos);
  const HooiResult rg = ht::core::hooi(x, gram);
  EXPECT_NEAR(rl.final_fit(), rg.final_fit(), 1e-5);
}

// The MET chain's Y(n) equals the fused kernel's up to rounding, rows and
// column layout alike: a layout slip would leave the fits equal but break
// the core, and with it the exact fit.
TEST(HooiTest, MetBaselineMatchesFusedHooi) {
  const struct {
    Shape shape;
    ht::tensor::nnz_t nnz;
    std::vector<index_t> ranks;
  } inputs[] = {{{20, 25, 15}, 800, {3, 3, 3}},
                {{8, 7, 6, 9}, 700, {2, 3, 2, 3}},
                {{6, 5, 7, 4, 6}, 900, {2, 3, 2, 2, 3}}};
  for (const auto& in : inputs) {
    CooTensor x = ht::tensor::random_zipf(
        in.shape, in.nnz, std::vector<double>(in.shape.size(), 0.5), 9);
    ht::tensor::plant_low_rank_values(x, 3, 0.1, 10);
    const HooiOptions opt = basic_options(in.ranks, 4);
    const HooiResult fused = ht::core::hooi(x, opt);
    const HooiResult met = ht::core::hooi_met_baseline(x, opt);
    ASSERT_EQ(fused.fits.size(), met.fits.size());
    for (std::size_t i = 0; i < fused.fits.size(); ++i) {
      EXPECT_NEAR(fused.fits[i], met.fits[i], 1e-7)
          << x.order() << "-mode, iteration " << i;
    }
    EXPECT_NEAR(met.final_fit(), ht::core::fit_exact(x, met.decomposition),
                1e-8)
        << x.order() << "-mode";
  }
}

TEST(HooiTest, MetBaselineFourMode) {
  const CooTensor x = exact_low_rank_tensor({4, 5, 4, 3}, {2, 2, 2, 2}, 11);
  const HooiOptions opt = basic_options({2, 2, 2, 2}, 6);
  const HooiResult met = ht::core::hooi_met_baseline(x, opt);
  EXPECT_GT(met.final_fit(), 0.9999);
}

TEST(HooiTest, DeterministicForSeed) {
  CooTensor x = ht::tensor::random_uniform(Shape{20, 20, 20}, 500, 12);
  const HooiOptions opt = basic_options({3, 3, 3}, 3);
  const HooiResult a = ht::core::hooi(x, opt);
  const HooiResult b = ht::core::hooi(x, opt);
  ASSERT_EQ(a.fits.size(), b.fits.size());
  for (std::size_t i = 0; i < a.fits.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.fits[i], b.fits[i]);
  }
}

TEST(HooiTest, ThreadCountDoesNotChangeResult) {
  // Mode 0 has more than 16384 non-empty rows, so the TRSVD's level-1
  // reductions and the row reductions of gemv_t/gemm_tn all take their
  // parallel paths: fits and factors must be bitwise identical at every
  // team size, and across repeated runs at the same one.
  CooTensor x = ht::tensor::random_zipf(Shape{40000, 40, 30}, 60000,
                                        {0.3, 0.4, 0.1}, 13);
  ht::tensor::plant_low_rank_values(x, 4, 0.1, 14);
  ASSERT_GE(ht::core::build_mode_symbolic(x, 0).num_rows(), 16384u);
  const auto run = [&](int threads) {
    HooiOptions opt = basic_options({4, 4, 4}, 3);
    opt.num_threads = threads;
    return ht::core::hooi(x, opt);
  };
  const HooiResult r1 = run(1);
  for (const int threads : {2, 3, 4, 4}) {
    const HooiResult r = run(threads);
    EXPECT_EQ(r.fits, r1.fits) << threads << " threads";
    for (std::size_t n = 0; n < x.order(); ++n) {
      EXPECT_TRUE(r.decomposition.factors[n].approx_equal(
          r1.decomposition.factors[n], 0.0))
          << threads << " threads, mode " << n;
    }
  }
}

// Mode 0 of these tensors is above kAuto's warm floor at ranks {4, 8, 8}:
// its compact Y(0) has >= 16384 rows of 64 columns, >= 2^20 entries. Modes
// 1 and 2 (40 and 30 rows) are far below it. At seed 5 the warm solves'
// power steps settle and are kept; at seed 13 they are still gaining
// energy after kWarmSteps, so every warm solve reruns Lanczos.
CooTensor warm_mode_tensor(std::uint64_t seed = 5) {
  CooTensor x = ht::tensor::random_zipf(Shape{40000, 40, 30}, 60000,
                                        {0.3, 0.4, 0.1}, seed);
  ht::tensor::plant_low_rank_values(x, 4, 0.1, seed + 1);
  return x;
}

TEST(HooiTest, WarmSolvesAreCountedPerMode) {
  const CooTensor x = warm_mode_tensor();
  ASSERT_GE(ht::core::build_mode_symbolic(x, 0).num_rows() * 64,
            ht::core::kWarmMinEntries);
  HooiOptions opt = basic_options({4, 8, 8}, 4);
  opt.fit_tolerance = 0.0;
  // Sweeps 3 and 4 warm-start mode 0; the small modes stay on Lanczos.
  EXPECT_EQ(ht::core::hooi(x, opt).warm_solves, (std::vector<int>{2, 0, 0}));
  opt.trsvd_method = ht::core::TrsvdMethod::kLanczos;
  EXPECT_EQ(ht::core::hooi(x, opt).warm_solves, (std::vector<int>{0, 0, 0}));
}

TEST(HooiTest, UnsettledWarmSolvesRerunLanczos) {
  // Each warm solve that reruns Lanczos gets exactly the cold solve, so
  // the run is kLanczos's bit for bit and counts no warm solve.
  const CooTensor x = warm_mode_tensor(13);
  HooiOptions opt = basic_options({4, 8, 8}, 4);
  opt.fit_tolerance = 0.0;
  const HooiResult automatic = ht::core::hooi(x, opt);
  opt.trsvd_method = ht::core::TrsvdMethod::kLanczos;
  const HooiResult lanczos = ht::core::hooi(x, opt);
  EXPECT_EQ(automatic.warm_solves, (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(automatic.fits, lanczos.fits);
  for (std::size_t n = 0; n < x.order(); ++n) {
    EXPECT_TRUE(automatic.decomposition.factors[n].approx_equal(
        lanczos.decomposition.factors[n], 0.0))
        << "mode " << n;
  }
}

TEST(HooiTest, ThreadCountDoesNotChangeWarmResult) {
  // The warm power steps run through gemm_into/gemm_tn_into and the
  // block orthonormalizer: fits and factors stay bitwise identical at
  // every team size.
  const CooTensor x = warm_mode_tensor();
  const auto run = [&](int threads) {
    HooiOptions opt = basic_options({4, 8, 8}, 4);
    opt.fit_tolerance = 0.0;
    opt.num_threads = threads;
    return ht::core::hooi(x, opt);
  };
  const HooiResult r1 = run(1);
  ASSERT_EQ(r1.warm_solves[0], 2);
  for (const int threads : {2, 3, 4}) {
    const HooiResult r = run(threads);
    EXPECT_EQ(r.fits, r1.fits) << threads << " threads";
    for (std::size_t n = 0; n < x.order(); ++n) {
      EXPECT_TRUE(r.decomposition.factors[n].approx_equal(
          r1.decomposition.factors[n], 0.0))
          << threads << " threads, mode " << n;
    }
  }
}

// Cosine of the largest principal angle between span(a) and span(b).
double subspace_cosine(Matrix a, Matrix b) {
  ht::la::orthonormalize_columns(a);
  ht::la::orthonormalize_columns(b);
  return ht::la::svd_jacobi(ht::la::gemm_tn(a, b)).s.back();
}

TEST(HooiTest, WarmPathRecoversPlantedSubspacesLikeLanczos) {
  // A 59% sample of a planted rank-(4, 8, 8) Tucker model; mode 0's
  // compact Y(0) (17000 x 64) is above the warm floor, so sweeps 3-6 take
  // the power steps there. Sampling keeps either solver off the exact
  // planted subspaces (mode 0's largest principal angle has cosine ~0.96);
  // the warm path must get as close as Lanczos, to 1e-4 in that cosine.
  const auto planted = ht::tensor::random_low_rank(
      Shape{17000, 10, 10}, 1000000, Shape{4, 8, 8}, 0.1, 51);
  HooiOptions opt = basic_options({4, 8, 8}, 6);
  opt.fit_tolerance = 0.0;
  const HooiResult warm = ht::core::hooi(planted.tensor, opt);
  ASSERT_EQ(warm.warm_solves[0], 4);
  opt.trsvd_method = ht::core::TrsvdMethod::kLanczos;
  const HooiResult lanczos = ht::core::hooi(planted.tensor, opt);

  EXPECT_GE(warm.final_fit(), 0.999 * lanczos.final_fit());
  for (std::size_t n = 0; n < 3; ++n) {
    const double cos_warm = subspace_cosine(planted.factors[n],
                                            warm.decomposition.factors[n]);
    const double cos_lanczos = subspace_cosine(
        planted.factors[n], lanczos.decomposition.factors[n]);
    EXPECT_GT(cos_lanczos, 0.9) << "mode " << n;
    EXPECT_GE(cos_warm, cos_lanczos - 1e-4) << "mode " << n;
  }
}

TEST(HooiTest, RandomizedRangeInitSpeedsConvergence) {
  const CooTensor x = exact_low_rank_tensor({10, 9, 8}, {3, 2, 2}, 15);
  HooiOptions opt = basic_options({3, 2, 2}, 1);
  opt.init = ht::core::HooiInit::kRandomizedRange;
  const HooiResult r = ht::core::hooi(x, opt);
  // One sweep from a sketched subspace should capture nearly everything.
  EXPECT_GT(r.final_fit(), 0.99);
}

TEST(HooiTest, ConvergedFlagSetWhenFitStalls) {
  const CooTensor x = exact_low_rank_tensor({8, 8, 8}, {2, 2, 2}, 16);
  HooiOptions opt = basic_options({2, 2, 2}, 50);
  opt.fit_tolerance = 1e-9;
  const HooiResult r = ht::core::hooi(x, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, 50);
}

TEST(HooiTest, PlanReuseAcrossRankChoices) {
  CooTensor x = ht::tensor::random_uniform(Shape{30, 30, 30}, 900, 17);
  const TtmcPlan plan = TtmcPlan::build(x);
  const HooiResult r2 = ht::core::hooi(x, basic_options({2, 2, 2}, 2), plan);
  const HooiResult r5 = ht::core::hooi(x, basic_options({5, 5, 5}, 2), plan);
  EXPECT_GE(r5.final_fit(), r2.final_fit() - 1e-9);  // more rank, better fit
  EXPECT_EQ(r5.timers.symbolic, 0.0);  // the caller paid the build
}

// A prebuilt plan runs exactly the computation hooi(x, options) runs, and
// kAuto runs exactly what an explicit kCsf request runs: the plan builds
// the forest for both and every mode resolves to the CSF walk.
TEST(HooiTest, PrebuiltPlanMatchesInternalPlanBitwise) {
  const CooTensor x = ht::tensor::random_fibered(Shape{25, 20, 40}, 400, 5, 23);
  std::vector<std::vector<double>> fits;
  for (const ht::core::TtmcKernel kernel :
       {ht::core::TtmcKernel::kAuto, ht::core::TtmcKernel::kCsf}) {
    HooiOptions opt = basic_options({3, 3, 3}, 3);
    opt.ttmc.kernel = kernel;
    const HooiResult internal = ht::core::hooi(x, opt);
    const HooiResult external =
        ht::core::hooi(x, opt, TtmcPlan::build(x, opt.ttmc));
    ASSERT_EQ(internal.fits, external.fits);
    for (std::size_t n = 0; n < x.order(); ++n) {
      EXPECT_TRUE(internal.decomposition.factors[n].approx_equal(
          external.decomposition.factors[n], 0.0));
    }
    fits.push_back(internal.fits);
  }
  EXPECT_EQ(fits[0], fits[1]) << "kAuto must run the kCsf computation";
}

TEST(HooiTest, PlanRecordsPreprocessingDecisions) {
  // kAuto builds the CSF forest whenever it can — prefix-heavy or not —
  // and every mode runs it.
  for (const CooTensor& x :
       {ht::tensor::random_fibered(Shape{25, 20, 40}, 400, 6, 29),
        ht::tensor::random_uniform(Shape{200, 200, 200}, 500, 47)}) {
    const TtmcPlan plan = TtmcPlan::build(x);
    EXPECT_GT(plan.build_seconds, 0.0);
    EXPECT_EQ(plan.kernel(), ht::core::TtmcKernel::kCsf);
  }

  const CooTensor x = ht::tensor::random_uniform(Shape{200, 200, 200}, 500, 47);
  const TtmcPlan direct =
      TtmcPlan::build(x, {.kernel = ht::core::TtmcKernel::kPerNnz});
  EXPECT_EQ(direct.kernel(), ht::core::TtmcKernel::kPerNnz);
}

TEST(HooiTest, PlanForOtherOptionsIsRejected) {
  const CooTensor x = ht::tensor::random_uniform(Shape{10, 10, 10}, 200, 31);
  const TtmcPlan plan = TtmcPlan::build(x);
  HooiOptions opt = basic_options({2, 2, 2}, 1);
  opt.ttmc.kernel = ht::core::TtmcKernel::kPerNnz;
  EXPECT_THROW(ht::core::hooi(x, opt, plan), ht::InvalidArgument);
}

// Order and nonzero count do not identify a tensor: the same 400 nonzeros
// spread over 400^3 give a plan whose compact rows lie past a 20^3
// tensor's factor rows. Nor do order and rows: dropping one nonzero keeps
// them but leaves the plan covering a nonzero the tensor lacks. Both
// indexes are checked.
TEST(HooiTest, PlanFromAnotherTensorIsRejected) {
  auto grid = [](index_t stride, index_t dim, index_t count) {
    CooTensor x(Shape{dim, dim, dim});
    for (index_t k = 0; k < count; ++k) {
      const std::vector<index_t> idx = {(k % 20) * stride, (k / 20) * stride,
                                        (k * 7 % 20) * stride};
      x.push_back(idx, 1.0 + k % 3);
    }
    return x;
  };
  const CooTensor big = grid(20, 400, 400);
  const CooTensor small = grid(1, 20, 400);
  const CooTensor dropped = grid(1, 20, 399);
  ASSERT_EQ(big.nnz(), small.nnz());
  for (const auto kernel :
       {ht::core::TtmcKernel::kAuto, ht::core::TtmcKernel::kPerNnz}) {
    HooiOptions opt = basic_options({2, 2, 2}, 1);
    opt.ttmc.kernel = kernel;
    const TtmcPlan from_big = TtmcPlan::build(big, opt.ttmc);
    const TtmcPlan from_small = TtmcPlan::build(small, opt.ttmc);
    ASSERT_EQ(from_big.kernel(), kernel == ht::core::TtmcKernel::kAuto
                                     ? ht::core::TtmcKernel::kCsf
                                     : ht::core::TtmcKernel::kPerNnz);
    EXPECT_THROW(ht::core::hooi(small, opt, from_big), ht::InvalidArgument);
    EXPECT_THROW(ht::core::hooi(dropped, opt, from_small),
                 ht::InvalidArgument);
    EXPECT_NO_THROW(ht::core::hooi(small, opt, from_small));
  }
}

TEST(HooiTest, TimersArePopulated) {
  CooTensor x = ht::tensor::random_uniform(Shape{40, 40, 40}, 2000, 18);
  const HooiResult r = ht::core::hooi(x, basic_options({4, 4, 4}, 2));
  EXPECT_GT(r.timers.ttmc, 0.0);
  EXPECT_GT(r.timers.trsvd, 0.0);
  EXPECT_GE(r.timers.core, 0.0);
  EXPECT_GT(r.timers.symbolic, 0.0);
}

TEST(HooiTest, ValidationRejectsBadInput) {
  CooTensor x = ht::tensor::random_uniform(Shape{5, 5, 5}, 20, 19);
  EXPECT_THROW(ht::core::hooi(x, basic_options({2, 2})),
               ht::InvalidArgument);  // arity
  EXPECT_THROW(ht::core::hooi(x, basic_options({2, 2, 9})),
               ht::InvalidArgument);  // rank > dim
  EXPECT_THROW(ht::core::hooi(x, basic_options({0, 2, 2})),
               ht::InvalidArgument);  // zero rank
  HooiOptions bad_iters = basic_options({2, 2, 2});
  bad_iters.max_iterations = 0;
  EXPECT_THROW(ht::core::hooi(x, bad_iters), ht::InvalidArgument);
  CooTensor empty(Shape{5, 5, 5});
  EXPECT_THROW(ht::core::hooi(empty, basic_options({2, 2, 2})),
               ht::InvalidArgument);
}

// ------------------------------------------------------------ trsvd_factor

TEST(TrsvdFactorTest, ScattersRowsToGlobalPositions) {
  // Compact 3-row problem living on global rows {1, 4, 7} of dim 9.
  ht::Rng rng(20);
  Matrix y(3, 5);
  for (auto& v : y.flat()) v = rng.uniform(-1, 1);
  const std::vector<index_t> rows = {1, 4, 7};
  const auto res = ht::core::trsvd_factor(y, rows, 9, 2);
  EXPECT_EQ(res.factor.rows(), 9u);
  EXPECT_EQ(res.factor.cols(), 2u);
  for (index_t i : {0, 2, 3, 5, 6, 8}) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_DOUBLE_EQ(res.factor(i, j), 0.0) << "row " << i;
    }
  }
  // compact_u mirrors the occupied rows.
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_DOUBLE_EQ(res.compact_u(r, j), res.factor(rows[r], j));
    }
  }
}

TEST(TrsvdFactorTest, CompletesWhenRankExceedsCompactRows) {
  ht::Rng rng(21);
  Matrix y(2, 6);  // only 2 compact rows but rank 4 requested
  for (auto& v : y.flat()) v = rng.uniform(-1, 1);
  const std::vector<index_t> rows = {0, 3};
  const auto res = ht::core::trsvd_factor(y, rows, 10, 4);
  const Matrix g = ht::la::gemm_tn(res.factor, res.factor);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(g(i, j), i == j ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(TrsvdFactorTest, MethodsAgreeOnWellConditionedProblem) {
  ht::Rng rng(22);
  Matrix y(40, 12);
  for (auto& v : y.flat()) v = rng.uniform(-1, 1);
  std::vector<index_t> rows(40);
  for (index_t i = 0; i < 40; ++i) rows[i] = i;
  const auto lz =
      ht::core::trsvd_factor(y, rows, 40, 3, ht::core::TrsvdMethod::kLanczos);
  const auto gr =
      ht::core::trsvd_factor(y, rows, 40, 3, ht::core::TrsvdMethod::kGram);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(lz.sigma[j], gr.sigma[j], 1e-6);
  }
}

TEST(TrsvdFactorTest, RejectsBadArguments) {
  Matrix y(3, 4);
  const std::vector<index_t> rows = {0, 1, 2};
  EXPECT_THROW(ht::core::trsvd_factor(y, rows, 9, 0), ht::Error);
#ifndef NDEBUG
  // The per-row bounds scan is debug-only: it is a serial O(|J_n|) loop in
  // HOOI's per-mode hot path, so Release builds trust the symbolic row map.
  EXPECT_THROW(ht::core::trsvd_factor(y, rows, 2, 1), ht::Error);  // row 2 >= dim
#endif
  const std::vector<index_t> short_rows = {0, 1};
  EXPECT_THROW(ht::core::trsvd_factor(y, short_rows, 9, 1), ht::Error);
}

}  // namespace
