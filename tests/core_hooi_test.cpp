#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/hooi.hpp"
#include "core/hosvd.hpp"
#include "core/met_baseline.hpp"
#include "core/symbolic.hpp"
#include "core/trsvd.hpp"
#include "la/blas.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "tensor/csf.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/generators.hpp"
#include "util/random.hpp"

namespace {

using ht::core::HooiOptions;
using ht::core::HooiResult;
using ht::core::TuckerDecomposition;
using ht::la::Matrix;
using ht::tensor::CooTensor;
using ht::tensor::CsfTensor;
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

TEST(HooiTest, ForestReuseAcrossRankChoices) {
  CooTensor x = ht::tensor::random_uniform(Shape{30, 30, 30}, 900, 17);
  const CsfTensor forest = CsfTensor::build(x);
  const HooiResult r2 = ht::core::hooi(x, basic_options({2, 2, 2}, 2), forest);
  const HooiResult r5 = ht::core::hooi(x, basic_options({5, 5, 5}, 2), forest);
  EXPECT_GE(r5.final_fit(), r2.final_fit() - 1e-9);  // more rank, better fit
  EXPECT_EQ(r5.timers.symbolic, 0.0);  // the caller paid the build
}

// A prebuilt forest runs exactly the computation hooi(x, options) runs.
TEST(HooiTest, PrebuiltForestMatchesInternalForestBitwise) {
  const CooTensor x = ht::tensor::random_fibered(Shape{25, 20, 40}, 400, 5, 23);
  const HooiOptions opt = basic_options({3, 3, 3}, 3);
  const HooiResult internal = ht::core::hooi(x, opt);
  const HooiResult external = ht::core::hooi(x, opt, CsfTensor::build(x));
  ASSERT_EQ(internal.fits, external.fits);
  for (std::size_t n = 0; n < x.order(); ++n) {
    EXPECT_TRUE(internal.decomposition.factors[n].approx_equal(
        external.decomposition.factors[n], 0.0));
  }
}

// Order and nonzero count do not identify a tensor: the same 400 nonzeros
// spread over 400^3 give a forest whose root rows lie past a 20^3 tensor's
// factor rows. Nor do order and rows: dropping one nonzero keeps them but
// leaves the forest holding a nonzero the tensor lacks. A forest of
// another order is rejected too.
TEST(HooiTest, ForestFromAnotherTensorIsRejected) {
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
  const HooiOptions opt = basic_options({2, 2, 2}, 1);
  const CsfTensor from_big = CsfTensor::build(big);
  const CsfTensor from_small = CsfTensor::build(small);
  EXPECT_THROW(ht::core::hooi(small, opt, from_big), ht::InvalidArgument);
  EXPECT_THROW(ht::core::hooi(dropped, opt, from_small), ht::InvalidArgument);
  EXPECT_NO_THROW(ht::core::hooi(small, opt, from_small));

  CooTensor flat(Shape{20, 20});
  for (index_t k = 0; k < 400; ++k) {
    flat.push_back(std::vector<index_t>{k % 20, k / 20}, 1.0);
  }
  EXPECT_THROW(ht::core::hooi(small, opt, CsfTensor::build(flat)),
               ht::InvalidArgument);
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
  CooTensor vector(Shape{10});
  for (index_t i = 0; i < 10; ++i) {
    vector.push_back(std::vector<index_t>{i}, 1.0 + i);
  }
  EXPECT_THROW(ht::core::hooi(vector, basic_options({1})),
               ht::InvalidArgument);  // order 1: no CSF tree holds it
  HooiOptions bad_iters = basic_options({2, 2, 2});
  bad_iters.max_iterations = 0;
  EXPECT_THROW(ht::core::hooi(x, bad_iters), ht::InvalidArgument);
  CooTensor empty(Shape{5, 5, 5});
  EXPECT_THROW(ht::core::hooi(empty, basic_options({2, 2, 2})),
               ht::InvalidArgument);
}

// Factor rows outside J_n, the mode's non-empty slices, are zero: the
// sweep trains only the compact rows, so the decomposition keeps exactly
// J_n, listed by global id, and looks every other row up as a zero row.
// Mode 0 has ~4000 non-empty rows of 10000, so at rank 5 the update takes
// its parallel path.
TEST(HooiTest, RowsOutsideNonemptySlicesAreZero) {
  const CooTensor src =
      ht::tensor::random_uniform(Shape{5000, 20, 20}, 20000, 23);
  CooTensor x(Shape{10000, 20, 20});
  for (ht::tensor::nnz_t e = 0; e < src.nnz(); ++e) {
    x.push_back(std::vector<index_t>{2 * src.index(0, e), src.index(1, e),
                                     src.index(2, e)},
                src.value(e));
  }
  HooiOptions opt = basic_options({5, 4, 4}, 2);
  opt.num_threads = 2;
  const HooiResult r = ht::core::hooi(x, opt);
  const auto rows = ht::core::build_mode_symbolic(x, 0).rows;
  ASSERT_GE(rows.size() * 5, std::size_t{1} << 14);
  const TuckerDecomposition& t = r.decomposition;
  ASSERT_TRUE(std::ranges::equal(t.row_ids(0), rows));
  ASSERT_EQ(t.factors[0].rows(), rows.size());
  // Modes 1 and 2 have no empty rows: whole factors, no lists.
  EXPECT_TRUE(t.row_ids(1).empty());
  EXPECT_TRUE(t.row_ids(2).empty());
  const std::vector<double> zero(5, 0.0);
  const Matrix u = t.dense_factor(0, x.dim(0));
  for (index_t i = 0; i < x.dim(0); ++i) {
    const auto row = t.factor_row(0, i, zero);
    const bool kept = std::binary_search(rows.begin(), rows.end(), i);
    ASSERT_EQ(row.data() == zero.data(), !kept) << "row " << i;
    for (std::size_t j = 0; j < u.cols(); ++j) {
      ASSERT_EQ(u(i, j), row[j]) << "row " << i;
      if (!kept) {
        ASSERT_EQ(u(i, j), 0.0) << "row " << i;
      }
    }
  }
}

// Values HOOI cannot fit are rejected up front, naming the first bad
// nonzero: before, inf trained to fit 1 with a NaN core, two 1e308 values
// overflowed ||X||^2 to fit NaN, and a NaN value or all-zero values
// stopped in an internal check of the fit.
CooTensor cube_with_values(const std::vector<double>& values) {
  CooTensor x(Shape{3, 3, 3});
  for (index_t k = 0; k < values.size(); ++k) {
    x.push_back(std::vector<index_t>{k % 3, (k + 1) % 3, k / 3}, values[k]);
  }
  return x;
}

void expect_rejected(const CooTensor& x, const std::string& needle) {
  for (const auto& train : {+[](const CooTensor& t) {
                              ht::core::hooi(t, basic_options({1, 1, 1}));
                            },
                            +[](const CooTensor& t) {
                              ht::core::hooi_met_baseline(
                                  t, basic_options({1, 1, 1}));
                            }}) {
    try {
      train(x);
      ADD_FAILURE() << "trained on values it cannot fit (" << needle << ")";
    } catch (const ht::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  }
}

TEST(HooiTest, InfiniteValueIsRejected) {
  expect_rejected(cube_with_values({1.0, INFINITY, 2.0}), "nonzero 1 at (1, 2, 0)");
}

TEST(HooiTest, OverflowingNormIsRejected) {
  expect_rejected(cube_with_values({1e308, 1e308}), "overflows");
}

TEST(HooiTest, NanValueIsRejected) {
  expect_rejected(cube_with_values({1.0, 2.0, NAN}), "nonzero 2 at (2, 0, 0)");
}

TEST(HooiTest, AllZeroValuesAreRejected) {
  expect_rejected(cube_with_values({0.0, 0.0, 0.0}), "zero");
}

}  // namespace
