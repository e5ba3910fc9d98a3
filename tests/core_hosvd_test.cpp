#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/hosvd.hpp"
#include "core/rank_sweep.hpp"
#include "la/blas.hpp"
#include "la/svd.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/generators.hpp"
#include "util/random.hpp"

namespace {

using ht::core::HooiOptions;
using ht::la::Matrix;
using ht::tensor::CooTensor;
using ht::tensor::index_t;
using ht::tensor::Shape;

double orthonormality_error(const Matrix& q) {
  const Matrix g = ht::la::gemm_tn(q, q);
  double err = 0;
  for (std::size_t i = 0; i < g.rows(); ++i) {
    for (std::size_t j = 0; j < g.cols(); ++j) {
      err = std::max(err, std::abs(g(i, j) - (i == j ? 1.0 : 0.0)));
    }
  }
  return err;
}

TEST(RandomInitTest, FactorsAreOrthonormalAndDeterministic) {
  const Shape shape{40, 30, 20};
  const std::vector<index_t> ranks{5, 4, 3};
  const auto a = ht::core::random_orthonormal_factors(shape, ranks, 7);
  const auto b = ht::core::random_orthonormal_factors(shape, ranks, 7);
  ASSERT_EQ(a.size(), 3u);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(a[n].rows(), shape[n]);
    EXPECT_EQ(a[n].cols(), ranks[n]);
    EXPECT_LT(orthonormality_error(a[n]), 1e-10);
    EXPECT_TRUE(a[n].approx_equal(b[n], 0.0));
  }
  const auto c = ht::core::random_orthonormal_factors(shape, ranks, 8);
  EXPECT_FALSE(a[0].approx_equal(c[0], 1e-3));
}

// The rows `keep` lists are the whole factor's rows bit for bit: each mode
// is still drawn and orthonormalized whole (HOOI trains compact factors
// cut this way and stays bit-identical to training the whole ones).
TEST(RandomInitTest, KeptRowsAreTheWholeFactorsRows) {
  const Shape shape{40, 30, 20};
  const std::vector<index_t> ranks{5, 4, 3};
  const std::vector<std::vector<index_t>> keep = {
      {0, 3, 4, 17, 39}, {1, 2, 29}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 19}};
  const std::vector<std::span<const index_t>> spans(keep.begin(), keep.end());
  const auto whole = ht::core::random_orthonormal_factors(shape, ranks, 7);
  const auto kept =
      ht::core::random_orthonormal_factors(shape, ranks, 7, spans);
  const CooTensor x = ht::tensor::random_uniform(shape, 1500, 11);
  const auto range_whole = ht::core::randomized_range_factors(x, ranks, 13);
  const auto range_kept = ht::core::randomized_range_factors(
      x, ranks, 13, ht::core::kRangeOversample, spans);
  for (std::size_t n = 0; n < shape.size(); ++n) {
    ASSERT_EQ(kept[n].rows(), keep[n].size());
    ASSERT_EQ(range_kept[n].rows(), keep[n].size());
    for (std::size_t k = 0; k < keep[n].size(); ++k) {
      for (std::size_t j = 0; j < ranks[n]; ++j) {
        EXPECT_EQ(kept[n](k, j), whole[n](keep[n][k], j)) << "mode " << n;
        EXPECT_EQ(range_kept[n](k, j), range_whole[n](keep[n][k], j))
            << "mode " << n;
      }
    }
  }
}

TEST(RandomInitTest, RejectsBadRanks) {
  const Shape shape{10, 10};
  EXPECT_THROW(ht::core::random_orthonormal_factors(
                   shape, std::vector<index_t>{5}, 1),
               ht::Error);
  EXPECT_THROW(ht::core::random_orthonormal_factors(
                   shape, std::vector<index_t>{11, 5}, 1),
               ht::Error);
}

TEST(RangeInitTest, FactorsAreOrthonormal) {
  const CooTensor x =
      ht::tensor::random_uniform(Shape{60, 50, 40}, 2000, 11);
  const std::vector<index_t> ranks{4, 4, 4};
  const auto factors = ht::core::randomized_range_factors(x, ranks, 13);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(factors[n].rows(), x.dim(n));
    EXPECT_EQ(factors[n].cols(), 4u);
    EXPECT_LT(orthonormality_error(factors[n]), 1e-8);
  }
}

TEST(RangeInitTest, CapturesRangeOfExactlyLowRankTensor) {
  // Exactly rank-(3,3,3) tensor stored with full support: the sketch range
  // is contained in the true 3-dimensional range of X(1), so the sketched
  // factor must span it exactly. (On merely *approximately* low-rank data
  // a single-pass sketch only approximates the subspace — that warm-start
  // behaviour is covered by HooiTest.RandomizedRangeInitSpeedsConvergence.)
  const Shape shape{25, 8, 6};
  const std::vector<index_t> ranks{3, 3, 3};
  ht::core::TuckerDecomposition model;
  model.factors = ht::core::random_orthonormal_factors(shape, ranks, 17);
  model.core = ht::tensor::DenseTensor(Shape{3, 3, 3});
  ht::Rng rng(18);
  for (auto& v : model.core.flat()) v = rng.uniform(-1.0, 1.0);
  const auto dense = model.reconstruct_dense();

  CooTensor x(shape);
  std::vector<index_t> idx(3, 0);
  for (std::size_t off = 0; off < dense.size(); ++off) {
    x.push_back(idx, dense.flat()[off]);
    for (std::size_t n = 3; n-- > 0;) {
      if (++idx[n] < shape[n]) break;
      idx[n] = 0;
    }
  }

  const auto factors =
      ht::core::randomized_range_factors(x, ranks, 19, /*oversample=*/5);
  const auto x1 = dense.matricize(0);
  const auto svd = ht::la::svd_jacobi(x1);
  Matrix u_exact(shape[0], 3);
  for (index_t i = 0; i < shape[0]; ++i) {
    for (std::size_t j = 0; j < 3; ++j) u_exact(i, j) = svd.u(i, j);
  }
  // Principal angles: the overlap's smallest singular value measures the
  // alignment of the sketched and exact subspaces.
  const Matrix overlap = ht::la::gemm_tn(u_exact, factors[0]);
  const auto overlap_svd = ht::la::svd_jacobi(overlap);
  EXPECT_GT(overlap_svd.s[2], 0.999);
}

TEST(RangeInitTest, DeterministicForSeed) {
  const CooTensor x = ht::tensor::random_uniform(Shape{30, 30, 30}, 700, 21);
  const std::vector<index_t> ranks{3, 3, 3};
  const auto a = ht::core::randomized_range_factors(x, ranks, 5);
  const auto b = ht::core::randomized_range_factors(x, ranks, 5);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_TRUE(a[n].approx_equal(b[n], 0.0));
  }
}

// ------------------------------------------------------------ rank sweep

TEST(RankSweepTest, FitsIncreaseWithRank) {
  CooTensor x = ht::tensor::random_zipf(Shape{40, 35, 30}, 1500,
                                        {0.7, 0.5, 0.3}, 23);
  ht::tensor::plant_low_rank_values(x, 6, 0.05, 24);

  HooiOptions base;
  base.max_iterations = 3;
  const std::vector<std::vector<index_t>> candidates = {
      {2, 2, 2}, {4, 4, 4}, {6, 6, 6}};
  const auto sweep = ht::core::rank_sweep(x, candidates, base);
  ASSERT_EQ(sweep.entries.size(), 3u);
  EXPECT_GE(sweep.entries[1].fit, sweep.entries[0].fit - 1e-9);
  EXPECT_GE(sweep.entries[2].fit, sweep.entries[1].fit - 1e-9);
  EXPECT_GT(sweep.symbolic_seconds, 0.0);
}

TEST(RankSweepTest, PickPrefersSmallestSufficientCore) {
  // Full-support exactly-rank-2 tensor (a sparse *mask* of a low-rank
  // tensor is not low rank, so full support is required for the elbow).
  const Shape shape{10, 9, 8};
  CooTensor x(shape);
  ht::Rng rng(25);
  std::vector<double> a(shape[0]), b(shape[1]), c(shape[2]);
  std::vector<double> a2(shape[0]), b2(shape[1]), c2(shape[2]);
  for (auto* v : {&a, &b, &c, &a2, &b2, &c2}) {
    for (auto& e : *v) e = rng.uniform(0.2, 1.0);
  }
  for (index_t i = 0; i < shape[0]; ++i) {
    for (index_t j = 0; j < shape[1]; ++j) {
      for (index_t k = 0; k < shape[2]; ++k) {
        const double v = a[i] * b[j] * c[k] + 0.5 * a2[i] * b2[j] * c2[k];
        x.push_back(std::vector<index_t>{i, j, k}, v);
      }
    }
  }
  HooiOptions base;
  base.max_iterations = 6;
  const std::vector<std::vector<index_t>> candidates = {
      {2, 2, 2}, {5, 5, 5}, {8, 8, 8}};
  const auto sweep = ht::core::rank_sweep(x, candidates, base);
  // Rank 2 already explains the data; pick() should not choose a larger core.
  const auto& chosen = sweep.pick(0.95);
  EXPECT_EQ(chosen.ranks, (std::vector<index_t>{2, 2, 2}));
  EXPECT_GT(sweep.entries[0].fit, 0.999);
}

TEST(RankSweepTest, EmptyCandidatesThrow) {
  CooTensor x = ht::tensor::random_uniform(Shape{10, 10}, 30, 27);
  HooiOptions base;
  EXPECT_THROW(ht::core::rank_sweep(x, {}, base), ht::Error);
}

}  // namespace
