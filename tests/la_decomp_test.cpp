#include <gtest/gtest.h>

#include <cmath>

#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/matrix.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "util/random.hpp"

namespace {

using ht::la::Matrix;

Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  ht::Rng rng(seed);
  Matrix a(m, n);
  for (auto& v : a.flat()) v = rng.uniform(-1.0, 1.0);
  return a;
}

// || Q^T Q - I ||_max
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

// ---------------------------------------------------------- Orthonormalize

TEST(OrthonormalizeTest, ProducesOrthonormalColumns) {
  Matrix a = random_matrix(30, 6, 2);
  ht::la::orthonormalize_columns(a);
  EXPECT_LT(orthonormality_error(a), 1e-10);
}

TEST(OrthonormalizeTest, HandlesRankDeficiency) {
  Matrix a(10, 3);
  ht::Rng rng(3);
  for (std::size_t i = 0; i < 10; ++i) {
    const double v = rng.uniform();
    a(i, 0) = v;
    a(i, 1) = 2 * v;  // dependent column
    a(i, 2) = rng.uniform();
  }
  ht::la::orthonormalize_columns(a);
  EXPECT_LT(orthonormality_error(a), 1e-8);
}

TEST(OrthonormalizeTest, ZeroMatrixCompletesToBasis) {
  Matrix a(5, 3);  // all zeros
  ht::la::orthonormalize_columns(a);
  EXPECT_LT(orthonormality_error(a), 1e-10);
}

// ---------------------------------------------------------------- SVD

class SvdShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SvdShapes, ReconstructsInput) {
  const auto [m, n] = GetParam();
  const Matrix a = random_matrix(m, n, 5000 + m * 17 + n);
  const auto svd = ht::la::svd_jacobi(a);
  const std::size_t k = std::min(m, n);
  ASSERT_EQ(svd.s.size(), k);
  // Singular values descending and non-negative.
  for (std::size_t i = 0; i + 1 < k; ++i) EXPECT_GE(svd.s[i], svd.s[i + 1]);
  EXPECT_GE(svd.s[k - 1], 0.0);
  // U, V orthonormal.
  EXPECT_LT(orthonormality_error(svd.u), 1e-9);
  EXPECT_LT(orthonormality_error(svd.v), 1e-9);
  // A == U S V^T
  Matrix us = svd.u;
  for (std::size_t i = 0; i < us.rows(); ++i) {
    for (std::size_t j = 0; j < us.cols(); ++j) us(i, j) *= svd.s[j];
  }
  const Matrix rec = ht::la::gemm_nt(us, svd.v);
  EXPECT_TRUE(rec.approx_equal(a, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdShapes,
                         ::testing::Values(std::pair{1, 1}, std::pair{4, 4},
                                           std::pair{12, 5}, std::pair{5, 12},
                                           std::pair{60, 10},
                                           std::pair{33, 33}));

TEST(SvdTest, KnownDiagonalMatrix) {
  Matrix a(3, 3);
  a(0, 0) = 3;
  a(1, 1) = 1;
  a(2, 2) = 2;
  const auto svd = ht::la::svd_jacobi(a);
  EXPECT_NEAR(svd.s[0], 3.0, 1e-12);
  EXPECT_NEAR(svd.s[1], 2.0, 1e-12);
  EXPECT_NEAR(svd.s[2], 1.0, 1e-12);
}

TEST(SvdTest, RankDeficientMatrixHasZeroSingularValues) {
  Matrix a(6, 3);
  ht::Rng rng(17);
  for (std::size_t i = 0; i < 6; ++i) {
    const double v = rng.uniform();
    a(i, 0) = v;
    a(i, 1) = 3 * v;
    a(i, 2) = -v;
  }
  const auto svd = ht::la::svd_jacobi(a);
  EXPECT_GT(svd.s[0], 0.1);
  EXPECT_NEAR(svd.s[1], 0.0, 1e-10);
  EXPECT_NEAR(svd.s[2], 0.0, 1e-10);
}

// ---------------------------------------------------------------- Eig

TEST(EigTest, DiagonalMatrix) {
  Matrix a(3, 3);
  a(0, 0) = -1;
  a(1, 1) = 5;
  a(2, 2) = 2;
  const auto eig = ht::la::eig_sym_jacobi(a);
  EXPECT_NEAR(eig.w[0], 5.0, 1e-12);
  EXPECT_NEAR(eig.w[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.w[2], -1.0, 1e-12);
}

TEST(EigTest, ReconstructsSymmetricMatrix) {
  const Matrix b = random_matrix(12, 12, 31);
  const Matrix a = ht::la::gemm_tn(b, b);  // SPD
  const auto eig = ht::la::eig_sym_jacobi(a);
  EXPECT_LT(orthonormality_error(eig.v), 1e-9);
  // A == V W V^T
  Matrix vw = eig.v;
  for (std::size_t i = 0; i < vw.rows(); ++i) {
    for (std::size_t j = 0; j < vw.cols(); ++j) vw(i, j) *= eig.w[j];
  }
  const Matrix rec = ht::la::gemm_nt(vw, eig.v);
  EXPECT_TRUE(rec.approx_equal(a, 1e-8));
  for (double w : eig.w) EXPECT_GE(w, -1e-10);  // PSD
}

TEST(EigTest, RequiresSquare) {
  EXPECT_THROW(ht::la::eig_sym_jacobi(Matrix(2, 3)), ht::Error);
}

TEST(EigTest, EigenvaluesMatchSquaredSingularValues) {
  const Matrix a = random_matrix(15, 6, 32);
  const auto svd = ht::la::svd_jacobi(a);
  const Matrix gram = ht::la::gemm_tn(a, a);
  const auto eig = ht::la::eig_sym_jacobi(gram);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(eig.w[i], svd.s[i] * svd.s[i], 1e-9);
  }
}

}  // namespace
