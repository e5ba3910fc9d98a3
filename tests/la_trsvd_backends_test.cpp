// Backend-equivalence suite for the blocked TRSVD solver: randomized
// subspace iteration against the Gram/Jacobi references, the block
// orthonormalizers, the block-apply == repeated-scalar-apply operator
// contract, and fixed-seed determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "la/blas.hpp"
#include "la/block_ops.hpp"
#include "la/lanczos.hpp"
#include "la/linear_operator.hpp"
#include "la/qr.hpp"
#include "la/randomized_trsvd.hpp"
#include "la/svd.hpp"
#include "util/random.hpp"

namespace {

using ht::la::DenseOperator;
using ht::la::Matrix;
using ht::la::TrsvdOptions;
using ht::la::TrsvdResult;

Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  ht::Rng rng(seed);
  Matrix a(m, n);
  for (auto& v : a.flat()) v = rng.uniform(-1.0, 1.0);
  return a;
}

Matrix matrix_with_spectrum(std::size_t m, std::size_t n,
                            const std::vector<double>& sigma,
                            std::uint64_t seed) {
  Matrix u = random_matrix(m, sigma.size(), seed);
  Matrix v = random_matrix(n, sigma.size(), seed + 1);
  ht::la::orthonormalize_columns(u);
  ht::la::orthonormalize_columns(v);
  for (std::size_t j = 0; j < sigma.size(); ++j) {
    for (std::size_t i = 0; i < m; ++i) u(i, j) *= sigma[j];
  }
  return ht::la::gemm_nt(u, v);
}

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

// Largest principal angle (as 1 - |cos|) between the subspaces spanned by
// the leading `k` columns of a and b: 1 - sigma_min(a^T b).
double subspace_gap(const Matrix& a, const Matrix& b, std::size_t k) {
  Matrix ak(a.rows(), k), bk(b.rows(), k);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      ak(i, j) = a(i, j);
      bk(i, j) = b(i, j);
    }
  }
  const Matrix overlap = ht::la::gemm_tn(ak, bk);
  const auto svd = ht::la::svd_jacobi(overlap);
  return 1.0 - svd.s.back();
}

// Operator that only exposes the scalar entry points, so every block call
// exercises the TrsvdOperator default implementations.
class ScalarOnlyOperator final : public ht::la::TrsvdOperator {
 public:
  explicit ScalarOnlyOperator(const Matrix& a) : inner_(a) {}
  [[nodiscard]] std::size_t row_local_size() const override {
    return inner_.row_local_size();
  }
  [[nodiscard]] std::size_t col_size() const override {
    return inner_.col_size();
  }
  void apply(std::span<const double> v, std::span<double> u) override {
    inner_.apply(v, u);
  }
  void apply_transpose(std::span<const double> u,
                       std::span<double> v) override {
    inner_.apply_transpose(u, v);
  }

 private:
  DenseOperator inner_;
};

TEST(BlockOperatorContract, BlockApplyMatchesRepeatedScalarApply) {
  const Matrix a = random_matrix(300, 40, 21);
  DenseOperator dense(a);
  ScalarOnlyOperator scalar(a);
  const Matrix v = random_matrix(40, 7, 22);

  Matrix u_dense, u_scalar;
  dense.apply_block(v, u_dense);
  scalar.apply_block(v, u_scalar);
  ASSERT_EQ(u_dense.rows(), 300u);
  ASSERT_EQ(u_dense.cols(), 7u);
  EXPECT_TRUE(u_dense.approx_equal(u_scalar, 1e-13));

  Matrix w_dense, w_scalar;
  dense.apply_transpose_block(u_dense, w_dense);
  scalar.apply_transpose_block(u_dense, w_scalar);
  ASSERT_EQ(w_dense.rows(), 40u);
  ASSERT_EQ(w_dense.cols(), 7u);
  EXPECT_TRUE(w_dense.approx_equal(w_scalar, 1e-13));
}

TEST(BlockOperatorContract, SolversAgreeOnDefaultAndOverriddenOperators) {
  // The blocked solver must produce the same result through the default
  // (loop-of-scalar-applies) block interface as through the gemm overrides.
  const Matrix a = matrix_with_spectrum(200, 30, {9, 7, 5, 3, 2, 1}, 23);
  DenseOperator dense(a);
  ScalarOnlyOperator scalar(a);
  const auto r1 = ht::la::randomized_trsvd(dense, 4);
  const auto r2 = ht::la::randomized_trsvd(scalar, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(r1.sigma[i], r2.sigma[i], 1e-10);
  }
  EXPECT_TRUE(r1.u.approx_equal(r2.u, 1e-8));
}

TEST(BlockOps, Orthonormalize) {
  Matrix u = random_matrix(500, 8, 31);
  Matrix scratch;
  DenseOperator op(random_matrix(500, 10, 32));  // only for row_gram default
  const std::size_t kept = ht::la::orthonormalize_rowspace_block(op, u, scratch);
  EXPECT_EQ(kept, 8u);
  EXPECT_LT(orthonormality_error(u), 1e-12);

  // Rank-deficient block: duplicated columns collapse to zero columns.
  Matrix d(60, 4);
  const Matrix base = random_matrix(60, 2, 33);
  for (std::size_t i = 0; i < 60; ++i) {
    d(i, 0) = base(i, 0);
    d(i, 1) = base(i, 1);
    d(i, 2) = base(i, 0);  // duplicate
    d(i, 3) = base(i, 0) + base(i, 1);  // dependent
  }
  const std::size_t kept_d = ht::la::orthonormalize_colspace_block(d, scratch);
  EXPECT_EQ(kept_d, 2u);
  for (std::size_t i = 0; i < 60; ++i) {
    EXPECT_DOUBLE_EQ(d(i, 2), 0.0);
    EXPECT_DOUBLE_EQ(d(i, 3), 0.0);
  }
}

struct BackendCase {
  int m, n, rank;
};

class BlockedBackendsVsGram : public ::testing::TestWithParam<BackendCase> {};

TEST_P(BlockedBackendsVsGram, SingularValuesAndSubspacesMatch) {
  const auto [m, n, rank] = GetParam();
  // Decaying spectrum with an exactly captured tail: the randomized
  // sketch's l = rank + 8 columns cover the whole numerical range, so it
  // must match the Gram reference tightly.
  std::vector<double> spectrum;
  for (int i = 0; i < std::min(n, rank + 6); ++i) {
    spectrum.push_back(10.0 * std::pow(0.6, i));
  }
  const Matrix a = matrix_with_spectrum(m, n, spectrum, 700 + m + n + rank);
  const auto ref = ht::la::gram_trsvd(a, rank);

  DenseOperator op_r(a);
  const auto rnd = ht::la::randomized_trsvd(op_r, rank);

  for (int i = 0; i < rank; ++i) {
    EXPECT_NEAR(rnd.sigma[i], ref.sigma[i], 1e-7 * ref.sigma[0])
        << "randomized sigma_" << i;
  }
  EXPECT_LT(orthonormality_error(rnd.u), 1e-8);
  EXPECT_LT(subspace_gap(rnd.u, ref.u, rank), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedBackendsVsGram,
    ::testing::Values(BackendCase{200, 30, 5}, BackendCase{1000, 25, 8},
                      BackendCase{2000, 16, 4},    // tall and skinny
                      BackendCase{64, 64, 6},      // square
                      BackendCase{50, 100, 4}));   // wide

TEST(BlockedBackends, RankDeficientYieldsZeroSigmas) {
  // Numerical rank 2, requested rank 5: trailing singular values ~0 and
  // the leading pair exact.
  const Matrix a = matrix_with_spectrum(150, 30, {4.0, 3.0}, 41);
  DenseOperator op_r(a);
  const auto rnd = ht::la::randomized_trsvd(op_r, 5);
  EXPECT_NEAR(rnd.sigma[0], 4.0, 1e-7);
  EXPECT_NEAR(rnd.sigma[1], 3.0, 1e-7);
  for (std::size_t i = 2; i < 5; ++i) EXPECT_NEAR(rnd.sigma[i], 0.0, 1e-6);
}

TEST(BlockedBackends, FullWidthSketchIsExactOnAnyMatrix) {
  // l = c captures the whole column space: exact on a clustered
  // (Marchenko–Pastur) spectrum, the adversarial case for Krylov methods.
  const Matrix a = random_matrix(400, 20, 43);
  const auto ref = ht::la::svd_jacobi(a);
  TrsvdOptions opt;
  opt.oversample = 20;  // rank + 20 > c = 20 -> clamped to full width
  DenseOperator op(a);
  const auto rnd = ht::la::randomized_trsvd(op, 6, opt);
  for (int i = 0; i < 6; ++i) {
    EXPECT_NEAR(rnd.sigma[i], ref.s[i], 1e-8 * ref.s[0]);
  }
}

TEST(BlockedBackends, PowerIterationsSharpenTheSketch) {
  // Slowly decaying tail beyond the sketch: more power iterations must not
  // worsen (and should improve) the captured subspace.
  std::vector<double> spectrum(30);
  for (int i = 0; i < 30; ++i) spectrum[i] = std::pow(0.92, i);
  const Matrix a = matrix_with_spectrum(800, 30, spectrum, 46);
  const auto ref = ht::la::gram_trsvd(a, 4);
  std::vector<double> gaps;
  for (const std::size_t q : {0u, 1u, 3u}) {
    TrsvdOptions opt;
    opt.oversample = 2;  // deliberately tight sketch
    opt.power_iterations = q;
    DenseOperator op(a);
    const auto rnd = ht::la::randomized_trsvd(op, 4, opt);
    gaps.push_back(subspace_gap(rnd.u, ref.u, 4));
    if (gaps.size() > 1) {
      EXPECT_LE(gaps.back(), gaps[gaps.size() - 2] + 1e-9) << "q=" << q;
    }
  }
  // sigma_4/sigma_5 = 0.92 is nearly clustered, so the trailing direction
  // converges slowly — require a clear improvement, not tight capture.
  EXPECT_LT(gaps.back(), 0.25 * gaps.front());
}

TEST(BlockedBackends, DeterministicAcrossRuns) {
  const Matrix a = random_matrix(120, 24, 47);
  DenseOperator op1(a), op2(a);
  const TrsvdResult r1 = ht::la::randomized_trsvd(op1, 5);
  const TrsvdResult r2 = ht::la::randomized_trsvd(op2, 5);
  ASSERT_EQ(r1.sigma.size(), r2.sigma.size());
  for (std::size_t i = 0; i < r1.sigma.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.sigma[i], r2.sigma[i]);
  }
  EXPECT_TRUE(r1.u.approx_equal(r2.u, 0.0));
}

TEST(BlockedBackends, InvalidRankThrows) {
  const Matrix a = random_matrix(10, 5, 48);
  DenseOperator op(a);
  EXPECT_THROW(ht::la::randomized_trsvd(op, 0), ht::Error);
  EXPECT_THROW(ht::la::randomized_trsvd(op, 6), ht::Error);
}

TEST(BlockedBackends, OperatorAppliesAreCounted) {
  const Matrix a = matrix_with_spectrum(300, 30, {5, 4, 3, 2, 1}, 49);
  DenseOperator op_r(a);
  const auto rnd = ht::la::randomized_trsvd(op_r, 3);
  // (2q+2) block passes of width l plus nothing else.
  const std::size_t l = 3 + TrsvdOptions{}.oversample;
  EXPECT_EQ(rnd.operator_applies, (2 * TrsvdOptions{}.power_iterations + 2) * l);
}

}  // namespace
