#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "la/blas.hpp"
#include "la/matrix.hpp"
#include "parallel/thread_info.hpp"
#include "util/random.hpp"

namespace {

using ht::la::Matrix;

Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  ht::Rng rng(seed);
  Matrix a(m, n);
  for (auto& v : a.flat()) v = rng.uniform(-1.0, 1.0);
  return a;
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(MatrixTest, RowSpanIsContiguousView) {
  Matrix m(2, 3);
  auto r = m.row(1);
  r[0] = 1.0;
  r[2] = 3.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 3.0);
  EXPECT_EQ(r.size(), 3u);
}

TEST(MatrixTest, FromFlatDataValidatesSize) {
  EXPECT_NO_THROW(Matrix(2, 2, {1, 2, 3, 4}));
  EXPECT_THROW(Matrix(2, 2, {1, 2, 3}), ht::Error);
}

TEST(MatrixTest, TransposedSwapsIndices) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(t(j, i), m(i, j));
  }
}

TEST(MatrixTest, IdentityAndFrobenius) {
  Matrix id = Matrix::identity(4);
  EXPECT_DOUBLE_EQ(id.frobenius_norm(), 2.0);
  EXPECT_DOUBLE_EQ(id(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(id(2, 1), 0.0);
}

TEST(MatrixTest, ApproxEqual) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {1, 2, 3, 4 + 1e-12});
  EXPECT_TRUE(a.approx_equal(b, 1e-9));
  EXPECT_FALSE(a.approx_equal(b, 1e-15));
  EXPECT_FALSE(a.approx_equal(Matrix(2, 3), 1.0));
}

TEST(BlasTest, DotAxpyNrm2Scal) {
  std::vector<double> x = {1, 2, 3};
  std::vector<double> y = {4, 5, 6};
  EXPECT_DOUBLE_EQ(ht::la::dot(x, y), 32.0);
  ht::la::axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  EXPECT_DOUBLE_EQ(ht::la::nrm2(x), std::sqrt(14.0));
  ht::la::scal(0.5, x);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
}

TEST(BlasTest, GemvMatchesManual) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  std::vector<double> x = {1, 1, 1}, y(2);
  ht::la::gemv(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(BlasTest, GemvTransposeMatchesManual) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  std::vector<double> x = {1, 2}, y(3);
  ht::la::gemv_t(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], 9.0);
  EXPECT_DOUBLE_EQ(y[1], 12.0);
  EXPECT_DOUBLE_EQ(y[2], 15.0);
}

TEST(BlasTest, GemmAgainstNaive) {
  const Matrix a = random_matrix(17, 9, 1);
  const Matrix b = random_matrix(9, 13, 2);
  const Matrix c = ht::la::gemm(a, b);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      EXPECT_NEAR(c(i, j), s, 1e-12);
    }
  }
}

TEST(BlasTest, GemmTnEqualsTransposedGemm) {
  const Matrix a = random_matrix(20, 5, 3);
  const Matrix b = random_matrix(20, 7, 4);
  const Matrix c1 = ht::la::gemm_tn(a, b);
  const Matrix c2 = ht::la::gemm(a.transposed(), b);
  EXPECT_TRUE(c1.approx_equal(c2, 1e-12));
}

TEST(BlasTest, GemmNtEqualsGemmWithTranspose) {
  const Matrix a = random_matrix(6, 8, 5);
  const Matrix b = random_matrix(10, 8, 6);
  const Matrix c1 = ht::la::gemm_nt(a, b);
  const Matrix c2 = ht::la::gemm(a, b.transposed());
  EXPECT_TRUE(c1.approx_equal(c2, 1e-12));
}

TEST(BlasTest, ShapeMismatchThrows) {
  Matrix a(2, 3), b(4, 2);
  EXPECT_THROW(ht::la::gemm(a, b), ht::Error);
  std::vector<double> x(5), y(2);
  EXPECT_THROW(ht::la::gemv(a, x, y), ht::Error);
}

TEST(BlasTest, ThreadedAndSerialPathsAgree) {
  // Past both parallel thresholds (256 rows, 16384 entries) and spanning
  // several reduction blocks: every kernel, reductions included, must be
  // bitwise identical with threading off and at any team size.
  const Matrix a = random_matrix(3000, 16, 7);
  const Matrix b = random_matrix(16, 12, 8);
  const Matrix c = random_matrix(3000, 12, 10);
  // More row blocks than one reduction wave holds.
  const Matrix tall = random_matrix(70000, 3, 11);
  std::vector<double> x(3000), xt(70000), u(50000), v(50000);
  ht::Rng rng(9);
  for (auto& e : x) e = rng.uniform();
  for (auto& e : xt) e = rng.uniform(-1.0, 1.0);
  for (auto& e : u) e = rng.uniform(-1.0, 1.0);
  for (auto& e : v) e = rng.uniform(-1.0, 1.0);

  struct Results {
    Matrix ab, atc, tt;
    std::vector<double> atx, ttx;
    double uv = 0.0, norm = 0.0;
  };
  const auto run = [&] {
    Results r;
    r.ab = ht::la::gemm(a, b);
    r.atc = ht::la::gemm_tn(a, c);
    r.tt = ht::la::gemm_tn(tall, tall);
    r.atx.resize(16);
    ht::la::gemv_t(a, x, r.atx);
    r.ttx.resize(3);
    ht::la::gemv_t(tall, xt, r.ttx);
    r.uv = ht::la::dot(u, v);
    r.norm = ht::la::nrm2(u);
    return r;
  };
  ht::la::set_blas_threading(false);
  const Results serial = run();
  ht::la::set_blas_threading(true);
  for (const int threads : {1, 2, 3, 4}) {
    ht::parallel::ThreadScope scope(threads);
    const Results r = run();
    EXPECT_TRUE(r.ab.approx_equal(serial.ab, 0.0)) << threads << " threads";
    EXPECT_TRUE(r.atc.approx_equal(serial.atc, 0.0)) << threads << " threads";
    EXPECT_TRUE(r.tt.approx_equal(serial.tt, 0.0)) << threads << " threads";
    EXPECT_EQ(r.atx, serial.atx) << threads << " threads";
    EXPECT_EQ(r.ttx, serial.ttx) << threads << " threads";
    EXPECT_EQ(r.uv, serial.uv) << threads << " threads";
    EXPECT_EQ(r.norm, serial.norm) << threads << " threads";
  }
}

// gemm_into in its plain-loop order: each entry sums from zero over
// ascending l.
Matrix reference_gemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t l = 0; l < a.cols(); ++l) s += a(i, l) * b(l, j);
      c(i, j) = s;
    }
  }
  return c;
}

// gemm_tn_into in its plain-loop order: rows are summed in fixed blocks of
// 1024 (la/blas.cpp's kReduceRows), each block from zero over ascending
// rows, and the block sums are added left to right.
Matrix reference_gemm_tn(const Matrix& a, const Matrix& b) {
  constexpr std::size_t kBlockRows = 1024;
  Matrix c(a.cols(), b.cols());
  for (std::size_t l = 0; l < a.cols(); ++l) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double total = 0.0;
      for (std::size_t r0 = 0; r0 < a.rows(); r0 += kBlockRows) {
        double s = 0.0;
        for (std::size_t i = r0; i < std::min(a.rows(), r0 + kBlockRows); ++i) {
          s += a(i, l) * b(i, j);
        }
        total = r0 == 0 ? s : total + s;
      }
      c(l, j) = total;
    }
  }
  return c;
}

bool same_bits(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

TEST(BlasTest, NarrowProductsMatchPlainLoopsBitForBit) {
  // Right operands of 1-16 columns take the register-tiled kernels, 17 the
  // plain loops. Odd row counts leave partial row tiles, 125 columns (the
  // order-4, R = 5 width of Y(n)) a partial column tile, and 2500 rows
  // three reduction blocks for gemm_tn.
  for (const std::size_t k : {1u, 7u, 125u}) {
    const Matrix a = random_matrix(2500, k, 40 + k);
    for (std::size_t n = 1; n <= 17; ++n) {
      const Matrix b = random_matrix(k, n, 60 + n);
      const Matrix u = random_matrix(2500, n, 80 + n);
      const Matrix ab = reference_gemm(a, b);
      const Matrix atu = reference_gemm_tn(a, u);
      for (const int threads : {1, 4}) {
        ht::parallel::ThreadScope scope(threads);
        Matrix c, d;
        ht::la::gemm_into(a, b, c);
        ht::la::gemm_tn_into(a, u, d);
        EXPECT_TRUE(same_bits(c, ab))
            << "gemm k=" << k << " n=" << n << " threads=" << threads;
        EXPECT_TRUE(same_bits(d, atu))
            << "gemm_tn k=" << k << " n=" << n << " threads=" << threads;
      }
    }
  }
}

}  // namespace
