#include <gtest/gtest.h>

#include <vector>

#include "core/symbolic.hpp"
#include "core/ttmc.hpp"
#include "la/matrix.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/generators.hpp"
#include "util/random.hpp"

namespace {

using ht::core::SymbolicTtmc;
using ht::la::Matrix;
using ht::tensor::CooTensor;
using ht::tensor::DenseTensor;
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

// Reference: dense TTMc + matricization, compacted to the symbolic rows.
Matrix reference_compact_y(const CooTensor& x, const std::vector<Matrix>& f,
                           std::size_t mode,
                           const ht::core::ModeSymbolic& sym) {
  const DenseTensor dense = DenseTensor::from_coo(x);
  const DenseTensor y = ht::tensor::dense_ttmc_except(dense, mode, f);
  const Matrix yn = y.matricize(mode);
  Matrix compact(sym.num_rows(), yn.cols());
  for (std::size_t r = 0; r < sym.num_rows(); ++r) {
    for (std::size_t c = 0; c < yn.cols(); ++c) {
      compact(r, c) = yn(sym.rows[r], c);
    }
  }
  return compact;
}

struct TtmcCase {
  Shape shape;
  std::vector<index_t> ranks;
  ht::tensor::nnz_t nnz;
};

class TtmcVsDense : public ::testing::TestWithParam<TtmcCase> {};

TEST_P(TtmcVsDense, MatchesBruteForce) {
  const auto& [shape, ranks, nnz] = GetParam();
  const CooTensor x = ht::tensor::random_uniform(shape, nnz, 17);
  const auto factors = random_factors(shape, ranks, 23);
  const SymbolicTtmc sym = SymbolicTtmc::build(x);

  for (std::size_t mode = 0; mode < shape.size(); ++mode) {
    Matrix y;
    ht::core::ttmc_mode(x, factors, mode, sym.modes[mode], y);
    const Matrix ref = reference_compact_y(x, factors, mode, sym.modes[mode]);
    ASSERT_EQ(y.rows(), ref.rows()) << "mode " << mode;
    ASSERT_EQ(y.cols(), ref.cols()) << "mode " << mode;
    EXPECT_TRUE(y.approx_equal(ref, 1e-10)) << "mode " << mode;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TtmcVsDense,
    ::testing::Values(
        TtmcCase{{6, 7, 8}, {2, 3, 4}, 60},
        TtmcCase{{6, 7, 8}, {6, 7, 8}, 100},   // full ranks
        TtmcCase{{12, 4, 9}, {3, 2, 2}, 150},
        TtmcCase{{5, 6, 7, 8}, {2, 2, 3, 2}, 120},  // 4-mode
        TtmcCase{{4, 4, 4, 4}, {4, 4, 4, 4}, 64},
        TtmcCase{{3, 4, 5, 2, 3}, {2, 2, 2, 2, 2}, 80},  // 5-mode general path
        TtmcCase{{30, 3, 3}, {1, 1, 1}, 40}));  // rank-1 edge

TEST(TtmcTest, RowWidth) {
  const auto factors = random_factors({5, 6, 7}, {2, 3, 4}, 1);
  EXPECT_EQ(ht::core::ttmc_row_width(factors, 0), 12u);
  EXPECT_EQ(ht::core::ttmc_row_width(factors, 1), 8u);
  EXPECT_EQ(ht::core::ttmc_row_width(factors, 2), 6u);
}

TEST(TtmcTest, StaticAndDynamicSchedulesAgree) {
  const CooTensor x = ht::tensor::random_zipf(Shape{50, 40, 30}, 2000,
                                              {1.0, 0.5, 0.0}, 29);
  const auto factors = random_factors(x.shape(), {4, 4, 4}, 31);
  const SymbolicTtmc sym = SymbolicTtmc::build(x);
  Matrix yd, ys;
  ht::core::ttmc_mode(x, factors, 0, sym.modes[0], yd,
                      ht::core::Schedule::kDynamic);
  ht::core::ttmc_mode(x, factors, 0, sym.modes[0], ys,
                      ht::core::Schedule::kStatic);
  EXPECT_TRUE(yd.approx_equal(ys, 0.0));  // identical row sums, exact match
}

TEST(TtmcTest, AccumulateKronSingleNonzero) {
  CooTensor x(Shape{3, 4, 5});
  x.push_back(std::vector<index_t>{1, 2, 3}, 2.0);
  const auto factors = random_factors(x.shape(), {2, 2, 2}, 37);
  std::vector<double> out(4, 0.0);
  ht::core::accumulate_kron(x, 0, factors, 0, out);
  // out[j*2+k] = 2 * U1(2,j) * U2(3,k)
  for (std::size_t j = 0; j < 2; ++j) {
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_NEAR(out[j * 2 + k], 2.0 * factors[1](2, j) * factors[2](3, k),
                  1e-14);
    }
  }
}

TEST(TtmcTest, AccumulateKronIsAdditive) {
  const CooTensor x = ht::tensor::random_uniform(Shape{6, 6, 6, 6}, 50, 41);
  const auto factors = random_factors(x.shape(), {2, 3, 2, 2}, 43);
  // Accumulating all nonzeros with mode-0 index i must equal the ttmc row.
  const SymbolicTtmc sym = SymbolicTtmc::build(x);
  Matrix y;
  ht::core::ttmc_mode(x, factors, 0, sym.modes[0], y);
  for (std::size_t r = 0; r < sym.modes[0].num_rows(); ++r) {
    std::vector<double> acc(y.cols(), 0.0);
    for (auto e : sym.modes[0].update_list(r)) {
      ht::core::accumulate_kron(x, e, factors, 0, acc);
    }
    for (std::size_t c = 0; c < y.cols(); ++c) {
      EXPECT_NEAR(acc[c], y(r, c), 1e-12);
    }
  }
}

TEST(TtmcTest, MismatchedFactorsThrow) {
  const CooTensor x = ht::tensor::random_uniform(Shape{5, 5, 5}, 20, 47);
  auto factors = random_factors(x.shape(), {2, 2, 2}, 49);
  const SymbolicTtmc sym = SymbolicTtmc::build(x);
  Matrix y;
  factors[1] = random_matrix(4, 2, 51);  // wrong row count
  EXPECT_THROW(ht::core::ttmc_mode(x, factors, 0, sym.modes[0], y), ht::Error);
}

TEST(TtmcTest, ReusedOutputBufferIsReset) {
  const CooTensor x = ht::tensor::random_uniform(Shape{8, 8, 8}, 100, 53);
  const auto factors = random_factors(x.shape(), {3, 3, 3}, 55);
  const SymbolicTtmc sym = SymbolicTtmc::build(x);
  Matrix y;
  ht::core::ttmc_mode(x, factors, 0, sym.modes[0], y);
  const Matrix first = y;
  ht::core::ttmc_mode(x, factors, 0, sym.modes[0], y);  // reuse buffer
  EXPECT_TRUE(y.approx_equal(first, 0.0));
}

}  // namespace
