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

TEST(TtmcTest, OneNonzeroGivesItsKroneckerRow) {
  // One nonzero v at (1, 2, 3, ...): Y(0) is one row, v times the
  // Kronecker product of the other modes' factor rows, later modes
  // fastest. Orders 3, 4 and 5 reach the 3-mode, 4-mode and general
  // kernels.
  for (const Shape& shape : {Shape{3, 4, 5}, Shape{3, 4, 5, 6},
                             Shape{3, 4, 5, 6, 4}}) {
    CooTensor x(shape);
    std::vector<index_t> idx(shape.size());
    for (std::size_t t = 0; t < shape.size(); ++t) idx[t] = 1 + t % 3;
    x.push_back(idx, 2.0);
    const auto factors = random_factors(
        shape, std::vector<index_t>(shape.size(), 2), 37);
    std::vector<double> expect = {2.0};
    for (std::size_t t = 1; t < shape.size(); ++t) {
      std::vector<double> next;
      for (const double e : expect) {
        for (const double u : factors[t].row(idx[t])) next.push_back(e * u);
      }
      expect = std::move(next);
    }
    const SymbolicTtmc sym = SymbolicTtmc::build(x);
    Matrix y;
    ht::core::ttmc_mode(x, factors, 0, sym.modes[0], y);
    ASSERT_EQ(y.rows(), 1u);
    ASSERT_EQ(y.cols(), expect.size());
    for (std::size_t c = 0; c < expect.size(); ++c) {
      EXPECT_NEAR(y(0, c), expect[c], 1e-14) << shape.size() << "-mode";
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
