// HOOI-level equivalence suite for the TRSVD solvers: every solver must
// drive HOOI to the same fit as the scalar Lanczos solver across tensor
// orders 3/4/5, the kAuto rule must resolve as documented, and the
// trsvd_factor dispatch/scatter must behave identically across methods
// (including the parallelized scatter path).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/hooi.hpp"
#include "core/rank_sweep.hpp"
#include "core/symbolic.hpp"
#include "core/trsvd.hpp"
#include "core/ttmc.hpp"
#include "la/blas.hpp"
#include "la/linear_operator.hpp"
#include "tensor/generators.hpp"
#include "util/random.hpp"

namespace {

using ht::core::HooiOptions;
using ht::core::TrsvdMethod;
using ht::la::Matrix;
using ht::tensor::CooTensor;
using ht::tensor::index_t;
using ht::tensor::Shape;

const std::vector<TrsvdMethod> kAllBackends = {
    TrsvdMethod::kLanczos, TrsvdMethod::kGram, TrsvdMethod::kRandomized,
    TrsvdMethod::kAuto};

CooTensor planted_tensor(const Shape& shape, std::size_t nnz, int rank,
                         std::uint64_t seed) {
  std::vector<double> skews(shape.size(), 0.5);
  CooTensor x = ht::tensor::random_zipf(shape, nnz, skews, seed);
  ht::tensor::plant_low_rank_values(x, rank, 0.1, seed + 1);
  return x;
}

struct OrderCase {
  Shape shape;
  std::size_t nnz;
  index_t rank;
};

class BackendsReachSameFit : public ::testing::TestWithParam<OrderCase> {};

TEST_P(BackendsReachSameFit, AcrossOrders) {
  const auto& [shape, nnz, rank] = GetParam();
  const CooTensor x = planted_tensor(shape, nnz, rank, 77);
  const std::vector<index_t> ranks(x.order(), rank);

  double lanczos_fit = 0.0;
  for (const TrsvdMethod method : kAllBackends) {
    HooiOptions opt;
    opt.ranks = ranks;
    opt.max_iterations = 3;
    opt.fit_tolerance = 0.0;
    opt.trsvd_method = method;
    const auto result = ht::core::hooi(x, opt);
    if (method == TrsvdMethod::kLanczos) {
      lanczos_fit = result.final_fit();
      EXPECT_GT(lanczos_fit, 0.01);  // the planted structure is recoverable
    } else if (method == TrsvdMethod::kRandomized) {
      // The fixed-budget sketch perturbs each sweep's subspace at its
      // accuracy level, and ALS may settle in a neighboring basin — in
      // either direction (the sketch sometimes finds a *better* fit, as
      // order 4 here does). Equivalence contract: no regression beyond ALS
      // fit-tolerance grade.
      EXPECT_GT(result.final_fit(), lanczos_fit - 5e-4);
    } else {
      // Krylov/Gram backends iterate the same problem to tolerance and
      // must track the scalar solver tightly.
      EXPECT_NEAR(result.final_fit(), lanczos_fit, 1e-7)
          << "method " << ht::core::trsvd_method_name(method);
    }
    // HOOI's fit formula requires orthonormal factors whatever the backend.
    for (const auto& f : result.decomposition.factors) {
      const Matrix g = ht::la::gemm_tn(f, f);
      for (std::size_t i = 0; i < g.rows(); ++i) {
        for (std::size_t j = 0; j < g.cols(); ++j) {
          EXPECT_NEAR(g(i, j), i == j ? 1.0 : 0.0, 1e-8)
              << ht::core::trsvd_method_name(method);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Orders, BackendsReachSameFit,
    ::testing::Values(OrderCase{{40, 32, 24}, 2500, 4},
                      OrderCase{{14, 12, 10, 9}, 1800, 3},
                      OrderCase{{9, 8, 7, 6, 5}, 1200, 2}));

TEST(TrsvdFactorDispatch, AllBackendsMatchGramOnCompactProblem) {
  // A tall/skinny compact Y with a well-separated planted spectrum.
  ht::Rng rng(5);
  Matrix u(800, 6), v(20, 6);
  for (auto& x : u.flat()) x = rng.normal();
  for (auto& x : v.flat()) x = rng.normal();
  Matrix y(800, 20);
  for (std::size_t i = 0; i < 800; ++i) {
    for (std::size_t j = 0; j < 20; ++j) {
      double s = 0;
      for (std::size_t k = 0; k < 6; ++k) {
        s += u(i, k) * v(j, k) * std::pow(0.5, k);
      }
      y(i, j) = s;
    }
  }
  std::vector<index_t> rows(800);
  for (std::size_t r = 0; r < 800; ++r) rows[r] = static_cast<index_t>(2 * r);

  const auto ref = ht::core::trsvd_factor(y, rows, 1600, 4,
                                          TrsvdMethod::kGram);
  for (const TrsvdMethod method :
       {TrsvdMethod::kLanczos, TrsvdMethod::kRandomized}) {
    const auto got = ht::core::trsvd_factor(y, rows, 1600, 4, method);
    EXPECT_EQ(got.method_used, method);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_NEAR(got.sigma[i], ref.sigma[i], 1e-6 * ref.sigma[0])
          << ht::core::trsvd_method_name(method) << " sigma_" << i;
    }
    // Scatter invariants: compact rows land at the mapped positions (the
    // parallel scatter path: 800*4 >= the parallel threshold), odd rows
    // stay zero, and compact_u mirrors the scattered rows.
    ASSERT_EQ(got.factor.rows(), 1600u);
    for (std::size_t r = 0; r < 800; ++r) {
      for (std::size_t j = 0; j < 4; ++j) {
        EXPECT_DOUBLE_EQ(got.factor(2 * r, j), got.compact_u(r, j));
        EXPECT_DOUBLE_EQ(got.factor(2 * r + 1, j), 0.0);
      }
    }
  }
}

// 17000 x 64 Gaussian Y whose column j is scaled by scale(j).
template <typename Scale>
Matrix scaled_gaussian(ht::Rng& rng, Scale scale) {
  Matrix y(17000, 64);
  for (std::size_t i = 0; i < y.rows(); ++i) {
    for (std::size_t j = 0; j < y.cols(); ++j) {
      y(i, j) = rng.normal() * scale(j);
    }
  }
  return y;
}

std::vector<index_t> identity_rows(std::size_t m) {
  std::vector<index_t> rows(m);
  for (std::size_t r = 0; r < m; ++r) rows[r] = static_cast<index_t>(r);
  return rows;
}

TEST(WarmTrsvd, SettledStepsKeepTheirBasis) {
  // A decaying spectrum and a start near the leading rank-4 subspace: the
  // Lanczos basis plus noise, as a previous sweep's factor would be.
  ht::Rng rng(7);
  const std::size_t rank = 4;
  const Matrix y = scaled_gaussian(
      rng, [](std::size_t j) { return std::pow(0.8, static_cast<double>(j)); });
  const auto rows = identity_rows(y.rows());
  const auto lanczos =
      ht::core::trsvd_factor(y, rows, y.rows(), rank, TrsvdMethod::kLanczos);
  ht::core::WarmStart warm;
  Matrix start = lanczos.factor;
  for (auto& v : start.flat()) v += 1e-3 * rng.normal();
  warm.load(start, rows);

  ht::la::DenseOperator op(y);
  ASSERT_TRUE(ht::core::warm_trsvd(op, warm, {}));
  EXPECT_EQ(warm.basis.steps, ht::core::kWarmSteps);
  EXPECT_TRUE(warm.basis.sigma.empty());
  const Matrix& q = warm.basis.u;
  const Matrix g = ht::la::gemm_tn(q, q);
  for (std::size_t i = 0; i < rank; ++i) {
    for (std::size_t j = 0; j < rank; ++j) {
      EXPECT_NEAR(g(i, j), i == j ? 1.0 : 0.0, 1e-12);
    }
  }
  // Energy captured, ||Q^T Y||_F^2: the warm basis matches Lanczos's.
  const auto energy = [&](const Matrix& b) {
    const double f = ht::la::gemm_tn(b, y).frobenius_norm();
    return f * f;
  };
  EXPECT_GE(energy(q), (1 - 1e-6) * energy(lanczos.compact_u));
}

TEST(WarmTrsvd, UnsettledStepsRerunLanczos) {
  // Singular values 4 and 5 nearly tie and the start is random: four power
  // steps are still gaining energy, so the solve is exactly the cold
  // Lanczos solve.
  ht::Rng rng(8);
  const std::size_t rank = 4;
  const Matrix y = scaled_gaussian(
      rng, [](std::size_t j) { return j < 4 ? 1.0 : 0.97; });
  ht::core::WarmStart warm;
  Matrix start(y.rows(), rank);
  for (auto& v : start.flat()) v = rng.normal();
  warm.load(start, identity_rows(y.rows()));

  const ht::la::TrsvdOptions options = {.tol = 1e-7};
  ht::la::DenseOperator op(y);
  ASSERT_FALSE(ht::core::warm_trsvd(op, warm, options));
  const auto lanczos = ht::core::run_trsvd_backend(op, TrsvdMethod::kLanczos,
                                                   rank, options);
  EXPECT_EQ(warm.basis.sigma, lanczos.sigma);
  EXPECT_TRUE(warm.basis.u.approx_equal(lanczos.u, 0.0));
}

TEST(TrsvdAutoModel, ResolvesAsDocumented) {
  // Cold solves: kAuto runs Lanczos, explicit methods run themselves.
  EXPECT_EQ(ht::core::resolve_trsvd_method(TrsvdMethod::kAuto),
            TrsvdMethod::kLanczos);
  for (const TrsvdMethod m :
       {TrsvdMethod::kLanczos, TrsvdMethod::kGram, TrsvdMethod::kRandomized}) {
    EXPECT_EQ(ht::core::resolve_trsvd_method(m), m);
  }

  // Warm solves: kAuto only, from the 2^20-entry floor up, and only when
  // the compact problem can deliver the whole rank.
  const std::size_t floor = ht::core::kWarmMinEntries;
  EXPECT_TRUE(ht::core::warm_trsvd_applies(TrsvdMethod::kAuto, floor / 64, 64,
                                           5));
  EXPECT_FALSE(ht::core::warm_trsvd_applies(TrsvdMethod::kAuto,
                                            floor / 64 - 1, 64, 5));
  EXPECT_FALSE(ht::core::warm_trsvd_applies(TrsvdMethod::kAuto, floor, 4, 5));
  for (const TrsvdMethod m :
       {TrsvdMethod::kLanczos, TrsvdMethod::kGram, TrsvdMethod::kRandomized}) {
    EXPECT_FALSE(ht::core::warm_trsvd_applies(m, 1000000, 100, 10));
  }
}

TEST(TrsvdMethodNames, ParseAndFormatRoundTrip) {
  for (const TrsvdMethod m : kAllBackends) {
    const auto parsed =
        ht::core::parse_trsvd_method(ht::core::trsvd_method_name(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(ht::core::parse_trsvd_method("block").has_value());
  EXPECT_EQ(ht::core::parse_trsvd_method("randomized"),
            TrsvdMethod::kRandomized);
  EXPECT_FALSE(ht::core::parse_trsvd_method("krylov").has_value());
}

TEST(RankSweepBackends, AutoSweepMatchesLanczosSweep) {
  // The backend knob rides through rank_sweep's shared-symbolic workflow.
  const CooTensor x = planted_tensor({30, 24, 20}, 2000, 4, 99);
  const std::vector<std::vector<index_t>> candidates = {
      {2, 2, 2}, {4, 4, 4}};

  HooiOptions base;
  base.max_iterations = 2;
  base.fit_tolerance = 0.0;
  const auto sweep_lanczos = ht::core::rank_sweep(x, candidates, base);

  base.trsvd_method = TrsvdMethod::kAuto;
  const auto sweep_auto = ht::core::rank_sweep(x, candidates, base);

  ASSERT_EQ(sweep_lanczos.entries.size(), sweep_auto.entries.size());
  for (std::size_t i = 0; i < sweep_lanczos.entries.size(); ++i) {
    EXPECT_NEAR(sweep_auto.entries[i].fit, sweep_lanczos.entries[i].fit, 1e-6);
  }
}

TEST(HooiBackends, DeterministicAcrossRuns) {
  const CooTensor x = planted_tensor({25, 20, 15}, 1500, 3, 11);
  for (const TrsvdMethod method : {TrsvdMethod::kRandomized}) {
    HooiOptions opt;
    opt.ranks = {3, 3, 3};
    opt.max_iterations = 2;
    opt.trsvd_method = method;
    const auto a = ht::core::hooi(x, opt);
    const auto b = ht::core::hooi(x, opt);
    ASSERT_EQ(a.fits.size(), b.fits.size());
    for (std::size_t i = 0; i < a.fits.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.fits[i], b.fits[i])
          << ht::core::trsvd_method_name(method);
    }
  }
}

}  // namespace
