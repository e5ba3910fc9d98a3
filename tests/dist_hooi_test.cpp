#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>

#include "core/hooi.hpp"
#include "dist/dist_hooi.hpp"
#include "la/blas.hpp"
#include "tensor/generators.hpp"

namespace {

using ht::core::HooiOptions;
using ht::core::HooiResult;
using ht::dist::DistHooiOptions;
using ht::dist::DistHooiResult;
using ht::dist::Grain;
using ht::dist::Method;
using ht::la::Matrix;
using ht::tensor::CooTensor;
using ht::tensor::index_t;
using ht::tensor::Shape;

CooTensor test_tensor(std::uint64_t seed = 3) {
  CooTensor x = ht::tensor::random_zipf(Shape{50, 40, 30}, 1500,
                                        {0.9, 0.5, 0.2}, seed);
  ht::tensor::plant_low_rank_values(x, 4, 0.1, seed + 1);
  return x;
}

// Shared-memory reference with the same seed/init as the distributed run.
HooiResult reference_hooi(const CooTensor& x, const std::vector<index_t>& r,
                          int iters, std::uint64_t seed) {
  HooiOptions opt;
  opt.ranks = r;
  opt.max_iterations = iters;
  opt.fit_tolerance = 0.0;  // run all iterations, like the dist default
  opt.seed = seed;
  return ht::core::hooi(x, opt);
}

DistHooiOptions dist_options(std::vector<index_t> r, Grain g, Method m, int p,
                             int iters, std::uint64_t seed) {
  DistHooiOptions opt;
  opt.ranks = std::move(r);
  opt.grain = g;
  opt.method = m;
  opt.num_ranks = p;
  opt.max_iterations = iters;
  opt.seed = seed;
  return opt;
}

TEST(DistHooiTest, SingleRankMatchesSharedMemoryExactly) {
  const CooTensor x = test_tensor();
  const std::vector<index_t> r = {4, 4, 4};
  const HooiResult shared = reference_hooi(x, r, 3, 42);
  const DistHooiResult dist = ht::dist::dist_hooi(
      x, dist_options(r, Grain::kFine, Method::kRandom, 1, 3, 42));
  ASSERT_EQ(dist.fits.size(), shared.fits.size());
  for (std::size_t i = 0; i < dist.fits.size(); ++i) {
    EXPECT_NEAR(dist.fits[i], shared.fits[i], 1e-12) << "iteration " << i;
  }
}

struct DistCase {
  Grain grain;
  Method method;
  int ranks;
};

class DistVsShared : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistVsShared, FitsMatchSharedMemory) {
  const auto [grain, method, p] = GetParam();
  const CooTensor x = test_tensor();
  const std::vector<index_t> r = {4, 4, 4};
  const HooiResult shared = reference_hooi(x, r, 3, 42);
  const DistHooiResult dist =
      ht::dist::dist_hooi(x, dist_options(r, grain, method, p, 3, 42));
  ASSERT_EQ(dist.fits.size(), shared.fits.size());
  for (std::size_t i = 0; i < dist.fits.size(); ++i) {
    EXPECT_NEAR(dist.fits[i], shared.fits[i], 1e-6)
        << ht::dist::config_label(grain, method) << " p=" << p << " iter "
        << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DistVsShared,
    ::testing::Values(DistCase{Grain::kFine, Method::kHypergraph, 2},
                      DistCase{Grain::kFine, Method::kHypergraph, 4},
                      DistCase{Grain::kFine, Method::kRandom, 4},
                      DistCase{Grain::kFine, Method::kRandom, 7},
                      DistCase{Grain::kCoarse, Method::kHypergraph, 4},
                      DistCase{Grain::kCoarse, Method::kBlock, 4},
                      DistCase{Grain::kCoarse, Method::kRandom, 3},
                      DistCase{Grain::kCoarse, Method::kBlock, 8}));

TEST(DistHooiTest, FourModeTensorAllConfigs) {
  CooTensor x = ht::tensor::random_zipf(Shape{18, 22, 26, 14}, 800,
                                        {0.4, 0.7, 0.9, 0.3}, 5);
  ht::tensor::plant_low_rank_values(x, 3, 0.1, 6);
  const std::vector<index_t> r = {3, 3, 3, 3};
  const HooiResult shared = reference_hooi(x, r, 2, 11);
  for (const auto grain : {Grain::kFine, Grain::kCoarse}) {
    for (const auto method : {Method::kHypergraph, Method::kRandom}) {
      const DistHooiResult dist =
          ht::dist::dist_hooi(x, dist_options(r, grain, method, 3, 2, 11));
      ASSERT_EQ(dist.fits.size(), shared.fits.size());
      EXPECT_NEAR(dist.fits.back(), shared.fits.back(), 1e-6)
          << ht::dist::config_label(grain, method);
    }
  }
}

TEST(DistHooiTest, AssembledFactorsAreOrthonormal) {
  const CooTensor x = test_tensor();
  const std::vector<index_t> r = {4, 3, 5};
  const DistHooiResult dist = ht::dist::dist_hooi(
      x, dist_options(r, Grain::kFine, Method::kHypergraph, 4, 3, 42));
  for (const auto& f : dist.decomposition.factors) {
    const Matrix g = ht::la::gemm_tn(f, f);
    for (std::size_t i = 0; i < g.rows(); ++i) {
      for (std::size_t j = 0; j < g.cols(); ++j) {
        EXPECT_NEAR(g(i, j), i == j ? 1.0 : 0.0, 1e-6);
      }
    }
  }
}

TEST(DistHooiTest, ReportedFitMatchesExactFit) {
  const CooTensor x = test_tensor();
  const std::vector<index_t> r = {4, 4, 4};
  const DistHooiResult dist = ht::dist::dist_hooi(
      x, dist_options(r, Grain::kCoarse, Method::kBlock, 3, 3, 42));
  const double exact = ht::core::fit_exact(x, dist.decomposition);
  EXPECT_NEAR(dist.fits.back(), exact, 1e-6);
}

TEST(DistHooiTest, StatsArePopulated) {
  const CooTensor x = test_tensor();
  const std::vector<index_t> r = {4, 4, 4};
  const DistHooiResult dist = ht::dist::dist_hooi(
      x, dist_options(r, Grain::kFine, Method::kRandom, 4, 2, 42));
  ASSERT_EQ(dist.stats.modes(), 3u);
  ASSERT_EQ(dist.stats.ranks(), 4u);
  for (std::size_t n = 0; n < 3; ++n) {
    std::uint64_t ttmc_total = 0;
    for (std::size_t k = 0; k < 4; ++k) {
      ttmc_total += dist.stats.at(n, k).w_ttmc;
    }
    // Fine grain: every nonzero processed exactly once per mode.
    EXPECT_EQ(ttmc_total, x.nnz()) << "mode " << n;
    // Multi-rank runs must communicate.
    EXPECT_GT(dist.stats.comm_summary(n).avg, 0.0);
  }
  EXPECT_EQ(dist.label, "fine-rd");
  EXPECT_GT(dist.seconds_per_iteration, 0.0);
}

TEST(DistHooiTest, FineGrainTtmcIsPerfectlyBalancedByConstruction) {
  // Paper Table III: fine-grain W_TTMc is (near-)uniform across ranks.
  const CooTensor x = test_tensor();
  const std::vector<index_t> r = {4, 4, 4};
  const DistHooiResult dist = ht::dist::dist_hooi(
      x, dist_options(r, Grain::kFine, Method::kRandom, 4, 1, 42));
  for (std::size_t n = 0; n < 3; ++n) {
    const auto s = dist.stats.ttmc_summary(n);
    EXPECT_LT(s.imbalance(), 1.05) << "mode " << n;
  }
}

TEST(DistHooiTest, HypergraphPartitionCommunicatesLessThanRandom) {
  // Paper's headline communication claim (fine-hp vs fine-rd).
  CooTensor x = ht::tensor::random_zipf(Shape{80, 60, 40}, 4000,
                                        {1.1, 0.7, 0.3}, 13);
  ht::tensor::plant_low_rank_values(x, 4, 0.1, 14);
  const std::vector<index_t> r = {4, 4, 4};
  const DistHooiResult hp = ht::dist::dist_hooi(
      x, dist_options(r, Grain::kFine, Method::kHypergraph, 4, 1, 42));
  const DistHooiResult rd = ht::dist::dist_hooi(
      x, dist_options(r, Grain::kFine, Method::kRandom, 4, 1, 42));
  EXPECT_LT(hp.stats.total_comm_entries(), rd.stats.total_comm_entries());
}

TEST(DistHooiTest, EarlyStopOnFitTolerance) {
  const CooTensor x = test_tensor();
  DistHooiOptions opt =
      dist_options({4, 4, 4}, Grain::kFine, Method::kRandom, 3, 25, 42);
  opt.fit_tolerance = 1e-5;
  const DistHooiResult dist = ht::dist::dist_hooi(x, opt);
  EXPECT_LT(dist.iterations, 25);
  EXPECT_EQ(dist.fits.size(), static_cast<std::size_t>(dist.iterations));
}

TEST(DistHooiTest, DeterministicAcrossRuns) {
  const CooTensor x = test_tensor();
  const auto opt =
      dist_options({4, 4, 4}, Grain::kFine, Method::kHypergraph, 4, 2, 42);
  const DistHooiResult a = ht::dist::dist_hooi(x, opt);
  const DistHooiResult b = ht::dist::dist_hooi(x, opt);
  ASSERT_EQ(a.fits.size(), b.fits.size());
  for (std::size_t i = 0; i < a.fits.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.fits[i], b.fits[i]);
  }
}

TEST(DistHooiTest, MoreRanksThanUsefulStillCorrect) {
  // 12 ranks on a small tensor: some ranks may be nearly empty.
  CooTensor x = ht::tensor::random_uniform(Shape{20, 18, 16}, 300, 15);
  const std::vector<index_t> r = {3, 3, 3};
  const HooiResult shared = reference_hooi(x, r, 2, 21);
  const DistHooiResult dist = ht::dist::dist_hooi(
      x, dist_options(r, Grain::kFine, Method::kRandom, 12, 2, 21));
  EXPECT_NEAR(dist.fits.back(), shared.fits.back(), 1e-6);
}

TEST(DistHooiTest, InvalidOptionsThrow) {
  const CooTensor x = test_tensor();
  auto opt = dist_options({4, 4}, Grain::kFine, Method::kRandom, 2, 2, 1);
  EXPECT_THROW(ht::dist::dist_hooi(x, opt), ht::Error);  // rank arity
  auto opt2 = dist_options({4, 4, 99}, Grain::kFine, Method::kRandom, 2, 2, 1);
  EXPECT_THROW(ht::dist::dist_hooi(x, opt2), ht::Error);  // rank too large
  auto opt3 = dist_options({4, 4, 4}, Grain::kFine, Method::kRandom, 2, 0, 1);
  EXPECT_THROW(ht::dist::dist_hooi(x, opt3), ht::Error);  // no iterations
  CooTensor vector(Shape{10});
  for (index_t i = 0; i < 10; ++i) {
    vector.push_back(std::vector<index_t>{i}, 1.0 + i);
  }
  EXPECT_THROW(
      ht::dist::dist_hooi(
          vector, dist_options({1}, Grain::kFine, Method::kRandom, 2, 2, 1)),
      ht::InvalidArgument);  // order 1: no CSF tree holds it
}

TEST(DistHooiTest, PrebuiltPlansCanBeReused) {
  const CooTensor x = test_tensor();
  const std::vector<index_t> r = {4, 4, 4};
  const auto opt =
      dist_options(r, Grain::kCoarse, Method::kHypergraph, 3, 2, 42);
  ht::dist::PlanOptions popt;
  popt.grain = opt.grain;
  popt.method = opt.method;
  popt.num_ranks = opt.num_ranks;
  popt.seed = opt.seed;
  const auto gplan = ht::dist::build_global_plan(x, popt);
  const auto rplans = ht::dist::build_rank_plans(x, gplan, r, opt.seed);
  const DistHooiResult a = ht::dist::dist_hooi(x, opt, gplan, rplans);
  const DistHooiResult b = ht::dist::dist_hooi(x, opt, gplan, rplans);
  ASSERT_EQ(a.fits.size(), b.fits.size());
  for (std::size_t i = 0; i < a.fits.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.fits[i], b.fits[i]);
  }
}

TEST(DistTrsvdBackends, MatchSharedMemoryAcrossGrains) {
  // Each matrix-free solver over the distributed operator (batched
  // fold/expand, allreduced Grams) must reproduce the shared-memory run of
  // the *same* solver — fine and coarse grain alike.
  const CooTensor x = test_tensor();
  const std::vector<index_t> r = {4, 4, 4};
  for (const auto method : {ht::core::TrsvdMethod::kRandomized,
                            ht::core::TrsvdMethod::kAuto}) {
    HooiOptions sopt;
    sopt.ranks = r;
    sopt.max_iterations = 3;
    sopt.fit_tolerance = 0.0;
    sopt.seed = 42;
    sopt.trsvd_method = method;
    const HooiResult shared = ht::core::hooi(x, sopt);
    // Krylov backends iterate each subspace to tolerance, so distributed
    // reduction-order noise washes out (1e-6). The randomized sketch's
    // Rayleigh–Ritz rotation is sensitive to last-bit Gram differences on
    // this tensor's clustered spectra, so its ALS trajectory tracks at fit
    // tolerance grade instead.
    const double tol =
        method == ht::core::TrsvdMethod::kRandomized ? 5e-4 : 1e-6;
    for (const auto grain : {Grain::kFine, Grain::kCoarse}) {
      DistHooiOptions dopt =
          dist_options(r, grain, Method::kHypergraph, 4, 3, 42);
      dopt.trsvd_method = method;
      const DistHooiResult dist = ht::dist::dist_hooi(x, dopt);
      ASSERT_EQ(dist.fits.size(), shared.fits.size());
      for (std::size_t i = 0; i < dist.fits.size(); ++i) {
        EXPECT_NEAR(dist.fits[i], shared.fits[i], tol)
            << ht::core::trsvd_method_name(method) << " "
            << (grain == Grain::kFine ? "fine" : "coarse") << " iter " << i;
      }
    }
  }
}

TEST(DistTrsvdBackends, SingleRankBitMatchesSharedMemory) {
  // p = 1: empty comm lists, identity collectives, and the operator's
  // row_gram takes the same gemm_tn path as the shared-memory default —
  // the blocked solver must reproduce core::hooi exactly.
  const CooTensor x = test_tensor();
  const std::vector<index_t> r = {4, 4, 4};
  for (const auto method : {ht::core::TrsvdMethod::kRandomized}) {
    HooiOptions sopt;
    sopt.ranks = r;
    sopt.max_iterations = 3;
    sopt.fit_tolerance = 0.0;
    sopt.seed = 42;
    sopt.trsvd_method = method;
    const HooiResult shared = ht::core::hooi(x, sopt);
    DistHooiOptions dopt =
        dist_options(r, Grain::kFine, Method::kRandom, 1, 3, 42);
    dopt.trsvd_method = method;
    const DistHooiResult dist = ht::dist::dist_hooi(x, dopt);
    ASSERT_EQ(dist.fits.size(), shared.fits.size());
    for (std::size_t i = 0; i < dist.fits.size(); ++i) {
      EXPECT_NEAR(dist.fits[i], shared.fits[i], 1e-12)
          << ht::core::trsvd_method_name(method) << " iteration " << i;
    }
  }
}

TEST(DistTrsvdBackends, BatchedFoldExpandReducesMessageRounds) {
  // The randomized solver carries its whole sketch per fold/expand round
  // and batches the column-space allreduce, so the measured per-TRSVD
  // round count must drop well below scalar Lanczos's on the same
  // partition.
  const CooTensor x = test_tensor();
  const std::vector<index_t> r = {4, 4, 4};
  auto opt = dist_options(r, Grain::kFine, Method::kHypergraph, 4, 2, 42);
  opt.trsvd_method = ht::core::TrsvdMethod::kLanczos;
  const DistHooiResult scalar = ht::dist::dist_hooi(x, opt);
  opt.trsvd_method = ht::core::TrsvdMethod::kRandomized;
  const DistHooiResult randomized = ht::dist::dist_hooi(x, opt);

  const auto scalar_rounds = scalar.stats.total_trsvd_rounds();
  ASSERT_GT(scalar_rounds, 0u);
  // Batching must shave at least 2x even counting the Gram allreduces the
  // scalar solver does not make.
  EXPECT_LT(2 * randomized.stats.total_trsvd_rounds(), scalar_rounds);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_GT(scalar.stats.trsvd_rounds_summary(n).avg, 0.0);
  }
}

TEST(DistTrsvdBackends, RandomizedSketchDeterministicAcrossRunsAndRanks) {
  // Fixed seed: the sketch is identical across runs, and identical on
  // every simulated rank (column-space data is replicated) — so repeated
  // runs bit-match and the assembled factors agree across rank counts to
  // reduction-order noise.
  const CooTensor x = test_tensor();
  const std::vector<index_t> r = {4, 4, 4};
  auto opt = dist_options(r, Grain::kFine, Method::kHypergraph, 4, 2, 42);
  opt.trsvd_method = ht::core::TrsvdMethod::kRandomized;
  const DistHooiResult a = ht::dist::dist_hooi(x, opt);
  const DistHooiResult b = ht::dist::dist_hooi(x, opt);
  ASSERT_EQ(a.fits.size(), b.fits.size());
  for (std::size_t i = 0; i < a.fits.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.fits[i], b.fits[i]);
  }
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_TRUE(a.decomposition.factors[n].approx_equal(
        b.decomposition.factors[n], 0.0));
  }

  // Across rank counts the sketch is the same but allreduce groupings
  // differ at the last bit, which the clustered-spectrum Ritz rotation
  // amplifies — fits agree at ALS fit-tolerance grade.
  auto opt2 = dist_options(r, Grain::kFine, Method::kHypergraph, 2, 2, 42);
  opt2.trsvd_method = ht::core::TrsvdMethod::kRandomized;
  const DistHooiResult c = ht::dist::dist_hooi(x, opt2);
  for (std::size_t i = 0; i < a.fits.size(); ++i) {
    EXPECT_NEAR(a.fits[i], c.fits[i], 5e-4) << "p=4 vs p=2 iteration " << i;
  }
}

// Mode 0 is above kAuto's warm floor at ranks {4, 8, 8} (its global
// compact Y(0) has >= 16384 rows of 64 columns); from the third sweep on
// its solves take the warm power steps over the distributed operator. At
// seed 5 the steps settle and are kept; at seed 13 every warm solve reruns
// Lanczos (as in core_hooi_test).
CooTensor warm_mode_tensor(std::uint64_t seed = 5) {
  CooTensor x = ht::tensor::random_zipf(Shape{40000, 40, 30}, 60000,
                                        {0.3, 0.4, 0.1}, seed);
  ht::tensor::plant_low_rank_values(x, 4, 0.1, seed + 1);
  return x;
}

TEST(DistWarmTrsvd, SingleRankMatchesSharedMemoryExactly) {
  const CooTensor x = warm_mode_tensor();
  const std::vector<index_t> r = {4, 8, 8};
  const HooiResult shared = reference_hooi(x, r, 4, 42);
  ASSERT_EQ(shared.warm_solves, (std::vector<int>{2, 0, 0}));
  const DistHooiResult dist = ht::dist::dist_hooi(
      x, dist_options(r, Grain::kFine, Method::kRandom, 1, 4, 42));
  EXPECT_EQ(dist.warm_solves, shared.warm_solves);
  ASSERT_EQ(dist.fits.size(), shared.fits.size());
  for (std::size_t i = 0; i < dist.fits.size(); ++i) {
    EXPECT_NEAR(dist.fits[i], shared.fits[i], 1e-12) << "iteration " << i;
  }
}

TEST(DistWarmTrsvd, MatchesSharedMemoryInBothGrains) {
  const CooTensor x = warm_mode_tensor();
  const std::vector<index_t> r = {4, 8, 8};
  const HooiResult shared = reference_hooi(x, r, 4, 42);
  for (const auto grain : {Grain::kFine, Grain::kCoarse}) {
    const DistHooiResult dist = ht::dist::dist_hooi(
        x, dist_options(r, grain, Method::kHypergraph, 3, 4, 42));
    EXPECT_EQ(dist.warm_solves, shared.warm_solves);
    ASSERT_EQ(dist.fits.size(), shared.fits.size());
    for (std::size_t i = 0; i < dist.fits.size(); ++i) {
      EXPECT_NEAR(dist.fits[i], shared.fits[i], 1e-6)
          << (grain == Grain::kFine ? "fine" : "coarse") << " iter " << i;
    }
  }
}

TEST(DistWarmTrsvd, UnsettledSolvesRerunLanczosOnEveryRank) {
  // Every rank reads the same energies, so all of them rerun Lanczos
  // together, and the run is kLanczos's.
  const CooTensor x = warm_mode_tensor(13);
  const std::vector<index_t> r = {4, 8, 8};
  auto opt = dist_options(r, Grain::kFine, Method::kRandom, 2, 4, 42);
  const DistHooiResult automatic = ht::dist::dist_hooi(x, opt);
  opt.trsvd_method = ht::core::TrsvdMethod::kLanczos;
  const DistHooiResult lanczos = ht::dist::dist_hooi(x, opt);
  EXPECT_EQ(automatic.warm_solves, (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(automatic.fits, lanczos.fits);
}

TEST(DistHooiTest, HybridThreadsPerRankAgrees) {
  const CooTensor x = test_tensor();
  const std::vector<index_t> r = {4, 4, 4};
  auto opt1 = dist_options(r, Grain::kFine, Method::kRandom, 2, 2, 42);
  opt1.threads_per_rank = 1;
  auto opt2 = dist_options(r, Grain::kFine, Method::kRandom, 2, 2, 42);
  opt2.threads_per_rank = 4;
  const DistHooiResult a = ht::dist::dist_hooi(x, opt1);
  const DistHooiResult b = ht::dist::dist_hooi(x, opt2);
  for (std::size_t i = 0; i < a.fits.size(); ++i) {
    EXPECT_NEAR(a.fits[i], b.fits[i], 1e-9);
  }
}


// ---- the factor update: completion across ranks, counted expand bytes ------

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Fits, factors and core byte for byte.
void expect_same_run(const HooiResult& shared, const DistHooiResult& dist,
                     const std::string& what) {
  EXPECT_TRUE(same_bits(shared.fits, dist.fits)) << what << ": fits";
  ASSERT_EQ(shared.decomposition.factors.size(),
            dist.decomposition.factors.size());
  for (std::size_t n = 0; n < shared.decomposition.factors.size(); ++n) {
    const Matrix& a = shared.decomposition.factors[n];
    const Matrix& b = dist.decomposition.factors[n];
    EXPECT_TRUE(a.rows() == b.rows() && a.cols() == b.cols() &&
                same_bits(a.flat(), b.flat()))
        << what << ": factor " << n;
    EXPECT_TRUE(std::ranges::equal(shared.decomposition.row_ids(n),
                                   dist.decomposition.row_ids(n)))
        << what << ": row list " << n;
  }
  EXPECT_TRUE(same_bits(shared.decomposition.core.flat(),
                        dist.decomposition.core.flat()))
      << what << ": core";
}

void expect_orthonormal(const Matrix& f, double tol, const std::string& what) {
  const Matrix g = ht::la::gemm_tn(f, f);
  for (std::size_t i = 0; i < g.rows(); ++i) {
    for (std::size_t j = 0; j < g.cols(); ++j) {
      EXPECT_NEAR(g(i, j), i == j ? 1.0 : 0.0, tol) << what;
    }
  }
}

// Mode 0 has 12 rows, but nonzeros in only three of them (0, 4 and 8): at
// R_0 = 5 the completion puts two canonical columns on rows no rank holds.
CooTensor narrow_mode_tensor() {
  const CooTensor src = ht::tensor::random_uniform(Shape{12, 10, 8}, 200, 7);
  CooTensor x(src.shape());
  std::vector<index_t> idx(3);
  for (ht::tensor::nnz_t e = 0; e < src.nnz(); ++e) {
    idx = {src.index(0, e) % 3 * 4, src.index(1, e), src.index(2, e)};
    x.push_back(idx, src.value(e));
  }
  x.sum_duplicates();
  return x;
}

// Solves that take the completion path on every sweep: at ranks {2, 2, 5}
// mode 2's compact problem has width 2 * 2 = 4 < 5; at max_steps = 5 every
// Lanczos solve stops unconverged; the narrow mode has fewer non-empty rows
// than its rank.
struct CompletionCase {
  std::string name;
  CooTensor x;
  std::vector<index_t> ranks;
  std::size_t max_steps;
};

std::vector<CompletionCase> completion_cases() {
  return {{"width-deficient", test_tensor(), {2, 2, 5}, 0},
          {"unconverged", test_tensor(), {4, 4, 4}, 5},
          {"narrow-mode", narrow_mode_tensor(), {5, 3, 3}, 0}};
}

HooiResult completion_reference(const CompletionCase& c) {
  HooiOptions opt;
  opt.ranks = c.ranks;
  opt.max_iterations = 3;
  opt.fit_tolerance = 0.0;
  opt.seed = 42;
  opt.trsvd.max_steps = c.max_steps;
  return ht::core::hooi(c.x, opt);
}

DistHooiResult completion_dist(const CompletionCase& c, Grain grain, int p) {
  DistHooiOptions opt =
      dist_options(c.ranks, grain, Method::kHypergraph, p, 3, 42);
  opt.trsvd.max_steps = c.max_steps;
  return ht::dist::dist_hooi(c.x, opt);
}

TEST(DistCompletion, SingleRankBitMatchesSharedMemory) {
  for (const CompletionCase& c : completion_cases()) {
    const HooiResult shared = completion_reference(c);
    // core::hooi completes each such factor to orthonormal columns.
    for (const Matrix& f : shared.decomposition.factors) {
      expect_orthonormal(f, 1e-10, c.name);
    }
    for (const auto grain : {Grain::kFine, Grain::kCoarse}) {
      expect_same_run(shared, completion_dist(c, grain, 1),
                      c.name + (grain == Grain::kFine ? " fine" : " coarse"));
    }
  }
}

TEST(DistCompletion, MatchesSharedMemoryAcrossRanks) {
  for (const CompletionCase& c : completion_cases()) {
    const HooiResult shared = completion_reference(c);
    for (const int p : {2, 4}) {
      for (const auto grain : {Grain::kFine, Grain::kCoarse}) {
        const std::string what = c.name + " p=" + std::to_string(p) +
                                 (grain == Grain::kFine ? " fine" : " coarse");
        const DistHooiResult dist = completion_dist(c, grain, p);
        ASSERT_EQ(dist.fits.size(), shared.fits.size()) << what;
        for (std::size_t i = 0; i < dist.fits.size(); ++i) {
          EXPECT_NEAR(dist.fits[i], shared.fits[i], 1e-6) << what;
        }
        for (const Matrix& f : dist.decomposition.factors) {
          expect_orthonormal(f, 1e-10, what);
        }
      }
    }
  }
}

TEST(DistWarmTrsvd, SingleRankBitMatchesSharedMemoryInBothGrains) {
  const CooTensor x = warm_mode_tensor();
  const std::vector<index_t> r = {4, 8, 8};
  const HooiResult shared = reference_hooi(x, r, 4, 42);
  ASSERT_EQ(shared.warm_solves, (std::vector<int>{2, 0, 0}));
  for (const auto grain : {Grain::kFine, Grain::kCoarse}) {
    const DistHooiResult dist = ht::dist::dist_hooi(
        x, dist_options(r, grain, Method::kHypergraph, 1, 4, 42));
    EXPECT_EQ(dist.warm_solves, shared.warm_solves);
    expect_same_run(shared, dist, grain == Grain::kFine ? "fine" : "coarse");
  }
}

TEST(DistHooiTest, ExpandBytesMatchTheModel) {
  // The factor update moves R_n doubles per factor_send and factor_recv
  // position per sweep, counted by the communicator.
  const CooTensor x = test_tensor();
  const std::vector<index_t> r = {4, 3, 5};
  const int iters = 2;
  for (const int p : {2, 4}) {
    for (const auto grain : {Grain::kFine, Grain::kCoarse}) {
      const auto opt = dist_options(r, grain, Method::kHypergraph, p, iters, 42);
      ht::dist::PlanOptions popt;
      popt.grain = grain;
      popt.method = opt.method;
      popt.num_ranks = p;
      popt.seed = opt.seed;
      const auto gplan = ht::dist::build_global_plan(x, popt);
      const auto rplans = ht::dist::build_rank_plans(x, gplan, r, opt.seed);
      const DistHooiResult dist = ht::dist::dist_hooi(x, opt, gplan, rplans);
      std::uint64_t total = 0;
      for (std::size_t n = 0; n < 3; ++n) {
        for (int k = 0; k < p; ++k) {
          const auto& mp = rplans[k].modes[n];
          std::uint64_t rows = 0;
          for (const auto& l : mp.factor_send) rows += l.positions.size();
          for (const auto& l : mp.factor_recv) rows += l.positions.size();
          const std::uint64_t modeled = iters * 8 * r[n] * rows;
          EXPECT_EQ(dist.stats.at(n, k).expand_bytes, modeled)
              << dist.label << " p=" << p << " mode " << n << " rank " << k;
          total += dist.stats.at(n, k).expand_bytes;
        }
      }
      EXPECT_GT(total, 0u) << dist.label << " p=" << p;
    }
  }
}

TEST(DistHooiTest, PlansThatDoNotFitAreRejected) {
  const CooTensor x = test_tensor();  // 50 x 40 x 30
  const std::vector<index_t> r = {4, 4, 4};
  const auto opt = dist_options(r, Grain::kFine, Method::kRandom, 2, 1, 42);
  ht::dist::PlanOptions popt;
  popt.grain = opt.grain;
  popt.method = opt.method;
  popt.num_ranks = opt.num_ranks;
  popt.seed = opt.seed;

  // Plans of a larger tensor: their rows run past x's modes.
  CooTensor big = ht::tensor::random_zipf(Shape{60, 48, 30}, 1500,
                                          {0.9, 0.5, 0.2}, 3);
  ht::tensor::plant_low_rank_values(big, 4, 0.1, 4);
  const auto gbig = ht::dist::build_global_plan(big, popt);
  const auto rbig = ht::dist::build_rank_plans(big, gbig, r, opt.seed);
  EXPECT_THROW(ht::dist::dist_hooi(x, opt, gbig, rbig), ht::InvalidArgument);

  // Plans for ranks {3, 3, 3}, run with ranks {4, 4, 4}.
  const auto gplan = ht::dist::build_global_plan(x, popt);
  const auto r3 = ht::dist::build_rank_plans(x, gplan, {3, 3, 3}, opt.seed);
  EXPECT_THROW(ht::dist::dist_hooi(x, opt, gplan, r3), ht::InvalidArgument);

  // One field out of place at a time.
  const auto good = ht::dist::build_rank_plans(x, gplan, r, opt.seed);
  auto nnz_short = gplan;
  nnz_short.nnz_owner.pop_back();
  EXPECT_THROW(ht::dist::dist_hooi(x, opt, nnz_short, good),
               ht::InvalidArgument);
  auto row_past = good;
  row_past[1].modes[0].local_rows.back() = x.dim(0);
  EXPECT_THROW(ht::dist::dist_hooi(x, opt, gplan, row_past),
               ht::InvalidArgument);
  auto order_short = good;
  order_short[0].modes.pop_back();
  EXPECT_THROW(ht::dist::dist_hooi(x, opt, gplan, order_short),
               ht::InvalidArgument);
  EXPECT_NO_THROW(ht::dist::dist_hooi(x, opt, gplan, good));
}

}  // namespace
