#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
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

TEST(DistTrsvdBackends, AutoResolutionIsRecorded) {
  const CooTensor x = test_tensor();
  const std::vector<index_t> r = {4, 4, 4};
  auto opt = dist_options(r, Grain::kCoarse, Method::kBlock, 3, 1, 42);
  opt.trsvd_method = ht::core::TrsvdMethod::kAuto;
  const DistHooiResult dist = ht::dist::dist_hooi(x, opt);
  ASSERT_EQ(dist.trsvd_methods.size(), 3u);
  for (const auto m : dist.trsvd_methods) {
    // Small compact problems resolve to the scalar solver.
    EXPECT_EQ(m, ht::core::TrsvdMethod::kLanczos);
  }
}

TEST(DistTrsvdBackends, GramIsRejected) {
  const CooTensor x = test_tensor();
  auto opt = dist_options({4, 4, 4}, Grain::kFine, Method::kRandom, 2, 1, 42);
  opt.trsvd_method = ht::core::TrsvdMethod::kGram;
  EXPECT_THROW(ht::dist::dist_hooi(x, opt), ht::Error);
}

TEST(DistHooiTest, CheckpointRestartContinuesFitTrajectory) {
  // A 2-iteration run that checkpoints, restarted for 2 more iterations
  // over the same plan, must walk the same fit trajectory as 4 straight
  // iterations: the checkpoint replaces only the random initialization.
  const CooTensor x = test_tensor();
  const std::vector<index_t> r = {4, 4, 4};
  const std::string dir = ::testing::TempDir() + "ht_dist_ckpt";
  (void)std::system(("mkdir -p " + dir).c_str());

  auto cold = dist_options(r, Grain::kFine, Method::kRandom, 2, 4, 42);
  const DistHooiResult straight = ht::dist::dist_hooi(x, cold);

  auto first = dist_options(r, Grain::kFine, Method::kRandom, 2, 2, 42);
  first.checkpoint_dir = dir;
  const DistHooiResult half = ht::dist::dist_hooi(x, first);
  const DistHooiResult resumed = ht::dist::dist_hooi(x, first);

  ASSERT_EQ(straight.fits.size(), 4u);
  ASSERT_EQ(half.fits.size(), 2u);
  ASSERT_EQ(resumed.fits.size(), 2u);
  EXPECT_NEAR(half.fits[0], straight.fits[0], 1e-12);
  EXPECT_NEAR(half.fits[1], straight.fits[1], 1e-12);
  EXPECT_NEAR(resumed.fits[0], straight.fits[2], 1e-12);
  EXPECT_NEAR(resumed.fits[1], straight.fits[3], 1e-12);

  for (int rank = 0; rank < 2; ++rank) {
    std::remove((dir + "/rank" + std::to_string(rank) + ".htb").c_str());
  }
}

TEST(DistHooiTest, StaleCheckpointShapeIsRejected) {
  const CooTensor x = test_tensor();
  const std::string dir = ::testing::TempDir() + "ht_dist_ckpt_stale";
  (void)std::system(("mkdir -p " + dir).c_str());

  auto opt = dist_options({4, 4, 4}, Grain::kFine, Method::kRandom, 2, 1, 42);
  opt.checkpoint_dir = dir;
  (void)ht::dist::dist_hooi(x, opt);

  // Same directory, different ranks: the stored slices no longer match the
  // plan and must be rejected loudly instead of silently corrupting a run.
  auto other = dist_options({5, 5, 5}, Grain::kFine, Method::kRandom, 2, 1, 42);
  other.checkpoint_dir = dir;
  EXPECT_THROW(ht::dist::dist_hooi(x, other), ht::Error);

  for (int rank = 0; rank < 2; ++rank) {
    std::remove((dir + "/rank" + std::to_string(rank) + ".htb").c_str());
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

TEST(DistWarmTrsvd, CheckpointRestartResumesWarm) {
  // The checkpoint stores the sweeps its factors have been through, so the
  // resumed run's first sweep (the third overall) is already warm and the
  // trajectory matches 4 straight sweeps.
  const CooTensor x = warm_mode_tensor();
  const std::vector<index_t> r = {4, 8, 8};
  const std::string dir = ::testing::TempDir() + "ht_dist_ckpt_warm";
  (void)std::system(("mkdir -p " + dir).c_str());
  for (int rank = 0; rank < 2; ++rank) {
    std::remove((dir + "/rank" + std::to_string(rank) + ".htb").c_str());
  }

  const DistHooiResult straight = ht::dist::dist_hooi(
      x, dist_options(r, Grain::kFine, Method::kRandom, 2, 4, 42));
  auto half = dist_options(r, Grain::kFine, Method::kRandom, 2, 2, 42);
  half.checkpoint_dir = dir;
  const DistHooiResult first = ht::dist::dist_hooi(x, half);
  const DistHooiResult resumed = ht::dist::dist_hooi(x, half);

  EXPECT_EQ(straight.warm_solves, (std::vector<int>{2, 0, 0}));
  EXPECT_EQ(first.warm_solves, (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(resumed.warm_solves, (std::vector<int>{2, 0, 0}));
  ASSERT_EQ(straight.fits.size(), 4u);
  ASSERT_EQ(first.fits.size(), 2u);
  ASSERT_EQ(resumed.fits.size(), 2u);
  EXPECT_NEAR(first.fits[0], straight.fits[0], 1e-12);
  EXPECT_NEAR(first.fits[1], straight.fits[1], 1e-12);
  EXPECT_NEAR(resumed.fits[0], straight.fits[2], 1e-12);
  EXPECT_NEAR(resumed.fits[1], straight.fits[3], 1e-12);

  for (int rank = 0; rank < 2; ++rank) {
    std::remove((dir + "/rank" + std::to_string(rank) + ".htb").c_str());
  }
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

}  // namespace
