#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/completion.hpp"
#include "core/hooi.hpp"
#include "core/split.hpp"
#include "core/symbolic.hpp"
#include "tensor/generators.hpp"
#include "util/random.hpp"

namespace {

using ht::core::CompletionEval;
using ht::core::CompletionOptions;
using ht::core::CompletionResult;
using ht::core::SymbolicTtmc;
using ht::core::TuckerDecomposition;
using ht::tensor::CooTensor;
using ht::tensor::index_t;
using ht::tensor::nnz_t;
using ht::tensor::Shape;

CompletionOptions basic_options(std::vector<index_t> ranks, int sweeps = 10) {
  CompletionOptions opt;
  opt.ranks = std::move(ranks);
  opt.max_sweeps = sweeps;
  return opt;
}

CooTensor small_masked_tensor(std::uint64_t seed, nnz_t nnz = 600) {
  CooTensor x =
      ht::tensor::random_uniform(Shape{18, 14, 10}, nnz, seed);
  ht::tensor::plant_low_rank_values(x, 3, 0.05, seed ^ 0xabcdef);
  return x;
}

/// Brute-force d_t for nonzero t of mode `mode`: full core walk, no shared
/// kernels — the independent reference the row solves are checked against.
std::vector<double> dense_delta(const CooTensor& x, nnz_t t, std::size_t mode,
                                const TuckerDecomposition& dec) {
  const Shape& cs = dec.core.shape();
  const std::size_t r_n = cs[mode];
  std::vector<double> delta(r_n, 0.0);
  const std::size_t core_len = dec.core.size();
  const auto core = dec.core.flat();
  for (std::size_t c = 0; c < core_len; ++c) {
    double prod = core[c];
    std::size_t rem = c;
    std::size_t r_mode = 0;
    for (std::size_t n = x.order(); n-- > 0;) {
      const std::size_t r = rem % cs[n];
      rem /= cs[n];
      if (n == mode) {
        r_mode = r;
      } else {
        prod *= dec.factors[n](x.index(n, t), r);
      }
    }
    delta[r_mode] += prod;
  }
  return delta;
}

TEST(CompletionRowUpdateTest, SolvesNormalEquationsAgainstDenseReference) {
  const CooTensor x = small_masked_tensor(31);
  const SymbolicTtmc sym = SymbolicTtmc::build(x);
  const double lambda = 0.05;

  CompletionOptions opt = basic_options({3, 4, 2}, 1);
  opt.lambda = lambda;
  CompletionResult r = ht::core::tucker_complete(x, opt);
  TuckerDecomposition& dec = r.decomposition;

  for (std::size_t mode = 0; mode < x.order(); ++mode) {
    ht::core::masked_update_mode(x, sym.modes[mode], mode, lambda, dec);
    const std::size_t r_n = dec.core.shape()[mode];
    for (std::size_t ord = 0; ord < sym.modes[mode].num_rows(); ++ord) {
      const index_t row = sym.modes[mode].rows[ord];
      // Assemble (B + lambda I) u - c from scratch with the dense reference.
      std::vector<double> b_mat(r_n * r_n, 0.0), c(r_n, 0.0);
      for (const nnz_t t : sym.modes[mode].update_list(ord)) {
        const std::vector<double> d = dense_delta(x, t, mode, dec);
        for (std::size_t i = 0; i < r_n; ++i) {
          c[i] += x.value(t) * d[i];
          for (std::size_t j = 0; j < r_n; ++j) {
            b_mat[i * r_n + j] += d[i] * d[j];
          }
        }
      }
      const auto u = dec.factors[mode].row(row);
      double residual = 0.0;
      for (std::size_t i = 0; i < r_n; ++i) {
        double s = lambda * u[i] - c[i];
        for (std::size_t j = 0; j < r_n; ++j) {
          s += b_mat[i * r_n + j] * u[j];
        }
        residual += s * s;
      }
      EXPECT_LT(std::sqrt(residual), 1e-10)
          << "mode " << mode << " row " << row;
    }
  }
}

TEST(CompletionTest, ObjectiveIsMonotoneNonIncreasing) {
  const CooTensor x = small_masked_tensor(32, 900);
  CompletionOptions opt = basic_options({4, 3, 3}, 12);
  opt.lambda = 1e-2;
  opt.objective_tolerance = 0.0;  // run every sweep
  const CompletionResult r = ht::core::tucker_complete(x, opt);
  ASSERT_GE(r.objective.size(), 2u);
  for (std::size_t i = 1; i < r.objective.size(); ++i) {
    // Exact row minimization + monotone CG: non-increasing up to FP noise.
    EXPECT_LE(r.objective[i],
              r.objective[i - 1] * (1.0 + 1e-12) + 1e-12)
        << "sweep " << i;
  }
  EXPECT_EQ(r.objective.back(),
            ht::core::masked_objective(x, r.decomposition, opt.lambda));
}

TEST(CompletionTest, TinyLambdaOnFullyObservedTensorMatchesHooi) {
  // Fully observed tensor: every position is a nonzero. The masked
  // objective then coincides with the unmasked one, so completion with a
  // vanishing ridge must reach at least HOOI's fit (it drops HOOI's
  // orthonormality constraint).
  const Shape shape{8, 7, 6};
  CooTensor x(shape);
  ht::Rng rng(33);
  std::vector<index_t> idx(3, 0);
  for (index_t i = 0; i < shape[0]; ++i) {
    for (index_t j = 0; j < shape[1]; ++j) {
      for (index_t k = 0; k < shape[2]; ++k) {
        x.push_back(std::vector<index_t>{i, j, k}, rng.uniform(-1.0, 1.0));
      }
    }
  }
  ht::tensor::plant_low_rank_values(x, 3, 0.05, 34);

  ht::core::HooiOptions hopt;
  hopt.ranks = {3, 3, 3};
  hopt.max_iterations = 15;
  const ht::core::HooiResult hooi = ht::core::hooi(x, hopt);

  CompletionOptions copt = basic_options({3, 3, 3}, 25);
  copt.lambda = 1e-12;
  copt.objective_tolerance = 1e-9;
  const CompletionResult comp = ht::core::tucker_complete(x, copt);
  const double sse = comp.final_train_rmse() * comp.final_train_rmse() *
                     static_cast<double>(x.nnz());
  const double fit = 1.0 - std::sqrt(sse / x.norm2_squared());
  EXPECT_GE(fit, hooi.final_fit() - 5e-3);
}

TEST(CompletionTest, BitwiseDeterministicAcrossRunsAndThreadCounts) {
  const CooTensor x = small_masked_tensor(35, 1200);
  CompletionOptions opt = basic_options({3, 3, 3}, 4);
  opt.lambda = 1e-2;

  CompletionOptions one = opt;
  one.num_threads = 1;
  CompletionOptions four = opt;
  four.num_threads = 4;

  const CompletionResult a = ht::core::tucker_complete(x, opt);
  const CompletionResult b = ht::core::tucker_complete(x, opt);
  const CompletionResult c1 = ht::core::tucker_complete(x, one);
  const CompletionResult c4 = ht::core::tucker_complete(x, four);

  const auto expect_bitwise = [](const CompletionResult& lhs,
                                 const CompletionResult& rhs) {
    ASSERT_EQ(lhs.objective.size(), rhs.objective.size());
    for (std::size_t i = 0; i < lhs.objective.size(); ++i) {
      EXPECT_EQ(lhs.objective[i], rhs.objective[i]) << "sweep " << i;
      EXPECT_EQ(lhs.train_rmse[i], rhs.train_rmse[i]) << "sweep " << i;
    }
    const auto lcore = lhs.decomposition.core.flat();
    const auto rcore = rhs.decomposition.core.flat();
    ASSERT_EQ(lcore.size(), rcore.size());
    EXPECT_EQ(std::memcmp(lcore.data(), rcore.data(),
                          lcore.size() * sizeof(double)),
              0);
    for (std::size_t n = 0; n < lhs.decomposition.order(); ++n) {
      const auto lf = lhs.decomposition.factors[n].flat();
      const auto rf = rhs.decomposition.factors[n].flat();
      ASSERT_EQ(lf.size(), rf.size());
      EXPECT_EQ(std::memcmp(lf.data(), rf.data(), lf.size() * sizeof(double)),
                0)
          << "factor " << n;
    }
  };
  expect_bitwise(a, b);
  expect_bitwise(c1, c4);
}

TEST(CompletionTest, EvaluateModelMatchesEvaluatePredictions) {
  const CooTensor x = small_masked_tensor(36);
  CompletionOptions opt = basic_options({3, 3, 3}, 3);
  const CompletionResult r = ht::core::tucker_complete(x, opt);

  std::vector<double> preds(x.nnz());
  std::vector<index_t> idx(x.order());
  for (nnz_t t = 0; t < x.nnz(); ++t) {
    for (std::size_t n = 0; n < x.order(); ++n) idx[n] = x.index(n, t);
    preds[t] = r.decomposition.reconstruct_at(idx);
  }
  const CompletionEval via_model = ht::core::evaluate_model(x, r.decomposition);
  const CompletionEval via_preds = ht::core::evaluate_predictions(x, preds);
  EXPECT_EQ(via_model.rmse, via_preds.rmse);
  EXPECT_EQ(via_model.mae, via_preds.mae);
  EXPECT_EQ(via_model.count, via_preds.count);
}

TEST(CompletionTest, EarlyStoppingRestoresBestSweep) {
  const ht::tensor::LowRankTensor planted = ht::tensor::random_low_rank(
      Shape{40, 30, 20}, 4000, Shape{3, 3, 3}, 0.2, 37);
  ht::core::SplitOptions sopt;
  sopt.validation_fraction = 0.2;
  sopt.test_fraction = 0.0;
  const ht::core::TensorSplit split =
      ht::core::split_tensor(planted.tensor, sopt);

  CompletionOptions opt = basic_options({3, 3, 3}, 40);
  opt.lambda = 0.05;
  opt.objective_tolerance = 0.0;
  opt.early_stopping_patience = 2;
  const CompletionResult r =
      ht::core::tucker_complete(split.train, &split.validation, opt);
  ASSERT_FALSE(r.validation_rmse.empty());
  ASSERT_GE(r.best_sweep, 0);
  // The restored model evaluates to the best sweep's validation RMSE.
  const CompletionEval eval =
      ht::core::evaluate_model(split.validation, r.decomposition);
  double best = r.validation_rmse[0];
  for (const double v : r.validation_rmse) best = std::min(best, v);
  EXPECT_EQ(eval.rmse, best);
}

// ISSUE acceptance pin: planted rank-(5,5,5), 1% observed, relative noise
// 0.1. Masked training must reach held-out RMSE within 1.15x the noise
// floor; unmasked HOOI on the same training entries (zeros elsewhere) must
// not come close.
TEST(CompletionAcceptanceTest, MaskedTrainingReachesNoiseFloorHooiDoesNot) {
  const Shape shape{220, 170, 110};
  const nnz_t nnz = 41140;  // 1% of 220*170*110
  const ht::tensor::LowRankTensor planted =
      ht::tensor::random_low_rank(shape, nnz, Shape{5, 5, 5}, 0.1, 38);

  ht::core::SplitOptions sopt;
  sopt.validation_fraction = 0.1;
  sopt.test_fraction = 0.1;
  sopt.seed = 39;
  const ht::core::TensorSplit split =
      ht::core::split_tensor(planted.tensor, sopt);

  CompletionOptions opt = basic_options({5, 5, 5}, 40);
  opt.lambda = 0.01;
  opt.lambda_anneal_factor = 100.0;
  opt.lambda_anneal_sweeps = 20;
  opt.core_cg_iterations = 8;
  opt.objective_tolerance = 1e-8;
  opt.early_stopping_patience = 0;  // fixed sweep budget, restore the best
  const CompletionResult masked =
      ht::core::tucker_complete(split.train, &split.validation, opt);
  const CompletionEval masked_eval =
      ht::core::evaluate_model(split.test, masked.decomposition);

  ht::core::HooiOptions hopt;
  hopt.ranks = {5, 5, 5};
  hopt.max_iterations = 20;
  const ht::core::HooiResult hooi = ht::core::hooi(split.train, hopt);
  const CompletionEval hooi_eval =
      ht::core::evaluate_model(split.test, hooi.decomposition);

  EXPECT_LE(masked_eval.rmse, 1.15 * planted.noise_sigma)
      << "masked held-out RMSE " << masked_eval.rmse << " vs noise floor "
      << planted.noise_sigma;
  // HOOI fits zeros at the 99% unobserved positions, shrinking every
  // prediction toward 0: its held-out RMSE stays near the signal RMS (~1),
  // an order of magnitude off the floor.
  EXPECT_GT(hooi_eval.rmse, 3.0 * masked_eval.rmse)
      << "unmasked HOOI held-out RMSE " << hooi_eval.rmse;
}

TEST(CompletionTest, CompletionModelCarriesProvenance) {
  const CooTensor x = small_masked_tensor(40);
  CompletionOptions opt = basic_options({3, 3, 3}, 3);
  opt.lambda = 0.01;
  opt.seed = 77;
  CompletionResult r = ht::core::tucker_complete(x, opt);
  const int sweeps = r.sweeps;
  const ht::core::TuckerModel m =
      ht::core::completion_model(x, std::move(r), opt);
  EXPECT_EQ(m.dims, x.shape());
  EXPECT_GT(m.fit, 0.0);
  EXPECT_EQ(m.provenance_value("completion.seed"), "77");
  EXPECT_EQ(m.provenance_value("completion.sweeps"), std::to_string(sweeps));
  EXPECT_FALSE(m.provenance_value("completion.lambda").empty());
  EXPECT_FALSE(m.provenance_value("completion.train_rmse").empty());
}

TEST(CompletionTest, ValidationRejectsBadInput) {
  const CooTensor x = small_masked_tensor(41);
  EXPECT_THROW(ht::core::tucker_complete(x, basic_options({3, 3})),
               ht::InvalidArgument);  // arity
  EXPECT_THROW(ht::core::tucker_complete(x, basic_options({3, 3, 99})),
               ht::InvalidArgument);  // rank > dim
  CompletionOptions bad_lambda = basic_options({3, 3, 3});
  bad_lambda.lambda = -1.0;
  EXPECT_THROW(ht::core::tucker_complete(x, bad_lambda), ht::InvalidArgument);
  CompletionOptions bad_sweeps = basic_options({3, 3, 3});
  bad_sweeps.max_sweeps = 0;
  EXPECT_THROW(ht::core::tucker_complete(x, bad_sweeps), ht::InvalidArgument);
  CooTensor empty(Shape{5, 5, 5});
  EXPECT_THROW(ht::core::tucker_complete(empty, basic_options({2, 2, 2})),
               ht::InvalidArgument);
  // Validation tensor must share the training shape.
  const CooTensor other = small_masked_tensor(42);
  CooTensor wrong_shape(Shape{4, 4, 4});
  wrong_shape.push_back(std::vector<index_t>{0, 1, 2}, 1.0);
  EXPECT_THROW(
      ht::core::tucker_complete(x, &wrong_shape, basic_options({3, 3, 3})),
      ht::InvalidArgument);
}

}  // namespace
