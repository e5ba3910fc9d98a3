// Tensor completion: weighted (masked) Tucker factorization over the
// observed-entry mask.
//
// HOOI (core/hooi.hpp) fits the reconstruction over *all* tensor positions,
// treating missing entries as zeros — the right objective for compression,
// the wrong one for prediction. Completion minimizes only over the observed
// coordinates Omega, with L2 regularization:
//
//   min_{G, U_1..U_N}  sum_{t in Omega} (x_t - Xhat(i_t))^2
//                      + lambda * (sum_n ||U_n||_F^2 + ||G||_F^2).
//
// The solver is alternating least squares with P-Tucker-style row-wise
// factor updates ("Scalable Tucker Factorization for Sparse Tensors",
// PAPERS.md): for mode n, every row u = U_n(i, :) has a closed-form ridge
// solution assembled ONLY from that row's observed entries,
//
//   (B_i + lambda I) u = c_i,    B_i = sum_t d_t d_t^T,  c_i = sum_t x_t d_t,
//
// where d_t in R^{R_n} is the core contracted against every OTHER mode's
// factor row at t's coordinates (computed by the shared core/reconstruct
// kernels, so it is bit-identical to the serving contraction). The row
// lists are exactly core/symbolic's ModeSymbolic update lists — the same
// structure the TTMc kernels iterate — so the masked sweep reuses the
// existing symbolic preprocessing unchanged. The core is refreshed by
// warm-started conjugate gradients on its (ridge) normal equations; each
// half-step minimizes the objective exactly (rows) or monotonically
// decreases it (CG), so the training objective is non-increasing per sweep.
//
// Determinism: rows are solved in parallel but each row's accumulation is
// sequential over its update list, rows write disjoint factor rows, and
// every cross-nonzero reduction (core gradient, RMSE/objective sums) runs
// over FIXED 8192-nonzero blocks whose partials are combined in ascending
// block order — the same arena discipline as la/blas.cpp — so results are
// bitwise identical across runs, thread counts, and schedules.
//
// The row update is exposed stand-alone (masked_update_rows) on a caller-
// chosen row subset: the delta-ingestion / stochastic-refresh path of
// ROADMAP item 2 re-solves only the rows a delta touched through the same
// entry point.
//
// Completion trains whole I_n x R_n factors (a decomposition with no row
// lists, core/tucker.hpp): unobserved rows are zeroed at init and stay
// zero, but the masked updates index factors by global row.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/symbolic.hpp"
#include "core/tucker.hpp"
#include "core/tucker_model.hpp"
#include "tensor/coo_tensor.hpp"

namespace ht::core {

struct CompletionOptions {
  /// Decomposition ranks, one per mode (required).
  std::vector<index_t> ranks;
  int max_sweeps = 30;
  /// L2 regularization strength on every factor row and the core.
  double lambda = 1e-3;
  /// Ridge annealing: sweep s < lambda_anneal_sweeps uses
  ///   lambda * factor^((anneal_sweeps - s) / anneal_sweeps),
  /// a geometric decay from lambda*factor down to lambda. The heavy early
  /// ridge keeps the first sweeps from committing to a spurious fit of the
  /// sparse mask (the ALS "swamp"), then relaxes; factor = 1 or
  /// sweeps = 0 disables. While annealing is active the recorded objective
  /// uses that sweep's effective lambda (not comparable across sweeps), and
  /// the objective-tolerance convergence check and the early-stopping
  /// patience counter are held off until the final lambda is reached.
  double lambda_anneal_factor = 1.0;
  int lambda_anneal_sweeps = 0;
  /// Stop when the relative objective decrease between sweeps falls below
  /// this (training-side convergence).
  double objective_tolerance = 1e-5;
  /// Core refresh: CG iteration cap and relative residual target on the
  /// core's normal equations.
  int core_cg_iterations = 20;
  double core_cg_tolerance = 1e-9;
  /// Early stopping on the validation RMSE (only with a validation set):
  /// stop after `patience` consecutive sweeps without an improvement of at
  /// least `min_delta`; patience <= 0 disables.
  int early_stopping_patience = 3;
  double early_stopping_min_delta = 1e-5;
  /// Restore the factors/core of the best-validation sweep before
  /// returning (only with a validation set).
  bool restore_best = true;
  /// OpenMP threads (0 = runtime default).
  int num_threads = 0;
  /// Seed for the factor initialization.
  std::uint64_t seed = 42;
};

struct CompletionTimers {
  double symbolic = 0;
  double factor = 0;
  double core = 0;
  double eval = 0;
};

/// Deterministic prediction-quality measures over one observed-entry set.
struct CompletionEval {
  double rmse = 0;
  double mae = 0;
  nnz_t count = 0;
};

struct CompletionResult {
  TuckerDecomposition decomposition;
  /// Training objective (SSE + lambda * squared norms) after each sweep.
  std::vector<double> objective;
  /// Training RMSE over the observed entries after each sweep.
  std::vector<double> train_rmse;
  /// Validation RMSE after each sweep (empty without a validation set).
  std::vector<double> validation_rmse;
  int sweeps = 0;
  bool converged = false;       // objective_tolerance reached
  bool early_stopped = false;   // validation patience exhausted
  /// Sweep (0-based) of the best validation RMSE; -1 without validation.
  int best_sweep = -1;
  CompletionTimers timers;

  [[nodiscard]] double final_train_rmse() const {
    return train_rmse.empty() ? 0.0 : train_rmse.back();
  }
};

/// Train a completion model on the observed entries of `train`.
CompletionResult tucker_complete(const CooTensor& train,
                                 const CompletionOptions& options);

/// Train with a validation set steering early stopping. `validation` may be
/// null or empty (then identical to the overload above); it must share the
/// training tensor's shape.
CompletionResult tucker_complete(const CooTensor& train,
                                 const CooTensor* validation,
                                 const CompletionOptions& options);

/// One masked row-wise update of mode `mode` restricted to the compacted
/// row ordinals `rows` (indices into sym.rows / sym.update_list). Solves
/// each row's ridge normal equations from its observed entries and writes
/// the solution into t.factors[mode]; all other state is read-only. Rows
/// are independent — the call is OpenMP-parallel over `rows` and bitwise
/// deterministic for any thread count.
void masked_update_rows(const CooTensor& x, const ModeSymbolic& sym,
                        std::size_t mode, double lambda,
                        std::span<const std::size_t> rows,
                        TuckerDecomposition& t);

/// Masked row update over every observed row of `mode`.
void masked_update_mode(const CooTensor& x, const ModeSymbolic& sym,
                        std::size_t mode, double lambda,
                        TuckerDecomposition& t);

/// Warm-started CG refresh of the core against the observed entries:
/// solves (A^T A + lambda I) g = A^T x where row t of A is the Kronecker
/// product of the factor rows at t's coordinates. Starts from the current
/// core values and monotonically decreases the objective. Returns the CG
/// iterations used. Deterministic (fixed-block gradient reduction).
int masked_update_core(const CooTensor& x, double lambda, int max_iterations,
                       double tolerance, TuckerDecomposition& t);

/// Training objective: SSE over the observed entries plus
/// lambda * (sum_n ||U_n||^2 + ||G||^2). Deterministic.
double masked_objective(const CooTensor& x, const TuckerDecomposition& t,
                        double lambda);

/// RMSE/MAE of per-entry predictions `preds` (one per nonzero of `x`,
/// e.g. from serve::QueryEngine::score_batch). Fixed-block accumulation:
/// the result is a pure function of (x.values, preds), so a serve-path
/// evaluation matches a train-side one to 0 ULP whenever the predictions
/// are bit-identical.
CompletionEval evaluate_predictions(const CooTensor& x,
                                    std::span<const double> preds);

/// Evaluate a decomposition on the observed entries of `x`: predictions
/// via the shared reconstruct kernels, then evaluate_predictions.
CompletionEval evaluate_model(const CooTensor& x,
                              const TuckerDecomposition& t);

/// Package a completion run as a serveable TuckerModel: dims/fit from the
/// training tensor (fit = 1 - ||P_Omega(X - Xhat)|| / ||X||, the masked
/// counterpart of the HOOI fit), build provenance, and `completion.*`
/// provenance keys (lambda, seed, sweeps, train RMSE, stop reason).
/// Callers append split/holdout keys they know about (completion.split_seed,
/// completion.holdout_rmse, ...) before saving the bundle.
TuckerModel completion_model(const CooTensor& train, CompletionResult&& result,
                             const CompletionOptions& options);

/// Validate options against the tensor; throws ht::InvalidArgument.
void validate_completion_options(const CooTensor& x,
                                 const CompletionOptions& options);

}  // namespace ht::core
