#include "core/completion.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "core/hosvd.hpp"
#include "core/reconstruct.hpp"
#include "parallel/thread_info.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace ht::core {

namespace {

using tensor::Shape;

/// Fixed reduction granularity: every cross-nonzero sum is accumulated per
/// 8192-nonzero block and the block partials are combined in ascending
/// block order, so the result never depends on the thread count (the same
/// discipline as la/blas.cpp's reductions).
constexpr nnz_t kReduceBlock = 8192;

std::size_t core_size(const Shape& ranks) {
  std::size_t s = 1;
  for (const index_t r : ranks) s *= r;
  return s;
}

/// Kronecker product of the factor rows at `idx`, laid out like the flat
/// core buffer (mode 0 slowest, last mode fastest):
///   buf[((r_0 R_1 + r_1) R_2 + ...)] = prod_n U_n(idx[n], r_n).
/// In-place expansion, descending source index, so no scratch is needed.
void kron_rows(std::span<const la::Matrix> factors,
               std::span<const index_t> idx, double* buf) {
  std::size_t len = 1;
  buf[0] = 1.0;
  for (std::size_t n = 0; n < factors.size(); ++n) {
    const auto row = factors[n].row(idx[n]);
    const std::size_t r_count = row.size();
    for (std::size_t p = len; p-- > 0;) {
      const double w = buf[p];
      double* out = buf + p * r_count;
      for (std::size_t r = r_count; r-- > 0;) out[r] = w * row[r];
    }
    len *= r_count;
  }
}

/// Solve (B + reg I) u = c for SPD B via in-place Cholesky. B is row-major
/// n x n (destroyed); c is overwritten with the solution. If a pivot
/// collapses (reg = 0 on a rank-deficient system), the ridge is increased
/// deterministically and the factorization retried.
void solve_ridge(std::size_t n, std::vector<double>& b_mat,
                 std::vector<double>& c, double reg) {
  double max_diag = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    max_diag = std::max(max_diag, b_mat[i * n + i]);
  }
  const std::vector<double> saved = b_mat;  // pristine copy for retries
  double jitter = 0.0;
  for (;;) {
    bool ok = true;
    // Lower Cholesky over the (symmetric) matrix with ridge reg + jitter.
    for (std::size_t i = 0; i < n && ok; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        double s = b_mat[i * n + j];
        for (std::size_t k = 0; k < j; ++k) {
          s -= b_mat[i * n + k] * b_mat[j * n + k];
        }
        if (i == j) {
          s += reg + jitter;
          if (s <= 0.0 || !std::isfinite(s)) {
            ok = false;
            break;
          }
          b_mat[i * n + i] = std::sqrt(s);
        } else {
          b_mat[i * n + j] = s / b_mat[j * n + j];
        }
      }
    }
    if (ok) break;
    // Deterministic jitter escalation: a rank-deficient system (a row with
    // fewer observations than R_n and reg == 0) gets the minimum-norm-ish
    // ridge solution instead of a crash.
    jitter = jitter == 0.0 ? std::max(1e-12, 1e-12 * max_diag) : jitter * 16.0;
    HT_CHECK_MSG(jitter < 1e6 * std::max(1.0, max_diag),
                 "masked row solve: normal equations are not positive "
                 "definite even under heavy jitter");
    b_mat = saved;
  }
  // Forward substitution L y = c.
  for (std::size_t i = 0; i < n; ++i) {
    double s = c[i];
    for (std::size_t k = 0; k < i; ++k) s -= b_mat[i * n + k] * c[k];
    c[i] = s / b_mat[i * n + i];
  }
  // Back substitution L^T u = y.
  for (std::size_t i = n; i-- > 0;) {
    double s = c[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= b_mat[k * n + i] * c[k];
    c[i] = s / b_mat[i * n + i];
  }
}

/// Per-thread scratch for the row updates.
struct RowScratch {
  std::vector<double> slice;   // entity slice over the non-entity modes
  std::vector<double> delta;   // d_t in R^{R_n}
  std::vector<double> b_mat;   // R_n x R_n normal matrix
  std::vector<double> rhs;     // right-hand side / solution
  std::vector<index_t> idx;    // coordinates of one nonzero
  std::vector<std::span<const double>> rows;  // its factor rows
  ReconstructWorkspace rws;
};

RowScratch& row_scratch_tls() {
  thread_local RowScratch scratch;
  return scratch;
}

/// Sum of squared / absolute errors with the fixed-block discipline.
struct ErrorSums {
  double sse = 0;
  double sae = 0;
};

ErrorSums accumulate_errors(std::span<const tensor::value_t> truth,
                            std::span<const double> preds) {
  HT_CHECK(truth.size() == preds.size());
  const nnz_t n = truth.size();
  const nnz_t blocks = (n + kReduceBlock - 1) / kReduceBlock;
  std::vector<double> partial_sse(blocks, 0.0), partial_sae(blocks, 0.0);
#pragma omp parallel for schedule(static)
  for (nnz_t b = 0; b < blocks; ++b) {
    const nnz_t begin = b * kReduceBlock;
    const nnz_t end = std::min<nnz_t>(begin + kReduceBlock, n);
    double sse = 0, sae = 0;
    for (nnz_t t = begin; t < end; ++t) {
      const double d = preds[t] - truth[t];
      sse += d * d;
      sae += std::abs(d);
    }
    partial_sse[b] = sse;
    partial_sae[b] = sae;
  }
  ErrorSums sums;
  for (nnz_t b = 0; b < blocks; ++b) {
    sums.sse += partial_sse[b];
    sums.sae += partial_sae[b];
  }
  return sums;
}

/// Model predictions at every nonzero of `x` (parallel; each entry is
/// independent, so the output is bitwise thread-count-invariant).
void predict_all(const CooTensor& x, const TuckerDecomposition& t,
                 std::vector<double>& preds) {
  const nnz_t n = x.nnz();
  preds.resize(n);
  const std::size_t order = x.order();
#pragma omp parallel
  {
    std::vector<index_t> idx(order);
#pragma omp for schedule(static)
    for (nnz_t e = 0; e < n; ++e) {
      for (std::size_t m = 0; m < order; ++m) idx[m] = x.index(m, e);
      preds[e] = t.reconstruct_at(idx);
    }
  }
}

double squared_frobenius(const TuckerDecomposition& t) {
  double s = 0.0;
  for (const auto& f : t.factors) {
    for (const double v : f.flat()) s += v * v;
  }
  for (const double v : t.core.flat()) s += v * v;
  return s;
}

/// out = A^T (A v) where row t of A is kron_rows at nonzero t; when
/// `use_values` is set the forward product is replaced by x's values
/// (computing A^T x instead). Fixed-block deterministic reduction.
void masked_normal_apply(const CooTensor& x,
                         std::span<const la::Matrix> factors,
                         std::span<const double> v, bool use_values,
                         std::vector<double>& out,
                         std::vector<double>& block_partials) {
  const std::size_t len = v.size();
  const nnz_t n = x.nnz();
  const nnz_t blocks = (n + kReduceBlock - 1) / kReduceBlock;
  block_partials.assign(blocks * len, 0.0);
  const std::size_t order = x.order();
#pragma omp parallel
  {
    std::vector<double> kron(len);
    std::vector<index_t> idx(order);
#pragma omp for schedule(dynamic)
    for (nnz_t b = 0; b < blocks; ++b) {
      double* local = block_partials.data() + b * len;
      const nnz_t begin = b * kReduceBlock;
      const nnz_t end = std::min<nnz_t>(begin + kReduceBlock, n);
      for (nnz_t e = begin; e < end; ++e) {
        for (std::size_t m = 0; m < order; ++m) idx[m] = x.index(m, e);
        kron_rows(factors, idx, kron.data());
        double p;
        if (use_values) {
          p = x.value(e);
        } else {
          p = 0.0;
          for (std::size_t j = 0; j < len; ++j) p += kron[j] * v[j];
        }
        for (std::size_t j = 0; j < len; ++j) local[j] += p * kron[j];
      }
    }
  }
  out.assign(len, 0.0);
#pragma omp parallel for schedule(static) if (len >= 1024)
  for (std::size_t j = 0; j < len; ++j) {
    double s = 0.0;
    for (nnz_t b = 0; b < blocks; ++b) s += block_partials[b * len + j];
    out[j] = s;
  }
}

double vec_dot(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace

void validate_completion_options(const CooTensor& x,
                                 const CompletionOptions& options) {
  if (x.nnz() == 0) throw InvalidArgument("completion needs observed entries");
  if (x.order() < 2) {
    throw InvalidArgument("completion needs an order >= 2 tensor");
  }
  x.validate_values();
  if (options.ranks.size() != x.order()) {
    throw InvalidArgument("need one rank per tensor mode");
  }
  for (std::size_t n = 0; n < x.order(); ++n) {
    if (options.ranks[n] < 1 || options.ranks[n] > x.dim(n)) {
      throw InvalidArgument("rank out of range for mode " + std::to_string(n));
    }
  }
  if (options.max_sweeps < 1) {
    throw InvalidArgument("max_sweeps must be >= 1");
  }
  if (options.lambda < 0.0) {
    throw InvalidArgument("lambda must be non-negative");
  }
  if (options.core_cg_iterations < 1) {
    throw InvalidArgument("core_cg_iterations must be >= 1");
  }
  if (options.lambda_anneal_factor < 1.0) {
    throw InvalidArgument("lambda_anneal_factor must be >= 1");
  }
  if (options.lambda_anneal_sweeps < 0) {
    throw InvalidArgument("lambda_anneal_sweeps must be >= 0");
  }
}

void masked_update_rows(const CooTensor& x, const ModeSymbolic& sym,
                        std::size_t mode, double lambda,
                        std::span<const std::size_t> rows,
                        TuckerDecomposition& t) {
  HT_CHECK_MSG(mode < t.order(), "mode out of range");
  const Shape& cs = t.core.shape();
  const std::size_t r_n = cs[mode];
  const std::size_t order = t.order();
  const std::size_t entity = mode == 0 ? 1 : 0;
  const std::size_t entity_slice = slice_size(cs, entity);
  const auto core = t.core.flat();
  // The row solves read every OTHER mode's factor (and the core) and write
  // only mode-`mode` rows, so updating in place is race-free and
  // order-independent.
  la::Matrix& target = t.factors[mode];
  const std::span<const la::Matrix> factors{t.factors.data(),
                                            t.factors.size()};

#pragma omp parallel for schedule(dynamic, 8)
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const std::size_t r = rows[k];
    RowScratch& ws = row_scratch_tls();
    ws.slice.resize(entity_slice);
    ws.delta.resize(r_n);
    ws.b_mat.assign(r_n * r_n, 0.0);
    ws.rhs.assign(r_n, 0.0);
    ws.idx.resize(order);
    ws.rows.resize(order);
    for (const nnz_t e : sym.update_list(r)) {
      for (std::size_t m = 0; m < order; ++m) {
        ws.idx[m] = x.index(m, e);
        ws.rows[m] = factors[m].row(ws.idx[m]);
      }
      contract_entity(core, cs, entity, ws.rows[entity], ws.slice);
      slice_mode_vector(ws.slice, cs, entity, mode, ws.rows, ws.rws,
                        ws.delta);
      const double v = x.value(e);
      for (std::size_t i = 0; i < r_n; ++i) {
        const double di = ws.delta[i];
        ws.rhs[i] += v * di;
        double* bi = ws.b_mat.data() + i * r_n;
        for (std::size_t j = 0; j <= i; ++j) bi[j] += di * ws.delta[j];
      }
    }
    // Mirror the lower triangle (Cholesky below only reads j <= i, but the
    // reference check in tests reads the full matrix semantics).
    for (std::size_t i = 0; i < r_n; ++i) {
      for (std::size_t j = i + 1; j < r_n; ++j) {
        ws.b_mat[i * r_n + j] = ws.b_mat[j * r_n + i];
      }
    }
    solve_ridge(r_n, ws.b_mat, ws.rhs, lambda);
    const auto out = target.row(sym.rows[r]);
    for (std::size_t i = 0; i < r_n; ++i) out[i] = ws.rhs[i];
  }
}

void masked_update_mode(const CooTensor& x, const ModeSymbolic& sym,
                        std::size_t mode, double lambda,
                        TuckerDecomposition& t) {
  std::vector<std::size_t> rows(sym.num_rows());
  for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  masked_update_rows(x, sym, mode, lambda, rows, t);
}

int masked_update_core(const CooTensor& x, double lambda, int max_iterations,
                       double tolerance, TuckerDecomposition& t) {
  const std::size_t len = core_size(t.core.shape());
  const std::span<const la::Matrix> factors{t.factors.data(),
                                            t.factors.size()};
  std::vector<double> scratch;
  std::vector<double> b;
  masked_normal_apply(x, factors, std::vector<double>(len, 0.0), true, b,
                      scratch);
  const double b_norm = std::sqrt(vec_dot(b, b));

  auto core = t.core.flat();
  std::vector<double> g(core.begin(), core.end());
  std::vector<double> mg, mp;
  const auto normal_matvec = [&](std::span<const double> v,
                                 std::vector<double>& out) {
    masked_normal_apply(x, factors, v, false, out, scratch);
    for (std::size_t j = 0; j < len; ++j) out[j] += lambda * v[j];
  };

  normal_matvec(g, mg);
  std::vector<double> r(len), p(len);
  for (std::size_t j = 0; j < len; ++j) r[j] = b[j] - mg[j];
  p = r;
  double rs = vec_dot(r, r);
  int iters = 0;
  while (iters < max_iterations &&
         std::sqrt(rs) > tolerance * std::max(b_norm, 1e-300)) {
    normal_matvec(p, mp);
    const double denom = vec_dot(p, mp);
    if (!(denom > 0.0)) break;  // numerically flat direction: stop
    const double alpha = rs / denom;
    for (std::size_t j = 0; j < len; ++j) {
      g[j] += alpha * p[j];
      r[j] -= alpha * mp[j];
    }
    const double rs_next = vec_dot(r, r);
    const double beta = rs_next / rs;
    for (std::size_t j = 0; j < len; ++j) p[j] = r[j] + beta * p[j];
    rs = rs_next;
    ++iters;
  }
  std::copy(g.begin(), g.end(), core.begin());
  return iters;
}

double masked_objective(const CooTensor& x, const TuckerDecomposition& t,
                        double lambda) {
  std::vector<double> preds;
  predict_all(x, t, preds);
  const ErrorSums sums = accumulate_errors(x.values(), preds);
  return sums.sse + lambda * squared_frobenius(t);
}

CompletionEval evaluate_predictions(const CooTensor& x,
                                    std::span<const double> preds) {
  HT_CHECK_MSG(preds.size() == x.nnz(),
               "need one prediction per observed entry");
  CompletionEval eval;
  eval.count = x.nnz();
  if (eval.count == 0) return eval;
  const ErrorSums sums = accumulate_errors(x.values(), preds);
  eval.rmse = std::sqrt(sums.sse / static_cast<double>(eval.count));
  eval.mae = sums.sae / static_cast<double>(eval.count);
  return eval;
}

CompletionEval evaluate_model(const CooTensor& x,
                              const TuckerDecomposition& t) {
  std::vector<double> preds;
  predict_all(x, t, preds);
  return evaluate_predictions(x, preds);
}

CompletionResult tucker_complete(const CooTensor& train,
                                 const CompletionOptions& options) {
  return tucker_complete(train, nullptr, options);
}

CompletionResult tucker_complete(const CooTensor& train,
                                 const CooTensor* validation,
                                 const CompletionOptions& options) {
  validate_completion_options(train, options);
  const bool with_validation = validation != nullptr && validation->nnz() > 0;
  if (with_validation && validation->shape() != train.shape()) {
    throw InvalidArgument("validation tensor shape differs from training");
  }
  parallel::ThreadScope threads(options.num_threads);

  CompletionResult result;
  WallTimer t_sym;
  const SymbolicTtmc symbolic = SymbolicTtmc::build(train);
  result.timers.symbolic = t_sym.seconds();

  // Init: random orthonormal factors; rows with no observed entries are
  // zero so unobserved entities predict 0 (the regularized solution they
  // would converge to anyway — and the sane serving default after mean
  // centering): only the observed rows are cut from the whole random
  // factors. The core starts from the ridge LS fit to those factors.
  TuckerDecomposition& t = result.decomposition;
  std::vector<std::span<const index_t>> observed;
  for (const ModeSymbolic& m : symbolic.modes) observed.emplace_back(m.rows);
  const std::vector<la::Matrix> kept = random_orthonormal_factors(
      train.shape(), options.ranks, options.seed, observed);
  for (std::size_t n = 0; n < train.order(); ++n) {
    la::Matrix& f = t.factors.emplace_back(train.dim(n), options.ranks[n]);
    for (std::size_t k = 0; k < observed[n].size(); ++k) {
      const auto src = kept[n].row(k);
      std::copy(src.begin(), src.end(), f.row(observed[n][k]).begin());
    }
  }
  t.core = tensor::DenseTensor(
      Shape(options.ranks.begin(), options.ranks.end()));

  // Effective ridge for sweep s: geometric decay from
  // lambda * anneal_factor down to lambda over the annealing window.
  const auto effective_lambda = [&options](int sweep) {
    if (options.lambda_anneal_sweeps <= 0 ||
        options.lambda_anneal_factor <= 1.0 ||
        sweep >= options.lambda_anneal_sweeps) {
      return options.lambda;
    }
    const double frac =
        static_cast<double>(options.lambda_anneal_sweeps - sweep) /
        static_cast<double>(options.lambda_anneal_sweeps);
    return options.lambda * std::pow(options.lambda_anneal_factor, frac);
  };

  {
    WallTimer t_core;
    masked_update_core(train, effective_lambda(0), options.core_cg_iterations,
                       options.core_cg_tolerance, t);
    result.timers.core += t_core.seconds();
  }

  double best_val = std::numeric_limits<double>::infinity();
  std::optional<TuckerDecomposition> best_snapshot;
  int sweeps_since_best = 0;
  std::vector<double> preds;

  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    const double lambda = effective_lambda(sweep);
    // Annealing still active: objective values are not comparable across
    // sweeps and validation RMSE is still dominated by the shrinking
    // ridge — hold off the convergence check and the patience counter.
    const bool annealing = lambda != options.lambda;
    {
      WallTimer t_factor;
      for (std::size_t n = 0; n < train.order(); ++n) {
        masked_update_mode(train, symbolic.modes[n], n, lambda, t);
      }
      result.timers.factor += t_factor.seconds();
    }
    {
      WallTimer t_core;
      masked_update_core(train, lambda, options.core_cg_iterations,
                         options.core_cg_tolerance, t);
      result.timers.core += t_core.seconds();
    }

    WallTimer t_eval;
    predict_all(train, t, preds);
    const ErrorSums train_err = accumulate_errors(train.values(), preds);
    const double objective = train_err.sse + lambda * squared_frobenius(t);
    result.objective.push_back(objective);
    result.train_rmse.push_back(
        std::sqrt(train_err.sse / static_cast<double>(train.nnz())));
    result.sweeps = sweep + 1;

    if (with_validation) {
      const CompletionEval val = evaluate_model(*validation, t);
      result.validation_rmse.push_back(val.rmse);
      // Patience needs an improvement of at least min_delta, but the best
      // snapshot tracks ANY improvement so the restored model is exactly
      // the argmin of the validation curve.
      if (annealing || val.rmse < best_val - options.early_stopping_min_delta) {
        sweeps_since_best = 0;
      } else {
        ++sweeps_since_best;
      }
      if (val.rmse < best_val) {
        best_val = val.rmse;
        result.best_sweep = sweep;
        if (options.restore_best) best_snapshot = t;
      }
    }
    result.timers.eval += t_eval.seconds();

    if (with_validation && options.early_stopping_patience > 0 &&
        sweeps_since_best >= options.early_stopping_patience) {
      result.early_stopped = true;
      break;
    }
    if (sweep > 0 && !annealing &&
        effective_lambda(sweep - 1) == options.lambda) {
      const double prev = result.objective[sweep - 1];
      if (prev - objective <
          options.objective_tolerance * std::max(prev, 1e-300)) {
        result.converged = true;
        break;
      }
    }
  }

  if (with_validation && options.restore_best && best_snapshot &&
      result.best_sweep >= 0 &&
      result.best_sweep + 1 != result.sweeps) {
    t = std::move(*best_snapshot);
  }
  return result;
}

TuckerModel completion_model(const CooTensor& train, CompletionResult&& result,
                             const CompletionOptions& options) {
  TuckerModel m;
  m.dims = train.shape();
  const double train_rmse = result.final_train_rmse();
  const double sse =
      train_rmse * train_rmse * static_cast<double>(train.nnz());
  const double x_norm2 = train.norm2_squared();
  m.fit = x_norm2 > 0.0 ? 1.0 - std::sqrt(sse / x_norm2) : 0.0;
  m.provenance = TuckerModel::build_provenance();
  char buf[64];
  const auto fmt = [&buf](double v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  m.provenance.emplace_back("completion.lambda", fmt(options.lambda));
  if (options.lambda_anneal_factor > 1.0 && options.lambda_anneal_sweeps > 0) {
    m.provenance.emplace_back("completion.lambda_anneal_factor",
                              fmt(options.lambda_anneal_factor));
    m.provenance.emplace_back("completion.lambda_anneal_sweeps",
                              std::to_string(options.lambda_anneal_sweeps));
  }
  m.provenance.emplace_back("completion.seed",
                            std::to_string(options.seed));
  m.provenance.emplace_back("completion.sweeps",
                            std::to_string(result.sweeps));
  m.provenance.emplace_back("completion.train_rmse", fmt(train_rmse));
  m.provenance.emplace_back("completion.converged",
                            result.converged ? "1" : "0");
  m.provenance.emplace_back("completion.early_stopped",
                            result.early_stopped ? "1" : "0");
  if (result.best_sweep >= 0) {
    m.provenance.emplace_back("completion.best_sweep",
                              std::to_string(result.best_sweep));
    m.provenance.emplace_back(
        "completion.validation_rmse",
        fmt(result.validation_rmse[static_cast<std::size_t>(
            std::min<int>(result.best_sweep,
                          static_cast<int>(result.validation_rmse.size()) -
                              1))]));
  }
  m.provenance.emplace_back("nnz", std::to_string(train.nnz()));
  m.decomposition = std::move(result.decomposition);
  return m;
}

}  // namespace ht::core
