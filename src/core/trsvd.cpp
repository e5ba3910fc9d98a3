#include "core/trsvd.hpp"

#include <algorithm>
#include <cmath>

#include "la/block_lanczos.hpp"
#include "la/linear_operator.hpp"
#include "la/qr.hpp"
#include "la/randomized_trsvd.hpp"
#include "util/error.hpp"

namespace ht::core {

namespace {

// Calibrated cost-model constants (see resolve_trsvd_method docs).
//
// Problems whose compact Y(n) fits comfortably in cache gain nothing from
// blocking — the scalar solver converges in fewer effective passes and has
// the lowest per-step constant.
constexpr std::size_t kSmallProblemEntries = std::size_t{1} << 18;
// Below this tolerance the fixed-budget randomized sketch cannot be
// trusted to hit the target; the iterate-to-tolerance block solver takes
// over.
constexpr double kRandomizedTolFloor = 1e-9;
// Memory-traffic charge per streamed Y(n) entry, in flop-equivalents: a
// full pass over Y(n) costs m*c*(kPassMemCharge + 2*width). Calibrated on
// the bench_ablation TRSVD arm (400k x 100): it reproduces the measured
// ~4x gap in per-pass throughput between the width-1 gemv stream and the
// width-18 gemm.
constexpr double kPassMemCharge = 8.0;

std::size_t default_block(std::size_t rank, const la::TrsvdOptions& options) {
  return options.block_size > 0 ? options.block_size
                                : std::clamp<std::size_t>(rank, 4, 16);
}

std::size_t estimated_lanczos_steps(std::size_t cols, std::size_t rank) {
  return std::min(cols, std::max<std::size_t>(2 * rank + 20, 30));
}

// One full pass over Y(n) carrying `width` vectors: stream + flops.
double pass_cost(double m, double c, double width) {
  return m * c * (kPassMemCharge + 2.0 * width);
}

}  // namespace

double trsvd_method_cost(TrsvdMethod method, std::size_t rows,
                         std::size_t cols, std::size_t rank,
                         const la::TrsvdOptions& options) {
  const auto m = static_cast<double>(rows);
  const auto c = static_cast<double>(cols);
  const auto r = static_cast<double>(rank);
  const auto steps = static_cast<double>(estimated_lanczos_steps(cols, rank));
  switch (method) {
    case TrsvdMethod::kLanczos:
      // Two width-1 passes per step plus the recovery passes.
      return (2.0 * steps + r) * pass_cost(m, c, 1.0);
    case TrsvdMethod::kGram:
      // One width-c pass forming Y^T Y plus the recovery gemm.
      return pass_cost(m, c, c) + pass_cost(m, c, r);
    case TrsvdMethod::kRandomized: {
      const auto l = static_cast<double>(
          std::min(cols, rank + options.oversample));
      const auto q = static_cast<double>(options.power_iterations);
      // 2q+2 block passes, the whitening gemms (8 m l^2 per two-pass
      // orthonormalization), and the final rotation.
      return (2.0 * q + 2.0) * pass_cost(m, c, l) +
             (q + 2.0) * 8.0 * m * l * l + 2.0 * m * l * r;
    }
    case TrsvdMethod::kBlockLanczos: {
      const auto b = static_cast<double>(default_block(rank, options));
      const double block_steps = std::ceil(steps / b);
      // Two block passes per step, the row-space orthonormalization and
      // cross-Gram (10 m b^2 per step), and the recovery pass.
      return block_steps * (2.0 * pass_cost(m, c, b) + 10.0 * m * b * b) +
             pass_cost(m, c, r);
    }
    case TrsvdMethod::kAuto:
      break;
  }
  HT_CHECK_MSG(false, "trsvd_method_cost called with kAuto");
  return 0.0;
}

TrsvdMethod resolve_trsvd_method(TrsvdMethod method, std::size_t rows,
                                 std::size_t cols, std::size_t rank,
                                 const la::TrsvdOptions& options) {
  if (method != TrsvdMethod::kAuto) return method;
  // Small problems: every backend is sub-millisecond and the scalar
  // solver's constant is lowest (measured on the bench_ablation small-mode
  // control) — stay within noise of kLanczos.
  if (rows * cols <= kSmallProblemEntries) return TrsvdMethod::kLanczos;
  // Tight tolerances need an iterate-to-tolerance Krylov solver; the
  // randomized sketch's accuracy is capped by its fixed budget.
  if (options.tol < kRandomizedTolFloor) return TrsvdMethod::kBlockLanczos;
  // ALS-grade tolerances on large problems: randomized subspace iteration
  // makes the fewest passes over Y(n) (2q+2 versus 2*steps/b) and measures
  // fastest; the cost model agrees wherever the pass counts differ.
  const double rand_cost =
      trsvd_method_cost(TrsvdMethod::kRandomized, rows, cols, rank, options);
  const double block_cost = trsvd_method_cost(TrsvdMethod::kBlockLanczos,
                                              rows, cols, rank, options);
  return rand_cost <= block_cost ? TrsvdMethod::kRandomized
                                 : TrsvdMethod::kBlockLanczos;
}

std::optional<TrsvdMethod> parse_trsvd_method(std::string_view name) {
  if (name == "lanczos") return TrsvdMethod::kLanczos;
  if (name == "gram") return TrsvdMethod::kGram;
  if (name == "block" || name == "block-lanczos") {
    return TrsvdMethod::kBlockLanczos;
  }
  if (name == "rand" || name == "randomized") return TrsvdMethod::kRandomized;
  if (name == "auto") return TrsvdMethod::kAuto;
  return std::nullopt;
}

const char* trsvd_method_name(TrsvdMethod method) {
  switch (method) {
    case TrsvdMethod::kLanczos: return "lanczos";
    case TrsvdMethod::kGram: return "gram";
    case TrsvdMethod::kBlockLanczos: return "block";
    case TrsvdMethod::kRandomized: return "rand";
    case TrsvdMethod::kAuto: return "auto";
  }
  return "?";
}

la::TrsvdResult run_trsvd_backend(la::TrsvdOperator& op, TrsvdMethod method,
                                  std::size_t rank,
                                  const la::TrsvdOptions& options) {
  switch (method) {
    case TrsvdMethod::kLanczos:
      return la::lanczos_trsvd(op, rank, options);
    case TrsvdMethod::kBlockLanczos:
      return la::block_lanczos_trsvd(op, rank, options);
    case TrsvdMethod::kRandomized:
      return la::randomized_trsvd(op, rank, options);
    case TrsvdMethod::kGram:
    case TrsvdMethod::kAuto:
      break;
  }
  HT_CHECK_MSG(false, "run_trsvd_backend needs a resolved matrix-free method");
  return {};
}

FactorTrsvd trsvd_factor(const la::Matrix& y, std::span<const index_t> rows,
                         index_t dim, std::size_t rank, TrsvdMethod method,
                         const la::TrsvdOptions& options) {
  HT_CHECK_MSG(rank >= 1, "rank must be positive");
  HT_CHECK_MSG(rank <= dim, "rank " << rank << " exceeds mode size " << dim);
  HT_CHECK_MSG(y.rows() == rows.size(), "compact row map arity mismatch");

#ifndef NDEBUG
  // Debug-only: HOOI calls this once per mode per iteration with the
  // symbolic row map, which is fixed at symbolic construction; a serial
  // O(|J_n|) scan per call sits needlessly in the per-mode hot path (same
  // bug class as the subset bounds scan ttmc_mode_subset used to pay).
  // Callers own the contract; CI's Debug job keeps the check live.
  for (index_t r : rows) {
    HT_CHECK_MSG(r < dim, "compact row index out of range");
  }
#endif

  // The compact problem can only deliver min(y.rows, y.cols) directions;
  // remaining columns are completed over the empty rows afterwards.
  const std::size_t solvable = std::min({rank, y.rows(), y.cols()});
  const TrsvdMethod resolved =
      resolve_trsvd_method(method, y.rows(), y.cols(), solvable, options);

  la::TrsvdResult solved;
  if (solvable >= 1) {
    if (resolved == TrsvdMethod::kGram) {
      solved = la::gram_trsvd(y, solvable);
    } else {
      la::DenseOperator op(y);
      solved = run_trsvd_backend(op, resolved, solvable, options);
    }
  }
  FactorTrsvd out = scatter_trsvd_solution(solved, solvable, rows, dim, rank);
  out.method_used = resolved;
  return out;
}

FactorTrsvd scatter_trsvd_solution(const la::TrsvdResult& solved,
                                   std::size_t solvable,
                                   std::span<const index_t> rows, index_t dim,
                                   std::size_t rank) {
  FactorTrsvd out;
  out.solver_steps = solved.steps;

  out.sigma.assign(rank, 0.0);
  std::copy(solved.sigma.begin(), solved.sigma.end(), out.sigma.begin());

  // O(|J_n|*R) per mode per HOOI iteration; rows are distinct by the
  // compact-row-map contract, so the scatter is race-free.
  const std::size_t nrows = rows.size();
  [[maybe_unused]] const bool par =
      la::blas_threading() && nrows * rank >= (std::size_t{1} << 14);
  out.factor.resize_zero(dim, rank);
#pragma omp parallel for schedule(static) if (par)
  for (std::size_t r = 0; r < nrows; ++r) {
    for (std::size_t j = 0; j < solvable; ++j) {
      out.factor(rows[r], j) = solved.u(r, j);
    }
  }

  if (solvable < rank || !solved.converged) {
    // Rank-deficient or unconverged compact problem: make sure the factor
    // still has orthonormal columns (HOOI's fit formula depends on it).
    la::orthonormalize_columns(out.factor);
  }

  out.compact_u.resize_zero(nrows, rank);
#pragma omp parallel for schedule(static) if (par)
  for (std::size_t r = 0; r < nrows; ++r) {
    for (std::size_t j = 0; j < rank; ++j) {
      out.compact_u(r, j) = out.factor(rows[r], j);
    }
  }
  return out;
}

}  // namespace ht::core
