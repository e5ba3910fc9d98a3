#include "core/trsvd.hpp"

#include <algorithm>
#include <array>

#include "la/blas.hpp"
#include "la/block_ops.hpp"
#include "la/linear_operator.hpp"
#include "la/qr.hpp"
#include "la/randomized_trsvd.hpp"
#include "util/error.hpp"

namespace ht::core {

TrsvdMethod resolve_trsvd_method(TrsvdMethod method) {
  return method == TrsvdMethod::kAuto ? TrsvdMethod::kLanczos : method;
}

bool warm_trsvd_applies(TrsvdMethod method, std::size_t rows,
                        std::size_t cols, std::size_t rank) {
  return method == TrsvdMethod::kAuto && rows * cols >= kWarmMinEntries &&
         rank >= 1 && rank <= std::min(rows, cols);
}

std::optional<TrsvdMethod> parse_trsvd_method(std::string_view name) {
  if (name == "lanczos") return TrsvdMethod::kLanczos;
  if (name == "gram") return TrsvdMethod::kGram;
  if (name == "rand" || name == "randomized") return TrsvdMethod::kRandomized;
  if (name == "auto") return TrsvdMethod::kAuto;
  return std::nullopt;
}

const char* trsvd_method_name(TrsvdMethod method) {
  switch (method) {
    case TrsvdMethod::kLanczos: return "lanczos";
    case TrsvdMethod::kGram: return "gram";
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
    case TrsvdMethod::kRandomized:
      return la::randomized_trsvd(op, rank, options);
    case TrsvdMethod::kGram:
    case TrsvdMethod::kAuto:
      break;
  }
  HT_CHECK_MSG(false, "run_trsvd_backend needs a resolved matrix-free method");
  return {};
}

void WarmStart::load(const la::Matrix& factor, std::span<const index_t> rows) {
  la::Matrix& w = basis.u;
  w.resize(rows.size(), factor.cols());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto src = factor.row(rows[r]);
    std::copy(src.begin(), src.end(), w.row(r).begin());
  }
}

namespace {

// Whether power steps whose starts captured energies e0 <= e1 <= e2 have
// settled. The increments of a power iteration shrink geometrically, by
// about q = d2 / d1 per step, so about d2 q / (1 - q) is still to come.
// An increment below 1e-12 of the energy is rounding: the steps have
// converged, whatever its ratio to the one before.
bool warm_energy_settled(double e0, double e1, double e2) {
  const double d1 = e1 - e0;
  const double d2 = e2 - e1;
  if (d2 <= 1e-12 * e2) return true;
  if (d2 >= d1) return false;
  const double q = d2 / d1;
  return d2 * q / (1.0 - q) <= kWarmEnergyTol * e2;
}

}  // namespace

bool warm_trsvd(la::TrsvdOperator& op, WarmStart& warm,
                const la::TrsvdOptions& options) {
  static_assert(kWarmSteps >= 3, "the energy check reads three steps");
  la::Matrix& w = warm.basis.u;
  const std::size_t rank = w.cols();
  HT_CHECK_MSG(w.rows() == op.row_local_size(),
               "warm start has " << w.rows() << " rows, the operator "
                                 << op.row_local_size());
  std::array<double, kWarmSteps> energy{};
  std::size_t kept = rank;
  for (std::size_t step = 0; step < kWarmSteps; ++step) {
    op.apply_transpose_block(w, warm.z);
    energy[step] = la::dot(warm.z.flat(), warm.z.flat());
    op.apply_block(warm.z, w);
    kept = la::orthonormalize_rowspace_block(op, w, warm.scratch);
  }
  if (kept == rank &&
      warm_energy_settled(energy[kWarmSteps - 3], energy[kWarmSteps - 2],
                          energy[kWarmSteps - 1])) {
    warm.basis.sigma.clear();
    warm.basis.steps = kWarmSteps;
    warm.basis.converged = true;
    warm.basis.operator_applies = 2 * kWarmSteps * rank;
    return true;
  }
  warm.basis = run_trsvd_backend(op, TrsvdMethod::kLanczos, rank, options);
  return false;
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
  const TrsvdMethod resolved = resolve_trsvd_method(method);

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
