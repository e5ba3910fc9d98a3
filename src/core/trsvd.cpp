#include "core/trsvd.hpp"

#include <algorithm>
#include <array>

#include "la/blas.hpp"
#include "la/block_ops.hpp"
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
  if (name == "rand" || name == "randomized") return TrsvdMethod::kRandomized;
  if (name == "auto") return TrsvdMethod::kAuto;
  return std::nullopt;
}

const char* trsvd_method_name(TrsvdMethod method) {
  switch (method) {
    case TrsvdMethod::kLanczos: return "lanczos";
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
    case TrsvdMethod::kAuto:
      break;
  }
  HT_CHECK_MSG(false, "run_trsvd_backend needs a resolved method");
  return {};
}

void WarmStart::load(const la::Matrix& factor, std::span<const index_t> rows) {
  gather_rows(factor, rows, basis.u);
}

void gather_rows(const la::Matrix& src, std::span<const index_t> rows,
                 la::Matrix& dst) {
  dst.resize(rows.size(), src.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto row = src.row(rows[i]);
    std::copy(row.begin(), row.end(), dst.row(i).begin());
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

}  // namespace ht::core
