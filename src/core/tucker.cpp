#include "core/tucker.hpp"

#include <algorithm>
#include <cmath>

#include "core/reconstruct.hpp"
#include "util/error.hpp"

namespace ht::core {

std::vector<index_t> TuckerDecomposition::ranks() const {
  std::vector<index_t> r;
  r.reserve(factors.size());
  for (const auto& f : factors) r.push_back(static_cast<index_t>(f.cols()));
  return r;
}

std::span<const double> TuckerDecomposition::factor_row(
    std::size_t mode, index_t i, std::span<const double> zero) const {
  const la::Matrix& f = factors[mode];
  const std::span<const index_t> ids = row_ids(mode);
  if (ids.empty()) return i < f.rows() ? f.row(i) : zero.first(f.cols());
  const auto it = std::lower_bound(ids.begin(), ids.end(), i);
  return it != ids.end() && *it == i
             ? f.row(static_cast<std::size_t>(it - ids.begin()))
             : zero.first(f.cols());
}

la::Matrix TuckerDecomposition::dense_factor(std::size_t mode,
                                             index_t dim) const {
  const la::Matrix& f = factors[mode];
  const std::span<const index_t> ids = row_ids(mode);
  if (ids.empty()) {
    HT_CHECK_MSG(f.rows() == dim, "factor " << mode << " has " << f.rows()
                                            << " rows, mode size is " << dim);
    return f;
  }
  HT_CHECK_MSG(ids.back() < dim, "factor " << mode << " keeps row "
                                           << ids.back() << " past " << dim);
  la::Matrix out(dim, f.cols());
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const auto src = f.row(k);
    std::copy(src.begin(), src.end(), out.row(ids[k]).begin());
  }
  return out;
}

double TuckerDecomposition::reconstruct_at(std::span<const index_t> idx) const {
  HT_CHECK(idx.size() == order());
  // Sequential-contraction kernel with thread-local scratch: no per-call
  // allocation (this is the serving hot path), bit-identical to the
  // serve-layer cached/batched paths which share the same kernels.
  ReconstructWorkspace& ws = ReconstructWorkspace::tls();
  const tensor::Shape& ranks = core.shape();
  const std::size_t widest =
      ranks.empty() ? 0 : *std::max_element(ranks.begin(), ranks.end());
  if (ws.zero.size() < widest) ws.zero.resize(widest, 0.0);
  ws.rows.resize(order());
  for (std::size_t n = 0; n < order(); ++n) {
    ws.rows[n] = factor_row(n, idx[n], ws.zero);
  }
  return core::reconstruct_at(core, ws.rows, ws);
}

tensor::DenseTensor TuckerDecomposition::reconstruct_dense() const {
  // Densify through the same contraction kernels the point query uses: one
  // entity slice per mode-0 index (reused across the whole hyperslice,
  // exactly like the serve layer's per-user cache), then score_slice per
  // remaining coordinate (test sizes only).
  HT_CHECK_MSG(std::all_of(rows.begin(), rows.end(),
                           [](const auto& ids) { return ids.empty(); }),
               "reconstruct_dense needs whole factors");
  tensor::Shape shape;
  for (const auto& f : factors) {
    shape.push_back(static_cast<index_t>(f.rows()));
  }
  tensor::DenseTensor x{shape};
  if (shape.empty()) return x;
  ReconstructWorkspace& ws = ReconstructWorkspace::tls();
  const tensor::Shape& ranks = core.shape();
  const std::size_t s = core::slice_size(ranks, 0);
  std::vector<double> slice(s);
  std::vector<index_t> idx(order(), 0);
  std::vector<std::span<const double>> row(order());
  auto flat = x.flat();
  // Odometer, last mode fastest (the flat layout); mode 0 is slowest, so
  // the entity slice is recomputed exactly shape[0] times.
  std::size_t hyperslice = 1;
  for (std::size_t n = 1; n < shape.size(); ++n) hyperslice *= shape[n];
  for (std::size_t off = 0; off < flat.size(); ++off) {
    if (off % hyperslice == 0) {
      core::contract_unfolding(core.flat(), factors[0].row(idx[0]), slice);
    }
    for (std::size_t n = 0; n < order(); ++n) row[n] = factors[n].row(idx[n]);
    flat[off] = core::score_slice(slice, ranks, 0, row, ws);
    for (std::size_t n = order(); n-- > 0;) {
      if (++idx[n] < shape[n]) break;
      idx[n] = 0;
    }
  }
  return x;
}

double fit_from_core_norm(double x_norm2, double core_norm2) {
  HT_CHECK_MSG(x_norm2 > 0, "fit undefined for zero tensor");
  const double resid2 = std::max(0.0, x_norm2 - core_norm2);
  return 1.0 - std::sqrt(resid2) / std::sqrt(x_norm2);
}

double fit_exact(const tensor::CooTensor& x, const TuckerDecomposition& t) {
  HT_CHECK(x.order() == t.order());
  // ||X - Xhat||^2 = sum_{nz} (x - xhat)^2 + (||Xhat||^2 - sum_{nz} xhat^2).
  double resid2 = 0.0;
  double model_on_support2 = 0.0;
  std::vector<index_t> idx(x.order());
  for (tensor::nnz_t e = 0; e < x.nnz(); ++e) {
    for (std::size_t n = 0; n < x.order(); ++n) idx[n] = x.index(n, e);
    const double xhat = t.reconstruct_at(idx);
    const double d = x.value(e) - xhat;
    resid2 += d * d;
    model_on_support2 += xhat * xhat;
  }
  // ||Xhat||^2 == ||G||^2 for orthonormal factors.
  const double core_norm = t.core.frobenius_norm();
  resid2 += std::max(0.0, core_norm * core_norm - model_on_support2);
  const double x_norm2 = x.norm2_squared();
  HT_CHECK_MSG(x_norm2 > 0, "fit undefined for zero tensor");
  return 1.0 - std::sqrt(resid2) / std::sqrt(x_norm2);
}

}  // namespace ht::core
