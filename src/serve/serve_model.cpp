#include "serve/serve_model.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ht::serve {

ServeModel::ServeModel(core::TuckerModel model) : model_(std::move(model)) {
  const auto& d = model_.decomposition;
  HT_CHECK_MSG(!d.factors.empty(), "serve model has no factors");
  HT_CHECK_MSG(d.core.order() == d.factors.size(),
               "core order " << d.core.order() << " != " << d.factors.size()
                             << " factors");
  HT_CHECK_MSG(model_.dims.size() == d.factors.size(),
               "dims/order mismatch in serve model");
  HT_CHECK_MSG(d.rows.empty() || d.rows.size() == d.factors.size(),
               "serve model has " << d.rows.size() << " row lists for "
                                  << d.factors.size() << " factors");
  for (std::size_t n = 0; n < d.factors.size(); ++n) {
    const std::span<const index_t> ids = d.row_ids(n);
    const std::size_t kept = ids.empty() ? model_.dims[n] : ids.size();
    HT_CHECK_MSG(d.factors[n].rows() == kept,
                 "factor " << n << " has " << d.factors[n].rows()
                           << " rows, the model keeps " << kept);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      HT_CHECK_MSG((k == 0 || ids[k - 1] < ids[k]) && ids[k] < model_.dims[n],
                   "row list of mode " << n << " is not sorted inside "
                                       << model_.dims[n] << " rows");
    }
    HT_CHECK_MSG(d.factors[n].cols() == d.core.shape()[n],
                 "factor " << n << " rank " << d.factors[n].cols()
                           << " != core dim " << d.core.shape()[n]);
  }
  ranks_ = d.core.shape();
  zero_row_.assign(*std::max_element(ranks_.begin(), ranks_.end()), 0.0);
}

std::shared_ptr<const ServeModel> ServeModel::load(const std::string& path,
                                                   bool verify) {
  if (verify) {
    storage::BundleReader reader(path, storage::LoadMode::kMap);
    reader.verify_all();
  }
  return std::make_shared<const ServeModel>(
      storage::load_bundle(path, storage::LoadMode::kMap));
}

bool ServeModel::is_view() const {
  const auto& d = model_.decomposition;
  if (d.core.is_view()) return true;
  for (const auto& f : d.factors) {
    if (f.is_view()) return true;
  }
  for (const auto& ids : d.rows) {
    if (ids.is_view()) return true;
  }
  return false;
}

void ServeModel::resolve_rows(std::span<const index_t> idx, std::size_t first,
                              core::ReconstructWorkspace& ws) const {
  HT_CHECK(idx.size() == order());
  ws.rows.resize(order());
  for (std::size_t n = 0; n < order(); ++n) {
    ws.rows[n] = n < first ? std::span<const double>{} : factor_row(n, idx[n]);
  }
}

double ServeModel::score(std::span<const index_t> idx,
                         core::ReconstructWorkspace& ws) const {
  resolve_rows(idx, 0, ws);
  return core::reconstruct_at(model_.decomposition.core, ws.rows, ws);
}

double ServeModel::score(std::span<const index_t> idx) const {
  return score(idx, core::ReconstructWorkspace::tls());
}

std::size_t ServeModel::slice_size() const {
  return core::slice_size(ranks_, 0);
}

void ServeModel::entity_slice(index_t i, std::span<double> out) const {
  HT_CHECK_MSG(i < model_.dims[0], "entity index " << i << " out of range");
  // The mode-0 unfolding of the core is its flat buffer.
  core::contract_unfolding(model_.decomposition.core.flat(), factor_row(0, i),
                           out);
}

double ServeModel::score_from_slice(std::span<const double> slice,
                                    std::span<const index_t> idx,
                                    core::ReconstructWorkspace& ws) const {
  resolve_rows(idx, 1, ws);
  return core::score_slice(slice, ranks_, 0, ws.rows, ws);
}

void ServeModel::mode_vector_from_slice(std::span<const double> slice,
                                        std::size_t target,
                                        std::span<const index_t> idx,
                                        core::ReconstructWorkspace& ws,
                                        std::span<double> out) const {
  resolve_rows(idx, 1, ws);
  core::slice_mode_vector(slice, ranks_, 0, target, ws.rows, ws, out);
}

}  // namespace ht::serve
