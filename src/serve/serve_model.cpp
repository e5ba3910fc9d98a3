#include "serve/serve_model.hpp"

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
  for (std::size_t n = 0; n < d.factors.size(); ++n) {
    HT_CHECK_MSG(d.factors[n].rows() == model_.dims[n],
                 "factor " << n << " has " << d.factors[n].rows()
                           << " rows, dims say " << model_.dims[n]);
    HT_CHECK_MSG(d.factors[n].cols() == d.core.shape()[n],
                 "factor " << n << " rank " << d.factors[n].cols()
                           << " != core dim " << d.core.shape()[n]);
  }
  ranks_ = d.core.shape();
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
  return false;
}

double ServeModel::score(std::span<const index_t> idx,
                         core::ReconstructWorkspace& ws) const {
  return core::reconstruct_at(model_.decomposition.core,
                              model_.decomposition.factors, idx, ws);
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
  core::contract_unfolding(model_.decomposition.core.flat(),
                           model_.decomposition.factors[0].row(i), out);
}

double ServeModel::score_from_slice(std::span<const double> slice,
                                    std::span<const index_t> idx,
                                    core::ReconstructWorkspace& ws) const {
  return core::score_slice(slice, ranks_, 0, model_.decomposition.factors,
                           idx, ws);
}

void ServeModel::mode_vector_from_slice(std::span<const double> slice,
                                        std::size_t target,
                                        std::span<const index_t> idx,
                                        core::ReconstructWorkspace& ws,
                                        std::span<double> out) const {
  core::slice_mode_vector(slice, ranks_, 0, target,
                          model_.decomposition.factors, idx, ws, out);
}

}  // namespace ht::serve
