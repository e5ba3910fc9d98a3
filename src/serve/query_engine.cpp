#include "serve/query_engine.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ht::serve {

QueryEngine::QueryEngine(std::shared_ptr<const ServeModel> model,
                         QueryOptions options)
    : model_(std::move(model)), options_(options) {
  HT_CHECK_MSG(model_ != nullptr, "QueryEngine needs a model");
  const std::size_t order = model_->order();
  HT_CHECK_MSG(options_.entity_mode < order,
               "entity mode " << options_.entity_mode << " out of range");
  HT_CHECK_MSG(options_.item_mode < order &&
                   options_.item_mode != options_.entity_mode,
               "item mode " << options_.item_mode << " invalid");
}

QueryEngine::SlicePtr QueryEngine::slice_for(index_t entity) {
  if (options_.cache_entries == 0) {
    auto slice = std::make_shared<std::vector<double>>(
        model_->slice_size(options_.entity_mode));
    model_->entity_slice(options_.entity_mode, entity, *slice);
    return slice;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(entity);
    if (it != cache_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // touch
      ++stats_.hits;
      return it->second->second;
    }
    ++stats_.misses;
  }
  // Compute outside the lock; a concurrent miss on the same entity does
  // redundant work but both slices are bit-identical, so either may win.
  auto slice = std::make_shared<std::vector<double>>(
      model_->slice_size(options_.entity_mode));
  model_->entity_slice(options_.entity_mode, entity, *slice);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = cache_.find(entity);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  lru_.emplace_front(entity, slice);
  cache_[entity] = lru_.begin();
  while (cache_.size() > options_.cache_entries) {
    cache_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return slice;
}

double QueryEngine::score(std::span<const index_t> idx) {
  HT_CHECK(idx.size() == model_->order());
  const SlicePtr slice = slice_for(idx[options_.entity_mode]);
  return model_->score_from_slice(options_.entity_mode, *slice, idx,
                                  core::ReconstructWorkspace::tls());
}

void QueryEngine::full_idx(index_t entity, std::span<const index_t> rest,
                           std::vector<index_t>& idx) const {
  const std::size_t order = model_->order();
  HT_CHECK_MSG(rest.size() == order - 2,
               "topk needs " << order - 2 << " fixed coordinates, got "
                             << rest.size());
  idx.assign(order, 0);
  idx[options_.entity_mode] = entity;
  std::size_t r = 0;
  for (std::size_t n = 0; n < order; ++n) {
    if (n == options_.entity_mode || n == options_.item_mode) continue;
    idx[n] = rest[r++];
  }
}

std::vector<Scored> QueryEngine::topk(index_t entity, std::size_t k,
                                      std::span<const index_t> rest) {
  core::ReconstructWorkspace& ws = core::ReconstructWorkspace::tls();
  const std::size_t item_mode = options_.item_mode;
  const index_t items = model_->dims()[item_mode];
  const std::size_t rank = model_->ranks()[item_mode];
  std::vector<index_t> idx;
  full_idx(entity, rest, idx);

  const SlicePtr slice = slice_for(entity);
  if (ws.vec.size() < rank) ws.vec.resize(rank);
  std::span<double> v{ws.vec.data(), rank};
  model_->mode_vector_from_slice(options_.entity_mode, *slice, item_mode, idx,
                                 ws, v);

  // Score every item (a tall gemv over the item factor), then select.
  std::vector<Scored> scored(items);
  for (index_t i = 0; i < items; ++i) {
    const auto row = model_->factor_row(item_mode, i);
    double acc = 0.0;
    for (std::size_t r = 0; r < rank; ++r) acc += row[r] * v[r];
    scored[i] = {i, acc};
  }
  const std::size_t kk = std::min<std::size_t>(k, items);
  const auto better = [](const Scored& a, const Scored& b) {
    return a.score > b.score || (a.score == b.score && a.item < b.item);
  };
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<std::ptrdiff_t>(kk),
                    scored.end(), better);
  scored.resize(kk);
  return scored;
}

std::vector<double> QueryEngine::score_batch(
    const std::vector<std::vector<index_t>>& queries) {
  std::vector<double> out(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) out[q] = score(queries[q]);
  return out;
}

CacheStats QueryEngine::cache_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void QueryEngine::clear_cache() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  cache_.clear();
  stats_ = {};
}

}  // namespace ht::serve
