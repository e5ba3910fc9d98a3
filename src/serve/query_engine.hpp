// Serving query engine: point scores, top-k recommendation, and batched
// point scores over one immutable ServeModel snapshot, with a bounded LRU
// cache of per-entity core contractions for hot users.
//
// Every query on entity e (default: mode 0, the user mode) factors into
//   slice_e = G contracted with U_e(e, :)     [~prod(R) flops, cacheable]
//   score   = slice_e contracted with the remaining factor rows [~sum R]
// so for a hot user the expensive step is paid once and every subsequent
// point/top-k query is rank-sized work. The cache stores slices as
// shared_ptr<const vector>: a hit can keep using its slice after eviction,
// and cached vs uncached answers are bit-identical because both run the
// same core::reconstruct kernels in the same order.
//
// Thread-safety: the engine is safe for concurrent use. The cache is the
// only mutable state and is guarded by a mutex held for map/list surgery
// only — slice computation and scoring run outside the lock. Every query,
// batched or not, runs in the caller's thread: a server's connection
// threads are its parallelism.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "serve/serve_model.hpp"

namespace ht::serve {

struct QueryOptions {
  /// LRU capacity in entity slices (0 disables caching). A slice is
  /// prod(ranks except entity mode) doubles — 800 B at R=10^3.
  std::size_t cache_entries = 4096;
  /// Mode whose slices are cached (the "user" mode).
  std::size_t entity_mode = 0;
  /// Mode ranked by topk (the "item" mode).
  std::size_t item_mode = 1;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

/// One top-k result entry.
struct Scored {
  index_t item = 0;
  double score = 0.0;
};

class QueryEngine {
 public:
  QueryEngine(std::shared_ptr<const ServeModel> model, QueryOptions options);

  [[nodiscard]] const ServeModel& model() const { return *model_; }
  [[nodiscard]] const std::shared_ptr<const ServeModel>& model_ptr() const {
    return model_;
  }
  [[nodiscard]] const QueryOptions& options() const { return options_; }

  /// Point query at full coordinates (uses the entity cache).
  double score(std::span<const index_t> idx);

  /// Top-k items for an entity. `rest` holds the coordinates of every mode
  /// that is neither the entity nor the item mode, in increasing mode
  /// order (empty for 2-mode models). Results are sorted by score
  /// descending, ties broken by ascending item index — fully deterministic.
  std::vector<Scored> topk(index_t entity, std::size_t k,
                           std::span<const index_t> rest = {});

  /// Batched point queries: score() per row, in order.
  std::vector<double> score_batch(
      const std::vector<std::vector<index_t>>& queries);

  [[nodiscard]] CacheStats cache_stats() const;
  void clear_cache();

 private:
  using SlicePtr = std::shared_ptr<const std::vector<double>>;

  /// Entity slice through the LRU (computes + inserts on miss).
  SlicePtr slice_for(index_t entity);
  /// Assemble full coordinates for topk from (entity, rest) with a
  /// placeholder item index.
  void full_idx(index_t entity, std::span<const index_t> rest,
                std::vector<index_t>& idx) const;

  std::shared_ptr<const ServeModel> model_;
  QueryOptions options_;

  // LRU: most-recent at list front; map points into the list.
  mutable std::mutex mutex_;
  std::list<std::pair<index_t, SlicePtr>> lru_;
  std::unordered_map<index_t,
                     std::list<std::pair<index_t, SlicePtr>>::iterator>
      cache_;
  CacheStats stats_;
};

}  // namespace ht::serve
