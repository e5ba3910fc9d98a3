// QueryEngine: cache-transparent bit-exactness (cached == uncached ==
// train-time), LRU eviction bookkeeping, batched endpoints identical to
// their sequential loops to 0 ULP, and deterministic top-k against a
// brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "core/hooi.hpp"
#include "core/tucker_model.hpp"
#include "serve/query_engine.hpp"
#include "serve/serve_model.hpp"
#include "tensor/generators.hpp"

namespace {

using ht::core::TuckerModel;
using ht::serve::QueryEngine;
using ht::serve::QueryOptions;
using ht::serve::Scored;
using ht::serve::ServeModel;
using ht::tensor::CooTensor;
using ht::tensor::index_t;

std::shared_ptr<const ServeModel> shared_model() {
  static const std::shared_ptr<const ServeModel> model = [] {
    CooTensor x = ht::tensor::random_zipf({40, 25, 12}, 2000,
                                          {0.9, 0.8, 0.5}, 17);
    ht::tensor::plant_low_rank_values(x, 3, 0.1, 18);
    ht::core::HooiOptions options;
    options.ranks = {6, 5, 3};
    options.max_iterations = 3;
    return std::make_shared<const ServeModel>(
        TuckerModel::from_hooi(x, ht::core::hooi(x, options)));
  }();
  return model;
}

std::vector<std::vector<index_t>> random_queries(std::size_t count,
                                                 unsigned seed) {
  const auto& dims = shared_model()->dims();
  std::vector<std::vector<index_t>> queries;
  std::uint64_t s = seed * 2654435761u + 99;
  for (std::size_t q = 0; q < count; ++q) {
    std::vector<index_t> idx(dims.size());
    for (std::size_t n = 0; n < dims.size(); ++n) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      idx[n] = static_cast<index_t>((s >> 33) % dims[n]);
    }
    queries.push_back(std::move(idx));
  }
  return queries;
}

TEST(QueryEngineTest, CachedEqualsUncachedBitExact) {
  QueryOptions cached_opts;
  cached_opts.cache_entries = 64;
  QueryOptions uncached_opts;
  uncached_opts.cache_entries = 0;
  QueryEngine cached(shared_model(), cached_opts);
  QueryEngine uncached(shared_model(), uncached_opts);

  const auto queries = random_queries(500, 1);
  for (const auto& idx : queries) {
    const double a = cached.score(idx);
    const double b = uncached.score(idx);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, shared_model()->model().reconstruct_at(idx));
  }
  const auto cs = cached.cache_stats();
  EXPECT_GT(cs.hits, 0u) << "500 queries over 40 users must repeat users";
  const auto us = uncached.cache_stats();
  EXPECT_EQ(us.hits, 0u);
  EXPECT_EQ(us.misses, 0u) << "disabled cache should not track stats";
}

TEST(QueryEngineTest, LruEvictsLeastRecentlyUsed) {
  QueryOptions opts;
  opts.cache_entries = 4;
  QueryEngine engine(shared_model(), opts);

  auto touch = [&](index_t user) {
    engine.score(std::vector<index_t>{user, 0, 0});
  };
  // Fill: 0 1 2 3 -> all misses, no eviction.
  for (index_t u = 0; u < 4; ++u) touch(u);
  auto cs = engine.cache_stats();
  EXPECT_EQ(cs.misses, 4u);
  EXPECT_EQ(cs.hits, 0u);
  EXPECT_EQ(cs.evictions, 0u);

  // Re-touch 0 (hit, moves to front), then add 4: evicts 1 (LRU), not 0.
  touch(0);
  touch(4);
  cs = engine.cache_stats();
  EXPECT_EQ(cs.hits, 1u);
  EXPECT_EQ(cs.misses, 5u);
  EXPECT_EQ(cs.evictions, 1u);

  // 0 still cached (hit); 1 was evicted (miss, evicting 2 in turn).
  touch(0);
  touch(1);
  cs = engine.cache_stats();
  EXPECT_EQ(cs.hits, 2u);
  EXPECT_EQ(cs.misses, 6u);
  EXPECT_EQ(cs.evictions, 2u);

  // Capacity never exceeded: total distinct entries alive = 4.
  // (5 users touched, 2 evictions, 4 slots: 5 - 2 + 1 re-insert = 4.)
  engine.clear_cache();
  cs = engine.cache_stats();
  EXPECT_EQ(cs.hits, 0u);
  EXPECT_EQ(cs.misses, 0u);
  EXPECT_EQ(cs.evictions, 0u);
}

TEST(QueryEngineTest, ScoreBatchMatchesSequentialZeroUlp) {
  QueryOptions opts;
  opts.cache_entries = 32;
  QueryEngine engine(shared_model(), opts);
  QueryEngine sequential(shared_model(), opts);

  const auto queries = random_queries(400, 2);
  const auto batched = engine.score_batch(queries);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const double seq = sequential.score(queries[q]);
    // Bitwise comparison — 0 ULP, not a tolerance.
    EXPECT_EQ(std::memcmp(&batched[q], &seq, sizeof(double)), 0)
        << "query " << q << ": " << batched[q] << " vs " << seq;
  }
}

TEST(QueryEngineTest, TopkMatchesBruteForceOracle) {
  QueryOptions opts;
  QueryEngine engine(shared_model(), opts);
  const auto& dims = shared_model()->dims();
  const std::size_t k = 7;

  for (index_t user = 0; user < 10; ++user) {
    const std::vector<index_t> rest = {static_cast<index_t>(user % dims[2])};
    const auto top = engine.topk(user, k, rest);
    ASSERT_EQ(top.size(), k);

    // Oracle: score every item via the point API, sort the same way.
    std::vector<Scored> oracle;
    for (index_t item = 0; item < dims[1]; ++item) {
      const std::vector<index_t> idx = {user, item, rest[0]};
      oracle.push_back({item, engine.score(idx)});
    }
    std::sort(oracle.begin(), oracle.end(), [](const Scored& a,
                                               const Scored& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.item < b.item;
    });
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(top[i].item, oracle[i].item) << "user " << user << " pos " << i;
      EXPECT_EQ(top[i].score, oracle[i].score)
          << "top-k score must be bit-identical to the point score";
    }
  }
}

TEST(QueryEngineTest, TopkClampsKToItemCount) {
  QueryEngine engine(shared_model(), QueryOptions{});
  const auto top = engine.topk(0, 10000, std::vector<index_t>{0});
  EXPECT_EQ(top.size(), shared_model()->dims()[1]);
}

}  // namespace
