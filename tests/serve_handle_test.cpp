// ModelHandle hot swap: epoch/snapshot semantics, validation gates,
// file-watcher reloads, and — the property the whole RCU design exists
// for — concurrent queries during a swap always see a coherent model:
// every answer matches the old model or the new one bit-exactly, never a
// torn mix, and swapping in a bit-identical bundle never changes answers.
// Run under -DHT_SANITIZE=thread in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/hooi.hpp"
#include "core/tucker_model.hpp"
#include "serve/model_handle.hpp"
#include "serve/query_engine.hpp"
#include "serve/serve_model.hpp"
#include "storage/bundle.hpp"
#include "tensor/generators.hpp"
#include "util/error.hpp"

namespace {

using ht::core::TuckerModel;
using ht::serve::ModelHandle;
using ht::serve::QueryEngine;
using ht::serve::QueryOptions;
using ht::serve::ServeModel;
using ht::tensor::CooTensor;
using ht::tensor::index_t;

class TempFile {
 public:
  explicit TempFile(const std::string& suffix) {
    path_ = ::testing::TempDir() + "ht_serve_handle_" + suffix;
  }
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TuckerModel train(unsigned seed, index_t rank) {
  CooTensor x = ht::tensor::random_zipf({24, 18, 10}, 1200,
                                        {0.8, 0.9, 0.5}, seed);
  ht::tensor::plant_low_rank_values(x, 3, 0.1, seed + 1);
  ht::core::HooiOptions options;
  options.ranks = {rank, rank, rank};
  options.max_iterations = 3;
  return TuckerModel::from_hooi(x, ht::core::hooi(x, options));
}

TEST(ModelHandleTest, PublishBumpsEpochAndSwapsSnapshot) {
  ModelHandle handle;
  EXPECT_EQ(handle.snapshot(), nullptr);
  EXPECT_EQ(handle.epoch(), 0u);

  auto first = std::make_shared<const ServeModel>(train(1, 4));
  handle.publish(first);
  EXPECT_EQ(handle.epoch(), 1u);
  EXPECT_EQ(handle.snapshot().get(), first.get());

  auto second = std::make_shared<const ServeModel>(train(2, 4));
  handle.publish(second);
  EXPECT_EQ(handle.epoch(), 2u);
  EXPECT_EQ(handle.snapshot().get(), second.get());

  // The old model stays alive for existing holders (RCU keep-alive).
  EXPECT_GE(first.use_count(), 1);
}

TEST(ModelHandleTest, RejectsOrderChangeOnSwap) {
  TempFile good("good.htb"), bad("bad.htb");
  ht::storage::save_bundle(train(3, 4), good.path());

  // A 2-mode model cannot replace a 3-mode one.
  CooTensor x2 = ht::tensor::random_zipf({20, 15}, 300, {0.8, 0.8}, 5);
  ht::tensor::plant_low_rank_values(x2, 2, 0.1, 6);
  ht::core::HooiOptions options;
  options.ranks = {3, 3};
  options.max_iterations = 2;
  ht::storage::save_bundle(
      TuckerModel::from_hooi(x2, ht::core::hooi(x2, options)), bad.path());

  ModelHandle handle;
  handle.load_and_publish(good.path());
  const auto before = handle.snapshot();
  EXPECT_THROW(handle.load_and_publish(bad.path()), ht::Error);
  // Rejected swap leaves the old model serving, epoch untouched.
  EXPECT_EQ(handle.snapshot().get(), before.get());
  EXPECT_EQ(handle.epoch(), 1u);
}

TEST(ModelHandleTest, WatcherPicksUpReplacedBundle) {
  TempFile file("watched.htb");
  ht::storage::save_bundle(train(7, 4), file.path());

  ModelHandle handle;
  handle.load_and_publish(file.path());
  handle.start_watch(file.path(), /*interval_s=*/0.02);
  EXPECT_EQ(handle.epoch(), 1u);

  // Replace the bundle (save_bundle is atomic tmp+rename, like a trainer
  // exporting a fresh model) and wait for the watcher to notice.
  const TuckerModel retrained = train(8, 5);
  ht::storage::save_bundle(retrained, file.path());
  for (int spin = 0; spin < 500 && handle.epoch() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  handle.stop_watch();
  ASSERT_EQ(handle.epoch(), 2u) << "watcher never reloaded: "
                                << handle.last_error();
  EXPECT_EQ(handle.reloads(), 1u);

  // The published model is the retrained one, served bit-exactly.
  const auto snap = handle.snapshot();
  const std::vector<index_t> idx = {3, 5, 7};
  EXPECT_EQ(snap->score(idx), retrained.reconstruct_at(idx));
}

// An interval outside (0, 1e9] seconds is rejected before any thread
// starts: past about 9.2e9 s the wait's conversion to nanoseconds
// overflowed and the watcher polled without waiting.
TEST(ModelHandleTest, WatchRejectsIntervalsOutsideItsRange) {
  TempFile file("interval.htb");
  ht::storage::save_bundle(train(7, 4), file.path());
  ModelHandle handle;
  handle.load_and_publish(file.path());
  for (const double interval : {0.0, -1.0, std::nan(""), 1e10}) {
    EXPECT_THROW(handle.start_watch(file.path(), interval),
                 ht::InvalidArgument)
        << interval;
    EXPECT_FALSE(handle.watching()) << interval;
  }
  EXPECT_LE(ht::serve::kMaxWatchIntervalSeconds, 9.2e9);
  handle.start_watch(file.path(), ht::serve::kMaxWatchIntervalSeconds);
  EXPECT_TRUE(handle.watching());
  handle.stop_watch();
  EXPECT_FALSE(handle.watching());
}

TEST(ModelHandleTest, WatcherSurvivesBadBundleAndKeepsServing) {
  TempFile file("corrupt.htb");
  const TuckerModel good = train(9, 4);
  ht::storage::save_bundle(good, file.path());

  ModelHandle handle;
  handle.load_and_publish(file.path());
  handle.start_watch(file.path(), /*interval_s=*/0.02, /*verify=*/true);

  {  // Clobber the bundle with garbage: reload must fail, old model stays.
    // Replace via tmp + rename like a real writer — the live model is a
    // zero-copy view of the OLD inode, which rename leaves intact
    // (truncating the file in place would rip the mapping out from under
    // the served model; the bundle contract is atomic replacement).
    const std::string tmp = file.path() + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    std::fputs("this is not a bundle", f);
    std::fclose(f);
    ASSERT_EQ(std::rename(tmp.c_str(), file.path().c_str()), 0);
  }
  for (int spin = 0; spin < 500 && handle.last_error().empty(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(handle.last_error().empty());
  EXPECT_EQ(handle.epoch(), 1u);
  const std::vector<index_t> idx = {1, 2, 3};
  EXPECT_EQ(handle.snapshot()->score(idx), good.reconstruct_at(idx));

  // A valid replacement after the bad one still gets picked up.
  const TuckerModel fixed = train(10, 4);
  ht::storage::save_bundle(fixed, file.path());
  for (int spin = 0; spin < 500 && handle.epoch() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  handle.stop_watch();
  ASSERT_EQ(handle.epoch(), 2u);
  EXPECT_EQ(handle.snapshot()->score(idx), fixed.reconstruct_at(idx));
}

// The core concurrency property: swap under load never tears a model.
// Reader threads hammer point queries while the main thread publishes
// alternating models; every observed answer must equal what model A or
// model B produces at those coordinates — bitwise — and an engine built on
// one snapshot must stay internally consistent for its lifetime.
TEST(ModelHandleTest, HotSwapUnderLoadNeverTearsAModel) {
  const TuckerModel model_a = train(11, 4);
  const TuckerModel model_b = train(12, 4);
  const auto serve_a = std::make_shared<const ServeModel>(model_a);
  const auto serve_b = std::make_shared<const ServeModel>(model_b);

  ModelHandle handle;
  handle.publish(serve_a);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checked{0};
  std::atomic<bool> torn{false};

  const std::size_t readers = 4;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t s = t * 7919 + 1;
      QueryOptions opts;
      opts.cache_entries = 16;
      while (!stop.load(std::memory_order_relaxed)) {
        // Each iteration: grab a snapshot, serve a few queries through a
        // fresh engine on it (the dispatcher pattern), check coherence.
        auto snap = handle.snapshot();
        QueryEngine engine(snap, opts);
        for (int q = 0; q < 16; ++q) {
          std::vector<index_t> idx(3);
          s = s * 6364136223846793005ull + 1442695040888963407ull;
          idx[0] = static_cast<index_t>((s >> 33) % 24);
          idx[1] = static_cast<index_t>((s >> 21) % 18);
          idx[2] = static_cast<index_t>((s >> 40) % 10);
          const double got = engine.score(idx);
          const double want_a = model_a.reconstruct_at(idx);
          const double want_b = model_b.reconstruct_at(idx);
          const double want = snap.get() == serve_a.get() ? want_a : want_b;
          if (got != want) torn.store(true, std::memory_order_relaxed);
          checked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Swap back and forth while the readers run.
  for (int swap = 0; swap < 50; ++swap) {
    handle.publish(swap % 2 == 0 ? serve_b : serve_a);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (auto& th : threads) th.join();

  EXPECT_FALSE(torn.load()) << "a query saw a mix of two models";
  EXPECT_GT(checked.load(), 1000u);
  EXPECT_EQ(handle.epoch(), 51u);
}

TEST(ModelHandleTest, SwappingIdenticalBundleIsBitExact) {
  TempFile file("identical.htb");
  const TuckerModel model = train(13, 4);
  ht::storage::save_bundle(model, file.path());

  ModelHandle handle;
  handle.load_and_publish(file.path());
  std::vector<std::vector<index_t>> probes;
  for (index_t i = 0; i < 20; ++i) {
    probes.push_back({static_cast<index_t>(i % 24),
                      static_cast<index_t>((i * 7) % 18),
                      static_cast<index_t>((i * 3) % 10)});
  }
  std::vector<double> before;
  for (const auto& idx : probes) {
    before.push_back(handle.snapshot()->score(idx));
  }

  // Re-publish the same file several times; answers never move by a bit.
  for (int swap = 0; swap < 3; ++swap) {
    handle.load_and_publish(file.path());
    for (std::size_t p = 0; p < probes.size(); ++p) {
      EXPECT_EQ(handle.snapshot()->score(probes[p]), before[p]);
    }
  }
  EXPECT_EQ(handle.epoch(), 4u);
}

}  // namespace
