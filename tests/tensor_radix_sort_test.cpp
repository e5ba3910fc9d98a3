// lexicographic_order edge cases: empty input, single key, already-sorted
// input, stability, and — the regression that motivated the 16-bit digit
// path — keys spanning the full index_t range, which must not drive a
// counter allocation proportional to the key magnitude (~32 GB for u32);
// and the parallel passes' thread-count determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "parallel/thread_info.hpp"
#include "tensor/radix_sort.hpp"
#include "tensor/types.hpp"
#include "util/random.hpp"

namespace {

using ht::tensor::index_t;
using ht::tensor::lexicographic_order;
using ht::tensor::nnz_t;

std::vector<nnz_t> reference_order(
    const std::vector<std::vector<index_t>>& keys) {
  const std::size_t n = keys.empty() ? 0 : keys[0].size();
  std::vector<nnz_t> order(n);
  std::iota(order.begin(), order.end(), nnz_t{0});
  std::stable_sort(order.begin(), order.end(), [&](nnz_t a, nnz_t b) {
    for (const auto& key : keys) {
      if (key[a] != key[b]) return key[a] < key[b];
    }
    return false;  // stable_sort keeps original order for ties
  });
  return order;
}

std::vector<nnz_t> run(const std::vector<std::vector<index_t>>& keys,
                       std::size_t entries) {
  std::vector<std::span<const index_t>> spans;
  for (const auto& key : keys) spans.emplace_back(key.data(), key.size());
  return lexicographic_order(entries, spans);
}

TEST(RadixSortTest, EmptyInput) {
  const std::vector<std::vector<index_t>> keys{{}, {}};
  EXPECT_TRUE(run(keys, 0).empty());
}

TEST(RadixSortTest, NoKeysIsIdentity) {
  const auto order = run({}, 4);
  EXPECT_EQ(order, (std::vector<nnz_t>{0, 1, 2, 3}));
}

TEST(RadixSortTest, SingleEntry) {
  const std::vector<std::vector<index_t>> keys{{5}};
  EXPECT_EQ(run(keys, 1), (std::vector<nnz_t>{0}));
}

TEST(RadixSortTest, SingleKey) {
  const std::vector<std::vector<index_t>> keys{{3, 1, 4, 1, 5, 9, 2, 6}};
  EXPECT_EQ(run(keys, keys[0].size()), reference_order(keys));
}

TEST(RadixSortTest, AlreadySortedStaysIdentity) {
  const std::vector<std::vector<index_t>> keys{{0, 1, 1, 2, 7},
                                               {0, 0, 1, 0, 3}};
  const auto order = run(keys, 5);
  EXPECT_EQ(order, (std::vector<nnz_t>{0, 1, 2, 3, 4}));
}

TEST(RadixSortTest, StableOnEqualKeys) {
  // All keys equal: the order must be the original ordinal order (the
  // determinism the CSF build relies on for tie-breaking).
  const std::vector<std::vector<index_t>> keys{{7, 7, 7, 7}, {2, 2, 2, 2}};
  EXPECT_EQ(run(keys, 4), (std::vector<nnz_t>{0, 1, 2, 3}));
}

TEST(RadixSortTest, MultiKeyLexicographic) {
  const std::vector<std::vector<index_t>> keys{{1, 0, 1, 0, 2, 1},
                                               {5, 3, 0, 3, 1, 5},
                                               {2, 9, 4, 8, 0, 1}};
  EXPECT_EQ(run(keys, 6), reference_order(keys));
}

TEST(RadixSortTest, MaxWidthKeysSortWithoutHugeAllocation) {
  // Keys at and around max(index_t). Before the digit decomposition this
  // allocated a (max_key + 2)-entry counter — tens of gigabytes — and
  // aborted; now it must complete with 64Ki-bucket passes and sort
  // correctly.
  constexpr index_t kMax = std::numeric_limits<index_t>::max();
  const std::vector<std::vector<index_t>> keys{
      {kMax, 0, kMax - 1, 65536, 65535, kMax, 1}};
  EXPECT_EQ(run(keys, keys[0].size()), reference_order(keys));
}

TEST(RadixSortTest, MixedWideAndNarrowKeys) {
  constexpr index_t kMax = std::numeric_limits<index_t>::max();
  // First key wide (digit path), second narrow (direct path): the stable
  // passes must compose exactly as the comparator reference does.
  const std::vector<std::vector<index_t>> keys{
      {kMax, 3, kMax, 3, 70000, 70000},
      {1, 2, 0, 1, 9, 3}};
  EXPECT_EQ(run(keys, 6), reference_order(keys));
}

TEST(RadixSortTest, WideKeyStability) {
  constexpr index_t kBig = index_t{1} << 20;
  const std::vector<std::vector<index_t>> keys{{kBig, kBig, kBig, 0, 0}};
  // Equal wide keys keep ordinal order across the multi-digit passes.
  EXPECT_EQ(run(keys, 5), (std::vector<nnz_t>{3, 4, 0, 1, 2}));
}

TEST(RadixSortTest, ParallelSortIsBitwiseDeterministic) {
  // Above the parallel grain (1 << 15 entries) the chunked histogram path
  // engages; its chunk-major prefix merge must reproduce the serial
  // permutation exactly for any thread count. The first key takes the
  // direct pass with heavy ties, the second the 16-bit digit passes.
  const std::size_t n = (std::size_t{1} << 16) + 333;
  ht::Rng rng(103);
  std::vector<std::vector<index_t>> keys(2, std::vector<index_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    keys[0][i] = static_cast<index_t>(rng.uniform() * 7.0);
    keys[1][i] = static_cast<index_t>(rng.uniform() * 4e9);
  }
  std::vector<nnz_t> serial, parallel;
  {
    ht::parallel::ThreadScope threads(1);
    serial = run(keys, n);
  }
  {
    ht::parallel::ThreadScope threads(4);
    parallel = run(keys, n);
  }
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, reference_order(keys));
}

}  // namespace
