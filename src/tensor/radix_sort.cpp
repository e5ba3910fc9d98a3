#include "tensor/radix_sort.hpp"

#include <algorithm>
#include <numeric>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "util/error.hpp"

namespace ht::tensor {

namespace {

// Keys below this get one exact-width counting pass (small histogram, hot
// in cache). At or above it the key is split into 16-bit digits: the
// histogram is then bounded at 64Ki buckets no matter how large the key
// values are — a key near max(index_t) must not drive a ~max_key-entry
// counter allocation (tens of GB for 32-bit indices).
constexpr std::size_t kDirectBucketLimit = std::size_t{1} << 16;

// Entries below this run the sequential pass: the per-chunk histogram
// matrix and the parallel-region overhead only pay off on bulk sorts.
constexpr std::size_t kParallelSortGrain = std::size_t{1} << 15;

// Cap on histogram chunks: the prefix merge walks buckets * chunks
// counters (64Ki * 16 = 1M at the cap — microseconds), and more chunks
// than this add merge cost faster than scatter parallelism.
constexpr std::size_t kMaxSortChunks = 16;

// How many chunks a parallel pass over n entries uses (1 = sequential).
std::size_t pass_chunks(std::size_t n) {
#ifdef _OPENMP
  if (n >= kParallelSortGrain && omp_get_max_threads() > 1) {
    return std::min<std::size_t>(
        {kMaxSortChunks, static_cast<std::size_t>(omp_get_max_threads()),
         n / (kParallelSortGrain / 4)});
  }
#endif
  (void)n;
  return 1;
}

// One stable counting pass over `order` by digit(key[e]); result in `tmp`,
// then swapped into `order`. `buckets` is the digit alphabet size.
//
// Parallel form: `order` is cut into `chunks` contiguous chunks; each
// chunk histograms independently, then a bucket-major chunk-minor
// exclusive prefix assigns every (chunk, bucket) pair its disjoint
// destination range — elements of chunk c with digit b land after all
// elements with smaller digits and after same-digit elements of earlier
// chunks, preserving input order within the chunk. That is exactly the
// stable sequential scatter, so the output is invariant in `chunks`.
template <typename Digit>
void counting_pass(std::vector<nnz_t>& order, std::vector<nnz_t>& tmp,
                   std::vector<nnz_t>& count, std::size_t buckets,
                   std::span<const index_t> key, Digit digit) {
  const std::size_t n = order.size();
  const std::size_t chunks = pass_chunks(n);
  if (chunks <= 1) {
    count.assign(buckets + 1, 0);
    for (nnz_t e : order) ++count[digit(key[e]) + 1];
    for (std::size_t i = 1; i < count.size(); ++i) count[i] += count[i - 1];
    for (nnz_t e : order) tmp[count[digit(key[e])]++] = e;
    order.swap(tmp);
    return;
  }
  const auto chunk_begin = [n, chunks](std::size_t c) {
    return n * c / chunks;
  };
  count.assign(chunks * buckets, 0);
  const auto c_chunks = static_cast<std::ptrdiff_t>(chunks);
#pragma omp parallel for schedule(static, 1)
  for (std::ptrdiff_t c = 0; c < c_chunks; ++c) {
    nnz_t* my = count.data() + static_cast<std::size_t>(c) * buckets;
    const std::size_t end = chunk_begin(static_cast<std::size_t>(c) + 1);
    for (std::size_t s = chunk_begin(static_cast<std::size_t>(c)); s < end;
         ++s) {
      ++my[digit(key[order[s]])];
    }
  }
  nnz_t running = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    for (std::size_t c = 0; c < chunks; ++c) {
      nnz_t& slot = count[c * buckets + b];
      const nnz_t v = slot;
      slot = running;
      running += v;
    }
  }
#pragma omp parallel for schedule(static, 1)
  for (std::ptrdiff_t c = 0; c < c_chunks; ++c) {
    nnz_t* my = count.data() + static_cast<std::size_t>(c) * buckets;
    const std::size_t end = chunk_begin(static_cast<std::size_t>(c) + 1);
    for (std::size_t s = chunk_begin(static_cast<std::size_t>(c)); s < end;
         ++s) {
      const nnz_t e = order[s];
      tmp[my[digit(key[e])]++] = e;
    }
  }
  order.swap(tmp);
}

}  // namespace

std::vector<nnz_t> lexicographic_order(
    std::size_t entries, std::span<const std::span<const index_t>> keys) {
  const std::size_t n_entries = entries;
  std::vector<nnz_t> order(n_entries);
  std::iota(order.begin(), order.end(), nnz_t{0});
  std::vector<nnz_t> tmp(n_entries);
  std::vector<nnz_t> count;
  // LSD: least-significant key first, each pass stable over the previous.
  for (std::size_t k = keys.size(); k-- > 0;) {
    const auto key = keys[k];
    HT_CHECK_MSG(key.size() == n_entries, "key length mismatch");
    index_t max_key = 0;
    for (index_t v : key) max_key = std::max(max_key, v);
    if (static_cast<std::size_t>(max_key) + 1 <= kDirectBucketLimit) {
      counting_pass(order, tmp, count, static_cast<std::size_t>(max_key) + 1,
                    key, [](index_t v) { return static_cast<std::size_t>(v); });
    } else {
      // Wide key: LSD over 16-bit digits of this key (stable passes, so the
      // digit decomposition sorts exactly like the direct pass would).
      // Digits beyond the key's magnitude are all-zero and skipped.
      for (unsigned shift = 0;
           shift < 8 * sizeof(index_t) && (max_key >> shift) != 0;
           shift += 16) {
        counting_pass(order, tmp, count, kDirectBucketLimit, key,
                      [shift](index_t v) {
                        return static_cast<std::size_t>((v >> shift) & 0xFFFF);
                      });
      }
    }
  }
  return order;
}

}  // namespace ht::tensor
