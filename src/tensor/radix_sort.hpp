// Stable lexicographic ordering of entry ordinals by coordinate keys.
//
// One stable LSD counting-sort pass per key: O(keys * (entries + max_key))
// with streaming sweeps, instead of a comparison sort whose K-way
// coordinate comparator does O(entries log entries) random reads. Keys
// whose maximum exceeds 16 bits are decomposed into stable 16-bit digit
// passes, bounding the histogram at 64Ki buckets — the counter allocation
// never scales with the key magnitude, only the pass count does (at most
// two passes for 32-bit indices). Shared by the CSF tree builder, the ALTO
// linearized-key build, and the MET baseline's TTM chain — all sort
// millions of nonzeros by small-domain digits, exactly the shape counting
// sort is built for.
//
// Parallelism: above a size threshold each histogram+scatter pass runs
// over OpenMP with per-chunk bucket counts merged by a bucket-major,
// chunk-minor exclusive prefix. Each chunk then scatters into disjoint,
// precomputed destination ranges, so the parallel pass produces the exact
// output of the sequential stable pass for any thread or chunk count.
//
// Determinism: every pass is stable and the sort starts from ordinal
// order, so entry ordinal is the final tie-break — the returned
// permutation is a pure function of the keys, independent of thread count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/types.hpp"

namespace ht::tensor {

/// Permutation of [0, entries) ordering entries lexicographically by the
/// given coordinate keys, most-significant first, ties by ordinal. Every
/// key span must have length `entries`; with no keys the identity
/// permutation comes back (all entries tie).
std::vector<nnz_t> lexicographic_order(
    std::size_t entries, std::span<const std::span<const index_t>> keys);

/// Permutation of [0, key_lo.size()) ordering entries by an up-to-128-bit
/// key ascending, ties by ordinal. `key_hi` holds the high 64 bits and may
/// be empty (pure 64-bit keys); otherwise it must match `key_lo`'s length.
/// This is the ALTO linearized-key sort: stable LSD over 16-bit digits,
/// with all-zero digit positions skipped, parallel like the passes above.
std::vector<nnz_t> linearized_order(std::span<const std::uint64_t> key_lo,
                                    std::span<const std::uint64_t> key_hi);

}  // namespace ht::tensor
