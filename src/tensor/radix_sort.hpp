// Stable lexicographic ordering of entry ordinals by coordinate keys.
//
// One stable LSD counting-sort pass per key: O(keys * (entries + max_key))
// with streaming sweeps, instead of a comparison sort whose K-way
// coordinate comparator does O(entries log entries) random reads. Keys
// whose maximum exceeds 16 bits are decomposed into stable 16-bit digit
// passes, bounding the histogram at 64Ki buckets — the counter allocation
// never scales with the key magnitude, only the pass count does (at most
// two passes for 32-bit indices). Shared by the CSF tree builder and the
// MET baseline's TTM chain — both sort millions of nonzeros by
// small-domain digits, exactly the shape counting sort is built for.
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

}  // namespace ht::tensor
