#include "tensor/csf.hpp"

#include <algorithm>
#include <vector>

#include "tensor/radix_sort.hpp"
#include "util/error.hpp"

namespace ht::tensor {

double CsfTree::avg_leaf_fiber_length() const {
  if (levels() < 2 || num_leaves() == 0) return 0.0;
  const std::size_t parents = num_nodes(levels() - 2);
  return parents == 0 ? 0.0
                      : static_cast<double>(num_leaves()) /
                            static_cast<double>(parents);
}

double CsfTree::prefix_sharing_ratio() const {
  if (levels() < 2 || num_leaves() == 0) return 0.0;
  std::size_t stored = 0;
  for (std::size_t d = 1; d < levels(); ++d) stored += num_nodes(d);
  return static_cast<double>(num_leaves()) *
         static_cast<double>(levels() - 1) / static_cast<double>(stored);
}

namespace {

// Per mode m, the compact numbering of its coordinates: id[m][g] is global
// row g's position among the non-empty rows J_m (unused for empty rows),
// and count[m] = |J_m|. The map is monotone, so sorting by compact ids
// would order the nonzeros exactly as sorting by global ids does.
struct CompactIds {
  std::vector<std::vector<index_t>> id;
  std::vector<std::size_t> count;
};

CompactIds number_rows(const CooTensor& x) {
  const std::size_t order = x.order();
  CompactIds c;
  c.id.resize(order);
  c.count.resize(order);
  const auto modes = static_cast<int>(order);
#pragma omp parallel for schedule(dynamic, 1)
  for (int mi = 0; mi < modes; ++mi) {
    const auto m = static_cast<std::size_t>(mi);
    std::vector<index_t>& id = c.id[m];
    id.assign(x.dim(m), 0);
    for (const index_t i : x.indices(m)) id[i] = 1;
    index_t next = 0;
    for (index_t& v : id) {
      const index_t occurs = v;
      v = next;
      next += occurs;
    }
    c.count[m] = next;
  }
  return c;
}

// The tree rooted at `root`, with x's values in leaf order: global ids at
// level 0, compact ids below.
CsfTree build_tree(const CooTensor& x, std::size_t root,
                   const CompactIds& ids) {
  const std::size_t order = x.order();
  CsfTree t;
  t.compact_rows = ids.count;
  t.level_modes.push_back(root);
  for (std::size_t m = 0; m < order; ++m) {
    if (m != root) t.level_modes.push_back(m);
  }
  // Shortest-mode-first below the root: modes with few distinct indices
  // placed high maximize the prefix runs each stored node amortizes.
  // Counting the indices that occur (|J_m|, rather than the declared mode
  // size) makes the tree invariant under relabelings that drop empty
  // slices, such as a rank-local reindexing. stable_sort keeps ties in
  // increasing mode order.
  std::stable_sort(t.level_modes.begin() + 1, t.level_modes.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ids.count[a] < ids.count[b];
                   });

  const std::size_t L = order;
  std::vector<std::span<const index_t>> coord(L);
  for (std::size_t d = 0; d < L; ++d) coord[d] = x.indices(t.level_modes[d]);

  // Lexicographic sort of nonzero ordinals by the level coordinates (the
  // shared LSD counting sort), ties by ordinal: the tree — and every
  // kernel accumulation order derived from it — is a pure function of the
  // tensor.
  std::vector<nnz_t> perm = lexicographic_order(x.nnz(), coord);

  // break_level[s]: shallowest level whose coordinate differs from slot
  // s-1 (0 for the first slot). A node at level d < L-1 starts exactly at
  // slots with break_level <= d; every slot is a leaf node (duplicate
  // coordinates stay separate leaves and accumulate, matching the other
  // kernels' treatment of unsummed duplicates).
  const std::size_t nslots = perm.size();
  std::vector<std::size_t> break_level(nslots, 0);
  for (std::size_t s = 1; s < nslots; ++s) {
    std::size_t d = 0;
    while (d < L && coord[d][perm[s]] == coord[d][perm[s - 1]]) ++d;
    break_level[s] = std::min(d, L - 1);
  }

  t.idx.resize(L);
  t.ptr.resize(L);
  for (std::size_t d = 0; d < L; ++d) {
    // Nodes at level d, and the CSR split of level-d nodes by their
    // level-(d-1) parent. Parent starts are a subset of child starts
    // (break_level <= d-1 implies <= d), so one pass emits both.
    std::vector<index_t>& out = t.idx[d];
    std::vector<nnz_t>& parent_ptr = t.ptr[d];
    const index_t* compact = d == 0 ? nullptr : ids.id[t.level_modes[d]].data();
    for (std::size_t s = 0; s < nslots; ++s) {
      const bool starts = d + 1 == L || break_level[s] <= d;
      if (d >= 1 && break_level[s] <= d - 1) parent_ptr.push_back(out.size());
      if (!starts) continue;
      const index_t g = coord[d][perm[s]];
      out.push_back(compact == nullptr ? g : compact[g]);
    }
    if (d >= 1) parent_ptr.push_back(out.size());
  }

  // Values in leaf order: the walk streams them, so the permutation itself
  // is not kept.
  const auto vals = x.values();
  t.values.resize(nslots);
  for (std::size_t s = 0; s < nslots; ++s) t.values[s] = vals[perm[s]];

  std::vector<nnz_t>& root_ptr = t.root_leaf_ptr;
  root_ptr.reserve(t.num_roots() + 1);
  for (std::size_t s = 0; s < nslots; ++s) {
    if (break_level[s] == 0) root_ptr.push_back(s);
  }
  root_ptr.push_back(nslots);
  return t;
}

}  // namespace

CsfTensor CsfTensor::build(const CooTensor& x) {
  HT_CHECK_MSG(x.order() >= 2, "CSF needs at least 2 modes");
  const CompactIds ids = number_rows(x);
  CsfTensor c;
  c.modes.resize(x.order());
  // Per-root builds are independent (each sorts its own ordinal
  // permutation); the tensor order bounds the parallelism, like the
  // symbolic pass.
  const auto order = static_cast<int>(x.order());
#pragma omp parallel for schedule(dynamic, 1)
  for (int n = 0; n < order; ++n) {
    c.modes[static_cast<std::size_t>(n)] =
        build_tree(x, static_cast<std::size_t>(n), ids);
  }
  return c;
}

}  // namespace ht::tensor
