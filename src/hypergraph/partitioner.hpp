// Hypergraph partitioners (PaToH substitute; see docs/ARCHITECTURE.md,
// "Substitutions").
//
// partition_multilevel: recursive bisection with
//   * heavy-connectivity agglomerative matching for coarsening,
//   * greedy-growth initial bisection at the coarsest level,
//   * boundary Fiduccia–Mattheyses refinement at every uncoarsening level,
//   * net splitting across recursion levels, which makes the sum of level
//     cuts equal the k-way (lambda - 1) connectivity cutsize.
//
// partition_random / partition_block provide the "-rd" and "-bl" baselines
// used in the paper's Table II.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hypergraph/partition.hpp"

namespace ht::hypergraph {

struct PartitionerOptions {
  int num_parts = 2;
  /// Allowed imbalance: max part weight <= (1 + epsilon) * ideal.
  double epsilon = 0.10;
  std::uint64_t seed = 1;
};

/// Multilevel k-way partition minimizing (lambda-1) connectivity.
Partition partition_multilevel(const Hypergraph& h,
                               const PartitionerOptions& options);

/// Weight-balanced random assignment (paper's "fine-rd"): vertices visited
/// in random order, each placed on the currently lightest part.
Partition partition_random(const Hypergraph& h, int num_parts,
                           std::uint64_t seed);

/// Contiguous blocks balanced by weight (paper's "coarse-bl").
Partition partition_block(std::span<const weight_t> weights, int num_parts);

namespace detail {

/// The hypergraph whose nets are h's nets relabelled through `map` (vertex
/// v becomes map[v]; kNoVertex drops the pin): each net keeps the first
/// occurrence of every new vertex, in pin order, and nets left with fewer
/// than 2 pins are dropped. Net costs carry over. Coarsening contracts a
/// level with it (map = matching) and recursive bisection induces each side
/// (map = the side's own numbering).
Hypergraph relabel(const Hypergraph& h, std::span<const vid_t> map,
                   std::size_t num_vertices,
                   std::vector<weight_t> vertex_weights);

}  // namespace detail

}  // namespace ht::hypergraph
