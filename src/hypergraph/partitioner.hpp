// Hypergraph partitioners (PaToH substitute; see docs/ARCHITECTURE.md,
// "Substitutions").
//
// partition_multilevel: recursive bisection with
//   * heavy-connectivity agglomerative matching for coarsening,
//   * portfolio of greedy-growth initial bisections,
//   * boundary Fiduccia–Mattheyses refinement at every uncoarsening level,
//   * net splitting across recursion levels, which makes the sum of level
//     cuts equal the k-way (lambda - 1) connectivity cutsize.
//
// partition_random / partition_block provide the "-rd" and "-bl" baselines
// used in the paper's Table II.
#pragma once

#include <cstdint>
#include <span>

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

}  // namespace ht::hypergraph
