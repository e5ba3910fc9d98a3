// Data-distribution plans for the distributed-memory HOOI (paper Sec. III-B).
//
// A plan answers two questions ahead of any iteration:
//   * who owns what — per-mode factor-row owners (both grains) plus, for the
//     fine grain, a nonzero owner for every tensor entry;
//   * who talks to whom — per-mode, per-pair communication lists for the
//     fold (partial results -> row owner) and expand (updated factor row ->
//     replicas) phases of paper Algorithm 4.
//
// Grains and methods follow the paper's Table II configurations:
//   fine-hp    fine-grain hypergraph partition (Kaya & Uçar SC'15 model)
//   fine-rd    fine-grain balanced random nonzero placement
//   coarse-hp  per-mode coarse-grain (column-net) hypergraph partition
//   coarse-bl  contiguous slice blocks balanced by slice nonzero count
//
// The two-stage API mirrors the paper's offline partitioning: a GlobalPlan
// records ownership only (cheap to inspect, independent of decomposition
// ranks); build_rank_plans then materializes per-rank local tensors
// (reindexed to dense local ids), communication lists, and the initial
// factor slices for a specific rank vector.
//
// Contract: plans are built against one tensor and one PlanOptions; every
// mode of every rank gets fold/expand lists that are pairwise symmetric
// (rank p's send list to q equals q's receive list from p, in the same row
// order), local tensors partition the nonzeros exactly (fine grain) or by
// whole owned slices (coarse grain), and initial factor slices are derived
// from the seed so a distributed run is reproducible from (tensor,
// options) alone. Determinism: partitioners (hypergraph refinement, random
// placement, block splitting) are seeded and single-threaded per
// structure; building the same plan twice yields identical ownership,
// orderings, and communication lists — bench_table2 relies on this to
// reuse plans across timing runs, and the dist tests on plan equality
// across repeated builds. Thread-safety: GlobalPlan and RankPlan are
// immutable after construction and are shared read-only by all SPMD ranks;
// build_rank_plans itself is not reentrant on a shared output vector.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "la/matrix.hpp"
#include "tensor/coo_tensor.hpp"

namespace ht::dist {

using tensor::CooTensor;
using tensor::index_t;
using tensor::nnz_t;

/// Task granularity of the data distribution (paper Sec. III-B).
enum class Grain { kFine, kCoarse };

/// Partitioning method used to derive ownership.
enum class Method { kHypergraph, kRandom, kBlock };

/// Paper configuration label, e.g. "fine-hp", "coarse-bl" (Table II).
std::string config_label(Grain grain, Method method);

struct PlanOptions {
  Grain grain = Grain::kFine;
  Method method = Method::kHypergraph;
  int num_ranks = 1;
  /// Seed for the partitioners (hypergraph refinement, random placement).
  std::uint64_t seed = 42;
  /// Allowed part-weight imbalance for the hypergraph partitioner.
  double epsilon = 0.10;
};

/// Ownership only: which rank owns each factor row (per mode) and, for the
/// fine grain, each nonzero. Empty rows get a deterministic owner in
/// [0, num_ranks) but carry no data or communication.
struct GlobalPlan {
  Grain grain = Grain::kFine;
  Method method = Method::kHypergraph;
  int num_ranks = 1;
  /// row_owner[mode][global row] in [0, num_ranks).
  std::vector<std::vector<int>> row_owner;
  /// Fine grain only: owner of each nonzero ordinal (empty for coarse).
  std::vector<int> nnz_owner;
};

/// Partition the tensor. Fine grain partitions nonzeros and anchors each
/// non-empty row to the rank holding most of its nonzeros; coarse grain
/// partitions each mode's slices independently (owners hold whole slices).
GlobalPlan build_global_plan(const CooTensor& x, const PlanOptions& options);

using core::CommList;

/// Per-mode view of one rank's plan: its exchange lists (core::ModeLists,
/// whose positions index local_rows, equivalently the rows of the local
/// compact Y / factor slice) and the rows behind them.
struct ModePlan : core::ModeLists {
  /// Sorted global rows this rank owns (covers all globally non-empty rows
  /// exactly once across ranks).
  std::vector<index_t> owned_rows;
  /// Sorted global rows referenced by this rank's local nonzeros; local row
  /// id i corresponds to global row local_rows[i].
  std::vector<index_t> local_rows;
};

/// Everything one simulated rank needs to run HOOI.
struct RankPlan {
  int rank = 0;
  /// Local nonzeros with indices reindexed to dense local row ids. Fine
  /// grain: disjoint across ranks; coarse grain: the union of the rank's
  /// owned slices over all modes (each nonzero stored once per rank).
  CooTensor local;
  std::vector<ModePlan> modes;
  /// Local slices (rows = local_rows, so none for a mode with no local
  /// rows) of the deterministic global initial factors for the given seed —
  /// depends only on (shape, ranks, seed), not on the partition, so plans
  /// built from differently-seeded GlobalPlans still start HOOI from the
  /// same point.
  std::vector<la::Matrix> initial_factors;
};

/// Materialize per-rank plans for a decomposition with the given ranks.
/// `seed` drives only the initial factors (matches core::hooi with the same
/// seed); the partition is fully determined by `plan`.
std::vector<RankPlan> build_rank_plans(const CooTensor& x,
                                       const GlobalPlan& plan,
                                       const std::vector<index_t>& ranks,
                                       std::uint64_t seed);

/// Position of global row `g` in a sorted local row list (the local row id,
/// equivalently the row of the local compact Y / factor slice); throws if
/// the row is not local.
std::uint32_t local_row_position(const std::vector<index_t>& local_rows,
                                 index_t g);

}  // namespace ht::dist
