// Distributed-memory HOOI (paper Algorithm 4) on the simulated
// message-passing runtime.
//
// `num_ranks` SPMD ranks run as threads over smp::Communicator. Each rank
// holds a reindexed local tensor and local factor slices from a
// partition_plan, builds the CSF forest of its local tensor, and runs
// core/sweep.hpp's loop, which performs, per mode,
//   (i)   local TTMc, the CSF walk over the rank's nonzeros (partial rows
//         under the fine grain; complete owned rows under the coarse grain,
//         through core::ttmc_mode_subset),
//   (ii)  distributed TRSVD over a row-distributed operator whose apply()
//         folds partial row results to row owners and expands them back to
//         replicas — Y(n) is never assembled (the paper's argument for
//         Lanczos over Gram methods). kAuto runs Lanczos, or from the third
//         sweep on core::warm_trsvd on modes whose *global* compact Y(n)
//         is large, so every rank makes the same choice (the steps'
//         energy check reads allreduced blocks, so every rank also reruns
//         Lanczos together),
//   (iii) owners write their rows of U_n in place, and one expand exchange
//         over the plan's factor lists copies them to the ranks whose
//         local tensor touches them (a rank-deficient or unconverged solve
//         is completed over the whole factor, assembled on every rank);
//         after the last mode, an allreduce'd core tensor G = U_N^T Y(N)
//         gives the exact fit.
// Rank 0 assembles the compact factors once, after the last sweep: the
// owned rows of every rank, in J_n's order, with their row ids, as
// core::hooi keeps them (core/tucker.hpp). With num_ranks = 1 every
// collective degenerates to the identity and the run reproduces core::hooi
// bit for bit.
//
// Per-mode/per-rank computation and communication loads (paper Table III)
// are reported in DistStats. The modeled volumes come from the partition's
// fold/expand lists, a property of the data distribution, not of the
// simulated network speed; DistLoad::expand_bytes counts what the factor
// update's expand exchange moved (smp::CommStats), its modeled share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/hooi.hpp"
#include "dist/partition_plan.hpp"
#include "la/lanczos.hpp"
#include "util/stats.hpp"

namespace ht::dist {

struct DistHooiOptions {
  /// Decomposition ranks, one per mode (required).
  std::vector<index_t> ranks;
  Grain grain = Grain::kFine;
  Method method = Method::kHypergraph;
  /// Simulated process count.
  int num_ranks = 1;
  int max_iterations = 5;  // the paper's benchmark setting
  /// Stop when the fit improves by less than this between sweeps. The
  /// distributed default runs all iterations (the paper times fixed sweeps).
  double fit_tolerance = 0.0;
  /// OpenMP threads inside each simulated rank (0 = runtime default);
  /// models the paper's hybrid MPI+OpenMP configurations.
  int threads_per_rank = 0;
  std::uint64_t seed = 42;
  /// TRSVD solver, as in core::HooiOptions: kAuto warm-starts modes whose
  /// global compact Y(n) is large from the third sweep on. The blocked
  /// solves batch the fold/expand exchange into one message round per block
  /// apply instead of one per Lanczos vector.
  core::TrsvdMethod trsvd_method = core::TrsvdMethod::kAuto;
  /// Inner-solver controls; defaults match core::HooiOptions.
  la::TrsvdOptions trsvd = {.tol = 1e-7};
  /// Hypergraph partitioner imbalance tolerance (plan construction only).
  double epsilon = 0.10;
};

/// Per-mode/per-rank loads of one HOOI iteration (paper Table III).
struct DistLoad {
  /// TTMc work: nonzeros this rank processes for the mode.
  std::uint64_t w_ttmc = 0;
  /// TRSVD work: entries of the rank's local part of Y(n).
  std::uint64_t w_trsvd = 0;
  /// Modeled communication volume in vector entries (fold + expand rows,
  /// sent and received, times the mode's factor rank).
  std::uint64_t comm_entries = 0;
  /// Measured TRSVD communication rounds (fold/expand exchanges plus
  /// column-space/Gram allreduces), summed over iterations. Unlike the
  /// modeled fields above, this is observed during the run: the blocked
  /// solves batch b vectors per round, so it drops by ~b versus scalar
  /// Lanczos on the same partition.
  std::uint64_t trsvd_rounds = 0;
  /// Counted bytes the factor update's expand exchange sent plus received
  /// (smp::CommStats deltas around it), summed over iterations: 8 R_n
  /// bytes per factor_send and factor_recv position per sweep.
  std::uint64_t expand_bytes = 0;
};

class DistStats {
 public:
  DistStats() = default;
  DistStats(std::size_t num_modes, std::size_t num_ranks)
      : modes_(num_modes), ranks_(num_ranks), cells_(num_modes * num_ranks) {}

  [[nodiscard]] std::size_t modes() const { return modes_; }
  [[nodiscard]] std::size_t ranks() const { return ranks_; }

  [[nodiscard]] DistLoad& at(std::size_t mode, std::size_t rank) {
    return cells_[mode * ranks_ + rank];
  }
  [[nodiscard]] const DistLoad& at(std::size_t mode, std::size_t rank) const {
    return cells_[mode * ranks_ + rank];
  }

  /// Max/avg over ranks of the mode's loads (imbalance = max/avg).
  [[nodiscard]] LoadSummary ttmc_summary(std::size_t mode) const;
  [[nodiscard]] LoadSummary trsvd_summary(std::size_t mode) const;
  [[nodiscard]] LoadSummary comm_summary(std::size_t mode) const;
  [[nodiscard]] LoadSummary trsvd_rounds_summary(std::size_t mode) const;

  /// Total modeled communication volume over all modes and ranks.
  [[nodiscard]] std::uint64_t total_comm_entries() const;

  /// Total measured TRSVD communication rounds over all modes and ranks.
  [[nodiscard]] std::uint64_t total_trsvd_rounds() const;

 private:
  std::size_t modes_ = 0;
  std::size_t ranks_ = 0;
  std::vector<DistLoad> cells_;
};

/// core::HooiResult (`timers` are the slowest rank's: the paper's Table IV
/// breakdown) plus what distribution adds.
struct DistHooiResult : core::HooiResult {
  DistStats stats;
  /// Paper configuration label, e.g. "fine-hp".
  std::string label;
  /// Wall time of the slowest rank's iteration loop divided by iterations.
  double seconds_per_iteration = 0.0;
};

/// Run distributed HOOI; partitions the tensor internally with the options'
/// grain/method/seed.
DistHooiResult dist_hooi(const CooTensor& x, const DistHooiOptions& options);

/// Run distributed HOOI over prebuilt plans (the paper partitions offline;
/// bench_table2 reuses plans across timing runs). Plans that do not fit
/// `x` (order, mode sizes, nonzero count, rows past a mode's size) or the
/// options (rank count, factor widths) throw ht::InvalidArgument.
DistHooiResult dist_hooi(const CooTensor& x, const DistHooiOptions& options,
                         const GlobalPlan& gplan,
                         const std::vector<RankPlan>& rplans);

/// Validate options against the tensor; throws ht::InvalidArgument.
void validate_dist_options(const CooTensor& x, const DistHooiOptions& options);

}  // namespace ht::dist
