// Distributed-memory HOOI (paper Algorithm 4) on the simulated
// message-passing runtime.
//
// `num_ranks` SPMD ranks run as threads over smp::Communicator. Each rank
// holds a reindexed local tensor and local factor slices from a
// partition_plan; one ALS sweep then performs, per mode,
//   (i)   local TTMc over the rank's nonzeros (partial rows under the fine
//         grain, complete owned rows under the coarse grain),
//   (ii)  distributed TRSVD over a row-distributed operator whose apply()
//         folds partial row results to row owners and expands them back to
//         replicas — Y(n) is never assembled (the paper's argument for
//         Lanczos over Gram methods). kAuto runs Lanczos, or from the third
//         sweep on core::warm_trsvd on modes whose *global* compact Y(n)
//         is large, so every rank makes the same choice (the steps'
//         energy check reads allreduced blocks, so every rank also reruns
//         Lanczos together); a checkpoint restart counts the checkpointed
//         sweeps,
//   (iii) factor-row exchange and, after the last mode, an allreduce'd core
//         tensor G = U_N^T Y(N) from which the exact fit is monitored.
// With num_ranks = 1 every collective degenerates to the identity and the
// iteration reproduces core::hooi bit for bit.
//
// Per-mode/per-rank computation and communication loads (paper Table III)
// are reported in DistStats; communication volumes are derived from the
// partition's fold/expand lists, so they are a property of the data
// distribution, not of the simulated network speed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/hooi.hpp"
#include "core/tucker.hpp"
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
  /// TTMc options for the per-rank local kernels (both grains). Each rank
  /// builds its own core::TtmcPlan over its local tensor, so kAuto builds a
  /// per-rank CSF forest and runs it. The coarse grain computes its owned
  /// rows through TtmcPlan::ttmc_subset; the fine grain computes local
  /// partial rows, which the fold later combines.
  core::TtmcOptions ttmc;
  /// TRSVD solver, as in core::HooiOptions: kAuto warm-starts modes whose
  /// global compact Y(n) is large from the third sweep on. The blocked
  /// solves batch the fold/expand exchange into one message round per block
  /// apply instead of one per Lanczos vector. kGram is rejected: it would
  /// require assembling Y(n) (the paper's argument for matrix-free solvers
  /// in the fine-grain setting).
  core::TrsvdMethod trsvd_method = core::TrsvdMethod::kAuto;
  /// Inner-solver controls; defaults match core::HooiOptions.
  la::TrsvdOptions trsvd = {.tol = 1e-7};
  /// Hypergraph partitioner imbalance tolerance (plan construction only).
  double epsilon = 0.10;
  /// Directory for rank-local restart bundles ("" = no checkpointing).
  /// When set, every rank writes its local factor slices and the number of
  /// sweeps they have been through to <dir>/rank<r>.htb (storage/bundle.hpp
  /// format) after its iteration loop, and a later run over the same plan
  /// starts from those slices instead of the plan's random initialization,
  /// counting its sweeps on from the stored number — the fit trajectory
  /// continues exactly where the checkpointed run stopped.
  std::string checkpoint_dir;
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

struct DistHooiResult {
  core::TuckerDecomposition decomposition;
  /// Fit after each completed sweep (identical on every rank).
  std::vector<double> fits;
  DistStats stats;
  /// Per mode, the solver of the cold solves (kAuto resolves to kLanczos).
  std::vector<core::TrsvdMethod> trsvd_methods;
  /// Per mode, how many solves kept kAuto's warm power steps, as in
  /// core::HooiResult (identical on every rank).
  std::vector<int> warm_solves;
  /// Paper configuration label, e.g. "fine-hp".
  std::string label;
  int iterations = 0;
  bool converged = false;
  /// Wall time of the slowest rank's iteration loop divided by iterations.
  double seconds_per_iteration = 0.0;
  /// Slowest-rank per-step times (paper Table IV breakdown).
  core::HooiTimers timers;
};

/// Run distributed HOOI; partitions the tensor internally with the options'
/// grain/method/seed.
DistHooiResult dist_hooi(const CooTensor& x, const DistHooiOptions& options);

/// Run distributed HOOI over prebuilt plans (the paper partitions offline;
/// bench_table2 reuses plans across timing runs).
DistHooiResult dist_hooi(const CooTensor& x, const DistHooiOptions& options,
                         const GlobalPlan& gplan,
                         const std::vector<RankPlan>& rplans);

/// Validate options against the tensor; throws ht::InvalidArgument.
void validate_dist_options(const CooTensor& x, const DistHooiOptions& options);

}  // namespace ht::dist
