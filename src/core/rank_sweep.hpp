// Rank selection by sweeping HOOI over candidate core sizes.
//
// The paper (Sec. V, citing Kiers & der Kinderen) notes that finding a good
// Tucker approximation typically means running HOOI with several rank
// choices, and that the symbolic TTMc can be computed once and reused for
// all of them — this utility is that workflow.
#pragma once

#include <optional>
#include <vector>

#include "core/hooi.hpp"
#include "core/tucker_model.hpp"

namespace ht::core {

struct RankSweepEntry {
  std::vector<index_t> ranks;
  double fit = 0.0;
  int iterations = 0;
  double seconds = 0.0;
};

struct RankSweepResult {
  std::vector<RankSweepEntry> entries;
  /// Seconds spent building the shared CSF forest (paid once).
  double symbolic_seconds = 0.0;
  /// The best-fit run packaged as a first-class model (provenance stamped),
  /// ready for storage::save_bundle. Only the winner is kept — the sweep
  /// never holds more than one extra decomposition.
  std::optional<TuckerModel> best_model;

  /// Entry with the smallest core that reaches `fit_fraction` of the best
  /// observed fit (a simple elbow heuristic).
  [[nodiscard]] const RankSweepEntry& pick(double fit_fraction = 0.95) const;
};

/// Run HOOI for every candidate rank vector, reusing one CSF forest.
/// `base` supplies everything except the ranks.
RankSweepResult rank_sweep(const CooTensor& x,
                           const std::vector<std::vector<index_t>>& candidates,
                           const HooiOptions& base);

}  // namespace ht::core
