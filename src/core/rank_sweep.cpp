#include "core/rank_sweep.hpp"

#include <numeric>

#include "util/error.hpp"
#include "util/timer.hpp"

namespace ht::core {

const RankSweepEntry& RankSweepResult::pick(double fit_fraction) const {
  HT_CHECK_MSG(!entries.empty(), "empty rank sweep");
  double best_fit = 0.0;
  for (const auto& e : entries) best_fit = std::max(best_fit, e.fit);

  const RankSweepEntry* chosen = nullptr;
  std::uint64_t chosen_core = 0;
  for (const auto& e : entries) {
    if (e.fit + 1e-15 < fit_fraction * best_fit) continue;
    const std::uint64_t core_size = std::accumulate(
        e.ranks.begin(), e.ranks.end(), std::uint64_t{1},
        [](std::uint64_t a, index_t r) { return a * r; });
    if (chosen == nullptr || core_size < chosen_core) {
      chosen = &e;
      chosen_core = core_size;
    }
  }
  HT_CHECK(chosen != nullptr);
  return *chosen;
}

RankSweepResult rank_sweep(const CooTensor& x,
                           const std::vector<std::vector<index_t>>& candidates,
                           const HooiOptions& base) {
  HT_CHECK_MSG(!candidates.empty(), "need at least one rank candidate");

  RankSweepResult result;
  // Every preprocessing structure is rank-independent: one plan serves the
  // whole rank grid.
  const TtmcPlan plan = TtmcPlan::build(x, base.ttmc_kernel);
  result.symbolic_seconds = plan.build_seconds;

  double best_fit = -1.0;
  for (const auto& ranks : candidates) {
    HooiOptions options = base;
    options.ranks = ranks;
    WallTimer t;
    HooiResult run = hooi(x, options, plan);
    RankSweepEntry entry;
    entry.ranks = ranks;
    entry.fit = run.final_fit();
    entry.iterations = run.iterations;
    entry.seconds = t.seconds();
    if (entry.fit > best_fit) {
      best_fit = entry.fit;
      result.best_model = TuckerModel::from_hooi(x, std::move(run));
    }
    result.entries.push_back(std::move(entry));
  }
  return result;
}

}  // namespace ht::core
