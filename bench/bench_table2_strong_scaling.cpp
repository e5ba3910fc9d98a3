// Regenerates paper Table II: distributed-memory strong scaling. For each
// dataset, sweeps the simulated rank count and reports the time per HOOI
// iteration under the four data distributions (fine-hp, fine-rd, coarse-hp,
// coarse-bl). Partitioning happens offline and is reported separately,
// exactly as in the paper.
//
// Expected shape: times fall with rank count for all configurations;
// fine-hp is the fastest at scale; fine-rd trails fine-hp; both fine
// variants beat the coarse ones. (Absolute numbers differ from the paper's
// BlueGene/Q — this runs on a simulated message-passing runtime.)
#include <cstdio>

#include "bench_common.hpp"
#include "dist/dist_hooi.hpp"

namespace {

using ht::dist::Grain;
using ht::dist::Method;

struct Config {
  Grain grain;
  Method method;
};

const Config kConfigs[] = {
    {Grain::kFine, Method::kHypergraph},
    {Grain::kFine, Method::kRandom},
    {Grain::kCoarse, Method::kHypergraph},
    {Grain::kCoarse, Method::kBlock},
};

}  // namespace

int main() {
  using namespace ht;

  htb::enable_network_model_default();
  const auto rank_counts = htb::bench_rank_counts();
  const int iters = htb::bench_iters();
  std::printf(
      "=== Table II: time per HOOI iteration (seconds), %d iterations ===\n",
      iters);

  for (const auto& name : htb::bench_tensors()) {
    const auto bt = htb::load_preset(name);
    const std::vector<tensor::index_t>& ranks = bt.spec.ranks;

    TextTable table({"#ranks", "fine-hp", "fine-rd", "coarse-hp",
                     "coarse-bl"});
    double prep_seconds = 0.0;

    for (int p : rank_counts) {
      std::vector<std::string> row = {std::to_string(p)};
      for (const auto& config : kConfigs) {
        dist::DistHooiOptions options;
        options.ranks = ranks;
        options.grain = config.grain;
        options.method = config.method;
        options.num_ranks = p;
        options.max_iterations = iters;
        // The paper's SLEPc configuration: Lanczos on every solve.
        options.trsvd_method = core::TrsvdMethod::kLanczos;

        // Offline partitioning (not part of the per-iteration timing).
        dist::PlanOptions popt;
        popt.grain = options.grain;
        popt.method = options.method;
        popt.num_ranks = p;
        popt.seed = options.seed;
        WallTimer prep;
        const auto gplan = dist::build_global_plan(bt.tensor, popt);
        const auto rplans =
            dist::build_rank_plans(bt.tensor, gplan, ranks, options.seed);
        prep_seconds += prep.seconds();

        const auto result = dist::dist_hooi(bt.tensor, options, gplan, rplans);
        row.push_back(fmt_time_s(result.seconds_per_iteration));
      }
      table.add_row(row);
    }

    std::printf("\n--- %s (%s) ---\n%s", name.c_str(),
                bt.tensor.summary().c_str(), table.to_string().c_str());
    std::printf("offline partitioning total: %.1fs (excluded per paper)\n",
                prep_seconds);
  }
  return 0;
}
