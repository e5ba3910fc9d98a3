// Regenerates paper Table III: per-mode computation and communication
// statistics (max/avg over ranks) of one HOOI iteration on the Flickr-shaped
// tensor under all four partitionings.
//
// Expected shape: fine-grain W_TTMc is perfectly balanced while coarse-grain
// shows large imbalance on skewed modes; fine-rd inflates W_TRSVD and comm
// volume by roughly an order of magnitude over fine-hp; fine-hp communicates
// the least.
#include <cstdio>

#include "bench_common.hpp"
#include "dist/dist_hooi.hpp"

int main() {
  using namespace ht;

  htb::enable_network_model_default();
  const std::string name = env_string("HT_TENSOR", "flickr");
  const int p = htb::bench_nprocs();
  const auto bt = htb::load_preset(name);

  std::printf(
      "=== Table III: per-mode W_TTMc / W_TRSVD / comm volume, %s, %d ranks "
      "===\n",
      name.c_str(), p);

  struct Config {
    dist::Grain grain;
    dist::Method method;
  };
  const Config configs[] = {
      {dist::Grain::kFine, dist::Method::kHypergraph},
      {dist::Grain::kFine, dist::Method::kRandom},
      {dist::Grain::kCoarse, dist::Method::kHypergraph},
      {dist::Grain::kCoarse, dist::Method::kBlock},
  };

  for (const auto& config : configs) {
    dist::DistHooiOptions options;
    options.ranks = bt.spec.ranks;
    options.grain = config.grain;
    options.method = config.method;
    options.num_ranks = p;
    options.max_iterations = 1;  // Table III reports one iteration
    // The paper's SLEPc configuration: Lanczos on every solve.
    options.trsvd_method = core::TrsvdMethod::kLanczos;
    const auto result = dist::dist_hooi(bt.tensor, options);

    TextTable table({"mode", "W_TTMc max", "W_TTMc avg", "W_TRSVD max",
                     "W_TRSVD avg", "Comm max", "Comm avg"});
    for (std::size_t n = 0; n < result.stats.modes(); ++n) {
      const auto ttmc = result.stats.ttmc_summary(n);
      const auto trsvd = result.stats.trsvd_summary(n);
      const auto comm = result.stats.comm_summary(n);
      table.add_row({std::to_string(n + 1), human_count(ttmc.max),
                     human_count(ttmc.avg), human_count(trsvd.max),
                     human_count(trsvd.avg), human_count(comm.max),
                     human_count(comm.avg)});
    }
    std::printf("\n--- %s ---\n%s", result.label.c_str(),
                table.to_string().c_str());
  }
  return 0;
}
