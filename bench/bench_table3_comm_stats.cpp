// Regenerates paper Table III: per-mode computation and communication
// statistics (max/avg over ranks) of one HOOI iteration on the Flickr-shaped
// tensor under all four partitionings.
//
// Expected shape: fine-grain W_TTMc is perfectly balanced while coarse-grain
// shows large imbalance on skewed modes; fine-rd inflates W_TRSVD and comm
// volume by roughly an order of magnitude over fine-hp; fine-hp communicates
// the least.
//
// --json PATH writes one `table3_comm_stats` record per config and mode
// (the six printed columns) and one `table3_comm_total` record per config:
// its total modeled comm volume, the bytes the factor update's expand
// exchange moved as counted by the communicator and as modeled from the
// plan's lists (the two must be equal), and its build_global_plan seconds.
#include <cstdint>
#include <cstdio>

#include "bench_common.hpp"
#include "dist/dist_hooi.hpp"

int main(int argc, char** argv) {
  using namespace ht;

  htb::JsonReport report(htb::json_path_from_args(argc, argv));
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
    dist::PlanOptions plan_options;
    plan_options.grain = options.grain;
    plan_options.method = options.method;
    plan_options.num_ranks = p;
    plan_options.seed = options.seed;
    plan_options.epsilon = options.epsilon;
    WallTimer plan_timer;
    const auto gplan = dist::build_global_plan(bt.tensor, plan_options);
    const double plan_s = plan_timer.seconds();
    const auto rplans =
        dist::build_rank_plans(bt.tensor, gplan, options.ranks, options.seed);
    const auto result = dist::dist_hooi(bt.tensor, options, gplan, rplans);

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
      report.add()
          .str("bench", "table3_comm_stats")
          .str("tensor", name)
          .num("nprocs", p)
          .str("config", result.label)
          .num("mode", static_cast<double>(n + 1))
          .num("w_ttmc_max", ttmc.max)
          .num("w_ttmc_avg", ttmc.avg)
          .num("w_trsvd_max", trsvd.max)
          .num("w_trsvd_avg", trsvd.avg)
          .num("comm_max", comm.max)
          .num("comm_avg", comm.avg);
    }
    // The factor update's expand exchange: the bytes the communicator
    // counted against the plan's model, 8 R_n bytes per factor_send and
    // factor_recv position per sweep.
    std::uint64_t expand_counted = 0;
    std::uint64_t expand_modeled = 0;
    for (std::size_t n = 0; n < result.stats.modes(); ++n) {
      for (int r = 0; r < p; ++r) {
        expand_counted += result.stats.at(n, r).expand_bytes;
        std::uint64_t rows = 0;
        for (const auto& l : rplans[r].modes[n].factor_send) rows += l.positions.size();
        for (const auto& l : rplans[r].modes[n].factor_recv) rows += l.positions.size();
        expand_modeled += static_cast<std::uint64_t>(result.iterations) * 8 *
                          options.ranks[n] * rows;
      }
    }
    std::printf("\n--- %s ---\n%s", result.label.c_str(),
                table.to_string().c_str());
    std::printf(
        "total comm %llu entries; expand bytes counted %llu, modeled %llu; "
        "build_global_plan %.3f s\n",
        static_cast<unsigned long long>(result.stats.total_comm_entries()),
        static_cast<unsigned long long>(expand_counted),
        static_cast<unsigned long long>(expand_modeled), plan_s);
    report.add()
        .str("bench", "table3_comm_total")
        .str("tensor", name)
        .num("nprocs", p)
        .str("config", result.label)
        .num("comm_total", static_cast<double>(result.stats.total_comm_entries()))
        .num("expand_bytes_counted", static_cast<double>(expand_counted))
        .num("expand_bytes_modeled", static_cast<double>(expand_modeled))
        .num("build_global_plan_s", plan_s);
  }
  report.write();
  return 0;
}
