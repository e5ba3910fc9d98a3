// Regenerates paper Table IV: relative time of the TTMc, TRSVD(+comm), and
// core(+comm) steps within a HOOI iteration under the fine-hp partition,
// plus the symbolic-TTMc share of total execution reported in the Section V
// text (5-19% at 256 ranks for 5 iterations).
//
// Expected shape: TTMc dominates for most tensors; TRSVD's share grows with
// huge-mode tensors and dominates Netflix-like shapes at scale; the core
// step is negligible.
// With --json PATH, the per-tensor shares (and absolute seconds) are also
// written as machine-readable records for the CI perf trajectory.
// --trsvd-method lanczos|rand|auto swaps the TRSVD solver (default
// lanczos, the paper's SLEPc configuration), so the trajectory tracks how
// the blocked solves — rand, and auto's warm power steps — move the
// TRSVD+comm share (and the measured fold/expand rounds) on the same
// partitions.
#include <cstdio>
#include <cstring>

#include "bench_common.hpp"
#include "dist/dist_hooi.hpp"

int main(int argc, char** argv) {
  using namespace ht;

  htb::JsonReport report(htb::json_path_from_args(argc, argv));
  htb::enable_network_model_default();
  const int p = htb::bench_nprocs();
  const int iters = htb::bench_iters();
  core::TrsvdMethod trsvd_method = core::TrsvdMethod::kLanczos;
  for (int a = 1; a + 1 < argc; ++a) {
    if (std::strcmp(argv[a], "--trsvd-method") == 0) {
      const auto parsed = core::parse_trsvd_method(argv[a + 1]);
      if (!parsed || *parsed == core::TrsvdMethod::kGram) {
        std::fprintf(stderr,
                     "--trsvd-method must be lanczos|rand|auto\n");
        return 2;
      }
      trsvd_method = *parsed;
    }
  }
  std::printf(
      "=== Table IV: relative step timings (%%), fine-hp, %d ranks, %d "
      "iterations, trsvd=%s ===\n",
      p, iters, core::trsvd_method_name(trsvd_method));

  std::vector<std::string> header = {"step"};
  for (const auto& name : htb::bench_tensors()) header.push_back(name);
  TextTable table(header);
  std::vector<std::string> row_ttmc = {"TTMc"};
  std::vector<std::string> row_trsvd = {"TRSVD+comm"};
  std::vector<std::string> row_core = {"core+comm"};
  std::vector<std::string> row_symbolic = {"symbolic (of total)"};

  for (const auto& name : htb::bench_tensors()) {
    const auto bt = htb::load_preset(name);

    dist::DistHooiOptions options;
    options.ranks = bt.spec.ranks;
    options.grain = dist::Grain::kFine;
    options.method = dist::Method::kHypergraph;
    options.num_ranks = p;
    options.max_iterations = iters;
    options.trsvd_method = trsvd_method;

    dist::PlanOptions popt;
    popt.grain = options.grain;
    popt.method = options.method;
    popt.num_ranks = p;
    const auto gplan = dist::build_global_plan(bt.tensor, popt);
    const auto rplans =
        dist::build_rank_plans(bt.tensor, gplan, options.ranks, options.seed);

    const auto result = dist::dist_hooi(bt.tensor, options, gplan, rplans);
    // Symbolic cost: the slowest rank's TTMc plan build over its local
    // tensor (performed once, before the iterations).
    const double symbolic_max = result.timers.symbolic;
    const double iter_total = result.timers.iteration_total();
    row_ttmc.push_back(fmt_fixed(100.0 * result.timers.ttmc / iter_total, 1));
    row_trsvd.push_back(
        fmt_fixed(100.0 * result.timers.trsvd / iter_total, 1));
    row_core.push_back(fmt_fixed(100.0 * result.timers.core / iter_total, 1));
    row_symbolic.push_back(fmt_fixed(
        100.0 * symbolic_max / (symbolic_max + iter_total), 1));
    std::string resolved, warm;
    for (std::size_t n = 0; n < result.trsvd_methods.size(); ++n) {
      if (n) {
        resolved += ",";
        warm += ",";
      }
      resolved += core::trsvd_method_name(result.trsvd_methods[n]);
      warm += std::to_string(result.warm_solves[n]);
    }
    report.add()
        .str("bench", "table4_step_breakdown")
        .str("tensor", name)
        .num("nnz", static_cast<double>(bt.tensor.nnz()))
        .num("ranks", p)
        .num("iterations", iters)
        .str("trsvd_method", core::trsvd_method_name(trsvd_method))
        .str("trsvd_resolved", resolved)
        .str("warm_solves", warm)
        .num("trsvd_rounds", static_cast<double>(result.stats.total_trsvd_rounds()))
        .num("ttmc_s", result.timers.ttmc)
        .num("trsvd_s", result.timers.trsvd)
        .num("core_s", result.timers.core)
        .num("symbolic_s", symbolic_max)
        .num("ttmc_pct", 100.0 * result.timers.ttmc / iter_total)
        .num("trsvd_pct", 100.0 * result.timers.trsvd / iter_total)
        .num("core_pct", 100.0 * result.timers.core / iter_total)
        .num("symbolic_of_total_pct",
             100.0 * symbolic_max / (symbolic_max + iter_total));
  }

  table.add_row(row_ttmc);
  table.add_row(row_trsvd);
  table.add_row(row_core);
  table.add_separator();
  table.add_row(row_symbolic);
  std::printf("%s", table.to_string().c_str());
  report.write();
  return 0;
}
