// Regenerates paper Table V: shared-memory scaling of HOOI (time per
// iteration as OpenMP threads sweep 1..32).
//
// Expected shape: all tensors speed up with threads; tensors whose largest
// mode is comparatively small (Netflix, NELL) scale better because their
// TTMc is latency-bound with more work per row, while huge-mode tensors
// (Delicious, Flickr) saturate memory bandwidth in the TRSVD GEMVs earlier.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench_common.hpp"
#include "core/hooi.hpp"

int main() {
  using namespace ht;

  const int iters = htb::bench_iters();
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> threads;
  for (int t = 1; t <= std::max(32, hw); t *= 2) {
    threads.push_back(t);
    if (t >= hw && t >= 32) break;
  }

  std::printf(
      "=== Table V: shared-memory time per HOOI iteration (seconds), %d "
      "iterations ===\n(%d hardware threads available)\n",
      iters, hw);

  std::vector<std::string> header = {"#threads"};
  for (const auto& name : htb::bench_tensors()) header.push_back(name);
  TextTable table(header);

  std::vector<htb::BenchTensor> tensors;
  for (const auto& name : htb::bench_tensors()) {
    tensors.push_back(htb::load_preset(name, /*scale_fallback=*/1.0));
  }

  for (int t : threads) {
    std::vector<std::string> row = {std::to_string(t)};
    for (const auto& bt : tensors) {
      core::HooiOptions options;
      options.ranks = bt.spec.ranks;
      options.max_iterations = iters;
      options.fit_tolerance = 0.0;
      options.num_threads = t;
      // The paper's SLEPc configuration: Lanczos on every solve.
      options.trsvd_method = core::TrsvdMethod::kLanczos;
      WallTimer timer;
      const auto result = core::hooi(bt.tensor, options);
      const double per_iter =
          (timer.seconds() - result.timers.symbolic) / result.iterations;
      row.push_back(fmt_time_s(per_iter));
    }
    table.add_row(row);
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}
