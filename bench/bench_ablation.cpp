// Ablations for the design choices docs/ARCHITECTURE.md calls out (beyond
// the paper's tables):
//   1. symbolic TTMc reuse — preprocessing cost vs per-iteration cost, and
//      its amortization across HOOI runs with different ranks (the paper's
//      Sec. V argument for reusing the symbolic structure);
//   2. dynamic vs static OpenMP scheduling of the loop a kAuto plan's TTMc
//      runs (the CSF tile loop) on a skewed tensor (the paper chooses
//      dynamic);
//   3. Lanczos vs Gram-matrix TRSVD (the matrix-free choice);
//   4. per-nnz vs CSF TTMc kernels across fiber-length regimes, and what
//      a kAuto plan runs in each (the perf-trajectory entry: the CSF walk
//      must win on fiber-dense tensors and must not lose to per-nnz on
//      singleton fibers, where kAuto still runs it);
//   6. TRSVD solvers on the huge-mode regime where Table IV says TRSVD
//      dominates, on the Y(n) of HOOI's third sweep: scalar Lanczos
//      (bandwidth-bound gemv per step) vs randomized subspace iteration vs
//      Gram vs kAuto's warm power steps from the current factor, with the
//      energy each basis captures relative to Lanczos (perf-trajectory
//      entry: kAuto's warm solve must end at >= 0.99 of Lanczos's energy,
//      keeping its steps where they settle and rerunning Lanczos where
//      they do not, as on this flat-spectrum random tensor; kAuto must
//      stay on Lanczos for the small mode);
//   7. CSF-tree TTMc against the flat per-nnz kernel across prefix-sharing
//      regimes (perf-trajectory entry: CSF must beat per-nnz on
//      prefix-heavy tensors and kAuto must stay within noise of the
//      per-tensor winner everywhere);
//   8. model-store load path — heap (kCopy, checksummed owned buffers) vs
//      mmap (kMap, zero-copy views) bundle loads, cold and warm, plus the
//      first-query latency after each (perf-trajectory entry: the mmap
//      cold load must not scale with model size the way the heap load
//      does, and must copy zero payload bytes);
//   9. serve-path query throughput — the serve::QueryEngine point-query
//      QPS and latency percentiles under a Zipf-skewed user trace (the
//      traffic shape the per-user contraction cache is built for), with
//      the cache on vs off and batched vs single-query submission
//      (perf-trajectory entry: on the skewed trace the cache must be worth
//      >1.5x QPS; score_batch is the single-query loop in the caller's
//      thread, so its rows must track the single rows);
//  11. masked completion vs unmasked HOOI on a planted low-rank tensor with
//      a 1% observed mask and known noise floor (prediction-quality entry:
//      masked training must reach held-out RMSE within 1.15x the noise
//      floor while unmasked HOOI — fitting the zeros — must not, matching
//      the core_completion_test acceptance pin).
// Arms 5 and 10 are retired (docs/BENCHMARKS.md).
//
// With --json PATH, every arm also appends machine-readable records so CI
// publishes BENCH_ablation.json instead of hand-copied tables.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <type_traits>
#include <variant>

#include "bench_common.hpp"
#include "core/completion.hpp"
#include "core/hooi.hpp"
#include "core/hosvd.hpp"
#include "core/split.hpp"
#include "core/symbolic.hpp"
#include "core/trsvd.hpp"
#include "core/ttmc.hpp"
#include "core/ttmc_plan.hpp"
#include "core/tucker_model.hpp"
#include "la/lanczos.hpp"
#include "la/linear_operator.hpp"
#include "serve/query_engine.hpp"
#include "serve/serve_model.hpp"
#include "storage/bundle.hpp"
#include "tensor/csf.hpp"
#include "tensor/generators.hpp"

namespace {

// Time the mode-`n` TTMc over `index`, best of `reps`: a mode's update
// lists or CSF tree, or a whole TtmcPlan (what HOOI runs). Per-mode timing
// shows where a kernel wins: a tensor's modes can sit in different fiber
// regimes (the generator's last mode sees singleton fibers).
template <typename Index>
double time_ttmc_mode(const ht::tensor::CooTensor& x,
                      const std::vector<ht::la::Matrix>& factors,
                      const Index& index, std::size_t n, int reps) {
  double best = 1e300;
  ht::la::Matrix y;
  for (int rep = 0; rep < reps; ++rep) {
    ht::WallTimer t;
    if constexpr (std::is_same_v<Index, ht::core::TtmcPlan>) {
      index.ttmc(x, factors, n, y);
    } else {
      ht::core::ttmc_mode(x, factors, n, index, y);
    }
    best = std::min(best, t.seconds());
  }
  return best;
}

const char* kernel_name(ht::core::TtmcKernel kernel) {
  return kernel == ht::core::TtmcKernel::kCsf ? "csf" : "nnz";
}

void fiber_length_ablation(bool smoke, htb::JsonReport& report) {
  using namespace ht;
  std::printf("=== Ablation 4: per-nnz vs CSF TTMc by fiber length ===\n");
  const tensor::nnz_t target_nnz = smoke ? 20000 : 2000000;
  const tensor::Shape shape = smoke ? tensor::Shape{200, 200, 400}
                                    : tensor::Shape{3000, 3000, 5000};
  const std::vector<tensor::index_t> ranks(3, 10);
  const int reps = smoke ? 1 : 5;

  // Mode 0's tree has the last mode at its leaf level, so its leaf runs are
  // the generator's ~fiber_len-long fibers; fiber_len 1 is prefix-free.
  std::printf("%-10s %10s %12s %12s %9s %6s\n", "fiber_len", "avg_len",
              "per-nnz(s)", "csf(s)", "speedup", "auto");
  for (const tensor::index_t fiber_len : {1, 2, 4, 8, 16}) {
    const auto x = tensor::random_fibered(shape, target_nnz / fiber_len,
                                          fiber_len, 97);
    const core::SymbolicTtmc sym = core::SymbolicTtmc::build(x);
    const tensor::CsfTensor csf = tensor::CsfTensor::build(x);
    const auto factors =
        core::random_orthonormal_factors(x.shape(), ranks, 7);

    // Interleaved best-of-reps so drift hits both kernels alike.
    double t_nnz = 1e300, t_csf = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      t_nnz = std::min(t_nnz, time_ttmc_mode(x, factors, sym.modes[0], 0, 1));
      t_csf = std::min(t_csf, time_ttmc_mode(x, factors, csf.modes[0], 0, 1));
    }
    // What HOOI's kAuto plan runs: whatever structure it built.
    const bool plan_csf = core::ttmc_wants_csf(x.order(), core::TtmcOptions{});
    const char* pick = plan_csf ? "csf" : "nnz";
    const double avg_len = csf.modes[0].avg_leaf_fiber_length();
    std::printf("%-10u %10.2f %12.4f %12.4f %8.2fx %6s\n", fiber_len, avg_len,
                t_nnz, t_csf, t_nnz / t_csf, pick);
    report.add()
        .str("arm", "fiber_length")
        .num("fiber_len", fiber_len)
        .num("nnz", static_cast<double>(x.nnz()))
        .num("avg_leaf_fiber_length", avg_len)
        .num("t_per_nnz_s", t_nnz)
        .num("t_csf_s", t_csf)
        .num("speedup", t_nnz / t_csf)
        .str("auto_pick", pick);
  }
  std::printf("\n");
}

// Ablation 7: the CSF kernel against the flat-index kernels across prefix
// regimes, timed as a full per-iteration TTMc sweep (every mode once) plus
// a per-mode breakdown. The headline is the prefix-heavy arm: at equal
// flops the CSF walk streams values and trailing coordinates (gathered
// into tree order at build time) where the flat kernels chase nnz_order ->
// values/idx — two random reads per nonzero. The input nonzero order can
// match at most one mode's iteration order, so even when the flat kernels
// stream one mode they scatter on the rest; CSF's per-mode trees stream
// all of them. The prefix-free control is the regime with no shared prefix
// to amortize; kAuto runs the walk there too, and it must hold its own.
void csf_kernel_ablation(bool smoke, htb::JsonReport& report) {
  using namespace ht;
  std::printf("=== Ablation 7: CSF vs per-nnz TTMc kernels ===\n");
  const tensor::nnz_t target_nnz = smoke ? 20000 : 2000000;
  const tensor::Shape shape = smoke ? tensor::Shape{200, 200, 400}
                                    : tensor::Shape{3000, 3000, 5000};
  const std::vector<tensor::index_t> ranks(3, 10);
  const int reps = smoke ? 1 : 5;

  std::printf("%-14s %6s %8s %12s %12s %12s %9s %9s %s\n", "tensor",
              "mode", "avg_len", "per-nnz(s)", "csf(s)", "auto(s)",
              "vs_nnz", "auto_spd", "auto");
  struct Arm {
    std::string name;
    tensor::CooTensor tensor;
  };
  std::vector<Arm> arms;
  for (const tensor::index_t fiber_len : {4, 16}) {
    arms.push_back({"fibered_" + std::to_string(fiber_len),
                    tensor::random_fibered(shape, target_nnz / fiber_len,
                                           fiber_len, 97)});
  }
  arms.push_back({"prefix_free",
                  tensor::random_fibered(shape, target_nnz, 1, 97)});

  for (const Arm& arm : arms) {
    const auto& x = arm.tensor;
    const core::SymbolicTtmc sym = core::SymbolicTtmc::build(x);
    // The kAuto plan holds the forest alone, so its build time is the
    // forest's.
    const core::TtmcPlan plan = core::TtmcPlan::build(x);
    const auto& csf = std::get<tensor::CsfTensor>(plan.index);
    const double csf_build_s = plan.build_seconds;
    const auto factors = core::random_orthonormal_factors(x.shape(), ranks, 7);
    const char* pick_name = kernel_name(plan.kernel());

    // Per mode: interleaved best-of-reps so drift hits all three alike;
    // sweep totals are the per-iteration numbers HOOI sees.
    double s_nnz = 0, s_csf = 0, s_auto = 0;
    std::string picks;
    for (std::size_t n = 0; n < x.order(); ++n) {
      double t_nnz = 1e300, t_csf = 1e300, t_auto = 1e300;
      for (int rep = 0; rep < reps; ++rep) {
        t_nnz =
            std::min(t_nnz, time_ttmc_mode(x, factors, sym.modes[n], n, 1));
        t_csf =
            std::min(t_csf, time_ttmc_mode(x, factors, csf.modes[n], n, 1));
        t_auto = std::min(t_auto, time_ttmc_mode(x, factors, plan, n, 1));
      }
      picks += pick_name[0];
      const double t_best = std::min(t_nnz, t_csf);
      std::printf("%-14s %6zu %8.2f %12.4f %12.4f %12.4f %8.2fx %8.2fx %s\n",
                  arm.name.c_str(), n, csf.modes[n].avg_leaf_fiber_length(),
                  t_nnz, t_csf, t_auto, t_nnz / t_csf, t_best / t_auto,
                  pick_name);
      report.add()
          .str("arm", "csf_kernel")
          .str("tensor", arm.name)
          .num("mode", static_cast<double>(n))
          .num("nnz", static_cast<double>(x.nnz()))
          .num("avg_leaf_fiber_length", csf.modes[n].avg_leaf_fiber_length())
          .num("prefix_sharing_ratio", csf.modes[n].prefix_sharing_ratio())
          .num("t_per_nnz_s", t_nnz)
          .num("t_csf_s", t_csf)
          .num("t_auto_s", t_auto)
          .num("csf_vs_per_nnz", t_nnz / t_csf)
          .num("auto_vs_winner", t_best / t_auto)
          .str("auto_pick", pick_name);
      s_nnz += t_nnz;
      s_csf += t_csf;
      s_auto += t_auto;
    }
    const double s_winner = std::min(s_nnz, s_csf);
    std::printf("%-14s  sweep          %12.4f %12.4f %12.4f %8.2fx %8.2fx %s "
                "(csf build %.2fs)\n",
                arm.name.c_str(), s_nnz, s_csf, s_auto, s_nnz / s_csf,
                s_winner / s_auto, picks.c_str(), csf_build_s);
    report.add()
        .str("arm", "csf_kernel_sweep")
        .str("tensor", arm.name)
        .num("nnz", static_cast<double>(x.nnz()))
        .num("t_per_nnz_s", s_nnz)
        .num("t_csf_s", s_csf)
        .num("t_auto_s", s_auto)
        .num("csf_build_s", csf_build_s)
        .num("csf_vs_per_nnz", s_nnz / s_csf)
        .num("auto_vs_winner", s_winner / s_auto)
        .str("auto_picks", picks);
  }
  std::printf("\n");
}

// Time one TRSVD solve per solver on a fixed compact Y(n), interleaved
// (lanczos, gram, rand, auto, warm, repeat) best-of-`reps` so machine drift
// hits every solver alike. Y(n) is the mode-0 TTMc after two Lanczos HOOI
// sweeps: the point where HOOI's kAuto starts handing out warm starts, here
// the compact rows of the current U_0. "auto" is a cold kAuto solve and
// runs Lanczos; "warm" is the solve HOOI's kAuto makes from the third sweep
// on: core::warm_trsvd from that start when Y(n) is above the
// kWarmMinEntries floor, a cold solve below it. Every solver's basis Q is
// scored by the energy it captures, ||Q^T Y(n)||_F^2, relative to Lanczos.
void trsvd_backend_ablation(bool smoke, htb::JsonReport& report) {
  using namespace ht;
  std::printf("=== Ablation 6: TRSVD solvers on Y(n) after 2 sweeps ===\n");

  struct Arm {
    std::string name;
    tensor::Shape shape;
    tensor::nnz_t nnz;
  };
  // The huge-mode arm is the Table IV regime (Netflix-like: one mode with
  // hundreds of thousands of slices, TRSVD+comm dominant); the small-mode
  // arm is the control below the warm floor, where kAuto stays on Lanczos.
  std::vector<Arm> arms;
  if (smoke) {
    arms.push_back({"huge_mode", {20000, 60, 60}, 60000});
    arms.push_back({"small_mode", {120, 100, 80}, 20000});
  } else {
    arms.push_back({"huge_mode", {500000, 2000, 2000}, 2000000});
    arms.push_back({"small_mode", {200, 200, 200}, 400000});
  }
  const std::vector<tensor::index_t> ranks(3, 10);
  const int reps = smoke ? 1 : 3;

  struct Solver {
    std::string name;
    core::TrsvdMethod method;
    bool warm_start = false;
    double best = 1e300;
    double energy = 0.0;
    std::size_t steps = 0;
    std::string resolved{};
  };

  std::printf("%-11s %10s %8s  %s\n", "tensor", "|J_n|xC", "solver",
              "best(s)  speedup  energy/lanczos  steps");
  for (const Arm& arm : arms) {
    const auto x = tensor::random_uniform(arm.shape, arm.nnz, 2026);
    const core::SymbolicTtmc sym = core::SymbolicTtmc::build(x);
    core::HooiOptions hooi_opts;
    hooi_opts.ranks = ranks;
    hooi_opts.max_iterations = 2;
    hooi_opts.fit_tolerance = 0.0;
    hooi_opts.trsvd_method = core::TrsvdMethod::kLanczos;
    const auto factors = core::hooi(x, hooi_opts).decomposition.factors;
    la::Matrix y;
    core::ttmc_mode(x, factors, 0, sym.modes[0], y);

    std::vector<Solver> solvers = {
        {"lanczos", core::TrsvdMethod::kLanczos},
        {"gram", core::TrsvdMethod::kGram},
        {"rand", core::TrsvdMethod::kRandomized},
        {"auto", core::TrsvdMethod::kAuto},
        {"warm", core::TrsvdMethod::kAuto, true}};
    la::TrsvdOptions trsvd_opts;
    trsvd_opts.tol = 1e-7;  // the HOOI ALS setting
    const auto& rows = sym.modes[0].rows;
    const std::size_t rank = ranks[0];
    const bool warm_applies = core::warm_trsvd_applies(
        core::TrsvdMethod::kAuto, y.rows(), y.cols(), rank);
    core::WarmStart warm;
    for (int rep = 0; rep < reps; ++rep) {
      for (Solver& b : solvers) {
        WallTimer t;
        core::FactorTrsvd res;
        if (b.warm_start && warm_applies) {
          warm.load(factors[0], rows);
          la::DenseOperator op(y);
          const bool kept = core::warm_trsvd(op, warm, trsvd_opts);
          res = core::scatter_trsvd_solution(warm.basis, rank, rows,
                                             x.dim(0), rank);
          b.resolved = kept ? "warm" : "lanczos";
        } else {
          res = core::trsvd_factor(y, rows, x.dim(0), rank, b.method,
                                   trsvd_opts);
          b.resolved = core::trsvd_method_name(res.method_used);
        }
        b.best = std::min(b.best, t.seconds());
        b.energy = la::gemm_tn(res.compact_u, y).frobenius_norm();
        b.energy *= b.energy;
        b.steps = res.solver_steps;
      }
    }

    const double t_lanczos = solvers[0].best;
    const double e_lanczos = solvers[0].energy;
    for (const Solver& b : solvers) {
      std::printf("%-11s %7zux%-3zu %8s  %.4fs  %6.2fx  %.6f  %zu%s\n",
                  arm.name.c_str(), y.rows(), y.cols(), b.name.c_str(),
                  b.best, t_lanczos / b.best, b.energy / e_lanczos, b.steps,
                  b.method == core::TrsvdMethod::kAuto
                      ? (" (-> " + b.resolved + ")").c_str()
                      : "");
      report.add()
          .str("arm", "trsvd_backend")
          .str("tensor", arm.name)
          .num("rows", static_cast<double>(y.rows()))
          .num("cols", static_cast<double>(y.cols()))
          .num("rank", ranks[0])
          .str("method", b.name)
          .str("resolved", b.resolved)
          .num("best_s", b.best)
          .num("speedup_vs_lanczos", t_lanczos / b.best)
          .num("energy_vs_lanczos", b.energy / e_lanczos)
          .num("steps", static_cast<double>(b.steps));
    }
  }
  std::printf("\n");
}

// Arm 8: the model-store load path. A trained TuckerModel is saved once,
// then loaded back through both materialization modes. "Cold" is the first
// in-process load after the write and "warm" the best of the following
// loads — both run against a warm page cache, so what the cold/warm gap
// and the heap/mmap gap measure is the work the loader itself does
// (checksum + copy vs header-and-table only), which is exactly the part
// that scales with model size. The first query after each load pays the
// mmap path's deferred page faults, so load + first query is the honest
// end-to-end latency comparison.
void model_store_ablation(bool smoke, htb::JsonReport& report) {
  using namespace ht;
  std::printf("=== Ablation 8: model store — heap vs mmap bundle load ===\n");

  const tensor::Shape shape =
      smoke ? tensor::Shape{60, 50, 40} : tensor::Shape{800, 600, 400};
  const tensor::nnz_t nnz = smoke ? 20000 : 2000000;
  const std::vector<tensor::index_t> ranks(3, smoke ? 8 : 16);
  const auto x = tensor::random_zipf(shape, nnz, {0.8, 0.9, 0.5}, 23);

  core::HooiOptions options;
  options.ranks = ranks;
  options.max_iterations = 3;
  options.fit_tolerance = 0.0;
  const auto model = core::TuckerModel::from_hooi(x, core::hooi(x, options));

  const std::string path = "bench_model_store.htb";
  storage::save_bundle(model, path);
  const auto info = storage::inspect_bundle(path);

  const std::vector<tensor::index_t> probe{
      static_cast<tensor::index_t>(shape[0] / 2),
      static_cast<tensor::index_t>(shape[1] / 2),
      static_cast<tensor::index_t>(shape[2] / 2)};

  std::printf("bundle: %llu bytes, %zu sections\n",
              static_cast<unsigned long long>(info.header.file_bytes),
              info.sections.size());
  std::printf("%-6s %-5s %10s %14s %14s\n", "path", "temp", "load(s)",
              "first_query(s)", "bytes_copied");
  struct Mode {
    const char* name;
    storage::LoadMode mode;
  };
  for (const Mode& m : {Mode{"heap", storage::LoadMode::kCopy},
                        Mode{"mmap", storage::LoadMode::kMap}}) {
    const int warm_reps = smoke ? 3 : 5;
    double load_s = 0.0, query_s = 0.0;
    std::uint64_t copied = 0;
    double warm_load = 1e300, warm_query = 1e300;
    for (int rep = 0; rep <= warm_reps; ++rep) {
      storage::CopyStats::reset();
      WallTimer t_load;
      const auto loaded = storage::load_bundle(path, m.mode);
      const double tl = t_load.seconds();
      WallTimer t_query;
      const double v = loaded.reconstruct_at(probe);
      const double tq = t_query.seconds();
      if (v == 1e300) std::printf("unreachable\n");  // keep the query live
      if (rep == 0) {
        load_s = tl;
        query_s = tq;
        copied = storage::CopyStats::bytes();
      } else {
        warm_load = std::min(warm_load, tl);
        warm_query = std::min(warm_query, tq);
      }
    }
    std::printf("%-6s %-5s %10.5f %14.6f %14llu\n", m.name, "cold", load_s,
                query_s, static_cast<unsigned long long>(copied));
    std::printf("%-6s %-5s %10.5f %14.6f %14llu\n", m.name, "warm", warm_load,
                warm_query, static_cast<unsigned long long>(copied));
    for (const bool warm : {false, true}) {
      report.add()
          .str("arm", "model_store")
          .str("path", m.name)
          .str("temp", warm ? "warm" : "cold")
          .num("load_s", warm ? warm_load : load_s)
          .num("first_query_s", warm ? warm_query : query_s)
          .num("load_plus_query_s", warm ? warm_load + warm_query
                                         : load_s + query_s)
          .num("bytes_copied", static_cast<double>(copied))
          .num("file_bytes", static_cast<double>(info.header.file_bytes))
          .num("sections", static_cast<double>(info.sections.size()));
    }
  }
  std::remove(path.c_str());
  std::printf("\n");
}

// Arm 9: serve-path throughput. A trained bundle is served through
// serve::QueryEngine and hit with a Zipf-skewed user trace — a few hot
// users dominate, the regime the per-user contraction cache targets. The
// cached arm re-uses each hot user's core contraction (rank-sized dots per
// query); the uncached arm pays the full prod(R) contraction every time.
// Batched submission amortizes the cache lock and lets OpenMP spread the
// trace; answers are bit-identical across all four arms, so the numbers
// compare pure serving overhead.
void serve_qps_ablation(bool smoke, htb::JsonReport& report) {
  using namespace ht;
  std::printf("=== Ablation 9: serve-path QPS (Zipf user trace) ===\n");

  const tensor::Shape shape =
      smoke ? tensor::Shape{400, 120, 12} : tensor::Shape{4000, 600, 24};
  const tensor::nnz_t nnz = smoke ? 40000 : 1000000;
  const std::vector<tensor::index_t> ranks =
      smoke ? std::vector<tensor::index_t>{12, 10, 6}
            : std::vector<tensor::index_t>{16, 16, 8};
  const std::size_t trace_len = smoke ? 50000 : 400000;

  const auto x = tensor::random_zipf(shape, nnz, {0.9, 0.9, 0.4}, 41);
  core::HooiOptions options;
  options.ranks = ranks;
  options.max_iterations = 3;
  options.fit_tolerance = 0.0;
  auto model = core::TuckerModel::from_hooi(x, core::hooi(x, options));

  const std::string path = "bench_serve_qps.htb";
  storage::save_bundle(model, path);
  const auto served = serve::ServeModel::load(path);

  // Zipf(1.1) over users: the head of the distribution carries most of the
  // trace, exactly the skew real per-user traffic shows.
  std::vector<double> weights(shape[0]);
  for (std::size_t u = 0; u < weights.size(); ++u) {
    weights[u] = 1.0 / std::pow(static_cast<double>(u + 1), 1.1);
  }
  std::mt19937_64 rng(4243);
  std::discrete_distribution<tensor::index_t> user_dist(weights.begin(),
                                                        weights.end());
  std::uniform_int_distribution<tensor::index_t> item_dist(0, shape[1] - 1);
  std::uniform_int_distribution<tensor::index_t> ctx_dist(0, shape[2] - 1);
  std::vector<std::vector<tensor::index_t>> trace(trace_len);
  for (auto& q : trace) {
    q = {user_dist(rng), item_dist(rng), ctx_dist(rng)};
  }

  struct ArmResult {
    double qps = 0, p50_us = 0, p99_us = 0, hit_rate = 0;
  };
  auto percentile = [](std::vector<double>& lat, double p) {
    const std::size_t i = static_cast<std::size_t>(p * (lat.size() - 1));
    std::nth_element(lat.begin(), lat.begin() + i, lat.end());
    return lat[i] * 1e6;
  };

  std::printf("%-9s %-8s %12s %10s %10s %9s\n", "cache", "mode", "qps",
              "p50(us)", "p99(us)", "hit_rate");
  ArmResult cached_single, uncached_single;
  for (const std::size_t cache_entries : {std::size_t{0}, std::size_t{4096}}) {
    serve::QueryOptions qopt;
    qopt.cache_entries = cache_entries;
    const char* cache_name = cache_entries ? "on" : "off";

    // Single-query submission: per-query latency percentiles + QPS.
    {
      serve::QueryEngine engine(served, qopt);
      double sink = 0;
      // Warm-up pass populates the cache (steady-state serving, not cold
      // start, is what the arm measures).
      for (std::size_t q = 0; q < trace.size() / 10; ++q) {
        sink += engine.score(trace[q]);
      }
      std::vector<double> lat;
      lat.reserve(trace.size());
      WallTimer total;
      for (const auto& q : trace) {
        WallTimer t;
        sink += engine.score(q);
        lat.push_back(t.seconds());
      }
      const double wall = total.seconds();
      const auto cs = engine.cache_stats();
      ArmResult r;
      r.qps = static_cast<double>(trace.size()) / wall;
      r.p50_us = percentile(lat, 0.50);
      r.p99_us = percentile(lat, 0.99);
      r.hit_rate = cs.hits + cs.misses
                       ? static_cast<double>(cs.hits) / (cs.hits + cs.misses)
                       : 0.0;
      (cache_entries ? cached_single : uncached_single) = r;
      if (sink == 1e300) std::printf("unreachable\n");  // keep queries live
      std::printf("%-9s %-8s %12.0f %10.3f %10.3f %8.1f%%\n", cache_name,
                  "single", r.qps, r.p50_us, r.p99_us, 100 * r.hit_rate);
      report.add()
          .str("arm", "serve_qps")
          .str("cache", cache_name)
          .str("mode", "single")
          .num("cache_entries", static_cast<double>(cache_entries))
          .num("trace_len", static_cast<double>(trace.size()))
          .num("zipf_theta", 1.1)
          .num("qps", r.qps)
          .num("p50_us", r.p50_us)
          .num("p99_us", r.p99_us)
          .num("cache_hit_rate", r.hit_rate);
    }

    // Batched submission: the trace in page-sized chunks through
    // score_batch (per-chunk latency spread over its queries).
    {
      serve::QueryEngine engine(served, qopt);
      const std::size_t batch = 1024;
      std::vector<std::vector<tensor::index_t>> chunk;
      chunk.reserve(batch);
      std::vector<double> lat;
      double sink = 0;
      WallTimer total;
      for (std::size_t begin = 0; begin < trace.size(); begin += batch) {
        const std::size_t end = std::min(trace.size(), begin + batch);
        chunk.assign(trace.begin() + begin, trace.begin() + end);
        WallTimer t;
        const auto scores = engine.score_batch(chunk);
        const double per_query = t.seconds() / chunk.size();
        for (std::size_t q = 0; q < chunk.size(); ++q) {
          sink += scores[q];
          lat.push_back(per_query);
        }
      }
      const double wall = total.seconds();
      const auto cs = engine.cache_stats();
      const double qps = static_cast<double>(trace.size()) / wall;
      const double hit_rate =
          cs.hits + cs.misses
              ? static_cast<double>(cs.hits) / (cs.hits + cs.misses)
              : 0.0;
      if (sink == 1e300) std::printf("unreachable\n");
      std::printf("%-9s %-8s %12.0f %10.3f %10.3f %8.1f%%\n", cache_name,
                  "batched", qps, percentile(lat, 0.50), percentile(lat, 0.99),
                  100 * hit_rate);
      report.add()
          .str("arm", "serve_qps")
          .str("cache", cache_name)
          .str("mode", "batched")
          .num("cache_entries", static_cast<double>(cache_entries))
          .num("trace_len", static_cast<double>(trace.size()))
          .num("batch", static_cast<double>(batch))
          .num("zipf_theta", 1.1)
          .num("qps", qps)
          .num("p50_us", percentile(lat, 0.50))
          .num("p99_us", percentile(lat, 0.99))
          .num("cache_hit_rate", hit_rate);
    }
  }
  const double cache_win = cached_single.qps / uncached_single.qps;
  std::printf("cache win on the skewed trace: %.2fx QPS (hit rate %.1f%%)\n\n",
              cache_win, 100 * cached_single.hit_rate);
  report.add()
      .str("arm", "serve_qps_summary")
      .num("cache_qps_win", cache_win)
      .num("cache_hit_rate", cached_single.hit_rate);
  std::remove(path.c_str());
}

// Arm 11: prediction quality — masked completion vs unmasked HOOI on a
// planted rank-(5,5,5) tensor observed at 1% with Gaussian noise of known
// sigma. Because the generator normalizes the clean signal to unit RMS,
// noise_sigma IS the held-out noise floor: a solver that recovers the
// planted factors lands at RMSE ~ sigma, one that fits the implicit zeros
// (unmasked HOOI's objective) cannot. The full-size arm reproduces the
// core_completion_test acceptance pin (masked <= 1.15x the floor, unmasked
// > 3x masked); the smoke arm runs the same recipe on a smaller tensor
// kept above the mask-density recovery threshold.
void completion_ablation(bool smoke, htb::JsonReport& report) {
  using namespace ht;
  std::printf("=== Ablation 11: masked completion vs unmasked HOOI ===\n");
  const tensor::Shape shape =
      smoke ? tensor::Shape{120, 90, 70} : tensor::Shape{220, 170, 110};
  const tensor::nnz_t target_nnz = smoke ? 28000 : 41140;  // ~1% observed
  const tensor::Shape ranks{5, 5, 5};
  const double noise = 0.1;

  const auto planted = tensor::random_low_rank(shape, target_nnz, ranks,
                                               noise, 38);
  core::SplitOptions split_options;
  split_options.validation_fraction = 0.1;
  split_options.test_fraction = 0.1;
  split_options.seed = 39;
  const auto split = core::split_tensor(planted.tensor, split_options);

  const auto observed_fit = [](const tensor::CooTensor& x, double rmse) {
    double norm_sq = 0;
    for (const double v : x.values()) norm_sq += v * v;
    const double sse = rmse * rmse * static_cast<double>(x.nnz());
    return 1.0 - std::sqrt(sse / norm_sq);
  };

  // Masked: the completion solver with the ridge-annealed schedule the
  // acceptance test pins.
  core::CompletionOptions copt;
  copt.ranks = {5, 5, 5};
  copt.max_sweeps = 40;
  copt.lambda = 0.01;
  copt.lambda_anneal_factor = 100.0;
  copt.lambda_anneal_sweeps = 20;
  copt.core_cg_iterations = 8;
  copt.objective_tolerance = 1e-8;
  copt.early_stopping_patience = 0;
  WallTimer t_masked;
  const auto masked = core::tucker_complete(split.train, &split.validation,
                                            copt);
  const double masked_s = t_masked.seconds();
  const auto masked_eval = core::evaluate_model(split.test,
                                                masked.decomposition);

  // Unmasked: HOOI at the same ranks on the same training entries.
  core::HooiOptions hopt;
  hopt.ranks = {5, 5, 5};
  hopt.max_iterations = 20;
  hopt.fit_tolerance = 1e-6;
  WallTimer t_hooi;
  const auto unmasked = core::hooi(split.train, hopt);
  const double unmasked_s = t_hooi.seconds();
  const auto unmasked_eval = core::evaluate_model(split.test,
                                                  unmasked.decomposition);

  std::printf("%-9s %8s %8s %10s %12s %10s %9s\n", "solver", "sweeps",
              "fit", "train(s)", "test_rmse", "vs_noise", "floor");
  struct Row {
    const char* name;
    int sweeps;
    double fit, train_s, rmse;
  };
  const Row rows[] = {
      {"masked", masked.sweeps,
       observed_fit(split.train, masked.final_train_rmse()), masked_s,
       masked_eval.rmse},
      {"unmasked", unmasked.iterations, unmasked.final_fit(), unmasked_s,
       unmasked_eval.rmse},
  };
  for (const Row& r : rows) {
    std::printf("%-9s %8d %8.4f %10.3f %12.4f %9.2fx %9.2f\n", r.name,
                r.sweeps, r.fit, r.train_s, r.rmse,
                r.rmse / planted.noise_sigma, planted.noise_sigma);
    report.add()
        .str("arm", "completion")
        .str("solver", r.name)
        .num("nnz", static_cast<double>(planted.tensor.nnz()))
        .num("train_nnz", static_cast<double>(split.train.nnz()))
        .num("test_nnz", static_cast<double>(split.test.nnz()))
        .num("rank", 5)
        .num("noise_sigma", planted.noise_sigma)
        .num("sweeps", r.sweeps)
        .num("fit", r.fit)
        .num("train_s", r.train_s)
        .num("test_rmse", r.rmse)
        .num("rmse_vs_noise", r.rmse / planted.noise_sigma);
  }
  const double gap = unmasked_eval.rmse / masked_eval.rmse;
  std::printf("masked reaches %.2fx the noise floor; unmasked held-out RMSE "
              "is %.1fx the masked one\n\n",
              masked_eval.rmse / planted.noise_sigma, gap);
  report.add()
      .str("arm", "completion_summary")
      .num("masked_vs_noise", masked_eval.rmse / planted.noise_sigma)
      .num("unmasked_vs_masked", gap)
      .num("masked_within_1p15_floor",
           masked_eval.rmse <= 1.15 * planted.noise_sigma ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ht;

  htb::JsonReport report(htb::json_path_from_args(argc, argv));
  fiber_length_ablation(htb::bench_smoke(), report);
  csf_kernel_ablation(htb::bench_smoke(), report);
  trsvd_backend_ablation(htb::bench_smoke(), report);
  model_store_ablation(htb::bench_smoke(), report);
  serve_qps_ablation(htb::bench_smoke(), report);
  completion_ablation(htb::bench_smoke(), report);

  // Arms 1-3 run on the netflix preset; smoke shrinks it to ~8k nonzeros.
  const auto bt = htb::load_preset("netflix", htb::bench_smoke() ? 0.02 : 0.25);
  const auto& x = bt.tensor;
  const auto& ranks = bt.spec.ranks;

  // ---- 1. symbolic reuse --------------------------------------------------
  std::printf("=== Ablation 1: symbolic TTMc reuse ===\n");
  // The reusable preprocessing is the whole TTMc plan (kAuto's CSF forest,
  // not rank-dependent); the reuse arms below pass it to hooi so no
  // per-call rebuild pollutes the numbers.
  const core::TtmcPlan plan = core::TtmcPlan::build(x);
  const double sym_s = plan.build_seconds;

  core::HooiOptions options;
  options.ranks = ranks;
  options.max_iterations = htb::bench_iters();
  options.fit_tolerance = 0.0;
  WallTimer t_iters;
  const auto run = core::hooi(x, options, plan);
  const double per_iter = t_iters.seconds() / run.iterations;
  std::printf("symbolic build: %.3fs; numeric iteration: %.3fs "
              "(symbolic pays for itself after %.1f iterations)\n",
              sym_s, per_iter, sym_s / per_iter);
  report.add()
      .str("arm", "symbolic_reuse")
      .num("symbolic_s", sym_s)
      .num("iteration_s", per_iter)
      .num("breakeven_iterations", sym_s / per_iter);

  // Reuse across rank choices (paper: "computed once and used for all
  // these executions").
  WallTimer t_reuse;
  for (tensor::index_t r : {4, 6, 8}) {
    core::HooiOptions o = options;
    o.ranks.assign(x.order(), r);
    o.max_iterations = 2;
    (void)core::hooi(x, o, plan);
  }
  const double reuse_s = t_reuse.seconds();
  WallTimer t_rebuild;
  for (tensor::index_t r : {4, 6, 8}) {
    core::HooiOptions o = options;
    o.ranks.assign(x.order(), r);
    o.max_iterations = 2;
    (void)core::hooi(x, o);  // rebuilds the plan internally
  }
  const double rebuild_s = t_rebuild.seconds();
  std::printf("3 rank sweeps: reuse %.2fs vs rebuild %.2fs (%.2fx)\n\n",
              reuse_s, rebuild_s, rebuild_s / reuse_s);
  report.add()
      .str("arm", "symbolic_reuse_sweep")
      .num("reuse_s", reuse_s)
      .num("rebuild_s", rebuild_s)
      .num("speedup", rebuild_s / reuse_s);

  // ---- 2. dynamic vs static scheduling -----------------------------------
  std::printf("=== Ablation 2: TTMc row-loop scheduling (skewed tensor) ===\n");
  std::vector<la::Matrix> factors;
  {
    core::HooiOptions o = options;
    o.max_iterations = 1;
    factors = core::hooi(x, o, plan).decomposition.factors;
  }
  // One kAuto plan per schedule: the arm times the kernel HOOI runs.
  for (const auto schedule :
       {core::Schedule::kDynamic, core::Schedule::kStatic}) {
    const core::TtmcPlan sched_plan =
        core::TtmcPlan::build(x, {.schedule = schedule});
    la::Matrix y;
    WallTimer t;
    const int reps = 5;
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t n = 0; n < x.order(); ++n) {
        sched_plan.ttmc(x, factors, n, y);
      }
    }
    std::printf("%s: %.3fs for %d full TTMc sweeps (%s kernel)\n",
                schedule == core::Schedule::kDynamic ? "dynamic" : "static ",
                t.seconds(), reps, kernel_name(sched_plan.kernel()));
    report.add()
        .str("arm", "schedule")
        .str("schedule",
             schedule == core::Schedule::kDynamic ? "dynamic" : "static")
        .str("kernel", kernel_name(sched_plan.kernel()))
        .num("seconds", t.seconds())
        .num("sweeps", reps);
  }
  std::printf("\n");

  // ---- 3. Lanczos vs Gram TRSVD -------------------------------------------
  std::printf("=== Ablation 3: TRSVD method on Y(1) ===\n");
  la::Matrix y;
  plan.ttmc(x, factors, 0, y);
  for (const auto method :
       {core::TrsvdMethod::kLanczos, core::TrsvdMethod::kGram}) {
    WallTimer t;
    const auto res =
        core::trsvd_factor(y, plan.rows(0), x.dim(0), ranks[0], method);
    std::printf("%s: %.3fs (sigma_1 = %.4f, steps = %zu)\n",
                method == core::TrsvdMethod::kLanczos ? "lanczos" : "gram   ",
                t.seconds(), res.sigma[0], res.solver_steps);
    report.add()
        .str("arm", "trsvd_method")
        .str("method",
             method == core::TrsvdMethod::kLanczos ? "lanczos" : "gram")
        .num("seconds", t.seconds())
        .num("sigma_1", res.sigma[0])
        .num("steps", static_cast<double>(res.solver_steps));
  }
  report.write();
  return 0;
}
