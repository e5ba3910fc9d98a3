// bench_e2e: the repository's end-to-end benchmark (see README.md beside
// this file for the metric definitions and why each workload exists).
//
//   bench_e2e prepare --workload W --seed S [--work DIR] [--smoke]
//   bench_e2e run     --workload W --seed S [--work DIR] [--smoke]
//                     [--seconds T] [--trace DIR] [--json FILE]
//   bench_e2e --all   --seed S [--workload W]... [--json FILE] [run flags]
//
// `prepare` writes a workload's generated inputs; `run` reads only those
// and times the whole user pipeline from outside, around public calls:
//   .tns ingest -> HOOI (shared-memory or distributed) -> TuckerModel ->
//   .htb bundle save/load -> the real tuckerd binary over loopback.
// A run is a warm-up, then rounds of one training rep plus a slice of
// serving load, for --seconds; every metric is a median over the rounds.
// Every output is checked; any failed check makes `run` exit nonzero.
// `--all` runs each workload in its own child processes, so peak RSS is
// per workload.
//
// The benchmark sets only ranks, sweep counts, fit_tolerance = 0 and thread
// or rank counts. Everything else is the library's default, and no kernel,
// strategy or TRSVD variant is named here, so variants behind the defaults
// can be refactored or deleted without touching this file.
#include <link.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/hooi.hpp"
#include "core/tucker_model.hpp"
#include "dist/dist_hooi.hpp"
#include "dist/partition_plan.hpp"
#include "la/blas.hpp"
#include "loadgen.hpp"
#include "parallel/thread_info.hpp"
#include "report.hpp"
#include "serve/dispatcher.hpp"
#include "serve/model_handle.hpp"
#include "serve/query_engine.hpp"
#include "serve/serve_model.hpp"
#include "storage/bundle.hpp"
#include "tensor/generators.hpp"
#include "tensor/io.hpp"
#include "util/random.hpp"
#include "util/version.hpp"

#ifndef HT_TUCKERD_PATH
#error "HT_TUCKERD_PATH must name the tuckerd binary (set by CMakeLists.txt)"
#endif

namespace {

namespace fs = std::filesystem;
using bench::Clock;
using bench::Metrics;
using bench::seconds_since;
using ht::tensor::CooTensor;
using ht::tensor::index_t;
using ht::tensor::Shape;

// ---- workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  /// Paper preset the tensor comes from ("" = fibered generator).
  std::string preset;
  double scale;        // preset scale (full size)
  bool distributed;    // dist_hooi over simulated ranks instead of core::hooi
  std::vector<index_t> ranks;
  int sweeps;
};

// A run measures several inputs drawn from its seed, so that its medians do
// not hang on one draw: the Lanczos iteration counts, and with them the
// sweep times, differ by up to 20% between single draws of one preset.
constexpr int kInputs = 5;           // smoke: 2
// Thread counts stay at half the 4 vCPUs the bounds were measured on: a
// parallel region or spinning barrier that needs every vCPU of a shared
// host at once measures the host's other tenants.
constexpr int kTrainThreads = 2;     // OpenMP threads of core::hooi
constexpr int kDistRanks = 2;        // simulated ranks, one thread each
constexpr int kReadySpawns = 3;      // tuckerd spawns timed for setup
constexpr double kOpenRate = 20000;  // open-loop requests per second
constexpr double kSmokeRate = 4000;
constexpr double kTopkShare = 0.05;  // rest of the mix is SCORE
constexpr std::size_t kTopkK = 10;
constexpr double kZipfExponent = 1.1;
constexpr int kOpenConnections = 1;   // persistent open-loop connections
constexpr int kClosedConnections = 1;
constexpr int kClosedDepth = 16;      // closed-loop pipeline depth
constexpr double kOpenSliceS = 0.4;   // open loop per round
constexpr double kClosedBurstS = 0.2; // closed loop per round
constexpr int kTraceSlices = 12;      // distinct open-loop slices; later rounds reuse them
// Tail latency and throughput are reported as medians over short windows:
// a shared 4-vCPU VM stalls for milliseconds at random (a spinning thread
// on an otherwise idle one lost ~0.6% of its time in >100 us gaps), and a
// few such stalls hold more than 1% of a run's requests, which would make a
// whole-run tail percentile measure the stalls rather than the server.
constexpr double kLatencyWindowS = 0.2;  // 4000 requests: 400 beyond p90
constexpr double kQpsWindowS = 0.1;
constexpr std::size_t kStreamCapBytes = std::size_t{256} << 20;
constexpr std::size_t kDgemmN = 2048;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"fibered-3d", "", 1.0, false, {10, 10, 10}, 10},
      {"flickr-4d", "flickr", 1.0, false, {5, 5, 5, 5}, 5},
      {"dist-2rank", "delicious", 0.5, true, {5, 5, 5, 5}, 5},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

/// Seed of input k of a run; input 0 uses the run's seed itself.
std::uint64_t input_seed(std::uint64_t seed, int k) {
  return seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(k);
}

CooTensor generate(const Workload& w, bool smoke, std::uint64_t seed) {
  if (w.preset.empty()) {
    // 3000 x 3000 x 5000, 1M nonzeros in last-mode fibers of length 4.
    const Shape shape = smoke ? Shape{300, 300, 500} : Shape{3000, 3000, 5000};
    CooTensor x = ht::tensor::random_fibered(shape, smoke ? 5000 : 250000,
                                             /*fiber_len=*/4, seed);
    ht::tensor::plant_low_rank_values(x, /*cp_rank=*/10, /*noise=*/0.1,
                                      seed ^ 0x9e3779b97f4a7c15ULL);
    return x;
  }
  return ht::tensor::generate_preset(
      ht::tensor::paper_preset(w.preset, smoke ? 0.05 : w.scale), seed);
}

// ---- command line ------------------------------------------------------------

struct Args {
  std::string mode;  // prepare | run | all
  std::vector<std::string> workloads;
  std::uint64_t seed = 1;
  bool seed_given = false;
  std::string work = ".bench_e2e";
  bool smoke = false;
  double seconds = 30;  // BENCHMARK.json run_seconds
  std::string trace_dir;
  std::string json;
  bool corrupt_expected = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e prepare --workload W --seed S [--work DIR] [--smoke]\n"
               "       bench_e2e run --workload W --seed S [--work DIR] [--smoke]\n"
               "                 [--seconds T] [--trace DIR] [--json FILE]\n"
               "                 [--corrupt-expected]   (test hook: must fail)\n"
               "       bench_e2e --all --seed S [--workload W]... [--json FILE]\n"
               "                 [--work DIR] [--smoke] [--seconds T] [--trace DIR]\n"
               "workloads: fibered-3d flickr-4d dist-2rank\n",
               error.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "prepare" || arg == "run") {
      a.mode = arg;
    } else if (arg == "--all") {
      a.mode = "all";
    } else if (arg == "--workload") {
      a.workloads.push_back(value());
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
      a.seed_given = true;
    } else if (arg == "--work") {
      a.work = value();
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--seconds") {
      a.seconds = std::atof(value().c_str());
      if (!(a.seconds > 0)) usage("--seconds must be positive");
    } else if (arg == "--trace") {
      a.trace_dir = value();
    } else if (arg == "--json") {
      a.json = value();
    } else if (arg == "--corrupt-expected") {
      a.corrupt_expected = true;  // test hook: the run must then fail
    } else {
      usage("unknown argument '" + arg + "'");
    }
  }
  if (a.mode.empty()) usage("no mode given");
  if (!a.seed_given) usage("--seed is required");
  if (a.mode != "all" && a.workloads.size() != 1) usage("give exactly one --workload");
  for (const auto& w : a.workloads) {
    if (find_workload(w) == nullptr) usage("unknown workload '" + w + "'");
  }
  return a;
}

std::string data_dir(const Args& a, const std::string& workload) {
  return a.work + "/" + workload + "-s" + std::to_string(a.seed) +
         (a.smoke ? "-smoke" : "");
}

int input_count(const Args& a) { return a.smoke ? 2 : kInputs; }

std::string tns_path(const std::string& dir, int k) {
  return dir + "/tensor-" + std::to_string(k) + ".tns";
}

// ---- checks ------------------------------------------------------------------

/// Every checked operation: a request answered, a fit compared, a bundle
/// round trip. `failed` counts wrong answers, errors, timeouts and failed
/// checks alike.
class Checks {
 public:
  void expect(bool ok, const std::string& what) { add(1, ok ? 0 : 1, what); }
  void add(std::uint64_t attempted, std::uint64_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0) {
      std::fprintf(stderr, "bench_e2e: CHECK FAILED (%llu of %llu): %s\n",
                   static_cast<unsigned long long>(failed),
                   static_cast<unsigned long long>(attempted), what.c_str());
      if (failures_.size() < 16) failures_.push_back(what);
    }
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// ---- training pipeline -------------------------------------------------------

/// One read -> train -> package -> save pass.
struct Rep {
  double read_s = 0;
  double setup_s = 0;    // read + everything before the first sweep
  double solve_s = 0;    // tensor read -> bundle saved
  double sweep_s = 0;    // per sweep
  double ttmc_s = 0;     // per sweep
  double trsvd_s = 0;    // per sweep
  double core_s = 0;     // per sweep
  double save_s = 0;
  double partition_s = 0;   // distributed only
  double rank_plans_s = 0;  // distributed only
  double fit = 0;
  int iterations = 0;
  std::uint64_t comm_entries = 0;  // per sweep, distributed only
  std::uint64_t trsvd_rounds = 0;  // per sweep, distributed only
  double ttmc_imbalance = 1.0;     // max over modes of max/avg rank load
};

/// Structure of the input, for the computed TTMc flop and byte counts.
struct InputStats {
  std::uint64_t nnz = 0;
  std::vector<std::uint64_t> nonempty_rows;  // per mode
  double tns_bytes = 0;
};

InputStats input_stats(const CooTensor& x, const std::string& tns) {
  InputStats s;
  s.nnz = x.nnz();
  for (std::size_t n = 0; n < x.order(); ++n) {
    const auto counts = x.slice_nnz(n);
    s.nonempty_rows.push_back(static_cast<std::uint64_t>(
        std::count_if(counts.begin(), counts.end(), [](auto c) { return c > 0; })));
  }
  s.tns_bytes = static_cast<double>(fs::file_size(tns));
  return s;
}

Rep train_rep(const Workload& w, const std::string& tns, const std::string& bundle,
              bench::Tracer& tracer, std::optional<InputStats>* stats,
              ht::core::TuckerModel* model_out) {
  auto rep_span = tracer.span("pipeline_rep");
  Rep rep;
  const auto t0 = Clock::now();
  CooTensor x;
  {
    auto s = tracer.span("tensor.io.read_tns_file");
    x = ht::tensor::read_tns_file(tns);
  }
  rep.read_s = seconds_since(t0);
  if (stats != nullptr && !stats->has_value()) *stats = input_stats(x, tns);

  ht::core::TuckerModel model;
  if (!w.distributed) {
    ht::core::HooiOptions opt;
    opt.ranks = w.ranks;
    opt.max_iterations = w.sweeps;
    opt.fit_tolerance = 0;
    opt.num_threads = kTrainThreads;
    const auto th = Clock::now();
    ht::core::HooiResult res;
    {
      auto s = tracer.span("core.hooi");
      res = ht::core::hooi(x, opt);
    }
    const double hooi_s = seconds_since(th);
    const double its = std::max(res.iterations, 1);
    rep.iterations = res.iterations;
    rep.setup_s = rep.read_s + (hooi_s - res.timers.iteration_total());
    rep.sweep_s = res.timers.iteration_total() / its;
    rep.ttmc_s = res.timers.ttmc / its;
    rep.trsvd_s = res.timers.trsvd / its;
    rep.core_s = res.timers.core / its;
    rep.fit = res.final_fit();
    auto s = tracer.span("core.TuckerModel.from_hooi");
    model = ht::core::TuckerModel::from_hooi(x, std::move(res));
  } else {
    ht::dist::PlanOptions popt;
    popt.num_ranks = kDistRanks;
    ht::dist::DistHooiOptions opt;
    opt.ranks = w.ranks;
    opt.num_ranks = kDistRanks;
    opt.threads_per_rank = 1;
    opt.max_iterations = w.sweeps;
    opt.fit_tolerance = 0;
    auto tp = Clock::now();
    ht::dist::GlobalPlan gplan;
    {
      auto s = tracer.span("dist.build_global_plan");
      gplan = ht::dist::build_global_plan(x, popt);
    }
    rep.partition_s = seconds_since(tp);
    tp = Clock::now();
    std::vector<ht::dist::RankPlan> rplans;
    {
      auto s = tracer.span("dist.build_rank_plans");
      rplans = ht::dist::build_rank_plans(x, gplan, w.ranks, opt.seed);
    }
    rep.rank_plans_s = seconds_since(tp);
    const auto th = Clock::now();
    ht::dist::DistHooiResult res;
    {
      auto s = tracer.span("dist.dist_hooi");
      res = ht::dist::dist_hooi(x, opt, gplan, rplans);
    }
    const double hooi_s = seconds_since(th);
    const double its = std::max(res.iterations, 1);
    rep.iterations = res.iterations;
    rep.sweep_s = res.seconds_per_iteration;
    rep.setup_s = rep.read_s + rep.partition_s + rep.rank_plans_s +
                  (hooi_s - res.seconds_per_iteration * its);
    rep.ttmc_s = res.timers.ttmc / its;
    rep.trsvd_s = res.timers.trsvd / its;
    rep.core_s = res.timers.core / its;
    rep.fit = res.fits.empty() ? 0.0 : res.fits.back();
    rep.comm_entries = res.stats.total_comm_entries();
    rep.trsvd_rounds = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(res.stats.total_trsvd_rounds()) / its));
    rep.ttmc_imbalance = 0;
    for (std::size_t n = 0; n < res.stats.modes(); ++n) {
      rep.ttmc_imbalance =
          std::max(rep.ttmc_imbalance, res.stats.ttmc_summary(n).imbalance());
    }
    auto s = tracer.span("core.TuckerModel.assemble");
    model.decomposition = std::move(res.decomposition);
    model.dims = x.shape();
    model.fit = rep.fit;
    model.provenance = ht::core::TuckerModel::build_provenance();
  }
  const auto ts = Clock::now();
  {
    auto s = tracer.span("storage.save_bundle");
    ht::storage::save_bundle(model, bundle);
  }
  rep.save_s = seconds_since(ts);
  rep.solve_s = seconds_since(t0) - rep.read_s;
  if (model_out != nullptr) *model_out = std::move(model);
  return rep;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_model(const ht::core::TuckerModel& a, const ht::core::TuckerModel& b) {
  if (a.order() != b.order() || a.dims != b.dims ||
      std::memcmp(&a.fit, &b.fit, sizeof(double)) != 0) {
    return false;
  }
  for (std::size_t n = 0; n < a.order(); ++n) {
    const auto& fa = a.decomposition.factors[n];
    const auto& fb = b.decomposition.factors[n];
    if (fa.rows() != fb.rows() || fa.cols() != fb.cols() ||
        !same_bits({fa.data(), fa.rows() * fa.cols()}, {fb.data(), fb.rows() * fb.cols()})) {
      return false;
    }
  }
  return a.decomposition.core.shape() == b.decomposition.core.shape() &&
         same_bits(a.decomposition.core.flat(), b.decomposition.core.flat());
}

// ---- serving -----------------------------------------------------------------

std::string expected_score(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "OK %.17g", v);
  return buf;
}

std::string expected_topk(const std::vector<ht::serve::Scored>& items) {
  std::string out = "OK";
  char buf[64];
  for (const auto& s : items) {
    std::snprintf(buf, sizeof buf, " %u:%.17g", s.item, s.score);
    out += buf;
  }
  return out;
}

struct Trace {
  std::vector<bench::Request> requests;
  std::vector<double> score_us;  // in-process QueryEngine time per call
  std::vector<double> topk_us;
  double cache_hit_rate = 0;
};

/// The request mix: 95% SCORE, 5% TOPK k=10; users Zipf(1.1) through a
/// seeded permutation (popularity is not index order), every other
/// coordinate uniform. Expected answers come from an in-process QueryEngine
/// on the same bundle with the daemon's default options, formatted with
/// %.17g so the wire must round-trip every double exactly.
Trace make_trace(const std::string& bundle, std::size_t count, std::uint64_t seed) {
  ht::serve::QueryEngine engine(ht::serve::ServeModel::load(bundle),
                                ht::serve::QueryOptions{});
  const Shape& dims = engine.model().dims();
  ht::Rng rng(seed ^ 0x5e7e5e7e5e7eULL);

  const std::size_t users = dims[0];
  std::vector<double> cdf(users);
  double acc = 0;
  for (std::size_t k = 0; k < users; ++k) {
    acc += std::pow(static_cast<double>(k + 1), -kZipfExponent);
    cdf[k] = acc;
  }
  std::vector<index_t> user_of_rank(users);
  std::iota(user_of_rank.begin(), user_of_rank.end(), index_t{0});
  for (std::size_t k = users; k > 1; --k) {
    std::swap(user_of_rank[k - 1], user_of_rank[rng.below(k)]);
  }

  Trace t;
  t.requests.reserve(count);
  std::vector<index_t> idx(dims.size()), rest;
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng.uniform() * acc;
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    idx[0] = user_of_rank[std::min(rank, users - 1)];
    for (std::size_t n = 1; n < dims.size(); ++n) {
      idx[n] = static_cast<index_t>(rng.below(dims[n]));
    }
    bench::Request r;
    if (rng.uniform() < kTopkShare) {
      rest.assign(idx.begin() + 2, idx.end());
      r.line = "TOPK " + std::to_string(idx[0]) + " " + std::to_string(kTopkK);
      for (const index_t c : rest) r.line += " " + std::to_string(c);
      const auto q0 = Clock::now();
      const auto top = engine.topk(idx[0], kTopkK, rest);
      t.topk_us.push_back(seconds_since(q0) * 1e6);
      r.expected = expected_topk(top);
    } else {
      r.line = "SCORE";
      for (const index_t c : idx) r.line += " " + std::to_string(c);
      const auto q0 = Clock::now();
      const double v = engine.score(idx);
      t.score_us.push_back(seconds_since(q0) * 1e6);
      r.expected = expected_score(v);
    }
    t.requests.push_back(std::move(r));
  }
  const auto cs = engine.cache_stats();
  t.cache_hit_rate = static_cast<double>(cs.hits) /
                     static_cast<double>(std::max<std::uint64_t>(cs.hits + cs.misses, 1));
  return t;
}

/// "key=value" field of a protocol response line; NaN when absent.
double response_field(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nan("");
  return std::atof(line.c_str() + pos + needle.size());
}

// ---- machine probes (traced runs) ---------------------------------------------

std::size_t llc_bytes() {
  for (const int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = ::sysconf(name);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 0;
}

std::string loaded_libgomp() {
  std::string path;
  ::dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* out) -> int {
        if (info->dlpi_name != nullptr && std::strstr(info->dlpi_name, "libgomp") != nullptr) {
          *static_cast<std::string*>(out) = info->dlpi_name;
          return 1;
        }
        return 0;
      },
      &path);
  return path.empty() ? "none" : path;
}

/// STREAM triad a = b + s*c, best of 5, counting 3 arrays of traffic.
double stream_triad_gbps(std::size_t bytes_per_array) {
  const std::size_t n = bytes_per_array / sizeof(double);
  std::vector<double> a(n), b(n, 1.0), c(n, 2.0);
  const double s = 3.0;
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    best = std::min(best, seconds_since(t0));
  }
  if (a[n / 2] != 7.0) throw std::runtime_error("stream triad computed a wrong value");
  return 3.0 * static_cast<double>(n * sizeof(double)) / best / 1e9;
}

/// la::gemm_into on n x n operands, one timed call after a small warm-up.
double dgemm_gflops(std::size_t n) {
  auto fill = [](std::size_t dim, double phase) {
    std::vector<double> v(dim * dim);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = std::sin(phase + static_cast<double>(i % 977));
    return ht::la::Matrix(dim, dim, std::move(v));
  };
  ht::la::Matrix c;
  ht::la::gemm_into(fill(128, 0.1), fill(128, 0.2), c);
  const auto a = fill(n, 0.3), b = fill(n, 0.7);
  const auto t0 = Clock::now();
  ht::la::gemm_into(a, b, c);
  const double secs = seconds_since(t0);
  return 2.0 * std::pow(static_cast<double>(n), 3) / secs / 1e9;
}

/// Peak resident memory of this process since it started or since the
/// last reset_peak_rss(), in MB (VmHWM of /proc/self/status).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;  // in kB
  }
  return std::nan("");
}

/// Host speed probe: the median of five timings of a fixed serial chain of
/// 2M multiply-adds, in ms. Nothing in the repository changes it; when it
/// moves between runs, the host did.
double ref_loop_ms() {
  std::vector<double> ms;
  for (int k = 0; k < 5; ++k) {
    const auto t0 = Clock::now();
    volatile double seed = 1.0;
    double acc = seed;
    for (int i = 0; i < 2000000; ++i) acc = acc * 1.0000001 + 1e-9;
    seed = acc;
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return bench::median(ms);
}

/// Start a new peak for peak_rss_mb() (Linux's clear_refs "5").
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// ---- the run -------------------------------------------------------------------

std::string env_json(const Args& a, std::size_t stream_bytes) {
  return bench::JsonObject()
      .str("version", ht::kVersion)
      .str("git_hash", ht::kGitHash)
      .str("build_type", ht::kBuildType)
      .str("compiler", ht::kCompiler)
      .str("compile_flags", ht::kCompileFlags)
      .integer("nproc", static_cast<long long>(std::thread::hardware_concurrency()))
      .integer("omp_max_threads", ht::parallel::max_threads())
      .integer("llc_bytes", static_cast<long long>(llc_bytes()))
      .integer("stream_array_bytes", static_cast<long long>(stream_bytes))
      .str("libgomp", loaded_libgomp())
      .integer("seed", static_cast<long long>(a.seed))
      .boolean("smoke", a.smoke)
      .num("seconds", a.seconds)
      .dump();
}

int run(const Args& a) {
  const Workload& w = *find_workload(a.workloads[0]);
  const std::string kBuildType = ht::kBuildType;
  if (!a.smoke && kBuildType != "Release") {
    std::fprintf(stderr,
                 "bench_e2e: refusing to report gated numbers from a '%s' build;"
                 " configure with -DCMAKE_BUILD_TYPE=Release (or pass --smoke)\n",
                 kBuildType.c_str());
    return 2;
  }
  const std::string dir = data_dir(a, w.name);
  const int inputs = input_count(a);
  const std::string served = dir + "/model.htb";  // the warm-up's model; tuckerd serves it
  const std::string saved = dir + "/rep.htb";     // each measured rep's model
  if (!fs::exists(dir + "/prepared")) {
    std::fprintf(stderr, "bench_e2e: %s is not prepared; run `bench_e2e prepare` first\n",
                 dir.c_str());
    return 2;
  }
  const bool traced = !a.trace_dir.empty();
  bench::Tracer tracer(traced);
  Checks checks;
  Metrics e2e, layers, extra;
  bench::JsonObject samples;

  // Warm-up: one discarded training rep on input 0, whose bundle is the
  // model served for the rest of the run.
  std::optional<InputStats> stats;
  const Rep warm = train_rep(w, tns_path(dir, 0), served, tracer, &stats, nullptr);

  // Serving set-up: the request trace with its expected answers (computed
  // in process), tuckerd spawned kReadySpawns times to time readiness, the
  // last one kept, and a short warm-up on it.
  const double rate = a.smoke ? kSmokeRate : kOpenRate;
  const double latency_window_s = a.smoke ? 0.1 : kLatencyWindowS;
  const auto per_slice = static_cast<std::size_t>(std::llround(rate * kOpenSliceS));
  Trace trace;
  {
    auto s = tracer.span("serve.query_engine.replay");
    trace = make_trace(served, per_slice * kTraceSlices, a.seed);
  }
  if (a.corrupt_expected) trace.requests[trace.requests.size() / 3].expected += "0";

  std::vector<double> ready_s;
  std::optional<bench::Daemon> daemon;
  for (int i = 0; i + 1 < kReadySpawns; ++i) {
    auto s = tracer.span("serve.tuckerd.spawn_ready");
    bench::Daemon probe(HT_TUCKERD_PATH, served);
    ready_s.push_back(probe.ready_s());
    checks.expect(probe.shutdown(), "tuckerd did not shut down cleanly");
  }
  {
    auto s = tracer.span("serve.tuckerd.spawn_ready");
    daemon.emplace(HT_TUCKERD_PATH, served);
  }
  ready_s.push_back(daemon->ready_s());
  const std::string info = daemon->request("INFO");
  checks.expect(info.rfind("OK epoch=1 order=" + std::to_string(w.ranks.size()), 0) == 0,
                "unexpected INFO response '" + info + "'");
  {
    // Fault the bundle in and start the server's threads.
    auto s = tracer.span("serve.warmup");
    const std::span<const bench::Request> head(
        trace.requests.data(), std::min<std::size_t>(trace.requests.size(), 2000));
    const auto r = bench::run_closed_loop(daemon->port(), head, 0, kOpenConnections, 1, 0.1,
                                          kQpsWindowS);
    checks.add(r.completed + r.missing, r.wrong + r.missing, "warm-up answers");
  }

  // Measured rounds, for --seconds and at least one per input. Each is one
  // training rep on the next input, then a slice of the open loop and a
  // closed-loop burst on fresh connections, so every metric samples the
  // whole run rather than one stretch of it, and a busy spell of the host
  // moves a minority of each metric's samples instead of all of them.
  const auto per_window = static_cast<std::size_t>(std::llround(rate * latency_window_s));
  // Quantile q of each whole window of `v`, appended to `out`.
  auto window_quantiles = [&](const std::vector<double>& v, double q, std::vector<double>& out) {
    for (std::size_t i = 0; i + per_window <= v.size(); i += per_window) {
      out.push_back(bench::quantile({v.begin() + static_cast<long>(i),
                                     v.begin() + static_cast<long>(i + per_window)},
                                    q));
    }
  };
  std::vector<Rep> reps;
  ht::core::TuckerModel trained;
  std::vector<double> latency_us, window_p90, window_p99, window_lag_p99, window_qps;
  std::vector<double> round_rss_mb, round_ref_ms;
  std::uint64_t open_answered = 0, closed_completed = 0;
  std::string reload_response = "(not sent)";
  double reload_ms = 0;
  const auto rounds_t0 = Clock::now();
  int rounds = 0;
  // Stop at the round boundary nearest to --seconds.
  while (rounds < inputs ||
         (!a.smoke && seconds_since(rounds_t0) * (1.0 + 0.5 / rounds) < a.seconds)) {
    const int r = rounds++;
    auto round_span = tracer.span("round");
    reset_peak_rss();
    reps.push_back(train_rep(w, tns_path(dir, r % inputs), saved, tracer, nullptr, &trained));

    const std::size_t lo = per_slice * static_cast<std::size_t>(r % kTraceSlices);
    const bool reload = r == inputs / 2;  // the write beside the reads
    bench::OpenLoopResult open;
    {
      auto s = tracer.span("serve.open_loop");
      open = bench::run_open_loop(daemon->port(), {trace.requests.data() + lo, per_slice}, rate,
                                  kOpenConnections, reload ? 0.5 * kOpenSliceS : -1.0,
                                  /*drain_s=*/5.0);
    }
    checks.add(per_slice, open.wrong + (per_slice - open.answered),
               "open-loop answers (" + std::to_string(open.wrong) + " wrong, " +
                   std::to_string(per_slice - open.answered) + " missing)" +
                   (open.mismatches.empty() ? "" : ": " + open.mismatches.front()));
    if (reload) {
      reload_response = open.reload_response;
      reload_ms = open.reload_ms;
    }
    open_answered += open.answered;
    latency_us.insert(latency_us.end(), open.latency_us.begin(), open.latency_us.end());
    window_quantiles(open.latency_us, 0.90, window_p90);
    window_quantiles(open.latency_us, 0.99, window_p99);
    window_quantiles(open.lag_us, 0.99, window_lag_p99);

    bench::ClosedLoopResult closed;
    {
      auto s = tracer.span("serve.closed_loop");
      closed = bench::run_closed_loop(daemon->port(), trace.requests, lo, kClosedConnections,
                                      kClosedDepth, kClosedBurstS, kQpsWindowS);
    }
    checks.add(closed.completed + closed.missing, closed.wrong + closed.missing,
               "closed-loop answers" +
                   (closed.mismatches.empty() ? "" : ": " + closed.mismatches.front()));
    closed_completed += closed.completed;
    for (const auto c : closed.per_window) {
      window_qps.push_back(static_cast<double>(c) / kQpsWindowS);
    }
    round_rss_mb.push_back(peak_rss_mb());
    round_ref_ms.push_back(ref_loop_ms());
  }
  const std::string stats_line = daemon->request("STATS");
  checks.expect(daemon->shutdown(), "tuckerd did not shut down cleanly");
  daemon.reset();
  checks.expect(reload_response == "OK epoch=2", "RELOAD answered '" + reload_response + "'");
  checks.expect(stats_line.rfind("OK epoch=2 ", 0) == 0, "STATS answered '" + stats_line + "'");

  auto med = [&](double Rep::*field) {
    std::vector<double> v;
    for (const auto& r : reps) v.push_back(r.*field);
    return bench::median(v);
  };
  // Reps on one input repeat the same computation, but multi-threaded HOOI
  // is not bitwise reproducible between identical runs (final fits have
  // been seen to differ in the last ulp), so their fits must agree to a
  // relative 1e-9 and their communication counts exactly. The warm-up is
  // input 0's first rep.
  double fit_rel_diff = 0;
  std::vector<const Rep*> first_rep(inputs, nullptr);
  first_rep[0] = &warm;
  for (int r = 0; r < rounds; ++r) {
    const Rep& rep = reps[r];
    const Rep*& first = first_rep[r % inputs];
    checks.expect(std::isfinite(rep.fit) && rep.fit > 0 && rep.fit <= 1,
                  "fit " + std::to_string(rep.fit) + " outside (0, 1]");
    checks.expect(rep.iterations == w.sweeps, "ran " + std::to_string(rep.iterations) +
                                                  " sweeps, expected " + std::to_string(w.sweeps));
    if (first == nullptr) {
      first = &rep;
      continue;
    }
    const double rel = std::abs(rep.fit - first->fit) / std::abs(first->fit);
    fit_rel_diff = std::max(fit_rel_diff, rel);
    checks.expect(rel <= 1e-9, "fit differs between identical reps by " + std::to_string(rel) +
                                   " (relative)");
    checks.expect(rep.comm_entries == first->comm_entries &&
                      rep.trsvd_rounds == first->trsvd_rounds,
                  "communication counts differ between identical reps");
  }
  samples.integer("inputs", inputs)
      .integer("train_warmup_reps", 1)
      .integer("train_reps", static_cast<long long>(reps.size()));

  // Storage: mmap and heap loads of the last rep's bundle, bit-identical to
  // the model that was saved; the mmap load copies nothing.
  double load_map_ms = 0, load_copy_ms = 0;
  std::uint64_t map_copied = 0;
  {
    ht::storage::CopyStats::reset();
    auto t0 = Clock::now();
    ht::core::TuckerModel mapped;
    {
      auto s = tracer.span("storage.load_bundle.map");
      mapped = ht::storage::load_bundle(saved, ht::storage::LoadMode::kMap);
    }
    load_map_ms = seconds_since(t0) * 1e3;
    map_copied = ht::storage::CopyStats::bytes();
    checks.expect(map_copied == 0, "mmap bundle load copied " + std::to_string(map_copied) + " bytes");
    checks.expect(same_model(mapped, trained), "mmap-loaded bundle differs from the trained model");
    t0 = Clock::now();
    ht::core::TuckerModel copied;
    {
      auto s = tracer.span("storage.load_bundle.copy");
      copied = ht::storage::load_bundle(saved, ht::storage::LoadMode::kCopy);
    }
    load_copy_ms = seconds_since(t0) * 1e3;
    checks.expect(same_model(copied, trained), "heap-loaded bundle differs from the trained model");
  }
  samples.integer("rounds", rounds)
      .integer("ready_spawns", static_cast<long long>(ready_s.size()))
      .integer("open_loop_requests", static_cast<long long>(per_slice) * rounds)
      .integer("open_loop_answered", static_cast<long long>(open_answered))
      .integer("closed_loop_completions", static_cast<long long>(closed_completed));

  // End-to-end metrics.
  const double ready_med = bench::median(ready_s);
  const double open_p50 = bench::median(latency_us);
  // A generator that runs late in the typical window (lag p99 above 10% of
  // the p99 it measures) was starved of CPU. Latency runs from the due
  // time, so lateness inflates the latencies rather than hiding delay; the
  // run is flagged, not failed, because a busy host causes it.
  const double lag_p99 = bench::median(window_lag_p99);
  const bool on_schedule = !(lag_p99 > 0.1 * bench::median(window_p99));
  if (!on_schedule) {
    std::fprintf(stderr, "bench_e2e: warning: load generator ran late (lag p99 %.1f us)\n",
                 lag_p99);
  }
  checks.expect(!window_p99.empty() && !window_qps.empty(),
                "serving phases too short for one measurement window (raise --seconds)");
  if (window_p99.empty()) {
    window_p90.push_back(std::nan(""));
    window_p99.push_back(std::nan(""));
  }
  e2e.set("setup_s", med(&Rep::setup_s) + ready_med, "s");
  e2e.set("solve_s", med(&Rep::solve_s), "s");
  e2e.set("sweep_s", med(&Rep::sweep_s), "s");
  // Freed memory the allocator keeps resident only ever adds to a round's
  // peak, and how much it keeps varies from round to round; the least
  // peak of any round is what the pipeline needed.
  e2e.set("peak_rss_mb", *std::min_element(round_rss_mb.begin(), round_rss_mb.end()), "MB");
  e2e.set("serve_p50_us", open_p50, "us");
  samples.integer("latency_windows", static_cast<long long>(window_p99.size()))
      .integer("qps_windows", static_cast<long long>(window_qps.size()));

  // Per-layer metrics: the split of the numbers above.
  const double ttmc = med(&Rep::ttmc_s), trsvd = med(&Rep::trsvd_s), core = med(&Rep::core_s);
  const double step_sum = std::max(ttmc + trsvd + core, 1e-12);
  layers.set("tensor.io.read_tns_s", med(&Rep::read_s), "s");
  layers.set("tensor.io.tns_mb", stats->tns_bytes / 1e6, "MB");
  layers.set("tensor.io.read_tns_mb_s", stats->tns_bytes / 1e6 / med(&Rep::read_s), "MB/s");
  layers.set("core.hooi.preprocess_s", med(&Rep::setup_s) - med(&Rep::read_s), "s");
  layers.set("core.hooi.ttmc_s", ttmc, "s");
  layers.set("core.hooi.trsvd_s", trsvd, "s");
  layers.set("core.hooi.core_s", core, "s");
  layers.set("core.hooi.ttmc_share", ttmc / step_sum, "1");
  layers.set("core.hooi.trsvd_share", trsvd / step_sum, "1");
  layers.set("core.hooi.fit", warm.fit, "1");

  // Computed TTMc work per sweep: every mode reads each nonzero (indices +
  // value) and one factor row per other mode, and writes one
  // prod(other ranks)-wide row per non-empty slice. Caches and reuse are
  // ignored, so the byte count is computed, not measured.
  double flops = 0, bytes = 0;
  const std::size_t order = w.ranks.size();
  const auto nnz = static_cast<double>(stats->nnz);
  for (std::size_t n = 0; n < order; ++n) {
    double prod_other = 1, sum_other = 0;
    for (std::size_t t = 0; t < order; ++t) {
      if (t == n) continue;
      prod_other *= static_cast<double>(w.ranks[t]);
      sum_other += static_cast<double>(w.ranks[t]);
    }
    flops += 2.0 * nnz * prod_other;
    bytes += nnz * (4.0 * static_cast<double>(order) + 8.0) + nnz * sum_other * 8.0 +
             static_cast<double>(stats->nonempty_rows[n]) * prod_other * 8.0;
  }
  layers.set("core.ttmc.nominal_gflop", flops / 1e9, "GFLOP");
  layers.set("core.ttmc.gflops", flops / 1e9 / ttmc, "GFLOP/s");
  layers.set("core.ttmc.computed_gb", bytes / 1e9, "GB");
  layers.set("core.ttmc.gbps", bytes / 1e9 / ttmc, "GB/s");
  layers.set("dist.comm_entries", static_cast<double>(warm.comm_entries), "count");
  layers.set("dist.trsvd_rounds", static_cast<double>(warm.trsvd_rounds), "count");
  layers.set("dist.ttmc_imbalance", med(&Rep::ttmc_imbalance), "1");
  layers.set("storage.save_s", med(&Rep::save_s), "s");
  layers.set("storage.bundle_mb", static_cast<double>(fs::file_size(saved)) / 1e6, "MB");
  layers.set("storage.load_map_ms", load_map_ms, "ms");
  layers.set("storage.load_copy_ms", load_copy_ms, "ms");
  layers.set("storage.map_bytes_copied", static_cast<double>(map_copied), "count");
  layers.set("serve.tuckerd.ready_ms", ready_med * 1e3, "ms");
  layers.set("serve.query_engine.score_p50_us", bench::median(trace.score_us), "us");
  layers.set("serve.query_engine.topk_p50_us", bench::median(trace.topk_us), "us");
  layers.set("serve.query_engine.cache_hit_rate", trace.cache_hit_rate, "1");
  const double hits = response_field(stats_line, "hits");
  const double misses = response_field(stats_line, "misses");
  layers.set("serve.stats.hit_rate", hits / std::max(hits + misses, 1.0), "1");
  layers.set("serve.closed_loop.qps", bench::median(window_qps), "req/s");
  layers.set("serve.model_handle.reload_ms", reload_ms, "ms");
  layers.set("serve.net.p90_us", bench::median(window_p90), "us");
  layers.set("serve.net.p99_us", bench::median(window_p99), "us");
  layers.set("serve.net.p999_us", bench::quantile(latency_us, 0.999), "us");
  layers.set("serve.loadgen.lag_p99_us", lag_p99, "us");
  extra.set("machine.ref_loop_ms", bench::median(round_ref_ms), "ms");
  extra.set("core.hooi.fit_rep_rel_diff", fit_rel_diff, "1");
  extra.set("serve.loadgen.on_schedule", on_schedule ? 1 : 0, "1");
  extra.set("dist.partition_s", med(&Rep::partition_s), "s");
  extra.set("dist.rank_plans_s", med(&Rep::rank_plans_s), "s");
  extra.set("serve.net.p999_samples_beyond",
            std::floor(static_cast<double>(open_answered) * 0.001), "count");
  extra.set("serve.open_loop.p99_whole_run_us", bench::quantile(latency_us, 0.99), "us");
  extra.set("serve.open_loop.p99_window_min_us",
            *std::min_element(window_p99.begin(), window_p99.end()), "us");
  extra.set("serve.open_loop.p99_window_max_us",
            *std::max_element(window_p99.begin(), window_p99.end()), "us");

  // Traced runs add the probes that cost time of their own: a dispatcher
  // replay, a single-thread HOOI baseline, and the machine roofline.
  std::size_t stream_bytes = 0;
  if (traced) {
    {
      auto s = tracer.span("serve.dispatcher.replay");
      ht::serve::ModelHandle handle;
      handle.load_and_publish(served);
      ht::serve::Dispatcher dispatcher(handle, ht::serve::QueryOptions{});
      std::vector<double> us;
      std::uint64_t wrong = 0;
      for (const auto& r : trace.requests) {
        const auto q0 = Clock::now();
        const std::string got = dispatcher.handle_line(r.line);
        us.push_back(seconds_since(q0) * 1e6);
        wrong += got != r.expected;
      }
      checks.add(trace.requests.size(), wrong, "in-process dispatcher answers");
      const double p50 = bench::median(us);
      layers.set("serve.dispatcher.handle_line_p50_us", p50, "us");
      layers.set("serve.net.overhead_p50_us", open_p50 - p50, "us");
    }
    {
      auto s = tracer.span("core.hooi.single_thread");
      const CooTensor x = ht::tensor::read_tns_file(tns_path(dir, 0));
      ht::core::HooiOptions opt;
      opt.ranks = w.ranks;
      opt.max_iterations = 2;
      opt.fit_tolerance = 0;
      opt.num_threads = 1;
      const auto res = ht::core::hooi(x, opt);
      const double one = res.timers.iteration_total() / std::max(res.iterations, 1);
      layers.set("core.hooi.sweep_s_1thread", one, "s");
      layers.set("core.hooi.parallel_speedup", one / med(&Rep::sweep_s), "x");
    }
    {
      auto s = tracer.span("machine.probes");
      const std::size_t llc = llc_bytes();
      stream_bytes = a.smoke ? std::size_t{8} << 20 : std::min(4 * std::max<std::size_t>(llc, 1 << 20), kStreamCapBytes);
      const double stream = stream_triad_gbps(stream_bytes);
      const double dgemm = dgemm_gflops(a.smoke ? 256 : kDgemmN);
      layers.set("machine.stream_triad_gbps", stream, "GB/s");
      layers.set("machine.dgemm_gflops", dgemm, "GFLOP/s");
      layers.set("core.ttmc.frac_dgemm", layers.get("core.ttmc.gflops") / dgemm, "1");
      layers.set("core.ttmc.frac_stream", layers.get("core.ttmc.gbps") / stream, "1");
    }
    fs::create_directories(a.trace_dir);
    std::ofstream(a.trace_dir + "/" + w.name + ".spans.json") << tracer.json(w.name) << "\n";
  }

  const bool ok = checks.failed() == 0;
  e2e.print(stdout, ("== " + w.name + " (seed " + std::to_string(a.seed) + ") end to end").c_str());
  if (traced) layers.print(stdout, "   per layer");
  std::printf("   checks: %llu attempted, %llu failed -> %s\n",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()), ok ? "ok" : "FAILED");

  if (!a.json.empty()) {
    std::string failures = "[";
    for (std::size_t i = 0; i < checks.failures().size(); ++i) {
      failures += (i ? ", " : "") + bench::json_string(checks.failures()[i]);
    }
    failures += "]";
    // Per-round values behind the medians, for spread analysis.
    bench::JsonObject per_rep;
    for (const auto& [name, field] : {std::pair{"read_s", &Rep::read_s},
                                      std::pair{"setup_s", &Rep::setup_s},
                                      std::pair{"solve_s", &Rep::solve_s},
                                      std::pair{"sweep_s", &Rep::sweep_s},
                                      std::pair{"save_s", &Rep::save_s}}) {
      std::string list = "[";
      for (const auto& r : reps) list += (list.size() > 1 ? ", " : "") + bench::json_number(r.*field);
      per_rep.raw(name, list + "]");
    }
    for (const auto& [name, values] : {std::pair{"peak_rss_mb", &round_rss_mb},
                                       std::pair{"ref_loop_ms", &round_ref_ms}}) {
      std::string list = "[";
      for (const double v : *values) list += (list.size() > 1 ? ", " : "") + bench::json_number(v);
      per_rep.raw(name, list + "]");
    }
    const std::string doc = bench::JsonObject()
                                .str("workload", w.name)
                                .boolean("correct", ok)
                                .integer("attempted", static_cast<long long>(checks.attempted()))
                                .integer("failed", static_cast<long long>(checks.failed()))
                                .raw("failures", failures)
                                .boolean("traced", traced)
                                .raw("env", env_json(a, stream_bytes))
                                .raw("samples", samples.dump())
                                .raw("reps", per_rep.dump())
                                .raw("e2e", e2e.json())
                                .raw("layers", traced ? layers.json() : "{}")
                                .raw("extra", extra.json())
                                .dump();
    std::ofstream out(a.json);
    out << doc << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", a.json.c_str());
      return 1;
    }
  }
  return ok ? 0 : 1;
}

int prepare(const Args& a) {
  const Workload& w = *find_workload(a.workloads[0]);
  const std::string dir = data_dir(a, w.name);
  fs::create_directories(dir);
  fs::remove(dir + "/prepared");
  // The inputs are independent; generate and write them side by side (the
  // generators and the writer are serial, and nothing is timed here).
  std::vector<std::string> summaries(input_count(a));
  std::vector<std::string> errors(input_count(a));
  {
    std::vector<std::jthread> threads;  // joined when the block ends
    for (int k = 0; k < input_count(a); ++k) {
      threads.emplace_back([&, k] {
        try {
          const CooTensor x = generate(w, a.smoke, input_seed(a.seed, k));
          ht::tensor::write_tns_file(tns_path(dir, k), x);
          summaries[k] = x.summary();
        } catch (const std::exception& e) {
          errors[k] = e.what();
        }
      });
    }
  }
  for (int k = 0; k < input_count(a); ++k) {
    if (!errors[k].empty()) throw std::runtime_error(tns_path(dir, k) + ": " + errors[k]);
  }
  std::ofstream manifest(dir + "/prepared");
  for (int k = 0; k < input_count(a); ++k) {
    manifest << w.name << " seed=" << a.seed << " input=" << k << " " << summaries[k] << "\n";
    std::fprintf(stderr, "bench_e2e: prepared %s: %s\n", tns_path(dir, k).c_str(),
                 summaries[k].c_str());
  }
  return 0;
}

/// Fork/exec this binary with `args` and wait; the child dies with us.
int run_child(const std::vector<std::string>& args) {
  std::vector<std::string> argv_s = {"/proc/self/exe"};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  std::fflush(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

int run_all(Args a) {
  if (a.workloads.empty()) {
    for (const auto& w : workloads()) a.workloads.push_back(w.name);
  }
  std::vector<std::string> common = {"--seed", std::to_string(a.seed), "--work", a.work};
  if (a.smoke) common.push_back("--smoke");
  int worst = 0;
  std::string combined = "[";
  for (std::size_t i = 0; i < a.workloads.size(); ++i) {
    const std::string& name = a.workloads[i];
    std::vector<std::string> prep = {"prepare", "--workload", name};
    prep.insert(prep.end(), common.begin(), common.end());
    int rc = run_child(prep);
    const std::string result = data_dir(a, name) + "/result.json";
    fs::remove(result);
    if (rc == 0) {
      std::vector<std::string> args = {"run", "--workload", name, "--seconds",
                                       std::to_string(a.seconds), "--json", result};
      args.insert(args.end(), common.begin(), common.end());
      if (!a.trace_dir.empty()) args.insert(args.end(), {"--trace", a.trace_dir});
      if (a.corrupt_expected) args.push_back("--corrupt-expected");
      rc = run_child(args);
    }
    if (rc != 0) std::fprintf(stderr, "bench_e2e: %s failed (exit %d)\n", name.c_str(), rc);
    worst = std::max(worst, rc);
    std::ifstream in(result);
    if (in) {
      std::stringstream text;
      text << in.rdbuf();
      std::string doc = text.str();
      while (!doc.empty() && doc.back() == '\n') doc.pop_back();
      combined += (combined.size() > 1 ? ",\n" : "") + doc;
    }
  }
  combined += "]\n";
  if (!a.json.empty()) std::ofstream(a.json) << combined;
  std::printf("bench_e2e --all: %s\n", worst == 0 ? "all workloads passed" : "FAILED");
  return worst == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  const Args a = parse_args(argc, argv);
  try {
    if (a.mode == "all") return run_all(a);
    if (a.mode == "prepare") return prepare(a);
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
