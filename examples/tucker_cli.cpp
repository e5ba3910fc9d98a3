// Command-line Tucker decomposition driver: read a FROSTT-style .tns file,
// run HOOI, print fit diagnostics, optionally export the factor matrices.
//
//   ./tucker_cli INPUT.tns R1,R2,...  [--iters N] [--tol T] [--threads P]
//                [--init random|range]
//                [--trsvd-method lanczos|rand|auto]
//                [--trsvd-oversample P] [--trsvd-power Q]
//                [--export PREFIX] [--sweep] [--save-model FILE.htb]
//   ./tucker_cli INPUT.tns R1,R2,... --completion [--holdout FRAC]
//                [--val FRAC] [--lambda L] [--anneal FACTOR SWEEPS]
//                [--sweeps N] [--cg N] [--seed S] [--threads P]
//                [--save-model FILE.htb]
//   ./tucker_cli --load-model FILE.htb [--copy]
//   ./tucker_cli --inspect-model FILE.htb [--verify]
//   ./tucker_cli --query TARGET "SCORE 3 17 5" ["TOPK 3 10" ...]
//   ./tucker_cli --version
//
// Ranks are comma-separated integers in 1..2^32-1. Every numeric argument
// must be a whole number token in its flag's range (counts >= 0, real
// values finite and >= 0); anything else exits 2 with the usage message.
//
// With --sweep, the ranks argument is treated as the *maximum* per mode and
// HOOI is run for a ladder of candidate ranks (reusing one CSF forest),
// reporting the fit of each — the rank-selection workflow from the paper
// (--save-model then stores the sweep's best model).
//
// --load-model restores a saved bundle — mmap'd zero-copy by default,
// heap copies with --copy — and prints its shape, fit, and provenance.
// --inspect-model reads only the header and section table; --verify
// additionally checks every payload checksum.
//
// --query is a tuckerd client: TARGET is a unix socket path (contains '/')
// or host:port; each remaining argument is sent as one protocol line and
// the response is printed. Exits non-zero if any response is an ERR.
//
// --completion switches the solver from HOOI (compression objective: every
// tensor position, zeros included) to masked completion (prediction
// objective: observed entries only). --holdout splits off a seeded test
// fraction whose RMSE/MAE is reported after training and stamped into the
// saved bundle's provenance; --val adds a validation fraction that steers
// early stopping.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/completion.hpp"
#include "core/hooi.hpp"
#include "core/rank_sweep.hpp"
#include "core/split.hpp"
#include "core/tucker_model.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "storage/bundle.hpp"
#include "tensor/io.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "util/version.hpp"

namespace {

using ht::tensor::index_t;

// Comma-separated ranks, each in 1..2^32-1; nullopt if any item is not.
std::optional<std::vector<index_t>> parse_ranks(std::string_view csv) {
  std::vector<index_t> ranks;
  while (true) {
    const std::size_t comma = csv.find(',');
    const auto rank = ht::parse_number<index_t>(
        csv.substr(0, comma), 1, std::numeric_limits<index_t>::max());
    if (!rank) return std::nullopt;
    ranks.push_back(*rank);
    if (comma == std::string_view::npos) return ranks;
    csv.remove_prefix(comma + 1);
  }
}

void export_factors(const ht::core::TuckerDecomposition& t,
                    const std::string& prefix) {
  for (std::size_t n = 0; n < t.order(); ++n) {
    const std::string path = prefix + ".U" + std::to_string(n + 1) + ".txt";
    std::ofstream out(path);
    const auto& f = t.factors[n];
    for (std::size_t i = 0; i < f.rows(); ++i) {
      for (std::size_t j = 0; j < f.cols(); ++j) {
        out << f(i, j) << (j + 1 == f.cols() ? '\n' : ' ');
      }
    }
    std::printf("wrote %s (%zux%zu)\n", path.c_str(), f.rows(), f.cols());
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: tucker_cli INPUT.tns R1,R2,... [--iters N] [--tol T]"
               " [--threads P] [--init random|range]"
               " [--trsvd-method lanczos|rand|auto]"
               " [--trsvd-oversample P] [--trsvd-power Q]"
               " [--export PREFIX] [--sweep] [--save-model FILE.htb]\n"
               "       tucker_cli INPUT.tns R1,R2,... --completion"
               " [--holdout FRAC] [--val FRAC] [--lambda L]"
               " [--anneal FACTOR SWEEPS] [--sweeps N] [--cg N] [--seed S]"
               " [--threads P] [--save-model FILE.htb]\n"
               "       tucker_cli --load-model FILE.htb [--copy]\n"
               "       tucker_cli --inspect-model FILE.htb [--verify]\n"
               "       tucker_cli --query TARGET LINE [LINE...]\n"
               "       tucker_cli --version\n");
  return 2;
}

// A numeric argument in [lo, hi], or exit 2 with the usage message.
template <typename T>
T number_or_exit(const char* text, T lo, T hi) {
  const std::optional<T> value = ht::parse_number<T>(text, lo, hi);
  if (!value) std::exit(usage());
  return *value;
}

int run_query(const std::string& target, int argc, char** argv, int first) {
#if HT_HAVE_SOCKETS
  std::vector<std::string> lines;
  for (int a = first; a < argc; ++a) lines.emplace_back(argv[a]);
  if (lines.empty()) return usage();
  try {
    const auto responses = ht::serve::query_lines(target, lines);
    bool all_ok = true;
    for (const auto& r : responses) {
      std::printf("%s\n", r.c_str());
      all_ok = all_ok && ht::serve::response_ok(r);
    }
    return all_ok ? 0 : 1;
  } catch (const ht::Error& e) {
    std::fprintf(stderr, "query error: %s\n", e.what());
    return 1;
  }
#else
  (void)target; (void)argc; (void)argv; (void)first;
  std::fprintf(stderr, "--query requires POSIX sockets\n");
  return 1;
#endif
}

void print_model(const ht::core::TuckerModel& m, bool mapped) {
  std::string dims, ranks;
  const auto r = m.ranks();
  for (std::size_t n = 0; n < m.dims.size(); ++n) {
    if (n) { dims += "x"; ranks += "x"; }
    dims += std::to_string(m.dims[n]);
    ranks += std::to_string(r[n]);
  }
  std::printf("model: %s -> core %s, fit %.6f (%s load, %llu bytes copied)\n",
              dims.c_str(), ranks.c_str(), m.fit, mapped ? "mmap" : "heap",
              static_cast<unsigned long long>(ht::storage::CopyStats::bytes()));
  std::printf("%s", m.provenance_text().c_str());
}

int run_load_model(const std::string& path, bool copy) {
  try {
    ht::storage::CopyStats::reset();
    const auto m = ht::storage::load_bundle(
        path, copy ? ht::storage::LoadMode::kCopy
                   : ht::storage::LoadMode::kMap);
    print_model(m, !copy);
  } catch (const ht::Error& e) {
    std::fprintf(stderr, "error loading %s: %s\n", path.c_str(), e.what());
    return 1;
  }
  return 0;
}

int run_inspect_model(const std::string& path, bool verify) {
  try {
    const auto info = ht::storage::inspect_bundle(path);
    std::printf("%s", ht::storage::describe_bundle(info).c_str());
    if (verify) {
      ht::storage::BundleReader reader(path, ht::storage::LoadMode::kMap);
      reader.verify_all();
      std::printf("all %zu payload checksums ok\n", info.sections.size());
    }
  } catch (const ht::Error& e) {
    std::fprintf(stderr, "error inspecting %s: %s\n", path.c_str(), e.what());
    return 1;
  }
  return 0;
}

// Masked-completion mode: deterministic holdout split, tucker_complete on
// the training part, held-out RMSE/MAE report, and (with --save-model) a
// serveable bundle whose provenance records the split alongside the
// completion.* keys the trainer stamps.
int run_completion(const ht::tensor::CooTensor& x,
                   ht::core::CompletionOptions options,
                   double holdout_fraction, double validation_fraction,
                   const std::string& save_model_path) {
  using namespace ht;
  core::SplitOptions split_options;
  split_options.test_fraction = holdout_fraction;
  split_options.validation_fraction = validation_fraction;
  split_options.seed = options.seed;
  const auto split = core::split_tensor(x, split_options);
  std::printf("split (seed %llu): train %llu / validation %llu / test %llu\n",
              static_cast<unsigned long long>(split_options.seed),
              static_cast<unsigned long long>(split.train.nnz()),
              static_cast<unsigned long long>(split.validation.nnz()),
              static_cast<unsigned long long>(split.test.nnz()));

  auto result = core::tucker_complete(
      split.train, split.validation.nnz() ? &split.validation : nullptr,
      options);
  std::printf("completion: %d sweeps (converged=%s, early_stopped=%s),"
              " train RMSE %.6f\n",
              result.sweeps, result.converged ? "yes" : "no",
              result.early_stopped ? "yes" : "no",
              result.final_train_rmse());
  if (result.best_sweep >= 0) {
    std::printf("best validation sweep %d: RMSE %.6f\n", result.best_sweep,
                result.validation_rmse[static_cast<std::size_t>(
                    result.best_sweep)]);
  }
  std::printf("timers: symbolic %.3fs factor %.3fs core %.3fs eval %.3fs\n",
              result.timers.symbolic, result.timers.factor,
              result.timers.core, result.timers.eval);

  std::optional<core::CompletionEval> holdout;
  if (split.test.nnz()) {
    holdout = core::evaluate_model(split.test, result.decomposition);
    std::printf("held-out RMSE %.6f MAE %.6f over %llu entries\n",
                holdout->rmse, holdout->mae,
                static_cast<unsigned long long>(holdout->count));
  }

  if (!save_model_path.empty()) {
    auto model = core::completion_model(split.train, std::move(result),
                                        options);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", holdout_fraction);
    model.provenance.emplace_back("completion.holdout_fraction", buf);
    std::snprintf(buf, sizeof buf, "%.17g", validation_fraction);
    model.provenance.emplace_back("completion.validation_fraction", buf);
    model.provenance.emplace_back("completion.split_seed",
                                  std::to_string(split_options.seed));
    if (holdout) {
      std::snprintf(buf, sizeof buf, "%.17g", holdout->rmse);
      model.provenance.emplace_back("completion.holdout_rmse", buf);
      std::snprintf(buf, sizeof buf, "%.17g", holdout->mae);
      model.provenance.emplace_back("completion.holdout_mae", buf);
    }
    ht::storage::save_bundle(model, save_model_path);
    std::printf("saved completion model to %s\n", save_model_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Model-file and informational modes take no tensor/ranks positionals.
  if (argc >= 2 && std::strcmp(argv[1], "--version") == 0) {
    std::printf("%s\n", ht::version_line().c_str());
    std::printf("compiler: %s\nflags: %s (%s)\n", ht::kCompiler,
                ht::kCompileFlags, ht::kBuildType);
    return 0;
  }
  if (argc >= 3 && std::strcmp(argv[1], "--load-model") == 0) {
    return run_load_model(argv[2],
                          argc >= 4 && std::strcmp(argv[3], "--copy") == 0);
  }
  if (argc >= 3 && std::strcmp(argv[1], "--inspect-model") == 0) {
    return run_inspect_model(
        argv[2], argc >= 4 && std::strcmp(argv[3], "--verify") == 0);
  }
  if (argc >= 3 && std::strcmp(argv[1], "--query") == 0) {
    return run_query(argv[2], argc, argv, 3);
  }
  if (argc < 3) return usage();

  const std::string input = argv[1];
  const auto parsed_ranks = parse_ranks(argv[2]);
  if (!parsed_ranks) return usage();
  const std::vector<index_t>& max_ranks = *parsed_ranks;

  ht::core::HooiOptions options;
  options.max_iterations = 20;
  options.fit_tolerance = 1e-5;
  std::string export_prefix;
  std::string save_model_path;
  bool sweep = false;
  bool completion = false;
  double holdout_fraction = 0.1;
  double validation_fraction = 0.0;
  ht::core::CompletionOptions completion_options;

  for (int a = 3; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* {
      if (a + 1 >= argc) std::exit(usage());
      return argv[++a];
    };
    // Counts are >= 0; real values are finite and >= 0.
    auto count = [&] {
      return number_or_exit(next(), 0, std::numeric_limits<int>::max());
    };
    auto real = [&] {
      return number_or_exit(next(), 0.0, std::numeric_limits<double>::max());
    };
    if (arg == "--iters") {
      options.max_iterations = count();
    } else if (arg == "--tol") {
      options.fit_tolerance = real();
    } else if (arg == "--threads") {
      options.num_threads = count();
    } else if (arg == "--init") {
      const std::string v = next();
      if (v == "random") {
        options.init = ht::core::HooiInit::kRandom;
      } else if (v == "range") {
        options.init = ht::core::HooiInit::kRandomizedRange;
      } else {
        return usage();
      }
    } else if (arg == "--trsvd-method") {
      const auto method = ht::core::parse_trsvd_method(next());
      if (!method) return usage();
      options.trsvd_method = *method;
    } else if (arg == "--trsvd-oversample") {
      options.trsvd.oversample = static_cast<std::size_t>(count());
    } else if (arg == "--trsvd-power") {
      options.trsvd.power_iterations = static_cast<std::size_t>(count());
    } else if (arg == "--export") {
      export_prefix = next();
    } else if (arg == "--save-model") {
      save_model_path = next();
    } else if (arg == "--sweep") {
      sweep = true;
    } else if (arg == "--completion") {
      completion = true;
    } else if (arg == "--holdout") {
      holdout_fraction = real();
    } else if (arg == "--val") {
      validation_fraction = real();
    } else if (arg == "--lambda") {
      completion_options.lambda = real();
    } else if (arg == "--anneal") {
      completion_options.lambda_anneal_factor = real();
      completion_options.lambda_anneal_sweeps = count();
    } else if (arg == "--sweeps") {
      completion_options.max_sweeps = count();
    } else if (arg == "--cg") {
      completion_options.core_cg_iterations = count();
    } else if (arg == "--seed") {
      completion_options.seed = number_or_exit<std::uint64_t>(
          next(), 0, std::numeric_limits<std::uint64_t>::max());
    } else {
      return usage();
    }
  }

  ht::tensor::CooTensor x;
  try {
    x = ht::tensor::read_tns_file(input);
    x.sum_duplicates();
  } catch (const ht::Error& e) {
    std::fprintf(stderr, "error reading %s: %s\n", input.c_str(), e.what());
    return 1;
  }
  std::printf("loaded %s: %s\n", input.c_str(), x.summary().c_str());
  if (max_ranks.size() != x.order()) {
    std::fprintf(stderr, "need %zu ranks for a %zu-mode tensor\n", x.order(),
                 x.order());
    return 1;
  }

  try {
    if (completion) {
      completion_options.ranks = max_ranks;
      completion_options.num_threads = options.num_threads;
      return run_completion(x, std::move(completion_options),
                            holdout_fraction, validation_fraction,
                            save_model_path);
    }
    if (sweep) {
      // Ladder of candidates up to the requested maximum, shared forest.
      std::vector<std::vector<index_t>> candidates;
      for (double frac : {0.25, 0.5, 0.75, 1.0}) {
        std::vector<index_t> r;
        for (auto m : max_ranks) {
          r.push_back(std::max<index_t>(1, static_cast<index_t>(m * frac)));
        }
        if (candidates.empty() || r != candidates.back()) {
          candidates.push_back(std::move(r));
        }
      }
      const auto sweep_result = ht::core::rank_sweep(x, candidates, options);
      ht::TextTable table({"ranks", "fit", "iters", "seconds"});
      for (const auto& e : sweep_result.entries) {
        std::string rs;
        for (std::size_t n = 0; n < e.ranks.size(); ++n) {
          if (n) rs += ",";
          rs += std::to_string(e.ranks[n]);
        }
        table.add_row({rs, ht::fmt_fixed(e.fit, 5), std::to_string(e.iterations),
                       ht::fmt_time_s(e.seconds)});
      }
      std::printf("%s(CSF forest built once: %.3fs)\n",
                  table.to_string().c_str(), sweep_result.symbolic_seconds);
      if (!save_model_path.empty() && sweep_result.best_model) {
        ht::storage::save_bundle(*sweep_result.best_model, save_model_path);
        std::printf("saved best sweep model to %s\n", save_model_path.c_str());
      }
      return 0;
    }

    options.ranks = max_ranks;
    ht::core::HooiResult result = ht::core::hooi(x, options);
    std::printf("fit %.6f after %d sweeps (converged=%s)\n",
                result.final_fit(), result.iterations,
                result.converged ? "yes" : "no");
    std::string warm;
    for (std::size_t n = 0; n < result.warm_solves.size(); ++n) {
      if (n) warm += ',';
      warm += std::to_string(result.warm_solves[n]);
    }
    std::printf(
        "timers: symbolic %.3fs ttmc %.3fs trsvd %.3fs core %.3fs"
        " (warm trsvd solves per mode: %s)\n",
        result.timers.symbolic, result.timers.ttmc, result.timers.trsvd,
        result.timers.core, warm.c_str());
    if (!export_prefix.empty()) {
      export_factors(result.decomposition, export_prefix);
    }
    if (!save_model_path.empty()) {
      const auto model =
          ht::core::TuckerModel::from_hooi(x, std::move(result));
      ht::storage::save_bundle(model, save_model_path);
      std::printf("saved model to %s\n", save_model_path.c_str());
    }
  } catch (const ht::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
