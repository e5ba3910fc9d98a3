#include "dist/dist_hooi.hpp"

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <utility>

#include "core/sweep.hpp"
#include "core/ttmc_plan.hpp"
#include "core/tucker_model.hpp"
#include "parallel/thread_info.hpp"
#include "smp/communicator.hpp"
#include "storage/bundle.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace ht::dist {

namespace {

std::uint64_t comm_list_rows(const std::vector<CommList>& lists) {
  std::uint64_t total = 0;
  for (const CommList& l : lists) total += l.positions.size();
  return total;
}

LoadSummary summarize_cells(const DistStats& stats, std::size_t mode,
                            std::uint64_t DistLoad::*field) {
  std::vector<std::uint64_t> values(stats.ranks());
  for (std::size_t r = 0; r < stats.ranks(); ++r) {
    values[r] = stats.at(mode, r).*field;
  }
  return summarize_load(values);
}

// ---- rank-local restart checkpoints -----------------------------------------
//
// Each rank's checkpoint is a small model bundle holding only its local
// factor slices plus provenance meta. Ranks write disjoint files, so there
// is no cross-rank coordination; the atomic temp+rename inside the writer
// means a run killed mid-checkpoint leaves the previous checkpoint intact.

std::string checkpoint_path(const std::string& dir, int rank) {
  return dir + "/rank" + std::to_string(rank) + ".htb";
}

// `sweeps` counts every sweep the stored factors have been through, across
// restarts, so a resumed run takes kAuto's warm path from the same sweep a
// straight run would.
void save_checkpoint(const std::string& path,
                     const std::vector<la::Matrix>& factors, int rank,
                     int sweeps) {
  const std::string tmp = path + ".tmp";
  {
    storage::BundleWriter w(tmp);
    std::string meta = "kind=dist_checkpoint\nrank=" + std::to_string(rank) +
                       "\nsweeps=" + std::to_string(sweeps) + "\n";
    for (const auto& [key, value] : core::TuckerModel::build_provenance()) {
      meta += "prov:" + key + "=" + value + "\n";
    }
    w.add_section(storage::SectionKind::kMeta, 0, 0, 1, meta.data(),
                  meta.size(), meta.size(), 1);
    for (std::size_t n = 0; n < factors.size(); ++n) {
      const la::Matrix& f = factors[n];
      w.add_section(storage::SectionKind::kFactor,
                    static_cast<std::uint32_t>(n), 0, sizeof(double),
                    f.data(), f.size() * sizeof(double), f.rows(), f.cols());
    }
    w.finish();
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("cannot move checkpoint into place: " + path);
  }
}

// Replace the plan's random initial slices with the checkpointed ones and
// return the stored sweep count (0 when the checkpoint predates the key).
// LoadMode::kCopy on purpose: the loop keeps mutating the factors.
int load_checkpoint(const std::string& path,
                    std::vector<la::Matrix>& factors) {
  storage::BundleReader r(path, storage::LoadMode::kCopy);
  int sweeps = 0;
  for (const auto& [key, value] :
       r.read_meta(r.require(storage::SectionKind::kMeta))) {
    if (key == "sweeps") sweeps = std::stoi(value);
  }
  for (std::size_t n = 0; n < factors.size(); ++n) {
    const storage::SectionEntry& e =
        r.require(storage::SectionKind::kFactor, static_cast<std::uint32_t>(n));
    HT_CHECK_MSG(e.rows == factors[n].rows() && e.cols == factors[n].cols(),
                 "checkpoint factor " << n << " shape mismatch (got "
                                      << e.rows << "x" << e.cols
                                      << ", plan wants " << factors[n].rows()
                                      << "x" << factors[n].cols() << ")");
    storage::Span<double> s = r.load<double>(e);
    factors[n] = la::Matrix(e.rows, e.cols, std::move(s.vec()));
  }
  return sweeps;
}

// The HOOI sweep options of a distributed run.
core::HooiOptions sweep_options(const DistHooiOptions& o) {
  return {.ranks = o.ranks,
          .max_iterations = o.max_iterations,
          .fit_tolerance = o.fit_tolerance,
          .trsvd_method = o.trsvd_method,
          .ttmc_kernel = o.ttmc_kernel,
          .seed = o.seed,
          .trsvd = o.trsvd};
}

// Plans must fit the tensor and the options: the sweep indexes factors by
// the plans' rows and starts from their factor slices.
void validate_plans(const CooTensor& x, const DistHooiOptions& options,
                    const GlobalPlan& gplan,
                    const std::vector<RankPlan>& rplans) {
  const auto reject = [](const std::string& what) {
    throw InvalidArgument("partition plans do not fit: " + what);
  };
  const std::size_t order = x.order();
  if (gplan.num_ranks != options.num_ranks ||
      rplans.size() != static_cast<std::size_t>(options.num_ranks)) {
    reject("built for " + std::to_string(gplan.num_ranks) +
           " ranks, options request " + std::to_string(options.num_ranks));
  }
  if (gplan.row_owner.size() != order ||
      (gplan.grain == Grain::kFine && gplan.nnz_owner.size() != x.nnz())) {
    reject("global plan of another tensor");
  }
  for (std::size_t n = 0; n < order; ++n) {
    if (gplan.row_owner[n].size() != x.dim(n)) {
      reject("global plan of another size of mode " + std::to_string(n));
    }
  }
  for (const RankPlan& rp : rplans) {
    if (rp.modes.size() != order || rp.local.order() != order ||
        rp.initial_factors.size() != order) {
      reject("rank plan of another tensor order");
    }
    for (std::size_t n = 0; n < order; ++n) {
      const ModePlan& mp = rp.modes[n];
      const auto past_end = [&](index_t g) { return g >= x.dim(n); };
      if (std::any_of(mp.local_rows.begin(), mp.local_rows.end(), past_end) ||
          std::any_of(mp.owned_rows.begin(), mp.owned_rows.end(), past_end)) {
        reject("rank plan row past the size of mode " + std::to_string(n));
      }
      if (rp.initial_factors[n].cols() != options.ranks[n]) {
        reject("rank plan of another rank for mode " + std::to_string(n));
      }
    }
  }
}

// After the last sweep, rank 0 assembles the full dim x R factors from
// every rank's owned rows. A mode whose last solve was completed takes the
// completed factor instead: a rank-deficient completion may fill rows
// outside J_n, which no rank holds. Returns the factors on rank 0 only.
std::vector<la::Matrix> assemble_factors(
    smp::Communicator& comm, const std::vector<RankPlan>& rplans,
    const std::vector<std::vector<std::uint32_t>>& owned_pos,
    const std::vector<la::Matrix>& factors,
    std::vector<la::Matrix>& completed, const tensor::Shape& dims) {
  std::vector<la::Matrix> full(factors.size());
  for (std::size_t n = 0; n < factors.size(); ++n) {
    if (!completed[n].empty()) {
      if (comm.rank() == 0) full[n] = std::move(completed[n]);
      continue;
    }
    const std::size_t width = factors[n].cols();
    std::vector<double> mine(owned_pos[n].size() * width);
    for (std::size_t i = 0; i < owned_pos[n].size(); ++i) {
      const auto src = factors[n].row(owned_pos[n][i]);
      std::copy(src.begin(), src.end(), mine.begin() + static_cast<long>(i * width));
    }
    const std::vector<double> all = comm.allgatherv(mine);  // in rank order
    if (comm.rank() != 0) continue;
    full[n] = la::Matrix(dims[n], width);
    std::size_t k = 0;
    for (const RankPlan& rp : rplans) {
      for (index_t g : rp.modes[n].owned_rows) {
        std::copy_n(all.begin() + static_cast<long>(k++ * width), width,
                    full[n].row(g).begin());
      }
    }
  }
  return full;
}

}  // namespace

LoadSummary DistStats::ttmc_summary(std::size_t mode) const {
  return summarize_cells(*this, mode, &DistLoad::w_ttmc);
}

LoadSummary DistStats::trsvd_summary(std::size_t mode) const {
  return summarize_cells(*this, mode, &DistLoad::w_trsvd);
}

LoadSummary DistStats::comm_summary(std::size_t mode) const {
  return summarize_cells(*this, mode, &DistLoad::comm_entries);
}

LoadSummary DistStats::trsvd_rounds_summary(std::size_t mode) const {
  return summarize_cells(*this, mode, &DistLoad::trsvd_rounds);
}

std::uint64_t DistStats::total_comm_entries() const {
  std::uint64_t total = 0;
  for (const DistLoad& c : cells_) total += c.comm_entries;
  return total;
}

std::uint64_t DistStats::total_trsvd_rounds() const {
  std::uint64_t total = 0;
  for (const DistLoad& c : cells_) total += c.trsvd_rounds;
  return total;
}

void validate_dist_options(const CooTensor& x, const DistHooiOptions& options) {
  core::validate_hooi_options(x, sweep_options(options));
  if (options.num_ranks < 1) {
    throw InvalidArgument("num_ranks must be >= 1");
  }
}

DistHooiResult dist_hooi(const CooTensor& x, const DistHooiOptions& options) {
  validate_dist_options(x, options);
  PlanOptions popt;
  popt.grain = options.grain;
  popt.method = options.method;
  popt.num_ranks = options.num_ranks;
  popt.seed = options.seed;
  popt.epsilon = options.epsilon;
  const GlobalPlan gplan = build_global_plan(x, popt);
  const std::vector<RankPlan> rplans =
      build_rank_plans(x, gplan, options.ranks, options.seed);
  return dist_hooi(x, options, gplan, rplans);
}

DistHooiResult dist_hooi(const CooTensor& x, const DistHooiOptions& options,
                         const GlobalPlan& gplan,
                         const std::vector<RankPlan>& rplans) {
  validate_dist_options(x, options);
  validate_plans(x, options, gplan, rplans);
  const int p = options.num_ranks;
  const std::size_t order = x.order();
  const core::HooiOptions sweep_opts = sweep_options(options);
  const bool fine = gplan.grain == Grain::kFine;

  DistHooiResult result;
  result.label = config_label(gplan.grain, gplan.method);

  // Table III loads: a property of the partition, computed from the plans.
  result.stats = DistStats(order, static_cast<std::size_t>(p));
  for (std::size_t n = 0; n < order; ++n) {
    const auto hist = x.slice_nnz(n);
    const std::uint64_t width = tensor::shape_product_except(options.ranks, n);
    for (int r = 0; r < p; ++r) {
      const ModePlan& mp = rplans[r].modes[n];
      DistLoad& load = result.stats.at(n, static_cast<std::size_t>(r));
      if (fine) {
        load.w_ttmc = rplans[r].local.nnz();
        load.w_trsvd = mp.local_rows.size() * width;
      } else {
        for (index_t g : mp.owned_rows) load.w_ttmc += hist[g];
        load.w_trsvd = mp.owned_rows.size() * width;
      }
      const std::uint64_t rows_moved =
          comm_list_rows(mp.fold_send) + comm_list_rows(mp.fold_recv) +
          comm_list_rows(mp.factor_send) + comm_list_rows(mp.factor_recv);
      load.comm_entries = rows_moved * options.ranks[n];
    }
  }

  const double x_norm2 = x.norm2_squared();

  smp::run_spmd(p, [&](smp::Communicator& comm) {
    const int rank = comm.rank();
    const RankPlan& rp = rplans[static_cast<std::size_t>(rank)];
    parallel::ThreadScope threads(options.threads_per_rank);

    // Each rank preprocesses its own local tensor: the plan decides the
    // kernel and the index to build per rank.
    const core::TtmcPlan plan =
        core::TtmcPlan::build(rp.local, options.ttmc_kernel);

    // Per mode, the owned rows' positions among the local rows (== rows of
    // the local compact Y and factor: every local row is non-empty). The
    // fine grain's Y holds a partial row per local row; the coarse grain's
    // only the owned rows, complete, each on its owned row's factor row.
    std::vector<std::vector<std::uint32_t>> owned_pos(order), y_rows(order);
    std::vector<core::SweepMode> modes(order);
    for (std::size_t n = 0; n < order; ++n) {
      const ModePlan& mp = rp.modes[n];
      HT_CHECK(plan.rows(n).size() == mp.local_rows.size());
      for (index_t g : mp.owned_rows) {
        owned_pos[n].push_back(local_row_position(mp.local_rows, g));
      }
      modes[n] = {.factor_rows = plan.rows(n),
                  .owned = owned_pos[n],
                  .owned_rows = mp.owned_rows,
                  .lists = &mp,
                  .partial = fine,
                  .dim = x.dim(n)};
      if (!fine) {
        y_rows[n].resize(owned_pos[n].size());
        std::iota(y_rows[n].begin(), y_rows[n].end(), 0u);
        modes[n].factor_rows = owned_pos[n];
        modes[n].owned = y_rows[n];
      }
    }
    const core::TtmcStep ttmc = [&](const std::vector<la::Matrix>& f,
                                    std::size_t n, la::Matrix& y) {
      if (fine) {
        plan.ttmc(rp.local, f, n, y);
      } else {
        plan.ttmc_subset(rp.local, f, n, owned_pos[n], y);
      }
    };

    std::vector<la::Matrix> factors = rp.initial_factors;  // local slices
    // Restart: adopt this rank's factor slices from a previous run's
    // checkpoint when one exists, and count sweeps on from the stored
    // number. Only the initialization and the sweep count change, so a
    // 2-iteration checkpoint followed by a 2-iteration restart walks the
    // same fit trajectory as 4 straight iterations. The ranks agree on the
    // count so that they choose the same solver for every solve.
    int first_sweep = 0;
    if (!options.checkpoint_dir.empty()) {
      const std::string ckpt = checkpoint_path(options.checkpoint_dir, rank);
      if (std::filesystem::exists(ckpt)) first_sweep = load_checkpoint(ckpt, factors);
      first_sweep = static_cast<int>(
          comm.allreduce_max_u64(static_cast<std::uint64_t>(first_sweep)));
    }

    WallTimer loop_timer;
    core::SweepResult sweep = core::hooi_sweeps(
        comm, ttmc, modes, x_norm2, sweep_opts, first_sweep, factors);
    const double loop_seconds = loop_timer.seconds();

    if (!options.checkpoint_dir.empty()) {
      save_checkpoint(checkpoint_path(options.checkpoint_dir, rank), factors,
                      rank, first_sweep + sweep.result.iterations);
    }

    // Each rank owns its stats cells; writes from SPMD threads touch
    // disjoint DistLoad objects.
    for (std::size_t n = 0; n < order; ++n) {
      DistLoad& load = result.stats.at(n, static_cast<std::size_t>(rank));
      load.trsvd_rounds = sweep.trsvd_rounds[n];
      load.expand_bytes = sweep.expand_bytes[n];
    }

    // Slowest-rank step times (every rank participates in the reductions).
    core::HooiTimers reduced;
    reduced.symbolic = comm.allreduce_max(plan.build_seconds);
    reduced.ttmc = comm.allreduce_max(sweep.result.timers.ttmc);
    reduced.trsvd = comm.allreduce_max(sweep.result.timers.trsvd);
    reduced.core = comm.allreduce_max(sweep.result.timers.core);
    const double max_loop = comm.allreduce_max(loop_seconds);

    std::vector<la::Matrix> full = assemble_factors(
        comm, rplans, owned_pos, factors, sweep.completed, x.shape());
    if (rank == 0) {
      static_cast<core::HooiResult&>(result) = std::move(sweep.result);
      result.decomposition.factors = std::move(full);
      result.timers = reduced;
      result.seconds_per_iteration =
          result.iterations > 0 ? max_loop / result.iterations : 0.0;
    }
  });

  return result;
}

}  // namespace ht::dist
