#include "dist/dist_hooi.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/sweep.hpp"
#include "core/ttmc.hpp"
#include "parallel/thread_info.hpp"
#include "smp/communicator.hpp"
#include "tensor/csf.hpp"
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

// The HOOI sweep options of a distributed run.
core::HooiOptions sweep_options(const DistHooiOptions& o) {
  return {.ranks = o.ranks,
          .max_iterations = o.max_iterations,
          .fit_tolerance = o.fit_tolerance,
          .trsvd_method = o.trsvd_method,
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

    // Each rank builds the CSF forest of its own local tensor (an empty one
    // when the rank holds no nonzeros).
    WallTimer build_timer;
    const tensor::CsfTensor forest = tensor::CsfTensor::build(rp.local);
    const double build_seconds = build_timer.seconds();

    // Per mode, the owned rows' positions among the local rows (== rows of
    // the local compact Y and factor: every local row is non-empty). The
    // fine grain's Y holds a partial row per local row; the coarse grain's
    // only the owned rows, complete, each on its owned row's factor row.
    std::vector<std::vector<std::uint32_t>> owned_pos(order), y_rows(order);
    std::vector<core::SweepMode> modes(order);
    for (std::size_t n = 0; n < order; ++n) {
      const ModePlan& mp = rp.modes[n];
      const std::vector<index_t>& roots = forest.modes[n].idx[0];
      HT_CHECK(roots.size() == mp.local_rows.size());
      for (index_t g : mp.owned_rows) {
        owned_pos[n].push_back(local_row_position(mp.local_rows, g));
      }
      modes[n] = {.factor_rows = roots,
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
        core::ttmc_mode(rp.local, f, n, forest.modes[n], y);
      } else {
        core::ttmc_mode_subset(rp.local, f, n, forest.modes[n], owned_pos[n],
                               y);
      }
    };

    std::vector<la::Matrix> factors = rp.initial_factors;  // local slices
    WallTimer loop_timer;
    core::SweepResult sweep =
        core::hooi_sweeps(comm, ttmc, modes, x_norm2, sweep_opts, factors);
    const double loop_seconds = loop_timer.seconds();

    // Each rank owns its stats cells; writes from SPMD threads touch
    // disjoint DistLoad objects.
    for (std::size_t n = 0; n < order; ++n) {
      DistLoad& load = result.stats.at(n, static_cast<std::size_t>(rank));
      load.trsvd_rounds = sweep.trsvd_rounds[n];
      load.expand_bytes = sweep.expand_bytes[n];
    }

    // Slowest-rank step times (every rank participates in the reductions).
    core::HooiTimers reduced;
    reduced.symbolic = comm.allreduce_max(build_seconds);
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
