#include "dist/dist_hooi.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "core/trsvd.hpp"
#include "core/ttmc_plan.hpp"
#include "core/tucker_model.hpp"
#include "la/blas.hpp"
#include "storage/bundle.hpp"
#include "parallel/thread_info.hpp"
#include "smp/communicator.hpp"
#include "tensor/dense_tensor.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace ht::dist {

namespace {

// Fold/expand row exchange of a b-wide block of row-space vectors stored
// row-major at `data` (row r of the block starts at data + r * width): for
// every send list, ship the b-entry rows at the listed local positions to
// the peer in one message; for every receive list (ascending peer order, so
// accumulation is deterministic), combine the incoming rows at the listed
// positions. One call is one message round regardless of width — this is
// the batching that makes the blocked TRSVD solves pay one latency per
// block apply instead of one per Lanczos vector (width 1 reproduces the
// scalar exchange).
void exchange_row_blocks(smp::Communicator& comm, double* data,
                         std::size_t width, const std::vector<CommList>& send,
                         const std::vector<CommList>& recv, int tag,
                         bool accumulate) {
  std::vector<double> buf;
  for (const CommList& s : send) {
    buf.resize(s.positions.size() * width);
    for (std::size_t i = 0; i < s.positions.size(); ++i) {
      const double* row = data + static_cast<std::size_t>(s.positions[i]) * width;
      std::copy(row, row + width, buf.begin() + static_cast<long>(i * width));
    }
    comm.send<double>(s.peer, tag, buf);
  }
  for (const CommList& rc : recv) {
    const std::vector<double> vals = comm.recv<double>(rc.peer, tag);
    HT_CHECK_MSG(vals.size() == rc.positions.size() * width,
                 "fold/expand payload size mismatch");
    if (accumulate) {
      for (std::size_t i = 0; i < rc.positions.size(); ++i) {
        double* row = data + static_cast<std::size_t>(rc.positions[i]) * width;
        for (std::size_t j = 0; j < width; ++j) row[j] += vals[i * width + j];
      }
    } else {
      for (std::size_t i = 0; i < rc.positions.size(); ++i) {
        double* row = data + static_cast<std::size_t>(rc.positions[i]) * width;
        for (std::size_t j = 0; j < width; ++j) row[j] = vals[i * width + j];
      }
    }
  }
}

// Row-distributed view of Y(n) for the TRSVD solvers (paper Sec. III-B):
// the local matrix holds this rank's rows of Y(n) — partial sums over the
// rank's nonzeros under the fine grain, complete owned rows under the
// coarse grain. Y(n) is never assembled:
//   apply():           u = Y_local v, then (fine grain) fold partial row
//                      entries to their owners and expand the folded values
//                      back, leaving u globally consistent at every local
//                      position;
//   apply_transpose(): v = Y_local^T u summed over ranks — partial local
//                      rows add up to the true rows, so a plain allreduce
//                      of the small column-space vector is exact;
//   row_dot():         each global row counted once (owned positions only),
//                      then reduced.
// With one rank all lists are empty and every collective is the identity,
// so the operator degenerates to la::DenseOperator over the compact Y(n).
//
// The block entry points batch b vectors per communication round: one
// fold/expand exchange carries b-wide row blocks and one allreduce carries
// the whole c x b column-space block, so the blocked TRSVD solves pay
// ~1/b of the scalar solver's message rounds (comm_rounds() reports the
// measured count, surfaced through DistStats).
class DistYOperator final : public la::TrsvdOperator {
 public:
  DistYOperator(const la::Matrix& y, const ModePlan& mp,
                std::span<const std::uint32_t> owned_pos,
                std::size_t global_rows, smp::Communicator& comm, int tag_base)
      : y_(y),
        mp_(mp),
        owned_pos_(owned_pos),
        global_rows_(global_rows),
        comm_(comm),
        tag_base_(tag_base) {
    owned_is_all_rows_ = owned_pos_.size() == y_.rows();
    for (std::size_t i = 0; owned_is_all_rows_ && i < owned_pos_.size(); ++i) {
      owned_is_all_rows_ = owned_pos_[i] == i;
    }
  }

  [[nodiscard]] std::size_t row_local_size() const override {
    return y_.rows();
  }
  [[nodiscard]] std::size_t row_global_size() const override {
    return global_rows_;
  }
  [[nodiscard]] std::size_t col_size() const override { return y_.cols(); }

  void apply(std::span<const double> v, std::span<double> u) override {
    la::gemv(y_, v, u);
    fold_expand(u.data(), 1);
  }

  void apply_transpose(std::span<const double> u,
                       std::span<double> v) override {
    la::gemv_t(y_, u, v);
    comm_.allreduce_sum(v);
    ++comm_rounds_;
  }

  [[nodiscard]] double row_dot(std::span<const double> a,
                               std::span<const double> b) const override {
    double s = 0.0;
    if (owned_is_all_rows_) {
      // The shared-memory default, as in row_gram.
      s = la::dot(a, b);
    } else {
      for (std::uint32_t pos : owned_pos_) s += a[pos] * b[pos];
    }
    ++comm_rounds_;
    return comm_.allreduce_sum_scalar(s);
  }

  void apply_block(const la::Matrix& v, la::Matrix& u) override {
    la::gemm_into(y_, v, u);
    fold_expand(u.data(), u.cols());
  }

  void apply_transpose_block(const la::Matrix& u, la::Matrix& v) override {
    la::gemm_tn_into(y_, u, v);
    comm_.allreduce_sum(v.flat());
    ++comm_rounds_;
  }

  void row_gram(const la::Matrix& a, const la::Matrix& b,
                la::Matrix& g) override {
    if (owned_is_all_rows_) {
      // Same code path as the shared-memory default, so a single-rank run
      // bit-matches core::hooi.
      la::gemm_tn_into(a, b, g);
    } else {
      // Fine grain, p > 1: count every global row once (owned positions).
      gather_rows(a, ga_);
      if (&a == &b) {
        la::gemm_tn_into(ga_, ga_, g);
      } else {
        gather_rows(b, gb_);
        la::gemm_tn_into(ga_, gb_, g);
      }
    }
    comm_.allreduce_sum(g.flat());
    ++comm_rounds_;
  }

  /// Measured communication rounds (exchanges + allreduces) so far.
  [[nodiscard]] std::uint64_t comm_rounds() const { return comm_rounds_; }

 private:
  void fold_expand(double* data, std::size_t width) {
    if (!mp_.fold_send.empty() || !mp_.fold_recv.empty()) {
      exchange_row_blocks(comm_, data, width, mp_.fold_send, mp_.fold_recv,
                          tag_base_, /*accumulate=*/true);
      ++comm_rounds_;
    }
    if (!mp_.factor_send.empty() || !mp_.factor_recv.empty()) {
      exchange_row_blocks(comm_, data, width, mp_.factor_send,
                          mp_.factor_recv, tag_base_ + 1,
                          /*accumulate=*/false);
      ++comm_rounds_;
    }
  }

  void gather_rows(const la::Matrix& src, la::Matrix& dst) const {
    dst.resize(owned_pos_.size(), src.cols());
    for (std::size_t i = 0; i < owned_pos_.size(); ++i) {
      const auto row = src.row(owned_pos_[i]);
      std::copy(row.begin(), row.end(), dst.row(i).begin());
    }
  }

  const la::Matrix& y_;
  const ModePlan& mp_;
  std::span<const std::uint32_t> owned_pos_;
  std::size_t global_rows_;
  smp::Communicator& comm_;
  int tag_base_;
  bool owned_is_all_rows_ = false;
  la::Matrix ga_, gb_;  // gathered owned rows, reused across Gram calls
  mutable std::uint64_t comm_rounds_ = 0;
};

// Replicated per-mode geometry shared by all ranks.
struct ModeGlobal {
  /// J_n: sorted global rows with nonzeros (the shared-memory compact set).
  std::vector<index_t> rows;
  /// Assembly permutation: sorted position k corresponds to entry
  /// gather_perm[k] of the rank-order concatenation of owned_rows.
  std::vector<std::uint32_t> gather_perm;
  std::size_t width = 0;     // prod of ranks over the other modes
  std::size_t solvable = 0;  // min(rank, |J_n|, width)
};

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

bool checkpoint_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
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
    std::string meta;
    meta += "kind=dist_checkpoint\n";
    meta += "rank=" + std::to_string(rank) + "\n";
    meta += "sweeps=" + std::to_string(sweeps) + "\n";
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
  if (x.nnz() == 0) {
    throw InvalidArgument("distributed HOOI needs a nonempty tensor");
  }
  if (options.ranks.size() != x.order()) {
    throw InvalidArgument("need one rank per tensor mode");
  }
  for (std::size_t n = 0; n < x.order(); ++n) {
    if (options.ranks[n] < 1 || options.ranks[n] > x.dim(n)) {
      throw InvalidArgument("rank out of range for mode " + std::to_string(n));
    }
  }
  if (options.max_iterations < 1) {
    throw InvalidArgument("max_iterations must be >= 1");
  }
  if (options.num_ranks < 1) {
    throw InvalidArgument("num_ranks must be >= 1");
  }
  if (options.trsvd_method == core::TrsvdMethod::kGram) {
    throw InvalidArgument(
        "Gram TRSVD would require assembling Y(n); pick a matrix-free "
        "backend for distributed HOOI");
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
  const int p = options.num_ranks;
  HT_CHECK_MSG(gplan.num_ranks == p, "plan was built for "
                                         << gplan.num_ranks
                                         << " ranks, options request " << p);
  HT_CHECK_MSG(rplans.size() == static_cast<std::size_t>(p),
               "rank plan count mismatch");
  const std::size_t order = x.order();

  // Replicated geometry.
  std::vector<ModeGlobal> geo(order);
  for (std::size_t n = 0; n < order; ++n) {
    ModeGlobal& g = geo[n];
    g.width = 1;
    for (std::size_t t = 0; t < order; ++t) {
      if (t != n) g.width *= options.ranks[t];
    }
    std::vector<std::pair<index_t, std::uint32_t>> concat;
    for (int r = 0; r < p; ++r) {
      for (index_t row : rplans[r].modes[n].owned_rows) {
        concat.emplace_back(row, static_cast<std::uint32_t>(concat.size()));
      }
    }
    std::sort(concat.begin(), concat.end());
    g.rows.reserve(concat.size());
    g.gather_perm.reserve(concat.size());
    for (const auto& [row, pos] : concat) {
      g.rows.push_back(row);
      g.gather_perm.push_back(pos);
    }
    g.solvable = std::min({static_cast<std::size_t>(options.ranks[n]),
                           g.rows.size(), g.width});
  }

  DistHooiResult result;
  result.label = config_label(gplan.grain, gplan.method);

  // The solver of the cold solves, and whether kAuto may warm-start a mode
  // at all. The warm rule reads the *global* compact problem (|J_n| x
  // prod-of-other-ranks): the choice must be identical on every rank since
  // the solvers make collective calls in lockstep.
  result.trsvd_methods.assign(order,
                              core::resolve_trsvd_method(options.trsvd_method));
  std::vector<bool> warm_mode(order);
  for (std::size_t n = 0; n < order; ++n) {
    warm_mode[n] = core::warm_trsvd_applies(
        options.trsvd_method, geo[n].rows.size(), geo[n].width,
        static_cast<std::size_t>(options.ranks[n]));
  }

  // Table III loads: a property of the partition, computed from the plans.
  result.stats = DistStats(order, static_cast<std::size_t>(p));
  for (std::size_t n = 0; n < order; ++n) {
    const auto hist = x.slice_nnz(n);
    for (int r = 0; r < p; ++r) {
      const ModePlan& mp = rplans[r].modes[n];
      DistLoad& load = result.stats.at(n, static_cast<std::size_t>(r));
      if (gplan.grain == Grain::kFine) {
        load.w_ttmc = rplans[r].local.nnz();
        load.w_trsvd = mp.local_rows.size() * geo[n].width;
      } else {
        for (index_t g : mp.owned_rows) load.w_ttmc += hist[g];
        load.w_trsvd = mp.owned_rows.size() * geo[n].width;
      }
      const std::uint64_t rows_moved =
          comm_list_rows(mp.fold_send) + comm_list_rows(mp.fold_recv) +
          comm_list_rows(mp.factor_send) + comm_list_rows(mp.factor_recv);
      load.comm_entries = rows_moved * options.ranks[n];
    }
  }

  const double x_norm2 = x.norm2_squared();
  const tensor::Shape core_shape(options.ranks.begin(), options.ranks.end());

  smp::run_spmd(p, [&](smp::Communicator& comm) {
    const int rank = comm.rank();
    const RankPlan& rp = rplans[static_cast<std::size_t>(rank)];
    parallel::ThreadScope threads(options.threads_per_rank);

    // Each rank preprocesses its own local tensor: kAuto resolves the
    // kernel and the structures to build per rank.
    const core::TtmcPlan plan = core::TtmcPlan::build(rp.local, options.ttmc);
    core::HooiTimers timers;
    timers.symbolic = plan.build_seconds;

    // Positions of owned rows inside the local row set (== local compact Y
    // rows: every local row is non-empty by construction), plus the
    // operator's owned positions within its row space: all local rows under
    // the fine grain, the owned rows themselves (identity) under the coarse
    // grain, where Y holds owned rows only.
    const bool fine = gplan.grain == Grain::kFine;
    std::vector<std::vector<std::uint32_t>> owned_pos(order);
    std::vector<std::vector<std::uint32_t>> op_owned_pos(order);
    // Local factor row behind each row of the operator's row space: where a
    // warm start is read from.
    std::vector<std::vector<index_t>> op_factor_rows(order);
    for (std::size_t n = 0; n < order; ++n) {
      const std::vector<index_t>& sym_rows = plan.rows(n);
      HT_CHECK(sym_rows.size() == rp.modes[n].local_rows.size());
      owned_pos[n].reserve(rp.modes[n].owned_rows.size());
      for (index_t g : rp.modes[n].owned_rows) {
        owned_pos[n].push_back(local_row_position(rp.modes[n].local_rows, g));
      }
      if (fine) {
        op_owned_pos[n] = owned_pos[n];
        op_factor_rows[n] = sym_rows;
      } else {
        op_owned_pos[n].resize(rp.modes[n].owned_rows.size());
        std::iota(op_owned_pos[n].begin(), op_owned_pos[n].end(), 0u);
        for (std::uint32_t pos : owned_pos[n]) {
          op_factor_rows[n].push_back(sym_rows[pos]);
        }
      }
    }

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
      if (checkpoint_exists(ckpt)) first_sweep = load_checkpoint(ckpt, factors);
      first_sweep = static_cast<int>(
          comm.allreduce_max_u64(static_cast<std::uint64_t>(first_sweep)));
    }
    std::vector<la::Matrix> full_factors(order);           // assembled U_n
    la::Matrix y;  // local part of compact Y(n), reused across modes
    core::WarmStart warm;  // power-step buffers, reused across modes
    std::vector<int> warm_solves(order, 0);
    tensor::DenseTensor core_tensor;
    std::vector<double> fits;
    int iterations = 0;
    bool converged = false;
    double previous_fit = -1.0;

    WallTimer loop_timer;
    for (int iter = 0; iter < options.max_iterations; ++iter) {
      for (std::size_t n = 0; n < order; ++n) {
        const ModePlan& mp = rp.modes[n];
        const ModeGlobal& g = geo[n];
        const auto rank_n = static_cast<std::size_t>(options.ranks[n]);

        WallTimer t_ttmc;
        if (fine) {
          // Partial rows over every local row; folded inside the TRSVD.
          plan.ttmc(rp.local, factors, n, y);
        } else {
          // Owners hold whole slices: owned rows are complete.
          plan.ttmc_subset(rp.local, factors, n, owned_pos[n], y);
        }
        timers.ttmc += t_ttmc.seconds();

        WallTimer t_trsvd;
        // Row space of the operator: all local rows (fine, partial) or the
        // owned rows only (coarse, complete — no fold/expand lists needed).
        static const ModePlan kNoComm;
        const ModePlan& op_plan = fine ? mp : kNoComm;
        DistYOperator op(y, op_plan, op_owned_pos[n], g.rows.size(), comm,
                         static_cast<int>(2 * n));
        const bool warm_solve =
            warm_mode[n] && first_sweep + iter >= core::kWarmFirstSweep;
        la::TrsvdResult cold;
        if (warm_solve) {
          warm.load(factors[n], op_factor_rows[n]);
          warm_solves[n] += core::warm_trsvd(op, warm, options.trsvd);
        } else {
          cold = core::run_trsvd_backend(op, result.trsvd_methods[n],
                                         g.solvable, options.trsvd);
        }
        const la::TrsvdResult& solved = warm_solve ? warm.basis : cold;
        // Each rank owns its stats cell; writes from SPMD threads touch
        // disjoint DistLoad objects.
        result.stats.at(n, static_cast<std::size_t>(rank)).trsvd_rounds +=
            op.comm_rounds();

        // Gather the owners' rows of U and assemble the replicated compact
        // solution in global row order (identical on every rank: collectives
        // concatenate in rank order and the permutation is precomputed).
        std::vector<double> mine(mp.owned_rows.size() * g.solvable);
        for (std::size_t i = 0; i < mp.owned_rows.size(); ++i) {
          const std::size_t src = fine ? owned_pos[n][i] : i;
          for (std::size_t j = 0; j < g.solvable; ++j) {
            mine[i * g.solvable + j] = solved.u(src, j);
          }
        }
        const std::vector<double> gathered = comm.allgatherv(mine);
        HT_CHECK(gathered.size() == g.rows.size() * g.solvable);
        la::TrsvdResult global;
        global.sigma = solved.sigma;
        global.steps = solved.steps;
        global.converged = solved.converged;
        global.u.resize_zero(g.rows.size(), g.solvable);
        for (std::size_t k = 0; k < g.rows.size(); ++k) {
          const double* src = gathered.data() +
                              static_cast<std::size_t>(g.gather_perm[k]) *
                                  g.solvable;
          std::copy(src, src + g.solvable, global.u.row(k).begin());
        }
        const core::FactorTrsvd svd = core::scatter_trsvd_solution(
            global, g.solvable, g.rows, x.dim(n), rank_n);

        // Refresh the local factor slice (padded like the local tensor).
        la::Matrix local_f(rp.local.dim(n), rank_n);
        for (std::size_t i = 0; i < mp.local_rows.size(); ++i) {
          const auto src = svd.factor.row(mp.local_rows[i]);
          std::copy(src.begin(), src.end(), local_f.row(i).begin());
        }
        factors[n] = std::move(local_f);
        full_factors[n] = svd.factor;
        timers.trsvd += t_trsvd.seconds();

        if (n + 1 == order) {
          // Core tensor: G(N) = U_N^T Y(N) summed over ranks — partial
          // local Y rows (fine) or disjoint owned rows (coarse) both add up
          // to the global product (paper's core+comm step).
          WallTimer t_core;
          la::Matrix u_slice(y.rows(), rank_n);
          const std::vector<index_t>& rows =
              fine ? mp.local_rows : mp.owned_rows;
          for (std::size_t i = 0; i < rows.size(); ++i) {
            const auto src = svd.factor.row(rows[i]);
            std::copy(src.begin(), src.end(), u_slice.row(i).begin());
          }
          la::Matrix g_mat = la::gemm_tn(u_slice, y);
          comm.allreduce_sum(g_mat.flat());
          core_tensor =
              tensor::DenseTensor::dematricize(g_mat, core_shape, order - 1);
          timers.core += t_core.seconds();
        }
      }

      const double core_norm = core_tensor.frobenius_norm();
      const double fit = core::fit_from_core_norm(x_norm2, core_norm * core_norm);
      fits.push_back(fit);
      iterations = iter + 1;

      if (previous_fit >= 0.0 &&
          std::abs(fit - previous_fit) < options.fit_tolerance) {
        converged = true;
        break;
      }
      previous_fit = fit;
    }
    const double loop_seconds = loop_timer.seconds();

    if (!options.checkpoint_dir.empty()) {
      save_checkpoint(checkpoint_path(options.checkpoint_dir, rank), factors,
                      rank, first_sweep + iterations);
    }

    // Slowest-rank step times (every rank participates in the reductions).
    core::HooiTimers reduced;
    reduced.symbolic = comm.allreduce_max(timers.symbolic);
    reduced.ttmc = comm.allreduce_max(timers.ttmc);
    reduced.trsvd = comm.allreduce_max(timers.trsvd);
    reduced.core = comm.allreduce_max(timers.core);
    const double max_loop = comm.allreduce_max(loop_seconds);

    if (rank == 0) {
      result.decomposition.core = std::move(core_tensor);
      result.decomposition.factors = std::move(full_factors);
      result.fits = std::move(fits);
      result.iterations = iterations;
      result.converged = converged;
      result.warm_solves = std::move(warm_solves);
      result.timers = reduced;
      result.seconds_per_iteration =
          iterations > 0 ? max_loop / iterations : 0.0;
    }
  });

  return result;
}

}  // namespace ht::dist
