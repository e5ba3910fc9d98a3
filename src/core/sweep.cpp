#include "core/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/hosvd.hpp"
#include "core/trsvd.hpp"
#include "core/tucker.hpp"
#include "la/blas.hpp"
#include "la/linear_operator.hpp"
#include "la/qr.hpp"
#include "parallel/thread_info.hpp"
#include "tensor/dense_tensor.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace ht::core {

namespace {

// One message round: each send list ships the width-wide rows of `data`
// at its positions to its peer; each receive list (ascending peer order,
// so sums are deterministic) adds or copies them in. A whole block per
// round is one latency per block apply, not one per Lanczos vector.
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
    for (std::size_t i = 0; i < rc.positions.size(); ++i) {
      double* row = data + static_cast<std::size_t>(rc.positions[i]) * width;
      for (std::size_t j = 0; j < width; ++j) {
        row[j] = accumulate ? row[j] + vals[i * width + j] : vals[i * width + j];
      }
    }
  }
}

// Row-distributed view of Y(n) for the TRSVD solvers (paper Sec. III-B):
// this rank's rows of Y(n), partial sums under the fine grain, complete
// rows otherwise. Y(n) is never assembled: apply() folds partial rows to
// their owners and expands the sums back, apply_transpose() allreduces the
// small column-space result (partial rows add up to the true ones), and
// row_dot()/row_gram() count each global row once, at its owner. The block
// entry points carry b vectors per message round; comm_rounds() counts the
// rounds. With no lists at one rank every collective is the identity and
// the kernels are la::DenseOperator's.
class DistYOperator final : public la::TrsvdOperator {
 public:
  DistYOperator(const la::Matrix& y, const ModeLists* lists,
                std::span<const std::uint32_t> owned_pos,
                std::size_t global_rows, smp::Communicator& comm, int tag_base)
      : y_(y),
        lists_(lists),
        owned_pos_(owned_pos),
        global_rows_(global_rows),
        comm_(comm),
        tag_base_(tag_base),
        // Owned positions are distinct rows, so as many as Y has are all.
        owned_is_all_rows_(owned_pos.size() == y.rows()) {}

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
      // The shared-memory default's kernel, so a single-rank run bit-matches
      // la::DenseOperator.
      la::gemm_tn_into(a, b, g);
    } else {
      // Fine grain, p > 1: count every global row once (owned positions).
      gather_rows(a, owned_pos_, ga_);
      if (&a == &b) {
        la::gemm_tn_into(ga_, ga_, g);
      } else {
        gather_rows(b, owned_pos_, gb_);
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
    if (lists_ == nullptr) return;
    if (!lists_->fold_send.empty() || !lists_->fold_recv.empty()) {
      exchange_row_blocks(comm_, data, width, lists_->fold_send,
                          lists_->fold_recv, tag_base_, /*accumulate=*/true);
      ++comm_rounds_;
    }
    if (!lists_->factor_send.empty() || !lists_->factor_recv.empty()) {
      exchange_row_blocks(comm_, data, width, lists_->factor_send,
                          lists_->factor_recv, tag_base_ + 1,
                          /*accumulate=*/false);
      ++comm_rounds_;
    }
  }

  const la::Matrix& y_;
  const ModeLists* lists_;
  std::span<const std::uint32_t> owned_pos_;
  std::size_t global_rows_;
  smp::Communicator& comm_;
  int tag_base_;
  bool owned_is_all_rows_;
  la::Matrix ga_, gb_;  // gathered owned rows, reused across Gram calls
  mutable std::uint64_t comm_rounds_ = 0;
};

// Complete a solve with fewer than `rank` directions or unconverged: sum
// the disjoint owned rows over ranks into the whole I_n x R_n factor (the
// one-rank scatter), orthonormalize its columns and keep the owned rows;
// the expand exchange then updates replicas. A completion may fill rows
// outside J_n, which no rank's factor holds: `completed` keeps the whole
// factor's non-zero rows and `completed_rows` their global ids. The whole
// factor is held column-major, the layout la::orthonormalize_columns runs
// in, so it is the one I_n x R_n buffer. A factor that already holds every
// row (one rank, no empty rows) completes in place.
void complete_factor(smp::Communicator& comm, const SweepMode& mode,
                     std::size_t rank, la::Matrix& factor,
                     la::Matrix& completed,
                     std::vector<index_t>& completed_rows) {
  if (comm.size() == 1 && factor.rows() == mode.dim) {
    la::orthonormalize_columns(factor);
    return;
  }
  const std::size_t dim = mode.dim;
  std::vector<double> full(dim * rank, 0.0);  // column j at full[j * dim]
  for (std::size_t i = 0; i < mode.owned.size(); ++i) {
    const auto src = factor.row(mode.factor_rows[mode.owned[i]]);
    for (std::size_t j = 0; j < rank; ++j) {
      full[j * dim + mode.owned_rows[i]] = src[j];
    }
  }
  comm.allreduce_sum(full);
  la::orthonormalize_columns(full, dim, rank);
  for (std::size_t i = 0; i < mode.owned.size(); ++i) {
    const auto dst = factor.row(mode.factor_rows[mode.owned[i]]);
    for (std::size_t j = 0; j < rank; ++j) {
      dst[j] = full[j * dim + mode.owned_rows[i]];
    }
  }
  completed_rows.clear();
  for (std::size_t g = 0; g < dim; ++g) {
    for (std::size_t j = 0; j < rank; ++j) {
      if (full[j * dim + g] != 0.0) {
        completed_rows.push_back(static_cast<index_t>(g));
        break;
      }
    }
  }
  completed = la::Matrix(completed_rows.size(), rank);
  for (std::size_t k = 0; k < completed_rows.size(); ++k) {
    for (std::size_t j = 0; j < rank; ++j) {
      completed(k, j) = full[j * dim + completed_rows[k]];
    }
  }
}

}  // namespace

SweepResult hooi_sweeps(smp::Communicator& comm, const TtmcStep& ttmc,
                        std::span<const SweepMode> modes, double x_norm2,
                        const HooiOptions& options,
                        std::vector<la::Matrix>& factors) {
  const std::size_t order = modes.size();
  SweepResult out;
  HooiResult& result = out.result;
  result.warm_solves.assign(order, 0);
  out.trsvd_rounds.assign(order, 0);
  out.expand_bytes.assign(order, 0);
  out.completed.resize(order);
  out.completed_rows.resize(order);
  // |J_n|: kAuto's warm rule and the solvable count read global sizes, so
  // every rank solves alike.
  std::vector<std::size_t> compact_rows(order);
  for (std::size_t n = 0; n < order; ++n) {
    compact_rows[n] = static_cast<std::size_t>(comm.allreduce_sum_scalar(
        static_cast<double>(modes[n].owned.size())));
  }
  const TrsvdMethod cold_method = resolve_trsvd_method(options.trsvd_method);
  const tensor::Shape core_shape(options.ranks.begin(), options.ranks.end());
  la::Matrix y;       // this rank's rows of the compact Y(n), reused
  la::Matrix u_core;  // the last mode's factor rows behind Y's rows
  WarmStart warm;     // power-step buffers, reused across modes and sweeps
  double previous_fit = -1.0;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    for (std::size_t n = 0; n < order; ++n) {
      const SweepMode& mode = modes[n];
      const auto rank = static_cast<std::size_t>(options.ranks[n]);
      WallTimer t_ttmc;
      ttmc(factors, n, y);
      result.timers.ttmc += t_ttmc.seconds();

      WallTimer t_trsvd;
      const std::size_t width = y.cols();  // prod of the other modes' ranks
      const std::size_t solvable = std::min({rank, compact_rows[n], width});
      const int tag = static_cast<int>(2 * n);  // fold; expand is tag + 1
      DistYOperator op(y, mode.partial ? mode.lists : nullptr, mode.owned,
                       compact_rows[n], comm, tag);
      const bool warm_solve =
          iter >= kWarmFirstSweep &&
          warm_trsvd_applies(options.trsvd_method, compact_rows[n], width,
                             rank);
      la::TrsvdResult cold;
      if (warm_solve) {
        warm.load(factors[n], mode.factor_rows);
        result.warm_solves[n] += warm_trsvd(op, warm, options.trsvd);
      } else {
        cold = run_trsvd_backend(op, cold_method, solvable, options.trsvd);
      }
      const la::TrsvdResult& solved = warm_solve ? warm.basis : cold;
      out.trsvd_rounds[n] += op.comm_rounds();

      // Factor update in place: owners write their rows of the solution
      // (columns past `solvable` stay zero until completion), then the
      // expand exchange copies every owned row to its replicas.
      la::Matrix& factor = factors[n];
      factor.set_zero();
      [[maybe_unused]] const bool par =
          la::blas_threading() && mode.owned.size() * rank >= (std::size_t{1} << 14);
#pragma omp parallel for schedule(static) if (par)
      for (std::size_t i = 0; i < mode.owned.size(); ++i) {
        const auto src = solved.u.row(mode.owned[i]);
        std::copy_n(src.begin(), solvable,
                    factor.row(mode.factor_rows[mode.owned[i]]).begin());
      }
      out.completed[n] = la::Matrix();
      out.completed_rows[n].clear();
      if (solvable < rank || !solved.converged) {
        // HOOI's fit formula needs orthonormal columns; every rank sees
        // the same condition.
        complete_factor(comm, mode, rank, factor, out.completed[n],
                        out.completed_rows[n]);
      }
      if (mode.lists != nullptr) {
        const smp::CommStats before = comm.stats();
        exchange_row_blocks(comm, factor.data(), rank, mode.lists->factor_send,
                            mode.lists->factor_recv, tag + 1,
                            /*accumulate=*/false);
        out.expand_bytes[n] += (comm.stats() - before).total_bytes();
      }
      result.timers.trsvd += t_trsvd.seconds();
    }

    // Core tensor: G(N) = U_N^T Y(N) summed over ranks; Y still holds the
    // last mode's TTMc — partial rows (fine grain) or disjoint owned rows
    // both add up to the global product (paper's core+comm step).
    WallTimer t_core;
    gather_rows(factors[order - 1], modes[order - 1].factor_rows, u_core);
    la::Matrix g_mat = la::gemm_tn(u_core, y);
    comm.allreduce_sum(g_mat.flat());
    result.decomposition.core =
        tensor::DenseTensor::dematricize(g_mat, core_shape, order - 1);
    result.timers.core += t_core.seconds();

    const double core_norm = result.decomposition.core.frobenius_norm();
    const double fit = fit_from_core_norm(x_norm2, core_norm * core_norm);
    result.fits.push_back(fit);
    result.iterations = iter + 1;

    if (previous_fit >= 0.0 &&
        std::abs(fit - previous_fit) < options.fit_tolerance) {
      result.converged = true;
      break;
    }
    previous_fit = fit;
  }
  return out;
}

HooiResult hooi_one_rank(const CooTensor& x, const HooiOptions& options,
                         const std::vector<std::span<const index_t>>& rows,
                         const TtmcStep& ttmc) {
  parallel::ThreadScope threads(options.num_threads);
  const std::size_t order = x.order();
  // Compact factors: row k of factor n is global row rows[n][k], cut from
  // the whole initial factors.
  std::vector<la::Matrix> factors =
      options.init == HooiInit::kRandom
          ? random_orthonormal_factors(x.shape(), options.ranks, options.seed,
                                       rows)
          : randomized_range_factors(x, options.ranks, options.seed,
                                     kRangeOversample, rows);
  std::vector<std::vector<index_t>> positions(order);
  std::vector<SweepMode> modes(order);
  for (std::size_t n = 0; n < order; ++n) {
    positions[n].resize(rows[n].size());
    std::iota(positions[n].begin(), positions[n].end(), index_t{0});
    modes[n] = {.factor_rows = positions[n],
                .owned = positions[n],
                .owned_rows = rows[n],
                .dim = x.dim(n)};
  }
  smp::World world(1);
  smp::Communicator comm(world, 0);
  SweepResult sweep =
      hooi_sweeps(comm, ttmc, modes, x.norm2_squared(), options, factors);
  TuckerDecomposition& dec = sweep.result.decomposition;
  dec.rows.resize(order);
  for (std::size_t n = 0; n < order; ++n) {
    std::vector<index_t> kept(rows[n].begin(), rows[n].end());
    if (!sweep.completed[n].empty()) {
      factors[n] = std::move(sweep.completed[n]);
      kept = std::move(sweep.completed_rows[n]);
    }
    if (kept.size() < x.dim(n)) dec.rows[n] = std::move(kept);
  }
  dec.factors = std::move(factors);
  return std::move(sweep.result);
}

}  // namespace ht::core
