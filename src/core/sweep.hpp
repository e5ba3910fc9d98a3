// The HOOI sweep, written once (paper Algorithms 3 and 4): TTMc, kAuto's
// warm-or-cold TRSVD, the factor update, the core GEMM after the last mode,
// the fit and the stopping test (hooi.hpp and dist_hooi.hpp describe the
// steps). hooi and the MET baseline run it at one rank in the calling
// thread (hooi_one_rank), dist_hooi on every rank inside smp::run_spmd.
// The callers differ in their TTMc step (the CSF walk over the caller's
// forest, or the MET baseline's TTM chain) and per-mode data, not in code;
// at one rank there are no lists and every collective returns at once, so
// the TRSVD operator runs exactly la::DenseOperator's kernels. kAuto's warm
// rule reads the loop's own sweep index.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/hooi.hpp"
#include "smp/communicator.hpp"

namespace ht::core {

/// One direction of a row exchange: the rows (positions in the exchanged
/// matrix) sent to or received from `peer`. Matching send and receive lists
/// enumerate the same global rows in the same order.
struct CommList {
  int peer = -1;
  std::vector<std::uint32_t> positions;
};

/// One rank's exchange lists for one mode, over its local rows.
struct ModeLists {
  /// Expand phase: owner sends the updated factor row to every replica.
  std::vector<CommList> factor_send, factor_recv;
  /// Fold phase (fine grain only): replicas send partial row results to the
  /// owner, which accumulates them in ascending peer order.
  std::vector<CommList> fold_send, fold_recv;
};

/// One rank's data for one mode, borrowed for the whole loop.
struct SweepMode {
  /// The row of the rank's factor behind each row of its Y(n).
  std::span<const index_t> factor_rows;
  /// The rows of Y(n) this rank owns, and the global row of each; every
  /// non-empty row is owned by exactly one rank.
  std::span<const std::uint32_t> owned;
  std::span<const index_t> owned_rows;
  /// Lists over the local rows (null at one rank): the factor update
  /// expands with them, and when Y(n) holds `partial` sums, one per local
  /// row, the TRSVD operator folds and expands with them too.
  const ModeLists* lists = nullptr;
  bool partial = false;
  index_t dim = 0;  // the mode's global size
};

/// A TTMc step: this rank's rows of the compact Y(mode) from the factors.
using TtmcStep = std::function<void(const std::vector<la::Matrix>& factors,
                                    std::size_t mode, la::Matrix& y)>;

struct SweepResult {
  /// Identical on every rank; decomposition.factors is left empty.
  HooiResult result;
  /// Per mode, summed over sweeps: TRSVD communication rounds, and the
  /// bytes the factor update's expand exchange sent plus received.
  std::vector<std::uint64_t> trsvd_rounds, expand_bytes;
  /// Per mode, the whole factor the last solve was completed to when the
  /// rank's factor is a slice of it (else empty): a completion may fill
  /// rows outside J_n, which no slice holds.
  std::vector<la::Matrix> completed;
};

/// Run HOOI sweeps on this rank of `comm`, updating `factors` (the rank's,
/// one per mode) in place. `x_norm2` is the whole tensor's squared norm.
/// Reads options.ranks, max_iterations, fit_tolerance, trsvd_method and
/// trsvd.
SweepResult hooi_sweeps(smp::Communicator& comm, const TtmcStep& ttmc,
                        std::span<const SweepMode> modes, double x_norm2,
                        const HooiOptions& options,
                        std::vector<la::Matrix>& factors);

/// HOOI over `x` (validated options) at one rank in the calling thread,
/// from options.init's factors: rows[n], the non-empty rows of mode n in
/// increasing order, are Y(n)'s rows.
HooiResult hooi_one_rank(const CooTensor& x, const HooiOptions& options,
                         const std::vector<std::span<const index_t>>& rows,
                         const TtmcStep& ttmc);

}  // namespace ht::core
