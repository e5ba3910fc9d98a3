// TRSVD step of HOOI: leading left singular vectors of the (compact)
// matricized TTMc result Y(n) (paper Section III-A.2).
//
// TrsvdMethod names two matrix-free solvers and HOOI's rule over them; no
// solve assembles Y(n), the paper's argument against Gram methods:
//   kLanczos     scalar Golub–Kahan–Lanczos (the paper's SLEPc
//                substitute), iterated to tolerance; every step is a
//                bandwidth-bound gemv pass over Y(n);
//   kRandomized  HMT randomized subspace iteration: a fixed budget of 2q+2
//                block passes, accuracy set by oversampling/power
//                iterations;
//   kAuto        the HOOI default: scalar Lanczos, except that from the
//                third sweep on HOOI and dist_hooi solve a mode whose
//                compact Y(n) holds at least kWarmMinEntries entries with
//                warm_trsvd: kWarmSteps block power steps from the compact
//                rows of the mode's current factor, followed by a cold
//                Lanczos solve only when the steps have not settled.
//
// Why the warm path works: after two sweeps U_n already spans nearly the
// subspace the new solve would find, so a few passes of W <- orth(Y Y^T W)
// converge where a cold Lanczos solve needs 13–21 bidiagonalization steps
// (two gemv passes each). No Rayleigh–Ritz rotation follows: the fit, the
// core norm and every later Y(m) are invariant under a rotation inside the
// subspace. Sweeps 1 and 2 stay cold because sweep 1 solves against random
// factors. Small problems stay cold because their Lanczos solve is cheap,
// and on near-noise spectra a few power steps lose fit. Power steps
// converge slowly where the rank-th and next singular values nearly tie,
// so each warm solve watches the energy ||Y^T W||_F^2 its steps capture
// and reruns cold when that is still rising (kWarmEnergyTol).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>

#include "la/lanczos.hpp"
#include "la/matrix.hpp"
#include "tensor/types.hpp"

namespace ht::core {

using tensor::index_t;

enum class TrsvdMethod { kLanczos, kRandomized, kAuto };

/// Compact Y(n) entries (rows x cols) from which a warm-started kAuto solve
/// takes the power steps.
inline constexpr std::size_t kWarmMinEntries = std::size_t{1} << 20;
/// Block power steps of a warm solve.
inline constexpr std::size_t kWarmSteps = 4;
/// First sweep (0-based, counting every sweep the factors have been
/// through) from which HOOI solves warm: the third.
inline constexpr int kWarmFirstSweep = 2;
/// A warm solve keeps its power steps' basis when the captured energy the
/// steps are estimated to still be missing is at most this share of what
/// they capture; otherwise it reruns cold Lanczos.
inline constexpr double kWarmEnergyTol = 5e-4;

/// The solver a cold solve runs: kAuto resolves to kLanczos, every other
/// method to itself.
TrsvdMethod resolve_trsvd_method(TrsvdMethod method);

/// kAuto's rule for a solve from the third sweep on: a rows x cols compact
/// problem is solved warm when it holds at least kWarmMinEntries entries
/// and can deliver all `rank` directions.
bool warm_trsvd_applies(TrsvdMethod method, std::size_t rows,
                        std::size_t cols, std::size_t rank);

/// CLI/bench name <-> enum helpers ("lanczos", "rand", "auto"); parse
/// returns nullopt on unknown names.
std::optional<TrsvdMethod> parse_trsvd_method(std::string_view name);
const char* trsvd_method_name(TrsvdMethod method);

/// Run a cold solver (kLanczos/kRandomized) over an operator: the HOOI
/// sweep's (core/sweep.hpp) one wiring of the solvers. Unresolved kAuto is
/// a programming error here.
la::TrsvdResult run_trsvd_backend(la::TrsvdOperator& op, TrsvdMethod method,
                                  std::size_t rank,
                                  const la::TrsvdOptions& options);

/// Warm start of one solve and the buffers its power steps run in. A HOOI
/// run keeps one for all modes and sweeps, so the row-space blocks are
/// allocated once at the size of the largest mode.
struct WarmStart {
  /// basis.u holds the start on entry and the solution on return.
  la::TrsvdResult basis;
  la::Matrix z, scratch;

  /// Start from the rows of `factor` listed in `rows` (one row of the
  /// operator's row space each).
  void load(const la::Matrix& factor, std::span<const index_t> rows);
};

/// dst's row i = src's row rows[i] (dst is resized).
void gather_rows(const la::Matrix& src, std::span<const index_t> rows,
                 la::Matrix& dst);

/// kAuto's warm solve over `op`, whose rank is warm.basis.u.cols():
/// kWarmSteps block power steps W <- orth(A A^T W) in place in
/// warm.basis.u. A step is one apply_transpose_block, one apply_block and
/// a two-pass la::orthonormalize_rowspace_block: in the distributed
/// operator, one batched fold, one batched expand and three allreduces.
/// The column-space block of each step gives the energy ||A^T W||_F^2 of
/// the step's start, identical on every rank. When the last three
/// energies put the steps within kWarmEnergyTol of their limit, the basis
/// is kept (basis.sigma empty: no singular values are computed) and the
/// call returns true. Otherwise, or when a direction was lost, warm.basis
/// becomes a cold Lanczos solve under `options` and the call returns
/// false.
bool warm_trsvd(la::TrsvdOperator& op, WarmStart& warm,
                const la::TrsvdOptions& options);

}  // namespace ht::core
