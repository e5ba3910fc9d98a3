// Options and result types shared by every TRSVD solver (scalar Lanczos,
// randomized subspace iteration, the Gram oracle, HOOI's warm power
// steps).
//
// Split out of lanczos.hpp so the blocked solvers do not depend on the
// scalar solver's header; lanczos.hpp re-exports both names for existing
// includers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/matrix.hpp"

namespace ht::la {

struct TrsvdOptions {
  /// Residual tolerance relative to the largest singular value.
  double tol = 1e-10;
  /// Hard cap on bidiagonalization steps (0 = automatic:
  /// min(c, max(2*rank+20, 30))).
  std::size_t max_steps = 0;
  /// Seed for the deterministic starting vector / sketch.
  std::uint64_t seed = 0x5eed5eedULL;

  // -- randomized-solver knobs -----------------------------------------------

  /// Oversampling p for the randomized range finder: the sketch carries
  /// rank + p columns (clamped to the operator's column size).
  std::size_t oversample = 8;
  /// Power (subspace) iterations q for the randomized range finder. Each
  /// adds one A^T-apply + one A-apply block round and sharpens the captured
  /// subspace by a factor (sigma_{l+1}/sigma_rank)^2. One iteration is
  /// enough at HOOI's ALS tolerances (the compact Y(n) spectra decay past
  /// the Tucker rank); raise for gapless spectra or tighter targets.
  std::size_t power_iterations = 1;
};

struct TrsvdResult {
  /// Leading left singular vectors, row_local_size() x rank.
  Matrix u;
  /// Leading singular values, descending (empty after HOOI's warm power
  /// steps, which compute none).
  std::vector<double> sigma;
  /// Bidiagonalization steps performed (columns of the projected problem;
  /// the randomized solver reports its sketch width, the warm power steps
  /// their count).
  std::size_t steps = 0;
  /// Whether all requested triplets met the residual tolerance. The
  /// randomized solver reports true: it runs a fixed budget and its
  /// accuracy is set by oversample/power_iterations, not by tol.
  bool converged = false;
  /// Number of operator applications (A and A^T combined); block applies
  /// count once per carried vector so backends are comparable.
  std::size_t operator_applies = 0;
};

}  // namespace ht::la
