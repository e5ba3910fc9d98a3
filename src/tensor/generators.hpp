// Synthetic sparse tensor generators (substitute for the paper's Netflix /
// NELL / Delicious / Flickr datasets; see docs/ARCHITECTURE.md,
// "Substitutions").
//
// Coordinates are drawn per mode from a truncated Zipf-like power law (real
// user/item/tag data is heavily skewed), then de-duplicated; values carry a
// planted low-rank (CP) structure plus noise so HOOI has signal to recover.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "tensor/coo_tensor.hpp"

namespace ht::tensor {

/// Uniform random coordinates, uniform values in [0, 1). Duplicates summed.
CooTensor random_uniform(const Shape& shape, nnz_t target_nnz,
                         std::uint64_t seed);

/// Zipf(theta)-skewed coordinates per mode (theta = 0 gives uniform).
/// Index popularity is decorrelated from index order by a bijective
/// multiplicative shuffle, so block partitions don't align with popularity.
CooTensor random_zipf(const Shape& shape, nnz_t target_nnz,
                      const std::vector<double>& theta, std::uint64_t seed);

/// Zipf-skewed coordinates with planted cross-mode *communities*: indices
/// are split into `communities` bands per mode, and with probability
/// `affinity` a nonzero draws all its indices from one community's bands
/// (Zipf within the band). Real user/item/tag tensors exhibit exactly this
/// co-occurrence locality — it is what hypergraph partitioning exploits
/// (without it, fine-hp cannot beat fine-rd and the paper's Table II/III
/// contrasts disappear).
CooTensor random_zipf_communities(const Shape& shape, nnz_t target_nnz,
                                  const std::vector<double>& theta,
                                  std::size_t communities, double affinity,
                                  std::uint64_t seed);

/// Fiber-structured tensor: `num_fibers` random last-mode fibers, each
/// holding a contiguous run of `fiber_len` nonzeros (all indices fixed
/// except the last mode). Every CSF tree not rooted at the last mode
/// therefore sees leaf runs of ~`fiber_len` — the prefix-sharing regime the
/// CSF kernel targets; `fiber_len = 1` gives a prefix-free control.
/// Duplicate fibers are summed, so the nonzero count can land slightly
/// below num_fibers * fiber_len. Values are uniform in [0, 1).
CooTensor random_fibered(const Shape& shape, nnz_t num_fibers,
                         index_t fiber_len, std::uint64_t seed);

/// Overwrite the values of `x` with a rank-`cp_rank` CP model evaluated at
/// each coordinate, plus Gaussian noise of the given relative magnitude.
void plant_low_rank_values(CooTensor& x, std::size_t cp_rank,
                           double noise_level, std::uint64_t seed);

/// A planted-Tucker tensor with a known noise floor, for completion tests:
/// the observed values are clean + noise where `clean` is an exact
/// rank-`ranks` Tucker model (Gaussian core and factors) normalized to unit
/// RMS over the observed entries, and the noise is i.i.d. Gaussian with
/// standard deviation `noise_sigma == relative_noise`. A completion model
/// that recovers the planted signal therefore has held-out RMSE approaching
/// `noise_sigma` — the floor tests pin against.
struct LowRankTensor {
  CooTensor tensor;             // observed entries: clean[t] + noise
  std::vector<value_t> clean;   // noiseless planted value per nonzero
  double noise_sigma = 0.0;     // exact std-dev of the added noise
  /// Planted factors, shape[n] x ranks[n] (Gaussian, not orthonormal):
  /// their columns span the planted mode subspaces.
  std::vector<la::Matrix> factors;
};

/// Uniform-coordinate sparse sample of a planted rank-`ranks` Tucker model
/// plus Gaussian noise. `ranks` must have one entry per mode, each within
/// the mode size. Deterministic in (shape, target_nnz, ranks,
/// relative_noise, seed).
LowRankTensor random_low_rank(const Shape& shape, nnz_t target_nnz,
                              const Shape& ranks, double relative_noise,
                              std::uint64_t seed);

/// One paper dataset preset (Table I), scaled down for laptop execution.
struct PresetSpec {
  std::string name;
  Shape shape;              // scaled mode sizes
  nnz_t nnz = 0;            // scaled nonzero target
  std::vector<double> theta;  // per-mode skew
  std::vector<index_t> ranks;  // decomposition ranks used by the paper
};

/// Presets: "netflix", "nell" (3-mode, R = 10), "delicious", "flickr"
/// (4-mode, R = 5). `scale` multiplies mode sizes and nonzero count toward
/// the paper's sizes (scale = 1 is the laptop default, ~0.4M nonzeros).
PresetSpec paper_preset(const std::string& name, double scale = 1.0);

/// Names of all four presets in Table I order.
const std::vector<std::string>& paper_preset_names();

/// Generate the tensor for a preset: Zipf coordinates + planted low rank.
CooTensor generate_preset(const PresetSpec& spec, std::uint64_t seed = 42);

}  // namespace ht::tensor
