// Factor matrix initialization for HOOI.
//
// The paper initializes "randomly or using the higher-order SVD". A true
// sparse HOSVD would need singular vectors of X(n) whose column dimension is
// prod of the other mode sizes — astronomically large for the paper's
// tensors — so alongside plain random-orthonormal init we provide a
// randomized range-finder init: Y_n = X(n) * Omega with an *implicit*
// Rademacher sketch Omega whose rows are generated on the fly from a hash of
// the (linearized) column index, so nothing of size prod(I_t) is ever
// materialized. orth(Y_n) approximates the leading left subspace of X(n).
//
// HOOI trains compact factors (core/tucker.hpp), so both initializers cut
// each factor to the rows the caller keeps — J_n for hooi and the
// distributed rank plans. The sweep reads nothing else of them, so the
// cut changes no bit of training. Each mode is still built whole, one mode
// at a time: random_orthonormal_factors draws its normals straight into a
// column-major I_n x R_n buffer and orthonormalizes it there (contiguous
// columns for the Gram–Schmidt, same bits as the row-major loops), then
// copies out the kept rows, so only one I_n x R_n buffer is live at once.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "la/matrix.hpp"
#include "tensor/coo_tensor.hpp"

namespace ht::core {

using tensor::CooTensor;
using tensor::index_t;

/// Independent random orthonormal factors: mode n's is the I_n x R_n
/// matrix of normal draws (entry (i, j) is draw i*R_n + j of the mode's
/// stream) with orthonormalized columns. With `keep` (one sorted row list
/// per mode) factor n holds only the rows keep[n] of that matrix, in that
/// order; each mode is still drawn and orthonormalized whole, one mode at
/// a time, so the kept rows are exactly those of the whole factor.
std::vector<la::Matrix> random_orthonormal_factors(
    const tensor::Shape& shape, std::span<const index_t> ranks,
    std::uint64_t seed, std::span<const std::span<const index_t>> keep = {});

inline constexpr std::size_t kRangeOversample = 4;

/// Randomized range-finder approximation of the HOSVD factors.
/// `oversample` extra sketch columns improve the subspace before truncation.
/// `keep` cuts rows as in random_orthonormal_factors.
std::vector<la::Matrix> randomized_range_factors(
    const CooTensor& x, std::span<const index_t> ranks, std::uint64_t seed,
    std::size_t oversample = kRangeOversample,
    std::span<const std::span<const index_t>> keep = {});

}  // namespace ht::core
