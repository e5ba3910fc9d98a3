// Model-reconstruction contraction kernels — the single implementation
// behind every "evaluate the Tucker model" path: train-time
// TuckerDecomposition::reconstruct_at/reconstruct_dense, the serve-time
// ServeModel/QueryEngine point and top-k queries, and fit_exact.
//
// A point query
//   Xhat(i_0, ..., i_{N-1}) = sum_r G(r) * prod_n U_n(i_n, r_n)
// is evaluated by *sequential* contraction instead of a full core walk:
//
//   1. contract the ENTITY mode e (default 0) against U_e(i_e, :) — an
//      R_e x S gemv over the mode-e unfolding of G — leaving a slice over
//      the remaining modes (~prod R flops, the only rank-product-sized
//      step, and exactly what the serve layer caches per hot user);
//   2. contract the remaining modes trailing-first (in-place, each step
//      shrinks the slice by one rank factor);
//   3. finish with a rank-sized dot product against the first remaining
//      mode's factor row.
//
// Every kernel fixes the floating-point summation order (ascending rank
// index per output element), so a query answered from a cached step-1 slice
// is bit-identical to an uncached one, a batched query is bit-identical to
// a sequential one, and a view-backed (mmap'd) model answers bit-identically
// to the owned model it was saved from.
//
// All kernels are allocation-free given a caller-provided (or thread-local)
// ReconstructWorkspace whose buffers grow monotonically and are reused
// across calls — reconstruct_at is the serving hot path and must not touch
// the allocator per query.
#pragma once

#include <span>
#include <vector>

#include "la/matrix.hpp"
#include "tensor/dense_tensor.hpp"
#include "tensor/types.hpp"

namespace ht::core {

using tensor::index_t;

/// Reusable scratch for the contraction kernels. Buffers only ever grow;
/// steady-state queries allocate nothing.
struct ReconstructWorkspace {
  std::vector<double> slice;       // in-place step-2 contraction buffer
  std::vector<double> entity;      // step-1 entity-slice buffer
  std::vector<index_t> dims;       // live mode sizes of `slice`
  std::vector<double> vec;         // top-k mode-vector scratch

  /// Thread-local instance used by the workspace-free convenience
  /// overloads (TuckerDecomposition::reconstruct_at and fit_exact).
  static ReconstructWorkspace& tls();
};

/// Number of elements of an entity slice: prod of core dims except `mode`.
std::size_t slice_size(const tensor::Shape& core_shape, std::size_t mode);

/// Step 1 for entity mode 0 — and the shared inner kernel for any
/// precomputed unfolding: out[q] = sum_r row[r] * unfold[r*cols + q] with
/// `unfold` an (row.size() x cols) row-major matrix. The mode-0 unfolding
/// of the core is its flat buffer, so the train-time path and ServeModel
/// pass core.flat() directly. Ascending-r summation order per output
/// element.
void contract_unfolding(std::span<const double> unfold,
                        std::span<const double> row, std::span<double> out);

/// Step 1 for an arbitrary entity mode, working on the core's natural
/// layout (row-major, last mode fastest) without materializing an
/// unfolding. `out` holds the slice over the remaining modes in increasing
/// mode order, last fastest — identical layout and bit-identical values to
/// contract_unfolding over the mode-`mode` unfolding.
void contract_entity(std::span<const double> core,
                     const tensor::Shape& core_shape, std::size_t mode,
                     std::span<const double> row, std::span<double> out);

/// Steps 2+3: collapse an entity slice to a scalar. `idx` are the FULL
/// query coordinates (order entries); the entity coordinate idx[entity] is
/// ignored. Contracts the remaining modes trailing-first against the
/// corresponding factor rows, then dots with the first remaining mode's
/// row.
double score_slice(std::span<const double> slice,
                   const tensor::Shape& core_shape, std::size_t entity,
                   std::span<const la::Matrix> factors,
                   std::span<const index_t> idx, ReconstructWorkspace& ws);

/// Steps 2+3 stopping one mode short: collapse an entity slice to a vector
/// over mode `target`'s rank by contracting every remaining mode except
/// `target` (trailing-first, same order as score_slice). The top-k kernel:
/// the score of item i is then dot(out, U_target.row(i)), bit-identical to
/// score_slice at the same coordinates when `target` is the first
/// remaining mode. idx[entity] and idx[target] are ignored.
void slice_mode_vector(std::span<const double> slice,
                       const tensor::Shape& core_shape, std::size_t entity,
                       std::size_t target,
                       std::span<const la::Matrix> factors,
                       std::span<const index_t> idx, ReconstructWorkspace& ws,
                       std::span<double> out);

/// Full point query via steps 1-3 (entity mode 0). The implementation
/// behind TuckerDecomposition::reconstruct_at and the uncached serve path.
double reconstruct_at(const tensor::DenseTensor& core,
                      std::span<const la::Matrix> factors,
                      std::span<const index_t> idx, ReconstructWorkspace& ws);

}  // namespace ht::core
