// Read-only serve-time model: the one-way hand-off from training.
//
// Train-time code works on mutable structures (HooiResult, TuckerModel with
// owned factor buffers); serve-time code answers queries against an
// immutable snapshot, typically aliased zero-copy out of an mmap'd .htb
// bundle (storage::LoadMode::kMap). ServeModel is that snapshot as a
// first-class type:
//
//   - construction VALIDATES the model (factor/core/dims shape agreement).
//     Every query then runs off const data: a ServeModel is safe for any
//     number of concurrent reader threads. The entity of a slice query is
//     mode 0, whose core unfolding is the core's own flat layout, so
//     "contract the core against one entity row" is a contiguous gemv over
//     the (possibly mmap-backed) core with nothing precomputed.
//   - the underlying TuckerModel keeps its storage arenas alive, so a
//     ServeModel handed around by shared_ptr pins the mapped bundle (or
//     heap copy) for exactly as long as any reader holds it — the RCU
//     keep-alive serve::ModelHandle relies on during hot swap.
//   - queries delegate to the core::reconstruct kernels, the same
//     single implementation behind TuckerDecomposition::reconstruct_at, so
//     a served answer is bit-identical to the train-time one.
//
// Layering: serve sits above core and storage; nothing below ever depends
// on it.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/reconstruct.hpp"
#include "core/tucker_model.hpp"
#include "storage/bundle.hpp"

namespace ht::serve {

using tensor::index_t;

class ServeModel {
 public:
  /// Wrap a loaded model (validates shapes; factors/core may be owned or
  /// mmap-backed views — both serve identically).
  explicit ServeModel(core::TuckerModel model);

  /// Load a bundle for serving: mmap'd zero-copy views (LoadMode::kMap).
  /// With verify = true the full payload-checksum pass (verify_all) runs
  /// first — the validation gate the hot-swap reload path uses.
  static std::shared_ptr<const ServeModel> load(const std::string& path,
                                                bool verify = false);

  // ---- metadata -------------------------------------------------------------

  [[nodiscard]] std::size_t order() const { return model_.order(); }
  [[nodiscard]] const tensor::Shape& dims() const { return model_.dims; }
  [[nodiscard]] const tensor::Shape& ranks() const { return ranks_; }
  [[nodiscard]] double fit() const { return model_.fit; }
  [[nodiscard]] const core::TuckerModel& model() const { return model_; }
  /// True when any factor/core buffer aliases a storage arena (mmap).
  [[nodiscard]] bool is_view() const;

  // ---- queries (const, thread-safe) -----------------------------------------

  /// Point query at full coordinates; bit-identical to
  /// TuckerDecomposition::reconstruct_at. Allocation-free on the caller's
  /// workspace.
  double score(std::span<const index_t> idx,
               core::ReconstructWorkspace& ws) const;
  double score(std::span<const index_t> idx) const;

  /// Elements of an entity slice (prod of the ranks of modes 1..N-1).
  [[nodiscard]] std::size_t slice_size() const;

  /// Step-1 contraction: the core contracted against U_0(i, :), the
  /// mode-0 entity's row. This is the per-user slice the QueryEngine
  /// caches; out.size() must equal slice_size().
  void entity_slice(index_t i, std::span<double> out) const;

  /// Finish a point query from an entity slice — bit-identical to score()
  /// at the same coordinates (idx[0] is ignored).
  double score_from_slice(std::span<const double> slice,
                          std::span<const index_t> idx,
                          core::ReconstructWorkspace& ws) const;

  /// Collapse an entity slice to a vector over mode `target`'s rank (the
  /// top-k kernel input); out.size() must equal ranks()[target].
  void mode_vector_from_slice(std::span<const double> slice,
                              std::size_t target,
                              std::span<const index_t> idx,
                              core::ReconstructWorkspace& ws,
                              std::span<double> out) const;

  /// Factor row for the final top-k dot products.
  [[nodiscard]] std::span<const double> factor_row(std::size_t mode,
                                                   index_t i) const {
    return model_.decomposition.factors[mode].row(i);
  }

 private:
  core::TuckerModel model_;
  tensor::Shape ranks_;
};

}  // namespace ht::serve
