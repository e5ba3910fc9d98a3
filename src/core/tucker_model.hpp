// First-class trained-model container: the serve-time counterpart of the
// loose HooiResult/TuckerDecomposition field access.
//
// A TuckerModel bundles everything a downstream consumer (the CLI, the
// examples, the future tuckerd serving daemon) needs to answer queries
// without re-deriving context from the training call site: the
// decomposition itself, the original tensor dimensions, the achieved fit,
// and build provenance (which build produced it, from util/version.hpp).
// The training tensor's preprocessing (its CSF forest, tensor::CsfTensor)
// is not part of a model: it is rebuilt from the tensor whenever training
// runs.
//
// Models round-trip through the versioned binary bundle format of
// storage/bundle.hpp: save_bundle() writes every array verbatim,
// load_bundle() restores them either heap-owned (LoadMode::kCopy) or as
// zero-copy views into an mmap'd file (LoadMode::kMap) — bit-identical
// either way.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/hooi.hpp"
#include "core/tucker.hpp"

namespace ht::core {

struct TuckerModel {
  TuckerDecomposition decomposition;
  /// Shape of the tensor the model was trained on.
  tensor::Shape dims;
  /// Final training fit 1 - ||X - Xhat|| / ||X||.
  double fit = 0.0;
  /// Ordered key/value provenance: build info (version, git hash, compiler,
  /// flags) plus trainer-supplied entries (iterations, seed, ...).
  std::vector<std::pair<std::string, std::string>> provenance;

  [[nodiscard]] std::size_t order() const { return decomposition.order(); }
  [[nodiscard]] std::vector<tensor::index_t> ranks() const {
    return decomposition.ranks();
  }

  /// Model value at one coordinate (the serving query primitive).
  [[nodiscard]] double reconstruct_at(std::span<const tensor::index_t> idx) const {
    return decomposition.reconstruct_at(idx);
  }

  /// Provenance lookup; empty string when the key is absent.
  [[nodiscard]] std::string provenance_value(const std::string& key) const;

  /// One provenance line per entry, "key=value".
  [[nodiscard]] std::string provenance_text() const;

  /// Package a finished HOOI run: captures dims from `x`, the final fit,
  /// and stamps build provenance. Steals nothing — the result keeps its
  /// decomposition (copied); pass `std::move(result.decomposition)` via the
  /// second overload to avoid the copy.
  static TuckerModel from_hooi(const tensor::CooTensor& x,
                               const HooiResult& result);
  static TuckerModel from_hooi(const tensor::CooTensor& x, HooiResult&& result);

  /// Build-provenance entries alone (version/git/compiler/flags), the
  /// prefix every construction path shares.
  static std::vector<std::pair<std::string, std::string>> build_provenance();
};

}  // namespace ht::core
