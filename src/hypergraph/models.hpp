// Tensor -> hypergraph models (paper Section III-B, after Kaya & Uçar SC'15).
//
// Fine-grain model: one vertex per nonzero (unit weight: TTMc work per
// nonzero is identical), one net per (mode, row) pair connecting the
// nonzeros sharing that index. The (lambda-1) cutsize equals the per-
// iteration communication volume of the fine-grain HOOI: factor-row expands
// after TRSVD and y-entry folds/expands inside it.
//
// Coarse-grain model: one hypergraph per mode; vertices are the mode's rows
// weighted by slice nonzero count (TTMc work), nets are the rows of the
// *other* modes, connecting the mode-rows that reference them. Partitioning
// each mode independently approximates PaToH's multi-constraint run from the
// paper (see docs/ARCHITECTURE.md, "Substitutions").
#pragma once

#include <cstdint>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "tensor/coo_tensor.hpp"

namespace ht::hypergraph {

struct FineGrainModel {
  Hypergraph hg;
  /// Net k models factor row (net_mode[k], net_index[k]).
  std::vector<std::uint8_t> net_mode;
  std::vector<tensor::index_t> net_index;
};

/// Build the fine-grain model. Rows referenced by a single nonzero are not
/// emitted as nets (they can never be cut).
FineGrainModel build_fine_grain_model(const tensor::CooTensor& x);

struct CoarseGrainModel {
  /// Vertices are the mode's *non-empty* rows (empty slices carry no work
  /// and would bloat the model on huge sparse modes); vertex v is global
  /// row `rows[v]`.
  Hypergraph hg;
  std::vector<tensor::index_t> rows;
};

/// Build the coarse-grain (column-net) model for one mode. Nets wider than
/// `max_net_pins` connect nearly every slice, carry no partitioning signal,
/// and dominate the cost — they are dropped (PaToH-style huge-net removal).
CoarseGrainModel build_coarse_grain_model(const tensor::CooTensor& x,
                                          std::size_t mode,
                                          std::size_t max_net_pins = 4096);

}  // namespace ht::hypergraph
