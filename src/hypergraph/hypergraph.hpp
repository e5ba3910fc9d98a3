// Hypergraph data structure (CSR in both directions).
//
// Vertices model computational tasks (nonzeros in the fine-grain model,
// tensor slices in the coarse-grain model); nets model shared data (factor
// matrix rows). Partitioning minimizes the (lambda - 1) connectivity metric,
// which equals the communication volume of the corresponding distributed
// HOOI iteration (paper Section III-B, citing Kaya & Uçar SC'15).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace ht::hypergraph {

using vid_t = std::uint32_t;     // vertex id
using nid_t = std::uint32_t;     // net id
using weight_t = std::int64_t;   // vertex weight / net cost

/// "No vertex": an unmatched vertex, or a pin a relabelling drops.
inline constexpr vid_t kNoVertex = static_cast<vid_t>(-1);

class Hypergraph {
 public:
  Hypergraph() = default;

  /// Build from CSR net pin lists: net n's pins are
  /// pins[net_ptr[n] .. net_ptr[n + 1]). `net_ptr` starts at 0, never
  /// decreases and ends at pins.size(); every pin is below num_vertices
  /// (violations throw ht::Error). Vertex weights default to 1; net costs
  /// to 1.
  Hypergraph(std::size_t num_vertices, std::vector<std::size_t> net_ptr,
             std::vector<vid_t> pins, std::vector<weight_t> vertex_weights = {},
             std::vector<weight_t> net_costs = {});

  /// Build from nested net pin lists (flattened into the CSR constructor).
  static Hypergraph build(std::size_t num_vertices,
                          const std::vector<std::vector<vid_t>>& net_pins,
                          std::vector<weight_t> vertex_weights = {},
                          std::vector<weight_t> net_costs = {});

  [[nodiscard]] std::size_t num_vertices() const { return num_vertices_; }
  [[nodiscard]] std::size_t num_nets() const { return net_ptr_.empty() ? 0 : net_ptr_.size() - 1; }
  [[nodiscard]] std::size_t num_pins() const { return pins_.size(); }

  /// Pins (vertices) of net n.
  [[nodiscard]] std::span<const vid_t> net_pins(nid_t n) const {
    return {pins_.data() + net_ptr_[n], net_ptr_[n + 1] - net_ptr_[n]};
  }

  /// Nets incident to vertex v.
  [[nodiscard]] std::span<const nid_t> vertex_nets(vid_t v) const {
    return {nets_.data() + vertex_ptr_[v], vertex_ptr_[v + 1] - vertex_ptr_[v]};
  }

  [[nodiscard]] weight_t vertex_weight(vid_t v) const { return vertex_weights_[v]; }
  [[nodiscard]] weight_t net_cost(nid_t n) const { return net_costs_[n]; }
  [[nodiscard]] weight_t total_vertex_weight() const { return total_weight_; }

  [[nodiscard]] std::span<const weight_t> vertex_weights() const {
    return vertex_weights_;
  }

 private:
  std::size_t num_vertices_ = 0;
  std::vector<std::size_t> net_ptr_;     // nets -> pin ranges
  std::vector<vid_t> pins_;
  std::vector<std::size_t> vertex_ptr_;  // vertices -> net ranges
  std::vector<nid_t> nets_;
  std::vector<weight_t> vertex_weights_;
  std::vector<weight_t> net_costs_;
  weight_t total_weight_ = 0;
};

}  // namespace ht::hypergraph
