#include "hypergraph/hypergraph.hpp"

#include <numeric>

namespace ht::hypergraph {

Hypergraph::Hypergraph(std::size_t num_vertices,
                       std::vector<std::size_t> net_ptr,
                       std::vector<vid_t> pins,
                       std::vector<weight_t> vertex_weights,
                       std::vector<weight_t> net_costs)
    : num_vertices_(num_vertices),
      net_ptr_(std::move(net_ptr)),
      pins_(std::move(pins)),
      vertex_weights_(std::move(vertex_weights)),
      net_costs_(std::move(net_costs)) {
  HT_CHECK_MSG(!net_ptr_.empty() && net_ptr_.front() == 0 &&
                   net_ptr_.back() == pins_.size(),
               "net_ptr must run from 0 to the pin count");
  for (std::size_t n = 1; n < net_ptr_.size(); ++n) {
    HT_CHECK_MSG(net_ptr_[n - 1] <= net_ptr_[n], "net_ptr decreases");
  }
  for (vid_t v : pins_) {
    HT_CHECK_MSG(v < num_vertices, "pin vertex out of range");
  }
  const std::size_t num_nets = net_ptr_.size() - 1;
  if (vertex_weights_.empty()) vertex_weights_.assign(num_vertices, 1);
  HT_CHECK_MSG(vertex_weights_.size() == num_vertices,
               "vertex weight arity mismatch");
  if (net_costs_.empty()) net_costs_.assign(num_nets, 1);
  HT_CHECK_MSG(net_costs_.size() == num_nets, "net cost arity mismatch");

  // Transpose to vertex -> nets.
  vertex_ptr_.assign(num_vertices + 1, 0);
  for (vid_t v : pins_) ++vertex_ptr_[v + 1];
  std::partial_sum(vertex_ptr_.begin(), vertex_ptr_.end(),
                   vertex_ptr_.begin());
  nets_.resize(pins_.size());
  std::vector<std::size_t> cursor(vertex_ptr_.begin(), vertex_ptr_.end() - 1);
  for (nid_t n = 0; n < num_nets; ++n) {
    for (std::size_t k = net_ptr_[n]; k < net_ptr_[n + 1]; ++k) {
      nets_[cursor[pins_[k]]++] = n;
    }
  }

  total_weight_ = std::accumulate(vertex_weights_.begin(),
                                  vertex_weights_.end(), weight_t{0});
}

Hypergraph Hypergraph::build(std::size_t num_vertices,
                             const std::vector<std::vector<vid_t>>& net_pins,
                             std::vector<weight_t> vertex_weights,
                             std::vector<weight_t> net_costs) {
  std::vector<std::size_t> net_ptr{0};
  net_ptr.reserve(net_pins.size() + 1);
  std::vector<vid_t> pins;
  for (const auto& net : net_pins) {
    pins.insert(pins.end(), net.begin(), net.end());
    net_ptr.push_back(pins.size());
  }
  return {num_vertices, std::move(net_ptr), std::move(pins),
          std::move(vertex_weights), std::move(net_costs)};
}

}  // namespace ht::hypergraph
