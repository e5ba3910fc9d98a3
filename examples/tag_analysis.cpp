// Latent-concept analysis of a Delicious-shaped 4-mode bookmarking tensor
// (time x user x resource x tag, paper Table I). After a rank-(4,4,4,4)
// Tucker decomposition, each factor column groups indices that co-occur:
// print the strongest users/resources/tags per latent concept and check
// that concepts separate the planted communities.
//
//   ./tag_analysis
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "core/hooi.hpp"
#include "la/matrix.hpp"
#include "tensor/coo_tensor.hpp"
#include "util/random.hpp"

namespace {

// Build a bookmarking tensor with planted communities: users, resources and
// tags are split into `kCommunities` groups; most interactions stay within
// a group.
constexpr int kCommunities = 4;

ht::tensor::CooTensor community_tensor(std::uint64_t seed) {
  using ht::tensor::index_t;
  const ht::tensor::Shape shape = {8, 100, 200, 80};  // t x u x r x g
  ht::tensor::CooTensor x(shape);
  ht::Rng rng(seed);
  const ht::tensor::nnz_t target = 60000;
  std::vector<index_t> idx(4);
  for (ht::tensor::nnz_t e = 0; e < target; ++e) {
    const int community = static_cast<int>(rng.below(kCommunities));
    // 90% of traffic stays inside the community's slice of each mode.
    auto draw = [&](index_t dim) {
      const index_t band = dim / kCommunities;
      if (rng.uniform() < 0.95) {
        return static_cast<index_t>(community * band + rng.below(band));
      }
      return static_cast<index_t>(rng.below(dim));
    };
    idx[0] = static_cast<index_t>(rng.below(shape[0]));
    idx[1] = draw(shape[1]);
    idx[2] = draw(shape[2]);
    idx[3] = draw(shape[3]);
    x.push_back(idx, 1.0 + 0.2 * rng.normal());
  }
  x.sum_duplicates();
  return x;
}

// Community of an index under the planted banding.
int community_of(ht::tensor::index_t i, ht::tensor::index_t dim) {
  return std::min<int>(kCommunities - 1, i / (dim / kCommunities));
}

}  // namespace

int main() {
  using namespace ht;

  const tensor::CooTensor x = community_tensor(21);
  std::printf("bookmarking tensor: %s\n", x.summary().c_str());

  core::HooiOptions options;
  options.ranks = {5, 5, 5, 5};  // paper setting for 4-mode tensors
  options.max_iterations = 20;
  options.fit_tolerance = 1e-6;
  const core::HooiResult result = core::hooi(x, options);
  std::printf("fit %.4f after %d sweeps\n", result.final_fit(),
              result.iterations);

  // Show the strongest tags per latent concept (note: factor columns are an
  // arbitrary rotation of the latent subspace, so one column need not equal
  // one community).
  const la::Matrix tags = result.decomposition.dense_factor(3, x.dim(3));
  for (std::size_t concept_id = 0; concept_id < 4; ++concept_id) {
    std::vector<tensor::index_t> order(tags.rows());
    std::iota(order.begin(), order.end(), 0);
    std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                      [&](tensor::index_t a, tensor::index_t b) {
                        return std::abs(tags(a, concept_id)) >
                               std::abs(tags(b, concept_id));
                      });
    std::printf("concept %zu top tags:", concept_id);
    for (int k = 0; k < 5; ++k) {
      std::printf(" #%u(c%d)", order[k],
                  community_of(order[k],
                               static_cast<tensor::index_t>(tags.rows())));
    }
    std::printf("\n");
  }

  // Rotation-invariant community check: tags from the same planted
  // community should have far more similar factor rows (cosine) than tags
  // from different communities. The leading component is excluded — for
  // all-positive data it encodes global popularity and is shared by every
  // tag; community structure lives in the remaining components.
  ht::Rng rng(5);
  auto cosine = [&](tensor::index_t a, tensor::index_t b) {
    double dot = 0, na = 0, nb = 0;
    for (std::size_t j = 1; j < tags.cols(); ++j) {
      dot += tags(a, j) * tags(b, j);
      na += tags(a, j) * tags(a, j);
      nb += tags(b, j) * tags(b, j);
    }
    const double denom = std::sqrt(na * nb);
    return denom > 1e-12 ? dot / denom : 0.0;
  };
  const auto dim = static_cast<tensor::index_t>(tags.rows());
  double same = 0, cross = 0;
  int same_n = 0, cross_n = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const auto a = static_cast<tensor::index_t>(rng.below(dim));
    const auto b = static_cast<tensor::index_t>(rng.below(dim));
    if (a == b) continue;
    if (community_of(a, dim) == community_of(b, dim)) {
      same += cosine(a, b);
      ++same_n;
    } else {
      cross += cosine(a, b);
      ++cross_n;
    }
  }
  same /= same_n;
  cross /= cross_n;
  std::printf("mean factor-row cosine: same community %.3f vs cross %.3f\n",
              same, cross);
  return same > cross + 0.2 ? 0 : 1;
}
