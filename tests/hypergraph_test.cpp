#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "hypergraph/models.hpp"
#include "hypergraph/partition.hpp"
#include "hypergraph/partitioner.hpp"
#include "parallel/thread_info.hpp"
#include "tensor/generators.hpp"
#include "util/random.hpp"

namespace {

using ht::hypergraph::Hypergraph;
using ht::hypergraph::kNoVertex;
using ht::hypergraph::nid_t;
using ht::hypergraph::Partition;
using ht::hypergraph::PartitionerOptions;
using ht::hypergraph::vid_t;
using ht::hypergraph::weight_t;

Hypergraph tiny() {
  // 4 vertices; nets {0,1}, {1,2,3}, {0,3}
  return Hypergraph::build(4, {{0, 1}, {1, 2, 3}, {0, 3}});
}

TEST(HypergraphTest, BuildAndAccess) {
  const Hypergraph h = tiny();
  EXPECT_EQ(h.num_vertices(), 4u);
  EXPECT_EQ(h.num_nets(), 3u);
  EXPECT_EQ(h.num_pins(), 7u);
  ASSERT_EQ(h.net_pins(1).size(), 3u);
  EXPECT_EQ(h.net_pins(1)[0], 1u);
  // Vertex 3 belongs to nets 1 and 2.
  const auto nets3 = h.vertex_nets(3);
  ASSERT_EQ(nets3.size(), 2u);
  EXPECT_EQ(nets3[0], 1u);
  EXPECT_EQ(nets3[1], 2u);
  EXPECT_EQ(h.total_vertex_weight(), 4);
}

TEST(HypergraphTest, CustomWeightsAndCosts) {
  const Hypergraph h =
      Hypergraph::build(3, {{0, 1}, {1, 2}}, {5, 1, 2}, {10, 20});
  EXPECT_EQ(h.vertex_weight(0), 5);
  EXPECT_EQ(h.net_cost(1), 20);
  EXPECT_EQ(h.total_vertex_weight(), 8);
}

TEST(HypergraphTest, RejectsBadPins) {
  EXPECT_THROW(Hypergraph::build(2, {{0, 5}}), ht::Error);
}

void expect_same_hypergraph(const Hypergraph& a, const Hypergraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_nets(), b.num_nets());
  ASSERT_EQ(a.num_pins(), b.num_pins());
  EXPECT_EQ(a.total_vertex_weight(), b.total_vertex_weight());
  for (nid_t n = 0; n < a.num_nets(); ++n) {
    const auto pa = a.net_pins(n), pb = b.net_pins(n);
    EXPECT_EQ(std::vector<vid_t>(pa.begin(), pa.end()),
              std::vector<vid_t>(pb.begin(), pb.end()))
        << "net " << n;
    EXPECT_EQ(a.net_cost(n), b.net_cost(n)) << "net " << n;
  }
  for (vid_t v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.vertex_nets(v), nb = b.vertex_nets(v);
    EXPECT_EQ(std::vector<nid_t>(na.begin(), na.end()),
              std::vector<nid_t>(nb.begin(), nb.end()))
        << "vertex " << v;
    EXPECT_EQ(a.vertex_weight(v), b.vertex_weight(v)) << "vertex " << v;
  }
}

TEST(HypergraphTest, CsrConstructorMatchesNestedBuild) {
  expect_same_hypergraph(Hypergraph(4, {0, 2, 5, 7}, {0, 1, 1, 2, 3, 0, 3}),
                         tiny());
  expect_same_hypergraph(
      Hypergraph(3, {0, 2, 4}, {0, 1, 1, 2}, {5, 1, 2}, {10, 20}),
      Hypergraph::build(3, {{0, 1}, {1, 2}}, {5, 1, 2}, {10, 20}));
  expect_same_hypergraph(Hypergraph(4, {0}, {}, {1, 2, 3, 4}),
                         Hypergraph::build(4, {}, {1, 2, 3, 4}));
}

TEST(HypergraphTest, CsrConstructorRejectsMalformedInput) {
  // Pin out of range.
  EXPECT_THROW(Hypergraph(2, {0, 2}, {0, 5}), ht::Error);
  // Decreasing net_ptr.
  EXPECT_THROW(Hypergraph(4, {0, 3, 2, 4}, {0, 1, 2, 3}), ht::Error);
  // net_ptr must start at 0 and end at the pin count.
  EXPECT_THROW(Hypergraph(4, {1, 4}, {0, 1, 2, 3}), ht::Error);
  EXPECT_THROW(Hypergraph(4, {0, 3}, {0, 1, 2, 3}), ht::Error);
  EXPECT_THROW(Hypergraph(4, {}, {}), ht::Error);
  // Weight and cost arities.
  EXPECT_THROW(Hypergraph(2, {0, 2}, {0, 1}, {1}), ht::Error);
  EXPECT_THROW(Hypergraph(2, {0, 2}, {0, 1}, {}, {1, 1}), ht::Error);
}

TEST(PartitionMetricsTest, ConnectivityCutsize) {
  const Hypergraph h = tiny();
  Partition p{2, {0, 0, 1, 1}};
  // net0 {0,1}: lambda 1. net1 {1,2,3}: lambda 2 -> +1. net2 {0,3}: +1.
  EXPECT_EQ(ht::hypergraph::connectivity_cutsize(h, p), 2);
  EXPECT_EQ(ht::hypergraph::cutnet_cutsize(h, p), 2);
}

TEST(PartitionMetricsTest, LambdaMinusOneExceedsCutNetForWideSpread) {
  const Hypergraph h = Hypergraph::build(3, {{0, 1, 2}});
  Partition p{3, {0, 1, 2}};
  EXPECT_EQ(ht::hypergraph::connectivity_cutsize(h, p), 2);  // lambda-1 = 2
  EXPECT_EQ(ht::hypergraph::cutnet_cutsize(h, p), 1);
}

TEST(PartitionMetricsTest, WeightsAndImbalance) {
  const Hypergraph h = Hypergraph::build(4, {}, {1, 2, 3, 4});
  Partition p{2, {0, 0, 1, 1}};
  const auto w = ht::hypergraph::part_weights(h, p);
  EXPECT_EQ(w[0], 3);
  EXPECT_EQ(w[1], 7);
  EXPECT_NEAR(ht::hypergraph::imbalance(h, p), 7.0 / 5.0 - 1.0, 1e-12);
}

TEST(PartitionMetricsTest, ValidateCatchesBadAssignments) {
  const Hypergraph h = tiny();
  Partition bad{2, {0, 0, 2, 1}};
  EXPECT_THROW(ht::hypergraph::validate_partition(h, bad), ht::Error);
  Partition short_p{2, {0, 0}};
  EXPECT_THROW(ht::hypergraph::validate_partition(h, short_p), ht::Error);
}

// ---------------------------------------------------------------- partitioners

Hypergraph random_hypergraph(std::size_t nv, std::size_t nn,
                             std::size_t pins_per_net, std::uint64_t seed) {
  ht::Rng rng(seed);
  std::vector<std::vector<vid_t>> nets(nn);
  for (auto& net : nets) {
    for (std::size_t k = 0; k < pins_per_net; ++k) {
      net.push_back(static_cast<vid_t>(rng.below(nv)));
    }
    std::sort(net.begin(), net.end());
    net.erase(std::unique(net.begin(), net.end()), net.end());
  }
  return Hypergraph::build(nv, nets);
}

// Two well-separated clusters joined by a single bridge net: the partitioner
// must find the obvious bisection.
Hypergraph two_clusters(std::size_t half, std::uint64_t seed) {
  ht::Rng rng(seed);
  std::vector<std::vector<vid_t>> nets;
  for (std::size_t c = 0; c < 2; ++c) {
    const vid_t base = static_cast<vid_t>(c * half);
    for (std::size_t n = 0; n < half * 3; ++n) {
      std::vector<vid_t> net;
      for (int k = 0; k < 4; ++k) {
        net.push_back(base + static_cast<vid_t>(rng.below(half)));
      }
      std::sort(net.begin(), net.end());
      net.erase(std::unique(net.begin(), net.end()), net.end());
      if (net.size() >= 2) nets.push_back(net);
    }
  }
  nets.push_back({0, static_cast<vid_t>(half)});  // bridge
  return Hypergraph::build(2 * half, nets);
}

class PartitionerParts : public ::testing::TestWithParam<int> {};

TEST_P(PartitionerParts, RespectsBalanceAndBeatsRandom) {
  const int k = GetParam();
  const Hypergraph h = random_hypergraph(2000, 3000, 5, 77);
  PartitionerOptions opt;
  opt.num_parts = k;
  opt.epsilon = 0.10;
  const Partition hp = ht::hypergraph::partition_multilevel(h, opt);
  ht::hypergraph::validate_partition(h, hp);
  EXPECT_LE(ht::hypergraph::imbalance(h, hp), 0.12 + 1e-9);

  const Partition rd = ht::hypergraph::partition_random(h, k, 7);
  ht::hypergraph::validate_partition(h, rd);
  const auto cut_hp = ht::hypergraph::connectivity_cutsize(h, hp);
  const auto cut_rd = ht::hypergraph::connectivity_cutsize(h, rd);
  EXPECT_LT(cut_hp, cut_rd) << "multilevel should beat random placement";
}

INSTANTIATE_TEST_SUITE_P(PartCounts, PartitionerParts,
                         ::testing::Values(2, 3, 4, 8, 16));

TEST(PartitionerTest, FindsPlantedBisection) {
  const Hypergraph h = two_clusters(300, 5);
  PartitionerOptions opt;
  opt.num_parts = 2;
  const Partition p = ht::hypergraph::partition_multilevel(h, opt);
  // Only the bridge net should be cut.
  EXPECT_LE(ht::hypergraph::connectivity_cutsize(h, p), 3);
  // Clusters end up (almost) whole on each side.
  int cross = 0;
  for (std::size_t v = 0; v < 300; ++v) {
    cross += (p.part_of[v] != p.part_of[0]);
  }
  EXPECT_LE(cross, 6);
}

TEST(PartitionerTest, SinglePartIsTrivial) {
  const Hypergraph h = tiny();
  PartitionerOptions opt;
  opt.num_parts = 1;
  const Partition p = ht::hypergraph::partition_multilevel(h, opt);
  for (int part : p.part_of) EXPECT_EQ(part, 0);
  EXPECT_EQ(ht::hypergraph::connectivity_cutsize(h, p), 0);
}

TEST(PartitionerTest, MorePartsThanVerticesStillValid) {
  const Hypergraph h = tiny();
  PartitionerOptions opt;
  opt.num_parts = 9;
  const Partition p = ht::hypergraph::partition_multilevel(h, opt);
  ht::hypergraph::validate_partition(h, p);
}

TEST(PartitionerTest, DeterministicForSeed) {
  const Hypergraph h = random_hypergraph(500, 800, 4, 9);
  PartitionerOptions opt;
  opt.num_parts = 4;
  opt.seed = 11;
  const Partition a = ht::hypergraph::partition_multilevel(h, opt);
  const Partition b = ht::hypergraph::partition_multilevel(h, opt);
  EXPECT_EQ(a.part_of, b.part_of);
}

TEST(PartitionerTest, SamePartitionAtAnyThreadCount) {
  const auto x = ht::tensor::generate_preset(
      ht::tensor::paper_preset("delicious", 0.02), /*seed=*/1);
  const auto model = ht::hypergraph::build_fine_grain_model(x);
  PartitionerOptions opt;
  opt.num_parts = 4;
  opt.seed = 42;
  const Partition first = ht::hypergraph::partition_multilevel(model.hg, opt);
  ht::hypergraph::validate_partition(model.hg, first);
  EXPECT_EQ(ht::hypergraph::partition_multilevel(model.hg, opt).part_of,
            first.part_of);
  for (int threads : {1, 2, 4}) {
    ht::parallel::ThreadScope scope(threads);
    EXPECT_EQ(ht::hypergraph::partition_multilevel(model.hg, opt).part_of,
              first.part_of)
        << threads << " threads";
  }
}

// ---------------------------------------------------------------- relabel

TEST(RelabelTest, IdentityKeepsNetsOfTwoOrMorePins) {
  const Hypergraph h = Hypergraph::build(4, {{0, 1}, {2}, {1, 2, 3}, {0, 3}},
                                         {1, 2, 3, 4}, {5, 6, 7, 8});
  const std::vector<vid_t> identity = {0, 1, 2, 3};
  const Hypergraph r =
      ht::hypergraph::detail::relabel(h, identity, 4, {1, 2, 3, 4});
  expect_same_hypergraph(
      r, Hypergraph::build(4, {{0, 1}, {1, 2, 3}, {0, 3}}, {1, 2, 3, 4},
                           {5, 7, 8}));
}

TEST(RelabelTest, MergesContractedPinsAndDropsUnmapped) {
  // Vertices 0 and 1 merge into 0; vertex 2 is dropped; 3 becomes 1.
  const Hypergraph h =
      Hypergraph::build(4, {{0, 1}, {1, 3, 0}, {2, 3}, {3, 2, 0}});
  const std::vector<vid_t> map = {0, 0, kNoVertex, 1};
  const Hypergraph r = ht::hypergraph::detail::relabel(h, map, 2, {2, 1});
  // {0,1} -> {0}: dropped. {1,3,0} -> {0,1}. {2,3} -> {1}: dropped.
  // {3,2,0} -> {1,0}: first occurrences in pin order.
  expect_same_hypergraph(r, Hypergraph::build(2, {{0, 1}, {1, 0}}, {2, 1}));
  EXPECT_THROW(ht::hypergraph::detail::relabel(h, map, 1, {3}), ht::Error);
  const std::vector<vid_t> short_map = {0, 0};
  EXPECT_THROW(ht::hypergraph::detail::relabel(h, short_map, 2, {2, 1}),
               ht::Error);
}

// A contraction keeps every cut: labels on the coarse vertices give the
// same connectivity cut as the same labels projected onto the fine ones.
TEST(RelabelTest, ContractionKeepsConnectivityCut) {
  const auto x = ht::tensor::random_zipf(ht::tensor::Shape{40, 50, 30}, 3000,
                                         {1.0, 0.8, 0.5}, 17);
  const auto model = ht::hypergraph::build_fine_grain_model(x);
  const Hypergraph& fine = model.hg;
  ht::Rng rng(23);
  for (int trial = 0; trial < 5; ++trial) {
    // Random matching: shuffle, pair neighbours in the order, leave some
    // vertices single; a pair takes the coarse id of its first member.
    std::vector<vid_t> order(fine.num_vertices());
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    std::vector<vid_t> map(fine.num_vertices());
    vid_t nc = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      map[order[i]] = nc;
      if (i + 1 < order.size() && rng.below(4) != 0) map[order[++i]] = nc;
      ++nc;
    }
    std::vector<weight_t> weights(nc, 0);
    for (vid_t v = 0; v < fine.num_vertices(); ++v) {
      weights[map[v]] += fine.vertex_weight(v);
    }
    const Hypergraph coarse =
        ht::hypergraph::detail::relabel(fine, map, nc, weights);
    EXPECT_EQ(coarse.total_vertex_weight(), fine.total_vertex_weight());
    EXPECT_LE(coarse.num_pins(), fine.num_pins());

    const int k = 2 + trial;
    Partition on_coarse{k, std::vector<int>(nc)};
    for (int& part : on_coarse.part_of) {
      part = static_cast<int>(rng.below(static_cast<std::uint64_t>(k)));
    }
    Partition projected{k, std::vector<int>(fine.num_vertices())};
    for (vid_t v = 0; v < fine.num_vertices(); ++v) {
      projected.part_of[v] = on_coarse.part_of[map[v]];
    }
    EXPECT_EQ(ht::hypergraph::connectivity_cutsize(coarse, on_coarse),
              ht::hypergraph::connectivity_cutsize(fine, projected))
        << "trial " << trial;
  }
}

TEST(PartitionerTest, RandomPartitionIsBalanced) {
  const Hypergraph h = random_hypergraph(1000, 10, 3, 13);
  const Partition p = ht::hypergraph::partition_random(h, 8, 3);
  ht::hypergraph::validate_partition(h, p);
  EXPECT_LE(ht::hypergraph::imbalance(h, p), 0.05);
}

TEST(PartitionerTest, BlockPartitionIsContiguousAndBalanced) {
  std::vector<weight_t> weights(100);
  ht::Rng rng(15);
  for (auto& w : weights) w = 1 + static_cast<weight_t>(rng.below(5));
  const Partition p = ht::hypergraph::partition_block(weights, 4);
  // Contiguity: part ids are non-decreasing.
  for (std::size_t v = 1; v < weights.size(); ++v) {
    EXPECT_GE(p.part_of[v], p.part_of[v - 1]);
  }
  EXPECT_EQ(p.part_of.front(), 0);
  EXPECT_EQ(p.part_of.back(), 3);
  // Rough balance.
  std::vector<weight_t> loads(4, 0);
  weight_t total = 0;
  for (std::size_t v = 0; v < weights.size(); ++v) {
    loads[p.part_of[v]] += weights[v];
    total += weights[v];
  }
  for (weight_t l : loads) {
    EXPECT_LE(l, total / 4 + 10);
  }
}

TEST(PartitionerTest, BlockPartitionSkewedWeights) {
  // One huge vertex: everything else should share the remaining parts.
  std::vector<weight_t> weights(50, 1);
  weights[0] = 1000;
  const Partition p = ht::hypergraph::partition_block(weights, 4);
  EXPECT_EQ(p.part_of[0], 0);
  EXPECT_EQ(p.part_of[1], 1);  // block closes right after the giant
}

// ---------------------------------------------------------------- models

TEST(ModelsTest, FineGrainModelStructure) {
  using ht::tensor::CooTensor;
  using ht::tensor::index_t;
  CooTensor x(ht::tensor::Shape{3, 3, 3});
  x.push_back(std::vector<index_t>{0, 1, 2}, 1.0);
  x.push_back(std::vector<index_t>{0, 2, 2}, 1.0);
  x.push_back(std::vector<index_t>{1, 1, 0}, 1.0);

  const auto model = ht::hypergraph::build_fine_grain_model(x);
  EXPECT_EQ(model.hg.num_vertices(), 3u);  // one per nonzero
  // Shared rows: mode0 row0 (nnz 0,1), mode1 row1 (nnz 0,2), mode2 row2
  // (nnz 0,1) -> 3 nets with >= 2 pins.
  EXPECT_EQ(model.hg.num_nets(), 3u);
  ASSERT_EQ(model.net_mode.size(), 3u);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(model.hg.net_pins(static_cast<ht::hypergraph::nid_t>(n)).size(),
              2u);
  }
}

TEST(ModelsTest, FineGrainCutsizeTracksCommunication) {
  // All nonzeros in one part: zero cut.
  const auto x = ht::tensor::random_uniform(ht::tensor::Shape{30, 30, 30},
                                            400, 21);
  const auto model = ht::hypergraph::build_fine_grain_model(x);
  Partition all_one{2, std::vector<int>(model.hg.num_vertices(), 0)};
  EXPECT_EQ(ht::hypergraph::connectivity_cutsize(model.hg, all_one), 0);
}

TEST(ModelsTest, CoarseGrainModelWeightsAreSliceSizes) {
  using ht::tensor::CooTensor;
  using ht::tensor::index_t;
  CooTensor x(ht::tensor::Shape{4, 3, 2});
  x.push_back(std::vector<index_t>{0, 0, 0}, 1.0);
  x.push_back(std::vector<index_t>{0, 1, 1}, 1.0);
  x.push_back(std::vector<index_t>{2, 0, 1}, 1.0);

  const auto model = ht::hypergraph::build_coarse_grain_model(x, 0);
  // Compacted to the non-empty rows {0, 2}.
  ASSERT_EQ(model.rows, (std::vector<index_t>{0, 2}));
  EXPECT_EQ(model.hg.num_vertices(), 2u);
  EXPECT_EQ(model.hg.vertex_weight(0), 2);
  EXPECT_EQ(model.hg.vertex_weight(1), 1);
  // Net: mode-1 row 0 is shared by mode-0 rows {0, 2}. Mode-2 row 1 shared
  // by {0, 2} as well.
  EXPECT_EQ(model.hg.num_nets(), 2u);
}

TEST(ModelsTest, CoarseGrainDedupesRepeatedCooccurrences) {
  using ht::tensor::CooTensor;
  using ht::tensor::index_t;
  CooTensor x(ht::tensor::Shape{2, 2});
  x.push_back(std::vector<index_t>{0, 0}, 1.0);
  x.push_back(std::vector<index_t>{1, 0}, 1.0);
  x.push_back(std::vector<index_t>{1, 0}, 2.0);  // duplicate co-occurrence
  const auto model = ht::hypergraph::build_coarse_grain_model(x, 0);
  ASSERT_EQ(model.hg.num_nets(), 1u);
  EXPECT_EQ(model.hg.net_pins(0).size(), 2u);  // deduped pins {0, 1}
}

TEST(ModelsTest, CoarseGrainDropsHugeNets) {
  using ht::tensor::CooTensor;
  using ht::tensor::index_t;
  // Mode-1 row 0 co-occurs with 5 mode-0 rows: dropped when the cap is 4.
  CooTensor x(ht::tensor::Shape{6, 2});
  for (index_t i = 0; i < 5; ++i) {
    x.push_back(std::vector<index_t>{i, 0}, 1.0);
  }
  const auto capped = ht::hypergraph::build_coarse_grain_model(x, 0, 4);
  EXPECT_EQ(capped.hg.num_nets(), 0u);
  const auto uncapped = ht::hypergraph::build_coarse_grain_model(x, 0, 4096);
  EXPECT_EQ(uncapped.hg.num_nets(), 1u);
}

TEST(ModelsTest, ModelsOnGeneratedTensorAreConsistent) {
  const auto x =
      ht::tensor::random_zipf(ht::tensor::Shape{50, 80, 40}, 1500,
                              {1.0, 0.8, 0.5}, 31);
  const auto fine = ht::hypergraph::build_fine_grain_model(x);
  EXPECT_EQ(fine.hg.num_vertices(), x.nnz());
  EXPECT_LE(fine.hg.num_pins(), 3 * x.nnz());
  for (std::size_t mode = 0; mode < 3; ++mode) {
    const auto model = ht::hypergraph::build_coarse_grain_model(x, mode);
    EXPECT_LE(model.hg.num_vertices(), x.dim(mode));
    EXPECT_EQ(model.rows.size(), model.hg.num_vertices());
    // Weights still sum to nnz: every nonzero lies in exactly one slice.
    EXPECT_EQ(model.hg.total_vertex_weight(), static_cast<weight_t>(x.nnz()));
  }
}

TEST(ModelsTest, PartitioningFineGrainModelEndToEnd) {
  const auto x = ht::tensor::random_zipf(ht::tensor::Shape{60, 60, 60}, 2000,
                                         {1.1, 0.7, 0.3}, 41);
  const auto model = ht::hypergraph::build_fine_grain_model(x);
  PartitionerOptions opt;
  opt.num_parts = 4;
  const Partition hp = ht::hypergraph::partition_multilevel(model.hg, opt);
  const Partition rd = ht::hypergraph::partition_random(model.hg, 4, 3);
  EXPECT_LT(ht::hypergraph::connectivity_cutsize(model.hg, hp),
            ht::hypergraph::connectivity_cutsize(model.hg, rd));
  EXPECT_LE(ht::hypergraph::imbalance(model.hg, hp), 0.15);
}

}  // namespace
