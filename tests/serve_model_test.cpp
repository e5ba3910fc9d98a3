// ServeModel and the core/reconstruct kernels: shape validation, zero-copy
// serving off an mmap'd bundle (CopyStats == 0), bit-exact agreement with
// TuckerDecomposition::reconstruct_at on both the mmap and heap load
// paths, and the slice decomposition identities every serving query relies
// on (entity_slice + score_from_slice == score; mode_vector dot factor row
// == point score).
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/hooi.hpp"
#include "core/reconstruct.hpp"
#include "core/tucker_model.hpp"
#include "serve/serve_model.hpp"
#include "storage/bundle.hpp"
#include "tensor/generators.hpp"
#include "util/error.hpp"

namespace {

using ht::core::ReconstructWorkspace;
using ht::core::TuckerModel;
using ht::serve::ServeModel;
using ht::storage::CopyStats;
using ht::tensor::CooTensor;
using ht::tensor::index_t;

class TempFile {
 public:
  explicit TempFile(const std::string& suffix) {
    path_ = ::testing::TempDir() + "ht_serve_model_" + suffix;
  }
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// One trained 3-mode model shared by all tests (HOOI runs once).
const TuckerModel& trained_model() {
  static const TuckerModel model = [] {
    CooTensor x = ht::tensor::random_zipf({30, 24, 18}, 1500,
                                          {0.8, 0.9, 0.5}, 7);
    ht::tensor::plant_low_rank_values(x, 3, 0.1, 11);
    ht::core::HooiOptions options;
    options.ranks = {5, 4, 3};
    options.max_iterations = 4;
    return TuckerModel::from_hooi(x, ht::core::hooi(x, options));
  }();
  return model;
}

std::vector<std::vector<index_t>> probe_coords(const ht::tensor::Shape& dims,
                                               std::size_t count,
                                               unsigned seed) {
  std::vector<std::vector<index_t>> coords;
  std::uint64_t s = seed * 2654435761u + 12345;
  for (std::size_t q = 0; q < count; ++q) {
    std::vector<index_t> idx(dims.size());
    for (std::size_t n = 0; n < dims.size(); ++n) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      idx[n] = static_cast<index_t>((s >> 33) % dims[n]);
    }
    coords.push_back(std::move(idx));
  }
  return coords;
}

TEST(ServeModelTest, ValidatesShapeAgreement) {
  TuckerModel bad = trained_model();
  bad.dims[1] += 1;  // factor rows no longer match the claimed dims
  EXPECT_THROW(ServeModel{std::move(bad)}, ht::Error);

  TuckerModel no_factors = trained_model();
  no_factors.decomposition.factors.clear();
  EXPECT_THROW(ServeModel{std::move(no_factors)}, ht::Error);
}

TEST(ServeModelTest, MmapLoadIsZeroCopyAndBitExact) {
  TempFile file("zero_copy.htb");
  ht::storage::save_bundle(trained_model(), file.path());

  CopyStats::reset();
  const auto served = ServeModel::load(file.path(), /*verify=*/true);
  EXPECT_TRUE(served->is_view());
  EXPECT_EQ(CopyStats::bytes(), 0u)
      << "serving path copied tensor payload out of the mapped bundle";

  // Served answers must be bit-identical to the training-side
  // reconstruction — same kernels, same summation order.
  for (const auto& idx : probe_coords(served->dims(), 200, 3)) {
    const double train_side = trained_model().reconstruct_at(idx);
    const double serve_side = served->score(idx);
    EXPECT_EQ(train_side, serve_side);
  }
}

TEST(ServeModelTest, HeapAndMmapServeIdentically) {
  TempFile file("heap_vs_map.htb");
  ht::storage::save_bundle(trained_model(), file.path());

  const auto mapped = ServeModel::load(file.path());
  const auto copied = std::make_shared<const ServeModel>(
      ht::storage::load_bundle(file.path(), ht::storage::LoadMode::kCopy));
  EXPECT_TRUE(mapped->is_view());
  EXPECT_FALSE(copied->is_view());
  for (const auto& idx : probe_coords(mapped->dims(), 100, 5)) {
    EXPECT_EQ(mapped->score(idx), copied->score(idx));
  }
}

TEST(ServeModelTest, EntitySliceDecompositionIsExact) {
  const auto served =
      std::make_shared<const ServeModel>(TuckerModel(trained_model()));
  ReconstructWorkspace ws;
  // The entity is mode 0, the canonical contraction order score() itself
  // uses, so slice + finish is BITWISE identical.
  std::vector<double> slice(served->slice_size());
  for (const auto& idx : probe_coords(served->dims(), 50, 7)) {
    served->entity_slice(idx[0], slice);
    EXPECT_EQ(served->score(idx), served->score_from_slice(slice, idx, ws));
  }
}

TEST(ServeModelTest, ModeVectorMatchesPointScores) {
  const auto served =
      std::make_shared<const ServeModel>(TuckerModel(trained_model()));
  ReconstructWorkspace ws;
  const std::size_t target = 1;
  std::vector<double> slice(served->slice_size());
  std::vector<double> v(served->ranks()[target]);
  for (const auto& idx : probe_coords(served->dims(), 30, 13)) {
    served->entity_slice(idx[0], slice);
    served->mode_vector_from_slice(slice, target, idx, ws, v);
    // v dot U_target(i, :) must equal the point score for every item i —
    // this identity is what makes topk() scores point-score-exact.
    for (index_t item = 0; item < served->dims()[target]; ++item) {
      double dot = 0;
      const auto row = served->factor_row(target, item);
      for (std::size_t r = 0; r < v.size(); ++r) dot += v[r] * row[r];
      std::vector<index_t> probe(idx);
      probe[target] = item;
      EXPECT_EQ(served->score(probe), dot);
    }
  }
}

TEST(ServeModelTest, ReconstructAtIsAllocationFreeAfterWarmup) {
  // The TLS workspace grows on first use; after warm-up repeated queries
  // must reuse it (we can't count allocations portably, but we can check
  // the workspace buffers stop growing and answers stay identical).
  const auto& model = trained_model();
  std::vector<index_t> idx = {3, 5, 7};
  const double first = model.reconstruct_at(idx);
  auto& ws = ReconstructWorkspace::tls();
  const std::size_t slice_cap = ws.slice.capacity();
  const std::size_t entity_cap = ws.entity.capacity();
  for (int rep = 0; rep < 100; ++rep) {
    EXPECT_EQ(model.reconstruct_at(idx), first);
  }
  EXPECT_EQ(ws.slice.capacity(), slice_cap);
  EXPECT_EQ(ws.entity.capacity(), entity_cap);
}

TEST(ServeModelTest, TwoModeAndFourModeModels) {
  // The slice machinery must handle the order-2 edge (empty `rest`) and
  // deeper tensors alike.
  for (const ht::tensor::Shape& shape :
       {ht::tensor::Shape{20, 15}, ht::tensor::Shape{10, 8, 6, 5}}) {
    CooTensor x = ht::tensor::random_zipf(
        shape, 150, std::vector<double>(shape.size(), 0.7), 21);
    ht::tensor::plant_low_rank_values(x, 2, 0.1, 22);
    ht::core::HooiOptions options;
    options.ranks.assign(shape.size(), 3);
    options.max_iterations = 2;
    auto model = TuckerModel::from_hooi(x, ht::core::hooi(x, options));
    const auto served =
        std::make_shared<const ServeModel>(std::move(model));
    ReconstructWorkspace ws;
    std::vector<double> slice(served->slice_size());
    for (const auto& idx : probe_coords(served->dims(), 40, 23)) {
      const double direct = served->score(idx);
      served->entity_slice(idx[0], slice);
      EXPECT_EQ(direct, served->score_from_slice(slice, idx, ws));
    }
  }
}

}  // namespace
