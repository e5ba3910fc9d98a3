// ServeModel and the core/reconstruct kernels: shape validation, zero-copy
// serving off an mmap'd bundle (CopyStats == 0), bit-exact agreement with
// TuckerDecomposition::reconstruct_at on both the mmap and heap load
// paths, and the slice decomposition identities every serving query relies
// on (entity_slice + score_from_slice == score; mode_vector dot factor row
// == point score), and identical answers from a compact bundle and the
// same model saved with whole factors.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/hooi.hpp"
#include "core/reconstruct.hpp"
#include "core/tucker_model.hpp"
#include "serve/dispatcher.hpp"
#include "serve/model_handle.hpp"
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
  const std::size_t rows_cap = ws.rows.capacity();
  const std::size_t zero_cap = ws.zero.capacity();
  for (int rep = 0; rep < 100; ++rep) {
    EXPECT_EQ(model.reconstruct_at(idx), first);
  }
  EXPECT_EQ(ws.slice.capacity(), slice_cap);
  EXPECT_EQ(ws.entity.capacity(), entity_cap);
  EXPECT_EQ(ws.rows.capacity(), rows_cap);
  EXPECT_EQ(ws.zero.capacity(), zero_cap);
}

// Every mode index doubled into a twice-as-large mode: every odd row of
// every mode is empty.
CooTensor with_empty_slices(const CooTensor& src) {
  ht::tensor::Shape shape;
  for (const index_t d : src.shape()) shape.push_back(2 * d);
  CooTensor x(shape);
  std::vector<index_t> idx(src.order());
  for (ht::tensor::nnz_t e = 0; e < src.nnz(); ++e) {
    for (std::size_t n = 0; n < src.order(); ++n) idx[n] = 2 * src.index(n, e);
    x.push_back(idx, src.value(e));
  }
  return x;
}

// A model trained on a tensor with empty slices in every mode answers from
// its compact bundle exactly as from the same model saved with whole
// factors: every SCORE and TOPK line, absent rows in every mode included,
// down to the %.17g text on the wire.
TEST(ServeModelTest, CompactAndWholeBundlesAnswerIdentically) {
  CooTensor src = ht::tensor::random_zipf({12, 10, 8}, 400,
                                          {0.5, 0.5, 0.5}, 31);
  ht::tensor::plant_low_rank_values(src, 2, 0.1, 32);
  const CooTensor x = with_empty_slices(src);
  ht::core::HooiOptions options;
  options.ranks = {3, 3, 2};
  options.max_iterations = 3;
  const TuckerModel compact =
      TuckerModel::from_hooi(x, ht::core::hooi(x, options));
  TuckerModel whole = compact;
  for (std::size_t n = 0; n < x.order(); ++n) {
    ASSERT_FALSE(compact.decomposition.row_ids(n).empty()) << "mode " << n;
    whole.decomposition.factors[n] =
        compact.decomposition.dense_factor(n, x.dim(n));
  }
  whole.decomposition.rows.clear();
  TempFile compact_file("compact.htb"), whole_file("whole.htb");
  ht::storage::save_bundle(compact, compact_file.path());
  ht::storage::save_bundle(whole, whole_file.path());

  ht::serve::ModelHandle compact_handle, whole_handle;
  compact_handle.load_and_publish(compact_file.path());
  whole_handle.load_and_publish(whole_file.path());
  ASSERT_FALSE(compact_handle.snapshot()->row_ids(0).empty());
  ASSERT_TRUE(whole_handle.snapshot()->row_ids(0).empty());
  ht::serve::Dispatcher from_compact(compact_handle, {});
  ht::serve::Dispatcher from_whole(whole_handle, {});
  const auto same_answer = [&](const std::string& line) {
    const std::string answer = from_compact.handle_line(line);
    EXPECT_EQ(answer, from_whole.handle_line(line)) << line;
    return answer;
  };
  for (index_t i = 0; i < x.dim(0); ++i) {
    for (index_t j = 0; j < x.dim(1); ++j) {
      for (index_t k = 0; k < x.dim(2); ++k) {
        same_answer("SCORE " + std::to_string(i) + " " + std::to_string(j) +
                    " " + std::to_string(k));
      }
    }
    for (index_t k = 0; k < x.dim(2); ++k) {
      same_answer("TOPK " + std::to_string(i) + " 5 " + std::to_string(k));
    }
  }
  // Row 1 of mode 0 is empty: its entity slice is zero, so every item
  // scores 0 and ties break by item index.
  EXPECT_EQ(same_answer("TOPK 1 5 0"), "OK 0:0 1:0 2:0 3:0 4:0");
  EXPECT_EQ(same_answer("SCORE 2 3 5"), "OK 0");
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
