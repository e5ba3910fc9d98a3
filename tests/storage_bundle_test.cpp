// Model bundle container: bit-exact save/load round trips on the heap and
// mmap paths, zero-copy verification through the CopyStats hook, reserved
// section kinds skipped on load, and rejection of corrupt, truncated and
// inconsistently shaped files.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/hooi.hpp"
#include "core/tucker_model.hpp"
#include "la/matrix.hpp"
#include "serve/serve_model.hpp"
#include "storage/bundle.hpp"
#include "tensor/generators.hpp"
#include "util/error.hpp"

namespace {

using ht::core::TuckerModel;
using ht::storage::BundleReader;
using ht::storage::BundleWriter;
using ht::storage::CopyStats;
using ht::storage::LoadMode;
using ht::storage::load_bundle;
using ht::storage::save_bundle;
using ht::storage::SectionKind;
using ht::tensor::CooTensor;
using ht::tensor::index_t;

class TempFile {
 public:
  explicit TempFile(const std::string& suffix) {
    path_ = ::testing::TempDir() + "ht_bundle_test_" + suffix;
  }
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// One trained model shared by the round-trip tests; HOOI runs once per
// process.
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

// The sections save_bundle writes for `m`, through the raw writer, so a
// test can add sections of its own after them.
void add_model_sections(BundleWriter& w, const TuckerModel& m) {
  char fit[64];
  std::snprintf(fit, sizeof fit, "fit=%.17g\n", m.fit);
  std::string meta = fit;
  for (const auto& [key, value] : m.provenance) {
    meta += "prov:" + key + "=" + value + "\n";
  }
  w.add_section(SectionKind::kMeta, 0, 0, 1, meta.data(), meta.size(),
                meta.size(), 1);
  w.add_array(SectionKind::kDims, 0, 0, m.dims.data(), m.dims.size());
  const std::vector<index_t> ranks = m.ranks();
  w.add_array(SectionKind::kRanks, 0, 0, ranks.data(), ranks.size());
  for (std::size_t n = 0; n < m.order(); ++n) {
    const ht::la::Matrix& u = m.decomposition.factors[n];
    w.add_section(SectionKind::kFactor, static_cast<std::uint32_t>(n), 0,
                  sizeof(double), u.data(), u.size() * sizeof(double),
                  u.rows(), u.cols());
  }
  const auto core = m.decomposition.core.flat();
  w.add_section(SectionKind::kCore, 0, 0, sizeof(double), core.data(),
                core.size() * sizeof(double), core.size(), 1);
}

void expect_models_bit_exact(const TuckerModel& a, const TuckerModel& b) {
  ASSERT_EQ(a.order(), b.order());
  EXPECT_EQ(a.dims, b.dims);
  EXPECT_EQ(a.ranks(), b.ranks());
  // Fit must survive the text meta round trip bit for bit (%.17g).
  EXPECT_EQ(a.fit, b.fit);
  EXPECT_EQ(a.provenance, b.provenance);
  for (std::size_t n = 0; n < a.order(); ++n) {
    const auto fa = a.decomposition.factors[n].flat();
    const auto fb = b.decomposition.factors[n].flat();
    ASSERT_EQ(fa.size(), fb.size());
    EXPECT_EQ(std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(double)),
              0)
        << "factor " << n << " not bit-exact";
  }
  const auto ca = a.decomposition.core.flat();
  const auto cb = b.decomposition.core.flat();
  ASSERT_EQ(ca.size(), cb.size());
  EXPECT_EQ(std::memcmp(ca.data(), cb.data(), ca.size() * sizeof(double)), 0)
      << "core not bit-exact";
}


TEST(BundleRoundTrip, HeapLoadIsBitExact) {
  TempFile tmp("heap.htb");
  save_bundle(trained_model(), tmp.path());
  const TuckerModel loaded = load_bundle(tmp.path(), LoadMode::kCopy);
  expect_models_bit_exact(trained_model(), loaded);
  // kCopy models are fully owned and mutable.
  EXPECT_FALSE(loaded.decomposition.factors[0].is_view());
  EXPECT_FALSE(loaded.decomposition.core.is_view());
}

TEST(BundleRoundTrip, MmapLoadIsBitExactAndZeroCopy) {
  TempFile tmp("mmap.htb");
  save_bundle(trained_model(), tmp.path());

  CopyStats::reset();
  const TuckerModel loaded = load_bundle(tmp.path(), LoadMode::kMap);
  // The allocation-counting hook: an mmap load copies no payload bytes —
  // every factor and the core are views into the mapping. (O(order)
  // metadata like dims is exempt by design.)
  EXPECT_EQ(CopyStats::bytes(), 0u);
  EXPECT_EQ(CopyStats::count(), 0u);
  for (const auto& f : loaded.decomposition.factors) {
    EXPECT_TRUE(f.is_view());
  }
  EXPECT_TRUE(loaded.decomposition.core.is_view());

  expect_models_bit_exact(trained_model(), loaded);
}

TEST(BundleRoundTrip, HeapLoadRecordsCopies) {
  TempFile tmp("copies.htb");
  save_bundle(trained_model(), tmp.path());
  CopyStats::reset();
  const TuckerModel loaded = load_bundle(tmp.path(), LoadMode::kCopy);
  (void)loaded;
  // Differentiation of the two paths: the heap load must have copied at
  // least the factor + core payloads.
  std::size_t payload = trained_model().decomposition.core.size();
  for (const auto& f : trained_model().decomposition.factors) {
    payload += f.size();
  }
  EXPECT_GE(CopyStats::bytes(), payload * sizeof(double));
}

// Older writers stored the training tensor's CSF trees and its linearized
// index as section kinds 6-18. Those kinds are reserved: the loader
// skips them, and the model comes back bit for bit on both paths.
TEST(BundleRoundTrip, ReservedStructureSectionsAreSkipped) {
  TempFile tmp("reserved.htb");
  const TuckerModel& m = trained_model();
  {
    BundleWriter w(tmp.path());
    add_model_sections(w, m);
    const std::vector<std::uint64_t> level_modes{0, 2, 1};
    w.add_array(static_cast<SectionKind>(6), 0, 0, level_modes.data(),
                level_modes.size());
    const std::vector<std::uint64_t> keys{3, 1, 4, 1, 5};
    w.add_array(static_cast<SectionKind>(12), 0, 0, keys.data(), keys.size());
    w.finish();
  }
  for (const LoadMode mode : {LoadMode::kMap, LoadMode::kCopy}) {
    const TuckerModel loaded = load_bundle(tmp.path(), mode);
    expect_models_bit_exact(m, loaded);
  }
  EXPECT_NO_THROW(BundleReader(tmp.path(), LoadMode::kMap).verify_all());
}

TEST(BundleInspect, ReportsSectionsAndMeta) {
  TempFile tmp("inspect.htb");
  save_bundle(trained_model(), tmp.path());
  const auto info = ht::storage::inspect_bundle(tmp.path());
  EXPECT_EQ(info.header.version, ht::storage::kBundleVersion);
  EXPECT_GT(info.sections.size(), 5u);
  EXPECT_GT(info.payload_bytes, 0u);
  bool saw_fit = false, saw_version = false;
  for (const auto& [key, value] : info.meta) {
    if (key == "fit") saw_fit = true;
    if (key == "prov:version") saw_version = true;
  }
  EXPECT_TRUE(saw_fit);
  EXPECT_TRUE(saw_version);
  const std::string text = ht::storage::describe_bundle(info);
  EXPECT_NE(text.find("factor"), std::string::npos);
  EXPECT_NE(text.find("core"), std::string::npos);
}

TEST(BundleIntegrity, RejectsTruncatedFile) {
  TempFile tmp("trunc.htb");
  save_bundle(trained_model(), tmp.path());
  std::ifstream in(tmp.path(), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Drop the tail (section table and part of the last payload).
  std::ofstream out(tmp.path(), std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  EXPECT_THROW(BundleReader(tmp.path(), LoadMode::kMap), ht::IoError);
}

TEST(BundleIntegrity, RejectsFileSmallerThanHeader) {
  TempFile tmp("tiny.htb");
  std::ofstream out(tmp.path(), std::ios::binary);
  out.write("HTBNDL1", 7);
  out.close();
  EXPECT_THROW(BundleReader(tmp.path(), LoadMode::kMap), ht::IoError);
}

TEST(BundleIntegrity, RejectsBadMagic) {
  TempFile tmp("magic.htb");
  save_bundle(trained_model(), tmp.path());
  std::fstream f(tmp.path(), std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(0);
  f.write("NOTHTBN1", 8);
  f.close();
  EXPECT_THROW(BundleReader(tmp.path(), LoadMode::kMap), ht::IoError);
}

TEST(BundleIntegrity, DetectsPayloadCorruptionOnCopyLoad) {
  TempFile tmp("corrupt.htb");
  save_bundle(trained_model(), tmp.path());
  // Flip one byte inside the first factor payload.
  const auto info = ht::storage::inspect_bundle(tmp.path());
  const ht::storage::SectionEntry* factor = nullptr;
  for (const auto& e : info.sections) {
    if (e.kind == static_cast<std::uint32_t>(SectionKind::kFactor)) {
      factor = &e;
      break;
    }
  }
  ASSERT_NE(factor, nullptr);
  std::fstream f(tmp.path(), std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(factor->offset + 3));
  char b;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x40);
  f.seekp(static_cast<std::streamoff>(factor->offset + 3));
  f.write(&b, 1);
  f.close();
  // kCopy verifies payload checksums and must reject the flip; explicit
  // verify_all catches it on the map path too.
  EXPECT_THROW(load_bundle(tmp.path(), LoadMode::kCopy), ht::IoError);
  BundleReader reader(tmp.path(), LoadMode::kMap);
  EXPECT_THROW(reader.verify_all(), ht::IoError);
}

TEST(BundleIntegrity, ViewsAreImmutableButDetachable) {
  TempFile tmp("immutable.htb");
  save_bundle(trained_model(), tmp.path());
  TuckerModel loaded = load_bundle(tmp.path(), LoadMode::kMap);
  EXPECT_THROW(static_cast<void>(loaded.decomposition.factors[0].data()),
               ht::Error);
  loaded.decomposition.factors[0].ensure_owned();
  EXPECT_NO_THROW(static_cast<void>(loaded.decomposition.factors[0].data()));
}

TEST(BundleIntegrity, RejectsShapeProductOverflow) {
  // Each file's declared shapes multiply out to 2^64, which wraps to the
  // 0 bytes stored: factors 0 and 1 as 2^31 x 2^30 doubles in the first,
  // the core as prod(ranks) = 2^22 * 2^22 * 2^20 in the second (its factors
  // have 0 rows). Loading either must throw instead of handing out views
  // that index far past the mapping.
  struct Case {
    std::vector<index_t> dims;
    std::vector<index_t> ranks;
  };
  for (const Case& c : {Case{{index_t{1} << 31, index_t{1} << 31, 1},
                             {index_t{1} << 30, index_t{1} << 30, 16}},
                        Case{{0, 0, 0},
                             {index_t{1} << 22, index_t{1} << 22,
                              index_t{1} << 20}}}) {
    TempFile tmp("overflow.htb");
    {
      BundleWriter w(tmp.path());
      const std::string meta = "fit=0\n";
      w.add_section(SectionKind::kMeta, 0, 0, 1, meta.data(), meta.size(),
                    meta.size(), 1);
      w.add_array(SectionKind::kDims, 0, 0, c.dims.data(), c.dims.size());
      w.add_array(SectionKind::kRanks, 0, 0, c.ranks.data(), c.ranks.size());
      for (std::size_t n = 0; n < c.dims.size(); ++n) {
        const std::uint64_t rows = c.dims[n], cols = c.ranks[n];
        const std::uint64_t bytes = rows * cols * sizeof(double);  // wraps
        const std::vector<double> zeros(bytes / sizeof(double), 0.0);
        w.add_section(SectionKind::kFactor, static_cast<std::uint32_t>(n), 0,
                      sizeof(double), zeros.data(), bytes, rows, cols);
      }
      w.add_section(SectionKind::kCore, 0, 0, sizeof(double), nullptr, 0, 0,
                    1);
      w.finish();
    }
    ASSERT_THROW(load_bundle(tmp.path(), LoadMode::kMap), ht::IoError);
    EXPECT_THROW(load_bundle(tmp.path(), LoadMode::kCopy), ht::IoError);
    EXPECT_THROW(ht::serve::ServeModel::load(tmp.path(), /*verify=*/true),
                 ht::IoError);
  }
}

TEST(BundleIntegrity, RejectsMistypedShapeSection) {
  // A dims section with 0-byte elements skips the section shape check, so
  // its row count (2^40 here) is unchecked: the loader must reject the
  // element size instead of reading that many indices.
  TempFile tmp("mistyped.htb");
  {
    BundleWriter w(tmp.path());
    const std::string meta = "fit=0\n";
    w.add_section(SectionKind::kMeta, 0, 0, 1, meta.data(), meta.size(),
                  meta.size(), 1);
    const std::vector<index_t> dims{30, 24, 18};
    w.add_section(SectionKind::kDims, 0, 0, 0, dims.data(),
                  dims.size() * sizeof(index_t), std::uint64_t{1} << 40, 1);
    w.finish();
  }
  for (const LoadMode mode : {LoadMode::kMap, LoadMode::kCopy}) {
    EXPECT_THROW(load_bundle(tmp.path(), mode), ht::IoError);
  }
}

}  // namespace
