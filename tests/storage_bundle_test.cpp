// Model bundle container: bit-exact save/load round trips on the heap and
// mmap paths, zero-copy verification through the CopyStats hook, CSF
// structures served from a bundle without re-sorting, kernel equivalence
// over mapped storage, and corruption/truncation rejection.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/hooi.hpp"
#include "core/symbolic.hpp"
#include "core/ttmc.hpp"
#include "core/tucker_model.hpp"
#include "la/matrix.hpp"
#include "storage/bundle.hpp"
#include "tensor/alto.hpp"
#include "tensor/csf.hpp"
#include "tensor/generators.hpp"
#include "util/error.hpp"

namespace {

using ht::core::TuckerModel;
using ht::tensor::AltoTensor;
using ht::storage::BundleReader;
using ht::storage::CopyStats;
using ht::storage::LoadMode;
using ht::storage::load_bundle;
using ht::storage::save_bundle;
using ht::storage::SectionKind;
using ht::tensor::CooTensor;
using ht::tensor::CsfTensor;
using ht::tensor::index_t;
using ht::tensor::nnz_t;

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

// One trained model (with CSF trees) shared by the round-trip tests; HOOI
// runs once per process.
const TuckerModel& trained_model() {
  static const TuckerModel model = [] {
    CooTensor x = ht::tensor::random_zipf({30, 24, 18}, 1500,
                                          {0.8, 0.9, 0.5}, 7);
    ht::tensor::plant_low_rank_values(x, 3, 0.1, 11);
    ht::core::HooiOptions options;
    options.ranks = {5, 4, 3};
    options.max_iterations = 4;
    TuckerModel m = TuckerModel::from_hooi(x, ht::core::hooi(x, options));
    m.csf = std::make_shared<CsfTensor>(CsfTensor::build(x));
    m.alto = std::make_shared<AltoTensor>(AltoTensor::build(x));
    return m;
  }();
  return model;
}

const CooTensor& trained_tensor() {
  static const CooTensor x = [] {
    CooTensor t = ht::tensor::random_zipf({30, 24, 18}, 1500,
                                          {0.8, 0.9, 0.5}, 7);
    ht::tensor::plant_low_rank_values(t, 3, 0.1, 11);
    return t;
  }();
  return x;
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

  ASSERT_EQ(a.has_alto(), b.has_alto());
  if (a.has_alto()) {
    const AltoTensor& aa = *a.alto;
    const AltoTensor& ab = *b.alto;
    ASSERT_EQ(aa.nnz(), ab.nnz());
    EXPECT_EQ(aa.key_bits, ab.key_bits);
    EXPECT_TRUE(aa.key_lo == ab.key_lo);
    EXPECT_TRUE(aa.key_hi == ab.key_hi);
    EXPECT_TRUE(aa.perm == ab.perm);
    EXPECT_TRUE(aa.values == ab.values);
    EXPECT_TRUE(aa.part_ptr == ab.part_ptr);
    EXPECT_TRUE(aa.part_min == ab.part_min);
    EXPECT_TRUE(aa.part_max == ab.part_max);
  }

  ASSERT_EQ(a.has_csf(), b.has_csf());
  if (!a.has_csf()) return;
  ASSERT_EQ(a.csf->order(), b.csf->order());
  for (std::size_t n = 0; n < a.csf->order(); ++n) {
    const ht::tensor::CsfTree& ta = a.csf->modes[n];
    const ht::tensor::CsfTree& tb = b.csf->modes[n];
    EXPECT_EQ(ta.level_modes, tb.level_modes);
    ASSERT_EQ(ta.levels(), tb.levels());
    for (std::size_t d = 0; d < ta.levels(); ++d) {
      EXPECT_TRUE(ta.idx[d] == tb.idx[d]) << "idx mode " << n << " level " << d;
      if (d >= 1) {
        EXPECT_TRUE(ta.ptr[d] == tb.ptr[d])
            << "ptr mode " << n << " level " << d;
      }
    }
    EXPECT_TRUE(ta.leaf_entry == tb.leaf_entry);
    EXPECT_TRUE(ta.root_leaf_ptr == tb.root_leaf_ptr);
    EXPECT_TRUE(ta.values == tb.values);
  }
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
  // every factor/core/CSF array is a view into the mapping. (O(order)
  // metadata like dims is exempt by design.)
  EXPECT_EQ(CopyStats::bytes(), 0u);
  EXPECT_EQ(CopyStats::count(), 0u);
  EXPECT_TRUE(loaded.decomposition.factors[0].is_view());
  EXPECT_TRUE(loaded.decomposition.core.is_view());
  EXPECT_TRUE(loaded.csf->modes[0].idx[0].is_view());
  // The ALTO arrays too: from_views only recomputes the O(order)
  // delinearization masks, never the per-nnz payloads.
  ASSERT_TRUE(loaded.has_alto());
  EXPECT_TRUE(loaded.alto->key_lo.is_view());
  EXPECT_TRUE(loaded.alto->perm.is_view());
  EXPECT_TRUE(loaded.alto->values.is_view());

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

TEST(BundleRoundTrip, CsfFromBundleMatchesFreshBuild) {
  // "No re-sorting" in the strongest form: the trees coming out of the
  // bundle are identical to trees built from scratch off the tensor, so
  // every structure invariant the build path guarantees holds for the
  // loaded path too.
  TempFile tmp("csf.htb");
  save_bundle(trained_model(), tmp.path());
  const TuckerModel loaded = load_bundle(tmp.path(), LoadMode::kMap);
  const CsfTensor fresh = CsfTensor::build(trained_tensor());

  ASSERT_TRUE(loaded.has_csf());
  ASSERT_EQ(loaded.csf->order(), fresh.order());
  for (std::size_t n = 0; n < fresh.order(); ++n) {
    const ht::tensor::CsfTree& lt = loaded.csf->modes[n];
    const ht::tensor::CsfTree& ft = fresh.modes[n];
    EXPECT_EQ(lt.level_modes, ft.level_modes);
    EXPECT_EQ(lt.num_leaves(), trained_tensor().nnz());
    for (std::size_t d = 0; d < ft.levels(); ++d) {
      EXPECT_TRUE(lt.idx[d] == ft.idx[d]);
      if (d >= 1) { EXPECT_TRUE(lt.ptr[d] == ft.ptr[d]); }
    }
    EXPECT_TRUE(lt.leaf_entry == ft.leaf_entry);
    EXPECT_TRUE(lt.root_leaf_ptr == ft.root_leaf_ptr);
    EXPECT_TRUE(lt.values == ft.values);
    // Invariants directly on the mapped tree: monotone ptr levels and
    // in-range leaf gather entries.
    for (std::size_t d = 1; d < lt.levels(); ++d) {
      for (std::size_t k = 1; k < lt.ptr[d].size(); ++k) {
        EXPECT_LE(lt.ptr[d][k - 1], lt.ptr[d][k]);
      }
    }
    for (nnz_t e : lt.leaf_entry) EXPECT_LT(e, trained_tensor().nnz());
  }
}

TEST(BundleRoundTrip, TtmcOverMappedCsfMatchesHeap) {
  TempFile tmp("ttmc.htb");
  save_bundle(trained_model(), tmp.path());
  const TuckerModel mapped = load_bundle(tmp.path(), LoadMode::kMap);
  const CooTensor& x = trained_tensor();
  const CsfTensor heap_csf = CsfTensor::build(x);

  const auto symbolic = ht::core::SymbolicTtmc::build(x);
  std::vector<ht::la::Matrix> factors;
  for (std::size_t n = 0; n < x.order(); ++n) {
    factors.push_back(mapped.decomposition.factors[n]);
    factors.back().ensure_owned();
  }
  ht::core::TtmcOptions options;
  options.kernel = ht::core::TtmcKernel::kCsf;
  for (std::size_t n = 0; n < x.order(); ++n) {
    ht::la::Matrix y_heap, y_map;
    ht::core::ttmc_mode(x, factors, n, symbolic.modes[n], y_heap, options,
                        &heap_csf.modes[n]);
    ht::core::ttmc_mode(x, factors, n, symbolic.modes[n], y_map, options,
                        &mapped.csf->modes[n]);
    ASSERT_EQ(y_heap.rows(), y_map.rows());
    ASSERT_EQ(y_heap.cols(), y_map.cols());
    for (std::size_t k = 0; k < y_heap.size(); ++k) {
      EXPECT_NEAR(y_heap.flat()[k], y_map.flat()[k], 1e-12)
          << "mode " << n << " entry " << k;
    }
  }
}

TEST(BundleRoundTrip, AltoFromBundleMatchesFreshBuild) {
  // The mapped structure must be indistinguishable from a scratch build:
  // same keys, same gather map, same partition tables — so decoding and
  // partition invariants established for the build path hold when serving.
  TempFile tmp("alto.htb");
  save_bundle(trained_model(), tmp.path());
  const TuckerModel loaded = load_bundle(tmp.path(), LoadMode::kMap);
  const AltoTensor fresh = AltoTensor::build(trained_tensor());

  ASSERT_TRUE(loaded.has_alto());
  const AltoTensor& mapped = *loaded.alto;
  ASSERT_EQ(mapped.nnz(), fresh.nnz());
  EXPECT_EQ(mapped.key_bits, fresh.key_bits);
  EXPECT_TRUE(mapped.key_lo == fresh.key_lo);
  EXPECT_TRUE(mapped.perm == fresh.perm);
  EXPECT_TRUE(mapped.values == fresh.values);
  EXPECT_TRUE(mapped.part_ptr == fresh.part_ptr);
  EXPECT_TRUE(mapped.part_min == fresh.part_min);
  EXPECT_TRUE(mapped.part_max == fresh.part_max);
  // Delinearization masks are recomputed, not stored: decode must agree.
  for (ht::tensor::nnz_t s = 0; s < fresh.nnz(); ++s) {
    for (std::size_t n = 0; n < fresh.order(); ++n) {
      ASSERT_EQ(mapped.mode_index(n, s), fresh.mode_index(n, s));
    }
  }
}

TEST(BundleRoundTrip, TtmcOverMappedAltoIsBitExactAndZeroCopy) {
  // The serve headline: TTMc straight off the mapping, bit-identical to
  // the heap-built structure, with zero payload bytes copied.
  TempFile tmp("alto_ttmc.htb");
  save_bundle(trained_model(), tmp.path());
  const TuckerModel mapped = load_bundle(tmp.path(), LoadMode::kMap);
  const CooTensor& x = trained_tensor();
  const AltoTensor heap_alto = AltoTensor::build(x);

  const auto symbolic = ht::core::SymbolicTtmc::build(x);
  std::vector<ht::la::Matrix> factors;
  for (std::size_t n = 0; n < x.order(); ++n) {
    factors.push_back(mapped.decomposition.factors[n]);
    factors.back().ensure_owned();
  }
  ht::core::TtmcOptions options;
  options.kernel = ht::core::TtmcKernel::kAlto;
  CopyStats::reset();
  for (std::size_t n = 0; n < x.order(); ++n) {
    ht::la::Matrix y_heap, y_map;
    ht::core::ttmc_mode(x, factors, n, symbolic.modes[n], y_heap, options,
                        nullptr, &heap_alto);
    ht::core::ttmc_mode(x, factors, n, symbolic.modes[n], y_map, options,
                        nullptr, mapped.alto.get());
    ASSERT_EQ(y_heap.rows(), y_map.rows());
    ASSERT_EQ(y_heap.cols(), y_map.cols());
    EXPECT_TRUE(y_heap.approx_equal(y_map, 0.0)) << "mode " << n;
  }
  EXPECT_EQ(CopyStats::bytes(), 0u) << "serving detached a mapped span";
}

TEST(BundleRoundTrip, ModelWithoutCsfRoundTrips) {
  TuckerModel m = trained_model();
  m.csf.reset();
  TempFile tmp("nocsf.htb");
  save_bundle(m, tmp.path());
  const TuckerModel loaded = load_bundle(tmp.path(), LoadMode::kMap);
  EXPECT_FALSE(loaded.has_csf());
  expect_models_bit_exact(m, loaded);
}

TEST(BundleRoundTrip, ModelWithoutAltoRoundTrips) {
  TuckerModel m = trained_model();
  m.alto.reset();
  TempFile tmp("noalto.htb");
  save_bundle(m, tmp.path());
  const TuckerModel loaded = load_bundle(tmp.path(), LoadMode::kMap);
  EXPECT_FALSE(loaded.has_alto());
  expect_models_bit_exact(m, loaded);
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

}  // namespace
