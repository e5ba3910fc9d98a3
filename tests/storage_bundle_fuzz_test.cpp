// Seeded mutation test for the .htb model-bundle reader.
//
// Mutants of a small saved model, with whole factors and with compact ones
// and their row lists (byte flips, truncations, splices and perturbed
// length fields) must each either load or throw ht::Error, through
// LoadMode::kCopy and through LoadMode::kMap followed by verify_all(): no
// crash and no other exception type. Half of the mutants are re-sealed —
// header size and every checksum recomputed over the mutated bytes — so they
// get past the checksums to the structural checks behind them. The ASan/UBSan
// build is where a read past a section, or an allocation sized by a
// corrupted field, would show.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/hooi.hpp"
#include "core/tucker_model.hpp"
#include "storage/bundle.hpp"
#include "tensor/generators.hpp"
#include "util/random.hpp"

namespace {

using ht::core::TuckerModel;
using ht::storage::BundleHeader;
using ht::storage::LoadMode;
using ht::storage::SectionEntry;
using Bytes = std::vector<unsigned char>;

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "ht_bundle_fuzz_" + name) {}
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// A small trained model: every section kind save_bundle writes, in a file
// of about two kilobytes. With `compact`, every mode index is doubled, so
// every odd row is empty and each factor is saved with its row list.
Bytes saved_model(bool compact) {
  ht::tensor::CooTensor src =
      ht::tensor::random_zipf({12, 10, 8}, 300, {0.8, 0.9, 0.5}, 5);
  ht::tensor::plant_low_rank_values(src, 2, 0.1, 9);
  ht::tensor::CooTensor x = src;
  if (compact) {
    x = ht::tensor::CooTensor({24, 20, 16});
    std::vector<ht::tensor::index_t> idx(3);
    for (ht::tensor::nnz_t e = 0; e < src.nnz(); ++e) {
      for (std::size_t n = 0; n < 3; ++n) idx[n] = 2 * src.index(n, e);
      x.push_back(idx, src.value(e));
    }
  }
  ht::core::HooiOptions options;
  options.ranks = {3, 3, 2};
  options.max_iterations = 2;
  const TuckerModel m = TuckerModel::from_hooi(x, ht::core::hooi(x, options));
  const TempFile file("base.htb");
  ht::storage::save_bundle(m, file.path());
  return read_file(file.path());
}

template <typename T>
T load_at(const Bytes& b, std::size_t at) {
  T v{};
  if (at <= b.size() && sizeof v <= b.size() - at) {
    std::memcpy(&v, b.data() + at, sizeof v);
  }
  return v;
}

template <typename T>
void store_at(Bytes& b, std::size_t at, T v) {
  if (at <= b.size() && sizeof v <= b.size() - at) {
    std::memcpy(b.data() + at, &v, sizeof v);
  }
}

// Recompute what a writer would have sealed over these bytes: the header's
// file size, each in-bounds section's payload checksum and the table
// checksum. Fields the mutation broke stay broken.
void reseal(Bytes& b) {
  if (b.size() < sizeof(BundleHeader)) return;
  auto h = load_at<BundleHeader>(b, 0);
  h.file_bytes = b.size();
  const std::uint64_t table_bytes =
      std::uint64_t{h.section_count} * sizeof(SectionEntry);
  if (h.table_offset <= b.size() && table_bytes <= b.size() - h.table_offset) {
    for (std::uint64_t s = 0; s < h.section_count; ++s) {
      const std::size_t at = h.table_offset + s * sizeof(SectionEntry);
      auto e = load_at<SectionEntry>(b, at);
      if (e.offset <= b.size() && e.bytes <= b.size() - e.offset) {
        e.checksum = ht::storage::fnv1a64(b.data() + e.offset, e.bytes);
        store_at(b, at, e);
      }
    }
    h.table_checksum =
        ht::storage::fnv1a64(b.data() + h.table_offset, table_bytes);
  }
  store_at(b, 0, h);
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  Bytes operator()(Bytes b) {
    const std::size_t rounds = 1 + pick(3);
    for (std::size_t r = 0; r < rounds; ++r) once(b);
    if (pick(2) == 0) reseal(b);
    return b;
  }

 private:
  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(rng_.below(n)); }

  // Values a corrupted length or offset field takes: edges, near-misses of
  // the true value, and sizes no file could back.
  std::uint64_t perturb(std::uint64_t v) {
    switch (pick(8)) {
      case 0: return 0;
      case 1: return v + 1 + pick(128);
      case 2: return v - 1 - pick(std::max<std::uint64_t>(v, 1));
      case 3: return v * 2 + 64;
      case 4: return std::uint64_t{1} << (31 + pick(33));
      case 5: return ~std::uint64_t{0} - pick(64);
      case 6: return v ^ (std::uint64_t{1} << pick(64));
      default: return rng_();
    }
  }

  void once(Bytes& b) {
    switch (pick(4)) {
      case 0:  // byte flip
        if (!b.empty()) b[pick(b.size())] ^= static_cast<unsigned char>(1 + pick(255));
        break;
      case 1:  // truncation
        b.resize(pick(b.size() + 1));
        break;
      case 2: {  // splice: a copied range overwrites, or is inserted at, another
        if (b.empty()) break;
        const std::size_t from = pick(b.size());
        const std::size_t len = 1 + pick(std::min<std::size_t>(b.size() - from, 256));
        const Bytes range(b.begin() + static_cast<long>(from),
                          b.begin() + static_cast<long>(from + len));
        const std::size_t to = pick(b.size());
        if (pick(2) == 0) {
          b.insert(b.begin() + static_cast<long>(to), range.begin(), range.end());
        } else {
          std::copy(range.begin(),
                    range.begin() + static_cast<long>(std::min(len, b.size() - to)),
                    b.begin() + static_cast<long>(to));
        }
        break;
      }
      default:  // length field
        perturb_field(b);
        break;
    }
  }

  void perturb_field(Bytes& b) {
    const auto h = load_at<BundleHeader>(b, 0);
    if (pick(3) == 0 || h.section_count == 0) {
      switch (pick(3)) {
        case 0:
          store_at(b, offsetof(BundleHeader, section_count),
                   static_cast<std::uint32_t>(perturb(h.section_count)));
          break;
        case 1:
          store_at(b, offsetof(BundleHeader, table_offset), perturb(h.table_offset));
          break;
        default:
          store_at(b, offsetof(BundleHeader, file_bytes), perturb(h.file_bytes));
          break;
      }
      return;
    }
    const std::size_t at = h.table_offset + pick(h.section_count) * sizeof(SectionEntry);
    const auto e = load_at<SectionEntry>(b, at);
    switch (pick(7)) {
      case 0: store_at(b, at + offsetof(SectionEntry, offset), perturb(e.offset)); break;
      case 1: store_at(b, at + offsetof(SectionEntry, bytes), perturb(e.bytes)); break;
      case 2: store_at(b, at + offsetof(SectionEntry, rows), perturb(e.rows)); break;
      case 3: store_at(b, at + offsetof(SectionEntry, cols), perturb(e.cols)); break;
      case 4:
        store_at(b, at + offsetof(SectionEntry, elem_bytes),
                 static_cast<std::uint32_t>(perturb(e.elem_bytes)));
        break;
      case 5: {
        constexpr std::uint32_t kKinds[] = {1, 2, 3, 4, 5, 6, 19};
        store_at(b, at + offsetof(SectionEntry, kind), kKinds[pick(7)]);
        break;
      }
      default:
        store_at(b, at + offsetof(SectionEntry, a), static_cast<std::uint32_t>(pick(4)));
        break;
    }
  }

  ht::Rng rng_;
};

// What load_bundle promises of any model it returns; reading every value
// also touches every mapped page a view claims.
void expect_consistent(const TuckerModel& m) {
  ASSERT_GE(m.dims.size(), 1u);
  ASSERT_EQ(m.order(), m.dims.size());
  const auto ranks = m.ranks();
  std::size_t core_size = 1;
  double sum = 0;
  for (std::size_t n = 0; n < m.order(); ++n) {
    const auto& u = m.decomposition.factors[n];
    const auto ids = m.decomposition.row_ids(n);
    EXPECT_EQ(u.rows(), ids.empty() ? m.dims[n] : ids.size());
    for (std::size_t k = 0; k < ids.size(); ++k) {
      EXPECT_TRUE((k == 0 || ids[k - 1] < ids[k]) && ids[k] < m.dims[n]);
    }
    EXPECT_EQ(u.cols(), ranks[n]);
    for (std::size_t k = 0; k < u.size(); ++k) sum += std::abs(u.data()[k]);
    core_size *= ranks[n];
  }
  const auto core = m.decomposition.core.flat();
  EXPECT_EQ(core.size(), core_size);
  for (double v : core) sum += std::abs(v);
  EXPECT_FALSE(sum < 0);
}

// True when the mutant loaded; ht::Error is a clean rejection, anything
// else fails the test.
bool loads(const std::string& path, LoadMode mode) {
  try {
    const TuckerModel m = ht::storage::load_bundle(path, mode);
    expect_consistent(m);
    if (mode == LoadMode::kMap) {
      ht::storage::BundleReader(path, LoadMode::kMap).verify_all();
    }
    return true;
  } catch (const ht::Error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-ht::Error exception: " << e.what();
  }
  return false;
}

TEST(BundleFuzzTest, ResealedBaseLoads) {
  for (const bool compact : {false, true}) {
    const Bytes base = saved_model(compact);
    Bytes resealed = base;
    reseal(resealed);
    EXPECT_EQ(resealed, base);
    const TempFile file("resealed.htb");
    write_file(file.path(), resealed);
    EXPECT_TRUE(loads(file.path(), LoadMode::kCopy));
    EXPECT_TRUE(loads(file.path(), LoadMode::kMap));
  }
}

TEST(BundleFuzzTest, MutantsLoadOrThrowHtError) {
  for (const bool compact : {false, true}) {
    const Bytes base = saved_model(compact);
    const TempFile file("mutant.htb");
    Mutator mutate(/*seed=*/compact ? 2017 : 2016);
    std::size_t loaded = 0;
    constexpr int kMutants = 3000;
    for (int i = 0; i < kMutants; ++i) {
      const Bytes mutant = mutate(base);
      write_file(file.path(), mutant);
      for (const LoadMode mode : {LoadMode::kCopy, LoadMode::kMap}) {
        if (loads(file.path(), mode)) ++loaded;
      }
      if (HasFailure()) {
        ADD_FAILURE() << (compact ? "compact" : "whole") << " mutant " << i
                      << " (" << mutant.size() << " bytes)";
        break;
      }
    }
    // Both outcomes occur, so the mutations neither all break nor all miss.
    EXPECT_GT(loaded, 0u);
    EXPECT_LT(loaded, 2u * kMutants);
  }
}

}  // namespace
