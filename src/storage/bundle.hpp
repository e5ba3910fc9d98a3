// Versioned, checksummed binary model-bundle container.
//
// A bundle is one self-describing file holding every array of a trained
// core::TuckerModel — factor matrices and their row lists, core tensor,
// dims/ranks, and provenance metadata.
// The layout is designed for the two ways a model is consumed:
//
//   - LoadMode::kCopy: every payload is read into fresh heap vectors (each
//     copy recorded in storage::CopyStats). The loaded model is fully
//     mutable — this is the path dist_hooi restart uses, since it keeps
//     iterating on the factors.
//   - LoadMode::kMap: the file is mmap'd (storage::MappedFile) and every
//     array becomes a storage::Span view into the mapping — zero payload
//     copies, O(1) load time regardless of model size, pages faulted in on
//     first touch. This is the serve-time path: a cold process answers its
//     first reconstruct_at() query after reading only the 64-byte header
//     and the section table.
//
// File layout (all integers little-endian, the only byte order the paper's
// platforms — and this repo's CI — use):
//
//   [ BundleHeader: 64 bytes ]
//   [ payload 0 ] ... [ payload k ]     each 64-byte aligned, zero-padded
//   [ section table: section_count * 64-byte SectionEntry ]
//
//   BundleHeader { magic "HTBNDL1\0", version, section_count, table_offset,
//                  file_bytes, table_checksum }
//   SectionEntry { kind, a, b, elem_bytes, offset, bytes, rows, cols,
//                  checksum }
//
// `a`/`b` disambiguate repeated kinds: for kFactor and kFactorRows, a =
// mode. A compact factor (core/tucker.hpp) is followed by its kFactorRows
// section, the sorted global ids of its rows; a factor that holds every
// row has none, so a model with no row lists writes exactly the sections
// (and bytes) it did before kFactorRows existed. The reader treats a list
// as untrusted: it must be strictly increasing, inside the mode's size,
// and as long as the factor has rows. Payloads are
// 64-byte aligned so an mmap'd view of any element type is correctly
// aligned (mmap bases are page-aligned, so offset alignment is file-offset
// alignment).
//
// Integrity: the header is validated structurally (magic, version, file
// size); the section table always has its FNV-1a checksum verified; payload
// checksums are always verified on kCopy loads and for small sections on
// kMap loads. Large-payload checksums are skipped on kMap on purpose —
// checksumming would fault in every page and forfeit the O(1) cold load the
// mode exists for. `tucker_cli --inspect-model --verify` runs the full
// check explicitly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/tucker_model.hpp"
#include "storage/arena.hpp"
#include "storage/span.hpp"
#include "util/error.hpp"

namespace ht::storage {

inline constexpr char kBundleMagic[8] = {'H', 'T', 'B', 'N', 'D', 'L',
                                         '1', '\0'};
inline constexpr std::uint32_t kBundleVersion = 1;
inline constexpr std::size_t kBundleAlign = 64;

/// What a section holds. `a`/`b` meaning per kind is given inline.
enum class SectionKind : std::uint32_t {
  kMeta = 1,            // "key=value\n" text (provenance, fit, order)
  kDims = 2,            // index_t[order]: training-tensor mode sizes
  kRanks = 3,           // index_t[order]: decomposition ranks
  kFactor = 4,          // double[rows*cols], row-major; a = mode
  kCore = 5,            // double[prod(ranks)], DenseTensor layout
  // Kinds 6-18 are reserved: older writers stored the training tensor's CSF
  // trees (6-11) and ALTO linearization (12-18) there. Nothing reads them;
  // the reader skips them like any kind it does not know, so those bundles
  // still load.
  kFactorRows = 19,     // index_t[rows]: a compact factor's global row ids,
                        // strictly increasing; a = mode
};

/// 64-byte on-disk header. Plain-old-data, written/read by memcpy.
struct BundleHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t section_count;
  std::uint64_t table_offset;
  std::uint64_t file_bytes;
  std::uint64_t table_checksum;
  std::uint8_t reserved[24];
};
static_assert(sizeof(BundleHeader) == 64);

/// 64-byte on-disk section-table entry. rows/cols carry the logical shape
/// for matrix sections (rows = element count, cols = 1 elsewhere).
struct SectionEntry {
  std::uint32_t kind;
  std::uint32_t a;
  std::uint32_t b;
  std::uint32_t elem_bytes;
  std::uint64_t offset;
  std::uint64_t bytes;
  std::uint64_t rows;
  std::uint64_t cols;
  std::uint64_t checksum;
  std::uint64_t reserved;
};
static_assert(sizeof(SectionEntry) == 64);

/// FNV-1a 64-bit over a byte range. Dependency-free, order-sensitive, good
/// enough to catch truncation/corruption (not an integrity MAC).
std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t seed = 0xcbf29ce484222325ull);

/// Streaming bundle writer: open -> add sections -> finish. finish() seals
/// the file by appending the section table and rewriting the header with
/// the final counts and checksums; a crash before finish() leaves a file
/// whose zeroed header no reader accepts.
class BundleWriter {
 public:
  explicit BundleWriter(const std::string& path);
  ~BundleWriter();
  BundleWriter(const BundleWriter&) = delete;
  BundleWriter& operator=(const BundleWriter&) = delete;

  /// Append one section payload (64-byte aligned automatically).
  void add_section(SectionKind kind, std::uint32_t a, std::uint32_t b,
                   std::uint32_t elem_bytes, const void* data,
                   std::uint64_t bytes, std::uint64_t rows,
                   std::uint64_t cols);

  /// Typed convenience: element count becomes rows, cols = 1.
  template <typename T>
  void add_array(SectionKind kind, std::uint32_t a, std::uint32_t b,
                 const T* data, std::size_t count) {
    add_section(kind, a, b, sizeof(T), data, count * sizeof(T), count, 1);
  }

  /// Write table + final header and close. Must be called exactly once.
  void finish();

 private:
  std::FILE* f_ = nullptr;
  std::string path_;
  std::uint64_t cursor_ = 0;
  std::vector<SectionEntry> table_;
  bool finished_ = false;

  void pad_to_alignment();
};

enum class LoadMode {
  kCopy,  // heap-owned vectors; payload checksums verified; mutable
  kMap,   // zero-copy mmap views; O(1) load; read-only structures
};

/// Validated random-access reader over a bundle file. Construction reads
/// and verifies the header + section table only; payloads are touched when
/// a section is materialized (or never, for unused sections in kMap mode).
class BundleReader {
 public:
  BundleReader(const std::string& path, LoadMode mode);

  [[nodiscard]] LoadMode mode() const { return mode_; }
  [[nodiscard]] const BundleHeader& header() const { return header_; }
  [[nodiscard]] const std::vector<SectionEntry>& sections() const {
    return table_;
  }
  [[nodiscard]] const ArenaPtr& arena() const { return arena_; }

  /// First section matching (kind, a, b); nullptr when absent.
  [[nodiscard]] const SectionEntry* find(SectionKind kind, std::uint32_t a = 0,
                                         std::uint32_t b = 0) const;
  /// find() that throws ht::IoError when the section is missing.
  [[nodiscard]] const SectionEntry& require(SectionKind kind,
                                            std::uint32_t a = 0,
                                            std::uint32_t b = 0) const;

  /// Raw payload pointer (validated against the file bounds at open).
  [[nodiscard]] const std::byte* payload(const SectionEntry& e) const;

  /// Materialize a section as a typed Span: a zero-copy view (kMap) or an
  /// owned, checksum-verified heap copy (kCopy, recorded in CopyStats).
  /// Checks elem_bytes and alignment against T.
  template <typename T>
  [[nodiscard]] Span<T> load(const SectionEntry& e) const {
    HT_CHECK_MSG(e.elem_bytes == sizeof(T),
                 "bundle section element size mismatch");
    HT_CHECK_MSG(e.bytes % sizeof(T) == 0, "bundle section size mismatch");
    HT_CHECK_MSG(e.offset % alignof(T) == 0,
                 "bundle section misaligned for element type");
    const T* p = reinterpret_cast<const T*>(payload(e));
    const std::size_t count = e.bytes / sizeof(T);
    if (mode_ == LoadMode::kMap) {
      return Span<T>::view(p, count, arena_);
    }
    verify_payload(e);
    CopyStats::record(e.bytes);
    return Span<T>(std::vector<T>(p, p + count));
  }

  /// Verify one section's payload checksum (throws ht::IoError on
  /// mismatch). kCopy loads call this implicitly; kMap consumers can run it
  /// explicitly (tucker_cli --inspect-model --verify).
  void verify_payload(const SectionEntry& e) const;
  /// Verify every section payload.
  void verify_all() const;

  /// Parse a kMeta section into ordered key/value pairs.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> read_meta(
      const SectionEntry& e) const;

 private:
  LoadMode mode_;
  ArenaPtr arena_;
  BundleHeader header_{};
  std::vector<SectionEntry> table_;
};

// ---- model-level API --------------------------------------------------------

/// Serialize a model to `path` (atomic: written to a temp sibling and
/// renamed into place).
void save_bundle(const core::TuckerModel& m, const std::string& path);

/// Load a model bundle. kMap keeps every array as a view into the mapped
/// file (held alive by shared ownership inside the returned structures);
/// kCopy materializes independent heap copies.
core::TuckerModel load_bundle(const std::string& path,
                              LoadMode mode = LoadMode::kMap);

/// Header/table-level summary (no payload reads): what --inspect-model
/// prints before deciding whether to pay for --verify.
struct BundleInfo {
  BundleHeader header{};
  std::vector<SectionEntry> sections;
  std::vector<std::pair<std::string, std::string>> meta;
  std::uint64_t payload_bytes = 0;
};

[[nodiscard]] BundleInfo inspect_bundle(const std::string& path);

/// Human-readable multi-line rendering of a BundleInfo.
[[nodiscard]] std::string describe_bundle(const BundleInfo& info);

[[nodiscard]] const char* section_kind_name(SectionKind kind);

}  // namespace ht::storage
