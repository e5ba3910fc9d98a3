#include "storage/bundle.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>

#include "storage/mapped_file.hpp"
#include "util/version.hpp"

namespace ht::storage {

std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

const char* section_kind_name(SectionKind kind) {
  switch (kind) {
    case SectionKind::kMeta: return "meta";
    case SectionKind::kDims: return "dims";
    case SectionKind::kRanks: return "ranks";
    case SectionKind::kFactor: return "factor";
    case SectionKind::kCore: return "core";
  }
  return "unknown";
}

// ---- writer -----------------------------------------------------------------

BundleWriter::BundleWriter(const std::string& path) : path_(path) {
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr) {
    throw IoError("cannot create bundle file: " + path);
  }
  // Placeholder header; finish() rewrites it with real counts. A reader
  // never accepts this zeroed header, so a crash mid-write cannot pass for
  // a valid bundle.
  BundleHeader zero{};
  if (std::fwrite(&zero, 1, sizeof zero, f_) != sizeof zero) {
    std::fclose(f_);
    f_ = nullptr;
    throw IoError("short write on bundle header: " + path);
  }
  cursor_ = sizeof zero;
}

BundleWriter::~BundleWriter() {
  if (f_ != nullptr) std::fclose(f_);
}

void BundleWriter::pad_to_alignment() {
  static constexpr char kZeros[kBundleAlign] = {};
  const std::size_t rem = cursor_ % kBundleAlign;
  if (rem == 0) return;
  const std::size_t pad = kBundleAlign - rem;
  if (std::fwrite(kZeros, 1, pad, f_) != pad) {
    throw IoError("short write on bundle padding: " + path_);
  }
  cursor_ += pad;
}

void BundleWriter::add_section(SectionKind kind, std::uint32_t a,
                               std::uint32_t b, std::uint32_t elem_bytes,
                               const void* data, std::uint64_t bytes,
                               std::uint64_t rows, std::uint64_t cols) {
  HT_CHECK_MSG(!finished_, "add_section after finish");
  HT_CHECK_MSG(data != nullptr || bytes == 0, "null section payload");
  pad_to_alignment();
  SectionEntry e{};
  e.kind = static_cast<std::uint32_t>(kind);
  e.a = a;
  e.b = b;
  e.elem_bytes = elem_bytes;
  e.offset = cursor_;
  e.bytes = bytes;
  e.rows = rows;
  e.cols = cols;
  e.checksum = fnv1a64(data, bytes);
  if (bytes > 0 && std::fwrite(data, 1, bytes, f_) != bytes) {
    throw IoError("short write on bundle section: " + path_);
  }
  cursor_ += bytes;
  table_.push_back(e);
}

void BundleWriter::finish() {
  HT_CHECK_MSG(!finished_, "finish called twice");
  pad_to_alignment();
  const std::uint64_t table_offset = cursor_;
  const std::size_t table_bytes = table_.size() * sizeof(SectionEntry);
  if (table_bytes > 0 &&
      std::fwrite(table_.data(), 1, table_bytes, f_) != table_bytes) {
    throw IoError("short write on bundle section table: " + path_);
  }
  cursor_ += table_bytes;

  BundleHeader h{};
  std::memcpy(h.magic, kBundleMagic, sizeof h.magic);
  h.version = kBundleVersion;
  h.section_count = static_cast<std::uint32_t>(table_.size());
  h.table_offset = table_offset;
  h.file_bytes = cursor_;
  h.table_checksum = fnv1a64(table_.data(), table_bytes);
  if (std::fseek(f_, 0, SEEK_SET) != 0 ||
      std::fwrite(&h, 1, sizeof h, f_) != sizeof h) {
    throw IoError("cannot rewrite bundle header: " + path_);
  }
  if (std::fclose(f_) != 0) {
    f_ = nullptr;
    throw IoError("cannot close bundle file: " + path_);
  }
  f_ = nullptr;
  finished_ = true;
}

// ---- reader -----------------------------------------------------------------

BundleReader::BundleReader(const std::string& path, LoadMode mode)
    : mode_(mode) {
  arena_ = MappedFile::open(path);
  const std::byte* base = arena_->data();
  const std::size_t size = arena_->size();

  if (size < sizeof(BundleHeader)) {
    throw IoError("bundle truncated (smaller than header): " + path);
  }
  std::memcpy(&header_, base, sizeof header_);
  if (std::memcmp(header_.magic, kBundleMagic, sizeof kBundleMagic) != 0) {
    throw IoError("not a model bundle (bad magic): " + path);
  }
  if (header_.version != kBundleVersion) {
    throw IoError("unsupported bundle version " +
                  std::to_string(header_.version) + ": " + path);
  }
  if (header_.file_bytes != size) {
    throw IoError("bundle truncated (header says " +
                  std::to_string(header_.file_bytes) + " bytes, file has " +
                  std::to_string(size) + "): " + path);
  }
  const std::uint64_t table_bytes =
      std::uint64_t{header_.section_count} * sizeof(SectionEntry);
  if (header_.table_offset > size || table_bytes > size - header_.table_offset) {
    throw IoError("bundle section table out of bounds: " + path);
  }
  if (fnv1a64(base + header_.table_offset, table_bytes) !=
      header_.table_checksum) {
    throw IoError("bundle section table checksum mismatch: " + path);
  }
  table_.resize(header_.section_count);
  std::memcpy(table_.data(), base + header_.table_offset, table_bytes);

  for (const SectionEntry& e : table_) {
    if (e.offset % kBundleAlign != 0 || e.offset > header_.table_offset ||
        e.bytes > header_.table_offset - e.offset) {
      throw IoError("bundle section out of bounds: " + path);
    }
    if (e.elem_bytes > 0) {
      // Checked products: a crafted rows x cols that wraps to the payload
      // size would otherwise pass, and consumers index by rows and cols.
      std::uint64_t shape_bytes = 0;
      if (__builtin_mul_overflow(e.rows, e.cols, &shape_bytes) ||
          __builtin_mul_overflow(shape_bytes, std::uint64_t{e.elem_bytes},
                                 &shape_bytes) ||
          shape_bytes != e.bytes) {
        throw IoError("bundle section shape inconsistent with size: " + path);
      }
    }
  }
}

const SectionEntry* BundleReader::find(SectionKind kind, std::uint32_t a,
                                       std::uint32_t b) const {
  for (const SectionEntry& e : table_) {
    if (e.kind == static_cast<std::uint32_t>(kind) && e.a == a && e.b == b) {
      return &e;
    }
  }
  return nullptr;
}

const SectionEntry& BundleReader::require(SectionKind kind, std::uint32_t a,
                                          std::uint32_t b) const {
  const SectionEntry* e = find(kind, a, b);
  if (e == nullptr) {
    throw IoError(std::string("bundle missing required section ") +
                  section_kind_name(kind) + "[" + std::to_string(a) + "," +
                  std::to_string(b) + "]");
  }
  return *e;
}

const std::byte* BundleReader::payload(const SectionEntry& e) const {
  return arena_->data() + e.offset;
}

void BundleReader::verify_payload(const SectionEntry& e) const {
  if (fnv1a64(payload(e), e.bytes) != e.checksum) {
    throw IoError(std::string("bundle payload checksum mismatch in section ") +
                  section_kind_name(static_cast<SectionKind>(e.kind)));
  }
}

void BundleReader::verify_all() const {
  for (const SectionEntry& e : table_) verify_payload(e);
}

std::vector<std::pair<std::string, std::string>> BundleReader::read_meta(
    const SectionEntry& e) const {
  verify_payload(e);  // meta is tiny; always checked, even on kMap
  const char* p = reinterpret_cast<const char*>(payload(e));
  std::vector<std::pair<std::string, std::string>> kv;
  std::size_t line_start = 0;
  for (std::size_t i = 0; i <= e.bytes; ++i) {
    if (i == e.bytes || p[i] == '\n') {
      if (i > line_start) {
        const std::string line(p + line_start, i - line_start);
        const std::size_t eq = line.find('=');
        if (eq != std::string::npos) {
          kv.emplace_back(line.substr(0, eq), line.substr(eq + 1));
        }
      }
      line_start = i + 1;
    }
  }
  return kv;
}

// ---- model <-> bundle -------------------------------------------------------

namespace {

// Reserved meta keys describe the model itself; provenance entries are
// namespaced with this prefix so a trainer-supplied key can never collide
// with (or spoof) a reserved one.
constexpr const char* kProvPrefix = "prov:";

std::string format_meta(const core::TuckerModel& m) {
  char fitbuf[64];
  // %.17g round-trips every double exactly: the bit-exact fit requirement.
  std::snprintf(fitbuf, sizeof fitbuf, "%.17g", m.fit);
  std::string s;
  s += "format=HTBNDL\n";
  s += "format_version=" + std::to_string(kBundleVersion) + "\n";
  s += "order=" + std::to_string(m.order()) + "\n";
  s += std::string("fit=") + fitbuf + "\n";
  for (const auto& [key, value] : m.provenance) {
    HT_CHECK_MSG(key.find('\n') == std::string::npos &&
                     key.find('=') == std::string::npos &&
                     value.find('\n') == std::string::npos,
                 "provenance entries must not contain '\\n' or '=' keys");
    s += kProvPrefix + key + "=" + value + "\n";
  }
  return s;
}

// kDims / kRanks: O(order) index arrays, copied on every load (CopyStats
// tracks payload bytes only). The element size is checked, so the count
// read never runs past the section.
tensor::Shape load_shape(const BundleReader& r, const SectionEntry& e) {
  if (e.elem_bytes != sizeof(tensor::index_t)) {
    throw IoError(std::string("bundle ") +
                  section_kind_name(static_cast<SectionKind>(e.kind)) +
                  " section has the wrong element size");
  }
  r.verify_payload(e);
  const auto* p = reinterpret_cast<const tensor::index_t*>(r.payload(e));
  return tensor::Shape(p, p + e.bytes / sizeof(tensor::index_t));
}

la::Matrix load_factor(const BundleReader& r, const SectionEntry& e) {
  Span<double> s = r.load<double>(e);
  const auto rows = static_cast<std::size_t>(e.rows);
  const auto cols = static_cast<std::size_t>(e.cols);
  if (r.mode() == LoadMode::kMap) {
    return la::Matrix::view(rows, cols, s.data(), s.arena());
  }
  return la::Matrix(rows, cols, std::move(s.vec()));
}

}  // namespace

void save_bundle(const core::TuckerModel& m, const std::string& path) {
  HT_CHECK_MSG(m.order() >= 1, "cannot save an empty model");
  HT_CHECK_MSG(m.dims.size() == m.order(),
               "model dims/factor count mismatch");

  const std::string tmp = path + ".tmp";
  {
    BundleWriter w(tmp);

    const std::string meta = format_meta(m);
    w.add_section(SectionKind::kMeta, 0, 0, 1, meta.data(), meta.size(),
                  meta.size(), 1);
    w.add_array(SectionKind::kDims, 0, 0, m.dims.data(), m.dims.size());
    const std::vector<tensor::index_t> ranks = m.ranks();
    w.add_array(SectionKind::kRanks, 0, 0, ranks.data(), ranks.size());

    for (std::size_t n = 0; n < m.order(); ++n) {
      const la::Matrix& u = m.decomposition.factors[n];
      w.add_section(SectionKind::kFactor, static_cast<std::uint32_t>(n), 0,
                    sizeof(double), u.data(), u.size() * sizeof(double),
                    u.rows(), u.cols());
    }
    const std::span<const double> core = m.decomposition.core.flat();
    w.add_section(SectionKind::kCore, 0, 0, sizeof(double), core.data(),
                  core.size() * sizeof(double), core.size(), 1);
    w.finish();
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw IoError("cannot move bundle into place: " + path);
  }
}

core::TuckerModel load_bundle(const std::string& path, LoadMode mode) {
  BundleReader r(path, mode);
  core::TuckerModel m;

  const auto kv = r.read_meta(r.require(SectionKind::kMeta));
  for (const auto& [key, value] : kv) {
    if (key == "fit") {
      m.fit = std::strtod(value.c_str(), nullptr);
    } else if (key.rfind(kProvPrefix, 0) == 0) {
      m.provenance.emplace_back(key.substr(std::strlen(kProvPrefix)), value);
    }
  }

  m.dims = load_shape(r, r.require(SectionKind::kDims));
  const std::size_t order = m.dims.size();
  HT_CHECK_MSG(order >= 1, "bundle has no dims");

  const tensor::Shape ranks = load_shape(r, r.require(SectionKind::kRanks));
  HT_CHECK_MSG(ranks.size() == order, "bundle ranks/dims order mismatch");

  m.decomposition.factors.reserve(order);
  for (std::size_t n = 0; n < order; ++n) {
    const SectionEntry& fe =
        r.require(SectionKind::kFactor, static_cast<std::uint32_t>(n));
    HT_CHECK_MSG(fe.rows == m.dims[n] && fe.cols == ranks[n],
                 "bundle factor " << n << " shape mismatch");
    m.decomposition.factors.push_back(load_factor(r, fe));
  }

  const SectionEntry& ce = r.require(SectionKind::kCore);
  Span<double> core = r.load<double>(ce);
  std::uint64_t core_total = 1;
  for (tensor::index_t rk : ranks) {
    if (__builtin_mul_overflow(core_total, std::uint64_t{rk}, &core_total)) {
      throw IoError("bundle core shape overflows: " + path);
    }
  }
  if (core.size() != core_total) {
    throw IoError("bundle core size mismatch: " + path);
  }
  if (mode == LoadMode::kMap) {
    m.decomposition.core =
        tensor::DenseTensor::view(ranks, core.data(), core.arena());
  } else {
    m.decomposition.core = tensor::DenseTensor(ranks, std::move(core.vec()));
  }

  return m;
}

BundleInfo inspect_bundle(const std::string& path) {
  BundleReader r(path, LoadMode::kMap);
  BundleInfo info;
  info.header = r.header();
  info.sections = r.sections();
  for (const SectionEntry& e : info.sections) {
    info.payload_bytes += e.bytes;
  }
  if (const SectionEntry* me = r.find(SectionKind::kMeta)) {
    info.meta = r.read_meta(*me);
  }
  return info;
}

std::string describe_bundle(const BundleInfo& info) {
  std::ostringstream os;
  os << "bundle: version " << info.header.version << ", "
     << info.header.section_count << " sections, " << info.header.file_bytes
     << " bytes (" << info.payload_bytes << " payload)\n";
  for (const auto& [key, value] : info.meta) {
    os << "  " << key << " = " << value << "\n";
  }
  for (const SectionEntry& e : info.sections) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "  %-18s a=%u b=%u  %8" PRIu64 " B  (%" PRIu64 " x %" PRIu64
                  " x %uB) @ %" PRIu64 "\n",
                  section_kind_name(static_cast<SectionKind>(e.kind)), e.a,
                  e.b, e.bytes, e.rows, e.cols, e.elem_bytes, e.offset);
    os << line;
  }
  return os.str();
}

}  // namespace ht::storage
