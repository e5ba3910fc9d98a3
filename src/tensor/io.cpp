#include "tensor/io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "storage/mapped_file.hpp"
#include "util/error.hpp"

namespace ht::tensor {

namespace {

// Largest tensor order either reader accepts. Both formats are outside
// input: without a cap one long text line (or one corrupt header) would
// become a tensor with as many modes as it has fields.
constexpr std::size_t kMaxOrder = 16;

// The largest usable 1-based index: mode sizes are index_t themselves, so
// a 1-based index above max(index_t) can never satisfy a shape check (and
// would wrap shape inference's dim = idx + 1 to zero). Values this small
// are exactly representable in a double, so checking the range first also
// rejects every magnitude where a double has already lost integer
// precision (>= 2^53), and makes the integrality cast below safe (casting
// an out-of-range double to integer is UB).
constexpr std::uint64_t kMaxIndex = std::numeric_limits<index_t>::max();

// The text is cut after the first newline at or past every multiple of
// this many bytes. A constant, never derived from the team size: the
// blocks, and with them the tensor and the first error, are the same at
// any thread count.
constexpr std::size_t kBlockBytes = std::size_t{1} << 18;

[[noreturn]] void fail(const std::string& what) { throw IoError(what); }

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

const char* skip_space(const char* p, const char* end) {
  while (p != end && is_space(*p)) ++p;
  return p;
}

// A field ends at whitespace, at a '#' comment or at the end of the line.
bool field_ends(const char* p, const char* end) {
  return p == end || is_space(*p) || *p == '#';
}

// The field starting at p, quoted and shortened for an error message.
std::string quoted(const char* p, const char* end) {
  const char* e = p;
  while (!field_ends(e, end)) ++e;
  constexpr std::ptrdiff_t kShown = 32;
  std::string s(1, '\'');
  s.append(p, static_cast<std::size_t>(std::min(e - p, kShown)));
  s.append(e - p > kShown ? "...'" : "'");
  return s;
}

// One decimal field in `istream >> double` syntax: an optional sign,
// digits, a fraction and an exponent. Anything else — trailing bytes, hex,
// NaN, infinity, overflow, underflow to zero — throws; subnormals parse.
// Advances p past the field.
double parse_real(const char*& p, const char* end, const char* what) {
  // `>> double` takes a leading '+' and from_chars does not: skip one,
  // unless a '-' follows it.
  const char* q = p;
  if (q != end && *q == '+' && !(q + 1 != end && q[1] == '-')) ++q;
  double v = 0;
  const auto [next, ec] = std::from_chars(q, end, v, std::chars_format::general);
  if (ec == std::errc::result_out_of_range) {
    fail(std::string(what) + " " + quoted(p, end) + " is out of range of a double");
  }
  if (ec != std::errc() || !field_ends(next, end) || !std::isfinite(v)) {
    fail(std::string("unparsable ") + what + " " + quoted(p, end));
  }
  p = next;
  return v;
}

// One 1-based index field, returned 0-based. Plain digits take the integer
// path; "3.0", "3e0" or "+3" are read as reals that must be integral.
index_t parse_index(const char*& p, const char* end) {
  const char* const field = p;
  std::uint64_t v = 0;
  const auto [next, ec] = std::from_chars(p, end, v);
  if (ec == std::errc() && field_ends(next, end)) {
    p = next;
  } else {
    const double d = parse_real(p, end, "index");
    if (!(d >= 1 && d <= static_cast<double>(kMaxIndex))) {
      v = 0;  // out of range, rejected below
    } else if (d != std::floor(d)) {
      fail("index " + quoted(field, end) + " is not an integer");
    } else {
      v = static_cast<std::uint64_t>(d);
    }
  }
  if (v < 1 || v > kMaxIndex) {
    fail("index " + quoted(field, end) + " out of range [1, " +
         std::to_string(kMaxIndex) + "]");
  }
  return static_cast<index_t>(v - 1);
}

// Start of the line's first field, or nullptr for a blank or comment line.
const char* first_field(const char* p, const char* end) {
  p = skip_space(p, end);
  return p == end || *p == '#' ? nullptr : p;
}

// Number of fields on the line starting at its first field p, counting at
// most `cap`.
std::size_t count_fields(const char* p, const char* end, std::size_t cap) {
  std::size_t n = 0;
  while (n < cap && !field_ends(p, end)) {
    while (!field_ends(p, end)) ++p;
    p = skip_space(p, end);
    ++n;
  }
  return n;
}

// Parses `order` indices and a value from the line starting at its first
// field p. Throws IoError (the caller adds the line number) unless the line
// holds exactly those fields, optionally followed by a '#' comment.
void parse_fields(const char* p, const char* end, std::size_t order,
                  index_t* idx, value_t& value) {
  for (std::size_t n = 0; n <= order; ++n) {
    if (p == end || *p == '#') {
      fail("expected " + std::to_string(order + 1) + " fields, got " +
           std::to_string(n));
    }
    if (n < order) {
      idx[n] = parse_index(p, end);
    } else {
      value = parse_real(p, end, "value");
    }
    p = skip_space(p, end);
  }
  if (p != end && *p != '#') {
    fail("expected " + std::to_string(order + 1) + " fields, got more");
  }
}

const char* line_end(const char* p, const char* end) {
  const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(end - p));
  return nl == nullptr ? end : static_cast<const char*>(nl);
}

// Calls f(line_begin, line_end) for each '\n'-terminated (or final) line.
template <typename F>
void for_each_line(const char* p, const char* end, F&& f) {
  while (p != end) {
    const char* eol = line_end(p, end);
    f(p, eol);
    p = eol == end ? end : eol + 1;
  }
}

// The order fixed by the first data line's field count.
std::size_t infer_order(const char* p, const char* end) {
  for (std::size_t line_no = 1; p != end; ++line_no) {
    const char* eol = line_end(p, end);
    if (const char* f = first_field(p, eol)) {
      const std::size_t fields = count_fields(f, eol, kMaxOrder + 2);
      if (fields < 2) {
        fail("line " + std::to_string(line_no) +
             ": need at least one index and a value");
      }
      if (fields > kMaxOrder + 1) {
        fail("line " + std::to_string(line_no) + ": more than " +
             std::to_string(kMaxOrder + 1) +
             " fields (tensor order is at most " + std::to_string(kMaxOrder) +
             ")");
      }
      return fields - 1;
    }
    p = eol == end ? end : eol + 1;
  }
  fail("empty tensor file");
}

// The whole .tns text in one buffer -> tensor. The text is cut into fixed
// byte blocks, parsed in two parallel passes joined like radix_sort's
// chunks: one counts each block's lines and nonzeros, an exclusive prefix
// over blocks gives every block its destination range, and the second
// parses each block straight into its range of the columns. Every block
// keeps its first error; the earliest block's is thrown with its line
// number, so what the caller sees is independent of the thread count.
CooTensor parse_tns(std::string_view text, Shape shape) {
  const char* const begin = text.data();
  const char* const end = begin + text.size();

  if (shape.size() > kMaxOrder) {
    fail("declared tensor order " + std::to_string(shape.size()) +
         " exceeds the maximum of " + std::to_string(kMaxOrder));
  }
  const std::size_t order =
      shape.empty() ? infer_order(begin, end) : shape.size();

  const std::size_t blocks =
      std::max<std::size_t>(1, (text.size() + kBlockBytes - 1) / kBlockBytes);
  const auto cut = [&](std::size_t b) {
    if (b == 0) return begin;
    if (b * kBlockBytes >= text.size()) return end;
    const char* eol = line_end(begin + b * kBlockBytes, end);
    return eol == end ? end : eol + 1;
  };
  const auto n_blocks = static_cast<std::ptrdiff_t>(blocks);

  // Pass 1: lines and nonzeros per block.
  std::vector<std::size_t> lines(blocks, 0);
  std::vector<nnz_t> first(blocks + 1, 0);
#pragma omp parallel for schedule(dynamic, 1) if (blocks > 1)
  for (std::ptrdiff_t b = 0; b < n_blocks; ++b) {
    const auto i = static_cast<std::size_t>(b);
    std::size_t block_lines = 0;
    nnz_t entries = 0;
    for_each_line(cut(i), cut(i + 1), [&](const char* p, const char* eol) {
      ++block_lines;
      if (first_field(p, eol) != nullptr) ++entries;
    });
    lines[i] = block_lines;
    first[i + 1] = entries;
  }
  for (std::size_t b = 0; b < blocks; ++b) first[b + 1] += first[b];
  const nnz_t nnz = first[blocks];

  std::vector<storage::Span<index_t>> columns(order);
  std::array<index_t*, kMaxOrder> column{};
  for (std::size_t n = 0; n < order; ++n) {
    columns[n] = std::vector<index_t>(nnz);
    column[n] = columns[n].mutable_data();
  }
  storage::Span<value_t> values{std::vector<value_t>(nnz)};
  value_t* const value = values.mutable_data();

  // Pass 2: parse every block into its range; keep its largest indices
  // (for shape inference) and its first error.
  struct BlockError {
    std::size_t line = 0;  // 0-based within the block
    std::string what;
  };
  std::vector<BlockError> errors(blocks);
  std::vector<std::array<index_t, kMaxOrder>> max_index(blocks);
  const bool declared = !shape.empty();
#pragma omp parallel for schedule(dynamic, 1) if (blocks > 1)
  for (std::ptrdiff_t b = 0; b < n_blocks; ++b) {
    const auto i = static_cast<std::size_t>(b);
    std::array<index_t, kMaxOrder> max{};
    std::array<index_t, kMaxOrder> coord{};
    nnz_t t = first[i];
    std::size_t line = 0;
    try {
      for_each_line(cut(i), cut(i + 1), [&](const char* p, const char* eol) {
        if (const char* f = first_field(p, eol)) {
          parse_fields(f, eol, order, coord.data(), value[t]);
          for (std::size_t n = 0; n < order; ++n) {
            if (declared && coord[n] >= shape[n]) {
              fail("index " + std::to_string(coord[n] + std::uint64_t{1}) +
                   " exceeds the declared size " + std::to_string(shape[n]) +
                   " of mode " + std::to_string(n));
            }
            column[n][t] = coord[n];
            max[n] = std::max(max[n], coord[n]);
          }
          ++t;
        }
        ++line;
      });
    } catch (const IoError& e) {
      errors[i] = {line, e.what()};
    }
    max_index[i] = max;
  }

  std::size_t block_line = 1;
  for (std::size_t b = 0; b < blocks; ++b) {
    if (!errors[b].what.empty()) {
      fail("line " + std::to_string(block_line + errors[b].line) + ": " +
           errors[b].what);
    }
    block_line += lines[b];
  }

  if (shape.empty()) {
    shape.assign(order, 1);
    for (const auto& max : max_index) {
      for (std::size_t n = 0; n < order; ++n) {
        shape[n] = std::max(shape[n], static_cast<index_t>(max[n] + 1));
      }
    }
  }
  return CooTensor::from_columns(std::move(shape), std::move(columns),
                                 std::move(values));
}

}  // namespace

CooTensor read_tns(std::istream& in, Shape shape) {
  std::string text;
  std::array<char, 1 << 16> chunk;
  while (in.read(chunk.data(), chunk.size()) || in.gcount() > 0) {
    text.append(chunk.data(), static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) fail("read error in .tns stream");
  return parse_tns(text, std::move(shape));
}

CooTensor read_tns_file(const std::string& path, Shape shape) {
  // Pipes and process substitutions report a zero size, which MappedFile
  // would hand back as an empty arena: only regular files are mapped.
  std::error_code ec;
  if (std::filesystem::is_regular_file(path, ec)) {
    const auto file = storage::MappedFile::open(path);
    return parse_tns({reinterpret_cast<const char*>(file->data()), file->size()},
                     std::move(shape));
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open " + path);
  return read_tns(in, std::move(shape));
}

void write_tns(std::ostream& out, const CooTensor& x) {
  out << "# HyperTensor .tns export: " << x.summary() << '\n';
  for (nnz_t t = 0; t < x.nnz(); ++t) {
    for (std::size_t n = 0; n < x.order(); ++n) {
      out << (x.index(n, t) + 1) << ' ';
    }
    out << x.value(t) << '\n';
  }
}

void write_tns_file(const std::string& path, const CooTensor& x) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open " + path + " for writing");
  write_tns(out, x);
  if (!out) throw IoError("write failed: " + path);
}

}  // namespace ht::tensor
