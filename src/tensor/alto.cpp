#include "tensor/alto.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>

#include "tensor/radix_sort.hpp"
#include "util/error.hpp"

namespace ht::tensor {

namespace {

/// Bits needed to address [0, dim): ceil(log2(dim)), 0 for dim 1.
unsigned mode_bit_width(index_t dim) {
  HT_CHECK_MSG(dim >= 1, "zero-sized mode");
  return static_cast<unsigned>(
      std::bit_width(static_cast<std::uint64_t>(dim) - 1));
}

}  // namespace

unsigned AltoTensor::key_bits_for(const Shape& shape) {
  unsigned total = 0;
  for (index_t dim : shape) total += mode_bit_width(dim);
  if (total > 128) {
    std::ostringstream os;
    os << "ALTO linearization needs " << total << " key bits for shape ";
    for (std::size_t n = 0; n < shape.size(); ++n) {
      os << (n ? "x" : "") << shape[n];
    }
    os << ", which exceeds the 128-bit key budget (two 64-bit words); "
          "this tensor cannot be linearized without truncation — use a "
          "coordinate-based kernel (per-nnz or CSF) instead";
    throw InvalidArgument(os.str());
  }
  return total;
}

bool AltoTensor::fits_key_budget(const Shape& shape) noexcept {
  unsigned total = 0;
  for (index_t dim : shape) {
    if (dim < 1) return false;
    total += static_cast<unsigned>(
        std::bit_width(static_cast<std::uint64_t>(dim) - 1));
  }
  return total <= 128;
}

void AltoTensor::derive_encoding() {
  const std::size_t order = shape.size();
  mode_bits.assign(order, 0);
  for (std::size_t n = 0; n < order; ++n) mode_bits[n] = mode_bit_width(shape[n]);
  key_bits = key_bits_for(shape);

  // Round-robin interleave, LSB -> MSB, increasing mode id within a round;
  // a mode leaves the rotation when its bits are exhausted. pos[n][j] is
  // the key bit carrying index bit j of mode n.
  std::vector<std::vector<std::uint8_t>> pos(order);
  for (std::size_t n = 0; n < order; ++n) pos[n].reserve(mode_bits[n]);
  unsigned next = 0;
  bool assigned = true;
  while (assigned) {
    assigned = false;
    for (std::size_t n = 0; n < order; ++n) {
      if (pos[n].size() < mode_bits[n]) {
        pos[n].push_back(static_cast<std::uint8_t>(next++));
        assigned = true;
      }
    }
  }

  // Collapse each mode's bit positions into maximal contiguous runs within
  // one key word: consecutive index bits whose key bits are consecutive
  // extract with a single shift+mask.
  mode_runs.assign(order, {});
  for (std::size_t n = 0; n < order; ++n) {
    std::size_t j = 0;
    while (j < pos[n].size()) {
      const unsigned word = pos[n][j] / 64;
      std::size_t len = 1;
      while (j + len < pos[n].size() &&
             pos[n][j + len] == pos[n][j] + len &&
             pos[n][j + len] / 64 == word) {
        ++len;
      }
      AltoRun r;
      r.word = static_cast<std::uint8_t>(word);
      r.key_shift = static_cast<std::uint8_t>(pos[n][j] % 64);
      r.index_shift = static_cast<std::uint8_t>(j);
      r.mask = (std::uint64_t{1} << len) - 1;
      mode_runs[n].push_back(r);
      j += len;
    }
  }
}

AltoTensor AltoTensor::build_pattern(const CooTensor& x) {
  AltoTensor a;
  a.shape = x.shape();
  a.derive_encoding();
  const std::size_t order = a.order();
  const nnz_t nnz = x.nnz();
  const bool wide = a.key_bits > 64;

  // Encode every nonzero's coordinates into its key (runs in reverse:
  // word |= ((idx >> index_shift) & mask) << key_shift).
  std::vector<std::uint64_t> lo(nnz, 0);
  std::vector<std::uint64_t> hi(wide ? nnz : 0, 0);
  std::vector<std::span<const index_t>> coord(order);
  for (std::size_t n = 0; n < order; ++n) coord[n] = x.indices(n);
  const auto c_nnz = static_cast<std::ptrdiff_t>(nnz);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t t = 0; t < c_nnz; ++t) {
    const auto s = static_cast<std::size_t>(t);
    std::uint64_t w0 = 0;
    std::uint64_t w1 = 0;
    for (std::size_t n = 0; n < order; ++n) {
      const auto idx = static_cast<std::uint64_t>(coord[n][s]);
      for (const AltoRun& r : a.mode_runs[n]) {
        const std::uint64_t bits = ((idx >> r.index_shift) & r.mask)
                                   << r.key_shift;
        if (r.word == 0) {
          w0 |= bits;
        } else {
          w1 |= bits;
        }
      }
    }
    lo[s] = w0;
    if (wide) hi[s] = w1;
  }

  // Sort slots by key (stable, ordinal tie-break) and gather the key
  // arrays into sorted order; the permutation itself is the gather map.
  std::vector<nnz_t> perm = linearized_order(lo, hi);
  std::vector<std::uint64_t> sorted_lo(nnz);
  std::vector<std::uint64_t> sorted_hi(wide ? nnz : 0);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t t = 0; t < c_nnz; ++t) {
    const auto s = static_cast<std::size_t>(t);
    sorted_lo[s] = lo[perm[s]];
    if (wide) sorted_hi[s] = hi[perm[s]];
  }
  a.key_lo = std::move(sorted_lo);
  a.key_hi = std::move(sorted_hi);
  a.perm = std::move(perm);

  // nnz-balanced partition intervals over the sorted (= linearized-space)
  // order, with per-partition per-mode index ranges. Fixed ~kAltoPartNnz
  // target so the partition table is machine-independent.
  if (nnz > 0) {
    const std::size_t parts =
        static_cast<std::size_t>((nnz + kAltoPartNnz - 1) / kAltoPartNnz);
    std::vector<nnz_t> ptr(parts + 1);
    for (std::size_t p = 0; p <= parts; ++p) {
      ptr[p] = nnz * static_cast<nnz_t>(p) / static_cast<nnz_t>(parts);
    }
    std::vector<index_t> pmin(parts * order,
                              std::numeric_limits<index_t>::max());
    std::vector<index_t> pmax(parts * order, 0);
    const auto c_parts = static_cast<std::ptrdiff_t>(parts);
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t cp = 0; cp < c_parts; ++cp) {
      const auto p = static_cast<std::size_t>(cp);
      index_t* mn = pmin.data() + p * order;
      index_t* mx = pmax.data() + p * order;
      for (nnz_t s = ptr[p]; s < ptr[p + 1]; ++s) {
        for (std::size_t n = 0; n < order; ++n) {
          const index_t i = a.mode_index(n, s);
          mn[n] = std::min(mn[n], i);
          mx[n] = std::max(mx[n], i);
        }
      }
    }
    a.part_ptr = std::move(ptr);
    a.part_min = std::move(pmin);
    a.part_max = std::move(pmax);
  }
  return a;
}

void AltoTensor::attach_values(const CooTensor& x) {
  HT_CHECK_MSG(x.nnz() == perm.size(),
               "value count does not match the ALTO pattern");
  const auto vals = x.values();
  // Gather into a fresh owned buffer, then swap it in (also converts a
  // bundle-loaded view back into the mutable state, mirroring
  // CsfTree::attach_values).
  std::vector<double> gathered(perm.size());
  const auto n = static_cast<std::ptrdiff_t>(perm.size());
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t s = 0; s < n; ++s) {
    gathered[static_cast<std::size_t>(s)] =
        vals[perm[static_cast<std::size_t>(s)]];
  }
  values = std::move(gathered);
}

AltoTensor AltoTensor::build(const CooTensor& x) {
  AltoTensor a = build_pattern(x);
  a.attach_values(x);
  return a;
}

AltoTensor AltoTensor::from_views(Shape shape, storage::Span<std::uint64_t> lo,
                                  storage::Span<std::uint64_t> hi,
                                  storage::Span<nnz_t> perm,
                                  storage::Span<double> values,
                                  storage::Span<nnz_t> part_ptr,
                                  storage::Span<index_t> part_min,
                                  storage::Span<index_t> part_max) {
  AltoTensor a;
  a.shape = std::move(shape);
  a.derive_encoding();
  const nnz_t nnz = lo.size();
  HT_CHECK_MSG(a.key_bits <= 64 ? hi.empty() : hi.size() == nnz,
               "ALTO high key word does not match the shape's key width");
  HT_CHECK_MSG(perm.size() == nnz, "ALTO gather map length mismatch");
  HT_CHECK_MSG(values.empty() || values.size() == nnz,
               "ALTO value length mismatch");
  if (nnz == 0) {
    HT_CHECK_MSG(part_ptr.size() <= 1 && part_min.empty() && part_max.empty(),
                 "ALTO partition table on an empty tensor");
  } else {
    HT_CHECK_MSG(part_ptr.size() >= 2 && part_ptr[0] == 0 &&
                     part_ptr.back() == nnz,
                 "malformed ALTO partition intervals");
    const std::size_t parts = part_ptr.size() - 1;
    HT_CHECK_MSG(part_min.size() == parts * a.order() &&
                     part_max.size() == parts * a.order(),
                 "malformed ALTO partition ranges");
  }
  a.key_lo = std::move(lo);
  a.key_hi = std::move(hi);
  a.perm = std::move(perm);
  a.values = std::move(values);
  a.part_ptr = std::move(part_ptr);
  a.part_min = std::move(part_min);
  a.part_max = std::move(part_max);
  return a;
}

std::size_t AltoTensor::format_bytes() const {
  return key_lo.size() * sizeof(std::uint64_t) +
         key_hi.size() * sizeof(std::uint64_t) + perm.size() * sizeof(nnz_t) +
         values.size() * sizeof(double) + part_ptr.size() * sizeof(nnz_t) +
         (part_min.size() + part_max.size()) * sizeof(index_t);
}

}  // namespace ht::tensor
