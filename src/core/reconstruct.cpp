#include "core/reconstruct.hpp"

#include <cstring>

#include "util/error.hpp"

namespace ht::core {

namespace {

/// In-place contraction of the mode at position `pos` of a dense buffer
/// whose live shape is `dims` (row-major, last fastest) against `row`.
/// After the call the buffer holds the contracted tensor (dims without
/// pos) and `dims` is updated. Summation order is ascending rank index per
/// output element; element (p, q) is written only after every read it
/// depends on, so the contraction is safely in-place.
void contract_at(double* buf, std::vector<index_t>& dims, std::size_t pos,
                 std::span<const double> row) {
  std::size_t lead = 1, trail = 1;
  for (std::size_t j = 0; j < pos; ++j) lead *= dims[j];
  for (std::size_t j = pos + 1; j < dims.size(); ++j) trail *= dims[j];
  const std::size_t r_count = dims[pos];
  for (std::size_t p = 0; p < lead; ++p) {
    const double* in = buf + p * r_count * trail;
    double* out = buf + p * trail;
    for (std::size_t q = 0; q < trail; ++q) {
      double acc = 0.0;
      for (std::size_t r = 0; r < r_count; ++r) {
        acc += row[r] * in[r * trail + q];
      }
      out[q] = acc;
    }
  }
  dims.erase(dims.begin() + static_cast<std::ptrdiff_t>(pos));
}

/// Load the working copy of a slice and its live dims (the remaining modes
/// of `core_shape` after removing `entity`) into the workspace.
double* load_slice(std::span<const double> slice,
                   const tensor::Shape& core_shape, std::size_t entity,
                   ReconstructWorkspace& ws) {
  if (ws.slice.size() < slice.size()) ws.slice.resize(slice.size());
  std::memcpy(ws.slice.data(), slice.data(), slice.size() * sizeof(double));
  ws.dims.clear();
  for (std::size_t n = 0; n < core_shape.size(); ++n) {
    if (n != entity) ws.dims.push_back(core_shape[n]);
  }
  return ws.slice.data();
}

}  // namespace

ReconstructWorkspace& ReconstructWorkspace::tls() {
  thread_local ReconstructWorkspace ws;
  return ws;
}

std::size_t slice_size(const tensor::Shape& core_shape, std::size_t mode) {
  std::size_t s = 1;
  for (std::size_t n = 0; n < core_shape.size(); ++n) {
    if (n != mode) s *= core_shape[n];
  }
  return s;
}

void contract_unfolding(std::span<const double> unfold,
                        std::span<const double> row, std::span<double> out) {
  const std::size_t cols = out.size();
  HT_CHECK(unfold.size() == row.size() * cols);
  for (std::size_t q = 0; q < cols; ++q) out[q] = 0.0;
  for (std::size_t r = 0; r < row.size(); ++r) {
    const double w = row[r];
    const double* u = unfold.data() + r * cols;
    for (std::size_t q = 0; q < cols; ++q) out[q] += w * u[q];
  }
}

void contract_entity(std::span<const double> core,
                     const tensor::Shape& core_shape, std::size_t mode,
                     std::span<const double> row, std::span<double> out) {
  HT_CHECK(mode < core_shape.size());
  HT_CHECK(row.size() == core_shape[mode]);
  std::size_t lead = 1, trail = 1;
  for (std::size_t n = 0; n < mode; ++n) lead *= core_shape[n];
  for (std::size_t n = mode + 1; n < core_shape.size(); ++n) {
    trail *= core_shape[n];
  }
  HT_CHECK(out.size() == lead * trail);
  const std::size_t r_count = row.size();
  // Matches contract_unfolding over the mode-`mode` unfolding bit for bit:
  // every output element accumulates its rank terms in ascending-r order.
  for (std::size_t p = 0; p < lead; ++p) {
    const double* in = core.data() + p * r_count * trail;
    double* o = out.data() + p * trail;
    for (std::size_t q = 0; q < trail; ++q) o[q] = 0.0;
    for (std::size_t r = 0; r < r_count; ++r) {
      const double w = row[r];
      const double* u = in + r * trail;
      for (std::size_t q = 0; q < trail; ++q) o[q] += w * u[q];
    }
  }
}

double score_slice(std::span<const double> slice,
                   const tensor::Shape& core_shape, std::size_t entity,
                   FactorRows rows, ReconstructWorkspace& ws) {
  const std::size_t order = core_shape.size();
  HT_CHECK(entity < order && rows.size() == order);
  double* buf = load_slice(slice, core_shape, entity, ws);
  // Remaining modes in increasing order; dims tracks them positionally.
  std::vector<index_t>& dims = ws.dims;
  std::size_t first_mode = entity == 0 ? 1 : 0;
  if (dims.empty()) return buf[0];  // order-1 model: slice is the value
  // Trailing-first contraction down to the first remaining mode.
  for (std::size_t pos = dims.size(); pos-- > 1;) {
    // Position pos holds the (pos+1)-th remaining mode.
    std::size_t mode = 0;
    for (std::size_t n = 0, seen = 0; n < order; ++n) {
      if (n == entity) continue;
      if (seen++ == pos) { mode = n; break; }
    }
    contract_at(buf, dims, pos, rows[mode]);
  }
  const std::span<const double> row = rows[first_mode];
  double acc = 0.0;
  for (std::size_t r = 0; r < dims[0]; ++r) acc += row[r] * buf[r];
  return acc;
}

void slice_mode_vector(std::span<const double> slice,
                       const tensor::Shape& core_shape, std::size_t entity,
                       std::size_t target, FactorRows rows,
                       ReconstructWorkspace& ws, std::span<double> out) {
  const std::size_t order = core_shape.size();
  HT_CHECK(entity < order && target < order && target != entity);
  HT_CHECK(rows.size() == order);
  HT_CHECK(out.size() == core_shape[target]);
  double* buf = load_slice(slice, core_shape, entity, ws);
  std::vector<index_t>& dims = ws.dims;
  // Remaining modes in increasing order (entity removed).
  std::vector<std::size_t> modes;
  modes.reserve(dims.size());
  for (std::size_t n = 0; n < order; ++n) {
    if (n != entity) modes.push_back(n);
  }
  // Contract every remaining mode except `target`, trailing-first — the
  // same order score_slice uses, so when `target` is the first remaining
  // mode the result is exactly its pre-dot vector.
  for (std::size_t j = modes.size(); j-- > 0;) {
    if (modes[j] == target) continue;
    const std::size_t mode = modes[j];
    // Current position of `mode` in the shrinking dims list.
    std::size_t pos = 0;
    for (std::size_t k = 0; k < j; ++k) {
      if (modes[k] != std::size_t(-1)) ++pos;
    }
    contract_at(buf, dims, pos, rows[mode]);
    modes[j] = std::size_t(-1);  // removed
  }
  for (std::size_t r = 0; r < out.size(); ++r) out[r] = buf[r];
}

double reconstruct_at(const tensor::DenseTensor& core, FactorRows rows,
                      ReconstructWorkspace& ws) {
  const tensor::Shape& shape = core.shape();
  HT_CHECK(rows.size() == shape.size());
  if (shape.empty()) return 0.0;
  const std::size_t s = slice_size(shape, 0);
  if (ws.entity.size() < s) ws.entity.resize(s);
  std::span<double> slice{ws.entity.data(), s};
  // The mode-0 unfolding of the core is its flat buffer.
  contract_unfolding(core.flat(), rows[0], slice);
  return score_slice(slice, shape, /*entity=*/0, rows, ws);
}

}  // namespace ht::core
