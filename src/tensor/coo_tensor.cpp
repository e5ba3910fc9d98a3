#include "tensor/coo_tensor.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace ht::tensor {

CooTensor::CooTensor(Shape shape) : shape_(std::move(shape)) {
  HT_CHECK_MSG(!shape_.empty(), "tensor order must be >= 1");
  for (index_t d : shape_) {
    HT_CHECK_MSG(d > 0, "all mode sizes must be positive");
  }
  indices_.resize(shape_.size());
}

CooTensor CooTensor::from_columns(Shape shape,
                                  std::vector<storage::Span<index_t>> indices,
                                  storage::Span<value_t> values) {
  CooTensor x(std::move(shape));
  HT_CHECK_MSG(indices.size() == x.order(),
               "need one index array per mode");
  for (const auto& idx : indices) {
    HT_CHECK_MSG(idx.size() == values.size(),
                 "index array length does not match value count");
  }
  x.indices_ = std::move(indices);
  x.values_ = std::move(values);
  return x;
}

bool CooTensor::is_view() const {
  if (values_.is_view()) return true;
  for (const auto& idx : indices_) {
    if (idx.is_view()) return true;
  }
  return false;
}

void CooTensor::push_back(std::span<const index_t> idx, value_t value) {
  HT_CHECK_MSG(idx.size() == order(), "coordinate arity mismatch");
  for (std::size_t n = 0; n < order(); ++n) {
    HT_CHECK_MSG(idx[n] < shape_[n], "index " << idx[n] << " out of bounds for"
                                              << " mode " << n << " (size "
                                              << shape_[n] << ")");
    indices_[n].vec().push_back(idx[n]);
  }
  values_.vec().push_back(value);
}

void CooTensor::reserve(nnz_t n) {
  for (auto& v : indices_) v.vec().reserve(n);
  values_.vec().reserve(n);
}

void CooTensor::sort_lexicographic() {
  const nnz_t n = nnz();
  std::vector<nnz_t> perm(n);
  std::iota(perm.begin(), perm.end(), nnz_t{0});
  std::sort(perm.begin(), perm.end(), [&](nnz_t a, nnz_t b) {
    for (std::size_t m = 0; m < order(); ++m) {
      if (indices_[m][a] != indices_[m][b]) {
        return indices_[m][a] < indices_[m][b];
      }
    }
    return false;
  });

  for (std::size_t m = 0; m < order(); ++m) {
    std::vector<index_t> tmp(n);
    for (nnz_t t = 0; t < n; ++t) tmp[t] = indices_[m][perm[t]];
    indices_[m].vec() = std::move(tmp);
  }
  std::vector<value_t> tmpv(n);
  for (nnz_t t = 0; t < n; ++t) tmpv[t] = values_[perm[t]];
  values_.vec() = std::move(tmpv);
}

void CooTensor::sum_duplicates() {
  if (empty()) return;
  sort_lexicographic();
  const nnz_t n = nnz();
  std::vector<value_t>& vals = values_.vec();
  nnz_t w = 0;  // write cursor
  for (nnz_t t = 1; t < n; ++t) {
    bool same = true;
    for (std::size_t m = 0; m < order(); ++m) {
      if (indices_[m][t] != indices_[m][w]) {
        same = false;
        break;
      }
    }
    if (same) {
      vals[w] += vals[t];
    } else {
      ++w;
      for (std::size_t m = 0; m < order(); ++m) {
        indices_[m].vec()[w] = indices_[m][t];
      }
      vals[w] = vals[t];
    }
  }
  const nnz_t kept = w + 1;
  for (std::size_t m = 0; m < order(); ++m) indices_[m].vec().resize(kept);
  vals.resize(kept);
}

double CooTensor::norm2_squared() const {
  double s = 0.0;
  for (value_t v : values_) s += static_cast<double>(v) * v;
  return s;
}

std::vector<nnz_t> CooTensor::slice_nnz(std::size_t mode) const {
  HT_CHECK(mode < order());
  std::vector<nnz_t> hist(shape_[mode], 0);
  for (index_t i : indices_[mode]) ++hist[i];
  return hist;
}

CooTensor CooTensor::select(std::span<const nnz_t> ordinals) const {
  CooTensor out(shape_);
  out.reserve(ordinals.size());
  for (nnz_t t : ordinals) {
    HT_CHECK_MSG(t < nnz(), "ordinal " << t << " out of range");
    for (std::size_t m = 0; m < order(); ++m) {
      out.indices_[m].vec().push_back(indices_[m][t]);
    }
    out.values_.vec().push_back(values_[t]);
  }
  return out;
}

void CooTensor::validate() const {
  for (std::size_t m = 0; m < order(); ++m) {
    HT_CHECK_MSG(indices_[m].size() == values_.size(),
                 "index array length mismatch in mode " << m);
    for (index_t i : indices_[m]) {
      if (i >= shape_[m]) {
        throw InvalidArgument("tensor index out of bounds in mode " +
                              std::to_string(m));
      }
    }
  }
}

std::string CooTensor::summary() const {
  std::ostringstream os;
  os << order() << "-mode ";
  for (std::size_t m = 0; m < order(); ++m) {
    if (m) os << 'x';
    os << shape_[m];
  }
  os << ", " << nnz() << " nnz";
  return os.str();
}

}  // namespace ht::tensor
