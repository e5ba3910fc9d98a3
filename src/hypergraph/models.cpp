#include "hypergraph/models.hpp"

#include <algorithm>

namespace ht::hypergraph {

using tensor::CooTensor;
using tensor::index_t;
using tensor::nnz_t;

FineGrainModel build_fine_grain_model(const CooTensor& x) {
  HT_CHECK_MSG(x.nnz() < (nnz_t{1} << 32),
               "fine-grain model limited to 2^32 nonzeros");
  constexpr std::size_t kNoNet = static_cast<std::size_t>(-1);
  FineGrainModel model;
  std::vector<std::size_t> net_ptr{0};
  std::vector<vid_t> pins;
  std::vector<std::size_t> slot;

  for (std::size_t mode = 0; mode < x.order(); ++mode) {
    const auto idx = x.indices(mode);
    // Count each row's nonzeros, then turn the count of every row with at
    // least two into the start of its pin range (single-pin nets can't be
    // cut), and scatter the nonzero ordinals in order.
    slot.assign(x.dim(mode), 0);
    for (index_t i : idx) ++slot[i];
    std::size_t end = pins.size();
    for (index_t i = 0; i < x.dim(mode); ++i) {
      if (slot[i] < 2) {
        slot[i] = kNoNet;
        continue;
      }
      const std::size_t begin = end;
      end += slot[i];
      slot[i] = begin;
      net_ptr.push_back(end);
      model.net_mode.push_back(static_cast<std::uint8_t>(mode));
      model.net_index.push_back(i);
    }
    pins.resize(end);
    for (nnz_t t = 0; t < x.nnz(); ++t) {
      std::size_t& s = slot[idx[t]];
      if (s != kNoNet) pins[s++] = static_cast<vid_t>(t);
    }
  }

  model.hg = Hypergraph(x.nnz(), std::move(net_ptr), std::move(pins));
  return model;
}

CoarseGrainModel build_coarse_grain_model(const CooTensor& x,
                                          std::size_t mode,
                                          std::size_t max_net_pins) {
  HT_CHECK(mode < x.order());

  // Compact to non-empty rows; weights are slice nonzero counts (the TTMc
  // work of task t^mode_i).
  std::vector<nnz_t> hist(x.dim(mode), 0);
  for (index_t i : x.indices(mode)) ++hist[i];
  CoarseGrainModel model;
  std::vector<vid_t> compact_of(x.dim(mode), 0);
  std::vector<weight_t> weights;
  for (index_t i = 0; i < x.dim(mode); ++i) {
    if (hist[i] == 0) continue;
    compact_of[i] = static_cast<vid_t>(model.rows.size());
    model.rows.push_back(i);
    weights.push_back(static_cast<weight_t>(hist[i]));
  }

  std::vector<std::size_t> net_ptr{0};
  std::vector<vid_t> pins;
  const auto mode_idx = x.indices(mode);
  std::vector<std::uint64_t> pairs;
  pairs.reserve(x.nnz());
  for (std::size_t t = 0; t < x.order(); ++t) {
    if (t == mode) continue;
    const auto other_idx = x.indices(t);
    // (other row j, compact mode row i) pairs; sort + unique gives deduped
    // pins grouped by j.
    pairs.clear();
    for (nnz_t e = 0; e < x.nnz(); ++e) {
      pairs.push_back((static_cast<std::uint64_t>(other_idx[e]) << 32) |
                      compact_of[mode_idx[e]]);
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

    std::size_t begin = 0;
    while (begin < pairs.size()) {
      const std::uint64_t j = pairs[begin] >> 32;
      std::size_t end = begin;
      while (end < pairs.size() && (pairs[end] >> 32) == j) ++end;
      if (end - begin >= 2 && end - begin <= max_net_pins) {
        for (std::size_t k = begin; k < end; ++k) {
          pins.push_back(static_cast<vid_t>(pairs[k] & 0xffffffffULL));
        }
        net_ptr.push_back(pins.size());
      }
      begin = end;
    }
  }

  model.hg = Hypergraph(model.rows.size(), std::move(net_ptr), std::move(pins),
                        std::move(weights));
  return model;
}

}  // namespace ht::hypergraph
