#include "dist/partition_plan.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>

#include "core/hosvd.hpp"
#include "hypergraph/models.hpp"
#include "hypergraph/partitioner.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace ht::dist {

namespace {

using hypergraph::Partition;
using hypergraph::PartitionerOptions;
using hypergraph::weight_t;

const char* method_suffix(Method method) {
  switch (method) {
    case Method::kHypergraph:
      return "hp";
    case Method::kRandom:
      return "rd";
    case Method::kBlock:
      return "bl";
  }
  return "??";
}

// Greedy lightest-part placement in shuffled order (the paper's "-rd"
// baselines): random yet weight-balanced. Mirrors partition_random but works
// on a bare weight span so the fine grain does not have to build a model.
std::vector<int> weighted_random_assignment(std::span<const weight_t> weights,
                                            int num_parts,
                                            std::uint64_t seed) {
  std::vector<int> owner(weights.size(), 0);
  if (num_parts == 1) return owner;
  Rng rng(seed);
  std::vector<std::size_t> order(weights.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  std::vector<weight_t> load(num_parts, 0);
  for (std::size_t v : order) {
    const int part = static_cast<int>(
        std::min_element(load.begin(), load.end()) - load.begin());
    owner[v] = part;
    load[part] += weights[v];
  }
  return owner;
}

// Fine grain: one owner per nonzero ordinal.
std::vector<int> partition_nonzeros(const CooTensor& x,
                                    const PlanOptions& options) {
  const nnz_t nnz = x.nnz();
  const int p = options.num_ranks;
  std::vector<int> owner(nnz, 0);
  if (p == 1) return owner;

  switch (options.method) {
    case Method::kHypergraph: {
      const auto model = hypergraph::build_fine_grain_model(x);
      PartitionerOptions po;
      po.num_parts = p;
      po.epsilon = options.epsilon;
      po.seed = options.seed;
      const Partition part = hypergraph::partition_multilevel(model.hg, po);
      for (nnz_t e = 0; e < nnz; ++e) {
        owner[e] = part.part_of[static_cast<std::size_t>(e)];
      }
      break;
    }
    case Method::kRandom: {
      const std::vector<weight_t> unit(nnz, 1);
      owner = weighted_random_assignment(unit, p, options.seed);
      break;
    }
    case Method::kBlock: {
      for (nnz_t e = 0; e < nnz; ++e) {
        owner[e] = static_cast<int>(
            (static_cast<std::uint64_t>(e) * static_cast<std::uint64_t>(p)) /
            nnz);
      }
      break;
    }
  }
  return owner;
}

// Coarse grain: one owner per mode-`mode` slice. Only non-empty rows carry
// weight; empty rows are assigned round-robin afterwards by the caller.
std::vector<int> partition_slices(const CooTensor& x, std::size_t mode,
                                  std::span<const nnz_t> hist,
                                  const PlanOptions& options) {
  const index_t dim = x.dim(mode);
  const int p = options.num_ranks;
  std::vector<int> owner(dim, -1);
  if (p == 1) {
    std::fill(owner.begin(), owner.end(), 0);
    return owner;
  }

  std::vector<index_t> rows;
  std::vector<weight_t> weights;
  for (index_t g = 0; g < dim; ++g) {
    if (hist[g] == 0) continue;
    rows.push_back(g);
    weights.push_back(static_cast<weight_t>(hist[g]));
  }

  switch (options.method) {
    case Method::kHypergraph: {
      const auto model = hypergraph::build_coarse_grain_model(x, mode);
      PartitionerOptions po;
      po.num_parts = p;
      po.epsilon = options.epsilon;
      po.seed = options.seed + 0x9e3779b9ULL * (mode + 1);
      const Partition part = hypergraph::partition_multilevel(model.hg, po);
      HT_CHECK(model.rows.size() == part.part_of.size());
      for (std::size_t v = 0; v < model.rows.size(); ++v) {
        owner[model.rows[v]] = part.part_of[v];
      }
      break;
    }
    case Method::kRandom: {
      const auto assigned = weighted_random_assignment(
          weights, p, options.seed + 0x9e3779b9ULL * (mode + 1));
      for (std::size_t v = 0; v < rows.size(); ++v) owner[rows[v]] = assigned[v];
      break;
    }
    case Method::kBlock: {
      const Partition part = hypergraph::partition_block(weights, p);
      for (std::size_t v = 0; v < rows.size(); ++v) {
        owner[rows[v]] = part.part_of[v];
      }
      break;
    }
  }
  // Deterministic placeholder owners for empty rows (no data, no comm).
  for (index_t g = 0; g < dim; ++g) {
    if (owner[g] < 0) owner[g] = static_cast<int>(g % p);
  }
  return owner;
}

// Accumulating builder for the four per-peer position lists of one mode.
struct CommListBuilder {
  std::map<int, std::vector<std::uint32_t>> factor_send, factor_recv;
  std::map<int, std::vector<std::uint32_t>> fold_send, fold_recv;
};

std::vector<CommList> flatten(std::map<int, std::vector<std::uint32_t>>& m) {
  std::vector<CommList> out;
  out.reserve(m.size());
  for (auto& [peer, positions] : m) {
    out.push_back(CommList{peer, std::move(positions)});
  }
  return out;
}

}  // namespace

std::uint32_t local_row_position(const std::vector<index_t>& local_rows,
                                 index_t g) {
  const auto it = std::lower_bound(local_rows.begin(), local_rows.end(), g);
  HT_CHECK_MSG(it != local_rows.end() && *it == g, "row not local");
  return static_cast<std::uint32_t>(it - local_rows.begin());
}

std::string config_label(Grain grain, Method method) {
  return std::string(grain == Grain::kFine ? "fine" : "coarse") + "-" +
         method_suffix(method);
}

GlobalPlan build_global_plan(const CooTensor& x, const PlanOptions& options) {
  if (options.num_ranks < 1) {
    throw InvalidArgument("num_ranks must be >= 1");
  }
  if (x.nnz() == 0) {
    throw InvalidArgument("cannot partition an empty tensor");
  }

  const std::size_t order = x.order();
  const int p = options.num_ranks;

  GlobalPlan plan;
  plan.grain = options.grain;
  plan.method = options.method;
  plan.num_ranks = p;
  plan.row_owner.resize(order);

  if (options.grain == Grain::kFine) {
    plan.nnz_owner = partition_nonzeros(x, options);
    // Anchor each non-empty row to the rank holding most of its nonzeros
    // (ties to the lowest rank): the owner then always has local data for
    // the row, as paper Algorithm 4 assumes.
    for (std::size_t n = 0; n < order; ++n) {
      const index_t dim = x.dim(n);
      const auto idx = x.indices(n);
      std::vector<std::uint64_t> count(static_cast<std::size_t>(dim) * p, 0);
      for (nnz_t e = 0; e < x.nnz(); ++e) {
        ++count[static_cast<std::size_t>(idx[e]) * p + plan.nnz_owner[e]];
      }
      auto& owner = plan.row_owner[n];
      owner.assign(dim, 0);
      for (index_t g = 0; g < dim; ++g) {
        const std::uint64_t* row = count.data() + static_cast<std::size_t>(g) * p;
        std::uint64_t best = 0;
        int best_rank = static_cast<int>(g % p);  // empty rows: round-robin
        for (int r = 0; r < p; ++r) {
          if (row[r] > best) {
            best = row[r];
            best_rank = r;
          }
        }
        owner[g] = best_rank;
      }
    }
  } else {
    for (std::size_t n = 0; n < order; ++n) {
      const auto hist = x.slice_nnz(n);
      plan.row_owner[n] = partition_slices(x, n, hist, options);
    }
  }
  return plan;
}

std::vector<RankPlan> build_rank_plans(const CooTensor& x,
                                       const GlobalPlan& plan,
                                       const std::vector<index_t>& ranks,
                                       std::uint64_t seed) {
  const std::size_t order = x.order();
  const int p = plan.num_ranks;
  HT_CHECK_MSG(p >= 1, "plan has no ranks");
  HT_CHECK_MSG(plan.row_owner.size() == order, "plan/tensor order mismatch");
  for (std::size_t n = 0; n < order; ++n) {
    HT_CHECK_MSG(plan.row_owner[n].size() == x.dim(n),
                 "plan row_owner size mismatch in mode " << n);
  }
  if (plan.grain == Grain::kFine) {
    HT_CHECK_MSG(plan.nnz_owner.size() == x.nnz(),
                 "plan nnz_owner does not match tensor");
  }
  if (ranks.size() != order) {
    throw InvalidArgument("need one decomposition rank per tensor mode");
  }

  // Global initial factors: a function of (shape, ranks, seed) only, shared
  // with core::hooi so distributed runs start from the same factors. Only
  // the non-empty rows J_n are cut from them: no rank holds another row.
  std::vector<std::vector<index_t>> nonempty(order);
  for (std::size_t n = 0; n < order; ++n) nonempty[n] = x.nonempty_rows(n);
  const std::vector<std::span<const index_t>> keep(nonempty.begin(),
                                                   nonempty.end());
  const std::vector<la::Matrix> init =
      core::random_orthonormal_factors(x.shape(), ranks, seed, keep);

  // Nonzero ordinals per rank, in ascending ordinal order (this preserves
  // the relative nonzero order inside every slice, which keeps local TTMc
  // accumulation order identical to the shared-memory kernel).
  std::vector<std::vector<nnz_t>> ordinals(p);
  if (plan.grain == Grain::kFine) {
    for (nnz_t e = 0; e < x.nnz(); ++e) {
      ordinals[plan.nnz_owner[e]].push_back(e);
    }
  } else {
    std::vector<int> holders;  // owners of this nonzero, deduplicated
    for (nnz_t e = 0; e < x.nnz(); ++e) {
      holders.clear();
      for (std::size_t n = 0; n < order; ++n) {
        const int r = plan.row_owner[n][x.index(n, e)];
        if (std::find(holders.begin(), holders.end(), r) == holders.end()) {
          holders.push_back(r);
          ordinals[r].push_back(e);
        }
      }
    }
  }

  std::vector<RankPlan> rplans(p);
  const auto nil = std::numeric_limits<index_t>::max();
  std::vector<index_t> g2l;  // reused global -> local map

  for (int r = 0; r < p; ++r) {
    RankPlan& rp = rplans[r];
    rp.rank = r;
    rp.modes.resize(order);

    // Local rows per mode: sorted unique global rows among local nonzeros.
    for (std::size_t n = 0; n < order; ++n) {
      auto& lr = rp.modes[n].local_rows;
      lr.reserve(ordinals[r].size());
      for (nnz_t e : ordinals[r]) lr.push_back(x.index(n, e));
      std::sort(lr.begin(), lr.end());
      lr.erase(std::unique(lr.begin(), lr.end()), lr.end());
    }

    // Reindexed local tensor. Modes with no local rows get a padding
    // dimension of 1 (CooTensor requires positive mode sizes); the padding
    // row never appears in any nonzero.
    tensor::Shape local_shape(order);
    for (std::size_t n = 0; n < order; ++n) {
      local_shape[n] = std::max<index_t>(
          1, static_cast<index_t>(rp.modes[n].local_rows.size()));
    }
    rp.local = CooTensor(local_shape);
    rp.local.reserve(ordinals[r].size());
    {
      std::vector<std::vector<index_t>> maps(order);
      for (std::size_t n = 0; n < order; ++n) {
        g2l.assign(x.dim(n), nil);
        const auto& lr = rp.modes[n].local_rows;
        for (std::size_t i = 0; i < lr.size(); ++i) {
          g2l[lr[i]] = static_cast<index_t>(i);
        }
        maps[n] = g2l;
      }
      std::vector<index_t> idx(order);
      for (nnz_t e : ordinals[r]) {
        for (std::size_t n = 0; n < order; ++n) {
          idx[n] = maps[n][x.index(n, e)];
        }
        rp.local.push_back(idx, x.value(e));
      }
    }

    // Initial factor slices, one row per local row. Local rows are
    // non-empty, so each is a row of the compact init: walk both sorted
    // lists together.
    rp.initial_factors.resize(order);
    for (std::size_t n = 0; n < order; ++n) {
      const auto& lr = rp.modes[n].local_rows;
      la::Matrix f(lr.size(), init[n].cols());
      std::size_t k = 0;
      for (std::size_t i = 0; i < lr.size(); ++i) {
        while (nonempty[n][k] != lr[i]) ++k;
        const auto src = init[n].row(k);
        std::copy(src.begin(), src.end(), f.row(i).begin());
      }
      rp.initial_factors[n] = std::move(f);
    }
  }

  // Owned rows and communication lists, mode by mode.
  for (std::size_t n = 0; n < order; ++n) {
    const index_t dim = x.dim(n);
    const auto hist = x.slice_nnz(n);

    // Ranks holding each row, in ascending rank order by construction.
    std::vector<std::vector<int>> holders(dim);
    for (int r = 0; r < p; ++r) {
      for (index_t g : rplans[r].modes[n].local_rows) holders[g].push_back(r);
    }

    std::vector<CommListBuilder> builders(p);
    for (index_t g = 0; g < dim; ++g) {
      if (hist[g] == 0) continue;
      const int o = plan.row_owner[n][g];
      rplans[o].modes[n].owned_rows.push_back(g);
      HT_CHECK_MSG(!holders[g].empty(), "non-empty row with no holder");
      HT_CHECK_MSG(std::binary_search(holders[g].begin(), holders[g].end(), o),
                   "owner of row " << g << " holds no local data (mode " << n
                                   << ")");
      if (holders[g].size() < 2) continue;
      const std::uint32_t pos_o = local_row_position(rplans[o].modes[n].local_rows, g);
      for (int r : holders[g]) {
        if (r == o) continue;
        const std::uint32_t pos_r = local_row_position(rplans[r].modes[n].local_rows, g);
        builders[o].factor_send[r].push_back(pos_o);
        builders[r].factor_recv[o].push_back(pos_r);
        if (plan.grain == Grain::kFine) {
          builders[r].fold_send[o].push_back(pos_r);
          builders[o].fold_recv[r].push_back(pos_o);
        }
      }
    }
    for (int r = 0; r < p; ++r) {
      ModePlan& mp = rplans[r].modes[n];
      mp.factor_send = flatten(builders[r].factor_send);
      mp.factor_recv = flatten(builders[r].factor_recv);
      mp.fold_send = flatten(builders[r].fold_send);
      mp.fold_recv = flatten(builders[r].fold_recv);
    }
  }

  return rplans;
}

}  // namespace ht::dist
