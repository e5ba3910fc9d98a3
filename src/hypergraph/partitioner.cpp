#include "hypergraph/partitioner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <queue>

#include "util/log.hpp"
#include "util/random.hpp"

namespace ht::hypergraph {

namespace {

// Coarsening stops once a level has at most this many vertices.
constexpr std::size_t kCoarsenTo = 160;
// FM passes per refinement level (a pass that does not lower the cut ends
// the level early).
constexpr int kRefinePasses = 4;
// Greedy-growth bisections tried at the coarsest level; the best cut wins.
constexpr int kInitialTries = 4;
// coarsen_once scores match candidates only through nets of at most this
// many pins: a huge net says little about which pair belongs together and
// would make the scoring quadratic in its size.
constexpr std::size_t kMatchMaxNetSize = 512;

// ---------------------------------------------------------------------------
// Bisection working state: a (possibly coarsened) hypergraph plus 0/1 labels.
// ---------------------------------------------------------------------------

struct Bisection {
  const Hypergraph* h = nullptr;
  std::vector<int> side;               // 0 or 1 per vertex
  std::vector<std::array<std::uint32_t, 2>> pins_in;  // per net
  std::vector<weight_t> gain;          // maintained incrementally
  weight_t cut = 0;
  std::array<weight_t, 2> weight = {0, 0};

  void init_counts() {
    pins_in.assign(h->num_nets(), {0, 0});
    cut = 0;
    weight = {0, 0};
    for (vid_t v = 0; v < h->num_vertices(); ++v) {
      weight[side[v]] += h->vertex_weight(v);
      for (nid_t n : h->vertex_nets(v)) ++pins_in[n][side[v]];
    }
    for (nid_t n = 0; n < h->num_nets(); ++n) {
      if (pins_in[n][0] > 0 && pins_in[n][1] > 0) cut += h->net_cost(n);
    }
    init_gains();
  }

  // gain[v] = cut reduction of moving v; one O(pins) sweep.
  void init_gains() {
    gain.assign(h->num_vertices(), 0);
    for (vid_t v = 0; v < h->num_vertices(); ++v) {
      const int from = side[v];
      weight_t g = 0;
      for (nid_t n : h->vertex_nets(v)) {
        if (pins_in[n][from] == 1) g += h->net_cost(n);       // uncuts
        if (pins_in[n][1 - from] == 0) g -= h->net_cost(n);   // cuts
      }
      gain[v] = g;
    }
  }

  // Apply a move, maintain all gains via the classic FM delta rules, and
  // invoke touch(u) for every vertex whose gain changed (so the caller can
  // refresh its priority queue). Only nets crossing the critical 0/1/2 pin
  // counts propagate updates, which keeps passes near-linear.
  template <typename Touch>
  void apply_move(vid_t v, Touch&& touch) {
    const int from = side[v];
    const int to = 1 - from;
    const weight_t wv = h->vertex_weight(v);

    for (nid_t n : h->vertex_nets(v)) {
      auto& c = pins_in[n];
      const weight_t w = h->net_cost(n);
      const auto pins = h->net_pins(n);

      // Before-move critical cases.
      if (c[to] == 0) {
        // Net becomes cut: every other pin (all on `from`) gains +w.
        cut += w;
        for (vid_t u : pins) {
          if (u != v) {
            gain[u] += w;
            touch(u);
          }
        }
      } else if (c[to] == 1) {
        // The lone `to`-side pin loses its uncut bonus.
        for (vid_t u : pins) {
          if (u != v && side[u] == to) {
            gain[u] -= w;
            touch(u);
          }
        }
      }

      --c[from];
      ++c[to];

      // After-move critical cases.
      if (c[from] == 0) {
        // Net uncut now: every pin (all on `to`) loses w for re-cutting.
        cut -= w;
        for (vid_t u : pins) {
          if (u != v) {
            gain[u] -= w;
            touch(u);
          }
        }
      } else if (c[from] == 1) {
        // The lone remaining `from`-side pin could uncut the net.
        for (vid_t u : pins) {
          if (u != v && side[u] == from) {
            gain[u] += w;
            touch(u);
          }
        }
      }
    }
    weight[from] -= wv;
    weight[to] += wv;
    side[v] = to;
    // v's own gain flips sign (recompute lazily: exact value only matters
    // if v is unlocked later, which plain FM passes never do).
    gain[v] = -gain[v];
  }

  void apply_move(vid_t v) {
    apply_move(v, [](vid_t) {});
  }
};

// ---------------------------------------------------------------------------
// FM refinement (one bisection level).
// ---------------------------------------------------------------------------

// Lazy max-heap entry.
struct HeapEntry {
  weight_t gain;
  vid_t v;
  bool operator<(const HeapEntry& o) const { return gain < o.gain; }
};

void fm_pass(Bisection& b, std::array<weight_t, 2> max_weight) {
  const Hypergraph& h = *b.h;
  const std::size_t nv = h.num_vertices();

  b.init_gains();  // rollbacks of earlier passes leave gains stale

  // Boundary vertices: touching at least one cut net (or everything for very
  // small graphs, so FM can also fix imbalance).
  std::vector<char> in_queue(nv, 0);
  std::priority_queue<HeapEntry> heap;
  auto push = [&](vid_t v) {
    heap.push({b.gain[v], v});
    in_queue[v] = 1;
  };
  if (nv <= 64) {
    for (vid_t v = 0; v < nv; ++v) push(v);
  } else {
    for (nid_t n = 0; n < h.num_nets(); ++n) {
      if (b.pins_in[n][0] > 0 && b.pins_in[n][1] > 0) {
        for (vid_t v : h.net_pins(n)) {
          if (!in_queue[v]) push(v);
        }
      }
    }
  }

  std::vector<char> moved(nv, 0);
  std::vector<vid_t> move_sequence;
  weight_t best_cut = b.cut;
  std::size_t best_prefix = 0;

  // Early exit after a long run of non-improving moves: full FM sweeps on
  // fine levels cost far more than they recover.
  const std::size_t stall_limit = std::max<std::size_t>(128, nv / 64);
  std::size_t since_best = 0;

  while (!heap.empty() && since_best < stall_limit) {
    const auto [g, v] = heap.top();
    heap.pop();
    if (moved[v]) continue;
    if (g != b.gain[v]) continue;  // stale entry; a fresh one is enqueued
    const int to = 1 - b.side[v];
    if (b.weight[to] + h.vertex_weight(v) > max_weight[to]) continue;

    moved[v] = 1;
    b.apply_move(v, [&](vid_t u) {
      if (!moved[u]) heap.push({b.gain[u], u});
    });
    move_sequence.push_back(v);
    if (b.cut < best_cut) {
      best_cut = b.cut;
      best_prefix = move_sequence.size();
      since_best = 0;
    } else {
      ++since_best;
    }
  }

  // Roll back moves beyond the best prefix (gains go stale; the next pass
  // re-initializes them).
  for (std::size_t i = move_sequence.size(); i-- > best_prefix;) {
    b.apply_move(move_sequence[i]);
  }
}

// ---------------------------------------------------------------------------
// Initial bisection: greedy growth from a random seed + balance fixup.
// ---------------------------------------------------------------------------

void greedy_grow(Bisection& b, weight_t target0, ht::Rng& rng) {
  const Hypergraph& h = *b.h;
  const std::size_t nv = h.num_vertices();
  b.side.assign(nv, 1);

  std::vector<char> visited(nv, 0);
  std::queue<vid_t> frontier;
  weight_t grown = 0;

  while (grown < target0) {
    if (frontier.empty()) {
      // Find an unvisited seed.
      vid_t seed = static_cast<vid_t>(rng.below(nv));
      std::size_t probes = 0;
      while (visited[seed] && probes++ < nv) {
        seed = (seed + 1) % nv;
      }
      if (visited[seed]) break;
      frontier.push(seed);
      visited[seed] = 1;
    }
    const vid_t v = frontier.front();
    frontier.pop();
    b.side[v] = 0;
    grown += h.vertex_weight(v);
    for (nid_t n : h.vertex_nets(v)) {
      const auto pins = h.net_pins(n);
      if (pins.size() > 256) continue;  // don't flood through huge nets
      for (vid_t u : pins) {
        if (!visited[u]) {
          visited[u] = 1;
          frontier.push(u);
        }
      }
    }
  }
  b.init_counts();
}

// Move lightest-impact vertices until both sides satisfy max weights.
void rebalance(Bisection& b, std::array<weight_t, 2> max_weight) {
  const Hypergraph& h = *b.h;
  const std::size_t nv = h.num_vertices();
  for (int iter = 0; iter < 4; ++iter) {
    int over = -1;
    if (b.weight[0] > max_weight[0]) over = 0;
    if (b.weight[1] > max_weight[1]) over = 1;
    if (over < 0) return;

    b.init_gains();
    // Max-heap by gain among vertices on the overloaded side.
    std::priority_queue<HeapEntry> heap;
    for (vid_t v = 0; v < nv; ++v) {
      if (b.side[v] == over) heap.push({b.gain[v], v});
    }
    while (b.weight[over] > max_weight[over] && !heap.empty()) {
      const auto [g, v] = heap.top();
      heap.pop();
      if (b.side[v] != over) continue;
      b.apply_move(v);
    }
  }
}

// ---------------------------------------------------------------------------
// Coarsening: heavy-connectivity matching.
// ---------------------------------------------------------------------------

struct CoarseLevel {
  Hypergraph coarse;
  std::vector<vid_t> fine_to_coarse;
};

CoarseLevel coarsen_once(const Hypergraph& h, ht::Rng& rng) {
  const std::size_t nv = h.num_vertices();
  std::vector<vid_t> match(nv, static_cast<vid_t>(-1));

  std::vector<vid_t> order(nv);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = nv; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }

  // Scratch accumulators for connectivity scores.
  std::vector<double> score(nv, 0.0);
  std::vector<vid_t> touched;

  for (vid_t v : order) {
    if (match[v] != static_cast<vid_t>(-1)) continue;
    touched.clear();
    for (nid_t n : h.vertex_nets(v)) {
      const auto pins = h.net_pins(n);
      if (pins.size() > kMatchMaxNetSize || pins.size() < 2) continue;
      const double w =
          static_cast<double>(h.net_cost(n)) / static_cast<double>(pins.size() - 1);
      for (vid_t u : pins) {
        if (u == v || match[u] != static_cast<vid_t>(-1)) continue;
        if (score[u] == 0.0) touched.push_back(u);
        score[u] += w;
      }
    }
    vid_t best = static_cast<vid_t>(-1);
    double best_score = 0.0;
    for (vid_t u : touched) {
      if (score[u] > best_score) {
        best_score = score[u];
        best = u;
      }
      score[u] = 0.0;
    }
    if (best == static_cast<vid_t>(-1)) {
      // No candidate through small nets (vertex only touches huge nets):
      // sample a random co-pin so the coarsening keeps shrinking.
      const auto nets = h.vertex_nets(v);
      for (std::size_t attempt = 0; attempt < 4 && !nets.empty(); ++attempt) {
        const nid_t n = nets[rng.below(nets.size())];
        const auto pins = h.net_pins(n);
        const vid_t u = pins[rng.below(pins.size())];
        if (u != v && match[u] == static_cast<vid_t>(-1)) {
          best = u;
          break;
        }
      }
    }
    if (best != static_cast<vid_t>(-1)) {
      match[v] = best;
      match[best] = v;
    }
  }

  // Assign coarse ids.
  CoarseLevel out;
  out.fine_to_coarse.assign(nv, 0);
  vid_t nc = 0;
  for (vid_t v = 0; v < nv; ++v) {
    if (match[v] == static_cast<vid_t>(-1) || match[v] > v) {
      out.fine_to_coarse[v] = nc++;
    }
  }
  for (vid_t v = 0; v < nv; ++v) {
    if (match[v] != static_cast<vid_t>(-1) && match[v] < v) {
      out.fine_to_coarse[v] = out.fine_to_coarse[match[v]];
    }
  }

  // Coarse vertex weights.
  std::vector<weight_t> cw(nc, 0);
  for (vid_t v = 0; v < nv; ++v) {
    cw[out.fine_to_coarse[v]] += h.vertex_weight(v);
  }

  // Coarse nets: translate pins, dedupe, drop singletons.
  std::vector<std::vector<vid_t>> cnets;
  std::vector<weight_t> ccosts;
  cnets.reserve(h.num_nets());
  std::vector<vid_t> buf;
  for (nid_t n = 0; n < h.num_nets(); ++n) {
    const auto pins = h.net_pins(n);
    buf.clear();
    for (vid_t v : pins) buf.push_back(out.fine_to_coarse[v]);
    std::sort(buf.begin(), buf.end());
    buf.erase(std::unique(buf.begin(), buf.end()), buf.end());
    if (buf.size() >= 2) {
      cnets.push_back(buf);
      ccosts.push_back(h.net_cost(n));
    }
  }

  out.coarse = Hypergraph::build(nc, cnets, std::move(cw), std::move(ccosts));
  return out;
}

// ---------------------------------------------------------------------------
// One multilevel bisection: labels[v] in {0, 1}; side 0 targets `fraction0`
// of the total weight.
// ---------------------------------------------------------------------------

std::vector<int> multilevel_bisect(const Hypergraph& h, double fraction0,
                                   double epsilon, ht::Rng& rng) {
  const weight_t total = h.total_vertex_weight();
  const auto target0 = static_cast<weight_t>(
      std::llround(static_cast<double>(total) * fraction0));
  const std::array<weight_t, 2> max_weight = {
      static_cast<weight_t>(std::ceil((1.0 + epsilon) * target0)),
      static_cast<weight_t>(std::ceil((1.0 + epsilon) * (total - target0)))};

  // Coarsening chain.
  std::vector<CoarseLevel> levels;
  const Hypergraph* current = &h;
  while (current->num_vertices() > kCoarsenTo) {
    CoarseLevel level = coarsen_once(*current, rng);
    const double shrink = static_cast<double>(level.coarse.num_vertices()) /
                          static_cast<double>(current->num_vertices());
    if (shrink > 0.85) break;  // matching stalled
    levels.push_back(std::move(level));
    current = &levels.back().coarse;
  }

  // Initial bisection portfolio at the coarsest level.
  Bisection best;
  best.h = current;
  bool have_best = false;
  for (int attempt = 0; attempt < kInitialTries; ++attempt) {
    Bisection b;
    b.h = current;
    greedy_grow(b, target0, rng);
    rebalance(b, max_weight);
    for (int pass = 0; pass < kRefinePasses; ++pass) {
      const weight_t before = b.cut;
      fm_pass(b, max_weight);
      if (b.cut >= before) break;
    }
    if (!have_best || b.cut < best.cut) {
      best = std::move(b);
      have_best = true;
    }
  }

  // Uncoarsen with refinement at each level.
  std::vector<int> side = std::move(best.side);
  for (std::size_t l = levels.size(); l-- > 0;) {
    const Hypergraph& fine = (l == 0) ? h : levels[l - 1].coarse;
    std::vector<int> fine_side(fine.num_vertices());
    for (vid_t v = 0; v < fine.num_vertices(); ++v) {
      fine_side[v] = side[levels[l].fine_to_coarse[v]];
    }
    Bisection b;
    b.h = &fine;
    b.side = std::move(fine_side);
    b.init_counts();
    rebalance(b, max_weight);
    for (int pass = 0; pass < kRefinePasses; ++pass) {
      const weight_t before = b.cut;
      fm_pass(b, max_weight);
      if (b.cut >= before) break;
    }
    side = std::move(b.side);
  }
  return side;
}

// Induced sub-hypergraph of the vertices with the given side label.
// Net splitting: a cut net contributes its local pins to both sides.
struct SubHypergraph {
  Hypergraph h;
  std::vector<vid_t> to_parent;
};

SubHypergraph induce(const Hypergraph& h, const std::vector<int>& side,
                     int which) {
  SubHypergraph out;
  std::vector<vid_t> to_sub(h.num_vertices(), static_cast<vid_t>(-1));
  std::vector<weight_t> weights;
  for (vid_t v = 0; v < h.num_vertices(); ++v) {
    if (side[v] == which) {
      to_sub[v] = static_cast<vid_t>(out.to_parent.size());
      out.to_parent.push_back(v);
      weights.push_back(h.vertex_weight(v));
    }
  }
  std::vector<std::vector<vid_t>> nets;
  std::vector<weight_t> costs;
  std::vector<vid_t> buf;
  for (nid_t n = 0; n < h.num_nets(); ++n) {
    buf.clear();
    for (vid_t v : h.net_pins(n)) {
      if (to_sub[v] != static_cast<vid_t>(-1)) buf.push_back(to_sub[v]);
    }
    if (buf.size() >= 2) {
      nets.push_back(buf);
      costs.push_back(h.net_cost(n));
    }
  }
  out.h = Hypergraph::build(out.to_parent.size(), nets, std::move(weights),
                            std::move(costs));
  return out;
}

void recurse(const Hypergraph& h, int k, int part_offset, double epsilon,
             ht::Rng& rng, const std::vector<vid_t>& to_root,
             std::vector<int>& result) {
  if (k == 1 || h.num_vertices() == 0) {
    for (vid_t v = 0; v < h.num_vertices(); ++v) {
      result[to_root[v]] = part_offset;
    }
    return;
  }
  const int k0 = (k + 1) / 2;
  const double fraction0 = static_cast<double>(k0) / k;
  const std::vector<int> side = multilevel_bisect(h, fraction0, epsilon, rng);

  for (int which = 0; which < 2; ++which) {
    SubHypergraph sub = induce(h, side, which);
    std::vector<vid_t> sub_to_root(sub.to_parent.size());
    for (std::size_t i = 0; i < sub.to_parent.size(); ++i) {
      sub_to_root[i] = to_root[sub.to_parent[i]];
    }
    recurse(sub.h, which == 0 ? k0 : k - k0,
            which == 0 ? part_offset : part_offset + k0, epsilon, rng,
            sub_to_root, result);
  }
}

}  // namespace

Partition partition_multilevel(const Hypergraph& h,
                               const PartitionerOptions& options) {
  HT_CHECK_MSG(options.num_parts >= 1, "num_parts must be >= 1");
  Partition p;
  p.num_parts = options.num_parts;
  p.part_of.assign(h.num_vertices(), 0);
  if (options.num_parts == 1 || h.num_vertices() == 0) return p;

  // Per-level epsilon so the final k-way imbalance lands near epsilon.
  const int levels = std::max(
      1, static_cast<int>(std::ceil(std::log2(options.num_parts))));
  const double eps_level =
      std::pow(1.0 + options.epsilon, 1.0 / levels) - 1.0;

  ht::Rng rng(options.seed);
  std::vector<vid_t> identity(h.num_vertices());
  std::iota(identity.begin(), identity.end(), 0);
  recurse(h, options.num_parts, 0, eps_level, rng, identity, p.part_of);
  return p;
}

Partition partition_random(const Hypergraph& h, int num_parts,
                           std::uint64_t seed) {
  HT_CHECK(num_parts >= 1);
  Partition p;
  p.num_parts = num_parts;
  p.part_of.assign(h.num_vertices(), 0);
  if (num_parts == 1) return p;

  ht::Rng rng(seed);
  std::vector<vid_t> order(h.num_vertices());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  // Greedy lightest-part placement in shuffled order: random yet balanced,
  // matching the paper's description of the "-rd" partitions.
  std::vector<weight_t> load(num_parts, 0);
  for (vid_t v : order) {
    const int part = static_cast<int>(
        std::min_element(load.begin(), load.end()) - load.begin());
    p.part_of[v] = part;
    load[part] += h.vertex_weight(v);
  }
  return p;
}

Partition partition_block(std::span<const weight_t> weights, int num_parts) {
  HT_CHECK(num_parts >= 1);
  Partition p;
  p.num_parts = num_parts;
  p.part_of.assign(weights.size(), 0);

  weight_t total = 0;
  for (weight_t w : weights) total += w;
  // Greedy block chopping: each block targets the average of the *remaining*
  // weight; a vertex joins the current block only if that overshoots the
  // target by less than leaving the block short.
  weight_t remaining = total;
  int part = 0;
  weight_t in_part = 0;
  for (std::size_t v = 0; v < weights.size(); ++v) {
    const int parts_left = num_parts - part;
    const double target = static_cast<double>(remaining + in_part) /
                          std::max(1, parts_left);
    const double overshoot = in_part + weights[v] - target;
    const double undershoot = target - in_part;
    if (in_part > 0 && overshoot > undershoot && part + 1 < num_parts) {
      ++part;
      in_part = 0;
      // Recompute nothing: remaining already excludes previous vertices.
    }
    p.part_of[v] = part;
    in_part += weights[v];
    remaining -= weights[v];
  }
  return p;
}

}  // namespace ht::hypergraph
