#include "tensor/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/random.hpp"

namespace ht::tensor {

namespace {

// Truncated power-law sampler over [0, n): p(i) ~ 1/(i+1)^theta, via the
// continuous inverse-CDF approximation. theta = 0 degenerates to uniform.
class ZipfSampler {
 public:
  ZipfSampler(index_t n, double theta) : n_(n), theta_(theta) {
    HT_CHECK(n > 0);
    if (theta_ > 0.0 && std::abs(theta_ - 1.0) > 1e-9) {
      const double e = 1.0 - theta_;
      pow_range_ = std::pow(static_cast<double>(n_) + 1.0, e) - 1.0;
    }
    // Bijective decorrelating shuffle i -> (a * i + b) mod n with gcd(a,n)=1.
    mult_ = 0;
    for (std::uint64_t a = (2 * static_cast<std::uint64_t>(n) / 3) | 1;; a += 2) {
      if (std::gcd(a, static_cast<std::uint64_t>(n)) == 1) {
        mult_ = a;
        break;
      }
    }
    offset_ = static_cast<std::uint64_t>(n) / 7;
  }

  index_t operator()(Rng& rng) const {
    index_t raw;
    if (theta_ <= 0.0) {
      raw = static_cast<index_t>(rng.below(n_));
    } else if (std::abs(theta_ - 1.0) <= 1e-9) {
      const double x = std::exp(rng.uniform() * std::log(n_ + 1.0));
      raw = static_cast<index_t>(std::min<double>(x - 1.0, n_ - 1.0));
    } else {
      const double e = 1.0 - theta_;
      const double x = std::pow(1.0 + rng.uniform() * pow_range_, 1.0 / e);
      raw = static_cast<index_t>(std::min<double>(x - 1.0, n_ - 1.0));
    }
    return static_cast<index_t>(
        (static_cast<std::uint64_t>(raw) * mult_ + offset_) % n_);
  }

 private:
  index_t n_;
  double theta_;
  double pow_range_ = 0.0;
  std::uint64_t mult_ = 1;
  std::uint64_t offset_ = 0;
};

CooTensor generate_coordinates(const Shape& shape, nnz_t target_nnz,
                               const std::vector<double>& theta,
                               std::uint64_t seed,
                               std::size_t communities = 1,
                               double affinity = 0.0) {
  HT_CHECK_MSG(theta.size() == shape.size(), "theta arity mismatch");
  std::uint64_t capacity = 1;
  bool overflow = false;
  for (index_t d : shape) {
    if (capacity > (std::uint64_t{1} << 62) / d) {
      overflow = true;
      break;
    }
    capacity *= d;
  }
  HT_CHECK_MSG(overflow || target_nnz <= capacity,
               "requested more nonzeros than tensor positions");

  std::vector<ZipfSampler> samplers;
  samplers.reserve(shape.size());
  for (std::size_t n = 0; n < shape.size(); ++n) {
    samplers.emplace_back(shape[n], theta[n]);
  }

  // Per-community band samplers (communities > 1): community c draws from
  // the contiguous band [c*band, (c+1)*band) of each mode, Zipf within it.
  const std::size_t nc =
      std::max<std::size_t>(1, std::min<std::size_t>(communities,
                                                     *std::min_element(
                                                         shape.begin(),
                                                         shape.end())));
  std::vector<std::vector<ZipfSampler>> band_samplers;  // [mode][community]
  std::vector<std::vector<index_t>> band_offset(shape.size());
  if (nc > 1) {
    band_samplers.resize(shape.size());
    for (std::size_t n = 0; n < shape.size(); ++n) {
      const index_t band = shape[n] / static_cast<index_t>(nc);
      for (std::size_t c = 0; c < nc; ++c) {
        const index_t begin = static_cast<index_t>(c) * band;
        const index_t width =
            (c + 1 == nc) ? shape[n] - begin : band;  // last band takes slack
        band_samplers[n].emplace_back(std::max<index_t>(1, width), theta[n]);
        band_offset[n].push_back(begin);
      }
    }
  }

  Rng rng(seed);
  CooTensor x(shape);
  x.reserve(target_nnz + target_nnz / 8);
  std::vector<index_t> coord(shape.size());

  // Draw, dedupe, and top up until the target is met (or progress stalls,
  // which can happen for extremely skewed tiny tensors).
  int stalls = 0;
  while (x.nnz() < target_nnz && stalls < 8) {
    const nnz_t missing = target_nnz - x.nnz();
    const nnz_t batch = missing + missing / 4 + 16;
    for (nnz_t t = 0; t < batch; ++t) {
      if (nc > 1 && rng.uniform() < affinity) {
        const std::size_t c = rng.below(nc);
        for (std::size_t n = 0; n < shape.size(); ++n) {
          // Per-mode popularity mixing: even community-local activity hits
          // the globally popular items part of the time (the top tag is the
          // top tag in every community) — this is what creates the giant
          // indivisible slices behind the paper's coarse-grain imbalance.
          if (rng.uniform() < 0.35) {
            coord[n] = samplers[n](rng);
          } else {
            coord[n] = band_offset[n][c] + band_samplers[n][c](rng);
          }
        }
      } else {
        for (std::size_t n = 0; n < shape.size(); ++n) {
          coord[n] = samplers[n](rng);
        }
      }
      x.push_back(coord, 1.0);
    }
    const nnz_t before = x.nnz();
    x.sum_duplicates();
    if (x.nnz() >= before - batch / 2 && x.nnz() < target_nnz) {
      // fine, keep topping up
    }
    if (x.nnz() == before) ++stalls;
  }
  if (x.nnz() > target_nnz) {
    std::vector<nnz_t> keep(target_nnz);
    std::iota(keep.begin(), keep.end(), nnz_t{0});
    x = x.select(keep);
  }
  if (x.nnz() < target_nnz) {
    HT_LOG_WARN("generator stalled at " << x.nnz() << " / " << target_nnz
                                        << " nonzeros for shape "
                                        << x.summary());
  }
  return x;
}

}  // namespace

CooTensor random_uniform(const Shape& shape, nnz_t target_nnz,
                         std::uint64_t seed) {
  std::vector<double> theta(shape.size(), 0.0);
  CooTensor x = generate_coordinates(shape, target_nnz, theta, seed);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (auto& v : x.values()) v = rng.uniform();
  return x;
}

CooTensor random_zipf(const Shape& shape, nnz_t target_nnz,
                      const std::vector<double>& theta, std::uint64_t seed) {
  CooTensor x = generate_coordinates(shape, target_nnz, theta, seed);
  Rng rng(seed ^ 0xdeadbeefcafef00dULL);
  for (auto& v : x.values()) v = rng.uniform();
  return x;
}

CooTensor random_zipf_communities(const Shape& shape, nnz_t target_nnz,
                                  const std::vector<double>& theta,
                                  std::size_t communities, double affinity,
                                  std::uint64_t seed) {
  HT_CHECK_MSG(affinity >= 0.0 && affinity <= 1.0, "affinity must be in [0,1]");
  CooTensor x = generate_coordinates(shape, target_nnz, theta, seed,
                                     communities, affinity);
  Rng rng(seed ^ 0xdeadbeefcafef00dULL);
  for (auto& v : x.values()) v = rng.uniform();
  return x;
}

CooTensor random_fibered(const Shape& shape, nnz_t num_fibers,
                         index_t fiber_len, std::uint64_t seed) {
  HT_CHECK_MSG(shape.size() >= 2, "fibered tensors need at least two modes");
  HT_CHECK_MSG(fiber_len >= 1 && fiber_len <= shape.back(),
               "fiber_len must be in [1, last mode size]");
  const std::size_t order = shape.size();
  Rng rng(seed ^ 0xf1be7f1be7f1be70ULL);
  CooTensor x(shape);
  x.reserve(num_fibers * fiber_len);
  std::vector<index_t> coord(order);
  for (nnz_t f = 0; f < num_fibers; ++f) {
    for (std::size_t n = 0; n + 1 < order; ++n) {
      coord[n] = static_cast<index_t>(rng.below(shape[n]));
    }
    const auto start =
        static_cast<index_t>(rng.below(shape.back() - fiber_len + 1));
    for (index_t k = 0; k < fiber_len; ++k) {
      coord[order - 1] = start + k;
      x.push_back(coord, rng.uniform());
    }
  }
  x.sum_duplicates();
  return x;
}

void plant_low_rank_values(CooTensor& x, std::size_t cp_rank,
                           double noise_level, std::uint64_t seed) {
  HT_CHECK(cp_rank >= 1);
  Rng rng(seed);
  // Random CP factors, one I_n x cp_rank matrix per mode. Component weights
  // decay like a power law so every matricization has a decaying singular
  // spectrum — the signature of real-world data, and what lets iterative
  // TRSVD solvers converge in a few steps (paper: "TRSVD converged in less
  // than 5 iterations").
  std::vector<la::Matrix> factors;
  factors.reserve(x.order());
  for (std::size_t n = 0; n < x.order(); ++n) {
    la::Matrix f(x.dim(n), cp_rank);
    for (auto& v : f.flat()) v = rng.uniform(0.2, 1.0);
    factors.push_back(std::move(f));
  }
  std::vector<double> component_weight(cp_rank);
  for (std::size_t r = 0; r < cp_rank; ++r) {
    component_weight[r] = 1.0 / std::pow(1.0 + static_cast<double>(r), 1.2);
  }
  for (nnz_t t = 0; t < x.nnz(); ++t) {
    double v = 0.0;
    for (std::size_t r = 0; r < cp_rank; ++r) {
      double prod = component_weight[r];
      for (std::size_t n = 0; n < x.order(); ++n) {
        prod *= factors[n](x.index(n, t), r);
      }
      v += prod;
    }
    x.values()[t] = v + noise_level * rng.normal();
  }
}

LowRankTensor random_low_rank(const Shape& shape, nnz_t target_nnz,
                              const Shape& ranks, double relative_noise,
                              std::uint64_t seed) {
  HT_CHECK_MSG(ranks.size() == shape.size(), "need one rank per mode");
  for (std::size_t n = 0; n < shape.size(); ++n) {
    HT_CHECK_MSG(ranks[n] >= 1 && ranks[n] <= shape[n],
                 "planted rank out of range");
  }
  HT_CHECK_MSG(relative_noise >= 0.0, "relative_noise must be non-negative");

  // Uniform coordinates: completion recoverability needs every row of every
  // mode observed with roughly equal probability (a Zipf mask leaves cold
  // rows under-determined, which is a property of the mask, not the solver).
  const std::vector<double> theta(shape.size(), 0.0);
  LowRankTensor out;
  out.tensor = generate_coordinates(shape, target_nnz, theta, seed);

  // Gaussian core and factor entries give a generic (well-conditioned)
  // Tucker model with no structure beyond its rank.
  Rng rng(seed ^ 0x70c4e2d1a5f0b37bULL);
  std::vector<la::Matrix> factors;
  factors.reserve(shape.size());
  for (std::size_t n = 0; n < shape.size(); ++n) {
    la::Matrix f(shape[n], ranks[n]);
    for (auto& v : f.flat()) v = rng.normal();
    factors.push_back(std::move(f));
  }
  std::size_t core_len = 1;
  for (const index_t r : ranks) core_len *= r;
  std::vector<double> core(core_len);
  for (auto& v : core) v = rng.normal();

  // Evaluate the model at every observed coordinate (flat core walk with
  // digit decoding — generator-side code, clarity over speed).
  const nnz_t nnz = out.tensor.nnz();
  out.clean.resize(nnz);
  double sum_sq = 0.0;
  for (nnz_t t = 0; t < nnz; ++t) {
    double v = 0.0;
    for (std::size_t c = 0; c < core_len; ++c) {
      double prod = core[c];
      std::size_t rem = c;
      for (std::size_t n = shape.size(); n-- > 0;) {
        const std::size_t r = rem % ranks[n];
        rem /= ranks[n];
        prod *= factors[n](out.tensor.index(n, t), r);
      }
      v += prod;
    }
    out.clean[t] = v;
    sum_sq += v * v;
  }

  // Normalize the clean signal to unit RMS over the observed entries, so
  // the additive noise sigma IS the relative noise level and the held-out
  // noise floor is exactly `relative_noise`.
  const double rms = std::sqrt(sum_sq / std::max<nnz_t>(nnz, 1));
  HT_CHECK_MSG(rms > 0.0, "planted signal degenerated to zero");
  const double inv_rms = 1.0 / rms;
  out.noise_sigma = relative_noise;
  auto values = out.tensor.values();
  for (nnz_t t = 0; t < nnz; ++t) {
    out.clean[t] *= inv_rms;
    values[t] = out.clean[t] + relative_noise * rng.normal();
  }
  out.factors = std::move(factors);
  return out;
}

PresetSpec paper_preset(const std::string& name, double scale) {
  HT_CHECK_MSG(scale > 0, "scale must be positive");

  // Paper Table I shapes; scaled_dim keeps tiny modes intact (NELL's
  // 301-wide relation mode is part of its character) while dividing large
  // modes by 32/scale. Mode sizes shrink harder than nonzero counts so the
  // nonzeros-per-slice ratio stays closer to the paper's (which sets the
  // TTMc : TRSVD work balance).
  auto scaled_dim = [&](double orig) -> index_t {
    const double shrink = 32.0 / scale;
    const double d = std::max(std::min(orig, 32.0), orig / shrink);
    return static_cast<index_t>(std::max(2.0, std::round(d)));
  };
  auto scaled_nnz = [&](double /*orig*/) -> nnz_t {
    return static_cast<nnz_t>(400000.0 * scale);
  };

  PresetSpec s;
  s.name = name;
  if (name == "netflix") {
    s.shape = {scaled_dim(480e3), scaled_dim(17e3), scaled_dim(2e3)};
    s.nnz = scaled_nnz(100e6);
    s.theta = {1.0, 1.1, 0.5};
    s.ranks = {10, 10, 10};
  } else if (name == "nell") {
    s.shape = {scaled_dim(3.2e6), scaled_dim(301), scaled_dim(638e3)};
    s.nnz = scaled_nnz(78e6);
    s.theta = {1.2, 0.8, 1.2};
    s.ranks = {10, 10, 10};
  } else if (name == "delicious") {
    s.shape = {scaled_dim(1.4e3), scaled_dim(532e3), scaled_dim(17e6),
               scaled_dim(2.4e6)};
    s.nnz = scaled_nnz(140e6);
    s.theta = {0.6, 1.1, 1.2, 1.25};
    s.ranks = {5, 5, 5, 5};
  } else if (name == "flickr") {
    s.shape = {scaled_dim(731), scaled_dim(319e3), scaled_dim(28e6),
               scaled_dim(1.6e6)};
    s.nnz = scaled_nnz(112e6);
    s.theta = {0.6, 1.1, 1.25, 1.25};
    s.ranks = {5, 5, 5, 5};
  } else {
    throw InvalidArgument("unknown preset: " + name);
  }
  return s;
}

const std::vector<std::string>& paper_preset_names() {
  static const std::vector<std::string> names = {"netflix", "nell",
                                                 "delicious", "flickr"};
  return names;
}

CooTensor generate_preset(const PresetSpec& spec, std::uint64_t seed) {
  // 24 communities at 85% affinity: the co-occurrence locality real
  // user/item/tag data exhibits (and hypergraph partitioning exploits).
  CooTensor x = random_zipf_communities(spec.shape, spec.nnz, spec.theta,
                                        /*communities=*/24, /*affinity=*/0.85,
                                        seed);
  // Rank well past the decomposition ranks, with decaying weights: the
  // spectrum keeps decaying through R_n, as in real data.
  plant_low_rank_values(x, 24, 0.02, seed ^ 0x5ca1ab1eULL);
  return x;
}

}  // namespace ht::tensor
