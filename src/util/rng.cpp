#include "util/rng.hpp"

#include <cmath>

#include "util/error.hpp"

namespace epi {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t mix_labels(std::uint64_t seed,
                         std::initializer_list<std::uint64_t> labels) {
  SplitMix64 sm(seed);
  std::uint64_t key = sm.next();
  for (std::uint64_t label : labels) {
    // Feed each label through the mixer; XOR keeps the chain sensitive to
    // label order without being commutative across positions.
    SplitMix64 step(key ^ (label + 0x9E3779B97F4A7C15ULL));
    key = step.next();
  }
  return key;
}

Rng::Rng(std::uint64_t seed) : seed_key_(seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) {
    word = sm.next();
  }
}

Rng Rng::derive(std::initializer_list<std::uint64_t> labels) const {
  return Rng(mix_labels(seed_key_, labels));
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  EPI_REQUIRE(lo <= hi, "uniform bounds inverted: [" << lo << ", " << hi << ")");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  EPI_REQUIRE(n > 0, "uniform_index requires n > 0");
  // Lemire's multiply-shift rejection method: unbiased, branch-light.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  EPI_REQUIRE(lo <= hi, "uniform_int bounds inverted");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = 2.0 * uniform() - 1.0;
    v = 2.0 * uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return u * factor;
}

double Rng::normal(double mu, double sigma) {
  EPI_REQUIRE(sigma >= 0.0, "normal sigma must be >= 0, got " << sigma);
  return mu + sigma * normal();
}

double Rng::truncated_normal(double mu, double sigma, double lo, double hi) {
  EPI_REQUIRE(lo <= hi, "truncated_normal bounds inverted");
  if (sigma == 0.0) {
    return std::min(std::max(mu, lo), hi);
  }
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const double x = normal(mu, sigma);
    if (x >= lo && x <= hi) return x;
  }
  return std::min(std::max(mu, lo), hi);
}

double Rng::exponential(double lambda) {
  EPI_REQUIRE(lambda > 0.0, "exponential rate must be > 0, got " << lambda);
  // -log(1 - U) avoids log(0) since uniform() < 1.
  return -std::log1p(-uniform()) / lambda;
}

double Rng::gamma(double shape, double scale) {
  EPI_REQUIRE(shape > 0.0 && scale > 0.0,
              "gamma requires shape > 0 and scale > 0");
  if (shape < 1.0) {
    // Boost to shape+1 and correct with U^{1/shape} (Marsaglia–Tsang).
    const double u = uniform();
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

std::uint64_t Rng::poisson(double lambda) {
  EPI_REQUIRE(lambda >= 0.0, "poisson lambda must be >= 0");
  if (lambda == 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth inversion.
    const double limit = std::exp(-lambda);
    double product = uniform();
    std::uint64_t count = 0;
    while (product > limit) {
      ++count;
      product *= uniform();
    }
    return count;
  }
  // Normal approximation with continuity correction, rejected below 0;
  // adequate for workload modelling at lambda >= 30.
  for (;;) {
    const double x = normal(lambda, std::sqrt(lambda));
    if (x >= -0.5) return static_cast<std::uint64_t>(std::llround(x));
  }
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  EPI_REQUIRE(p >= 0.0 && p <= 1.0, "binomial p out of [0,1]: " << p);
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  // Symmetry to keep p <= 1/2 for the waiting-time method.
  if (p > 0.5) return n - binomial(n, 1.0 - p);
  if (static_cast<double>(n) * p < 64.0) {
    // Geometric waiting-time method: expected O(np) draws.
    const double log_q = std::log1p(-p);
    std::uint64_t successes = 0;
    double trials = 0.0;
    for (;;) {
      // Geometric waiting time (trials to the next success), exact
      // discretization: floor(log(1-U)/log(1-p)) + 1.
      trials += std::floor(std::log1p(-uniform()) / log_q) + 1.0;
      if (trials > static_cast<double>(n)) return successes;
      ++successes;
    }
  }
  // Normal approximation for large np, clamped to valid range.
  const double mu = static_cast<double>(n) * p;
  const double sigma = std::sqrt(mu * (1.0 - p));
  for (;;) {
    const double x = normal(mu, sigma);
    if (x >= -0.5 && x <= static_cast<double>(n) + 0.5) {
      return static_cast<std::uint64_t>(std::llround(x));
    }
  }
}

std::size_t Rng::discrete(std::span<const double> weights) {
  EPI_REQUIRE(!weights.empty(), "discrete distribution needs weights");
  double total = 0.0;
  for (double w : weights) {
    EPI_REQUIRE(w >= 0.0, "discrete weight must be >= 0, got " << w);
    total += w;
  }
  EPI_REQUIRE(total > 0.0, "discrete weights sum to zero");
  double target = uniform() * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    if (target < weights[i]) return i;
    target -= weights[i];
  }
  return weights.size() - 1;
}

std::vector<std::uint64_t> Rng::sample_without_replacement(std::uint64_t n,
                                                           std::uint64_t k) {
  EPI_REQUIRE(k <= n, "cannot sample " << k << " distinct items from " << n);
  std::vector<std::uint64_t> reservoir;
  reservoir.reserve(k);
  for (std::uint64_t i = 0; i < k; ++i) reservoir.push_back(i);
  for (std::uint64_t i = k; i < n; ++i) {
    const std::uint64_t j = uniform_index(i + 1);
    if (j < k) reservoir[j] = i;
  }
  return reservoir;
}

}  // namespace epi
