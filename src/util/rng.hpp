// Deterministic random number generation for EpiScale.
//
// Reproducibility is a hard requirement of the nightly workflow: a replicate
// is identified by (workflow seed, region, cell, replicate) and must produce
// identical output on any machine and any thread count. We therefore use a
// counter-free but splittable scheme: SplitMix64 to derive stream seeds and
// Xoshiro256** as the bulk generator, with an explicit `derive()` operation
// to fork statistically independent child streams (per rank, per tick, per
// node) without sharing state.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace epi {

/// SplitMix64: tiny PRNG used for seeding / key derivation only.
/// Passes BigCrush when used as a 64-bit generator; its main role here is
/// turning an arbitrary (seed, label...) tuple into a well-mixed 64-bit key.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Mixes a sequence of 64-bit labels into a single key. Used to derive
/// per-(region, cell, replicate, rank, ...) streams from a master seed.
std::uint64_t mix_labels(std::uint64_t seed,
                         std::initializer_list<std::uint64_t> labels);

/// Xoshiro256** — fast, high-quality 64-bit generator (Blackman & Vigna).
/// Satisfies the UniformRandomBitGenerator concept so it can also feed
/// <random> distributions where convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words via SplitMix64 so that any 64-bit seed,
  /// including 0, yields a valid (nonzero) state.
  explicit Rng(std::uint64_t seed = 0x853C49E6748FEA9BULL);

  /// Derives a statistically independent child stream keyed by `labels`.
  /// Deriving with the same labels from the same parent always yields the
  /// same child; different labels yield unrelated streams.
  [[nodiscard]] Rng derive(std::initializer_list<std::uint64_t> labels) const;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Uniform double in [0, 1) with 53 bits of entropy.
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n), n > 0. Uses Lemire's unbiased method.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Standard normal via Marsaglia polar method (cached spare).
  double normal();

  /// Normal with mean mu, standard deviation sigma (sigma >= 0).
  double normal(double mu, double sigma);

  /// Normal truncated to [lo, hi] by rejection; falls back to clamping
  /// after 1000 rejections (only reachable for pathological bounds).
  double truncated_normal(double mu, double sigma, double lo, double hi);

  /// Exponential with rate lambda > 0.
  double exponential(double lambda);

  /// Gamma(shape k > 0, scale theta > 0), Marsaglia–Tsang method.
  double gamma(double shape, double scale);

  /// Poisson(lambda >= 0); inversion for small lambda, PTRS-like
  /// normal-approximation rejection for large.
  std::uint64_t poisson(double lambda);

  /// Binomial(n, p) by inversion / BTPE-free waiting-time method;
  /// exact for all n, O(np) expected time (fine for our sizes).
  std::uint64_t binomial(std::uint64_t n, double p);

  /// Samples an index from unnormalized non-negative weights.
  /// Requires at least one strictly positive weight.
  std::size_t discrete(std::span<const double> weights);

  /// Fisher–Yates shuffle of [first, last).
  template <typename It>
  void shuffle(It first, It last) {
    const auto n = static_cast<std::uint64_t>(last - first);
    for (std::uint64_t i = n; i > 1; --i) {
      const std::uint64_t j = uniform_index(i);
      std::swap(*(first + static_cast<std::ptrdiff_t>(i - 1)),
                *(first + static_cast<std::ptrdiff_t>(j)));
    }
  }

  /// Reservoir-samples k distinct indices from [0, n).
  std::vector<std::uint64_t> sample_without_replacement(std::uint64_t n,
                                                        std::uint64_t k);

 private:
  std::array<std::uint64_t, 4> s_{};
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;

  std::uint64_t seed_key_;  // retained so derive() can re-key children
};

}  // namespace epi
