#include "util/rng.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

namespace epi {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng rng(0);
  std::set<std::uint64_t> values;
  for (int i = 0; i < 16; ++i) values.insert(rng.next());
  EXPECT_GT(values.size(), 1u);  // state escaped all-zero
}

TEST(Rng, DeriveIsDeterministicAndLabelSensitive) {
  const Rng parent(7);
  Rng child1 = parent.derive({1, 2});
  Rng child2 = parent.derive({1, 2});
  Rng child3 = parent.derive({2, 1});
  EXPECT_EQ(child1.next(), child2.next());
  EXPECT_NE(child1.next(), child3.next());
}

TEST(Rng, DeriveIndependentOfParentConsumption) {
  Rng a(9), b(9);
  b.next();  // consuming the parent must not change derived children
  EXPECT_EQ(a.derive({5}).next(), b.derive({5}).next());
}

// derive() keys a child on its parent's seed alone, so a stream can be
// built from nested mix_labels without the generators in between: the
// engine's per-(person, tick, purpose) streams and coins rely on it.
TEST(Rng, NestedMixLabelsEqualsChainedDerive) {
  Rng labels(2024);
  auto expect_same_draws = [](Rng a, Rng b) {
    for (int i = 0; i < 16; ++i) ASSERT_EQ(a.next(), b.next()) << "draw " << i;
  };
  for (int trial = 0; trial < 1000; ++trial) {
    const std::uint64_t seed = labels.next();
    const std::uint64_t a = labels.next(), b = labels.next();
    const std::uint64_t c = labels.next(), d = labels.next();
    expect_same_draws(Rng(seed).derive({a, b, c}).derive({d}),
                      Rng(mix_labels(mix_labels(seed, {a, b, c}), {d})));
    expect_same_draws(Rng(seed).derive({a}).derive({b, c, d}),
                      Rng(mix_labels(mix_labels(seed, {a}), {b, c, d})));
    expect_same_draws(Rng(seed).derive({a, b, c, d}),
                      Rng(mix_labels(seed, {a, b, c, d})));
    expect_same_draws(Rng(seed).derive({}), Rng(mix_labels(seed, {})));
  }
}

TEST(Rng, MixLabelsOrderSensitive) {
  EXPECT_NE(mix_labels(1, {10, 20}), mix_labels(1, {20, 10}));
  EXPECT_EQ(mix_labels(1, {10, 20}), mix_labels(1, {10, 20}));
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(4);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(5);
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(7)];
  for (int count : counts) {
    EXPECT_NEAR(count, n / 7, n / 7 / 5);
  }
}

TEST(Rng, UniformIndexOneAlwaysZero) {
  Rng rng(6);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(8);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(10);
  const int n = 100000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(Rng, TruncatedNormalRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.truncated_normal(5.0, 4.0, 1.0, 8.0);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 8.0);
  }
}

TEST(Rng, TruncatedNormalZeroSigmaClamps) {
  Rng rng(12);
  EXPECT_DOUBLE_EQ(rng.truncated_normal(10.0, 0.0, 0.0, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(rng.truncated_normal(-10.0, 0.0, 0.0, 5.0), 0.0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GammaMoments) {
  Rng rng(14);
  const int n = 50000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gamma(3.0, 2.0);  // mean 6, var 12
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 6.0, 0.1);
  EXPECT_NEAR(sum_sq / n - mean * mean, 12.0, 0.6);
}

TEST(Rng, GammaSmallShape) {
  Rng rng(15);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gamma(0.5, 1.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.03);
}

TEST(Rng, PoissonSmallLambdaMean) {
  Rng rng(16);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.07);
}

TEST(Rng, PoissonLargeLambdaMean) {
  Rng rng(17);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(200.0));
  EXPECT_NEAR(sum / n, 200.0, 1.0);
}

TEST(Rng, PoissonZero) {
  Rng rng(18);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, BinomialEdgeCases) {
  Rng rng(19);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(10, 0.0), 0u);
  EXPECT_EQ(rng.binomial(10, 1.0), 10u);
}

TEST(Rng, BinomialMeanSmallN) {
  Rng rng(20);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.binomial(20, 0.3));
  EXPECT_NEAR(sum / n, 6.0, 0.1);
}

TEST(Rng, BinomialMeanLargeN) {
  Rng rng(21);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto x = rng.binomial(100000, 0.4);
    EXPECT_LE(x, 100000u);
    sum += static_cast<double>(x);
  }
  EXPECT_NEAR(sum / n, 40000.0, 50.0);
}

TEST(Rng, DiscretePicksByWeight) {
  Rng rng(22);
  std::array<int, 3> counts{};
  const int n = 90000;
  const std::vector<double> weights = {1.0, 2.0, 6.0};
  for (int i = 0; i < n; ++i) ++counts[rng.discrete(weights)];
  EXPECT_NEAR(counts[0], n / 9, 600);
  EXPECT_NEAR(counts[1], 2 * n / 9, 900);
  EXPECT_NEAR(counts[2], 6 * n / 9, 1200);
}

TEST(Rng, DiscreteSkipsZeroWeights) {
  Rng rng(23);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.discrete(weights), 1u);
}

TEST(Rng, DiscreteRejectsAllZero) {
  Rng rng(24);
  EXPECT_THROW(rng.discrete(std::vector<double>{0.0, 0.0}), Error);
  EXPECT_THROW(rng.discrete(std::vector<double>{}), Error);
  EXPECT_THROW(rng.discrete(std::vector<double>{-1.0, 2.0}), Error);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(25);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled.begin(), shuffled.end());
  EXPECT_NE(shuffled, v);  // astronomically unlikely to match
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(26);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (auto x : sample) EXPECT_LT(x, 100u);
}

TEST(Rng, SampleWithoutReplacementFull) {
  Rng rng(27);
  const auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementRejectsOverdraw) {
  Rng rng(28);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), Error);
}

TEST(Rng, InvalidArgumentsThrow) {
  Rng rng(29);
  EXPECT_THROW(rng.uniform(2.0, 1.0), Error);
  EXPECT_THROW(rng.uniform_index(0), Error);
  EXPECT_THROW(rng.exponential(0.0), Error);
  EXPECT_THROW(rng.gamma(0.0, 1.0), Error);
  EXPECT_THROW(rng.normal(0.0, -1.0), Error);
  EXPECT_THROW(rng.binomial(5, 1.5), Error);
}

// Property sweep: uniform_index is unbiased for a range of n.
class RngIndexSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngIndexSweep, MeanMatchesHalfRange) {
  const std::uint64_t n = GetParam();
  Rng rng(100 + n);
  const int draws = 40000;
  double sum = 0.0;
  for (int i = 0; i < draws; ++i) {
    sum += static_cast<double>(rng.uniform_index(n));
  }
  const double expected = (static_cast<double>(n) - 1.0) / 2.0;
  const double tolerance = std::max(0.05, static_cast<double>(n) * 0.02);
  EXPECT_NEAR(sum / draws, expected, tolerance);
}

INSTANTIATE_TEST_SUITE_P(Ranges, RngIndexSweep,
                         ::testing::Values(2, 3, 7, 10, 100, 1000, 65537));

}  // namespace
}  // namespace epi
