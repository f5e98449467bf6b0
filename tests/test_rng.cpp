// Unit tests for the deterministic PRNG (common/rng.hpp).
#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

namespace leaf {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, IndexInBounds) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.index(17), 17u);
}

TEST(Rng, IndexCoversAllValues) {
  Rng rng(5);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.index(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sum2 += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, NormalShiftScale) {
  Rng rng(13);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, LognormalMedian) {
  Rng rng(29);
  std::vector<double> vals(20001);
  for (auto& v : vals) v = rng.lognormal(1.0, 0.5);
  std::nth_element(vals.begin(), vals.begin() + 10000, vals.end());
  EXPECT_NEAR(vals[10000], std::exp(1.0), 0.1);
}

TEST(Rng, HeavyTailHasHeavierTailsThanNormal) {
  Rng rng(31);
  int extreme_t = 0, extreme_n = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (std::abs(rng.heavy_tail(2.0)) > 4.0) ++extreme_t;
    if (std::abs(rng.normal()) > 4.0) ++extreme_n;
  }
  EXPECT_GT(extreme_t, extreme_n * 5);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(41);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Rng, SampleWithoutReplacementUniqueAndBounded) {
  Rng rng(43);
  const auto s = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(s.size(), 20u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (std::size_t i : s) EXPECT_LT(i, 50u);
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng rng(43);
  const auto s = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(Rng, WeightedSampleWithReplacementRespectsWeights) {
  Rng rng(47);
  const std::vector<double> w = {1.0, 0.0, 9.0};
  const auto s = rng.weighted_sample_with_replacement(w, 10000);
  EXPECT_EQ(s.size(), 10000u);
  std::array<int, 3> counts{};
  for (std::size_t i : s) ++counts[i];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / 10000.0, 0.9, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(1);
  Rng child = a.fork(42);
  Rng a2(1);
  Rng child2 = a2.fork(42);
  // Same tag + same parent state -> same child stream.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(child(), child2());
  // Different tags -> different streams.
  Rng b(1);
  Rng other = b.fork(43);
  int same = 0;
  Rng c(1);
  Rng ref = c.fork(42);
  for (int i = 0; i < 50; ++i)
    if (ref() == other()) ++same;
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace leaf
