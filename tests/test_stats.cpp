// Unit tests for the statistics kit (common/stats.hpp).
#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace leaf::stats {
namespace {

TEST(Stats, MeanBasic) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
}

TEST(Stats, MeanEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, VarianceKnownValue) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Sample variance with n-1 denominator = 32/7.
  EXPECT_NEAR(variance(v), 32.0 / 7.0, 1e-12);
}

TEST(Stats, VarianceConstantIsZero) {
  const std::vector<double> v(10, 3.14);
  EXPECT_DOUBLE_EQ(variance(v), 0.0);
}

TEST(Stats, DispersionStdOverMean) {
  const std::vector<double> v = {1.0, 3.0};
  EXPECT_NEAR(dispersion(v), std::sqrt(2.0) / 2.0, 1e-12);
}

TEST(Stats, DispersionZeroMean) {
  const std::vector<double> v = {-1.0, 1.0};
  EXPECT_DOUBLE_EQ(dispersion(v), 0.0);
}

TEST(Stats, QuantileMedianOdd) {
  const std::vector<double> v = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
}

TEST(Stats, QuantileExtremes) {
  const std::vector<double> v = {4.0, 2.0, 9.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 9.0);
}

TEST(Stats, QuantileEdgesCount) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  const auto edges = quantile_edges(v, 4);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_LT(edges[0], edges[1]);
  EXPECT_LT(edges[1], edges[2]);
}

TEST(Stats, SkewnessSymmetricNearZero) {
  std::vector<double> v;
  Rng rng(1);
  for (int i = 0; i < 20000; ++i) v.push_back(rng.normal());
  EXPECT_NEAR(skewness(v), 0.0, 0.05);
}

TEST(Stats, SkewnessLognormalPositive) {
  std::vector<double> v;
  Rng rng(1);
  for (int i = 0; i < 20000; ++i) v.push_back(rng.lognormal(0.0, 1.0));
  EXPECT_GT(skewness(v), 2.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = {2.0, 4.0, 6.0};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Stats, PearsonPerfectAntiCorrelation) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = {3.0, 2.0, 1.0};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(Stats, PearsonIndependentNearZero) {
  Rng rng(3);
  std::vector<double> x(10000), y(10000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.05);
}

TEST(Stats, PearsonConstantSideIsZero) {
  const std::vector<double> x = {1.0, 1.0, 1.0};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Stats, AutocorrelationPeriodicSignal) {
  std::vector<double> v;
  for (int i = 0; i < 700; ++i) v.push_back(std::sin(2.0 * M_PI * i / 7.0));
  EXPECT_NEAR(autocorrelation(v, 7), 1.0, 0.02);
  EXPECT_LT(autocorrelation(v, 3), 0.0);
}

TEST(Stats, AutocorrelationLagTooLarge) {
  const std::vector<double> v = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(autocorrelation(v, 5), 0.0);
}

TEST(Stats, PeriodicityStrengthPureSinusoid) {
  std::vector<double> v;
  for (int i = 0; i < 770; ++i) v.push_back(std::sin(2.0 * M_PI * i / 7.0));
  EXPECT_GT(periodicity_strength(v, 7), 0.8);
}

TEST(Stats, PeriodicityStrengthWhiteNoiseLow) {
  Rng rng(5);
  std::vector<double> v(1000);
  for (auto& x : v) x = rng.normal();
  EXPECT_LT(periodicity_strength(v, 7), 0.05);
}

TEST(Stats, BurstinessFlatSeriesZero) {
  const std::vector<double> v(200, 1.0);
  EXPECT_DOUBLE_EQ(burstiness(v), 0.0);
}

TEST(Stats, BurstinessSpikySeriesPositive) {
  Rng rng(6);
  std::vector<double> v(500);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 1.0 + 0.01 * rng.normal() + (i % 50 == 0 ? 5.0 : 0.0);
  EXPECT_GT(burstiness(v), 0.01);
}

TEST(Stats, KsStatisticIdenticalSamplesZero) {
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(ks_statistic(a, a), 0.0);
}

TEST(Stats, KsStatisticDisjointIsOne) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {10.0, 11.0, 12.0};
  EXPECT_DOUBLE_EQ(ks_statistic(a, b), 1.0);
}

TEST(Stats, KsPValueSameDistributionHigh) {
  Rng rng(7);
  std::vector<double> a(200), b(200);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  EXPECT_GT(ks_p_value(a, b), 0.05);
}

TEST(Stats, KsPValueShiftedDistributionLow) {
  Rng rng(7);
  std::vector<double> a(200), b(200);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal(2.0, 1.0);
  EXPECT_LT(ks_p_value(a, b), 1e-6);
}

// Property sweep: KS p-value should fall monotonically (on average) as
// the distribution shift grows.
class KsShiftTest : public ::testing::TestWithParam<double> {};

TEST_P(KsShiftTest, LargerShiftLowerPValue) {
  const double shift = GetParam();
  Rng rng(9);
  std::vector<double> a(150), b(150);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal(shift, 1.0);
  const double p = ks_p_value(a, b);
  if (shift >= 1.0) {
    EXPECT_LT(p, 0.001) << "shift=" << shift;
  } else if (shift == 0.0) {
    EXPECT_GT(p, 0.01);
  }
}

INSTANTIATE_TEST_SUITE_P(Shifts, KsShiftTest,
                         ::testing::Values(0.0, 0.5, 1.0, 2.0, 4.0));

}  // namespace
}  // namespace leaf::stats
