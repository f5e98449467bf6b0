// Unit tests for the regression metrics (common/metrics.hpp).
#include "common/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace leaf::metrics {
namespace {

// Plain RMSE is NRMSE over a norm_range of 1.
TEST(Metrics, RmseKnownValue) {
  const std::vector<double> p = {1.0, 2.0, 3.0};
  const std::vector<double> t = {1.0, 2.0, 5.0};
  EXPECT_NEAR(nrmse(p, t, 1.0), std::sqrt(4.0 / 3.0), 1e-12);
}

TEST(Metrics, RmsePerfectPrediction) {
  const std::vector<double> p = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(nrmse(p, p, 1.0), 0.0);
}

TEST(Metrics, RmseEmpty) {
  EXPECT_DOUBLE_EQ(nrmse({}, {}, 1.0), 0.0);
}

TEST(Metrics, NrmseNormalizesByRange) {
  const std::vector<double> p = {0.0};
  const std::vector<double> t = {10.0};
  EXPECT_DOUBLE_EQ(nrmse(p, t, 100.0), 0.1);
}

TEST(Metrics, NrmseSkipsNonFinitePairs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Corrupt pairs are dropped; the remaining pair gives |0-10|/100 = 0.1.
  const std::vector<double> p = {0.0, nan, 3.0};
  const std::vector<double> t = {10.0, 2.0, inf};
  EXPECT_DOUBLE_EQ(nrmse(p, t, 100.0), 0.1);
}

TEST(Metrics, NrmseAllPairsCorruptIsNan) {
  const std::vector<double> p = {std::numeric_limits<double>::quiet_NaN()};
  const std::vector<double> t = {1.0};
  EXPECT_TRUE(std::isnan(nrmse(p, t, 100.0)));
}

TEST(Metrics, NrmseBadRangeIsNan) {
  const std::vector<double> p = {0.0};
  const std::vector<double> t = {10.0};
  EXPECT_TRUE(std::isnan(nrmse(p, t, 0.0)));
  EXPECT_TRUE(std::isnan(nrmse(p, t, -1.0)));
  EXPECT_TRUE(
      std::isnan(nrmse(p, t, std::numeric_limits<double>::quiet_NaN())));
}

TEST(Metrics, NormalizedErrorBadRangeIsNan) {
  EXPECT_TRUE(std::isnan(normalized_error(1.0, 2.0, 0.0)));
}

TEST(Metrics, NormalizedErrorSign) {
  // Over-prediction -> positive NE (overestimation).
  EXPECT_DOUBLE_EQ(normalized_error(15.0, 10.0, 50.0), 0.1);
  // Under-prediction -> negative NE.
  EXPECT_DOUBLE_EQ(normalized_error(5.0, 10.0, 50.0), -0.1);
}

TEST(Metrics, MaeKnownValue) {
  const std::vector<double> p = {1.0, -1.0};
  const std::vector<double> t = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(mae(p, t), 1.0);
}

TEST(Metrics, MedianAeRobustToOutlier) {
  const std::vector<double> p = {0.0, 0.0, 0.0, 0.0, 100.0};
  const std::vector<double> t = {1.0, 1.0, 1.0, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(median_ae(p, t), 1.0);
}

TEST(Metrics, MapePercentage) {
  const std::vector<double> p = {110.0, 90.0};
  const std::vector<double> t = {100.0, 100.0};
  EXPECT_NEAR(mape(p, t), 10.0, 1e-12);
}

TEST(Metrics, MapeSkipsZeroTruth) {
  const std::vector<double> p = {5.0, 110.0};
  const std::vector<double> t = {0.0, 100.0};
  EXPECT_NEAR(mape(p, t), 10.0, 1e-12);
}

TEST(Metrics, R2PerfectIsOne) {
  const std::vector<double> t = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(r2(t, t), 1.0);
}

TEST(Metrics, R2MeanPredictorIsZero) {
  const std::vector<double> t = {1.0, 2.0, 3.0};
  const std::vector<double> p(3, 2.0);
  EXPECT_NEAR(r2(p, t), 0.0, 1e-12);
}

TEST(Metrics, R2WorseThanMeanIsNegative) {
  const std::vector<double> t = {1.0, 2.0, 3.0};
  const std::vector<double> p = {3.0, 2.0, 1.0};
  EXPECT_LT(r2(p, t), 0.0);
}

TEST(Metrics, ExplainedVariancePerfect) {
  const std::vector<double> t = {1.0, 5.0, 9.0};
  EXPECT_DOUBLE_EQ(explained_variance(t, t), 1.0);
}

TEST(Metrics, ExplainedVarianceConstantOffsetStillOne) {
  // A constant bias doesn't change residual variance.
  const std::vector<double> t = {1.0, 5.0, 9.0};
  const std::vector<double> p = {2.0, 6.0, 10.0};
  EXPECT_NEAR(explained_variance(p, t), 1.0, 1e-12);
  EXPECT_LT(r2(p, t), 1.0);  // ...but it does lower R^2
}

TEST(Metrics, DeltaNrmsePct) {
  const std::vector<double> mitigated = {0.05, 0.05};
  const std::vector<double> baseline = {0.10, 0.10};
  EXPECT_NEAR(delta_nrmse_pct(mitigated, baseline), -50.0, 1e-12);
}

TEST(Metrics, DeltaNrmsePctWorseIsPositive) {
  const std::vector<double> mitigated = {0.2};
  const std::vector<double> baseline = {0.1};
  EXPECT_NEAR(delta_nrmse_pct(mitigated, baseline), 100.0, 1e-12);
}

TEST(Metrics, DeltaNrmsePctZeroBaseline) {
  const std::vector<double> zero = {0.0};
  EXPECT_DOUBLE_EQ(delta_nrmse_pct(zero, zero), 0.0);
}

}  // namespace
}  // namespace leaf::metrics
