// Cross-module property tests: invariants that must hold for *any* valid
// input, swept with parameterized gtest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "data/temporal.hpp"
#include "explain/lea.hpp"
#include "models/factory.hpp"

namespace leaf {
namespace {

// --- metric identities, swept over random prediction/truth pairs -----------

class MetricPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetricPropertyTest, MetricIdentities) {
  Rng rng(GetParam());
  const std::size_t n = 50 + rng.index(200);
  std::vector<double> truth(n), pred(n);
  for (std::size_t i = 0; i < n; ++i) {
    truth[i] = rng.normal(10.0, 4.0);
    pred[i] = truth[i] + rng.normal(0.0, 2.0);
  }

  // Plain RMSE is NRMSE over a norm_range of 1.
  const auto rmse = [](std::span<const double> p, std::span<const double> t) {
    return metrics::nrmse(p, t, 1.0);
  };

  // RMSE is symmetric and non-negative; zero iff identical.
  EXPECT_DOUBLE_EQ(rmse(pred, truth), rmse(truth, pred));
  EXPECT_GE(rmse(pred, truth), 0.0);
  EXPECT_DOUBLE_EQ(rmse(truth, truth), 0.0);

  // RMSE >= MAE >= 0 (power-mean inequality).
  EXPECT_GE(rmse(pred, truth), metrics::mae(pred, truth) - 1e-12);

  // NRMSE scales inversely with the range.
  const double n1 = metrics::nrmse(pred, truth, 10.0);
  const double n2 = metrics::nrmse(pred, truth, 20.0);
  EXPECT_NEAR(n1, 2.0 * n2, 1e-12);

  // R^2 and explained variance agree for unbiased residuals up to the
  // bias term: EV >= R^2 always.
  EXPECT_GE(metrics::explained_variance(pred, truth),
            metrics::r2(pred, truth) - 1e-9);

  // Shifting both series leaves every distance metric unchanged.
  std::vector<double> truth_s(n), pred_s(n);
  for (std::size_t i = 0; i < n; ++i) {
    truth_s[i] = truth[i] + 100.0;
    pred_s[i] = pred[i] + 100.0;
  }
  EXPECT_NEAR(rmse(pred_s, truth_s), rmse(pred, truth), 1e-9);
  EXPECT_NEAR(metrics::mae(pred_s, truth_s), metrics::mae(pred, truth), 1e-9);
}

TEST_P(MetricPropertyTest, StatsIdentities) {
  Rng rng(GetParam() ^ 0xABCD);
  const std::size_t n = 30 + rng.index(300);
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.lognormal(0.0, 0.7);

  // Quantiles are monotone in q and bounded by min/max.
  double prev = stats::quantile(xs, 0.0);
  EXPECT_DOUBLE_EQ(prev, std::ranges::min(xs));
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    const double cur = stats::quantile(xs, q);
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
  EXPECT_DOUBLE_EQ(prev, std::ranges::max(xs));

  // Pearson is scale/shift invariant and bounded.
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) ys[i] = 3.0 * xs[i] + rng.normal();
  const double r = stats::pearson(xs, ys);
  EXPECT_LE(std::abs(r), 1.0 + 1e-12);
  std::vector<double> ys2(n);
  for (std::size_t i = 0; i < n; ++i) ys2[i] = -5.0 * ys[i] + 7.0;
  EXPECT_NEAR(stats::pearson(xs, ys2), -r, 1e-9);

  // KS statistic of a sample against itself is 0; against anything it is
  // within [0, 1].
  EXPECT_DOUBLE_EQ(stats::ks_statistic(xs, xs), 0.0);
  const double d = stats::ks_statistic(xs, ys);
  EXPECT_GE(d, 0.0);
  EXPECT_LE(d, 1.0);
  const double p = stats::ks_p_value(xs, ys);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

TEST_P(MetricPropertyTest, LeaDecompositionIsConsistent) {
  Rng rng(GetParam() ^ 0x1234);
  const std::size_t n = 100 + rng.index(300);
  std::vector<double> truth(n), pred(n), fv(n);
  for (std::size_t i = 0; i < n; ++i) {
    truth[i] = rng.normal(5.0, 2.0);
    pred[i] = truth[i] + rng.normal(0.0, 1.0);
    fv[i] = rng.normal();
  }
  const auto edges = explain::lea_bin_edges(fv, 8);
  const auto lea = explain::compute_lea(pred, truth, fv, 0, 1.0, edges);

  // Counts partition the sample.
  std::size_t total = 0;
  for (std::size_t c : lea.count) total += c;
  EXPECT_EQ(total, n);

  // Sample-count-weighted per-bin MSE recomposes to the global MSE.
  double acc = 0.0;
  for (std::size_t b = 0; b < lea.num_bins(); ++b)
    acc += lea.error[b] * lea.error[b] * static_cast<double>(lea.count[b]);
  const double global = metrics::nrmse(pred, truth, 1.0);
  EXPECT_NEAR(std::sqrt(acc / static_cast<double>(n)), global, 1e-9);

  // Every bin error is non-negative and bounded by the max per-sample
  // error.
  double max_err = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    max_err = std::max(max_err, std::abs(pred[i] - truth[i]));
  for (double e : lea.error) {
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, max_err + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// --- temporal-process invariants over the whole study -----------------------

class TemporalSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(TemporalSweepTest, FactorsStayPhysical) {
  const int day = GetParam();
  for (double amp : {0.0, 0.1, 0.3}) {
    const double w = data::weekly_factor(day, amp);
    EXPECT_GT(w, 0.0);
    EXPECT_NEAR(w, 1.0, amp + 1e-9);
    const double s = data::seasonal_factor(day, amp);
    EXPECT_GT(s, 0.0);
    EXPECT_NEAR(s, 1.0, 1.4 * amp + 1e-9);
  }
  for (double depth : {0.0, 0.2, 0.5}) {
    const double c = data::covid_factor(day, depth);
    EXPECT_LE(c, 1.0 + 1e-12);
    EXPECT_GE(c, 1.0 - depth - 1e-12);
  }
  for (double sens : {0.2, 1.0, 1.6}) {
    const double m = data::mobility_level(day, sens);
    EXPECT_GE(m, 0.0);
    EXPECT_LE(m, 1.0);
  }
  EXPECT_GE(data::gradual_drift_factor(day, 0.5), 1.0);
  EXPECT_LE(data::gradual_drift_factor(day, 0.5), 1.5 + 1e-12);
  EXPECT_GT(data::growth_factor(day, 0.1), 0.999);
}

INSTANTIATE_TEST_SUITE_P(StudyDays, TemporalSweepTest,
                         ::testing::Values(0, 100, 365, 550, 730, 805, 900,
                                           1096, 1250, 1400, 1547));

// --- model-prediction sanity over feature perturbations --------------------

class PerturbationTest
    : public ::testing::TestWithParam<models::ModelFamily> {};

TEST_P(PerturbationTest, PredictionsAreFiniteOnPerturbedInputs) {
  Rng rng(9);
  Matrix x(150, 6);
  std::vector<double> y(150);
  for (std::size_t i = 0; i < 150; ++i) {
    for (std::size_t c = 0; c < 6; ++c) x(i, c) = rng.normal();
    y[i] = x(i, 0) - x(i, 1) + 0.1 * rng.normal();
  }
  const Scale scale = Scale::for_level(Scale::Level::kSmall);
  const auto model = models::make_model(GetParam(), scale, 1);
  model->fit(x, y);

  // Probe far outside the training distribution: predictions must stay
  // finite (trees clamp, linear extrapolates, LSTM saturates).
  for (double magnitude : {0.0, 1.0, 10.0, 1e3, 1e6}) {
    std::vector<double> probe(6, magnitude);
    const double p = model->predict_one(probe);
    EXPECT_TRUE(std::isfinite(p))
        << models::to_string(GetParam()) << " at " << magnitude;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, PerturbationTest,
    ::testing::Values(models::ModelFamily::kGbdt,
                      models::ModelFamily::kRandomForest,
                      models::ModelFamily::kExtraTrees,
                      models::ModelFamily::kKnn, models::ModelFamily::kLstm,
                      models::ModelFamily::kRidge),
    [](const ::testing::TestParamInfo<models::ModelFamily>& info) {
      return models::to_string(info.param);
    });

}  // namespace
}  // namespace leaf
