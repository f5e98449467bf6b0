// Unit tests for the mitigation schemes and evaluation engine (core/).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/calendar.hpp"
#include "common/metrics.hpp"
#include "core/experiment.hpp"
#include "data/generator.hpp"
#include "io/serializer.hpp"
#include "models/factory.hpp"

namespace leaf::core {
namespace {

Scale tiny_scale() {
  Scale s = Scale::for_level(Scale::Level::kSmall);
  s.fixed_enbs = 6;
  s.num_kpis = 16;
  s.gbdt_trees = 15;
  s.eval_stride_days = 4;
  return s;
}

const data::CellularDataset& ds() {
  static const data::CellularDataset d =
      data::generate_fixed_dataset(tiny_scale(), 42);
  return d;
}

const data::Featurizer& featurizer() {
  static const data::Featurizer f(ds(), data::TargetKpi::kDVol);
  return f;
}

EvalConfig tiny_config() {
  EvalConfig cfg = make_eval_config(tiny_scale());
  return cfg;
}

// --- latest_labeled_window ------------------------------------------------

TEST(LatestWindow, FeatureDaysEndAtHorizonBoundary) {
  const int eval_day = 600;
  const auto set = latest_labeled_window(featurizer(), eval_day, 14);
  ASSERT_FALSE(set.empty());
  int max_fd = 0, min_fd = 1 << 30;
  for (int d : set.feature_day) {
    max_fd = std::max(max_fd, d);
    min_fd = std::min(min_fd, d);
  }
  EXPECT_EQ(max_fd, eval_day - 180);
  EXPECT_EQ(min_fd, eval_day - 180 - 13);
  // No label leakage: every target day <= eval day.
  for (int d : set.target_day) EXPECT_LE(d, eval_day);
}

// --- scheme policies --------------------------------------------------------

TEST(StaticScheme, NeverRetrains) {
  StaticScheme scheme;
  const EvalResult r =
      run_scheme(featurizer(),
                 *models::make_model(models::ModelFamily::kRidge, tiny_scale(), 1),
                 scheme, tiny_config());
  EXPECT_EQ(r.retrain_count(), 0);
  EXPECT_EQ(r.scheme, "Static");
}

TEST(PeriodicScheme, RetrainCadenceMatchesPeriod) {
  PeriodicScheme scheme(90);
  const EvalConfig cfg = tiny_config();
  const EvalResult r =
      run_scheme(featurizer(),
                 *models::make_model(models::ModelFamily::kRidge, tiny_scale(), 1),
                 scheme, cfg);
  ASSERT_GT(r.retrain_count(), 0);
  // Evaluation spans ~1186 days; every-90-days -> about 13 retrains.
  const int span = r.days.back() - r.days.front();
  EXPECT_NEAR(r.retrain_count(), span / 90, 2);
  // Gaps between consecutive retrains >= period.
  for (std::size_t i = 1; i < r.retrain_days.size(); ++i)
    EXPECT_GE(r.retrain_days[i] - r.retrain_days[i - 1], 90);
}

TEST(PeriodicScheme, NameEncodesPeriod) {
  EXPECT_EQ(PeriodicScheme(30).name(), "Naive30");
  EXPECT_EQ(PeriodicScheme(365).name(), "Naive365");
}

TEST(TriggeredScheme, RetrainsExactlyOnDriftDays) {
  TriggeredScheme scheme;
  const EvalResult r =
      run_scheme(featurizer(),
                 *models::make_model(models::ModelFamily::kRidge, tiny_scale(), 1),
                 scheme, tiny_config());
  EXPECT_EQ(r.retrain_days, r.drift_days);
}

TEST(LeafScheme, RetrainsOnlyOnDrift) {
  const double disp = kpi_dispersion(ds(), data::TargetKpi::kDVol);
  LeafConfig lc;
  LeafScheme scheme(lc, disp);
  const EvalResult r =
      run_scheme(featurizer(),
                 *models::make_model(models::ModelFamily::kGbdt, tiny_scale(), 1),
                 scheme, tiny_config());
  // Every retrain day is a drift day (LEAF may skip degenerate events but
  // never retrains without a detection).
  for (int d : r.retrain_days)
    EXPECT_TRUE(std::find(r.drift_days.begin(), r.drift_days.end(), d) !=
                r.drift_days.end());
}

TEST(LeafScheme, PreservesTrainingSetSize) {
  // Drive the scheme manually on a fabricated drift step.
  const double disp = 0.5;  // low dispersion path
  LeafConfig lc;
  LeafScheme scheme(lc, disp);
  scheme.reset();

  const auto model =
      models::make_model(models::ModelFamily::kGbdt, tiny_scale(), 1);
  const int anchor = cal::anchor_2018_07_01();
  const data::SupervisedSet train = featurizer().window(anchor - 13, anchor);
  model->fit(train.X, train.y);

  SchemeContext ctx{.featurizer = featurizer(),
                    .model = *model,
                    .current_train = train,
                    .eval_day = 900,
                    .nrmse = 0.2,
                    .drift = true,
                    .train_window = 14};
  const auto new_train = scheme.on_step(ctx);
  ASSERT_TRUE(new_train.has_value());
  EXPECT_EQ(new_train->size(), train.size());
  EXPECT_EQ(new_train->X.cols(), train.X.cols());
}

TEST(LeafScheme, NoDriftNoAction) {
  LeafConfig lc;
  LeafScheme scheme(lc, 0.5);
  scheme.reset();
  const auto model =
      models::make_model(models::ModelFamily::kRidge, tiny_scale(), 1);
  const data::SupervisedSet train = featurizer().window(170, 181);
  model->fit(train.X, train.y);
  SchemeContext ctx{.featurizer = featurizer(),
                    .model = *model,
                    .current_train = train,
                    .eval_day = 900,
                    .nrmse = 0.2,
                    .drift = false,
                    .train_window = 14};
  EXPECT_FALSE(scheme.on_step(ctx).has_value());
}

TEST(LeafScheme, MitigationInjectsFreshSamples) {
  LeafConfig lc;
  LeafScheme scheme(lc, 0.5);  // low dispersion: aggressive refresh
  scheme.reset();
  const auto model =
      models::make_model(models::ModelFamily::kGbdt, tiny_scale(), 1);
  const int anchor = cal::anchor_2018_07_01();
  const data::SupervisedSet train = featurizer().window(anchor - 13, anchor);
  model->fit(train.X, train.y);
  SchemeContext ctx{.featurizer = featurizer(),
                    .model = *model,
                    .current_train = train,
                    .eval_day = 1100,
                    .nrmse = 0.3,
                    .drift = true,
                    .train_window = 14};
  const auto new_train = scheme.on_step(ctx);
  ASSERT_TRUE(new_train.has_value());
  std::size_t fresh = 0;
  for (int td : new_train->target_day)
    if (td > anchor + 180) ++fresh;
  EXPECT_GT(fresh, new_train->size() / 10);
  // Restructuring keeps part of the old set; only the no-signal fallback
  // hands back the latest window alone.
  EXPECT_LT(fresh, new_train->size());
}

// reset() returns a scheme to its constructed state, so a reused scheme
// snapshots the same bytes as a fresh one (the RNG a drift event advanced
// included).
TEST(LeafScheme, ResetSchemeSavesTheBytesOfAFreshOne) {
  LeafConfig lc;
  LeafScheme scheme(lc, 0.5);
  const auto model =
      models::make_model(models::ModelFamily::kGbdt, tiny_scale(), 1);
  const int anchor = cal::anchor_2018_07_01();
  const data::SupervisedSet train = featurizer().window(anchor - 13, anchor);
  model->fit(train.X, train.y);
  SchemeContext ctx{.featurizer = featurizer(),
                    .model = *model,
                    .current_train = train,
                    .eval_day = 1100,
                    .nrmse = 0.3,
                    .drift = true,
                    .train_window = 14};
  ASSERT_TRUE(scheme.on_step(ctx).has_value());

  const auto bytes = [](const LeafScheme& s) {
    io::Serializer out;
    s.save_state(out);
    return std::vector<std::uint8_t>(out.bytes().begin(), out.bytes().end());
  };
  const LeafScheme fresh(lc, 0.5);
  ASSERT_NE(bytes(scheme), bytes(fresh));
  scheme.reset();
  EXPECT_EQ(bytes(scheme), bytes(fresh));
}

TEST(LeafScheme, NameEncodesGroupCount) {
  LeafConfig one;
  EXPECT_EQ(LeafScheme(one, 1.0).name(), "LEAF");
  LeafConfig three;
  three.num_groups = 3;
  EXPECT_EQ(LeafScheme(three, 1.0).name(), "LEAF(3)");
}

// --- scheme factory -----------------------------------------------------------

TEST(SchemeFactory, BuildsAllSpecs) {
  for (const char* spec :
       {"Static", "Naive7", "Naive30", "Naive365", "Triggered", "LEAF",
        "LEAF3", "LEAF5"}) {
    const auto scheme = make_scheme(spec, 1.0);
    ASSERT_NE(scheme, nullptr) << spec;
  }
  EXPECT_EQ(make_scheme("Naive30", 1.0)->name(), "Naive30");
  EXPECT_EQ(make_scheme("LEAF3", 1.0)->name(), "LEAF(3)");
}

TEST(SchemeFactory, RejectsUnknownSpecs) {
  EXPECT_THROW(make_scheme("Sometimes", 1.0), std::invalid_argument);
  EXPECT_THROW(make_scheme("NaiveX", 1.0), std::invalid_argument);
  EXPECT_THROW(make_scheme("LEAF0", 1.0), std::invalid_argument);
}

// --- evaluation engine ----------------------------------------------------------

TEST(Evaluation, ResultSeriesConsistent) {
  StaticScheme scheme;
  const EvalConfig cfg = tiny_config();
  const EvalResult r =
      run_scheme(featurizer(),
                 *models::make_model(models::ModelFamily::kRidge, tiny_scale(), 1),
                 scheme, cfg);
  ASSERT_FALSE(r.days.empty());
  EXPECT_EQ(r.days.size(), r.nrmse.size());
  EXPECT_EQ(r.days.size(), r.mean_ne.size());
  // Days ascend with the configured stride; first eval at anchor+horizon.
  EXPECT_EQ(r.days.front(), cal::anchor_2018_07_01() + cfg.horizon);
  for (std::size_t i = 1; i < r.days.size(); ++i)
    EXPECT_EQ(r.days[i] - r.days[i - 1], cfg.stride);
  for (double v : r.nrmse) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
  }
  EXPECT_GT(r.ne_p95, 0.0);
}

TEST(Evaluation, NrmseMatchesManualComputation) {
  StaticScheme scheme;
  const EvalConfig cfg = tiny_config();
  const auto proto =
      models::make_model(models::ModelFamily::kRidge, tiny_scale(), 1);
  const EvalResult r = run_scheme(featurizer(), *proto, scheme, cfg);

  // Recreate the initial model and check one day by hand.
  const int anchor = cal::anchor_2018_07_01();
  const data::SupervisedSet train =
      featurizer().window(anchor - cfg.train_window + 1, anchor);
  const auto model = proto->clone_untrained();
  model->fit(train.X, train.y);
  const data::SupervisedSet test = featurizer().at_target_day(r.days[5]);
  const double manual = metrics::nrmse(model->predict(test.X), test.y,
                                       featurizer().norm_range());
  EXPECT_NEAR(r.nrmse[5], manual, 1e-12);
}

TEST(Evaluation, PredictionSinkReceivesTestSlices) {
  StaticScheme scheme;
  std::size_t total_preds = 0;
  const EvalResult r = run_scheme(
      featurizer(),
      *models::make_model(models::ModelFamily::kRidge, tiny_scale(), 1), scheme,
      tiny_config(),
      [&](int day, const data::SupervisedSet& test,
          std::span<const double> pred) {
        EXPECT_EQ(test.size(), pred.size());
        for (int td : test.target_day) EXPECT_EQ(td, day);
        total_preds += pred.size();
      });
  EXPECT_GE(total_preds, r.days.size());
}

TEST(Evaluation, DeterministicForSeed) {
  TriggeredScheme s1, s2;
  const auto model =
      models::make_model(models::ModelFamily::kGbdt, tiny_scale(), 3);
  const EvalResult a = run_scheme(featurizer(), *model, s1, tiny_config());
  const EvalResult b = run_scheme(featurizer(), *model, s2, tiny_config());
  EXPECT_EQ(a.retrain_days, b.retrain_days);
  EXPECT_EQ(a.nrmse, b.nrmse);
}

TEST(Evaluation, DeltaVsStaticSelfIsZero) {
  StaticScheme scheme;
  const EvalResult r =
      run_scheme(featurizer(),
                 *models::make_model(models::ModelFamily::kRidge, tiny_scale(), 1),
                 scheme, tiny_config());
  EXPECT_DOUBLE_EQ(delta_vs_static(r, r), 0.0);
}

/// Forecasts 0 for every row except every third one, which gets NaN.
class NanEveryThirdRow final : public models::Regressor {
 public:
  void fit(const Matrix&, std::span<const double>,
           std::span<const double>) override {
    trained_ = true;
  }
  double predict_one(std::span<const double>) const override { return 0.0; }
  void predict_into(const Matrix& X, std::span<double> out) const override {
    for (std::size_t i = 0; i < X.rows(); ++i)
      out[i] = i % 3 == 0 ? std::numeric_limits<double>::quiet_NaN() : 0.0;
  }
  std::unique_ptr<models::Regressor> clone_untrained() const override {
    return std::make_unique<NanEveryThirdRow>();
  }
  std::string name() const override { return "NanEveryThirdRow"; }
  bool trained() const override { return trained_; }

 private:
  bool trained_ = false;
};

TEST(Evaluation, NanSampleMakesNePercentileNaN) {
  const NanEveryThirdRow model;
  StaticScheme scheme;
  EvalConfig cfg = tiny_config();
  cfg.guard_nonfinite = false;
  const EvalResult r = run_scheme(featurizer(), model, scheme, cfg);
  ASSERT_FALSE(r.days.empty());
  EXPECT_TRUE(std::isnan(r.ne_p95));

  // NRMSE skips the NaN rows either way; the guard also drops their |NE|.
  cfg.guard_nonfinite = true;
  const EvalResult guarded = run_scheme(featurizer(), model, scheme, cfg);
  EXPECT_EQ(guarded.days, r.days);
  EXPECT_TRUE(std::isfinite(guarded.ne_p95));
}

TEST(Experiment, KpiDispersionMatchesStats) {
  const double d = kpi_dispersion(ds(), data::TargetKpi::kGDR);
  EXPECT_GT(d, 1.0);  // GDR is the most dispersed target
  EXPECT_GT(d, kpi_dispersion(ds(), data::TargetKpi::kDTP));
}

TEST(Experiment, MakeEvalConfigUsesScaleStride) {
  Scale s = tiny_scale();
  s.eval_stride_days = 3;
  const EvalConfig cfg = make_eval_config(s, 7);
  EXPECT_EQ(cfg.stride, 3);
  EXPECT_EQ(cfg.train_window, 14);
  EXPECT_EQ(cfg.horizon, 180);
  EXPECT_EQ(cfg.seed, 7u);
}

TEST(Experiment, CompareSchemesAveragesOverSeeds) {
  const std::vector<std::string> specs = {"Static", "Naive180"};
  const std::uint64_t seeds[] = {1, 2};
  const auto outcomes =
      compare_schemes(ds(), data::TargetKpi::kDVol, models::ModelFamily::kRidge,
                      tiny_scale(), specs, seeds);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].scheme, "Static");
  // Static vs static: delta 0 and 0 retrains.
  EXPECT_NEAR(outcomes[0].delta_pct, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(outcomes[0].retrains, 0.0);
  // Periodic scheme retrained.
  EXPECT_GT(outcomes[1].retrains, 0.0);
  EXPECT_GT(outcomes[0].static_nrmse, 0.0);
}

}  // namespace
}  // namespace leaf::core
