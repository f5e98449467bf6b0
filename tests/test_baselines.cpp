// Unit tests for the extension baselines: WeightedEnsemble, Persistence,
// Paired Learners, and AUE2.
#include <gtest/gtest.h>

#include <cmath>

#include "common/calendar.hpp"
#include "core/baselines.hpp"
#include "core/experiment.hpp"
#include "data/generator.hpp"
#include "models/ensemble.hpp"
#include "models/factory.hpp"
#include "models/persistence.hpp"
#include "models/ridge.hpp"

namespace leaf {
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

// --- WeightedEnsemble -------------------------------------------------------

std::shared_ptr<models::Ridge> constant_model(double value) {
  // A Ridge fit on a constant target predicts that constant everywhere.
  auto m = std::make_shared<models::Ridge>();
  Matrix x(4, 1);
  for (std::size_t i = 0; i < 4; ++i) x(i, 0) = static_cast<double>(i);
  m->fit(x, std::vector<double>(4, value));
  return m;
}

TEST(WeightedEnsemble, WeightedAverageOfMembers) {
  models::WeightedEnsemble ens;
  ens.add_member(constant_model(0.0), 1.0);
  ens.add_member(constant_model(10.0), 3.0);
  const std::vector<double> x = {1.0};
  EXPECT_NEAR(ens.predict_one(x), 7.5, 1e-9);
  EXPECT_EQ(ens.size(), 2u);
}

TEST(WeightedEnsemble, AllZeroWeightsFallBackToMean) {
  models::WeightedEnsemble ens;
  ens.add_member(constant_model(2.0), 0.0);
  ens.add_member(constant_model(4.0), 0.0);
  const std::vector<double> x = {1.0};
  EXPECT_NEAR(ens.predict_one(x), 3.0, 1e-9);
}

TEST(WeightedEnsemble, UntrainedWhenEmpty) {
  models::WeightedEnsemble ens;
  EXPECT_FALSE(ens.trained());
  EXPECT_FALSE(ens.clone_untrained()->trained());
}

// --- Persistence ---------------------------------------------------------------

TEST(Persistence, LearnsGrowthRatio) {
  Matrix x(50, 2);
  std::vector<double> y(50);
  Rng rng(3);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.uniform(10.0, 100.0);  // target history column
    x(i, 1) = rng.normal();              // irrelevant
    y[i] = 1.2 * x(i, 0);
  }
  models::Persistence p(0);
  p.fit(x, y);
  EXPECT_NEAR(p.ratio(), 1.2, 1e-9);
  const std::vector<double> probe = {50.0, 0.0};
  EXPECT_NEAR(p.predict_one(probe), 60.0, 1e-9);
}

TEST(Persistence, ZeroHistoryFallsBackToMean) {
  Matrix x(4, 1);
  x(0, 0) = 1.0;
  x(1, 0) = 2.0;
  x(2, 0) = 0.0;  // lost reading
  x(3, 0) = 1.0;
  const std::vector<double> y = {2.0, 4.0, 6.0, 2.0};
  models::Persistence p(0);
  p.fit(x, y);
  const std::vector<double> lost = {0.0};
  EXPECT_NEAR(p.predict_one(lost), 3.5, 1e-9);  // mean of y
}

TEST(Persistence, IsReasonableForecasterOnSyntheticData) {
  const data::Featurizer f(ds(), data::TargetKpi::kDVol);
  const models::Persistence p(ds().schema().target_column(data::TargetKpi::kDVol));
  core::StaticScheme scheme;
  const auto run = core::run_scheme(f, p, scheme,
                                    core::make_eval_config(tiny_scale()));
  // The scaled-last-value model should achieve non-trivial accuracy:
  // better than NRMSE 0.5 everywhere on a KPI whose history is a feature.
  EXPECT_GT(run.days.size(), 100u);
  EXPECT_LT(run.avg_nrmse(), 0.5);
}

// --- Paired Learners -------------------------------------------------------------

TEST(PairedLearners, ReplacesStableModelUnderDrift) {
  const data::Featurizer f(ds(), data::TargetKpi::kDVol);
  core::PairedLearnersScheme scheme;
  const auto model =
      models::make_model(models::ModelFamily::kRidge, tiny_scale(), 1);
  const auto run = core::run_scheme(f, *model, scheme,
                                    core::make_eval_config(tiny_scale()));
  // Four drifting years must force at least one replacement.
  EXPECT_GT(run.retrain_count(), 0);
}

TEST(PairedLearners, QuietWithoutPrototype) {
  core::PairedLearnersScheme scheme;
  scheme.reset();
  const data::Featurizer f(ds(), data::TargetKpi::kDVol);
  const auto model =
      models::make_model(models::ModelFamily::kRidge, tiny_scale(), 1);
  const data::SupervisedSet train = f.window(170, 183);
  model->fit(train.X, train.y);
  core::SchemeContext ctx{.featurizer = f,
                          .model = *model,
                          .current_train = train,
                          .eval_day = 900,
                          .nrmse = 0.1,
                          .drift = false,
                          .train_window = 14,
                          .prototype = nullptr};
  EXPECT_FALSE(scheme.on_step(ctx).has_value());
}

// --- AUE2 ---------------------------------------------------------------------

TEST(Aue2, BuildsEnsembleEveryChunk) {
  const data::Featurizer f(ds(), data::TargetKpi::kDVol);
  core::Aue2Scheme scheme;
  const auto model =
      models::make_model(models::ModelFamily::kRidge, tiny_scale(), 1);
  const core::EvalConfig ecfg = core::make_eval_config(tiny_scale());
  const auto run = core::run_scheme(f, *model, scheme, ecfg);
  // One replacement per chunk after the first.
  const int span = run.days.back() - run.days.front();
  EXPECT_NEAR(run.retrain_count(), span / core::Aue2Scheme::kChunkDays, 2);
  EXPECT_GE(scheme.member_count(), 1u);
}

TEST(Aue2, MemberCountCapped) {
  const data::Featurizer f(ds(), data::TargetKpi::kDVol);
  core::Aue2Scheme scheme;
  const auto model =
      models::make_model(models::ModelFamily::kRidge, tiny_scale(), 1);
  const auto run = core::run_scheme(f, *model, scheme,
                                    core::make_eval_config(tiny_scale()));
  // Many more chunks than members: the ensemble fills up to the cap and
  // stays there.
  ASSERT_GT(static_cast<std::size_t>(run.retrain_count()),
            2 * core::Aue2Scheme::kMaxMembers);
  EXPECT_EQ(scheme.member_count(), core::Aue2Scheme::kMaxMembers);
}

TEST(Aue2, MitigatesRelativeToStatic) {
  const data::Featurizer f(ds(), data::TargetKpi::kDVol);
  const auto model =
      models::make_model(models::ModelFamily::kRidge, tiny_scale(), 1);
  const core::EvalConfig cfg = core::make_eval_config(tiny_scale());
  core::StaticScheme s0;
  const auto static_run = core::run_scheme(f, *model, s0, cfg);
  core::Aue2Scheme aue;
  const auto aue_run = core::run_scheme(f, *model, aue, cfg);
  EXPECT_LT(core::delta_vs_static(aue_run, static_run), 0.0);
}

TEST(SchemeFactory, BuildsExtensionBaselines) {
  EXPECT_EQ(core::make_scheme("PairedLearners", 1.0)->name(), "PairedLearners");
  EXPECT_EQ(core::make_scheme("AUE2", 1.0)->name(), "AUE2");
}

}  // namespace
}  // namespace leaf
