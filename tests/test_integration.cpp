// Integration tests: the full LEAF pipeline on small synthetic datasets.
//
// These check the end-to-end *claims* rather than units: drift exists and
// is detected near the known events, LEAF mitigates it, and the explainer
// recovers the planted feature structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/calendar.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/experiment.hpp"
#include "data/generator.hpp"
#include "explain/grouping.hpp"
#include "explain/importance.hpp"
#include "models/factory.hpp"

namespace leaf {
namespace {

Scale itest_scale() {
  Scale s = Scale::for_level(Scale::Level::kSmall);
  s.fixed_enbs = 12;
  s.num_kpis = 24;
  s.gbdt_trees = 25;
  s.eval_stride_days = 3;
  return s;
}

const data::CellularDataset& ds() {
  static const data::CellularDataset d =
      data::generate_fixed_dataset(itest_scale(), 42);
  return d;
}

TEST(Integration, StaticModelDrifts) {
  // The paper's core premise: a model trained mid-2018 degrades over the
  // years.  Compare first-year vs last-year NRMSE of the static model.
  const data::Featurizer f(ds(), data::TargetKpi::kDVol);
  core::StaticScheme scheme;
  const auto model = models::make_model(models::ModelFamily::kGbdt,
                                        itest_scale(), 1);
  const core::EvalResult r =
      core::run_scheme(f, *model, scheme, core::make_eval_config(itest_scale()));
  ASSERT_GT(r.days.size(), 100u);
  const std::size_t q = r.nrmse.size() / 4;
  const double early = stats::mean(
      std::span<const double>(r.nrmse.data(), q));
  const double late = stats::mean(
      std::span<const double>(r.nrmse.data() + 3 * q, q));
  EXPECT_GT(late, early * 1.3) << "static model should degrade over time";
}

TEST(Integration, DriftDetectedDuringCovidEra) {
  const data::Featurizer f(ds(), data::TargetKpi::kDVol);
  core::StaticScheme scheme;
  const auto model = models::make_model(models::ModelFamily::kGbdt,
                                        itest_scale(), 1);
  const core::EvalResult r =
      core::run_scheme(f, *model, scheme, core::make_eval_config(itest_scale()));
  ASSERT_FALSE(r.drift_days.empty());
  // The paper reports that "the beginning and end of the COVID-19
  // quarantine period are also effectively detected": require at least
  // one detection inside the lockdown-to-recovery era.  (The exact onset
  // date can be absorbed by a window reset from an earlier endogenous
  // event — e.g. the Dec 2019 software upgrade — so the check covers the
  // whole era rather than a fixed lag.)
  const int covid = cal::covid_start();
  const int era_end = cal::covid_recovery_end() + 60;
  const bool in_era =
      std::any_of(r.drift_days.begin(), r.drift_days.end(),
                  [&](int d) { return d >= covid && d <= era_end; });
  EXPECT_TRUE(in_era);
}

TEST(Integration, LeafMitigatesLowDispersionKpis) {
  // ΔNRMSE̅ of LEAF vs static must be clearly negative for DVol (the
  // paper's headline result), averaged over seeds for stability.
  const std::vector<std::string> specs = {"LEAF"};
  const std::uint64_t seeds[] = {11, 22};
  const auto outcomes = core::compare_schemes(
      ds(), data::TargetKpi::kDVol, models::ModelFamily::kGbdt, itest_scale(),
      specs, seeds);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_LT(outcomes[0].delta_pct, -5.0);
  EXPECT_GT(outcomes[0].retrains, 0.0);
}

TEST(Integration, LeafNeverCatastrophicallyWorse) {
  // Across all six targets, LEAF's seed-averaged ΔNRMSE̅ stays far from
  // the blow-ups triggered retraining can produce (paper: +44.6% GDR).
  const std::vector<std::string> specs = {"LEAF"};
  const std::uint64_t seeds[] = {11};
  for (data::TargetKpi t : data::kAllTargets) {
    const auto outcomes = core::compare_schemes(
        ds(), t, models::ModelFamily::kGbdt, itest_scale(), specs, seeds);
    // "Catastrophic" = the +44% class of blow-up the paper reports for
    // triggered retraining on GDR; a small single-seed regression at this
    // tiny test scale is tolerated.
    EXPECT_LT(outcomes[0].delta_pct, 20.0) << data::to_string(t);
  }
}

TEST(Integration, ExplainerRecoversVolumeGroupForDVolDrift) {
  // Train static, explain errors on the last 120 days: group 1's
  // representative should be anchored to the volume latent (the paper's
  // sanity check: "the most representative feature of the 1st group is
  // pdcp_dl_datavol_mb, the history of downlink volume itself").
  const data::Featurizer f(ds(), data::TargetKpi::kDVol);
  const int anchor = cal::anchor_2018_07_01();
  const data::SupervisedSet train = f.window(anchor - 13, anchor);
  const auto model = models::make_model(models::ModelFamily::kGbdt,
                                        itest_scale(), 1);
  model->fit(train.X, train.y);

  const int last_fd = ds().num_days() - 1 - f.horizon();
  const data::SupervisedSet recent = f.window(last_fd - 120, last_fd);
  Rng rng(5);
  const auto importance = explain::permutation_importance(
      *model, recent.X, recent.y, f.norm_range(), rng);
  const auto groups = explain::group_features(recent.X, importance, 3);
  ASSERT_FALSE(groups.empty());

  // The representative of group 1 must be a KPI column anchored on DVol
  // (either the volume history itself or a tightly coupled traffic
  // companion).
  const int rep = groups[0].representative;
  ASSERT_LT(rep, ds().num_kpis());
  EXPECT_EQ(static_cast<int>(ds().schema().spec(rep).anchor),
            static_cast<int>(data::LatentAnchor::kDVol))
      << "representative was " << f.feature_names()[static_cast<std::size_t>(rep)];
}

TEST(Integration, PuDataLossVisibleInErrorStream) {
  const data::Featurizer f(ds(), data::TargetKpi::kPU);
  core::StaticScheme scheme;
  const auto model = models::make_model(models::ModelFamily::kGbdt,
                                        itest_scale(), 1);
  const core::EvalResult r =
      core::run_scheme(f, *model, scheme, core::make_eval_config(itest_scale()));
  // Mean NRMSE inside the loss window well above the pre-loss level.
  double in_loss = 0.0, before = 0.0;
  int n_in = 0, n_before = 0;
  for (std::size_t i = 0; i < r.days.size(); ++i) {
    if (r.days[i] >= cal::pu_loss_start() + 14 &&
        r.days[i] <= cal::pu_loss_end()) {
      in_loss += r.nrmse[i];
      ++n_in;
    } else if (r.days[i] < cal::pu_loss_start()) {
      before += r.nrmse[i];
      ++n_before;
    }
  }
  ASSERT_GT(n_in, 0);
  ASSERT_GT(n_before, 0);
  // The PU normalizer includes extreme burst maxima, which dilutes the
  // relative size of the outage error — require a clear (1.4x) elevation
  // rather than a specific multiple.
  EXPECT_GT(in_loss / n_in, 1.4 * before / n_before);
}

TEST(Integration, EvolvingDatasetRunsEndToEnd) {
  Scale s = itest_scale();
  s.evolving_enbs_max = 20;
  const data::CellularDataset evolving = data::generate_evolving_dataset(s, 42);
  const data::Featurizer f(evolving, data::TargetKpi::kREst);
  const auto scheme =
      core::make_scheme("LEAF", core::kpi_dispersion(evolving, data::TargetKpi::kREst));
  const auto model = models::make_model(models::ModelFamily::kGbdt, s, 1);
  const core::EvalResult r =
      core::run_scheme(f, *model, *scheme, core::make_eval_config(s));
  EXPECT_GT(r.days.size(), 100u);
  for (double v : r.nrmse) EXPECT_TRUE(std::isfinite(v));
}

TEST(Integration, OverestimationDuringLockdown) {
  // Fig. 5a's key read: during the lockdown the static model's mean
  // signed NE is positive (overestimation — people moved to broadband).
  const data::Featurizer f(ds(), data::TargetKpi::kDVol);
  core::StaticScheme scheme;
  const auto model = models::make_model(models::ModelFamily::kGbdt,
                                        itest_scale(), 1);
  const core::EvalResult r =
      core::run_scheme(f, *model, scheme, core::make_eval_config(itest_scale()));
  double ne = 0.0;
  int n = 0;
  for (std::size_t i = 0; i < r.days.size(); ++i) {
    if (r.days[i] >= cal::covid_start() + 21 &&
        r.days[i] <= cal::day_index(cal::Date{2020, 9, 1})) {
      ne += r.mean_ne[i];
      ++n;
    }
  }
  ASSERT_GT(n, 0);
  EXPECT_GT(ne / n, 0.0);
}

}  // namespace
}  // namespace leaf
