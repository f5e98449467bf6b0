// Capacity-planning case study (the paper's §5 walk-through).
//
// An operator runs a 180-day-ahead downlink-volume forecaster to plan
// infrastructure augmentation.  This example plays the full story:
//   1. deploy a model trained on two weeks of mid-2018 data;
//   2. watch its NRMSE stream with KSWIN until drift fires in early 2022;
//   3. explain the drift: which correlated feature groups are
//      responsible, where in feature space the error lives (LEAplot),
//      and how over/under-estimation evolved over time (LEAgram);
//   4. localize the worst-hit eNodeBs by area;
//   5. apply LEAF's informed mitigation and compare before/after.
#include <algorithm>
#include <cstdio>
#include <map>

#include "common/calendar.hpp"
#include "common/config.hpp"
#include "core/experiment.hpp"
#include "data/generator.hpp"
#include "explain/grouping.hpp"
#include "explain/importance.hpp"
#include "explain/lea.hpp"
#include "models/factory.hpp"

using namespace leaf;

int main() {
  const Scale scale = Scale::from_env();
  std::printf("LEAF capacity-planning case study (scale=%s)\n\n",
              scale.name().c_str());

  const data::CellularDataset ds = data::generate_fixed_dataset(scale);
  const data::Featurizer featurizer(ds, data::TargetKpi::kDVol);
  const double norm_range = featurizer.norm_range();

  // --- 1. deploy -----------------------------------------------------------
  const int anchor = cal::anchor_2018_07_01();
  const data::SupervisedSet train = featurizer.window(anchor - 13, anchor);
  const auto model = models::make_model(models::ModelFamily::kGbdt, scale, 7);
  model->fit(train.X, train.y);
  std::printf("deployed GBDT forecaster: trained on %zu samples "
              "(2018-06-18 .. 2018-07-01), horizon 180 days\n\n",
              train.size());

  // --- 2. monitor: where does the detector fire? ---------------------------
  core::StaticScheme static_scheme;
  const core::EvalConfig cfg = core::make_eval_config(scale);
  const core::EvalResult static_run =
      core::run_scheme(featurizer, *model, static_scheme, cfg);
  std::printf("KSWIN detections on the static model's NRMSE stream:\n");
  for (int d : static_run.drift_days)
    std::printf("  %s\n", cal::day_to_string(d).c_str());

  // --- 3. explain the early-2022 drift --------------------------------------
  const data::SupervisedSet early_2022 = featurizer.window(
      cal::early_2022() - featurizer.horizon(),
      ds.num_days() - 1 - featurizer.horizon());
  Rng rng(515);
  const std::vector<double> importance = explain::permutation_importance(
      *model, early_2022.X, early_2022.y, norm_range, rng);
  // Restrict explanations to KPI columns (temporal/area encodings are not
  // operator-meaningful drift factors).
  std::vector<double> kpi_importance = importance;
  for (std::size_t c = static_cast<std::size_t>(featurizer.num_kpi_features());
       c < kpi_importance.size(); ++c)
    kpi_importance[c] = 0.0;
  const auto groups = explain::group_features(early_2022.X, kpi_importance, 3);

  std::printf("\ncontributing feature groups for the early-2022 drift:\n");
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::printf("  group %zu: representative '%s' (importance %.4f, %zu "
                "correlated features)\n",
                g + 1,
                featurizer.feature_names()[static_cast<std::size_t>(
                    groups[g].representative)].c_str(),
                groups[g].importance, groups[g].members.size());
  }

  if (!groups.empty()) {
    const int rep = groups[0].representative;
    const std::string rep_name =
        featurizer.feature_names()[static_cast<std::size_t>(rep)];
    const data::SupervisedSet full_test = featurizer.window(
        anchor + 1, ds.num_days() - 1 - featurizer.horizon());
    const explain::LeaPlot leaplot = explain::build_leaplot(
        *model,
        {{"train", &train}, {"full_test", &full_test}, {"early_2022", &early_2022}},
        rep, rep_name, 40, norm_range);
    std::printf("\n%s\n", leaplot.render().c_str());

    const explain::LeaGram leagram =
        explain::build_leagram(*model, full_test, rep, rep_name, 20, norm_range);
    std::printf("%s\n", leagram.render().c_str());
    std::printf("reading the LEAgram: '@' cells after March 2020 are "
                "overestimation (operators would over-build); '#' cells are "
                "underestimation (users would suffer).\n\n");
  }

  // --- 4. localize the worst eNodeBs ----------------------------------------
  const std::vector<double> pred = model->predict(early_2022.X);
  std::vector<std::pair<double, int>> err(early_2022.size());
  for (std::size_t i = 0; i < early_2022.size(); ++i)
    err[i] = {std::abs(pred[i] - early_2022.y[i]), early_2022.enb[i]};
  std::sort(err.begin(), err.end(), std::greater<>());
  std::map<data::AreaType, int> tally;
  const std::size_t top = std::max<std::size_t>(1, err.size() / 20);
  for (std::size_t i = 0; i < top; ++i)
    ++tally[ds.profiles()[static_cast<std::size_t>(err[i].second)].area];
  std::printf("top-5%% error samples by area:");
  for (const auto& [area, n] : tally)
    std::printf("  %s=%d", data::to_string(area).c_str(), n);
  std::printf("\n(the paper traces these to suburban commuter sites whose "
              "mobility changed)\n\n");

  // --- 5. mitigate ---------------------------------------------------------
  const double dispersion = core::kpi_dispersion(ds, data::TargetKpi::kDVol);
  const auto leaf = core::make_scheme("LEAF3", dispersion);
  const core::EvalResult leaf_run =
      core::run_scheme(featurizer, *model, *leaf, cfg);
  std::printf("LEAF(3 groups) mitigation: ΔNRMSE̅ %+.2f%% vs static with %d "
              "retrains; p95 |NE| %.3f -> %.3f\n",
              core::delta_vs_static(leaf_run, static_run),
              leaf_run.retrain_count(), static_run.ne_p95, leaf_run.ne_p95);
  return 0;
}
