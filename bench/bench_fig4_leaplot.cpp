// Figures 4 and 8 — the case study's LEAplots (§5, Appendix B), plus the
// "contributing factors" analysis that precedes them.
//
// CatBoost-stand-in on downlink volume, trained statically on 14 days
// before July 1 2018.  The explainer runs on the "Early 2022" drift
// window and should recover the paper's structure:
//   * Group 1's representative is the history of downlink volume itself
//     (pdcp_dl_datavol_mb), with a large correlated group of traffic
//     features — the sanity check;
//   * another group is anchored on coverage (badcoveragemeasurements);
//   * another on the voice/RTP gap features (rtp_gap_ratio_medium);
//   * the LEAplot shows "Early 2022" errors many times the training-set
//     errors in the upper feature range, and very high errors above the
//     range the training set covers at all;
//   * the top-5% error samples concentrate in suburban eNodeBs.
#include <algorithm>
#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "data/generator.hpp"
#include "explain/grouping.hpp"
#include "explain/importance.hpp"
#include "explain/lea.hpp"
#include "models/factory.hpp"

using namespace leaf;

int main() {
  const Scale scale = Scale::from_env();
  bench::banner("Figures 4 & 8",
                "Case study: drift explanation via feature groups + LEAplot "
                "(DVol, GBDT, early-2022 drift)",
                scale);

  const data::CellularDataset ds = data::generate_fixed_dataset(scale);
  const data::Featurizer featurizer(ds, data::TargetKpi::kDVol);
  const double norm_range = featurizer.norm_range();

  // Static model: 14 days before July 1 2018.
  const int anchor = cal::anchor_2018_07_01();
  const data::SupervisedSet train = featurizer.window(anchor - 13, anchor);
  const auto model = models::make_model(models::ModelFamily::kGbdt, scale, 7);
  model->fit(train.X, train.y);

  // Test slices: the full test period and the early-2022 drift window.
  const data::SupervisedSet full_test = featurizer.window(
      anchor + 1, ds.num_days() - 1 - featurizer.horizon());
  const data::SupervisedSet early_2022 = featurizer.window(
      cal::early_2022() - featurizer.horizon(),
      ds.num_days() - 1 - featurizer.horizon());

  // --- contributing factors: importance -> grouping ----------------------
  Rng rng(515);
  const std::vector<double> importance = explain::permutation_importance(
      *model, early_2022.X, early_2022.y, norm_range, rng);
  // Restrict explanations to KPI columns (temporal/area encodings are not
  // operator-meaningful drift factors).
  std::vector<double> kpi_importance = importance;
  for (std::size_t c = static_cast<std::size_t>(featurizer.num_kpi_features());
       c < kpi_importance.size(); ++c)
    kpi_importance[c] = 0.0;
  const std::vector<explain::FeatureGroup> groups =
      explain::group_features(early_2022.X, kpi_importance, 3);

  std::printf("--- contributing factors (top %zu feature groups) ---\n",
              groups.size());
  TextTable gt({"Group", "Representative", "Importance", "#Members",
                "Member examples"});
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::string examples;
    for (std::size_t m = 1; m < std::min<std::size_t>(4, groups[g].members.size());
         ++m) {
      if (!examples.empty()) examples += ", ";
      examples +=
          featurizer.feature_names()[static_cast<std::size_t>(groups[g].members[m])];
    }
    gt.add_row({std::to_string(g + 1),
                featurizer.feature_names()[static_cast<std::size_t>(
                    groups[g].representative)],
                fmt_fixed(groups[g].importance, 4),
                std::to_string(groups[g].members.size()), examples});
  }
  std::printf("%s", gt.render().c_str());
  std::printf("paper: group 1 rep = pdcp_dl_datavol_mb (32 members), "
              "group 2 = badcoveragemeasurements, group 3 = "
              "rtp_gap_ratio_medium\n\n");

  // --- LEAplots for the top two groups (Figs. 4 and 8) -------------------
  const int bins = scale.level == Scale::Level::kFull ? 1000 : 50;
  for (std::size_t g = 0; g < std::min<std::size_t>(2, groups.size()); ++g) {
    const int rep = groups[g].representative;
    const std::string rep_name =
        featurizer.feature_names()[static_cast<std::size_t>(rep)];
    const explain::LeaPlot leaplot = explain::build_leaplot(
        *model,
        {{"train", &train}, {"full_test", &full_test}, {"early_2022", &early_2022}},
        rep, rep_name, bins, norm_range);
    std::printf("%s\n", leaplot.render().c_str());

    auto w = bench::csv("fig4_leaplot_group" + std::to_string(g + 1) + ".csv");
    for (const auto& row : leaplot.csv_rows()) w.row(row);
    bench::require_ok(w);

    // Quantify the paper's "10x training error in the 0.6e6-1.3e6 range"
    // claim structurally: mean per-bin error ratio early2022/train over
    // bins where both have samples.
    const auto& tr = leaplot.series[0].second;
    const auto& e22 = leaplot.series[2].second;
    double ratio_acc = 0.0;
    int ratio_n = 0;
    double uncovered_err = 0.0;
    int uncovered_n = 0;
    for (std::size_t b = 0; b < tr.num_bins(); ++b) {
      if (tr.count[b] > 0 && e22.count[b] > 0 && tr.error[b] > 0.0) {
        ratio_acc += e22.error[b] / tr.error[b];
        ++ratio_n;
      }
      if (tr.count[b] == 0 && e22.count[b] > 0) {
        uncovered_err += e22.error[b];
        ++uncovered_n;
      }
    }
    std::printf("group %zu: mean early2022/train per-bin error ratio: %.1fx "
                "(over %d shared bins); mean error in bins the training set "
                "does not cover: %.4f\n\n",
                g + 1, ratio_n > 0 ? ratio_acc / ratio_n : 0.0, ratio_n,
                uncovered_n > 0 ? uncovered_err / uncovered_n : 0.0);
  }

  // --- top-5% error localization (suburban claim) -------------------------
  const std::vector<double> pred = model->predict(early_2022.X);
  std::vector<std::pair<double, int>> err_enb(early_2022.size());
  for (std::size_t i = 0; i < early_2022.size(); ++i)
    err_enb[i] = {std::abs(pred[i] - early_2022.y[i]), early_2022.enb[i]};
  std::sort(err_enb.begin(), err_enb.end(), std::greater<>());
  const std::size_t top = std::max<std::size_t>(1, err_enb.size() / 20);
  std::map<data::AreaType, int> area_counts, fleet_counts;
  for (std::size_t i = 0; i < top; ++i)
    ++area_counts[ds.profiles()[static_cast<std::size_t>(err_enb[i].second)].area];
  for (const auto& p : ds.profiles()) ++fleet_counts[p.area];
  std::printf("--- top-5%% error samples by area (early 2022) ---\n");
  for (const auto& [area, count] : area_counts) {
    std::printf("  %-9s %5.1f%% of top errors  (fleet share %4.1f%%)\n",
                data::to_string(area).c_str(),
                100.0 * count / static_cast<double>(top),
                100.0 * fleet_counts[area] /
                    static_cast<double>(ds.profiles().size()));
  }
  std::printf("paper: \"the top 5%% of error mostly comes from eNodeBs "
              "located at suburban areas\"\n");
  return 0;
}
