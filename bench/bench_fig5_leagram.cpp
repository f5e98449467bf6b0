// Figure 5 — "The LEAgrams that decompose NRMSE time-series" (§5).
//
// Builds LEAgrams (date x feature-bin heat maps of signed Normalized
// Error) for (a) the static CatBoost-stand-in and (b) the same model
// chain under LEAF mitigation, over the full test period, decomposed on
// pdcp_dl_datavol_mb.  Checks the paper's qualitative reads:
//   * Mar-Nov 2020 (lockdown): large POSITIVE errors (overestimation) in
//     the high-volume bins — operators would have overbuilt;
//   * after Oct 2021: overestimation again at mid/high bins, plus
//     negative pockets (underestimation -> user dissatisfaction);
//   * the mitigated LEAgram (b) is visibly flatter; the paper quotes a
//     32.68% error reduction with "a major mitigation focus ... at the
//     tail".
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "data/generator.hpp"
#include "explain/lea.hpp"
#include "models/factory.hpp"

using namespace leaf;

namespace {

/// Accumulates per-(day, bin) signed NE from run_scheme's prediction sink
/// and finalizes into a LeaGram.
struct LeaGramAccumulator {
  int feature;
  std::vector<double> edges;
  std::map<int, std::vector<std::pair<double, int>>> cells;  // day -> per-bin (sum, n)

  void add(int day, const data::SupervisedSet& test,
           std::span<const double> pred, double norm_range) {
    auto& row = cells[day];
    row.resize(edges.size() + 1, {0.0, 0});
    for (std::size_t i = 0; i < test.size(); ++i) {
      const double fv = test.X(i, static_cast<std::size_t>(feature));
      const std::size_t b = explain::lea_bin_of(fv, edges);
      row[b].first += (pred[i] - test.y[i]) / norm_range;
      row[b].second += 1;
    }
  }

  explain::LeaGram finalize(const std::string& name) const {
    explain::LeaGram g;
    g.feature = feature;
    g.feature_name = name;
    g.edges = edges;
    g.days.reserve(cells.size());
    for (const auto& [day, row] : cells) g.days.push_back(day);
    g.ne = Matrix(g.days.size(), edges.size() + 1,
                  std::numeric_limits<double>::quiet_NaN());
    std::size_t r = 0;
    for (const auto& [day, row] : cells) {
      for (std::size_t b = 0; b < row.size(); ++b)
        if (row[b].second > 0) g.ne(r, b) = row[b].first / row[b].second;
      ++r;
    }
    return g;
  }
};

void dump_csv(const explain::LeaGram& g, const std::string& file) {
  auto w = leaf::bench::csv(file);
  std::vector<std::string> header{"date"};
  for (std::size_t b = 0; b < g.edges.size() + 1; ++b)
    header.push_back("bin" + std::to_string(b));
  w.row(header);
  for (std::size_t r = 0; r < g.days.size(); ++r) {
    std::vector<std::string> row{cal::day_to_string(g.days[r])};
    for (std::size_t b = 0; b < g.ne.cols(); ++b) {
      const double v = g.ne(r, b);
      row.push_back(std::isfinite(v) ? fmt(v) : "");
    }
    w.row(row);
  }
  leaf::bench::require_ok(w);
}

/// Mean NE over finite cells of one calendar window (for the lockdown
/// overestimation check).
double window_mean_ne(const explain::LeaGram& g, int lo_day, int hi_day,
                      std::size_t lo_bin) {
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t r = 0; r < g.days.size(); ++r) {
    if (g.days[r] < lo_day || g.days[r] > hi_day) continue;
    for (std::size_t b = lo_bin; b < g.ne.cols(); ++b) {
      const double v = g.ne(r, b);
      if (!std::isfinite(v)) continue;
      acc += v;
      ++n;
    }
  }
  return n > 0 ? acc / static_cast<double>(n) : 0.0;
}

}  // namespace

int main() {
  const Scale scale = Scale::from_env();
  bench::banner("Figure 5",
                "LEAgram of static vs LEAF-mitigated GBDT on DVol "
                "(signed NE by date x pdcp_dl_datavol_mb bin)",
                scale);

  const data::CellularDataset ds = data::generate_fixed_dataset(scale);
  const data::Featurizer featurizer(ds, data::TargetKpi::kDVol);
  const double norm_range = featurizer.norm_range();
  const int feature = ds.schema().column_of("pdcp_dl_datavol_mb");

  // Shared bin edges from the full test period's feature values.
  const data::SupervisedSet full_test =
      featurizer.window(cal::anchor_2018_07_01() + 1,
                        ds.num_days() - 1 - featurizer.horizon());
  const int bins = 24;
  const std::vector<double> edges = explain::lea_bin_edges(
      full_test.X.col(static_cast<std::size_t>(feature)), bins);

  const auto model = models::make_model(models::ModelFamily::kGbdt, scale, 7);
  const core::EvalConfig cfg = core::make_eval_config(scale);
  const double dispersion = core::kpi_dispersion(ds, data::TargetKpi::kDVol);

  auto run_with_gram = [&](core::MitigationScheme& scheme) {
    LeaGramAccumulator acc{feature, edges, {}};
    const core::EvalResult result = core::run_scheme(
        featurizer, *model, scheme, cfg,
        [&](int day, const data::SupervisedSet& test,
            std::span<const double> pred) {
          acc.add(day, test, pred, norm_range);
        });
    return std::make_pair(acc.finalize("pdcp_dl_datavol_mb"), result);
  };

  core::StaticScheme static_scheme;
  const auto [gram_static, run_static] = run_with_gram(static_scheme);
  std::printf("--- (a) static model ---\n%s\n", gram_static.render().c_str());
  dump_csv(gram_static, "fig5a_leagram_static.csv");

  const auto leaf_scheme = core::make_scheme("LEAF", dispersion);
  const auto [gram_leaf, run_leaf] = run_with_gram(*leaf_scheme);
  std::printf("--- (b) LEAF-mitigated (%d retrains) ---\n%s\n",
              run_leaf.retrain_count(), gram_leaf.render().c_str());
  dump_csv(gram_leaf, "fig5b_leagram_leaf.csv");

  // Qualitative checks.
  const std::size_t hi_bin = (edges.size() + 1) / 2;
  const double lockdown_ne = window_mean_ne(
      gram_static, cal::covid_start(), cal::covid_recovery_end(), hi_bin);
  const double late21_ne = window_mean_ne(
      gram_static, cal::day_index(cal::Date{2021, 10, 1}),
      cal::day_index(cal::Date{2022, 3, 28}), hi_bin);
  std::printf("static mean NE, upper bins, Mar-Oct 2020 (lockdown): %+0.4f "
              "(paper: positive = overestimation)\n",
              lockdown_ne);
  std::printf("static mean NE, upper bins, Oct 2021 - Mar 2022:      %+0.4f\n",
              late21_ne);
  std::printf("mean |NE|: static %.4f -> LEAF %.4f  (%.1f%% reduction; "
              "paper quotes 32.68%%)\n",
              gram_static.mean_abs_ne(), gram_leaf.mean_abs_ne(),
              100.0 * (1.0 - gram_leaf.mean_abs_ne() /
                                 gram_static.mean_abs_ne()));
  std::printf("ΔNRMSE̅ of the LEAF run vs static: %+.2f%%\n",
              core::delta_vs_static(run_leaf, run_static));
  return 0;
}
