#include "explain/lea.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>

#include "common/ascii_plot.hpp"
#include "common/csv.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"

namespace leaf::explain {

std::vector<double> lea_bin_edges(std::span<const double> feature_values,
                                  int bins) {
  assert(bins >= 1);
  std::vector<double> edges = stats::quantile_edges(feature_values,
                                                    static_cast<std::size_t>(bins));
  // Deduplicate ties so bins are well-defined.
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

std::size_t lea_bin_of(double value, std::span<const double> edges) {
  // A value equal to an edge belongs to the bin on its left, matching the
  // decision trees' `x <= threshold` split convention.
  const auto it = std::lower_bound(edges.begin(), edges.end(), value);
  return static_cast<std::size_t>(it - edges.begin());
}

double LeaResult::bin_center(std::size_t b) const {
  if (edges.empty()) return 0.0;
  if (b == 0) return edges.front();
  if (b >= edges.size()) return edges.back();
  return 0.5 * (edges[b - 1] + edges[b]);
}

LeaResult compute_lea(std::span<const double> pred,
                      std::span<const double> truth,
                      std::span<const double> feature_values, int feature,
                      double norm_range, std::span<const double> edges) {
  assert(pred.size() == truth.size());
  assert(pred.size() == feature_values.size());
  assert(norm_range > 0.0);

  LeaResult out;
  out.feature = feature;
  out.edges.assign(edges.begin(), edges.end());
  const std::size_t nb = edges.size() + 1;
  out.error.assign(nb, 0.0);
  out.count.assign(nb, 0);

  // Accumulate squared errors per bin, then convert to per-bin NRMSE.
  std::vector<double> sq(nb, 0.0);
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const std::size_t b = lea_bin_of(feature_values[i], edges);
    const double d = pred[i] - truth[i];
    sq[b] += d * d;
    ++out.count[b];
  }
  for (std::size_t b = 0; b < nb; ++b) {
    if (out.count[b] == 0) continue;
    out.error[b] =
        std::sqrt(sq[b] / static_cast<double>(out.count[b])) / norm_range;
  }
  return out;
}

LeaResult compute_lea(const models::Regressor& model,
                      const data::SupervisedSet& set, int feature, int bins,
                      double norm_range, std::span<const double> edges) {
  const std::vector<double> fv = set.X.col(static_cast<std::size_t>(feature));
  std::vector<double> own_edges;
  if (edges.empty()) {
    own_edges = lea_bin_edges(fv, bins);
    edges = own_edges;
  }
  const std::vector<double> pred = model.predict(set.X);
  return compute_lea(pred, set.y, fv, feature, norm_range, edges);
}

std::string LeaPlot::render(int width, int height) const {
  // One line series per subset, sampled on the shared bin axis.
  std::vector<std::pair<std::string, std::vector<double>>> chart;
  for (const auto& [name, lea] : series) chart.emplace_back(name, lea.error);
  plot::LineChartOptions opts;
  opts.width = width;
  opts.height = height;
  opts.title = "LEAplot: per-bin NRMSE vs quantile bins of '" + feature_name + "'";
  opts.x_label = "quantile bin of " + feature_name +
                 (edges.empty() ? ""
                                : "  [" + fmt(edges.front()) + " .. " +
                                      fmt(edges.back()) + "]");
  opts.y_label = "local NRMSE";
  return plot::line_chart(chart, opts);
}

std::vector<std::vector<std::string>> LeaPlot::csv_rows() const {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header{"bin_center"};
  for (const auto& [name, lea] : series) {
    header.push_back(name + "_nrmse");
    header.push_back(name + "_count");
  }
  rows.push_back(std::move(header));
  if (series.empty()) return rows;
  const std::size_t nb = series.front().second.num_bins();
  for (std::size_t b = 0; b < nb; ++b) {
    std::vector<std::string> row{fmt(series.front().second.bin_center(b))};
    for (const auto& [name, lea] : series) {
      row.push_back(fmt(b < lea.error.size() ? lea.error[b] : 0.0));
      row.push_back(std::to_string(b < lea.count.size() ? lea.count[b] : 0));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

LeaPlot build_leaplot(
    const models::Regressor& model,
    const std::vector<std::pair<std::string, const data::SupervisedSet*>>& subsets,
    int feature, const std::string& feature_name, int bins,
    double norm_range) {
  LeaPlot out;
  out.feature = feature;
  out.feature_name = feature_name;

  // Shared x-axis: quantile edges over the union of all subsets.
  std::vector<double> all_values;
  for (const auto& [name, set] : subsets) {
    const auto col = set->X.col(static_cast<std::size_t>(feature));
    all_values.insert(all_values.end(), col.begin(), col.end());
  }
  out.edges = lea_bin_edges(all_values, bins);

  for (const auto& [name, set] : subsets) {
    out.series.emplace_back(
        name, compute_lea(model, *set, feature, bins, norm_range, out.edges));
  }
  return out;
}

double LeaGram::mean_abs_ne() const {
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t r = 0; r < ne.rows(); ++r) {
    for (std::size_t c = 0; c < ne.cols(); ++c) {
      const double v = ne(r, c);
      if (!std::isfinite(v)) continue;
      acc += std::abs(v);
      ++n;
    }
  }
  return n > 0 ? acc / static_cast<double>(n) : 0.0;
}

std::string LeaGram::render() const {
  plot::HeatMapOptions opts;
  opts.title = "LEAgram: signed Normalized Error, '" + feature_name +
               "' bins (y, low at top) vs time (x)";
  opts.diverging = true;
  opts.x_label = "target date (ascending)";
  opts.y_label = "quantile bin of " + feature_name;
  // Transpose conceptually: our matrix is days x bins, the paper draws
  // time on x.  heat_map takes rows as y, so feed bins x days.
  Matrix t(ne.cols(), ne.rows(), std::numeric_limits<double>::quiet_NaN());
  for (std::size_t r = 0; r < ne.rows(); ++r)
    for (std::size_t c = 0; c < ne.cols(); ++c) t(c, r) = ne(r, c);
  return plot::heat_map(t, opts);
}

LeaGram build_leagram(const models::Regressor& model,
                      const data::SupervisedSet& test, int feature,
                      const std::string& feature_name, int bins,
                      double norm_range) {
  LeaGram out;
  out.feature = feature;
  out.feature_name = feature_name;

  const std::vector<double> fv = test.X.col(static_cast<std::size_t>(feature));
  out.edges = lea_bin_edges(fv, bins);
  const std::size_t nb = out.edges.size() + 1;

  // Distinct target days, ascending.
  std::map<int, std::size_t> day_row;
  for (int d : test.target_day) day_row.emplace(d, 0);
  out.days.reserve(day_row.size());
  for (auto& [d, row] : day_row) {
    row = out.days.size();
    out.days.push_back(d);
  }

  const std::vector<double> pred = model.predict(test.X);
  Matrix sum(out.days.size(), nb, 0.0);
  Matrix cnt(out.days.size(), nb, 0.0);
  for (std::size_t i = 0; i < test.size(); ++i) {
    const std::size_t r = day_row[test.target_day[i]];
    const std::size_t b = lea_bin_of(fv[i], out.edges);
    sum(r, b) += metrics::normalized_error(pred[i], test.y[i], norm_range);
    cnt(r, b) += 1.0;
  }
  out.ne = Matrix(out.days.size(), nb,
                  std::numeric_limits<double>::quiet_NaN());
  for (std::size_t r = 0; r < out.days.size(); ++r)
    for (std::size_t b = 0; b < nb; ++b)
      if (cnt(r, b) > 0.0) out.ne(r, b) = sum(r, b) / cnt(r, b);
  return out;
}

}  // namespace leaf::explain
