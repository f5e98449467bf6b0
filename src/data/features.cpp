#include "data/features.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/calendar.hpp"

namespace leaf::data {

void SupervisedSet::append(const SupervisedSet& other) {
  assert(X.cols() == 0 || other.X.cols() == 0 || X.cols() == other.X.cols());
  for (std::size_t r = 0; r < other.size(); ++r) X.append_row(other.X.row(r));
  y.insert(y.end(), other.y.begin(), other.y.end());
  feature_day.insert(feature_day.end(), other.feature_day.begin(),
                     other.feature_day.end());
  target_day.insert(target_day.end(), other.target_day.begin(),
                    other.target_day.end());
  enb.insert(enb.end(), other.enb.begin(), other.enb.end());
}

SupervisedSet SupervisedSet::subset(std::span<const std::size_t> rows) const {
  SupervisedSet out;
  out.X = X.gather_rows(rows);
  out.y.reserve(rows.size());
  out.feature_day.reserve(rows.size());
  out.target_day.reserve(rows.size());
  out.enb.reserve(rows.size());
  for (std::size_t r : rows) {
    out.y.push_back(y[r]);
    out.feature_day.push_back(feature_day[r]);
    out.target_day.push_back(target_day[r]);
    out.enb.push_back(enb[r]);
  }
  return out;
}

namespace {

/// Index of `enb` in the (ascending) per-day eNodeB list, or -1.
int find_enb_row(std::span<const int> enbs, int enb) {
  const auto it = std::lower_bound(enbs.begin(), enbs.end(), enb);
  if (it == enbs.end() || *it != enb) return -1;
  return static_cast<int>(it - enbs.begin());
}

constexpr int kTemporalFeatures = 5;  // dow sin/cos, doy sin/cos, years
constexpr int kAreaFeatures = 3;      // one-hot urban/suburban/rural

}  // namespace

Featurizer::Featurizer(const CellularDataset& ds, TargetKpi target,
                       int horizon)
    : ds_(&ds),
      target_(target),
      target_col_(ds.schema().target_column(target)),
      horizon_(horizon) {
  assert(horizon_ > 0);
  const auto [lo, hi] = ds.value_range(target_col_);
  norm_range_ = hi > lo ? hi - lo : 1.0;

  names_.reserve(static_cast<std::size_t>(num_features()));
  for (int c = 0; c < ds.schema().size(); ++c)
    names_.push_back(ds.schema().spec(c).name);
  names_.emplace_back("t_dow_sin");
  names_.emplace_back("t_dow_cos");
  names_.emplace_back("t_doy_sin");
  names_.emplace_back("t_doy_cos");
  names_.emplace_back("t_years");
  names_.emplace_back("area_urban");
  names_.emplace_back("area_suburban");
  names_.emplace_back("area_rural");
}

int Featurizer::num_features() const {
  return ds_->schema().size() + kTemporalFeatures + kAreaFeatures;
}

int Featurizer::num_kpi_features() const { return ds_->schema().size(); }

void Featurizer::fill_row(int day, int day_row, int enb_profile_idx,
                          std::span<double> out) const {
  const auto kpis = ds_->log_on_day(day, day_row);
  const int nk = ds_->schema().size();
  for (int c = 0; c < nk; ++c)
    out[static_cast<std::size_t>(c)] = static_cast<double>(kpis[static_cast<std::size_t>(c)]);

  const double dow = static_cast<double>(cal::day_of_week(day));
  const double doy = static_cast<double>(cal::day_of_year(day));
  std::size_t i = static_cast<std::size_t>(nk);
  out[i++] = std::sin(2.0 * M_PI * dow / 7.0);
  out[i++] = std::cos(2.0 * M_PI * dow / 7.0);
  out[i++] = std::sin(2.0 * M_PI * doy / 365.25);
  out[i++] = std::cos(2.0 * M_PI * doy / 365.25);
  out[i++] = static_cast<double>(day) / 365.25;

  const AreaType area =
      ds_->profiles()[static_cast<std::size_t>(enb_profile_idx)].area;
  out[i++] = area == AreaType::kUrban ? 1.0 : 0.0;
  out[i++] = area == AreaType::kSuburban ? 1.0 : 0.0;
  out[i++] = area == AreaType::kRural ? 1.0 : 0.0;
  assert(i == static_cast<std::size_t>(num_features()));
}

SupervisedSet Featurizer::window(int first_feature_day,
                                 int last_feature_day) const {
  SupervisedSet out;
  out.X = Matrix(0, static_cast<std::size_t>(num_features()));
  const int last = std::min(last_feature_day, ds_->num_days() - 1 - horizon_);
  std::vector<double> row(static_cast<std::size_t>(num_features()));
  for (int d = std::max(0, first_feature_day); d <= last; ++d) {
    const int td = d + horizon_;
    const auto feature_enbs = ds_->enb_indices_on_day(d);
    const auto target_enbs = ds_->enb_indices_on_day(td);
    for (std::size_t i = 0; i < feature_enbs.size(); ++i) {
      const int e = feature_enbs[i];
      const int trow = find_enb_row(target_enbs, e);
      if (trow < 0) continue;
      fill_row(d, static_cast<int>(i), e, row);
      out.X.append_row(row);
      out.y.push_back(target_at(td, trow));
      out.feature_day.push_back(d);
      out.target_day.push_back(td);
      out.enb.push_back(e);
    }
  }
  return out;
}

double Featurizer::target_at(int target_day, int day_row) const {
  return static_cast<double>(ds_->log_on_day(target_day, day_row)
                                 [static_cast<std::size_t>(target_col_)]);
}

SupervisedSet Featurizer::at_target_day(int day) const {
  return window(day - horizon_, day - horizon_);
}

bool Featurizer::row(int feature_day, int enb, std::span<double> x,
                     double& y) const {
  assert(x.size() == static_cast<std::size_t>(num_features()));
  if (feature_day < 0 || feature_day > ds_->num_days() - 1 - horizon_)
    return false;
  const int td = feature_day + horizon_;
  const int frow = find_enb_row(ds_->enb_indices_on_day(feature_day), enb);
  const int trow = find_enb_row(ds_->enb_indices_on_day(td), enb);
  if (frow < 0 || trow < 0) return false;
  fill_row(feature_day, frow, enb, x);
  y = target_at(td, trow);
  return true;
}

void Standardizer::fit(const Matrix& X) {
  const std::size_t n = X.rows(), k = X.cols();
  mean_.assign(k, 0.0);
  std_.assign(k, 0.0);
  if (n == 0) return;
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = X.row(r);
    for (std::size_t c = 0; c < k; ++c) mean_[c] += row[c];
  }
  for (std::size_t c = 0; c < k; ++c) mean_[c] /= static_cast<double>(n);
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = X.row(r);
    for (std::size_t c = 0; c < k; ++c) {
      const double d = row[c] - mean_[c];
      std_[c] += d * d;
    }
  }
  for (std::size_t c = 0; c < k; ++c) {
    std_[c] = std::sqrt(std_[c] / static_cast<double>(n));
    if (std_[c] < 1e-12) std_[c] = 0.0;  // constant column -> maps to 0
  }
}

void Standardizer::restore(std::vector<double> mean,
                           std::vector<double> stddev) {
  assert(mean.size() == stddev.size());
  mean_ = std::move(mean);
  std_ = std::move(stddev);
}

Matrix Standardizer::transform(const Matrix& X) const {
  assert(fitted() && X.cols() == mean_.size());
  Matrix out(X.rows(), X.cols());
  for (std::size_t r = 0; r < X.rows(); ++r)
    transform_row(X.row(r), out.row(r));
  return out;
}

void Standardizer::transform_row(std::span<const double> in,
                                 std::span<double> out) const {
  assert(in.size() == mean_.size() && out.size() == mean_.size());
  for (std::size_t c = 0; c < in.size(); ++c)
    out[c] = std_[c] > 0.0 ? (in[c] - mean_[c]) / std_[c] : 0.0;
}

}  // namespace leaf::data
