#include "ingest/validator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/stats.hpp"

namespace leaf::ingest {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Robust quantiles of the reference slice that anchor the bounds.
constexpr double kBoundQuantileLo = 0.001;
constexpr double kBoundQuantileHi = 0.999;
/// Headroom multiplier applied above the high anchor (KPIs grow over the
/// study; bounds must not quarantine organic growth).
constexpr double kBoundHeadroom = 8.0;

}  // namespace

bool KpiBounds::plausible(int column, double v) const {
  if (!std::isfinite(v)) return false;
  if (!fitted()) return true;
  const std::size_t c = static_cast<std::size_t>(column);
  return v >= lo[c] && v <= hi[c];
}

KpiBounds fit_bounds(const std::vector<std::vector<double>>& column_samples) {
  KpiBounds b;
  b.lo.reserve(column_samples.size());
  b.hi.reserve(column_samples.size());
  std::vector<double> finite;
  for (const auto& samples : column_samples) {
    finite.clear();
    finite.reserve(samples.size());
    for (double v : samples)
      if (std::isfinite(v)) finite.push_back(v);
    if (finite.empty()) {
      // No usable reference: accept any finite value.
      b.lo.push_back(-std::numeric_limits<double>::max());
      b.hi.push_back(std::numeric_limits<double>::max());
      continue;
    }
    const double qlo = stats::quantile(finite, kBoundQuantileLo);
    const double qhi = stats::quantile(finite, kBoundQuantileHi);
    const double span = std::max(qhi - qlo, std::abs(qhi) * 0.1 + 1e-9);
    // KPIs are non-negative counters/ratios in this schema, but the bounds
    // only assume what the reference shows: a little slack below the low
    // anchor, `kBoundHeadroom` spans above the high one (organic growth
    // must stay in-bounds; a 50x wrap spike must not).
    b.lo.push_back(qlo - 0.5 * span);
    b.hi.push_back(qhi + kBoundHeadroom * span);
  }
  return b;
}

Imputer::Imputer(int num_enbs, int num_kpis)
    : num_enbs_(num_enbs), num_kpis_(num_kpis) {
  const std::size_t cells =
      static_cast<std::size_t>(num_enbs) * static_cast<std::size_t>(num_kpis);
  last_val_.assign(cells, 0.0f);
  last_day_.assign(cells, -1);
  today_.assign(static_cast<std::size_t>(num_kpis), {});
  fleet_median_.assign(static_cast<std::size_t>(num_kpis), 0.0f);
  fleet_median_seen_.assign(static_cast<std::size_t>(num_kpis), false);
}

void Imputer::begin_day(int day) {
  day_ = day;
  for (auto& col : today_) col.clear();
}

void Imputer::observe(int enb, int column, double v) {
  const std::size_t c = cell(enb, column);
  last_val_[c] = static_cast<float>(v);
  last_day_[c] = day_;
  today_[static_cast<std::size_t>(column)].push_back(v);

  // Frugal streaming median: cheap per-column fleet level for the final
  // imputation fallback.
  const std::size_t col = static_cast<std::size_t>(column);
  if (!fleet_median_seen_[col]) {
    fleet_median_[col] = static_cast<float>(v);
    fleet_median_seen_[col] = true;
  } else {
    const double med = fleet_median_[col];
    const double step = 0.05 * (std::abs(med) + std::abs(v)) / 2.0 + 1e-12;
    fleet_median_[col] =
        static_cast<float>(v > med ? med + step : (v < med ? med - step : med));
  }
}

bool Imputer::carry_fresh(int enb, int column) const {
  const std::size_t c = cell(enb, column);
  return last_day_[c] >= 0 && day_ - last_day_[c] <= kStalenessCapDays;
}

double Imputer::carry_forward(int enb, int column) const {
  return carry_fresh(enb, column)
             ? static_cast<double>(last_val_[cell(enb, column)])
             : kNaN;
}

double Imputer::group_median(int column) const {
  const auto& xs = today_[static_cast<std::size_t>(column)];
  if (xs.size() < 3) return kNaN;
  return stats::quantile(xs, 0.5);
}

double Imputer::impute(int enb, int column) const {
  // Fresh carry → day cross-section → fleet median.
  double v = carry_forward(enb, column);
  if (!std::isfinite(v)) v = group_median(column);
  if (!std::isfinite(v) && fleet_median_seen_[static_cast<std::size_t>(column)])
    v = static_cast<double>(fleet_median_[static_cast<std::size_t>(column)]);
  return v;
}

}  // namespace leaf::ingest
