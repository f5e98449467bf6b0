#include "common/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "common/stats.hpp"
#include "simd/simd.hpp"

namespace leaf::metrics {

double nrmse(std::span<const double> pred, std::span<const double> truth,
             double norm_range) {
  assert(pred.size() == truth.size());
  if (!(norm_range > 0.0) || !std::isfinite(norm_range))
    return std::numeric_limits<double>::quiet_NaN();
  if (pred.empty()) return 0.0;
  const simd::ErrorAcc acc = simd::squared_error(pred, truth);
  if (acc.finite == 0) return std::numeric_limits<double>::quiet_NaN();
  return std::sqrt(acc.sum_sq / static_cast<double>(acc.finite)) / norm_range;
}

double normalized_error(double pred, double truth, double norm_range) {
  if (!(norm_range > 0.0) || !std::isfinite(norm_range))
    return std::numeric_limits<double>::quiet_NaN();
  return (pred - truth) / norm_range;
}

double mae(std::span<const double> pred, std::span<const double> truth) {
  assert(pred.size() == truth.size());
  if (pred.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    acc += std::abs(pred[i] - truth[i]);
  return acc / static_cast<double>(pred.size());
}

double median_ae(std::span<const double> pred, std::span<const double> truth) {
  assert(pred.size() == truth.size());
  if (pred.empty()) return 0.0;
  std::vector<double> abs_err(pred.size());
  for (std::size_t i = 0; i < pred.size(); ++i)
    abs_err[i] = std::abs(pred[i] - truth[i]);
  return stats::quantile(abs_err, 0.5);
}

double mape(std::span<const double> pred, std::span<const double> truth,
            double eps) {
  assert(pred.size() == truth.size());
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    if (std::abs(truth[i]) < eps) continue;
    acc += std::abs((pred[i] - truth[i]) / truth[i]);
    ++n;
  }
  return n > 0 ? acc / static_cast<double>(n) * 100.0 : 0.0;
}

double r2(std::span<const double> pred, std::span<const double> truth) {
  assert(pred.size() == truth.size());
  if (truth.size() < 2) return 0.0;
  const double mean_t = stats::mean(truth);
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    ss_res += (truth[i] - pred[i]) * (truth[i] - pred[i]);
    ss_tot += (truth[i] - mean_t) * (truth[i] - mean_t);
  }
  if (ss_tot <= 0.0) return 0.0;
  return 1.0 - ss_res / ss_tot;
}

double explained_variance(std::span<const double> pred,
                          std::span<const double> truth) {
  assert(pred.size() == truth.size());
  if (truth.size() < 2) return 0.0;
  std::vector<double> resid(truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) resid[i] = truth[i] - pred[i];
  const double var_t = stats::variance(truth);
  if (var_t <= 0.0) return 0.0;
  return 1.0 - stats::variance(resid) / var_t;
}

double delta_nrmse_pct(std::span<const double> mitigated_nrmse_series,
                       std::span<const double> static_nrmse_series) {
  const double m1 = stats::mean(mitigated_nrmse_series);
  const double m0 = stats::mean(static_nrmse_series);
  if (m0 <= 0.0) return 0.0;
  return (m1 - m0) / m0 * 100.0;
}

}  // namespace leaf::metrics
