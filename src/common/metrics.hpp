// Regression error metrics (§2.3).
//
// The paper's primary metric is NRMSE — RMSE normalized by the target's
// max-min range — chosen so errors are comparable across KPIs whose
// natural ranges differ by orders of magnitude ("call drop rates are
// scalars mostly less than 1, while downlink volume scalars are often
// greater than 300,000").  Plain RMSE is nrmse() with a norm_range of 1.
// The secondary metrics below are the ones footnote 1 says the authors
// cross-checked; no program reports them.
#pragma once

#include <span>

namespace leaf::metrics {

/// RMSE / norm_range (the max-min of the target over the dataset).
/// "NRMSE scores under 0.1 ... indicate that the regression model has very
/// good prediction power."
/// Robust to dirty telemetry: pairs with a non-finite value on either side
/// are excluded, so a single corrupt sample cannot poison the error
/// series.  Returns NaN when no finite pair remains or norm_range is not a
/// positive finite number (callers guard; see core::DegradedStats).
double nrmse(std::span<const double> pred, std::span<const double> truth,
             double norm_range);

/// Signed per-sample Normalized Error (pred - truth) / norm_range: the
/// LEAgram metric, where positive = overestimation (unnecessary
/// infrastructure spend) and negative = underestimation (user
/// dissatisfaction).  NaN when the inputs or norm_range are unusable.
double normalized_error(double pred, double truth, double norm_range);

/// Mean absolute error.
double mae(std::span<const double> pred, std::span<const double> truth);

/// Median absolute error.
double median_ae(std::span<const double> pred, std::span<const double> truth);

/// Mean absolute percentage error (samples with |truth| < eps skipped).
double mape(std::span<const double> pred, std::span<const double> truth,
            double eps = 1e-9);

/// Coefficient of determination; 1 is perfect, 0 matches predicting the
/// mean, negative is worse than the mean.
double r2(std::span<const double> pred, std::span<const double> truth);

/// Explained variance score: 1 - Var(truth - pred) / Var(truth).
double explained_variance(std::span<const double> pred,
                          std::span<const double> truth);

/// Percentage distance of a mitigated model's average NRMSE from the
/// static model's (Eq. 1):
///   (mean(mitigated) - mean(static)) / mean(static) * 100.
/// The paper's headline comparison number; lower (more negative) is
/// better.
double delta_nrmse_pct(std::span<const double> mitigated_nrmse_series,
                       std::span<const double> static_nrmse_series);

}  // namespace leaf::metrics
