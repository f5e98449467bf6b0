// Statistics kit used across the LEAF reproduction.
//
// Everything here operates on `std::span<const double>` so call sites can
// pass vectors, matrix rows, or sub-ranges without copies.  All functions
// are pure and deterministic.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace leaf::stats {

/// Arithmetic mean; 0 for an empty range.
double mean(std::span<const double> xs);

/// Unbiased sample variance (n-1 denominator); 0 for n < 2.
double variance(std::span<const double> xs);

/// Sample standard deviation.
double stddev(std::span<const double> xs);

/// Coefficient of variation Std/Mean — the paper's "dispersion" (Table 2).
/// Returns 0 when the mean is 0.
double dispersion(std::span<const double> xs);

/// Linear-interpolation quantile, q in [0, 1].  Requires non-empty input.
/// Does not require sorted input (copies internally).
double quantile(std::span<const double> xs, double q);

/// Quantile over already-sorted data (no copy).
double quantile_sorted(std::span<const double> sorted, double q);

/// The q-quantile cut points dividing the data into `bins` equal-count
/// groups: returns bins-1 interior edges.  Duplicates may appear when the
/// data has ties; callers that need strictly increasing edges should
/// deduplicate.
std::vector<double> quantile_edges(std::span<const double> xs, std::size_t bins);

/// Fisher skewness (g1); 0 for n < 3 or zero variance.
double skewness(std::span<const double> xs);

/// Pearson correlation in [-1, 1]; 0 when either side has zero variance.
/// Requires equal sizes.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Autocorrelation of the series at the given lag; 0 when undefined.
double autocorrelation(std::span<const double> xs, std::size_t lag);

/// Strength of a periodic component at period `period`, estimated as the
/// normalized power of that frequency in a rectangular-window DFT (the
/// paper checks 7-day periodicity with STFT-style analysis).  Returns the
/// ratio of power at the period's frequency bin to total non-DC power,
/// in [0, 1].
double periodicity_strength(std::span<const double> xs, std::size_t period);

/// Burstiness score: fraction of points further than `k` standard
/// deviations from a centered rolling median (window `w`).  High for
/// spiky series such as CDR / GDR.
double burstiness(std::span<const double> xs, std::size_t w = 15, double k = 3.0);

/// Two-sample Kolmogorov–Smirnov statistic D = sup |F1 - F2|.
double ks_statistic(std::span<const double> a, std::span<const double> b);

/// Asymptotic p-value for the two-sample KS test (Kolmogorov distribution,
/// with the Marsaglia-style effective-n correction).
double ks_p_value(std::span<const double> a, std::span<const double> b);

}  // namespace leaf::stats
