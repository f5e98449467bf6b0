#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace leaf::stats {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) {
    const double d = x - m;
    acc += d * d;
  }
  return acc / static_cast<double>(n - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double dispersion(std::span<const double> xs) {
  const double m = mean(xs);
  if (m == 0.0) return 0.0;
  return stddev(xs) / std::abs(m);
}

double quantile_sorted(std::span<const double> sorted, double q) {
  assert(!sorted.empty());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double quantile(std::span<const double> xs, double q) {
  assert(!xs.empty());
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  return quantile_sorted(copy, q);
}

std::vector<double> quantile_edges(std::span<const double> xs,
                                   std::size_t bins) {
  assert(bins >= 1);
  std::vector<double> edges;
  if (xs.empty() || bins == 1) return edges;
  std::vector<double> copy(xs.begin(), xs.end());
  std::sort(copy.begin(), copy.end());
  edges.reserve(bins - 1);
  for (std::size_t i = 1; i < bins; ++i) {
    edges.push_back(
        quantile_sorted(copy, static_cast<double>(i) / static_cast<double>(bins)));
  }
  return edges;
}

double skewness(std::span<const double> xs) {
  const std::size_t n = xs.size();
  if (n < 3) return 0.0;
  const double m = mean(xs);
  double m2 = 0.0, m3 = 0.0;
  for (double x : xs) {
    const double d = x - m;
    m2 += d * d;
    m3 += d * d * d;
  }
  m2 /= static_cast<double>(n);
  m3 /= static_cast<double>(n);
  if (m2 <= 0.0) return 0.0;
  return m3 / std::pow(m2, 1.5);
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  assert(xs.size() == ys.size());
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  const double mx = mean(xs), my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double autocorrelation(std::span<const double> xs, std::size_t lag) {
  const std::size_t n = xs.size();
  if (lag >= n || n < 2) return 0.0;
  const double m = mean(xs);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = xs[i] - m;
    den += d * d;
    if (i + lag < n) num += d * (xs[i + lag] - m);
  }
  if (den <= 0.0) return 0.0;
  return num / den;
}

double periodicity_strength(std::span<const double> xs, std::size_t period) {
  const std::size_t n = xs.size();
  if (period < 2 || n < 2 * period) return 0.0;
  const double m = mean(xs);
  // Goertzel-style single-bin DFT at frequency n/period (rounded), plus
  // total power for normalization.
  const double freq = static_cast<double>(n) / static_cast<double>(period);
  const std::size_t k = static_cast<std::size_t>(std::llround(freq));
  if (k == 0 || k >= n / 2) return 0.0;
  double re = 0.0, im = 0.0, total = 0.0;
  const double w = 2.0 * M_PI * static_cast<double>(k) / static_cast<double>(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double d = xs[t] - m;
    re += d * std::cos(w * static_cast<double>(t));
    im -= d * std::sin(w * static_cast<double>(t));
    total += d * d;
  }
  if (total <= 0.0) return 0.0;
  // Power at the bin, normalized so a pure sinusoid at that frequency
  // scores ~1.
  const double bin_power = 2.0 * (re * re + im * im) / static_cast<double>(n);
  return std::clamp(bin_power / total, 0.0, 1.0);
}

double burstiness(std::span<const double> xs, std::size_t w, double k) {
  const std::size_t n = xs.size();
  if (n < w || w < 3) return 0.0;
  const double sigma = stddev(xs);
  if (sigma <= 0.0) return 0.0;
  std::size_t bursts = 0;
  std::vector<double> window;
  window.reserve(w);
  const std::size_t half = w / 2;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(n, lo + w);
    window.assign(xs.begin() + static_cast<std::ptrdiff_t>(lo),
                  xs.begin() + static_cast<std::ptrdiff_t>(hi));
    std::nth_element(window.begin(), window.begin() + static_cast<std::ptrdiff_t>(window.size() / 2),
                     window.end());
    const double med = window[window.size() / 2];
    if (std::abs(xs[i] - med) > k * sigma) ++bursts;
  }
  return static_cast<double>(bursts) / static_cast<double>(n);
}

double ks_statistic(std::span<const double> a, std::span<const double> b) {
  assert(!a.empty() && !b.empty());
  std::vector<double> sa(a.begin(), a.end());
  std::vector<double> sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  std::size_t ia = 0, ib = 0;
  double d = 0.0;
  const double na = static_cast<double>(sa.size());
  const double nb = static_cast<double>(sb.size());
  while (ia < sa.size() && ib < sb.size()) {
    const double x = std::min(sa[ia], sb[ib]);
    while (ia < sa.size() && sa[ia] <= x) ++ia;
    while (ib < sb.size() && sb[ib] <= x) ++ib;
    d = std::max(d, std::abs(static_cast<double>(ia) / na -
                             static_cast<double>(ib) / nb));
  }
  return d;
}

namespace {
// Kolmogorov distribution survival function Q(lambda) = 2 sum (-1)^{k-1}
// exp(-2 k^2 lambda^2).
double kolmogorov_q(double lambda) {
  if (lambda < 1e-3) return 1.0;
  double sum = 0.0;
  double sign = 1.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = std::exp(-2.0 * k * k * lambda * lambda);
    sum += sign * term;
    sign = -sign;
    if (term < 1e-12) break;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}
}  // namespace

double ks_p_value(std::span<const double> a, std::span<const double> b) {
  const double d = ks_statistic(a, b);
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double ne = na * nb / (na + nb);
  const double sqrt_ne = std::sqrt(ne);
  // Stephens' small-sample correction.
  const double lambda = (sqrt_ne + 0.12 + 0.11 / sqrt_ne) * d;
  return kolmogorov_q(lambda);
}

}  // namespace leaf::stats
