#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace leafbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  const std::size_t beyond = samples_beyond(n, p);
  const std::size_t rank = n - beyond;  // 1-based
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const double exact = p / 100.0 * static_cast<double>(n);
  // Round away float noise first: 0.99 * 1000 must rank 990, not 991.
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

double highest_supported_percentile(std::size_t n,
                                    std::span<const double> candidates,
                                    std::size_t min_beyond) {
  double best = 0.0;
  for (double p : candidates)
    if (p > best && samples_beyond(n, p) >= min_beyond) best = p;
  return best;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

Quartiles quartiles(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const std::size_t ld = samples.size();
  if (ld == 1) return {samples[0], samples[0], samples[0]};
  // statistics.quantiles, method='exclusive', n=4.
  const std::size_t m = ld + 1;
  double q[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    q[i - 1] = (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
  }
  return {q[0], q[1], q[2]};
}

double union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double total = 0.0;
  bool open = false;
  Interval cur;
  for (const Interval& iv : intervals) {
    if (iv.length() <= 0.0) continue;
    if (!open) {
      cur = iv;
      open = true;
    } else if (iv.start <= cur.end) {
      cur.end = std::max(cur.end, iv.end);
    } else {
      total += cur.length();
      cur = iv;
    }
  }
  if (open) total += cur.length();
  return total;
}

double self_time(const Interval& parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  return parent.length() - union_length(std::move(children));
}

double LayerTable::attributed() const {
  double sum = 0.0;
  for (const LayerRow& r : rows) sum += r.value;
  return sum;
}

}  // namespace leafbench
