// Order statistics and span arithmetic for leafbench.
//
// Timings are summarised by nearest-rank percentiles, and a percentile is
// only quoted when at least ten samples lie beyond it.  Medians and
// quartiles follow Python's statistics module, so a spread computed here
// matches one computed from the printed values.  A layer's self time is its
// span minus the union of its children's intervals: children may overlap
// (parallel predict chunks, per-shard batches on two threads) and must not
// be counted twice.
#pragma once

#include <chrono>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace leafbench {

/// Seconds on the steady clock (the clock every leafbench timing reads,
/// and the one obs spans use).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile, p in (0, 100]: the smallest sample with at least
/// p% of all samples at or below it.  0 for an empty sample.
double percentile(std::vector<double> samples, double p);

/// Number of samples strictly above the nearest-rank p-th percentile of n
/// distinct samples: n - ceil(p/100 * n).
std::size_t samples_beyond(std::size_t n, double p);

/// The highest of `candidates` with at least `min_beyond` samples beyond it
/// in a sample of n, or 0 when none qualifies.
double highest_supported_percentile(std::size_t n,
                                    std::span<const double> candidates,
                                    std::size_t min_beyond = 10);

/// Median as Python's statistics.median (mean of the middle pair).
double median(std::vector<double> samples);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Quartiles as Python's statistics.quantiles(samples, n=4) (the default
/// exclusive method).  A single sample gives that sample three times.
Quartiles quartiles(std::vector<double> samples);

struct Interval {
  double start = 0.0;
  double end = 0.0;
  double length() const { return end > start ? end - start : 0.0; }
};

/// Total length covered by the union of the intervals.
double union_length(std::vector<Interval> intervals);

/// The parent's length minus the part of it covered by the union of its
/// children (children are clipped to the parent first).
double self_time(const Interval& parent, std::vector<Interval> children);

/// One row of a layer table.
struct LayerRow {
  std::string name;
  double value = 0.0;
};

/// Rows of a layer breakdown whose values, plus the unattributed
/// remainder, add up to the total.
struct LayerTable {
  std::string title;
  double total = 0.0;
  std::vector<LayerRow> rows;

  double attributed() const;
  double unattributed() const { return total - attributed(); }
};

}  // namespace leafbench
