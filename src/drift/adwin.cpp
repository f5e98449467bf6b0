#include "drift/adwin.hpp"

#include <cassert>
#include <cmath>

namespace leaf::drift {

namespace {

constexpr double kDelta = 0.002;          ///< confidence parameter
constexpr std::size_t kMaxBuckets = 5;    ///< buckets per exponential row
constexpr std::uint64_t kMinWindow = 10;  ///< samples before any cut test
/// Run the (O(buckets^2)) cut test every this many updates.
constexpr int kCheckPeriod = 4;

}  // namespace

void Adwin::insert(double value) {
  if (rows_.empty()) rows_.emplace_back();
  rows_.front().push_front(Bucket{value, 0.0, 1});
  total_sum_ += value;
  ++total_count_;
  // Incremental total variance update (Chan's formula for adding one
  // point to the aggregate).
  if (total_count_ > 1) {
    const double mean_prev =
        (total_sum_ - value) / static_cast<double>(total_count_ - 1);
    const double d = value - mean_prev;
    total_var_ += d * d * static_cast<double>(total_count_ - 1) /
                  static_cast<double>(total_count_);
  }
  compress();
}

void Adwin::compress() {
  for (std::size_t level = 0; level < rows_.size(); ++level) {
    auto& row = rows_[level];
    if (row.size() <= kMaxBuckets) break;
    // Merge the two oldest buckets of this row into the next row.
    Bucket b2 = row.back();
    row.pop_back();
    Bucket b1 = row.back();
    row.pop_back();
    Bucket merged;
    merged.count = b1.count + b2.count;
    merged.sum = b1.sum + b2.sum;
    const double m1 = b1.sum / static_cast<double>(b1.count);
    const double m2 = b2.sum / static_cast<double>(b2.count);
    const double d = m1 - m2;
    merged.var = b1.var + b2.var +
                 d * d * static_cast<double>(b1.count) *
                     static_cast<double>(b2.count) /
                     static_cast<double>(merged.count);
    if (level + 1 == rows_.size()) rows_.emplace_back();
    rows_[level + 1].push_front(merged);
  }
}

void Adwin::drop_oldest_bucket() {
  assert(!rows_.empty());
  auto& last_row = rows_.back();
  assert(!last_row.empty());
  const Bucket& b = last_row.back();
  total_sum_ -= b.sum;
  total_count_ -= b.count;
  // Remove the bucket's contribution to the aggregate variance (reverse
  // of the merge formula; floored at zero for numerical safety).
  if (total_count_ > 0) {
    const double mb = b.sum / static_cast<double>(b.count);
    const double mrest = total_sum_ / static_cast<double>(total_count_);
    const double d = mb - mrest;
    total_var_ -= b.var + d * d * static_cast<double>(b.count) *
                              static_cast<double>(total_count_) /
                              static_cast<double>(total_count_ + b.count);
    if (total_var_ < 0.0) total_var_ = 0.0;
  } else {
    total_var_ = 0.0;
  }
  last_row.pop_back();
  if (last_row.empty() && rows_.size() > 1) rows_.pop_back();
}

bool Adwin::detect_cut() {
  if (total_count_ < kMinWindow) return false;

  bool drift = false;
  bool reduced = true;
  while (reduced) {
    reduced = false;
    // Walk cut points from oldest to newest: W = W0 (old) | W1 (new).
    double sum0 = 0.0;
    std::uint64_t n0 = 0;
    const double total_variance =
        total_count_ > 1
            ? total_var_ / static_cast<double>(total_count_ - 1)
            : 0.0;
    const double delta_prime =
        kDelta / std::log(static_cast<double>(total_count_) + 1.0);

    for (std::size_t level = rows_.size(); level-- > 0 && !reduced;) {
      const auto& row = rows_[level];
      // Oldest bucket within a row is at the back.
      for (std::size_t bi = row.size(); bi-- > 0;) {
        const Bucket& b = row[bi];
        sum0 += b.sum;
        n0 += b.count;
        const std::uint64_t n1 = total_count_ - n0;
        if (n0 < 1 || n1 < 1) continue;
        const double m0 = sum0 / static_cast<double>(n0);
        const double m1 =
            (total_sum_ - sum0) / static_cast<double>(n1);
        const double inv_m = 1.0 / static_cast<double>(n0) +
                             1.0 / static_cast<double>(n1);
        const double m_harm = 1.0 / inv_m;
        const double eps =
            std::sqrt(2.0 / m_harm * total_variance *
                      std::log(2.0 / delta_prime)) +
            2.0 / (3.0 * m_harm) * std::log(2.0 / delta_prime);
        if (std::abs(m0 - m1) > eps) {
          drift = true;
          drop_oldest_bucket();
          reduced = true;  // restart the scan on the shrunk window
          break;
        }
      }
    }
  }
  return drift;
}

bool Adwin::update(double value) {
  static DetectorCounters ctrs("ADWIN");
  ctrs.updates.inc();
  insert(value);
  if (++since_check_ < kCheckPeriod) return false;
  since_check_ = 0;
  const bool drift = detect_cut();
  if (drift) ctrs.firings.inc();
  return drift;
}

void Adwin::reset() {
  rows_.clear();
  total_count_ = 0;
  total_sum_ = 0.0;
  total_var_ = 0.0;
  since_check_ = 0;
}

}  // namespace leaf::drift
